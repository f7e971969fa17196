"""benchmarks/layers.py writes one timing per layer and shape, with its settings."""
import importlib.util
import json
import math
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def test_report_keys(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmarks_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    monkeypatch.setattr(layers, "REF_WINDOW_S", 0.0)  # one reference loop each
    monkeypatch.setattr(layers, "SIZES", (12,))
    monkeypatch.setattr(layers, "REPEATS", 1)
    out = tmp_path / "bench.json"
    assert layers.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"environment", "settings", "shapes"}
    assert {"src", "python", "numpy", "scipy", "nproc", "blas_threads",
            "ref_ms"} <= set(report["environment"])
    assert all(count >= 1 for count in report["environment"]["blas_threads"])
    assert report["settings"]["repeats"] == 1
    assert set(report["shapes"]) == {"n12-continuous", "n12-mixed"}
    for name, shape in report["shapes"].items():
        assert (shape["n"], shape["d"], shape["m"]) == (12, 1, int(name.endswith("mixed")))
        assert math.isfinite(shape["fit_lml"]) and len(shape["theta"]) == 7
        assert tuple(shape["timings"]) == layers.LAYERS
        for timing in shape["timings"].values():
            assert set(timing) == {"ref", "ms"}
            assert timing["ref"] > 0.0 and timing["ms"] > 0.0
