"""Per-layer timings of the GP fit and of batch acquisition, written as JSON.

    python3 benchmarks/layers.py --out BENCH_<n>.json [--src DIR]

For each n in SIZES and each shape, continuous-only (d = 1, m = 0) and mixed
(d = 1, m = 1 with two categories), it builds n observations of a sin/cos
objective over rounds 1..40 and times, in this process, each layer that a
PB2-style round runs:

    factor             gp._factor: K, its Cholesky, alpha and the LML
    grad               gp._grad from that factor
    fit                gp.fit: both ascents, from the default theta and a random start
    candidates_first   _BatchPosterior.candidates on a new batch: one solve over U
    candidates_extend  candidates again after one append: one new row of V
    points             _BatchPosterior.points on one 16-point refinement grid
    append             _BatchPosterior.append: one hallucinated row of the factor
    select             acquisition.select_batch_continuous: one batch of 2 picks, each
                       a candidate solve and its refinement grids, with one append between

U holds 250 candidates, as `AcquisitionConfig` draws by default. The layers
after `fit` use the fitted theta. `factor` and `grad` run on one OpenBLAS
thread, as inside `fit`; the posterior layers run on the process's count.

Each layer runs REPEATS times. A pure-Python reference loop, the one
perfbench/run.py times, runs before and after each layer's repeats; a layer's
`ref` is its median time divided by the mean of those two references, which
cancels the host's speed swings, and `ms` is its median wall time. The file
also records the OpenBLAS thread counts, the library versions, the LML of
each fitted theta and where popbandit was imported from, relative to this
checkout. popbandit is imported from --src (default: this checkout's src/),
so the same script can time another tree.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REF_WINDOW_S = 0.4
REF_LOOP = 100_000  # the loop of perfbench/run.py's reference_s
SIZES = (50, 200)
REPEATS = 21
N_CANDIDATES = 250
GRID = 16
LAYERS = ("factor", "grad", "fit", "candidates_first", "candidates_extend", "points", "append",
          "select")


def reference_s() -> float:
    """Median seconds of a fixed pure-Python loop, run for REF_WINDOW_S (at least once)."""
    times = []
    end = time.perf_counter() + REF_WINDOW_S
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(setup, run) -> dict:
    """{"ref", "ms"} of run(setup()) over REPEATS repeats; only run is timed."""
    before = reference_s()
    times = []
    for _ in range(REPEATS):
        state = setup()
        t0 = time.perf_counter()
        run(state)
        times.append(time.perf_counter() - t0)
    ref = 0.5 * (before + reference_s())
    median = statistics.median(times)
    return {"ref": median / ref, "ms": 1e3 * median}


def dataset(n: int, mixed: bool):
    """n observations of sin(3x) or cos(3x) by category, min-max scaled, at rounds 1..40."""
    rng = np.random.default_rng(n)
    X = rng.uniform(size=(n, 1))
    H = rng.integers(0, 2, size=(n, 1))
    t = np.sort(rng.integers(1, 41, size=n)).astype(float)
    y = np.where(H[:, 0] == 0, np.sin(3 * X[:, 0]), np.cos(3 * X[:, 0]))
    y = (y - y.min()) / (y.max() - y.min())
    return X, H if mixed else H[:, :0], t, y


def measure_shape(popbandit, n: int, mixed: bool) -> dict:
    """This shape's fitted theta, its LML and the timing of each of LAYERS."""
    gp, _blas = popbandit.gp, popbandit._blas
    X, H, t, y = dataset(n, mixed)
    model = gp.GPModel(X, H, t, y, gp.GPHyperparams())
    timings = {"fit": timed(lambda: model, lambda m: gp.fit(m, seed=0))}
    theta = gp.fit(model, seed=0)
    fitted = gp.GPModel(X, H, t, y, theta)
    theta_arr, parts = theta.as_array(), (fitted._d2, fitted._match, fitted._dt)
    with _blas.single_thread():
        timings["factor"] = timed(lambda: None, lambda _: gp._factor(theta_arr, *parts, y))
        _, factor, alpha = gp._factor(theta_arr, *parts, y)
        timings["grad"] = timed(lambda: None,
                                lambda _: gp._grad(theta_arr, *parts, factor, alpha))

    U = np.random.default_rng(1).uniform(size=(N_CANDIDATES, 1))
    h = np.array([0]) if mixed else None
    x = np.array([0.5])
    grid = np.linspace(0.45, 0.55, GRID).reshape(-1, 1)
    tq = float(t[-1]) + 1.0

    def batch():
        return gp._BatchPosterior(fitted, U, tq)

    def batch_with_set_and_append():
        posterior = batch()
        posterior.candidates(h)
        posterior.append(x, h)
        return posterior

    timings["candidates_first"] = timed(batch, lambda p: p.candidates(h))
    timings["candidates_extend"] = timed(batch_with_set_and_append, lambda p: p.candidates(h))
    timings["points"] = timed(batch, lambda p: p.points(grid, h))
    timings["append"] = timed(batch, lambda p: p.append(x, h))
    params = (popbandit.ContinuousParam("x", 0.0, 1.0),)
    timings["select"] = timed(
        lambda: np.random.default_rng(2),
        lambda rng: popbandit.select_batch_continuous(
            fitted, params, 2, int(t[-1]), popbandit.AcquisitionConfig(), rng,
            fixed_h=None if h is None else [h, h]))
    return {"n": n, "d": 1, "m": H.shape[1], "fit_lml": gp.log_marginal(fitted),
            "theta": [float(v) for v in theta_arr],
            "timings": {layer: timings[layer] for layer in LAYERS}}


def load_popbandit(src: Path):
    """The popbandit package, imported from src."""
    if not (src / "popbandit" / "__init__.py").is_file():
        sys.exit(f"layers: no popbandit sources under {src}")
    sys.path.insert(0, str(src))
    import popbandit  # its __init__ imports gp, and gp imports _blas

    if src.resolve() not in Path(popbandit.__file__).resolve().parents:
        sys.exit(f"layers: imported popbandit from {popbandit.__file__}, not {src}")
    return popbandit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding popbandit/")
    args = parser.parse_args(argv)
    popbandit = load_popbandit(Path(args.src))
    popbandit._blas.lapack()  # maps scipy's OpenBLAS, so that every copy's count is read below
    import scipy

    shapes = {f"n{n}-{'mixed' if mixed else 'continuous'}": (n, mixed)
              for n in SIZES for mixed in (False, True)}
    report = {
        "environment": {
            "src": os.path.relpath(Path(args.src).resolve(), ROOT),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": popbandit._blas.get_threads(),
        },
        "settings": {"repeats": REPEATS, "n_candidates": N_CANDIDATES, "grid": GRID,
                     "ref_loop": REF_LOOP},
        "shapes": {name: measure_shape(popbandit, n, mixed)
                   for name, (n, mixed) in shapes.items()},
    }
    report["environment"]["ref_ms"] = 1e3 * reference_s()
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, shape in report["shapes"].items():
        cells = "  ".join(f"{layer} {v['ref']:.4g}" for layer, v in shape["timings"].items())
        print(f"{name}: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
