import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import popbandit
from popbandit import _blas, cli
from popbandit.harness import OBJECTIVE_ARGS
from popbandit.space import ContinuousParam


SPACE = {
    "continuous": [{"name": "x", "lower": 0.0, "upper": math.pi / 2.0}],
    "categorical": [{"name": "h", "choices": ["sin", "cos"]}],
}

FAST_ACQ = {"n_candidates": 50, "n_refine_steps": 3}


def write_config(tmp_path, **overrides):
    cfg = {
        "space": SPACE,
        "objective": "sincos",
        "strategy": "random",
        "seeds": [0, 1],
        "B": 2,
        "T_rounds": 3,
        "acquisition": FAST_ACQ,
        "output": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def fresh_python(code: str, **env) -> str:
    """stdout of code run in a new interpreter that imports popbandit from this
    tree. This test process has scipy loaded already (the test modules import
    it), so what a popbandit process loads is seen only in a new one."""
    src = os.path.dirname(os.path.dirname(popbandit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# The thread count of every OpenBLAS the process maps, read from a fresh look
# at /proc/self/maps, not from `_blas`'s own list of the copies it found.
MAPPED_OPENBLAS_THREADS = """
def mapped_openblas_threads():
    with open('/proc/self/maps') as fh:
        paths = _blas._openblas_paths(fh)
    return {path: _blas._control(path)[0]() for path in paths}
"""


@pytest.fixture(autouse=True)
def single_thread(monkeypatch):
    monkeypatch.setenv("POPBANDIT_THREADS", "1")


class TestRunCommand:
    def test_writes_per_seed_and_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        out = tmp_path / "out"
        assert (out / "run_random_seed0.csv").exists()
        assert (out / "run_random_seed1.csv").exists()
        rows = read_csv(out / "run_random_seed0.csv")
        assert rows[0] == ["round", "agent", "strategy", "seed", "h", "x_0",
                           "f", "regret", "cum_regret"]
        assert len(rows) == 1 + 3 * 2  # header + T_rounds * B
        summary = read_csv(out / "summary_random.csv")
        assert summary[0] == ["round", "cum_regret_mean", "cum_regret_sem"]
        assert len(summary) == 4

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, strategy="pb2-mult", T_rounds=2)
        out = tmp_path / "out" / "run_pb2-mult_seed0.csv"
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        first = out.read_bytes()
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        assert out.read_bytes() == first

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", cfg, "--seed", "7"]) == cli.EXIT_OK
        out = tmp_path / "out"
        assert (out / "run_random_seed7.csv").exists()
        assert not (out / "run_random_seed0.csv").exists()

    def test_missing_field_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": SPACE, "objective": "sincos"}))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_strategy_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, strategy="nonsense")
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG

    def test_missing_file_is_config_error(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG

    def test_population_below_two_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, B=1)
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert "B must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("quantile", [0.0, 0.6, -0.25])
    def test_quantile_out_of_range_is_config_error(self, tmp_path, capsys, quantile):
        cfg = write_config(tmp_path, quantile=quantile)
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert "quantile" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["pb2-mult", "pb2-mix"])
    def test_bandit_strategy_on_one_arm_is_config_error(self, tmp_path, capsys, strategy):
        one_arm = {"continuous": SPACE["continuous"], "categorical": []}
        cfg = write_config(tmp_path, space=one_arm, strategy=strategy)
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert "at least 2 categorical arms" in capsys.readouterr().err
        cfg = write_config(tmp_path, space=one_arm, strategies=["random", strategy])
        assert cli.main(["compare", cfg]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("strategy", ["pb2-rand", "pb2-mult", "pb2-mix"])
    def test_pick_on_the_upper_bound_is_in_the_box(self, tmp_path, strategy):
        # lower + 1.0 (upper - lower) is 0.7000000000000002 here: a pick on the
        # box's upper edge used to exit 3 with an invalid config.
        space = {**SPACE, "continuous": [{"name": "x", "lower": -3.0, "upper": 0.7}]}
        cfg = write_config(tmp_path, space=space, strategy=strategy, seeds=[0], B=4,
                           T_rounds=10)
        assert cli.main(["run", cfg]) == cli.EXIT_OK

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quantil=0.4)
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert "quantil" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("objective", ["sincos", "sincos-switch"])
    @pytest.mark.parametrize("missing", ["continuous", "categorical"])
    def test_objective_without_its_parameters_is_config_error(self, tmp_path, capsys,
                                                              objective, missing):
        space = {key: params for key, params in SPACE.items() if key != missing}
        cfg = write_config(tmp_path, space=space, objective=objective, strategy="pb2-rand")
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert "one continuous and one categorical" in capsys.readouterr().err
        cfg = write_config(tmp_path, space=space, objective=objective,
                           strategies=["random", "pb2-rand"])
        assert cli.main(["compare", cfg]) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_output_independent_of_worker_count(self, tmp_path, monkeypatch):
        # Seeds run here on two BLAS threads with POPBANDIT_THREADS=1 and in
        # one-thread workers with 2. By round 36 a GP holds over 128
        # observations, where OpenBLAS's Cholesky rounding depends on the
        # thread count; the CSVs must not.
        _blas.get_threads()  # the first lookup sets the count
        before = _blas._count
        _blas.set_threads(2)
        outputs = {}
        try:
            for threads in ("1", "2"):
                monkeypatch.setenv("POPBANDIT_THREADS", threads)
                out = tmp_path / f"out{threads}"
                cfg = write_config(tmp_path, strategy="pb2-mix", B=4, T_rounds=36,
                                   acquisition={}, output=str(out))
                assert cli.main(["run", cfg]) == cli.EXIT_OK
                outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        finally:
            _blas.set_threads(before)
        assert len(outputs["1"]) == 3  # two seed files and the summary
        assert outputs["2"] == outputs["1"]

    def test_seed_workers_use_one_blas_thread(self):
        # Each worker fits a GP, which loads scipy's LAPACK extension and so
        # maps scipy's OpenBLAS, then reports every OpenBLAS it maps. Under
        # `random` the parent has not loaded it, so the worker maps scipy's
        # copy after the pin; under `pb2-mult` the parent loads it before the fork.
        if not _blas.get_threads():
            pytest.skip("no OpenBLAS thread setter found in this process")
        code = MAPPED_OPENBLAS_THREADS + """
import argparse, json
import numpy as np
from popbandit import _blas, cli, gp

def worker(_cfg, _strategy_name, seed):
    rng = np.random.default_rng(seed)
    n = 12
    model = gp.GPModel(rng.uniform(size=(n, 1)), rng.integers(0, 2, size=(n, 1)),
                       np.arange(n, dtype=float), rng.normal(size=n), gp.GPHyperparams())
    gp.fit(model)
    return mapped_openblas_threads()

cli._run_one_seed = worker
print(json.dumps({name: cli._run_seeds(argparse.Namespace(seeds=[0, 1]), name)
                  for name in ("random", "pb2-mult")}))
"""
        reports = json.loads(fresh_python(code, POPBANDIT_THREADS="2"))
        for name, workers in reports.items():
            assert len(workers) == 2, name
            for threads in workers:
                assert any("scipy_openblas-" in path for path in threads), (name, threads)
                assert set(threads.values()) == {1}, (name, threads)

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)

        def boom(*_a, **_k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "_run_seeds", boom)
        assert cli.main(["run", cfg]) == cli.EXIT_RUNTIME

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_output_under_a_file_fails_before_any_seed(self, tmp_path, monkeypatch, capsys,
                                                        command):
        # A regular file where a directory must be: no permission bits involved.
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        cfg = write_config(tmp_path, strategies=["random", "pbt"],
                           output=str(blocker / "out"))

        def must_not_run(*_a, **_k):
            pytest.fail("a seed ran before the output directory was checked")

        monkeypatch.setattr(cli, "_run_seeds", must_not_run)
        assert cli.main([command, cfg]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]
        assert blocker.read_text() == "kept"

    def test_failed_run_leaves_no_partial_csv(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)

        def boom(*_a, **_k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "_run_seeds", boom)
        cli.main(["run", cfg])
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())


class TestConfigRejectedAtParseTime:
    """Each of these used to run (exit 0) or fail at run time (exit 3)."""

    @staticmethod
    def assert_config_error(tmp_path, capsys, message, **overrides):
        for command, extra in (("run", {}), ("compare", {"strategies": ["random", "pb2-mult"]})):
            cfg = write_config(tmp_path, **overrides, **extra)
            assert cli.main([command, cfg]) == cli.EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("space, message", [
        ({**SPACE, "categorcal": []}, "unknown space keys ['categorcal']"),
        ({"continuous": [{**SPACE["continuous"][0], "log": True}],
          "categorical": SPACE["categorical"]}, "unknown continuous parameter keys ['log']"),
        ({**SPACE, "per_category_continuous": {"sin": SPACE["continuous"]}},
         "unknown space keys ['per_category_continuous']"),
    ])
    def test_unknown_space_key(self, tmp_path, capsys, space, message):
        self.assert_config_error(tmp_path, capsys, message, space=space)

    @pytest.mark.parametrize("overrides, message", [
        ({"quantil": 0.4}, "unknown config keys ['quantil']; config takes ['B', 'T_rounds', "
         "'acquisition', 'objective', 'objective_args', 'output', 'quantile', 'seeds', 'space', "
         "'strategies', 'strategy']"),
        ({"space": {**SPACE, "x": []}}, "unknown space keys ['x']; space takes ['categorical', "
         "'continuous']"),
        ({"space": {**SPACE, "continuous": [{**SPACE["continuous"][0], "log": True}]}},
         "unknown continuous parameter keys ['log']; continuous parameter takes ['lower', "
         "'name', 'upper']"),
        ({"space": {**SPACE, "categorical": [{**SPACE["categorical"][0], "weights": [1, 1]}]}},
         "unknown categorical parameter keys ['weights']; categorical parameter takes "
         "['choices', 'name']"),
        # Used to print "AcquisitionConfig.__init__() got an unexpected keyword argument 'foo'".
        ({"acquisition": {"foo": 1}}, "unknown acquisition keys ['foo']; acquisition takes "
         "['c1', 'c2', 'n_candidates', 'n_refine_steps']"),
        ({"objective": "sincos-switch", "objective_args": {"v": 1}},
         "unknown objective_args keys ['v']; objective_args takes ['V']"),
        ({"objective_args": {"V": 1}}, "unknown objective_args keys ['V']; objective_args takes []"),
    ])
    def test_unknown_key_message_names_the_keys_taken(self, tmp_path, capsys, overrides, message):
        self.assert_config_error(tmp_path, capsys, "config error: " + message, **overrides)

    @pytest.mark.parametrize("B, quantile", [(3, 0.5), (3, 0.4), (5, 0.5)])
    def test_truncation_sets_that_overlap(self, tmp_path, capsys, B, quantile):
        # ceil(quantile * B) agents from each end of the ranking share the
        # median agent; it used to run and be paired with itself.
        self.assert_config_error(tmp_path, capsys, "winners overlap", B=B, quantile=quantile)

    @pytest.mark.parametrize("objective, args", [
        ("sincos-switch", {"v": 3}),
        ("sincos", {"V": 3}),
        ("sincos-switch", {"T": 10}),
    ])
    def test_unknown_objective_argument(self, tmp_path, capsys, objective, args):
        self.assert_config_error(tmp_path, capsys, "unknown objective_args",
                                 objective=objective, objective_args=args)

    def test_known_objective_argument_runs(self, tmp_path):
        cfg = write_config(tmp_path, objective="sincos-switch", objective_args={"V": 1})
        assert cli.main(["run", cfg]) == cli.EXIT_OK

    @pytest.mark.parametrize("seeds", ["ab", [0.5], [-1], [True], [], 3])
    def test_bad_seeds(self, tmp_path, capsys, seeds):
        self.assert_config_error(tmp_path, capsys, "seeds must be", seeds=seeds)

    def test_duplicate_seeds(self, tmp_path, capsys):
        # Used to run seed 0 twice, write its CSV twice and report a zero standard error.
        self.assert_config_error(tmp_path, capsys, "seeds must be a nonempty list of distinct",
                                 seeds=[0, 0])

    @pytest.mark.parametrize("rounds", [0, -2])
    def test_rounds_below_one(self, tmp_path, capsys, rounds):
        self.assert_config_error(tmp_path, capsys, "T_rounds must be >= 1", T_rounds=rounds)

    @pytest.mark.parametrize("field, value", [
        ("B", 2.9), ("B", 4.0), ("B", "4"), ("B", True),
        ("T_rounds", 2.5), ("T_rounds", "3"), ("T_rounds", True),
    ])
    def test_non_integer_size(self, tmp_path, capsys, field, value):
        self.assert_config_error(tmp_path, capsys, f"{field} must be an integer", **{field: value})

    @pytest.mark.parametrize("acquisition", [{"n_candidates": 2.5}, {"n_refine_steps": -3}])
    def test_bad_acquisition(self, tmp_path, capsys, acquisition):
        self.assert_config_error(tmp_path, capsys, f"{next(iter(acquisition))} must be",
                                 acquisition=acquisition)

    @pytest.mark.parametrize("quantile", ["0.25", True, None, math.nan, math.inf, [0.25]])
    def test_non_numeric_quantile(self, tmp_path, capsys, quantile):
        self.assert_config_error(tmp_path, capsys, "quantile must be a finite number",
                                 quantile=quantile)

    @pytest.mark.parametrize("output", [5, None, ["out"], True, ""])
    def test_output_not_a_path(self, tmp_path, capsys, output):
        self.assert_config_error(tmp_path, capsys, "config error: output must be", output=output)

    def test_output_with_nul_character(self, tmp_path, capsys):
        # Used to exit 3 when the output directory was made.
        self.assert_config_error(tmp_path, capsys, "config error: output must be",
                                 output=str(tmp_path / "o\0ut"))

    @pytest.mark.parametrize("threads", ["abc", "1.5", "0", "-2"])
    def test_bad_thread_cap(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("POPBANDIT_THREADS", threads)

        def no_seed_runs(*_a, **_k):
            raise AssertionError("a seed ran before the thread cap was checked")

        monkeypatch.setattr(cli, "_run_seeds", no_seed_runs)
        self.assert_config_error(tmp_path, capsys, "config error: POPBANDIT_THREADS must be "
                                 "a positive integer")

    @pytest.mark.parametrize("document", [[1, 2], "config", 3, None])
    def test_document_not_an_object(self, tmp_path, capsys, document):
        # A JSON list used to exit 1 with a traceback.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        for command in ("run", "compare"):
            assert cli.main([command, str(path)]) == cli.EXIT_CONFIG
            assert "config error: a config must be a JSON object" in capsys.readouterr().err

    def test_document_nested_too_deeply(self, tmp_path, capsys):
        # Used to exit 1 with a RecursionError traceback from json.load.
        path = tmp_path / "config.json"
        path.write_text("[" * 100000 + "]" * 100000)
        for command in ("run", "compare"):
            assert cli.main([command, str(path)]) == cli.EXIT_CONFIG
            assert "config error: the JSON document is nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("space", [[], "sincos", None])
    def test_space_not_an_object(self, tmp_path, capsys, space):
        self.assert_config_error(tmp_path, capsys, "config error: space must be an object",
                                 space=space)

    @pytest.mark.parametrize("kind, field, value, message", [
        ("continuous", "lower", "0", "lower must be a number"),
        ("continuous", "upper", True, "upper must be a number"),
        ("continuous", "name", 5, "name must be a string"),
        ("categorical", "choices", "sc", "choices must be a list"),
        ("categorical", "choices", [1, 2], "choices of 'h' must be strings"),
    ])
    def test_space_parameter_of_wrong_type(self, tmp_path, capsys, kind, field, value, message):
        space = {**SPACE, kind: [{**SPACE[kind][0], field: value}]}
        self.assert_config_error(tmp_path, capsys, message, space=space)

    def test_span_that_overflows(self, tmp_path, capsys):
        # Used to exit 3 when the first uniform draw failed.
        space = {**SPACE, "continuous": [{"name": "x", "lower": -1e308, "upper": 1e308}]}
        self.assert_config_error(tmp_path, capsys, "span must be finite", space=space)

    @pytest.mark.parametrize("objective", ["sincos", "sincos-switch"])
    @pytest.mark.parametrize("choices", [["a", "b"], ["sin", "tan"], ["sin", "cos", "tan"]])
    def test_labels_the_objective_does_not_score(self, tmp_path, capsys, objective, choices):
        # ["a", "b"] used to run, both labels scored as cos(x).
        space = {**SPACE, "categorical": [{"name": "h", "choices": choices}]}
        self.assert_config_error(tmp_path, capsys, "config error: objective "
                                 f"'{objective}' scores the first categorical's labels",
                                 space=space, objective=objective)

    @pytest.mark.parametrize("objective", ["sincos", "sincos-switch"])
    @pytest.mark.parametrize("lower, upper", [(2.0, 3.0), (0.1, 1.5), (-2.0, -0.5)])
    def test_range_where_the_optimum_is_out_of_reach(self, tmp_path, capsys, objective,
                                                     lower, upper):
        # [2, 3] used to run with f <= sin(2) = 0.909, yet every round logged
        # regret against 1.
        space = {**SPACE, "continuous": [{"name": "x", "lower": lower, "upper": upper}]}
        self.assert_config_error(tmp_path, capsys, "so the first continuous range must "
                                 "contain one of them", space=space, objective=objective)

    @pytest.mark.parametrize("continuous, choices", [
        ({"lower": 0.0, "upper": 0.5}, ["cos", "sin"]),
        ({"lower": math.pi / 2, "upper": 3.0}, ["sin", "cos"]),
        ({"lower": -1.0, "upper": 0.0}, ["sin", "cos"]),
    ])
    def test_space_where_the_optimum_is_reached_runs(self, tmp_path, continuous, choices):
        space = {"continuous": [{"name": "x", **continuous}],
                 "categorical": [{"name": "h", "choices": choices}]}
        for objective in ("sincos", "sincos-switch"):
            cfg = write_config(tmp_path, space=space, objective=objective)
            assert cli.main(["run", cfg]) == cli.EXIT_OK

    @pytest.mark.parametrize("V", [True, 1.5, "1", None, [1]])
    def test_objective_argument_of_wrong_type(self, tmp_path, capsys, V):
        self.assert_config_error(tmp_path, capsys, "objective_args V must be of type int",
                                 objective="sincos-switch", objective_args={"V": V})

    @pytest.mark.parametrize("strategies", ["pbt", ["pbt", "pbt"], ["pbt", 1], [["pbt"]]])
    def test_bad_strategies(self, tmp_path, capsys, strategies):
        cfg = write_config(tmp_path, strategies=strategies)
        assert cli.main(["compare", cfg]) == cli.EXIT_CONFIG
        assert "strategies must be a nonempty list of distinct names" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_other_commands_strategy_field_is_checked_when_present(self, tmp_path, capsys):
        cfg = write_config(tmp_path, strategies="pbt")
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert "strategies must be" in capsys.readouterr().err
        cfg = write_config(tmp_path, strategy="nonsense", strategies=["random"])
        assert cli.main(["compare", cfg]) == cli.EXIT_CONFIG
        assert "strategy must be one of" in capsys.readouterr().err
        doc = json.loads((tmp_path / "config.json").read_text())
        del doc["strategy"]  # which only `run` needs
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert cli.main(["compare", cfg]) == cli.EXIT_OK


class TestSpaceDocument:
    """`cli._space`: the SearchSpace of a config's `space` object."""

    def test_round_trip(self):
        doc = """
        {"continuous": [{"name": "x", "lower": 0.0, "upper": 1.5707963}],
         "categorical": [{"name": "h", "choices": ["sin", "cos"]}]}
        """
        space = cli._space(json.loads(doc))
        assert space.continuous[0].name == "x"
        assert space.categorical[0].choices == ("sin", "cos")
        assert space.n_arms == 2

    @pytest.mark.parametrize("doc", [
        {"continuous": [], "categorcal": []},
        {"continuous": [{"name": "x", "lower": 0.0, "upper": 1.0, "log": True}]},
        {"categorical": [{"name": "h", "choices": ["a", "b"], "weights": [1, 1]}]},
        {"continuous": [{"name": "x", "lower": 0.0, "upper": 1.0}],
         "categorical": [{"name": "h", "choices": ["a", "b"]}],
         "per_category_continuous": {"a": [{"name": "u", "lower": 0.0, "upper": 1.0}]}},
    ])
    def test_unknown_keys_rejected(self, doc):
        with pytest.raises(ValueError, match="unknown"):
            cli._space(doc)

    @pytest.mark.parametrize("doc, message", [
        ([], "space must be an object"),
        ({"continuous": {"name": "x"}}, "space continuous must be a list"),
        ({"continuous": ["x"]}, "continuous parameter must be an object"),
        ({"continuous": [{"name": "x", "lower": 0.0}]}, "continuous parameter missing key 'upper'"),
        ({"continuous": [{"name": "x", "lower": "0", "upper": 1.0}]}, "lower must be a number"),
        ({"continuous": [{"name": "x", "lower": 0.0, "upper": True}]}, "upper must be a number"),
        ({"continuous": [{"name": 5, "lower": 0.0, "upper": 1.0}]}, "name must be a string"),
        ({"categorical": [{"name": "h", "choices": "sc"}]}, "choices must be a list"),
        ({"categorical": [{"name": "h", "choices": [1, 2]}]}, "choices of 'h' must be strings"),
        ({"categorical": [{"name": None, "choices": ["a", "b"]}]}, "name must be a string"),
    ])
    def test_wrong_json_types_rejected(self, doc, message):
        # Each of these used to be cast (float("0"), float(True), tuple("sc"))
        # or accepted as it was.
        with pytest.raises(ValueError, match=message):
            cli._space(doc)

    def test_integer_bounds_become_floats(self):
        space = cli._space({"continuous": [{"name": "x", "lower": 0, "upper": 2}]})
        assert space.continuous[0] == ContinuousParam("x", 0.0, 2.0)
        assert type(space.continuous[0].lower) is float


# Wrong JSON types for most fields, numbers out of range for the rest, and a
# few names that some field takes.
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.floats(),
                         st.text(max_size=4), st.sampled_from(["random", "pbt", "x", "sincos"]))
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
                        st.dictionaries(st.sampled_from(["V", "c1", "name", "x"]) | st.text(max_size=3),
                                        JSON_SCALARS, max_size=2))
PROPERTY_BASE = {
    "space": SPACE,
    "objective": "sincos-switch",
    "objective_args": {"V": 1},
    "strategy": "pbt",
    "strategies": ["random", "pbt"],
    "seeds": [0, 1],
    "B": 2,
    "T_rounds": 3,
    "quantile": 0.25,
    "acquisition": FAST_ACQ,
}
# Where a drawn value replaces the base config's: top-level fields,
# objective_args, acquisition and the space's parameters; or where it is
# added under a key that no object takes.
FIELD_PATHS = [(name,) for name in PROPERTY_BASE] + [
    ("output",), ("seeds", 0), ("objective_args", "V"),
    *(("acquisition", key) for key in ("c1", "c2", "n_candidates", "n_refine_steps")),
    ("space", "continuous"), ("space", "categorical"),
    *(("space", "continuous", 0, key) for key in ("name", "lower", "upper")),
    *(("space", "categorical", 0, key) for key in ("name", "choices")),
    ("extra",), ("space", "extra"), ("space", "continuous", 0, "extra"),
    ("space", "categorical", 0, "extra"), ("objective_args", "extra"), ("acquisition", "extra"),
]


class TestConfigProperty:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["run", "compare"]), path=st.sampled_from(FIELD_PATHS),
           value=JSON_VALUES)
    def test_config_runs_as_written_or_is_rejected(self, command, path, value):
        assume(path != ("output",) or not isinstance(value, str))  # never write to a drawn path
        with tempfile.TemporaryDirectory() as tmp:
            cfg = copy.deepcopy(PROPERTY_BASE)
            cfg["output"] = out = os.path.join(tmp, "out")
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            config_path = os.path.join(tmp, "config.json")
            with open(config_path, "w") as fh:
                json.dump(cfg, fh)
            code = cli.main([command, config_path])
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
            if code == cli.EXIT_CONFIG:
                assert not os.path.exists(out)
                return
            # The run used each value as written: B*T rows per seed, T rounds.
            B, T = cfg["B"], cfg["T_rounds"]
            if command == "compare":
                assert len(read_csv(os.path.join(out, "compare.csv"))) == 1 + T
                return
            name = cfg["strategy"]
            files = {f"run_{name}_seed{s}.csv" for s in cfg["seeds"]} | {f"summary_{name}.csv"}
            assert set(os.listdir(out)) == files
            for seed in cfg["seeds"]:
                assert len(read_csv(os.path.join(out, f"run_{name}_seed{seed}.csv"))) == 1 + B * T
            assert len(read_csv(os.path.join(out, f"summary_{name}.csv"))) == 1 + T


def readme_table(heading):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        return fh.read().split(f"### {heading}\n\n", 1)[1].split("\n\n", 1)[0]


class TestReadme:
    def test_config_table_names_every_field(self):
        table = readme_table("Config fields")
        assert set(re.findall(r"^\| `(\w+)` \|", table, flags=re.M)) == set(cli._FIELDS)

    def test_nested_table_names_every_key(self):
        rows = re.findall(r"^\| ([^|]+) \| `(\w+)` \|", readme_table("Nested objects"), flags=re.M)
        tables = {"`space`": cli._SPACE, "continuous parameter": cli._CONTINUOUS,
                  "categorical parameter": cli._CATEGORICAL, "`acquisition`": cli._ACQUISITION,
                  **{f"`objective_args` of `{name}`": args for name, args in OBJECTIVE_ARGS.items()}}
        assert set(rows) == {(what, key) for what, table in tables.items() for key in table}


class TestCompareCommand:
    def test_wide_csv_and_ordering_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, strategies=["random", "pbt"], T_rounds=4)
        assert cli.main(["compare", cfg]) == cli.EXIT_OK
        rows = read_csv(tmp_path / "out" / "compare.csv")
        assert rows[0] == ["round", "random", "pbt"]
        assert len(rows) == 5
        stdout = capsys.readouterr().out
        assert "best first" in stdout

    def test_empty_strategies_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, strategies=[])
        assert cli.main(["compare", cfg]) == cli.EXIT_CONFIG


class TestGradcheck:
    def test_passes_and_exit_zero(self, capsys):
        assert cli.cmd_gradcheck(seed=0, n_instances=5) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "gradcheck: pass" in out

    def test_detects_broken_gradient(self, monkeypatch, capsys):
        real = cli.gp.grad_log_marginal

        def flipped(model):
            return -real(model)

        monkeypatch.setattr(cli.gp, "grad_log_marginal", flipped)
        assert cli.cmd_gradcheck(seed=0, n_instances=3) == cli.EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_is_flag_error(self, capsys, instances):
        assert cli.main(["gradcheck", "--instances", instances]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "flag error:" in captured.err
        assert "pass" not in captured.out

    def test_negative_seed_is_flag_error(self, capsys):
        # Used to exit 1 with numpy's ValueError traceback.
        assert cli.main(["gradcheck", "--seed", "-1"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "flag error: --seed must be >= 0" in captured.err
        assert "pass" not in captured.out


class TestLazyScipy:
    """Only a GP factorization loads scipy, and then only its LAPACK extension;
    each check but the last in a new interpreter."""

    def test_import_loads_no_scipy(self):
        # Every run, and every seed worker, would pay the load at start-up: the
        # top-level scipy package and its LAPACK extension are 24 modules, 4 MB
        # of resident memory and about 0.01 s on a 2-core Xeon (the whole
        # scipy.linalg package, 334 modules, 28 MB and about 0.2 s).
        code = ("import sys, popbandit, popbandit.cli; "
                "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert fresh_python(code).split() == []

    def test_commands_that_fit_no_gp_load_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path, strategies=["random", "pbt"], T_rounds=4)
        (tmp_path / "bad").mkdir()
        bad = write_config(tmp_path / "bad", strategy="nope")
        code = f"""
import json, sys
from popbandit import cli
loaded = {{}}
for argv in (["bandit-sim", "--C", "8", "--B", "2", "--T", "40", "--V", "1", "--seeds", "0", "1"],
             ["compare", {cfg!r}], ["run", {bad!r}], ["bandit-sim", "--C", "1"]):
    exit_code = cli.main(argv)
    loaded[argv[0] + " " + str(exit_code)] = [m for m in sys.modules if m.split('.')[0] == 'scipy']
print(json.dumps(loaded))
"""
        loaded = json.loads(fresh_python(code, POPBANDIT_THREADS="2").splitlines()[-1])
        assert loaded == {"bandit-sim 0": [], "compare 0": [], "run 2": [], "bandit-sim 2": []}

    def test_blas_finds_scipys_openblas_after_a_gp_run(self, tmp_path):
        # The first `_blas` call comes before scipy is imported, as a seed
        # worker's pin does; the pb2-mult run's first fit then maps scipy's
        # OpenBLAS, which `_blas` must find and pin like the others.
        if not _blas.get_threads():
            pytest.skip("no OpenBLAS thread setter found in this process")
        cfg = write_config(tmp_path, strategy="pb2-mult", seeds=[0], T_rounds=3)
        code = MAPPED_OPENBLAS_THREADS + f"""
import json
from popbandit import _blas, cli
first = _blas.get_threads()
assert cli.main(["run", {cfg!r}]) == 0
with _blas.single_thread():
    inside = _blas.get_threads()
print(json.dumps([first, _blas.get_threads(), inside, mapped_openblas_threads()]))
"""
        first, after, inside, mapped = json.loads(fresh_python(code).splitlines()[-1])
        assert any("scipy_openblas-" in path for path in mapped), mapped
        assert len(first) < len(mapped)
        assert after == list(mapped.values())  # both in path order
        assert inside == [1] * len(mapped)

    def test_first_fit_pins_every_openblas_inside_its_block(self):
        # The process's first fit is what loads scipy's LAPACK, and so maps
        # scipy's OpenBLAS; `single_thread` must load it before it pins, or
        # that copy runs the block's factorizations on the count, 2.
        if not _blas.get_threads():
            pytest.skip("no OpenBLAS thread setter found in this process")
        code = MAPPED_OPENBLAS_THREADS + """
import json
import numpy as np
from popbandit import _blas, gp
_blas.set_threads(2)
inside = []
real = gp._factor

def factor(*args):
    result = real(*args)
    if not inside:
        inside.append(mapped_openblas_threads())
    return result

gp._factor = factor
rng = np.random.default_rng(0)
n = 12
gp.fit(gp.GPModel(rng.uniform(size=(n, 1)), rng.integers(0, 2, size=(n, 1)),
                  np.arange(n, dtype=float), rng.normal(size=n), gp.GPHyperparams()))
print(json.dumps([inside[0], mapped_openblas_threads()]))
"""
        inside, after = json.loads(fresh_python(code).splitlines()[-1])
        assert any("scipy_openblas-" in path for path in inside), inside
        assert set(inside.values()) == {1}, inside
        assert list(after) == list(inside) and set(after.values()) == {2}, after

    def test_gp_run_loads_the_lapack_extension_alone(self, tmp_path):
        cfg = write_config(tmp_path, strategy="pb2-mult", seeds=[0], T_rounds=3)
        code = f"""
import sys
from popbandit import cli
assert cli.main(["run", {cfg!r}]) == 0
print(*(m for m in sys.modules if m.startswith('scipy.linalg')))
"""
        assert fresh_python(code).splitlines()[-1].split() == ["scipy.linalg._flapack"]

    @pytest.mark.parametrize("first", ["scipy.linalg", "popbandit"])
    def test_lapack_routines_are_scipy_linalg_lapacks(self, first):
        # Same routine objects, so the same Fortran code and the same bits,
        # whether scipy.linalg or `_blas.lapack` loads the extension first.
        code = f"""
from popbandit import _blas
if {first!r} == "popbandit":
    _blas.lapack()
import scipy.linalg.lapack
print(all(getattr(_blas.lapack(), name) is getattr(scipy.linalg.lapack, name)
          for name in ("dpotrf", "dpotrs", "dpotri", "dtrtrs")))
"""
        assert fresh_python(code).splitlines()[-1] == "True"

    def test_lapack_extension_not_found_is_import_error(self, monkeypatch):
        import scipy  # noqa: F401  (found before find_spec is patched)

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        monkeypatch.setattr(_blas.importlib.machinery.PathFinder, "find_spec",
                            lambda *_a, **_k: None)
        _blas.lapack.cache_clear()
        try:
            with pytest.raises(ImportError, match=r"_flapack is not in .*linalg"):
                _blas.lapack()
        finally:
            _blas.lapack.cache_clear()  # the next call reuses the restored module


def must_not_run(*_a, **_k):
    pytest.fail("the simulation ran before the output path was checked")


class TestBanditSim:
    @pytest.mark.parametrize("out", ["blocker/sim.csv", "directory"])
    def test_output_under_a_file_fails_before_the_simulation(self, tmp_path, monkeypatch,
                                                             capsys, out):
        # A regular file where a directory must be, or a directory where the file must be.
        (tmp_path / "blocker").write_text("kept")
        (tmp_path / "directory").mkdir()
        monkeypatch.setattr(cli, "bandit_sim", must_not_run)
        rc = cli.main(["bandit-sim", "--T", "20", "--seeds", "0",
                       "--out", str(tmp_path / out)])
        assert rc == cli.EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "directory"]
        assert (tmp_path / "blocker").read_text() == "kept"
        assert not any((tmp_path / "directory").iterdir())

    def test_empty_output_path_is_flag_error(self, monkeypatch, capsys):
        # `if out:` used to run the simulation and write nothing, exit 0.
        monkeypatch.setattr(cli, "bandit_sim", must_not_run)
        assert cli.main(["bandit-sim", "--T", "20", "--seeds", "0", "--out", ""]) == \
            cli.EXIT_CONFIG
        assert "flag error:" in capsys.readouterr().err

    def test_runs_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        rc = cli.main(["bandit-sim", "--C", "2", "--B", "1", "--T", "80",
                       "--seeds", "0", "1", "2", "--out", out])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "sublinear-proxy" in stdout
        rows = read_csv(out)
        assert rows[0] == ["round", "per_round_regret", "cum_regret",
                           "inclusion_0", "inclusion_1"]
        assert len(rows) == 81

    def test_zero_regret_passes(self, capsys):
        # C == B plays every arm every round: regret is 0 early and late.
        rc = cli.main(["bandit-sim", "--C", "3", "--B", "3", "--T", "40", "--seeds", "0", "1"])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "per-round regret late (second half): 0\n" in stdout
        assert "sublinear-proxy: pass" in stdout

    def test_bad_flags_are_config_error(self):
        assert cli.main(["bandit-sim", "--C", "1"]) == cli.EXIT_CONFIG
        assert cli.main(["bandit-sim", "--B", "5", "--C", "2"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("seeds", [["-1"], ["0", "-3"]])
    def test_negative_seed_is_flag_error(self, capsys, seeds):
        assert cli.main(["bandit-sim", "--T", "10", "--seeds", *seeds]) == cli.EXIT_CONFIG
        assert "flag error:" in capsys.readouterr().err

    def test_repeated_seed_is_flag_error(self, capsys):
        # Used to count seed 0 twice in every mean it printed and wrote.
        assert cli.main(["bandit-sim", "--T", "10", "--seeds", "0", "0", "1"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "flag error:" in captured.err
        assert "sublinear" not in captured.out

    def test_tracking_frequency_reported_with_swap(self, capsys):
        rc = cli.main(["bandit-sim", "--T", "60", "--V", "1",
                       "--seeds", "0", "1"])
        assert rc == cli.EXIT_OK
        assert "tracking-frequency" in capsys.readouterr().out

    def test_tracking_frequency_is_the_final_quarters_inclusion_mean(self, tmp_path, capsys):
        # At B = 2 the final best arm is played in most rounds: a value divided by B would show.
        out = str(tmp_path / "sim.csv")
        rc = cli.main(["bandit-sim", "--C", "4", "--B", "2", "--T", "200", "--V", "1",
                       "--seeds", "0", "1", "2", "--out", out])
        assert rc == cli.EXIT_OK
        match = re.search(r"tracking-frequency \(final quarter, arm (\d+)\): (\S+)",
                          capsys.readouterr().out)
        arm, printed = int(match.group(1)), float(match.group(2))
        rows = read_csv(out)
        column = rows[0].index(f"inclusion_{arm}")
        final_quarter = [float(row[column]) for row in rows[1 + 3 * 200 // 4:]]
        assert printed == pytest.approx(sum(final_quarter) / len(final_quarter), rel=1e-9)
        assert printed > 0.5
