import csv
import json
import math
import os
import subprocess
import sys

import pytest

import popbandit
from popbandit import _blas, cli


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


def worker_blas_threads(_job):
    # Module level, so that the process pool can pickle it in place of a seed run.
    return _blas.get_threads()


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
        before = _blas.get_threads()
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

    def test_seed_workers_use_one_blas_thread(self, monkeypatch):
        if not _blas.get_threads():
            pytest.skip("no OpenBLAS thread setter found in this process")
        monkeypatch.setenv("POPBANDIT_THREADS", "2")
        monkeypatch.setattr(cli, "_run_one_seed", worker_blas_threads)
        counts = cli._run_seeds(None, None, "random", 2, 1, 0.25, None, [0, 1])
        assert counts == [[1] * len(_blas.get_threads())] * 2

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)

        def boom(*_a, **_k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "_run_seeds", boom)
        assert cli.main(["run", cfg]) == cli.EXIT_RUNTIME

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

    @pytest.mark.parametrize("rounds", [0, -2])
    def test_rounds_below_one(self, tmp_path, capsys, rounds):
        self.assert_config_error(tmp_path, capsys, "T_rounds must be >= 1", T_rounds=rounds)


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


class TestImportCost:
    def test_import_leaves_out_scipy_optimize_and_sparse(self):
        # Every run, and every seed worker, pays the import at start-up.
        src = os.path.dirname(os.path.dirname(popbandit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, popbandit, popbandit.cli; "
                "print(*(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert not loaded, (f"importing popbandit loads {loaded}: scipy.optimize (which "
                            "brings scipy.sparse) adds about 19 MB of resident memory and "
                            "0.2 s of import time to every run")


class TestBanditSim:
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

    def test_bad_flags_are_config_error(self):
        assert cli.main(["bandit-sim", "--C", "1"]) == cli.EXIT_CONFIG
        assert cli.main(["bandit-sim", "--B", "5", "--C", "2"]) == cli.EXIT_CONFIG

    def test_tracking_frequency_reported_with_swap(self, capsys):
        rc = cli.main(["bandit-sim", "--T", "60", "--V", "1",
                       "--seeds", "0", "1"])
        assert rc == cli.EXIT_OK
        assert "tracking-frequency" in capsys.readouterr().out
