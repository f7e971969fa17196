"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
The regret-ordering check (criterion 1) runs the full 5-strategy, 20-seed
benchmark and dominates the runtime.
"""
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2, multivariate_normal

from popbandit import bandit as bd
from popbandit import cli, gp
from popbandit.acquisition import AcquisitionConfig, select_batch_continuous
from popbandit.gp import GPHyperparams, GPModel, HyperparamBounds, log_marginal
from popbandit.harness import (
    bandit_sim,
    bernoulli_swap_table,
    run_experiment,
    sincos_objective,
    sincos_space,
)
from popbandit.space import ContinuousParam
from popbandit.strategies import StrategyKind

N_SEEDS = 20
T_ROUNDS = 50
POP = 4


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:>2} ({desc}): {'pass' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def benchmark_records():
    """Final cumulative regret per strategy over the shared 20-seed benchmark."""
    out = {}
    for strategy in StrategyKind:
        out[strategy.value] = [
            run_experiment(sincos_space(), sincos_objective(), strategy,
                           B=POP, T_rounds=T_ROUNDS, seed=s)
            for s in range(N_SEEDS)
        ]
    return out


class TestAcceptance:
    def test_01_regret_ordering(self, benchmark_records):
        means = {
            name: float(np.mean([r.cum_regret[-1] for r in recs]))
            for name, recs in benchmark_records.items()
        }
        ok = (
            means["random"] > means["pbt"]
            and means["random"] > means["pb2-rand"]
            and means["pb2-mult"] < means["pb2-rand"]
            and means["pb2-mix"] < means["pb2-rand"]
        )
        detail = ", ".join(f"{k}={v:.2f}" for k, v in means.items())
        report(1, "synthetic regret ordering", ok, detail)

    def test_02_random_linear_regret(self, benchmark_records):
        recs = benchmark_records["random"]
        regrets = [row["regret"] for r in recs for row in r.rows]
        assert len(regrets) >= 4000
        mean = float(np.mean(regrets))
        target = 1.0 - 2.0 / math.pi
        ok = abs(mean - target) <= 0.02
        report(2, "random-search per-round regret 1-2/pi",
               ok, f"mean={mean:.4f}, target={target:.4f}")

    def test_03_bandit_sublinearity(self):
        table = bernoulli_swap_table(0.9, 0.1, T=500, V=0)
        res = bandit_sim(table, B=1, seeds=range(50))
        early = float(res.per_round_regret[:125].mean())
        late = float(res.per_round_regret[250:].mean())
        ok = late <= 0.75 * early
        report(3, "bandit sublinearity proxy", ok,
               f"early={early:.4f}, late={late:.4f}")

    def test_04_changepoint_tracking(self):
        table = bernoulli_swap_table(0.9, 0.1, T=500, V=1)
        res = bandit_sim(table, B=1, seeds=range(50))
        new_best = int(np.argmax(table[-1]))
        freq = float(res.inclusion_freq[375:, new_best].mean())
        ok = freq >= 0.6
        report(4, "change-point tracking frequency", ok, f"freq={freq:.3f}")

    def test_05_depround_marginals(self):
        rng = np.random.default_rng(0)
        n_draws = 100_000
        p = np.array([0.5, 0.5, 0.5, 0.5])
        counts = np.zeros(4)
        for _ in range(n_draws):
            for i in bd.depround(2, p, rng):
                counts[i] += 1
        freq = counts / n_draws
        within = bool(np.all(np.abs(freq - 0.5) < 0.005))
        # Per-arm inclusion counts vs their Binomial(n, 0.5) expectation.
        stat = float(np.sum((counts - n_draws * 0.5) ** 2 / (n_draws * 0.25)))
        p_value = float(chi2.sf(stat, df=4))
        ok = within and p_value > 0.001
        report(5, "depround marginal exactness", ok,
               f"max dev={np.max(np.abs(freq - 0.5)):.5f}, chi2 p={p_value:.4f}")

    def test_06_gradient_correctness(self):
        errors, worst = cli.gradient_check(seed=0, n_instances=100)
        worst_err = max(errors.values())
        ok = worst_err < 1e-4
        report(6, "analytic gradients vs finite differences", ok,
               f"max rel err={worst_err:.2e}")

    def test_07_lml_oracle_equality(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 15))
            X = rng.uniform(size=(n, 2))
            H = rng.integers(0, 3, size=(n, 1))
            t = np.sort(rng.integers(1, 30, size=n)).astype(float)
            y = rng.normal(size=n)
            theta = GPHyperparams(
                eps1=float(rng.uniform(0.0, 0.5)),
                eps2=float(rng.uniform(0.0, 0.5)),
                lengthscale=float(rng.uniform(0.1, 3.0)),
                sigma1=float(rng.uniform(0.2, 3.0)),
                sigma2=float(rng.uniform(0.2, 3.0)),
                lam=float(rng.uniform(0.0, 1.0)),
                noise=float(rng.uniform(1e-3, 0.5)),
            )
            bounds = HyperparamBounds.default(2)
            model = GPModel(X, H, t, y, theta, bounds)
            K = gp._kernel_matrix(theta.as_array(), model._d2, model._match, model._dt)
            ref = multivariate_normal.logpdf(
                y, mean=np.zeros(n), cov=K + theta.noise * np.eye(n))
            worst = max(worst, abs(log_marginal(model) - ref))
        ok = worst < 1e-8
        report(7, "log marginal equals dense MVN oracle", ok,
               f"max abs diff={worst:.2e}")

    def test_08_stationary_reduction(self):
        rng = np.random.default_rng(8)
        n, d, m = 20, 2, 1
        X = rng.uniform(size=(n, d))
        H = rng.integers(0, 3, size=(n, m))
        t = rng.integers(1, 50, size=n).astype(float)
        y = rng.normal(size=n)
        theta = GPHyperparams(eps1=0.0, eps2=0.0, lengthscale=0.7,
                              sigma1=1.4, sigma2=0.9, lam=0.35, noise=0.05)
        model = GPModel(X, H, t, y, theta)

        def stationary_k(Xa, Ha, Xb, Hb):
            out = np.empty((len(Xa), len(Xb)))
            for i in range(len(Xa)):
                for j in range(len(Xb)):
                    k1 = theta.sigma1 * math.exp(
                        -float(np.sum((Xa[i] - Xb[j]) ** 2)) / theta.lengthscale)
                    k2 = theta.sigma2 / m * float(np.mean(Ha[i] == Hb[j]))
                    out[i, j] = (1 - theta.lam) * (k1 + k2) + theta.lam * k1 * k2
            return out

        Kxx = stationary_k(X, H, X, H) + theta.noise * np.eye(n)
        Xq = rng.uniform(size=(50, d))
        Hq = rng.integers(0, 3, size=(50, m))
        Kq = stationary_k(X, H, Xq, Hq)
        prior = (1 - theta.lam) * (theta.sigma1 + theta.sigma2) \
            + theta.lam * theta.sigma1 * theta.sigma2
        mu_ref = Kq.T @ np.linalg.solve(Kxx, y)
        var_ref = prior - np.sum(Kq * np.linalg.solve(Kxx, Kq), axis=0)
        mu, var = model.posterior(Xq, Hq, 999.0)
        worst = max(float(np.max(np.abs(mu - mu_ref))),
                    float(np.max(np.abs(var - var_ref))))
        ok = worst < 1e-10
        report(8, "zero-decay posterior matches stationary reference", ok,
               f"max abs diff={worst:.2e}")

    def test_09_hallucination_monotonicity(self):
        rng = np.random.default_rng(9)
        n = 15
        X = rng.uniform(size=(n, 1))
        y = np.sin(5 * X[:, 0])
        model = GPModel(X, np.zeros((n, 0), dtype=int),
                        np.arange(1.0, n + 1.0), y,
                        GPHyperparams(eps1=0.05, lengthscale=0.3, noise=0.01))
        params = (ContinuousParam("x", 0.0, 1.0),)
        picks = select_batch_continuous(model, params, 4, n,
                                        AcquisitionConfig(), rng)
        grid = np.linspace(0.0, 1.0, 100).reshape(-1, 1)
        var_model = model
        _, prev = var_model.posterior(grid, None, n + 1.0)
        worst = -math.inf
        for pick in picks:
            var_model = var_model.with_observation(np.asarray(pick), None,
                                                   n + 1.0, 0.0)
            _, cur = var_model.posterior(grid, None, n + 1.0)
            worst = max(worst, float(np.max(cur - prev)))
            prev = cur
        ok = worst <= 1e-9
        report(9, "batch hallucination variance monotonicity", ok,
               f"max increase={worst:.2e}")

    def test_10_byte_identical_runs(self, tmp_path):
        import json

        cfg = {
            "space": {
                "continuous": [{"name": "x", "lower": 0.0, "upper": math.pi / 2}],
                "categorical": [{"name": "h", "choices": ["sin", "cos"]}],
            },
            "objective": "sincos",
            "strategy": "pb2-mix",
            "seeds": [0],
            "B": 4,
            "T_rounds": 5,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "popbandit.cli", "run", str(cfg_path),
                 "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blobs.append(
                ((out / "run_pb2-mix_seed0.csv").read_bytes(),
                 (out / "summary_pb2-mix.csv").read_bytes()))
        ok = blobs[0] == blobs[1]
        report(10, "byte-identical CSVs across invocations", ok)
