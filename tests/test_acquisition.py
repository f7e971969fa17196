import collections
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from popbandit import _blas, acquisition, gp
from popbandit.acquisition import AcquisitionConfig, beta, select_batch_continuous
from popbandit.gp import GPHyperparams, GPModel
from popbandit.space import ContinuousParam


def continuous_model(rng, n=10, d=1, theta=None):
    X = rng.uniform(size=(n, d))
    H = np.zeros((n, 0), dtype=int)
    t = np.arange(1.0, n + 1.0)
    y = np.sin(4 * X[:, 0])
    theta = theta or GPHyperparams(eps1=0.05, lengthscale=0.3, sigma1=1.0, noise=0.01)
    return GPModel(X, H, t, y, theta)


class TestBeta:
    def test_schedule_values(self):
        cfg = AcquisitionConfig()
        assert beta(1, cfg) == pytest.approx(0.2)
        assert beta(math.e, cfg) == pytest.approx(0.6)
        assert beta(10, cfg) == pytest.approx(0.2 + 0.4 * math.log(10))

    def test_monotone(self):
        cfg = AcquisitionConfig()
        vals = [beta(t, cfg) for t in range(1, 20)]
        assert vals == sorted(vals)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            beta(0, AcquisitionConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(c1=-1.0)
        with pytest.raises(ValueError):
            AcquisitionConfig(n_candidates=0)

    @pytest.mark.parametrize("field, value", [
        ("c1", math.nan), ("c1", math.inf), ("c1", True), ("c1", "0.2"),
        ("c2", -0.5), ("c2", -math.inf), ("c2", None),
        ("n_candidates", 2.5), ("n_candidates", True), ("n_candidates", "10"),
        ("n_refine_steps", -3), ("n_refine_steps", 1.5), ("n_refine_steps", False),
        ("n_refine_steps", "2"),
    ])
    def test_field_type_and_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            AcquisitionConfig(**{field: value})

    def test_accepted_numbers(self):
        cfg = AcquisitionConfig(c1=0, c2=np.float64(0.5), n_candidates=np.int64(5),
                                n_refine_steps=0)
        assert (cfg.c1, cfg.n_candidates, cfg.n_refine_steps) == (0, 5, 0)


class TestSelectBatch:
    def test_within_bounds(self):
        rng = np.random.default_rng(0)
        model = continuous_model(rng)
        params = (ContinuousParam("x", -2.0, 5.0),)
        picks = select_batch_continuous(model, params, 4, 3, AcquisitionConfig(), rng)
        assert len(picks) == 4
        for x in picks:
            assert -2.0 <= x[0] <= 5.0

    def test_deterministic_given_seed(self):
        cfg = AcquisitionConfig(n_candidates=200)
        params = (ContinuousParam("x", 0.0, 1.0),)
        model = continuous_model(np.random.default_rng(1))
        a = select_batch_continuous(model, params, 3, 2, cfg, np.random.default_rng(9))
        b = select_batch_continuous(model, params, 3, 2, cfg, np.random.default_rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_hallucination_shrinks_variance_at_pick(self):
        rng = np.random.default_rng(2)
        model = continuous_model(rng)
        params = (ContinuousParam("x", 0.0, 1.0),)
        cfg = AcquisitionConfig(n_candidates=300)
        picks = select_batch_continuous(model, params, 2, 5, cfg, rng)
        u0 = np.array([[picks[0][0]]])
        _, v_before = model.posterior(u0, None, 6.0)
        halluc = model.with_observation(u0[0], None, 6.0, 0.0)
        _, v_after = halluc.posterior(u0, None, 6.0)
        assert v_after[0] <= v_before[0] + 1e-12

    def test_grid_variance_monotone_across_batch(self):
        """Each hallucination must weakly reduce variance everywhere."""
        rng = np.random.default_rng(3)
        model = continuous_model(rng, n=12)
        grid = np.linspace(0, 1, 100).reshape(-1, 1)
        var_model = model
        _, prev = var_model.posterior(grid, None, 13.0)
        params = (ContinuousParam("x", 0.0, 1.0),)
        cfg = AcquisitionConfig(n_candidates=200)
        for _ in range(4):
            pick = select_batch_continuous(var_model, params, 1, 12, cfg, rng)[0]
            var_model = var_model.with_observation(np.array(pick), None, 13.0, 0.0)
            _, cur = var_model.posterior(grid, None, 13.0)
            assert np.all(cur <= prev + 1e-9)
            prev = cur

    def test_mean_frozen_across_batch(self):
        """All picks in one batch score against the same mean surface: with a
        huge exploration weight the picks should spread out, but with beta=0
        repeated picks should all sit on the frozen-mean maximizer."""
        rng = np.random.default_rng(4)
        model = continuous_model(rng, n=15)
        params = (ContinuousParam("x", 0.0, 1.0),)
        cfg = AcquisitionConfig(c1=0.0, c2=0.0, n_candidates=500)
        picks = select_batch_continuous(model, params, 3, 1, cfg,
                                        np.random.default_rng(5))
        spread = max(p[0] for p in picks) - min(p[0] for p in picks)
        assert spread < 0.05

    def test_exploration_spreads_picks(self):
        rng = np.random.default_rng(6)
        model = continuous_model(rng, n=15)
        params = (ContinuousParam("x", 0.0, 1.0),)
        cfg = AcquisitionConfig(c1=50.0, c2=0.0, n_candidates=500)
        picks = select_batch_continuous(model, params, 3, 1, cfg,
                                        np.random.default_rng(7))
        spread = max(p[0] for p in picks) - min(p[0] for p in picks)
        assert spread > 0.05

    def test_fixed_h_length_checked(self):
        rng = np.random.default_rng(8)
        model = continuous_model(rng)
        params = (ContinuousParam("x", 0.0, 1.0),)
        with pytest.raises(ValueError):
            select_batch_continuous(model, params, 2, 1, AcquisitionConfig(), rng,
                                    fixed_h=[np.array([0])])

    def test_empty_model_uniform_prior_pick(self):
        model = GPModel(np.zeros((0, 1)), np.zeros((0, 0), dtype=int),
                        np.zeros(0), np.zeros(0), GPHyperparams())
        params = (ContinuousParam("x", 0.0, 2.0),)
        rng = np.random.default_rng(9)
        picks = select_batch_continuous(model, params, 2, 1,
                                        AcquisitionConfig(n_candidates=50), rng)
        for x in picks:
            assert 0.0 <= x[0] <= 2.0

    def test_mixed_model_fixed_categories(self):
        rng = np.random.default_rng(10)
        n = 12
        X = rng.uniform(size=(n, 1))
        H = rng.integers(0, 2, size=(n, 1))
        t = np.arange(1.0, n + 1.0)
        y = np.where(H[:, 0] == 0, np.sin(3 * X[:, 0]), np.cos(3 * X[:, 0]))
        model = GPModel(X, H, t, y, GPHyperparams(noise=0.01))
        params = (ContinuousParam("x", 0.0, 1.0),)
        fixed = [np.array([0]), np.array([1])]
        picks = select_batch_continuous(model, params, 2, n,
                                        AcquisitionConfig(n_candidates=200), rng,
                                        fixed_h=fixed)
        assert len(picks) == 2
        for x in picks:
            assert 0.0 <= x[0] <= 1.0

    def test_from_unit_keeps_the_bounds(self):
        # -3.0 + 1.0 * (0.7 - -3.0) rounds to 0.7000000000000002.
        params = (ContinuousParam("x", -3.0, 0.7), ContinuousParam("z", -3.0, 0.7))
        x = acquisition._from_unit(np.array([1.0, 0.0]), params)
        assert x.tolist() == [0.7, -3.0]


def select_by_refactoring(model, params, batch, t, cfg, rng, fixed_h=None):
    """The batch loop of select_batch_continuous on full models: one candidate set
    per batch and, per pick, full queries of it and of each refinement grid through
    two posteriors, one frozen and one re-factored after each hallucination."""
    sqrt_beta = math.sqrt(beta(t, cfg))
    var_model = model
    picks = []
    U = rng.uniform(size=(cfg.n_candidates, len(params)))
    n_grid = acquisition._GRID

    def ucb(Xq, hq):
        Hq = None if hq is None else np.tile(hq, (len(Xq), 1))
        mu, _ = model.posterior(Xq, Hq, t + 1)
        _, var = var_model.posterior(Xq, Hq, t + 1)
        return mu + sqrt_beta * np.sqrt(var)

    for b in range(batch):
        hq = None if fixed_h is None else np.asarray(fixed_h[b], dtype=int)
        scores = ucb(U, hq)
        best = int(np.argmax(scores))
        u, best_score = U[best].copy(), scores[best]
        for j in range(len(params)):
            # Each level's window: the last one cut to one grid spacing either
            # side of the best point so far; the first, u[j] +- the half width.
            lo = max(0.0, u[j] - acquisition._REFINE_HALF_WIDTH)
            hi = min(1.0, u[j] + acquisition._REFINE_HALF_WIDTH)
            for _ in range(cfg.n_refine_steps):
                grid = np.linspace(lo, hi, n_grid)
                Xq = np.tile(u, (n_grid, 1))
                Xq[:, j] = grid
                grid_scores = ucb(Xq, hq)
                i = int(np.argmax(grid_scores))
                if grid_scores[i] > best_score:
                    u[j], best_score = grid[i], grid_scores[i]
                spacing = (hi - lo) / (n_grid - 1)
                lo, hi = max(lo, u[j] - spacing), min(hi, u[j] + spacing)
        var_model = var_model.with_observation(u, hq, t + 1, 0.0)
        picks.append(acquisition._from_unit(u, params))
    return picks


def random_batch_case(seed, d, mixed, noise, n=24):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    H = rng.integers(0, 3, size=(n, 1 if mixed else 0))
    t = np.sort(rng.integers(1, 20, size=n)).astype(float)
    y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=n)
    theta = GPHyperparams(eps1=rng.uniform(0.0, 0.3), eps2=rng.uniform(0.0, 0.3),
                          lengthscale=rng.uniform(0.05, 2.0), sigma1=rng.uniform(0.3, 3.0),
                          sigma2=rng.uniform(0.3, 3.0), lam=rng.uniform(0.0, 1.0), noise=noise)
    params = tuple(ContinuousParam(f"x{j}", -1.0, 2.0) for j in range(d))
    return GPModel(X, H, t, y, theta), params


def assert_same_picks(model, params, batch, fixed_h=None, seed=0):
    cfg = AcquisitionConfig(n_candidates=300)
    fresh = GPModel(model.X, model.H, model.t, model.y, model.theta)
    expected = select_by_refactoring(fresh, params, batch, 20, cfg,
                                     np.random.default_rng(seed), fixed_h)
    got = select_batch_continuous(model, params, batch, 20, cfg,
                                  np.random.default_rng(seed), fixed_h)
    assert len(got) == batch
    for x, y in zip(got, expected):
        assert np.max(np.abs(x - y)) <= 1e-10


class TestAppendedRowFactor:
    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_picks_match_refactoring_each_hallucination(self, d, mixed):
        for batch in range(1, 6):
            for noise in (1e-2, 1e-4, 1e-6):
                seed = 100 * d + 10 * batch + int(mixed)
                model, params = random_batch_case(seed, d, mixed, noise)
                fixed_h = [np.array([c % 3]) for c in range(batch)] if mixed else None
                assert_same_picks(model, params, batch, fixed_h, seed=seed)

    def test_one_factorization_and_no_rebuilt_model(self, monkeypatch):
        model, params = random_batch_case(7, 2, True, 1e-3)
        calls = {"chol": 0, "with_observation": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gp, "_chol_with_jitter", counted("chol", gp._chol_with_jitter))
        monkeypatch.setattr(GPModel, "with_observation",
                            counted("with_observation", GPModel.with_observation))
        select_batch_continuous(model, params, 5, 20, AcquisitionConfig(n_candidates=100),
                                np.random.default_rng(0), [np.array([c % 3]) for c in range(5)])
        assert model.jitter == 0.0
        assert calls == {"chol": 1, "with_observation": 0}

    def test_jittered_model_matches_refactoring(self):
        X = np.array([[0.2], [0.2], [0.7], [0.7], [0.4]])
        model = GPModel(X, np.zeros((5, 0), dtype=int), np.ones(5), np.sin(3 * X[:, 0]),
                        GPHyperparams(eps1=0.0, lengthscale=0.3, noise=0.0))
        assert model.jitter > 0.0
        assert_same_picks(model, (ContinuousParam("x", 0.0, 1.0),), 4)

    def test_non_positive_pivot_falls_back_to_refactoring(self):
        # Without noise, hallucinating at the one data point leaves a pivot of
        # exactly 0: 1 + 0 - 1^2. The variance then comes from re-factored models.
        theta = GPHyperparams(eps1=0.0, sigma1=1.0, noise=0.0)
        model = GPModel(np.array([[0.5]]), np.zeros((1, 0), dtype=int), np.array([1.0]),
                        np.array([0.3]), theta)
        assert model.jitter == 0.0
        Xq = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
        posterior = gp._BatchPosterior(model, Xq, 1.0)
        chain = model
        for x in (0.5, 0.9):
            posterior.append(np.array([x]), None)
            chain = chain.with_observation(np.array([x]), None, 1.0, 0.0)
            mu, var = posterior.candidates(None)
            assert mu.tobytes() == model.posterior(Xq, None, 1.0)[0].tobytes()
            assert var.tobytes() == chain.posterior(Xq, None, 1.0)[1].tobytes()
        assert chain.jitter > 0.0

    def test_refactoring_drops_kept_candidate_sets_of_mixed_model(self):
        # k** = (1 - lam)(sigma1 + sigma2) = 1, so hallucinating at the one data
        # point leaves a pivot of exactly 0. Sets kept for both categories before
        # then were solved against the factor the re-factoring replaces.
        theta = GPHyperparams(eps1=0.0, eps2=0.0, sigma1=0.5, sigma2=0.5, lam=0.0, noise=0.0)
        model = GPModel(np.array([[0.5]]), np.array([[0]]), np.array([1.0]),
                        np.array([0.3]), theta)
        assert model.jitter == 0.0
        Xq = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
        posterior = gp._BatchPosterior(model, Xq, 1.0)
        for h in (0, 1):
            posterior.candidates(np.array([h]))
        chain = model
        for x, h in ((0.5, 0), (0.9, 1)):
            posterior.append(np.array([x]), np.array([h]))
            chain = chain.with_observation(np.array([x]), np.array([h]), 1.0, 0.0)
            for hq in (0, 1):
                Hq = np.full((len(Xq), 1), hq)
                mu, var = posterior.candidates(np.array([hq]))
                assert mu.tobytes() == model.posterior(Xq, Hq, 1.0)[0].tobytes()
                assert var.tobytes() == chain.posterior(Xq, Hq, 1.0)[1].tobytes()
        assert chain.jitter > 0.0


class TestOneCandidateSetPerBatch:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_batch_with_repeated_categories_matches_refactoring(self, d):
        for noise in (1e-2, 1e-4, 1e-6):
            seed = 500 + 10 * d + int(-math.log10(noise))
            model, params = random_batch_case(seed, d, True, noise)
            fixed_h = [np.array([c]) for c in (0, 1, 0, 1, 2)]
            assert_same_picks(model, params, 5, fixed_h, seed=seed)

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_one_uniform_draw_per_batch(self, batch, mixed):
        model, params = random_batch_case(3, 2, mixed, 1e-3)
        cfg = AcquisitionConfig(n_candidates=64, n_refine_steps=2)
        rng = np.random.default_rng(11)
        fixed_h = [np.array([c % 3]) for c in range(batch)] if mixed else None
        select_batch_continuous(model, params, batch, 20, cfg, rng, fixed_h)
        expected = np.random.default_rng(11)
        expected.uniform(size=(cfg.n_candidates, len(params)))
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_appends_all_but_the_last_pick(self, monkeypatch, batch, mixed):
        model, params = random_batch_case(4, 1, mixed, 1e-3)
        calls = {"append": 0, "with_observation": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gp._BatchPosterior, "append",
                            counted("append", gp._BatchPosterior.append))
        monkeypatch.setattr(GPModel, "with_observation",
                            counted("with_observation", GPModel.with_observation))
        fixed_h = [np.array([c % 3]) for c in range(batch)] if mixed else None
        select_batch_continuous(model, params, batch, 20, AcquisitionConfig(n_candidates=50),
                                np.random.default_rng(0), fixed_h)
        assert calls == {"append": batch - 1, "with_observation": 0}

    @pytest.mark.parametrize("batch", [2, 3, 5])
    def test_zero_pivot_fallback_matches_refactoring(self, monkeypatch, batch):
        # With one candidate, a high mean there and little exploration, every pick
        # is U[0], where the one data point sits without noise: the first
        # hallucination's pivot is exactly 1 + 0 - 1^2 = 0, so the rest of the batch
        # runs on re-factored models.
        seed, cfg = 12, AcquisitionConfig(c1=1e-4, c2=0.0, n_candidates=1, n_refine_steps=0)
        x0 = np.random.default_rng(seed).uniform(size=(1, 1))
        model = GPModel(x0, np.zeros((1, 0), dtype=int), np.array([21.0]), np.array([5.0]),
                        GPHyperparams(eps1=0.0, sigma1=1.0, noise=0.0))
        assert model.jitter == 0.0
        params = (ContinuousParam("x", 0.0, 1.0),)
        expected = select_by_refactoring(model, params, batch, 20, cfg,
                                         np.random.default_rng(seed))
        calls = {"chol": 0}
        original = gp._chol_with_jitter

        def counted(*args):
            calls["chol"] += 1
            return original(*args)

        monkeypatch.setattr(gp, "_chol_with_jitter", counted)
        got = select_batch_continuous(model, params, batch, 20, cfg,
                                      np.random.default_rng(seed))
        assert calls["chol"] == batch - 1  # every append re-factors, the first included
        for x, y in zip(got, expected):
            assert np.max(np.abs(x - y)) <= 1e-10


def reference_query(posterior, Xq, Hq, tq):
    """The batch posterior's query as one cross-kernel over all its rows and one
    scipy triangular solve."""
    theta = posterior.model.theta.as_array()
    k = gp._kernel_matrix(theta, *gp._pairwise(posterior._X, posterior._H, posterior._t,
                                               Xq, Hq, np.full(len(Xq), float(tq))))
    mu = k[:posterior.model.n].T @ posterior.model.alpha_vec
    v = solve_triangular(posterior._L, k, lower=True, check_finite=False)
    prior = gp._prior_variance(theta, posterior.model.mixed)
    return mu, np.maximum(prior - np.sum(v * v, axis=0), 0.0)


class TestBatchPosteriorBits:
    @staticmethod
    def assert_points_bits(posterior, h, rng):
        """points over a 16-column set, bit for bit."""
        d = posterior._X.shape[1]
        Xq = rng.uniform(size=(16, d))
        want = reference_query(posterior, Xq, np.tile(h, (16, 1)), posterior._tq)
        for got, expected in zip(posterior.points(Xq, h), want):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_points_and_first_candidates_match_reference_bits(self, d, m):
        for seed in range(6):
            rng = np.random.default_rng(1000 * d + 10 * m + seed)
            n = int(rng.integers(2, 150))
            X, H = rng.uniform(size=(n, d)), rng.integers(0, 3, size=(n, m))
            t = np.sort(rng.integers(1, 20, size=n)).astype(float)
            theta = GPHyperparams(eps1=rng.uniform(0.0, 0.3), eps2=rng.uniform(0.0, 0.3),
                                  lengthscale=rng.uniform(0.05, 2.0), lam=rng.uniform(),
                                  noise=1e-3)
            model = GPModel(X, H, t, np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=n), theta)
            U = rng.uniform(size=(40, d))
            posterior = gp._BatchPosterior(model, U, 21.0)
            for appended in range(4):
                h = rng.integers(0, 3, size=m)
                Hq = np.tile(h, (len(U), 1))
                if appended == 0:  # the first query of a category is the full one
                    want = reference_query(posterior, U, Hq, 21.0)
                    for got, expected in zip(posterior.candidates(h), want):
                        assert got.tobytes() == expected.tobytes()
                for _ in range(3):
                    self.assert_points_bits(posterior, h, rng)
                posterior.append(rng.uniform(size=d), h)

    @classmethod
    def assert_query_bits(cls, posterior, U, h, rng, first_candidates):
        """points over a few 16-point sets, and candidates when it is h's first
        query, bit for bit."""
        if first_candidates:
            want = reference_query(posterior, U, np.tile(h, (len(U), 1)), posterior._tq)
            for got, expected in zip(posterior.candidates(h), want):
                assert got.tobytes() == expected.tobytes()
        for _ in range(3):
            cls.assert_points_bits(posterior, h, rng)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_assignment_first_queried_after_appends(self, d, m):
        # The candidate set kept for one assignment gains one row per append
        # since; an assignment first read after appends is queried in full.
        rng = np.random.default_rng(2000 + 10 * d + m)
        n = 60
        X, H = rng.uniform(size=(n, d)), rng.integers(0, 3, size=(n, m))
        t = np.sort(rng.integers(1, 20, size=n)).astype(float)
        theta = GPHyperparams(eps1=0.2, eps2=0.1, lengthscale=0.4, lam=0.3, noise=1e-3)
        model = GPModel(X, H, t, np.sin(3 * X[:, 0]), theta)
        U = rng.uniform(size=(40, d))
        posterior = gp._BatchPosterior(model, U, 21.0)
        seen = np.zeros(m, dtype=int)
        self.assert_query_bits(posterior, U, seen, rng, first_candidates=True)
        for _ in range(3):
            posterior.append(rng.uniform(size=d), rng.integers(0, 3, size=m))
        self.assert_query_bits(posterior, U, seen, rng, first_candidates=False)
        self.assert_query_bits(posterior, U, np.full(m, 2), rng, first_candidates=m > 0)

    @pytest.mark.parametrize("m", [0, 1])
    def test_jittered_model_refactors_every_append(self, m):
        # Every row twice and no noise: K is singular, so the factor needs jitter
        # and every append re-factors, which drops the kept candidate sets.
        rng = np.random.default_rng(3000 + m)
        X, H = rng.uniform(size=(20, 1)), rng.integers(0, 2, size=(20, m))
        t = np.sort(rng.integers(1, 20, size=20)).astype(float)
        X, H, t = np.vstack([X, X]), np.vstack([H, H]), np.concatenate([t, t])
        theta = GPHyperparams(eps1=0.1, eps2=0.1, lengthscale=0.5, lam=0.4, noise=0.0)
        model = GPModel(X, H, t, np.sin(3 * X[:, 0]), theta)
        assert model.jitter > 0.0
        U = rng.uniform(size=(30, 1))
        posterior = gp._BatchPosterior(model, U, 21.0)
        codes = [np.full(m, c) for c in range(2)] if m else [np.zeros(0, dtype=int)]
        for h in codes:
            self.assert_query_bits(posterior, U, h, rng, first_candidates=True)
        for _ in range(3):
            posterior.append(rng.uniform(size=1), codes[-1])
            for h in codes:  # the kept sets are gone, so each is queried in full again
                self.assert_query_bits(posterior, U, h, rng, first_candidates=True)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_appended_factor_rows_match_bordered_oracle_bits(self, d, m):
        # The oracle borders L with k = K(all rows, x with codes h at round tq):
        # c = L^-1 k[:-1] and sqrt(k[-1] + noise - c.c).
        rng = np.random.default_rng(4000 + 10 * d + m)
        n, tq = 50, 21.0
        X, H = rng.uniform(size=(n, d)), rng.integers(0, 3, size=(n, m))
        t = np.sort(rng.integers(1, 20, size=n)).astype(float)
        theta = GPHyperparams(eps1=0.2, eps2=0.1, lengthscale=0.4, lam=0.3, noise=1e-3)
        model = GPModel(X, H, t, np.sin(3 * X[:, 0]), theta)
        posterior = gp._BatchPosterior(model, rng.uniform(size=(20, d)), tq)
        theta, L = theta.as_array(), model.chol
        for _ in range(6):
            x, h = rng.uniform(size=(1, d)), rng.integers(0, 3, size=(1, m))
            posterior.candidates(h)  # a kept set, extended on the next read
            posterior.append(x[0], h[0])
            X, H, t = np.vstack([X, x]), np.vstack([H, h]), np.append(t, tq)
            k = gp._kernel_matrix(theta, *gp._pairwise(X, H, t, x, h, tq))[:, 0]
            c = solve_triangular(L, k[:-1], lower=True, check_finite=False)
            pivot = k[-1] + theta[6] - c @ c
            assert pivot > 0.0
            L, bordered = np.zeros((len(k), len(k))), L
            L[:-1, :-1], L[-1, :-1], L[-1, -1] = bordered, c, math.sqrt(pivot)
            assert posterior._L.tobytes() == L.tobytes()


class TestRefinement:
    """Properties of the grid refinement of one pick, on the unit box, where a
    pick's raw value is its unit value."""

    @staticmethod
    def first_pick(seed, d, mixed, steps):
        """(best candidate, its UCB, the refined pick, its UCB) of a batch of one;
        both UCBs come from one `points` query."""
        model, _ = random_batch_case(seed, d, mixed, 1e-3)
        params = tuple(ContinuousParam(f"x{j}", 0.0, 1.0) for j in range(d))
        cfg = AcquisitionConfig(n_candidates=200, n_refine_steps=steps)
        h = np.array([seed % 3]) if mixed else None
        pick = select_batch_continuous(model, params, 1, 20, cfg, np.random.default_rng(seed),
                                       None if h is None else [h])[0]
        sqrt_beta = math.sqrt(beta(20, cfg))
        U = np.random.default_rng(seed).uniform(size=(cfg.n_candidates, d))
        posterior = gp._BatchPosterior(model, U, 21.0)
        mu, var = posterior.candidates(h)
        best = U[int(np.argmax(mu + sqrt_beta * np.sqrt(var)))]
        mu, var = posterior.points(np.vstack([best, pick]), h)
        ucb = mu + sqrt_beta * np.sqrt(var)
        return best, ucb[0], pick, ucb[1]

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pick_in_window_and_no_worse_than_best_candidate(self, d, mixed, steps):
        for seed in range(8):
            best, best_ucb, pick, pick_ucb = self.first_pick(40 + seed, d, mixed, steps)
            # The pick's grid UCB was strictly higher than the candidate's; queried
            # again in another point set, each may move by a few ulps.
            assert pick_ucb >= best_ucb - 1e-12
            lo = np.maximum(0.0, best - acquisition._REFINE_HALF_WIDTH)
            hi = np.minimum(1.0, best + acquisition._REFINE_HALF_WIDTH)
            assert np.all((lo <= pick) & (pick <= hi))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_no_refinement_returns_best_candidate(self, mixed):
        for seed in range(8):
            best, _, pick, _ = self.first_pick(60 + seed, 2, mixed, 0)
            assert pick.tobytes() == best.tobytes()
        model, _ = random_batch_case(7, 2, mixed, 1e-3)
        params = tuple(ContinuousParam(f"x{j}", 0.0, 1.0) for j in range(2))
        cfg = AcquisitionConfig(n_candidates=50, n_refine_steps=0)
        fixed_h = [np.array([c % 3]) for c in range(4)] if mixed else None
        picks = select_batch_continuous(model, params, 4, 20, cfg, np.random.default_rng(7),
                                        fixed_h)
        U = np.random.default_rng(7).uniform(size=(cfg.n_candidates, 2))
        assert all(any(x.tobytes() == u.tobytes() for u in U) for x in picks)

    def test_grid_has_the_bits_of_linspace(self):
        rng = np.random.default_rng(13)
        u = rng.uniform(size=(4000, 2))
        half = acquisition._REFINE_HALF_WIDTH
        spacing = rng.uniform(0.0, 2.0 * half / 15.0, size=4000)
        windows = [
            # Random first-level windows, clipped at 0 and at 1 near the edges.
            *((max(0.0, v - half), min(1.0, v + half)) for v in u[:, 0]),
            *((max(0.0, v - half), v) for v in half * u[:1000, 0]),
            *((v, min(1.0, v + half)) for v in 1.0 - half * u[:1000, 0]),
            # Later levels: one grid spacing either side of a point.
            *((v - s, v + s) for v, s in zip(u[:, 1], spacing)),
            (0.3, 0.3), (0.0, 0.0), (1.0, 1.0),  # zero width
        ]
        for j in (0, 1):
            for lo, hi in windows:
                Xq = acquisition._grid(np.array([0.25, 0.75]), j, lo, hi)
                assert Xq[:, j].tobytes() == np.linspace(lo, hi, acquisition._GRID).tobytes()
                assert np.all(Xq[:, 1 - j] == [0.25, 0.75][1 - j])

    def test_refinement_moves_off_the_candidates(self):
        moved = [not np.array_equal(best, pick)
                 for best, _, pick, _ in (self.first_pick(80 + s, 1, False, 2) for s in range(8))]
        assert any(moved)


class TestDefaultPickFindsTheUcbMaximum:
    """Under the default AcquisitionConfig(), a pick's UCB is within a measured
    tolerance of the maximum over a grid of 10^4 points of the unit box.

    Each case fits θ to 12 noisy observations of sum_j sin(3 pi x_j), which
    has 2 maxima per coordinate, so the candidates must land in the right
    basin. The UCB spans about 2 to 5 over the box. Largest gaps measured
    on seeds 0-19 (grid max minus the pick's UCB): 7.7e-4 at d = 1 (seed 5)
    and 0.020 at d = 2 (seed 16), where the 100 x 100 grid spacing is 0.01
    and a pick can beat the grid.
    """

    @staticmethod
    def gap(seed, d):
        rng = np.random.default_rng(seed)
        n = 12
        X = rng.uniform(size=(n, d))
        H, t = np.zeros((n, 0), dtype=int), np.arange(1.0, n + 1.0)
        y = np.sin(3 * math.pi * X).sum(axis=1) + 0.05 * rng.normal(size=n)
        theta = gp.fit(GPModel(X, H, t, y, GPHyperparams()), seed=seed)
        model = GPModel(X, H, t, y, theta)
        params = tuple(ContinuousParam(f"x{j}", 0.0, 1.0) for j in range(d))
        cfg = AcquisitionConfig()
        pick = select_batch_continuous(model, params, 1, n, cfg, rng)[0]
        axis = np.linspace(0.0, 1.0, round(10_000 ** (1 / d)))
        grid = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        mu, var = model.posterior(np.vstack([grid, pick]), None, n + 1.0)
        ucb = mu + math.sqrt(beta(n, cfg)) * np.sqrt(var)
        return ucb[:-1].max() - ucb[-1]

    @pytest.mark.parametrize("d, tolerance", [(1, 2e-3), (2, 0.04)])
    def test_gap_to_the_grid_maximum(self, d, tolerance):
        gaps = [self.gap(seed, d) for seed in range(20)]
        assert max(gaps) <= tolerance, gaps


class TestNoTransposingCopy:
    """Every matrix handed to LAPACK is already in Fortran order, so f2py copies
    it plainly, if at all, and never transposes an n x n matrix in a copy."""

    @pytest.mark.parametrize("jittered", [False, True])
    def test_fit_and_batch_hand_lapack_fortran_matrices(self, monkeypatch, jittered):
        lapack = _blas.lapack()
        calls = collections.Counter()  # (routine, Fortran-contiguous) -> calls

        def spied(name):
            routine = getattr(lapack, name)

            def wrapper(a, *args, **kwargs):
                calls[name, a.flags.f_contiguous] += 1
                return routine(a, *args, **kwargs)
            return wrapper

        for name in ("dpotrf", "dpotrs", "dpotri", "dtrtrs"):
            monkeypatch.setattr(lapack, name, spied(name))
        model, params = random_batch_case(5, 2, True, 1e-3, n=60)
        theta = gp.fit(model, seed=0)
        if jittered:  # rows twice over and no noise: the factor needs jitter, appends re-factor
            X, H, t, y = (np.concatenate([a, a]) for a in (model.X, model.H, model.t, model.y))
            model = GPModel(X, H, t, y, dataclasses.replace(theta, noise=0.0))
            assert model.jitter > 0.0
        else:
            model = GPModel(model.X, model.H, model.t, model.y, theta)
        fixed_h = [np.array([c]) for c in (0, 1, 0, 1)]
        select_batch_continuous(model, params, 4, 20, AcquisitionConfig(), np.random.default_rng(3),
                                fixed_h)
        for name in ("dpotrf", "dpotrs", "dpotri", "dtrtrs"):
            assert calls[name, True] > 0
            assert calls[name, False] == 0, name
