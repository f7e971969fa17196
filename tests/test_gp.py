import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.stats import multivariate_normal

from popbandit import _blas, gp
from popbandit.gp import (
    GPHyperparams,
    GPModel,
    HyperparamBounds,
    PARAM_NAMES,
    fit,
    grad_log_marginal,
    log_marginal,
)


# Scalar kernel pieces: the kernel's definition one pair of points at a time,
# the oracle the vectorized builder is checked against.

def k_continuous(x, x_other, sigma1: float, lengthscale: float) -> float:
    x = np.asarray(x, dtype=float)
    x_other = np.asarray(x_other, dtype=float)
    return sigma1 * math.exp(-float(np.sum((x - x_other) ** 2)) / lengthscale)


def k_categorical(h, h_other, sigma2: float, n_cat_dims: int) -> float:
    matches = sum(1 for a, b in zip(h, h_other) if a == b)
    return sigma2 / n_cat_dims * matches


def k_time(t: float, t_other: float, eps: float) -> float:
    return (1.0 - eps) ** (abs(t - t_other) / 2.0)


def k_mixed(z, z_other, t, t_other, theta: GPHyperparams) -> float:
    """Sum/product mixture of (continuous x time) and (categorical x time)."""
    x, h = z
    x2, h2 = z_other
    kxt = k_continuous(x, x2, theta.sigma1, theta.lengthscale) * k_time(t, t_other, theta.eps1)
    kht = k_categorical(h, h2, theta.sigma2, len(h)) * k_time(t, t_other, theta.eps2)
    return (1.0 - theta.lam) * (kxt + kht) + theta.lam * kxt * kht


def random_dataset(rng, n=8, d=2, m=1, codes=3):
    X = rng.uniform(size=(n, d))
    H = rng.integers(0, codes, size=(n, m))
    t = np.sort(rng.integers(1, 30, size=n)).astype(float)
    y = rng.normal(size=n)
    return X, H, t, y


def random_theta(rng, d):
    b = HyperparamBounds.default(d)
    # Stay off the bounds so finite differences remain two-sided.
    return GPHyperparams(
        eps1=rng.uniform(0.05, 0.45),
        eps2=rng.uniform(0.05, 0.45),
        lengthscale=rng.uniform(0.2, 3.0),
        sigma1=rng.uniform(0.3, 3.0),
        sigma2=rng.uniform(0.3, 3.0),
        lam=rng.uniform(0.1, 0.9),
        noise=rng.uniform(0.01, 0.5),
    ), b


class TestScalarKernels:
    def test_continuous_at_zero_distance(self):
        assert k_continuous([0.3, 0.3], [0.3, 0.3], 2.0, 1.5) == pytest.approx(2.0)

    def test_continuous_decay(self):
        assert k_continuous([0.0], [1.0], 1.0, 2.0) == pytest.approx(math.exp(-0.5))

    def test_categorical_fraction(self):
        assert k_categorical(("a", "b"), ("a", "c"), 4.0, 2) == pytest.approx(2.0)
        assert k_categorical(("a",), ("b",), 4.0, 1) == 0.0

    def test_time_decay(self):
        assert k_time(5.0, 5.0, 0.3) == 1.0
        assert k_time(0.0, 2.0, 0.19) == pytest.approx(0.81)
        assert k_time(0.0, 1.0, 0.19) == pytest.approx(0.9)

    def test_time_stationary_at_eps_zero(self):
        assert k_time(0.0, 100.0, 0.0) == 1.0

    def test_mixed_combination(self):
        theta = GPHyperparams(eps1=0.0, eps2=0.0, lengthscale=1.0,
                              sigma1=1.0, sigma2=1.0, lam=0.25, noise=0.0)
        x, h = np.array([0.0]), ("a",)
        x2, h2 = np.array([0.0]), ("a",)
        # kxt = 1, kht = 1: 0.75 * 2 + 0.25 * 1 = 1.75
        assert k_mixed((x, h), (x2, h2), 1.0, 1.0, theta) == pytest.approx(1.75)

    def test_mixed_sum_only_at_lam_zero(self):
        theta = GPHyperparams(lam=0.0, eps1=0.0, eps2=0.0, lengthscale=1.0,
                              sigma1=2.0, sigma2=3.0, noise=0.0)
        val = k_mixed((np.array([0.1]), ("a",)), (np.array([0.1]), ("b",)), 1.0, 1.0, theta)
        assert val == pytest.approx(2.0)  # kht = 0 on mismatch


class TestKernelMatrix:
    def test_matches_scalar_kernel(self):
        rng = np.random.default_rng(0)
        X, H, t, y = random_dataset(rng, n=6)
        theta, _ = random_theta(rng, 2)
        model = GPModel(X, H, t, y, theta)
        K = gp._kernel_matrix(theta.as_array(), model._d2, model._match, model._dt)
        labels = [tuple(map(str, row)) for row in H]
        for i in range(6):
            for j in range(6):
                expected = k_mixed((X[i], labels[i]), (X[j], labels[j]),
                                   t[i], t[j], theta)
                assert K[i, j] == pytest.approx(expected, rel=1e-12)

    def test_psd_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            X, H, t, y = random_dataset(rng, n=10)
            theta, _ = random_theta(rng, 2)
            model = GPModel(X, H, t, y, theta)
            K = gp._kernel_matrix(theta.as_array(), model._d2, model._match, model._dt)
            eig = np.linalg.eigvalsh(K)
            assert eig.min() > -1e-8

    def test_diagonal_equals_prior_variance(self):
        rng = np.random.default_rng(2)
        X, H, t, y = random_dataset(rng, n=5)
        theta, _ = random_theta(rng, 2)
        model = GPModel(X, H, t, y, theta)
        K = gp._kernel_matrix(theta.as_array(), model._d2, model._match, model._dt)
        prior = gp._prior_variance(theta.as_array(), mixed=True)
        assert np.allclose(np.diag(K), prior)


def pairwise_3d(X1, H1, t1, X2, H2, t2):
    """The builder `_pairwise` replaced: n1 x n2 x d and n1 x n2 x m temporaries,
    both sides given row by row. The reference its bits are pinned to."""
    d2 = np.sum((X1[:, None, :] - X2[None, :, :]) ** 2, axis=-1) if X1.shape[1] else np.zeros(
        (len(X1), len(X2))
    )
    m = H1.shape[1]
    match = np.mean(H1[:, None, :] == H2[None, :, :], axis=-1) if m else None
    dt = np.abs(t1[:, None] - t2[None, :])
    return d2, match, dt


class TestPairwise:
    @staticmethod
    def assert_same_bits(got, want, broadcast=False):
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                if broadcast:  # terms of a side given as one row come back one wide
                    g = np.broadcast_to(g, w.shape)
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", range(8))
    def test_bits_of_the_3d_builder(self, d, m):
        rng = np.random.default_rng(100 * d + m)
        for _ in range(4):
            n1, n2 = rng.integers(1, 40, size=2)
            X1, X2 = rng.uniform(size=(n1, d)), rng.uniform(-1.0, 2.0, size=(n2, d))
            H1, H2 = rng.integers(0, 3, size=(n1, m)), rng.integers(0, 3, size=(n2, m))
            t1, t2 = rng.integers(0, 30, size=n1) * 1.0, rng.uniform(0.0, 30.0, size=n2)
            self.assert_same_bits(gp._pairwise(X1, H1, t1, X2, H2, t2),
                                  pairwise_3d(X1, H1, t1, X2, H2, t2))
            # One row of codes and one round, on either side, stand for every row.
            h, tq = rng.integers(0, 3, size=(1, m)), float(rng.integers(0, 30))
            self.assert_same_bits(gp._pairwise(X1, H1, t1, X2, h, tq),
                                  pairwise_3d(X1, H1, t1, X2, np.repeat(h, n2, axis=0),
                                              np.full(n2, tq)), broadcast=True)
            self.assert_same_bits(gp._pairwise(X2, h, np.array([tq]), X1, H1, t1),
                                  pairwise_3d(X2, np.repeat(h, n2, axis=0), np.full(n2, tq),
                                              X1, H1, t1), broadcast=True)

    @pytest.mark.parametrize("m", [0, 2])
    def test_peak_memory_does_not_grow_with_dimension(self, m):
        rng = np.random.default_rng(m)
        n, N = 200, 1000
        peaks = []
        for d in (1, 7):
            X, U = rng.uniform(size=(n, d)), rng.uniform(size=(N, d))
            H, HU = rng.integers(0, 3, size=(n, m)), rng.integers(0, 3, size=(N, m))
            t, tU = rng.uniform(size=n), rng.uniform(size=N)
            tracemalloc.start()
            try:
                gp._pairwise(X, H, t, U, HU, tU)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # A builder with an n x N x d temporary needs about (d + 1) n N doubles at d=7.
        assert peaks[1] <= peaks[0] + 0.1 * n * N * 8

    @pytest.mark.parametrize("m, arrays", [(0, 2), (2, 3)])
    def test_peak_memory_of_a_candidate_query(self, m, arrays):
        # A query of N candidates at one round and one row of codes holds d2 and
        # kxt at n x N (then K and its solve), and one more array for a mixed
        # K's combination; its round and category terms are one column wide.
        rng = np.random.default_rng(m)
        n, N = 200, 1000
        X, H = rng.uniform(size=(n, 1)), rng.integers(0, 3, size=(n, m))
        t = np.sort(rng.integers(1, 20, size=n)).astype(float)
        model = GPModel(X, H, t, np.sin(3 * X[:, 0]), GPHyperparams(noise=1e-2))
        posterior = gp._BatchPosterior(model, rng.uniform(size=(N, 1)), 21.0)
        h = rng.integers(0, 3, size=m)
        tracemalloc.start()
        try:
            posterior.candidates(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (arrays + 0.1) * n * N * 8


class TestPosterior:
    def test_empty_model_prior(self):
        theta = GPHyperparams()
        model = GPModel(np.zeros((0, 1)), np.zeros((0, 0), dtype=int),
                        np.zeros(0), np.zeros(0), theta)
        mu, var = model.posterior(np.array([[0.5]]), None, 1.0)
        assert mu[0] == 0.0
        assert var[0] == pytest.approx(theta.sigma1)

    def test_single_observation_closed_form(self):
        # One point (sigma1=1, noise=0.1) queried at itself, same round:
        # mu = y / (1 + noise), var = 1 - 1/(1 + noise).
        theta = GPHyperparams(eps1=0.0, lengthscale=1.0, sigma1=1.0, noise=0.1)
        model = GPModel(np.array([[0.5]]), np.zeros((1, 0), dtype=int),
                        np.array([3.0]), np.array([2.0]), theta)
        mu, var = model.posterior(np.array([[0.5]]), None, 3.0)
        assert mu[0] == pytest.approx(2.0 / 1.1, rel=1e-10)
        assert var[0] == pytest.approx(1.0 - 1.0 / 1.1, rel=1e-9)

    def test_interpolates_with_tiny_noise(self):
        theta = GPHyperparams(eps1=0.0, lengthscale=1.0, sigma1=1.0, noise=1e-6)
        X = np.array([[0.1], [0.9]])
        y = np.array([0.3, -0.4])
        model = GPModel(X, np.zeros((2, 0), dtype=int), np.array([1.0, 1.0]), y, theta)
        mu, var = model.posterior(X, None, 1.0)
        assert np.allclose(mu, y, atol=1e-4)
        assert np.all(var < 1e-4)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(3)
        X, H, t, y = random_dataset(rng, n=15)
        theta, _ = random_theta(rng, 2)
        model = GPModel(X, H, t, y, theta)
        Xq = rng.uniform(size=(40, 2))
        Hq = rng.integers(0, 3, size=(40, 1))
        _, var = model.posterior(Xq, Hq, 31.0)
        assert np.all(var >= 0.0)

    def test_eps_zero_matches_stationary_reference(self):
        """With both decay rates at zero the rounds must not matter at all."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            X, H, t, y = random_dataset(rng, n=12)
            theta = GPHyperparams(eps1=0.0, eps2=0.0,
                                  lengthscale=float(rng.uniform(0.3, 2.0)),
                                  sigma1=1.3, sigma2=0.8, lam=0.4, noise=0.05)
            model = GPModel(X, H, t, y, theta)
            scrambled = GPModel(X, H, rng.permutation(t), y, theta)
            Xq = rng.uniform(size=(5, 2))
            Hq = rng.integers(0, 3, size=(5, 1))
            mu1, v1 = model.posterior(Xq, Hq, 100.0)
            mu2, v2 = scrambled.posterior(Xq, Hq, -5.0)
            assert np.allclose(mu1, mu2, atol=1e-10)
            assert np.allclose(v1, v2, atol=1e-10)

    @pytest.mark.parametrize("m, Hq", [(1, None), (2, None), (2, np.zeros((5, 1), dtype=int)),
                                       (1, np.zeros((5, 2), dtype=int))])
    def test_mixed_model_rejects_codes_of_another_width(self, m, Hq):
        rng = np.random.default_rng(8)
        X, H, t, y = random_dataset(rng, n=6, m=m)
        model = GPModel(X, H, t, y, GPHyperparams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # not a NaN with a RuntimeWarning
            with pytest.raises(ValueError, match=f"{m} categorical column"):
                model.posterior(rng.uniform(size=(5, 2)), Hq, 31.0)

    def test_continuous_model_ignores_codes(self):
        rng = np.random.default_rng(9)
        X, H, t, y = random_dataset(rng, n=6, m=0)
        model = GPModel(X, H, t, y, GPHyperparams())
        Xq = rng.uniform(size=(5, 2))
        want = model.posterior(Xq, None, 31.0)
        for Hq in (np.zeros((5, 1), dtype=int), np.zeros((5, 3), dtype=int)):
            for got, expected in zip(model.posterior(Xq, Hq, 31.0), want):
                assert got.tobytes() == expected.tobytes()

    def test_with_observation_appends(self):
        rng = np.random.default_rng(5)
        X, H, t, y = random_dataset(rng, n=4)
        theta, _ = random_theta(rng, 2)
        model = GPModel(X, H, t, y, theta)
        m2 = model.with_observation(np.array([0.5, 0.5]), np.array([1]), 31.0, 0.0)
        assert m2.n == 5
        assert model.n == 4  # original untouched


class TestJitter:
    def test_duplicate_rows_without_noise_report_jitter(self):
        X = np.array([[0.2], [0.2], [0.7]])
        model = GPModel(X, np.zeros((3, 0), dtype=int), np.ones(3), np.zeros(3),
                        GPHyperparams(eps1=0.0, noise=0.0))
        assert model.jitter > 0.0
        _, jitter = gp._chol_with_jitter(np.ones((2, 2)))
        assert jitter > 0.0

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_factor_is_lower_and_input_untouched(self, noise):
        # With noise 0 the repeated row makes K singular, so the factor needs jitter.
        X = np.array([[0.2], [0.5], [0.2], [0.9]])
        t = np.ones(4)
        d2, match, dt = gp._pairwise(X, np.zeros((4, 0), dtype=int), t,
                                     X, np.zeros((4, 0), dtype=int), t)
        K = gp._kernel_matrix(GPHyperparams(eps1=0.0).as_array(), d2, match, dt)
        K += noise * np.eye(4)
        before = K.copy()
        L, jitter = gp._chol_with_jitter(K)
        assert (jitter > 0.0) == (noise == 0.0)
        assert np.array_equal(K, before)
        assert np.all(np.triu(L, 1) == 0.0)
        assert np.allclose(L @ L.T, K + jitter * np.eye(4), atol=1e-12)

    def test_well_posed_kernel_reports_none(self):
        rng = np.random.default_rng(6)
        X, H, t, y = random_dataset(rng, n=10)
        theta, _ = random_theta(rng, 2)
        assert GPModel(X, H, t, y, theta).jitter == 0.0
        _, jitter = gp._chol_with_jitter(np.eye(3))
        assert jitter == 0.0


class TestLogMarginal:
    def test_matches_scipy_mvn(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            X, H, t, y = random_dataset(rng, n=int(rng.integers(2, 12)))
            theta, bounds = random_theta(rng, 2)
            model = GPModel(X, H, t, y, theta, bounds)
            K = gp._kernel_matrix(theta.as_array(), model._d2, model._match, model._dt)
            ref = multivariate_normal.logpdf(y, mean=np.zeros(len(y)),
                                             cov=K + theta.noise * np.eye(len(y)))
            assert log_marginal(model) == pytest.approx(ref, abs=1e-8)

    def test_continuous_only_matches_scipy(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(7, 1))
        H = np.zeros((7, 0), dtype=int)
        t = np.arange(1.0, 8.0)
        y = rng.normal(size=7)
        theta, bounds = random_theta(rng, 1)
        model = GPModel(X, H, t, y, theta, bounds)
        K = gp._kernel_matrix(theta.as_array(), model._d2, None, model._dt)
        ref = multivariate_normal.logpdf(y, mean=np.zeros(7),
                                         cov=K + theta.noise * np.eye(7))
        assert log_marginal(model) == pytest.approx(ref, abs=1e-8)

    def test_empty_raises(self):
        model = GPModel(np.zeros((0, 1)), np.zeros((0, 0), dtype=int),
                        np.zeros(0), np.zeros(0), GPHyperparams())
        with pytest.raises(ValueError):
            log_marginal(model)


class TestGradient:
    @staticmethod
    def finite_diff(model, step=1e-6):
        theta0 = model.theta.as_array()
        fd = np.empty(7)
        for i in range(7):
            plus, minus = theta0.copy(), theta0.copy()
            plus[i] += step
            minus[i] -= step
            fp = log_marginal(GPModel(model.X, model.H, model.t, model.y,
                                      GPHyperparams.from_array(plus)))
            fm = log_marginal(GPModel(model.X, model.H, model.t, model.y,
                                      GPHyperparams.from_array(minus)))
            fd[i] = (fp - fm) / (2 * step)
        return fd

    def test_matches_finite_differences_mixed(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            X, H, t, y = random_dataset(rng, n=int(rng.integers(3, 10)))
            theta, bounds = random_theta(rng, 2)
            model = GPModel(X, H, t, y, theta, bounds)
            g = grad_log_marginal(model)
            fd = self.finite_diff(model)
            rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
            assert np.all(rel < 1e-4), dict(zip(PARAM_NAMES, rel))

    def test_matches_finite_differences_continuous_only(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            X = rng.uniform(size=(n, 1))
            H = np.zeros((n, 0), dtype=int)
            t = np.sort(rng.integers(1, 20, size=n)).astype(float)
            y = rng.normal(size=n)
            theta, bounds = random_theta(rng, 1)
            model = GPModel(X, H, t, y, theta, bounds)
            g = grad_log_marginal(model)
            fd = self.finite_diff(model)
            rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
            assert np.all(rel < 1e-4)
            # Categorical-side parameters are inert without category columns.
            assert g[1] == 0.0 and g[4] == 0.0 and g[5] == 0.0


def grad_matrices_oracle(theta, d2, match, dt):
    """dK/dtheta_i as full matrices, for the six kernel hyperparameters."""
    eps1, eps2, lengthscale, sigma1, sigma2, lam, _ = theta
    kcont = sigma1 * np.exp(-d2 / lengthscale)
    ktime1 = gp._time_factor(eps1, dt)
    kxt = kcont * ktime1
    half_dt = dt / 2.0
    dtime1 = -half_dt * ktime1 / (1.0 - eps1)
    if match is None:
        zeros = np.zeros_like(d2)
        return [kcont * dtime1, zeros, kxt * d2 / lengthscale**2, kxt / sigma1, zeros, zeros]
    kcat = sigma2 * match
    ktime2 = gp._time_factor(eps2, dt)
    kht = kcat * ktime2
    dtime2 = -half_dt * ktime2 / (1.0 - eps2)
    front_x = (1.0 - lam) + lam * kht
    front_h = (1.0 - lam) + lam * kxt
    return [
        front_x * kcont * dtime1,
        front_h * kcat * dtime2,
        front_x * ktime1 * kcont * d2 / lengthscale**2,
        front_x * ktime1 * kcont / sigma1,
        front_h * ktime2 * kcat / sigma2,
        -(kxt + kht) + kxt * kht,
    ]


def grad_oracle(theta, d2, match, dt, y):
    """1/2 tr((alpha alpha^T - K^-1) dK/dtheta_i), K^-1 from cho_solve(eye)."""
    K = gp._kernel_matrix(theta, d2, match, dt) + theta[6] * np.eye(len(y))
    L = np.linalg.cholesky(K)
    alpha = cho_solve((L, True), y)
    inner = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(len(y)))
    mats = grad_matrices_oracle(theta, d2, match, dt)
    return np.array([0.5 * np.sum(inner * m) for m in mats] + [0.5 * np.trace(inner)])


class TestGradientOracle:
    @pytest.mark.parametrize("n", [8, 60, 200])
    @pytest.mark.parametrize("m", [1, 0])
    def test_contracted_gradient_matches_full_matrices(self, n, m):
        rng = np.random.default_rng(100 + n + m)
        for _ in range(3):
            X, H, t, y = random_dataset(rng, n=n, m=max(m, 1))
            H = H[:, :m]
            theta = random_theta(rng, 2)[0].as_array()
            d2, match, dt = gp._pairwise(X, H, t, X, H, t)
            _, factor, alpha = gp._factor(theta, d2, match, dt, y)
            g = gp._grad(theta, d2, match, dt, factor, alpha)
            np.testing.assert_allclose(g, grad_oracle(theta, d2, match, dt, y),
                                       rtol=1e-10, atol=0.0)
            if m == 0:
                assert g[1] == 0.0 and g[4] == 0.0 and g[5] == 0.0


class TestFit:
    def test_fewer_than_two_returns_the_models_theta(self):
        theta = GPHyperparams(lengthscale=2.5)
        X = np.array([[0.5]])
        model = GPModel(X, np.zeros((1, 0), dtype=int), np.array([1.0]), np.array([0.2]), theta)
        assert fit(model) == theta

    def test_improves_objective(self):
        rng = np.random.default_rng(30)
        X = rng.uniform(size=(20, 1))
        t = np.arange(1.0, 21.0)
        y = np.sin(6 * X[:, 0]) + rng.normal(scale=0.05, size=20)
        H = np.zeros((20, 0), dtype=int)
        init = GPHyperparams()
        bounds = HyperparamBounds.default(1)
        m_init = GPModel(X, H, t, y, init, bounds)
        fitted = fit(m_init, seed=0)
        m_fit = GPModel(X, H, t, y, fitted, bounds)
        assert log_marginal(m_fit) >= log_marginal(m_init) - 1e-9

    def test_respects_bounds(self):
        rng = np.random.default_rng(31)
        X, H, t, y = random_dataset(rng, n=10)
        bounds = HyperparamBounds.default(2)
        model = GPModel(X, H, t, y, GPHyperparams(), bounds)
        fitted = fit(model, seed=1)
        arr = fitted.as_array()
        assert np.all(arr >= bounds.lower - 1e-12)
        assert np.all(arr <= bounds.upper + 1e-12)

    def test_ascends_from_the_models_theta_then_from_one_random_start(self, monkeypatch):
        starts = []
        real = gp._ascend

        def spy(theta0, *args, **kwargs):
            starts.append(np.array(theta0))
            return real(theta0, *args, **kwargs)

        monkeypatch.setattr(gp, "_ascend", spy)
        model = GPModel(*sincos_dataset(20, seed=46), GPHyperparams(lengthscale=0.3, noise=0.05))
        fit(model, seed=5)
        assert len(starts) == 2
        assert starts[0].tobytes() == model.theta.as_array().tobytes()
        assert starts[1].tobytes() == model.bounds.sample(np.random.default_rng(5)).tobytes()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(32)
        X, H, t, y = random_dataset(rng, n=8)
        a = fit(GPModel(X, H, t, y, GPHyperparams()), seed=7)
        b = fit(GPModel(X, H, t, y, GPHyperparams()), seed=7)
        assert a == b


def sincos_dataset(n, seed):
    """n observations of sin(3x) + noise over two categories, rounds 1..40."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 1))
    H = rng.integers(0, 2, size=(n, 1))
    t = np.sort(rng.integers(1, 40, size=n)).astype(float)
    y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=n)
    return X, H, t, y


@pytest.fixture
def restore_blas_threads():
    before = _blas.get_threads()
    if not before:
        pytest.skip("no OpenBLAS thread setter found in this process")
    yield before
    _blas.set_threads(before)


class TestFusedAscent:
    def test_one_cholesky_per_lml_evaluation(self, monkeypatch):
        X, H, t, y = sincos_dataset(40, seed=40)
        d2, match, dt = gp._pairwise(X, H, t, X, H, t)
        events = []  # ("chol", matrix bytes), ("lml", None) or ("grad", None)

        def logged(kind, fn, matrix=False):
            def wrapper(*args, **kwargs):
                events.append((kind, args[0].tobytes() if matrix else None))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gp, "_chol_with_jitter",
                            logged("chol", gp._chol_with_jitter, matrix=True))
        monkeypatch.setattr(gp, "_factor", logged("lml", gp._factor))
        monkeypatch.setattr(gp, "_grad", logged("grad", gp._grad))
        theta, _ = gp._ascend(GPHyperparams().as_array(), HyperparamBounds.default(1),
                              d2, match, dt, y, max_iter=20)
        assert theta is not None
        kinds = [kind for kind, _ in events]
        assert kinds.count("grad") > 1
        assert kinds.count("chol") == kinds.count("lml")
        # A gradient reuses the factor of the point just accepted. Factoring
        # that matrix again for the gradient would show up as a repeat here.
        chols = [i for i, kind in enumerate(kinds) if kind == "chol"]
        for i, kind in enumerate(kinds):
            if kind == "grad":
                before = [j for j in chols if j < i]
                assert len(before) < 2 or events[before[-1]] != events[before[-2]]


    def test_line_search_factors_no_theta_twice_in_a_row(self, monkeypatch):
        # On these noiseless data the first quasi-Newton step overshoots so far
        # that two backtracking candidates in a row put every parameter the
        # gradient moves on its lower bound, one theta: the second must not be
        # factored again.
        X, t, y = noiseless_dataset(40, seed=6)
        H = np.zeros((40, 0), dtype=int)
        d2, match, dt = gp._pairwise(X, H, t, X, H, t)
        events = []  # ("lml", theta) or ("grad", theta), in call order

        def logged(kind, fn):
            def wrapper(theta, *args):
                events.append((kind, theta.copy()))
                return fn(theta, *args)
            return wrapper

        monkeypatch.setattr(gp, "_factor", logged("lml", gp._factor))
        monkeypatch.setattr(gp, "_grad", logged("grad", gp._grad))
        theta, report = gp._ascend(GPHyperparams().as_array(), HyperparamBounds.default(1),
                                   d2, match, dt, y)
        assert report.converged
        thetas = [th for kind, th in events if kind == "lml"]
        assert len(thetas) > report.iterations + 1  # the line search backtracked
        assert not any(np.array_equal(a, b) for a, b in zip(thetas, thetas[1:]))
        # A gradient is taken only at the point just factored and accepted.
        for (kind, th), (prev_kind, prev_th) in zip(events[1:], events):
            if kind == "grad":
                assert prev_kind == "lml" and np.array_equal(th, prev_th)
        assert np.array_equal(events[-1][1], theta)


def noiseless_dataset(n, seed):
    """n observations of sin(3x), min-max scaled, at rounds 1..40."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 1))
    t = np.sort(rng.integers(1, 40, size=n)).astype(float)
    y = np.sin(3 * X[:, 0])
    return X, t, (y - y.min()) / (y.max() - y.min())


def scipy_map(theta0, bounds, d2, match, dt, y):
    """(theta, LML) that scipy's L-BFGS-B reaches on the box from theta0: the
    fit's oracle. Imported here only: importing popbandit must not load
    scipy.optimize."""
    from scipy.optimize import minimize

    def negative(theta):
        try:
            f, factor, alpha = gp._factor(theta, d2, match, dt, y)
        except np.linalg.LinAlgError:
            return math.inf, np.zeros(7)
        return -f, -gp._grad(theta, d2, match, dt, factor, alpha)

    result = minimize(negative, theta0, jac=True, method="L-BFGS-B",
                      bounds=list(zip(bounds.lower, bounds.upper)))
    return result.x, -result.fun


# LML (without the log prior) that the projected gradient ascent which the
# L-BFGS replaced reached from the default init in max_iter=100 steps, on
# scaled_sincos(n, seed) and its continuous-only variant.
ASCENT_LML = {
    (False, 50, 0): 33.92458539946315,
    (False, 50, 1): 44.59180526974739,
    (False, 50, 2): 31.84773497036361,
    (False, 200, 0): 144.54725326213466,
    (False, 200, 1): 138.7840068466938,
    (False, 200, 2): 148.65844602404482,
    (True, 50, 0): 26.547101228323974,
    (True, 50, 1): 39.18596333852785,
    (True, 50, 2): 24.161329029710963,
    (True, 200, 0): 80.45501573391581,
    (True, 200, 1): 85.81977035689013,
    (True, 200, 2): 74.37957488753258,
}


def scaled_sincos(n, seed, mixed):
    """sincos_dataset with min-max scaled rewards, as the strategies fit them."""
    X, H, t, y = sincos_dataset(n, seed)
    return X, H if mixed else H[:, :0], t, (y - y.min()) / (y.max() - y.min())


def ascend_and_oracle(X, H, t, y):
    d2, match, dt = gp._pairwise(X, H, t, X, H, t)
    init, bounds = GPHyperparams().as_array(), HyperparamBounds.default(1)
    theta, report = gp._ascend(init, bounds, d2, match, dt, y)
    oracle_theta, oracle_lml = scipy_map(init, bounds, d2, match, dt, y)
    return theta, report, oracle_theta, oracle_lml


class TestFitQuality:
    @pytest.mark.parametrize("mixed, n, seed", sorted(ASCENT_LML))
    def test_converges_above_the_old_ascent_and_near_scipy(self, mixed, n, seed):
        X, H, t, y = scaled_sincos(n, seed, mixed)
        theta, report, _, oracle_lml = ascend_and_oracle(X, H, t, y)
        assert report.converged
        assert report.lml >= ASCENT_LML[mixed, n, seed]
        assert report.lml >= oracle_lml - 0.4
        model = GPModel(X, H, t, y, GPHyperparams.from_array(theta))
        assert report.lml == pytest.approx(log_marginal(model), abs=1e-9)

    @pytest.mark.parametrize("kind, at_lower", [
        ("static", ("eps1",)),
        ("additive", ("eps1", "eps2", "lam")),
        ("noiseless", ("eps1", "noise")),
    ])
    def test_optimum_on_a_bound(self, kind, at_lower):
        # static: a function that does not drift; additive: the category shifts
        # the level; noiseless: sin(3x) itself.
        X, H, t, y = sincos_dataset(30, seed=0)
        if kind == "noiseless":
            y = np.sin(3 * X[:, 0])
        elif kind == "additive":
            y = y + 0.5 * H[:, 0]
        if kind != "additive":
            H = H[:, :0]
        y = (y - y.min()) / (y.max() - y.min())
        theta, report, oracle_theta, oracle_lml = ascend_and_oracle(X, H, t, y)
        assert report.converged
        assert report.lml >= oracle_lml - 1e-3
        bounds = HyperparamBounds.default(1)
        for name in at_lower:
            i = PARAM_NAMES.index(name)
            assert oracle_theta[i] == bounds.lower[i]
            # Held on its bound: z = -37, where sigma(z) is 5.6e-17.
            assert theta[i] - bounds.lower[i] <= 1e-16 * (bounds.upper[i] - bounds.lower[i])

    def test_fit_warns_nothing(self):
        # On noiseless sin/cos data, as the sincos objective gives them,
        # several parameters end on a bound, at z = +-37, where dtheta/dz is
        # 5.6e-17 of the range: nothing may overflow or underflow there.
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(20, 1))
        H = rng.integers(0, 2, size=(20, 1))
        t = np.sort(rng.integers(1, 40, size=20)).astype(float)
        y = np.where(H[:, 0] == 0, np.sin(0.5 * math.pi * X[:, 0]), np.cos(0.5 * math.pi * X[:, 0]))
        y = (y - y.min()) / (y.max() - y.min())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = fit(GPModel(X, H, t, y, GPHyperparams()), seed=0)
        assert np.all(np.isfinite(fitted.as_array()))


class TestActiveBounds:
    """A coordinate at the edge whose gradient points out of the box is held on
    its bound (L-BFGS-B's active set, in sigmoid coordinates)."""

    @staticmethod
    def noiseless_ascent(monkeypatch, start=None):
        """(theta, report, every theta factored) of one ascent on noiseless_dataset(40, seed=6)."""
        X, t, y = noiseless_dataset(40, seed=6)
        H = np.zeros((40, 0), dtype=int)
        d2, match, dt = gp._pairwise(X, H, t, X, H, t)
        factored = []
        real = gp._factor

        def logged(theta, *args):
            factored.append(theta.copy())
            return real(theta, *args)

        monkeypatch.setattr(gp, "_factor", logged)
        start = GPHyperparams().as_array() if start is None else start
        theta, report = gp._ascend(start, HyperparamBounds.default(1), d2, match, dt, y)
        return theta, report, factored

    def test_noise_ends_on_its_bound_in_fewer_steps(self, monkeypatch):
        theta, report, factored = self.noiseless_ascent(monkeypatch)
        bounds = HyperparamBounds.default(1)
        span = bounds.upper - bounds.lower
        assert report.converged
        assert theta[6] - bounds.lower[6] <= 1e-15 * span[6]
        assert report.evaluations == len(factored)
        # Without the rule the ascent stepped the noise's z on to -28, where its
        # gradient fell below the tolerance: 25 iterations, 30 LML evaluations.
        assert (report.iterations, report.evaluations) == (15, 18)

    def test_no_theta_factored_from_past_the_bound(self, monkeypatch):
        _, _, factored = self.noiseless_ascent(monkeypatch)
        bounds = HyperparamBounds.default(1)
        span = bounds.upper - bounds.lower
        lowest = bounds.lower + span * (0.5 * (1.0 + np.tanh(-0.5 * gp._Z)))
        highest = bounds.lower + span * (0.5 * (1.0 + np.tanh(0.5 * gp._Z)))
        assert all(np.all((lowest <= th) & (th <= highest)) for th in factored)

    def test_start_on_a_bound_with_an_inward_gradient_moves_inside(self, monkeypatch):
        X, t, y = noiseless_dataset(40, seed=6)
        bounds = HyperparamBounds.default(1)
        start = GPHyperparams().as_array()
        start[2] = bounds.lower[2]  # the lengthscale, whose gradient there points inward
        model = GPModel(X, np.zeros((40, 0), dtype=int), t, y, GPHyperparams.from_array(start))
        assert grad_log_marginal(model)[2] > 0.0
        theta, report, _ = self.noiseless_ascent(monkeypatch, start)
        assert report.converged
        assert theta[2] - bounds.lower[2] > 0.1 * (bounds.upper[2] - bounds.lower[2])


class TestFitBlasThreads:
    def test_fit_runs_on_one_thread_and_restores_counts(self, monkeypatch,
                                                       restore_blas_threads):
        _blas.set_threads(2)
        before = _blas.get_threads()
        seen = []
        real = gp._ascend

        def spy(*args, **kwargs):
            seen.append(_blas.get_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(gp, "_ascend", spy)
        model = GPModel(*sincos_dataset(20, seed=42), GPHyperparams())
        fit(model, seed=0)
        assert seen and all(counts == [1] * len(before) for counts in seen)
        assert _blas.get_threads() == before

    def test_counts_restored_when_fit_raises(self, monkeypatch, restore_blas_threads):
        _blas.set_threads(2)
        before = _blas.get_threads()

        def boom(*_args, **_kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(gp, "_ascend", boom)
        with pytest.raises(RuntimeError):
            fit(GPModel(*sincos_dataset(20, seed=43), GPHyperparams()))
        assert _blas.get_threads() == before

    def test_same_theta_with_one_or_two_caller_threads(self, restore_blas_threads):
        # At this size OpenBLAS splits a Cholesky across the threads it has,
        # which changes its rounding; the fit must not depend on the caller's count.
        model = GPModel(*sincos_dataset(160, seed=44), GPHyperparams())
        fits = []
        for threads in (1, 2):
            _blas.set_threads(threads)
            theta = fit(model, seed=0)
            fits.append(theta.as_array().tobytes())
        assert fits[0] == fits[1]

    def test_same_posterior_with_one_or_two_caller_threads(self, restore_blas_threads):
        X, H, t, y = sincos_dataset(160, seed=45)
        Xq = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
        Hq = np.tile([0, 1], 25).reshape(-1, 1)
        outputs = []
        for threads in (1, 2):
            _blas.set_threads(threads)
            mu, var = GPModel(X, H, t, y, GPHyperparams()).posterior(Xq, Hq, 40.0)
            outputs.append(mu.tobytes() + var.tobytes())
        assert outputs[0] == outputs[1]


class TestOpenblasLookup:
    def test_matches_openblas_anywhere_in_the_path(self):
        lines = [
            "7f00-7f01 r-xp 00000000 08:01 1 /usr/lib/x86_64-linux-gnu/openblas-pthread/libblas.so.3\n",
            "7f01-7f02 r--p 00000000 08:01 2 /site-packages/numpy.libs/libscipy_openblas64_-ff651d7f.so\n",
            "7f02-7f03 r--p 00000000 08:01 3 /usr/lib/x86_64-linux-gnu/libm.so.6\n",
            "7f03-7f04 rw-p 00000000 00:00 0 \n",
            "7f04-7f05 r--p 00000000 08:01 4 /data/openblas-notes.txt\n",
        ]
        assert _blas._openblas_paths(lines) == [
            "/site-packages/numpy.libs/libscipy_openblas64_-ff651d7f.so",
            "/usr/lib/x86_64-linux-gnu/openblas-pthread/libblas.so.3",
        ]
