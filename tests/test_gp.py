import math

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
    k_categorical,
    k_continuous,
    k_mixed,
    k_time,
    log_marginal,
    windowed,
)


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

    def test_with_theta_factors_afresh(self):
        rng = np.random.default_rng(7)
        X, H, t, y = random_dataset(rng, n=12)
        theta_a, _ = random_theta(rng, 2)
        theta_b, _ = random_theta(rng, 2)
        Xq = rng.uniform(size=(5, 2))
        Hq = rng.integers(0, 3, size=(5, 1))
        model = GPModel(X, H, t, y, theta_a)
        model.posterior(Xq, Hq, 31.0)  # factors K under theta_a
        moved = model.with_theta(theta_b)
        fresh = GPModel(X, H, t, y, theta_b)
        for got, want in zip(moved.posterior(Xq, Hq, 31.0), fresh.posterior(Xq, Hq, 31.0)):
            assert got.tobytes() == want.tobytes()
        assert model.theta == theta_a

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
            assert log_marginal(model) - bounds.log_prior() == pytest.approx(ref, abs=1e-8)

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
        assert log_marginal(model) - bounds.log_prior() == pytest.approx(ref, abs=1e-8)

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
            fp = log_marginal(model.with_theta(GPHyperparams.from_array(plus)))
            fm = log_marginal(model.with_theta(GPHyperparams.from_array(minus)))
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
    def test_fewer_than_two_returns_init(self):
        init = GPHyperparams(lengthscale=2.5)
        X = np.array([[0.5]])
        model = GPModel(X, np.zeros((1, 0), dtype=int), np.array([1.0]), np.array([0.2]), init)
        out = fit(model, init)
        assert out == init

    def test_improves_objective(self):
        rng = np.random.default_rng(30)
        X = rng.uniform(size=(20, 1))
        t = np.arange(1.0, 21.0)
        y = np.sin(6 * X[:, 0]) + rng.normal(scale=0.05, size=20)
        H = np.zeros((20, 0), dtype=int)
        init = GPHyperparams()
        bounds = HyperparamBounds.default(1)
        m_init = GPModel(X, H, t, y, init, bounds)
        fitted = fit(m_init, init, restarts=2, seed=0)
        m_fit = GPModel(X, H, t, y, fitted, bounds)
        assert log_marginal(m_fit) >= log_marginal(m_init) - 1e-9

    def test_respects_bounds(self):
        rng = np.random.default_rng(31)
        X, H, t, y = random_dataset(rng, n=10)
        bounds = HyperparamBounds.default(2)
        model = GPModel(X, H, t, y, GPHyperparams(), bounds)
        fitted = fit(model, GPHyperparams(), restarts=3, seed=1)
        arr = fitted.as_array()
        assert np.all(arr >= bounds.lower - 1e-12)
        assert np.all(arr <= bounds.upper + 1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(32)
        X, H, t, y = random_dataset(rng, n=8)
        a = fit(GPModel(X, H, t, y, GPHyperparams()), GPHyperparams(), restarts=2, seed=7)
        b = fit(GPModel(X, H, t, y, GPHyperparams()), GPHyperparams(), restarts=2, seed=7)
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


    def test_rejected_candidate_not_factored_again(self, monkeypatch):
        # The first step clips every parameter to a bound, and the next two
        # halvings clip to the same corner: the line search must not factor
        # that candidate again, and must end where it did when it did.
        X, H, t, y = sincos_dataset(40, seed=40)
        d2, match, dt = gp._pairwise(X, H, t, X, H, t)
        init, bounds = GPHyperparams().as_array(), HyperparamBounds.default(1)
        expected, f_expected = ascend_factoring_every_candidate(init, bounds, d2, match, dt, y,
                                                                max_iter=20)
        thetas = []
        real = gp._factor

        def logged(theta, *args):
            thetas.append(theta.copy())
            return real(theta, *args)

        monkeypatch.setattr(gp, "_factor", logged)
        theta, f = gp._ascend(init, bounds, d2, match, dt, y, max_iter=20)
        assert not any(np.array_equal(a, b) for a, b in zip(thetas, thetas[1:]))
        assert len(thetas) == 56
        assert theta.tobytes() == expected.tobytes()
        assert f == f_expected


def ascend_factoring_every_candidate(theta0, bounds, d2, match, dt, y, max_iter):
    """The projected ascent of gp._ascend, factoring every candidate it tries."""
    theta = bounds.clip(theta0.copy())
    f, L, alpha = gp._factor(theta, d2, match, dt, y)
    step = 1.0
    for _ in range(max_iter):
        g = gp._grad(theta, d2, match, dt, L, alpha)
        if gp._projected_grad_norm(theta, g, bounds) < 1e-5:
            break
        step = min(step * 2.0, 1e6)
        improved = False
        while step > 1e-12:
            cand = bounds.clip(theta + step * g)
            move = cand - theta
            if np.max(np.abs(move)) < 1e-15:
                break
            try:
                fc, Lc, alphac = gp._factor(cand, d2, match, dt, y)
            except np.linalg.LinAlgError:
                fc = -math.inf
            if fc > f + 1e-4 * float(g @ move):
                theta, f, L, alpha = cand, fc, Lc, alphac
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return theta, f


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
        fit(model, GPHyperparams(), restarts=1, seed=0, max_iter=5)
        assert seen and all(counts == [1] * len(before) for counts in seen)
        assert _blas.get_threads() == before

    def test_counts_restored_when_fit_raises(self, monkeypatch, restore_blas_threads):
        _blas.set_threads(2)
        before = _blas.get_threads()

        def boom(*_args, **_kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(gp, "_ascend", boom)
        with pytest.raises(RuntimeError):
            fit(GPModel(*sincos_dataset(20, seed=43), GPHyperparams()), GPHyperparams(),
                restarts=0)
        assert _blas.get_threads() == before

    def test_same_theta_with_one_or_two_caller_threads(self, restore_blas_threads):
        # At this size OpenBLAS splits a Cholesky across the threads it has,
        # which changes its rounding; the fit must not depend on the caller's count.
        model = GPModel(*sincos_dataset(160, seed=44), GPHyperparams())
        fits = []
        for threads in (1, 2):
            _blas.set_threads(threads)
            theta = fit(model, GPHyperparams(), restarts=0, seed=0, max_iter=15)
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


class TestWindowed:
    def test_short_data_unchanged(self):
        X = np.zeros((5, 1))
        H = np.zeros((5, 0), dtype=int)
        t = np.arange(5.0)
        y = np.arange(5.0)
        out = windowed(X, H, t, y)
        assert out[3] is y

    def test_truncates_to_most_recent(self):
        n = gp.SLIDING_WINDOW + 10
        y = np.arange(float(n))
        X = np.zeros((n, 1))
        H = np.zeros((n, 0), dtype=int)
        t = np.arange(float(n))
        Xw, Hw, tw, yw = windowed(X, H, t, y)
        assert len(yw) == gp.SLIDING_WINDOW
        assert yw[0] == 10.0 and yw[-1] == n - 1
