"""Time-varying Gaussian process over mixed continuous/categorical inputs.

The kernel is a lambda-weighted sum/product combination of a squared-exponential
factor on continuous values and an overlap factor on categorical labels, each
multiplied by a time-decay factor (1 - eps)^(|t-t'|/2). Hyperparameters are fit
by MAP (uniform prior over a bound box, so effectively bounded MLE) using
projected gradient ascent with analytic gradients.

The likelihood and its gradient share one factorization (GPML section 5.4.1):
`_factor` returns the LML together with a `_Factor` (the LAPACK `dpotrf`
Cholesky factor L and the kernel parts K was built from) and alpha = K^-1 y.
`_grad` takes K^-1 from `dpotri` on L, forms W = alpha alpha^T - K^-1 once,
and gets each gradient entry as one contraction of W against the kept parts
and the pairwise d2 and dt (GPML eq. 5.9); no dK/dtheta matrix is built. The
ascent keeps the accepted point's factor and alpha, so it factors K once per
LML evaluation and never again for the gradient. `_chol_with_jitter` is the
module's one Cholesky, for the fit and the posterior alike. The fit runs on
one OpenBLAS thread (see `_blas`): its matrices are at most SLIDING_WINDOW
wide and factored one after another, where a thread pool only adds hand-off
cost. The posterior's Cholesky runs on one thread too, because OpenBLAS
rounds a factorization of 128 or more rows differently on different thread
counts; so no result depends on the thread count. The posterior's products
over many candidates keep their threads.
`GPModel.jitter` reports the diagonal jitter its factor needed (0.0 when none).

Batch acquisition queries a `_BatchPosterior` (GP-BUCB): each hallucinated
input appends one row to the model's Cholesky factor, an O(n^2) solve, rather
than rebuilding and re-factoring the model, and one cross-kernel per query set
serves both the frozen mean and the hallucinated variance.

Continuous inputs are expected pre-scaled to the unit hypercube. Models with no
categorical columns use only the continuous-time factor (sigma2, eps2, lambda
are inert); this is the surrogate used when categories are chosen at random or
fixed by filtering.
"""
from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack, solve_triangular

from . import _blas

logger = logging.getLogger(__name__)

PARAM_NAMES = ("eps1", "eps2", "lengthscale", "sigma1", "sigma2", "lam", "noise")

SLIDING_WINDOW = 200  # most recent observations kept for fitting/posterior

_JITTER_START = 1e-10
_JITTER_MAX = 1e-4


@dataclass(frozen=True)
class GPHyperparams:
    eps1: float = 0.1
    eps2: float = 0.1
    lengthscale: float = 1.0
    sigma1: float = 1.0
    sigma2: float = 1.0
    lam: float = 0.5
    noise: float = 0.01

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "GPHyperparams":
        return cls(**{n: float(v) for n, v in zip(PARAM_NAMES, arr)})


@dataclass(frozen=True)
class HyperparamBounds:
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def default(cls, n_cont_dims: int = 1) -> "HyperparamBounds":
        diam = math.sqrt(max(n_cont_dims, 1))  # unit-hypercube diameter
        lower = np.array([0.0, 0.0, 1e-3, 1e-3, 1e-3, 0.0, 1e-6])
        upper = np.array([0.5, 0.5, 10.0 * diam, 10.0, 10.0, 1.0, 1.0])
        return cls(lower, upper)

    def clip(self, theta: np.ndarray) -> np.ndarray:
        return np.clip(theta, self.lower, self.upper)

    def log_prior(self) -> float:
        # Uniform over the box: constant density 1/volume.
        return -float(np.sum(np.log(self.upper - self.lower)))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        # Log-uniform draws for the scale-like parameters give better restart
        # coverage than uniform; uniform for eps and lambda.
        theta = np.empty(7)
        for i in (0, 1, 5):
            theta[i] = rng.uniform(self.lower[i], self.upper[i])
        for i in (2, 3, 4, 6):
            theta[i] = math.exp(rng.uniform(math.log(self.lower[i]), math.log(self.upper[i])))
        return theta


# ---------------------------------------------------------------------------
# Scalar kernel pieces
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Gram matrix machinery (vectorized over precomputed pairwise structure)
# ---------------------------------------------------------------------------

def _pairwise(X1, H1, t1, X2, H2, t2):
    """(squared distances, categorical match fraction or None, |dt|)."""
    d2 = np.sum((X1[:, None, :] - X2[None, :, :]) ** 2, axis=-1) if X1.shape[1] else np.zeros(
        (len(X1), len(X2))
    )
    m = H1.shape[1]
    match = np.mean(H1[:, None, :] == H2[None, :, :], axis=-1) if m else None
    dt = np.abs(t1[:, None] - t2[None, :])
    return d2, match, dt


def _time_factor(eps: float, dt) -> np.ndarray:
    # (1 - eps)^(dt/2) via exp/log1p; cheaper than array power and exact at eps=0.
    if eps == 0.0:
        return np.ones_like(dt)
    return np.exp(math.log1p(-eps) * (0.5 * dt))


def _kernel_parts(theta: np.ndarray, d2, match, dt):
    eps1, eps2, lengthscale, sigma1, sigma2, lam, _ = theta
    kxt = sigma1 * np.exp(math.log1p(-eps1) * (0.5 * dt) - d2 / lengthscale)
    if match is None:
        return kxt, None
    kht = sigma2 * match * _time_factor(eps2, dt)
    return kxt, kht


def _combine(lam: float, kxt, kht):
    if kht is None:
        return kxt
    return (1.0 - lam) * (kxt + kht) + lam * kxt * kht


def _kernel_matrix(theta: np.ndarray, d2, match, dt):
    return _combine(theta[5], *_kernel_parts(theta, d2, match, dt))


def _prior_variance(theta: np.ndarray, mixed: bool) -> float:
    _, _, _, sigma1, sigma2, lam, _ = theta
    if not mixed:
        return sigma1
    return (1.0 - lam) * (sigma1 + sigma2) + lam * sigma1 * sigma2


def _chol_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """(lower Cholesky factor, jitter added to the diagonal; 0.0 when none).

    Reads only the lower triangle of A and leaves A unchanged; the factor's
    upper triangle is zero.
    """
    L, info = lapack.dpotrf(A, lower=1, clean=1)
    if info == 0:
        return L, 0.0
    jitter = _JITTER_START
    while jitter <= _JITTER_MAX:
        shifted = A.copy()
        shifted.flat[:: len(A) + 1] += jitter
        L, info = lapack.dpotrf(shifted, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        jitter *= 10.0
    raise np.linalg.LinAlgError("Cholesky failed even with maximum jitter")


class GPModel:
    """Immutable GP over pre-scaled inputs with cached Cholesky factor.

    X: (n, d) continuous inputs in the unit hypercube.
    H: (n, m) integer category codes (m may be 0 for continuous-only models).
    t: (n,) round indices. y: (n,) targets (normalized rewards).
    """

    def __init__(self, X, H, t, y, theta: GPHyperparams, bounds: HyperparamBounds | None = None):
        self.y = np.asarray(y, dtype=float).reshape(-1)
        n = len(self.y)
        X = np.asarray(X, dtype=float)
        self.X = X if X.ndim == 2 else X.reshape(n, -1)
        H = np.asarray(H, dtype=int)
        self.H = H if H.ndim == 2 else (H.reshape(n, -1) if H.size else np.zeros((n, 0), dtype=int))
        self.t = np.asarray(t, dtype=float).reshape(-1)
        self.theta = theta
        self.bounds = bounds if bounds is not None else HyperparamBounds.default(self.X.shape[1])
        self._d2, self._match, self._dt = _pairwise(self.X, self.H, self.t, self.X, self.H, self.t)
        self._chol = None
        self._alpha = None
        self._jitter = 0.0

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def mixed(self) -> bool:
        return self.H.shape[1] > 0

    def _ensure_factorization(self):
        if self._chol is None:
            theta = self.theta.as_array()
            K = _kernel_matrix(theta, self._d2, self._match, self._dt)
            K.flat[:: self.n + 1] += theta[6]
            # One thread, as in `fit`: OpenBLAS rounds a Cholesky of 128 or
            # more rows differently on different thread counts, and seed
            # workers run on one.
            with _blas.single_thread():
                self._chol, self._jitter = _chol_with_jitter(K)
                # dpotrs refuses a 0-row right-hand side; batch acquisition
                # factors an empty model too.
                self._alpha = lapack.dpotrs(self._chol, self.y, lower=1)[0] if self.n else self.y

    @property
    def chol(self) -> np.ndarray:
        self._ensure_factorization()
        return self._chol

    @property
    def alpha_vec(self) -> np.ndarray:
        self._ensure_factorization()
        return self._alpha

    @property
    def jitter(self) -> float:
        """Diagonal jitter the Cholesky factor needed (0.0 when none)."""
        self._ensure_factorization()
        return self._jitter

    def posterior(self, Xq, Hq, tq):
        """Predictive mean and variance at query points (vectorized).

        Hq may be None for continuous-only models. Variance is clamped to >= 0.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        nq = len(Xq)
        if Hq is None:
            Hq = np.zeros((nq, 0), dtype=int)
        else:
            Hq = np.asarray(Hq, dtype=int).reshape(nq, -1)
        tq_arr = np.full(nq, float(tq)) if np.isscalar(tq) else np.asarray(tq, dtype=float)
        theta = self.theta.as_array()
        prior = _prior_variance(theta, self.mixed)
        if self.n == 0:
            return np.zeros(nq), np.full(nq, prior)
        d2, match, dt = _pairwise(self.X, self.H, self.t, Xq, Hq, tq_arr)
        kq = _kernel_matrix(theta, d2, match, dt)  # (n, nq)
        self._ensure_factorization()
        mu = kq.T @ self._alpha
        v = solve_triangular(self._chol, kq, lower=True, check_finite=False)
        var = prior - np.sum(v * v, axis=0)
        return mu, np.maximum(var, 0.0)

    def with_observation(self, x, h, t, y) -> "GPModel":
        """New model with one appended observation (used for hallucination)."""
        X = np.vstack([self.X, np.atleast_2d(np.asarray(x, dtype=float))])
        if self.mixed:
            H = np.vstack([self.H, np.asarray(h, dtype=int).reshape(1, -1)])
        else:
            H = np.zeros((self.n + 1, 0), dtype=int)
        return GPModel(
            X,
            H,
            np.append(self.t, float(t)),
            np.append(self.y, float(y)),
            self.theta,
            self.bounds,
        )

    def with_theta(self, theta: GPHyperparams) -> "GPModel":
        """Same data under other hyperparameters; shares the pairwise structure."""
        model = copy.copy(self)
        model.theta = theta
        model._chol = model._alpha = None
        model._jitter = 0.0
        return model


class _BatchPosterior:
    """Frozen mean and hallucinated variance of one batch (GP-BUCB).

    The variance does not depend on targets, so a hallucinated input only
    appends one row to the model's Cholesky factor: c = L^-1 k and
    d = sqrt(k** + noise - |c|^2), one O(n^2) solve (Desautels, Krause &
    Burdick, JMLR 2014). A query builds one cross-kernel against the data and
    the hallucinations and makes one triangular solve: the mean is k^T alpha
    over the data rows, the variance prior - |L^-1 k|^2. When the model's
    factor needed jitter, or a new pivot d^2 is not positive, the rest of the
    batch re-factors a `with_observation` chain instead, as a full model would.
    """

    def __init__(self, model: GPModel):
        self.model = model
        self._theta = model.theta.as_array()
        self._prior = _prior_variance(self._theta, model.mixed)
        self._X, self._H, self._t = model.X, model.H, model.t
        self._L = model.chol
        self._fallback = model if model.jitter > 0.0 else None

    def append(self, x, h, t) -> None:
        """Hallucinate an observation at (x, h, t)."""
        if self._fallback is not None:
            self._fallback = self._fallback.with_observation(x, h, t, 0.0)
            return
        m = self._H.shape[1]  # a continuous-only model ignores h, as with_observation does
        hrow = np.asarray(h, dtype=int).reshape(1, m) if m else np.zeros((1, 0), dtype=int)
        self._X = np.vstack([self._X, np.reshape(x, (1, -1))])
        self._H = np.vstack([self._H, hrow])
        self._t = np.append(self._t, float(t))
        k = _kernel_matrix(self._theta, *_pairwise(self._X, self._H, self._t,
                                                   self._X[-1:], self._H[-1:], self._t[-1:]))[:, 0]
        c = solve_triangular(self._L, k[:-1], lower=True, check_finite=False)
        pivot = k[-1] + self._theta[6] - c @ c
        if not pivot > 0.0:
            y = np.append(self.model.y, np.zeros(len(self._t) - self.model.n))
            self._fallback = GPModel(self._X, self._H, self._t, y, self.model.theta,
                                     self.model.bounds)
            return
        L = np.zeros((len(k), len(k)))
        L[:-1, :-1] = self._L
        L[-1, :-1] = c
        L[-1, -1] = math.sqrt(pivot)
        self._L = L

    def query(self, Xq, Hq, tq: float):
        """(frozen mean, hallucinated variance) at the rows of Xq, all at round tq."""
        nq = len(Xq)
        Hq = np.zeros((nq, 0), dtype=int) if Hq is None else Hq
        n = self.model.n
        rows = slice(None) if self._fallback is None else slice(n)
        d2, match, dt = _pairwise(self._X[rows], self._H[rows], self._t[rows],
                                  Xq, Hq, np.full(nq, float(tq)))
        k = _kernel_matrix(self._theta, d2, match, dt)
        mu = k[:n].T @ self.model.alpha_vec
        if self._fallback is not None:
            return mu, self._fallback.posterior(Xq, Hq, tq)[1]
        v = solve_triangular(self._L, k, lower=True, check_finite=False)
        return mu, np.maximum(self._prior - np.sum(v * v, axis=0), 0.0)


# ---------------------------------------------------------------------------
# Log marginal likelihood, analytic gradient, MAP fitting
# ---------------------------------------------------------------------------

class _Factor(NamedTuple):
    """Cholesky factor of K + noise*I and the kernel parts K was built from."""

    L: np.ndarray
    kxt: np.ndarray
    kht: np.ndarray | None


def _factor(theta: np.ndarray, d2, match, dt, y: np.ndarray):
    """(Gaussian log-density of y, _Factor, alpha) from one Cholesky of K + noise*I."""
    n = len(y)
    kxt, kht = _kernel_parts(theta, d2, match, dt)
    # The parts are kept for the gradient; a continuous-only K is kxt itself,
    # so the noise goes on a copy.
    K = kxt.copy() if kht is None else _combine(theta[5], kxt, kht)
    K.flat[:: n + 1] += theta[6]
    L, _ = _chol_with_jitter(K)
    alpha = lapack.dpotrs(L, y, lower=1)[0]
    lml = float(
        -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2 * math.pi)
    )
    return lml, _Factor(L, kxt, kht), alpha


def log_marginal(model: GPModel) -> float:
    """MAP objective: Gaussian log-density of y plus the (constant) log prior."""
    if model.n == 0:
        raise ValueError("log marginal requires a nonempty dataset")
    lml, _, _ = _factor(model.theta.as_array(), model._d2, model._match, model._dt, model.y)
    return lml + model.bounds.log_prior()


def _grad(theta: np.ndarray, d2, match, dt, factor: _Factor, alpha: np.ndarray) -> np.ndarray:
    """Gradient at theta from the _Factor and alpha = K^-1 y that _factor returned.

    Each entry is 1/2 <W, dK/dtheta_i> with W = alpha alpha^T - K^-1 (GPML
    eq. 5.9), and each dK/dtheta_i is a kept part times d2, dt or a constant.
    On a continuous-only model the eps2, sigma2 and lam entries stay 0.0.
    """
    eps1, eps2, lengthscale, sigma1, sigma2, lam, _ = theta
    L, kxt, kht = factor
    lower, info = lapack.dpotri(L, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("dpotri failed on a Cholesky factor")
    # dpotri fills the lower triangle of K^-1 and leaves the upper one zero.
    Kinv = lower.T + lower
    Kinv.flat[:: len(alpha) + 1] *= 0.5
    W = np.outer(alpha, alpha)
    W -= Kinv
    grad = np.zeros(7)
    # kxt has derivatives -dt/2 kxt/(1 - eps1), d2 kxt/l^2 and kxt/sigma1, and kht
    # likewise in eps2 and sigma2. In a mixed K each part carries the weight
    # (1 - lam) + lam * (the other part).
    if kht is None:
        Wx = W * kxt
    else:
        Wx = W * ((1.0 - lam) + lam * kht)
        Wx *= kxt
        Wh = W * ((1.0 - lam) + lam * kxt)
        Wh *= kht
        grad[1] = -0.25 * np.vdot(Wh, dt) / (1.0 - eps2)
        grad[4] = 0.5 * np.sum(Wh) / sigma2
        grad[5] = 0.5 * np.vdot(W, kxt * kht - kxt - kht)
    grad[0] = -0.25 * np.vdot(Wx, dt) / (1.0 - eps1)
    grad[2] = 0.5 * np.vdot(Wx, d2) / lengthscale**2
    grad[3] = 0.5 * np.sum(Wx) / sigma1
    grad[6] = 0.5 * np.trace(W)  # dK/d(noise) = I
    return grad


def grad_log_marginal(model: GPModel) -> np.ndarray:
    """Analytic gradient of log_marginal w.r.t. (eps1, eps2, l, s1, s2, lam, noise).

    The uniform prior contributes zero gradient inside the bound box.
    """
    if model.n == 0:
        raise ValueError("gradient requires a nonempty dataset")
    theta = model.theta.as_array()
    _, factor, alpha = _factor(theta, model._d2, model._match, model._dt, model.y)
    return _grad(theta, model._d2, model._match, model._dt, factor, alpha)


def _projected_grad_norm(theta, grad, bounds):
    g = grad.copy()
    at_lower = theta <= bounds.lower + 1e-12
    at_upper = theta >= bounds.upper - 1e-12
    g[at_lower & (g < 0)] = 0.0
    g[at_upper & (g > 0)] = 0.0
    return float(np.max(np.abs(g)))


def _ascend(theta0, bounds, d2, match, dt, y, max_iter=100, tol=1e-5):
    """Projected gradient ascent with backtracking line search.

    Each accepted point keeps its factorization, so the gradient there costs
    no further Cholesky: one factorization per LML evaluation. A candidate
    that clipping makes equal to the one just rejected is not evaluated again.
    """
    theta = bounds.clip(theta0.copy())
    try:
        f, factor, alpha = _factor(theta, d2, match, dt, y)
    except np.linalg.LinAlgError:
        return None, -math.inf
    step = 1.0  # carried across iterations so the line search rarely backtracks
    for _ in range(max_iter):
        g = _grad(theta, d2, match, dt, factor, alpha)
        if _projected_grad_norm(theta, g, bounds) < tol:
            break
        step = min(step * 2.0, 1e6)
        improved = False
        rejected = None
        while step > 1e-12:
            cand = bounds.clip(theta + step * g)
            move = cand - theta
            if np.max(np.abs(move)) < 1e-15:
                break
            if np.array_equal(cand, rejected):
                # Clipping undid the halving; the same candidate fails the same way.
                step *= 0.5
                continue
            try:
                fc, factorc, alphac = _factor(cand, d2, match, dt, y)
            except np.linalg.LinAlgError:
                fc = -math.inf
            if fc > f + 1e-4 * float(g @ move):
                theta, f, factor, alpha = cand, fc, factorc, alphac
                improved = True
                break
            rejected = cand
            step *= 0.5
        if not improved:
            break
    return theta, f


def fit(
    data_or_model: GPModel,
    init: GPHyperparams,
    restarts: int = 3,
    seed: int = 0,
    max_iter: int = 100,
) -> GPHyperparams:
    """MAP hyperparameter fit on a model's data: local ascent from init plus random restarts.

    The model supplies the data, the bounds and the pairwise structure; its own
    theta is not read. The parameter is named data_or_model because
    perfbench/tracing.py binds it by that name. With fewer than two
    observations the init is returned unchanged. Returns the best theta found;
    if every ascent fails numerically, returns init and logs a warning.
    """
    model = data_or_model
    if model.n < 2:
        return init

    rng = np.random.default_rng(seed)
    bounds = model.bounds
    starts = [init.as_array()] + [bounds.sample(rng) for _ in range(restarts)]
    best_theta, best_f = None, -math.inf
    with _blas.single_thread():
        for start in starts:
            theta, f = _ascend(start, bounds, model._d2, model._match, model._dt, model.y,
                               max_iter=max_iter)
            if theta is not None and f > best_f:
                best_theta, best_f = theta, f
    if best_theta is None:
        logger.warning("all hyperparameter fits failed numerically; keeping init")
        return init
    return GPHyperparams.from_array(best_theta)


def windowed(X, H, t, y, window: int = SLIDING_WINDOW):
    """Keep only the most recent `window` observations (by insertion order)."""
    n = len(y)
    if n <= window:
        return X, H, t, y
    return X[-window:], H[-window:], t[-window:], y[-window:]
