"""Time-varying Gaussian process over mixed continuous/categorical inputs.

The kernel is a lambda-weighted sum/product combination of a squared-exponential
factor on continuous values and an overlap factor on categorical labels, each
multiplied by a time-decay factor (1 - eps)^(|t-t'|/2). Hyperparameters are fit
by maximum likelihood within a bound box, with L-BFGS in sigmoid coordinates,
theta = lo + (hi - lo) sigma(z), on analytic gradients; `fit` runs one ascent
warm-started from the model's theta and one from a random start, and keeps
the better. An ascent stops at a stationary point: when the gradient's
inf-norm in z falls below 1e-5, or when an iteration gains less than about
2e-9 of the LML (scipy's default factr), else after 100 iterations. Bounds are kept active as in L-BFGS-B: a parameter within 1e-6
of its range from a bound whose gradient points out of the box is held on that
bound, z = +-37, and left out of the step, the curvature pairs and the gradient
test until its gradient points inward; every line-search candidate's z is
clamped to [-37, 37].

The likelihood and its gradient share one factorization (GPML section 5.4.1):
`_factor` returns the LML together with a `_Factor` (the LAPACK `dpotrf`
Cholesky factor L, the jitter it needed and the kernel parts K was built from)
and alpha = K^-1 y. A `GPModel` keeps that result as its one factorization,
which its posterior, `log_marginal` and `grad_log_marginal` all read.
`_grad` takes K^-1 from `dpotri` on L, forms W = alpha alpha^T - K^-1 once,
and gets each gradient entry as one contraction of W against the kept parts
and the pairwise d2 and dt (GPML eq. 5.9); no dK/dtheta matrix is built. The
ascent's line search evaluates only the LML at a candidate and takes the
gradient only at the point it accepts, from that point's factor and alpha, so
it factors K once per LML evaluation and never again for the gradient.
`_chol_with_jitter` is the module's one Cholesky, called only by `_factor`,
for the fit and the posterior alike. The fit runs on one OpenBLAS thread (see
`_blas`): its matrices are at most SLIDING_WINDOW wide and factored one after
another, where a thread pool only adds hand-off cost. A model's factorization
runs on one thread too, because OpenBLAS rounds a factorization of 128 or more
rows differently on different thread counts; so no result depends on the
thread count. The posterior's products over many candidates keep their threads.
`GPModel.jitter` reports the diagonal jitter its factor needed (0.0 when none).

The four LAPACK routines (`dpotrf`, `dpotrs`, `dpotri`, `dtrtrs`) come from
scipy's f2py extension `scipy.linalg._flapack`, which `_lapack` loads on the
first factorization, not when this module is imported: a process that fits no
GP never loads scipy. It loads the top-level scipy package and that one
extension, not the scipy.linalg package: on a 2-core Xeon, 24 modules, 4 MB
of resident memory and about 0.01 s, where `from scipy.linalg import lapack`
took 334 modules, 28 MB and about 0.2 s. The load maps scipy's own OpenBLAS,
so `_lapack` has `_blas` look for OpenBLAS copies again, and
`GPModel._factorization` and `fit` call it before they enter
`_blas.single_thread`, which pins and restores every copy.

Every kernel between two row sets is `_kernel_matrix` of `_pairwise` (d2 and
the category matches, summed one column at a time, and |dt|): `_kernel_parts`
builds kxt at d2's width and kht, and `_combine` mixes them, in place where
numpy's order of IEEE operations allows. A query at one round with one row of
codes gets its round and category terms one column wide, one number per row,
and only d2 and K at full width; the fit's n x n terms are full width, as
`_grad` reads them. Every posterior query is `_query` (k^T alpha and L^-1 k)
of such a kernel. Batch acquisition queries a `_BatchPosterior` (GP-BUCB):
each hallucinated input appends one row to the model's Cholesky factor, an
O(n^2) solve, rather than re-factoring the model; its column of K is one
more query at the batch's round. The batch's one candidate set U is solved
once per category assignment, V = L^-1 K(rows, U); when a pick reads an
assignment again, its V gains one row per hallucination since, an O(nN) step,
not a new query of U. Any other point set, such as a refinement grid, is one
`_query` (`points`).
When the model's factor needed jitter, or an appended pivot is not positive,
each append from then on re-factors all rows as one `GPModel`; that factor
replaces the bordered one and the kept V are dropped.

Continuous inputs are expected pre-scaled to the unit hypercube. Models with no
categorical columns use only the continuous-time factor (sigma2, eps2, lambda
are inert); this is the surrogate used when categories are chosen at random or
fixed by filtering.
"""
from __future__ import annotations

import collections
import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
# Gram matrix machinery (vectorized over precomputed pairwise structure)
# ---------------------------------------------------------------------------

def _pairwise(X1, H1, t1, X2, H2, t2):
    """(d2, categorical match fraction or None, |dt|) between two row sets.

    d2 is always n1 x n2, summed one column at a time (for d <= 7 in numpy's sum
    order) with no n1 x n2 x d temporary; match likewise. Given one row of codes
    (1, m) and one round for the second side (a query at one round), match and
    dt come back n1 x 1, one number per row of the first side, which the
    kernel's steps broadcast over the n2 columns with the same bits as
    full-width terms."""
    n1, n2, d, m = len(X1), len(X2), X1.shape[1], H1.shape[1]
    d2 = (X1[:, 0, None] - X2[None, :, 0]) ** 2 if d else np.zeros((n1, n2))
    for j in range(1, d):
        d2 += (X1[:, j, None] - X2[None, :, j]) ** 2
    match = None
    if m:
        match = np.zeros((n1, len(H2)))
        for j in range(m):
            match += H1[:, j, None] == H2[None, :, j]
        match /= m
    dt = np.subtract(t1[:, None], t2)
    return d2, match, np.abs(dt, out=dt)


def _time_factor(eps: float, dt) -> np.ndarray:
    # (1 - eps)^(dt/2) via exp/log1p; cheaper than array power and exact at eps=0.
    return np.exp(math.log1p(-eps) * (0.5 * dt))


def _kernel_parts(theta: np.ndarray, d2, match, dt):
    """(kxt, kht): kxt = sigma1 exp(log(1 - eps1) dt/2 - d2/l), built in one new
    array of d2's shape by the IEEE operations, in the order, that the
    expression takes; kht = sigma2 match (1 - eps2)^(dt/2) of match's shape,
    None without categories."""
    eps1, eps2, lengthscale, sigma1, sigma2, _, _ = theta
    kht = None if match is None else sigma2 * match * _time_factor(eps2, dt)
    kxt = np.divide(d2, lengthscale)
    np.subtract(math.log1p(-eps1) * (0.5 * dt), kxt, out=kxt)
    np.exp(kxt, out=kxt)
    kxt *= sigma1
    return kxt, kht


def _combine(lam: float, kxt, kht):
    """(1 - lam)(kxt + kht) + lam kxt kht, by the expression's IEEE operations, in
    one new array with kxt overwritten as scratch; kxt itself when kht is None."""
    if kht is None:
        return kxt
    K = np.add(kxt, kht)
    K *= 1.0 - lam
    kxt *= lam
    kxt *= kht
    K += kxt
    return K


def _kernel_matrix(theta: np.ndarray, d2, match, dt):
    return _combine(theta[5], *_kernel_parts(theta, d2, match, dt))


def _prior_variance(theta: np.ndarray, mixed: bool) -> float:
    return _combine(theta[5], theta[3], theta[4] if mixed else None)


@functools.cache
def _lapack():
    """scipy's f2py LAPACK extension, scipy.linalg._flapack, loaded on the first call.

    Only the extension loads, not the scipy.linalg package, whose `__init__`
    imports some 310 more modules; `scipy.linalg.lapack` re-exports the same
    routine objects. A module of that name already imported (once anything
    has imported scipy.linalg) is reused. The load maps scipy's own OpenBLAS,
    so `_blas` looks for OpenBLAS copies again. Call this before entering
    `_blas.single_thread`, whose restore needs the same copies on exit as on
    entry.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy  # the top-level package only, so that its distributor init runs

        directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [directory])
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}",
                              name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    _blas.discover()
    return module


def _chol_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """(lower Cholesky factor, jitter added to the diagonal; 0.0 when none).

    Reads only the lower triangle of A and leaves A unchanged; the factor's
    upper triangle is zero.
    """
    L, info = _lapack().dpotrf(A, lower=1, clean=1)
    if info == 0:
        return L, 0.0
    jitter = _JITTER_START
    while jitter <= _JITTER_MAX:
        shifted = A.copy()
        shifted.flat[:: len(A) + 1] += jitter
        L, info = _lapack().dpotrf(shifted, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        jitter *= 10.0
    raise np.linalg.LinAlgError("Cholesky failed even with maximum jitter")


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b by LAPACK dtrtrs, oriented as scipy's solve_triangular orients it
    (a C-ordered L is solved as its transpose), so the result has its bits."""
    if not len(b):
        return np.zeros_like(b)  # dtrtrs refuses 0 rows
    if L.flags.f_contiguous:
        x, info = _lapack().dtrtrs(L, b, lower=1)
    else:
        x, info = _lapack().dtrtrs(L.T, b, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return x


def _query(L, alpha, k):
    """(k^T alpha, L^-1 k) for a cross-kernel k from L's rows to the query points,
    where alpha weights the first len(alpha) of those rows (the observations)."""
    return k[:len(alpha)].T @ alpha, _solve_lower(L, k)


class GPModel:
    """Immutable GP over pre-scaled inputs with cached Cholesky factor.

    X: (n, d) continuous inputs in the unit hypercube.
    H: (n, m) integer category codes (m may be 0 for continuous-only models).
    t: (n,) round indices. y: (n,) targets (normalized rewards).
    """

    def __init__(self, X, H, t, y, theta: GPHyperparams, bounds: HyperparamBounds | None = None):
        self.X = np.asarray(X, dtype=float)
        self.H = np.asarray(H, dtype=int)
        self.t = np.asarray(t, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.theta = theta
        self.bounds = bounds if bounds is not None else HyperparamBounds.default(self.X.shape[1])
        self._d2, self._match, self._dt = _pairwise(self.X, self.H, self.t, self.X, self.H, self.t)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def mixed(self) -> bool:
        return self.H.shape[1] > 0

    @functools.cached_property
    def _factorization(self) -> tuple[float, _Factor, np.ndarray]:
        """`_factor`'s (LML, _Factor, alpha) of K + noise*I, factored on first use."""
        # One thread, as in `fit`: OpenBLAS rounds a Cholesky of 128 or
        # more rows differently on different thread counts, and seed
        # workers run on one. LAPACK loads first (see `_lapack`).
        _lapack()
        with _blas.single_thread():
            return _factor(self.theta.as_array(), self._d2, self._match, self._dt, self.y)

    @property
    def chol(self) -> np.ndarray:
        return self._factorization[1].L

    @property
    def alpha_vec(self) -> np.ndarray:
        return self._factorization[2]

    @property
    def jitter(self) -> float:
        """Diagonal jitter the Cholesky factor needed (0.0 when none)."""
        return self._factorization[1].jitter

    def posterior(self, Xq, Hq, tq):
        """Predictive mean and variance at query points (vectorized).

        Hq holds one code per categorical column for each query point; a
        continuous-only model ignores it. Variance is clamped to >= 0.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        nq, m = len(Xq), self.H.shape[1]
        if m and (Hq is None or np.size(Hq) != nq * m):
            raise ValueError(f"the model has {m} categorical column(s), so Hq needs {m} code(s) "
                             f"per query point; got {Hq if Hq is None else np.shape(Hq)}")
        Hq = np.asarray(Hq, dtype=int).reshape(nq, m) if m else self.H  # 0 columns: not read
        theta = self.theta.as_array()
        k = _kernel_matrix(theta, *_pairwise(self.X, self.H, self.t, Xq, Hq, tq))
        mu, v = _query(self.chol, self.alpha_vec, k)
        return mu, np.maximum(_prior_variance(theta, self.mixed) - np.sum(v * v, axis=0), 0.0)

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


class _CandidateSet(NamedTuple):
    """One category assignment's view of the batch's candidates U: frozen mean
    mu, V = L^-1 K(rows, U) over the first len(V) rows of the factor, and the
    column sums of V*V."""

    mu: np.ndarray
    V: np.ndarray
    ss: np.ndarray


class _BatchPosterior:
    """Frozen mean and hallucinated variance of one batch (GP-BUCB).

    The variance does not depend on targets, so a hallucinated input only
    appends one row to the model's Cholesky factor: c = L^-1 k and
    d = sqrt(k** + noise - |c|^2), one O(n^2) solve (Desautels, Krause &
    Burdick, JMLR 2014).

    The batch's candidate set U, queried at round tq, is solved once per
    category assignment, when `candidates` first asks for it: one `_query`
    against the data and the hallucinations gives the mean, k^T alpha over the
    data rows, and V = L^-1 K(rows, U). When `candidates` asks for that
    assignment again, V gains one row per hallucination appended since,
    v = (k(x, U) - c^T V) / d with that hallucination's row of L, an O(nN) step
    where a new query of the N candidates would cost O(n^2 N). An assignment
    that no later pick asks for is never extended. `points` queries any other
    point set, such as a refinement grid, with one `_query`: one cross-kernel
    and one triangular solve over its columns, nothing kept.

    Every kernel here, the appended column k included, is one `_k`: K from the
    factor's rows to points at round tq with one row of codes h, whose round
    and category terms are one number per row.

    When the model's factor needed jitter, or a new pivot d^2 is not positive,
    `append` re-factors all rows as one `GPModel` with zero targets (L does not
    depend on them), and from then on every append does so: that factor
    replaces L and the kept sets, solved against the old one, are dropped.
    Queries read L either way.
    """

    def __init__(self, model: GPModel, U: np.ndarray, tq: float):
        """U holds the batch's candidates. Every query and every hallucination sits at round tq."""
        self.model = model
        self._theta = model.theta.as_array()
        self._prior = _prior_variance(self._theta, model.mixed)
        self._X, self._H, self._t = model.X, model.H, model.t
        self._L = model.chol
        # Once set, every append re-factors all rows instead of bordering L.
        self._refactor = model.jitter > 0.0
        self._U, self._tq = U, float(tq)
        self._sets: dict = {}  # category codes -> _CandidateSet

    def _codes(self, h) -> np.ndarray:
        """h as one row (1 x m) of the model's category codes (empty when it has none)."""
        m = self._H.shape[1]  # a continuous-only model ignores h, as with_observation does
        return np.asarray(h, dtype=int).reshape(1, m) if m else np.zeros((1, 0), dtype=int)

    def _k(self, Xq, hrow, start: int = 0) -> np.ndarray:
        """K(rows from start on, Xq with codes hrow at round tq)."""
        return _kernel_matrix(self._theta, *_pairwise(self._X[start:], self._H[start:],
                                                      self._t[start:], Xq, hrow, self._tq))

    def append(self, x, h) -> None:
        """Hallucinate an observation at (x, h), at the batch's round tq."""
        hrow = self._codes(h)
        x = np.reshape(x, (1, -1))
        self._X = np.vstack([self._X, x])
        self._H = np.vstack([self._H, hrow])
        self._t = np.append(self._t, self._tq)
        if not self._refactor:
            k = self._k(x, hrow)[:, 0]
            c = _solve_lower(self._L, k[:-1])
            pivot = k[-1] + self._theta[6] - c @ c
            if pivot > 0.0:
                L = np.zeros((len(k), len(k)))
                L[:-1, :-1] = self._L
                L[-1, :-1] = c
                L[-1, -1] = math.sqrt(pivot)
                self._L = L
                return
            self._refactor = True
        # L does not depend on the targets, so zeros stand in for them.
        self._L = GPModel(self._X, self._H, self._t, np.zeros(len(self._t)), self.model.theta,
                          self.model.bounds).chol
        self._sets.clear()  # their V were solved against the replaced factor

    def candidates(self, h):
        """(frozen mean, hallucinated variance) at the candidates U with category codes h."""
        hrow = self._codes(h)
        key = hrow.tobytes()
        cs = self._sets.get(key)
        if cs is None:
            mu, V = _query(self._L, self.model.alpha_vec, self._k(self._U, hrow))
            cs = _CandidateSet(mu, V, np.sum(V * V, axis=0))
        done = len(cs.V)
        if done < len(self._L):  # hallucinations V has not seen
            for r, k in enumerate(self._k(self._U, hrow, done), start=done):
                v = (k - self._L[r, :r] @ cs.V) / self._L[r, r]
                cs = cs._replace(V=np.vstack([cs.V, v]), ss=cs.ss + v * v)
        self._sets[key] = cs
        return cs.mu, np.maximum(self._prior - cs.ss, 0.0)

    def points(self, Xq, h):
        """(frozen mean, hallucinated variance) at the points Xq with codes h, at round tq:
        one cross-kernel and one triangular solve over Xq's columns."""
        mu, v = _query(self._L, self.model.alpha_vec, self._k(Xq, self._codes(h)))
        return mu, np.maximum(self._prior - np.sum(v * v, axis=0), 0.0)


# ---------------------------------------------------------------------------
# Log marginal likelihood, analytic gradient, fitting
# ---------------------------------------------------------------------------

class _Factor(NamedTuple):
    """Cholesky factor of K + noise*I, the diagonal jitter it needed (0.0 when
    none) and the kernel parts K was built from."""

    L: np.ndarray
    jitter: float
    kxt: np.ndarray
    kht: np.ndarray | None


def _factor(theta: np.ndarray, d2, match, dt, y: np.ndarray):
    """(Gaussian log-density of y, _Factor, alpha) from one Cholesky of K + noise*I.

    With no rows the factor is 0 x 0, alpha is y and the log-density 0.0."""
    n = len(y)
    kxt, kht = _kernel_parts(theta, d2, match, dt)
    # The parts are kept for the gradient, so K is combined from a copy of kxt.
    K = _combine(theta[5], kxt.copy(), kht)
    K.flat[:: n + 1] += theta[6]
    L, jitter = _chol_with_jitter(K)
    # dpotrs refuses a 0-row right-hand side; batch acquisition factors an empty model too.
    alpha = _lapack().dpotrs(L, y, lower=1)[0] if n else y
    lml = float(
        -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2 * math.pi)
    )
    return lml, _Factor(L, jitter, kxt, kht), alpha


def log_marginal(model: GPModel) -> float:
    """Log marginal likelihood of y under the model's theta (GPML eq. 5.8), the
    objective `fit` maximizes."""
    if model.n == 0:
        raise ValueError("log marginal requires a nonempty dataset")
    return model._factorization[0]


def _grad(theta: np.ndarray, d2, match, dt, factor: _Factor, alpha: np.ndarray) -> np.ndarray:
    """Gradient at theta from the _Factor and alpha = K^-1 y that _factor returned.

    Each entry is 1/2 <W, dK/dtheta_i> with W = alpha alpha^T - K^-1 (GPML
    eq. 5.9), and each dK/dtheta_i is a kept part times d2, dt or a constant.
    On a continuous-only model the eps2, sigma2 and lam entries stay 0.0.
    """
    eps1, eps2, lengthscale, sigma1, sigma2, lam, _ = theta
    L, _, kxt, kht = factor
    lower, info = _lapack().dpotri(L, lower=1)
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
    """Analytic gradient of log_marginal w.r.t. (eps1, eps2, l, s1, s2, lam, noise)."""
    if model.n == 0:
        raise ValueError("gradient requires a nonempty dataset")
    _, factor, alpha = model._factorization
    return _grad(model.theta.as_array(), model._d2, model._match, model._dt, factor, alpha)


class _AscentReport(NamedTuple):
    """What one ascent did: the LML it ended at, its iterations (one gradient
    each), its LML evaluations (one Cholesky each, the start's included), and
    whether it stopped at a stationary point rather than at max_iter or on a
    failed line search."""

    lml: float
    iterations: int
    evaluations: int
    converged: bool


# L-BFGS settings: stop when the gradient's inf-norm in z falls below _GTOL or an
# iteration gains less than _FTOL of the LML (scipy's default factr of 1e7, in
# units of machine epsilon); keep _MEMORY correction pairs.
_GTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_MEMORY = 7
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
# A start on or near a bound is moved this fraction of its range inside the box,
# so that its z is finite. _EDGE_Z is logit(1 - _EDGE) as `_ascend` computes it
# for a start on the upper bound; a start on the lower bound lies 3e-11 further out.
_EDGE = 1e-6
_EDGE_Z = float(np.log(1.0 - _EDGE) - np.log1p(_EDGE - 1.0))
# The bound in z: sigma(-_Z) = (1 + tanh(-_Z/2))/2 is half the machine epsilon,
# the smallest positive value it takes, so a parameter at z = -_Z lies 5.6e-17 of
# its range from its bound while dtheta/dz, and so the gradient's sign, stays nonzero.
_Z = 37.0


def _ascend(theta0, bounds, d2, match, dt, y, max_iter=100):
    """LML ascent by L-BFGS in sigmoid coordinates, theta = lo + (hi - lo) sigma(z).

    The box becomes all of z-space, so every step is unconstrained. Each step
    goes along the two-loop L-BFGS direction and backtracks by safeguarded
    quadratic interpolation until the Armijo condition holds; only an accepted
    point's gradient is computed, from the factor its LML evaluation kept, so
    each LML evaluation is one Cholesky and the gradient adds none. A candidate
    equal to the point it would replace, or to the one just rejected, is not
    factored.

    Active bounds, as L-BFGS-B treats them (Byrd, Lu, Nocedal & Zhu 1995): a
    coordinate whose z is at or past the edge, |z| >= _EDGE_Z, and whose
    gradient points out of the box is held. Every candidate of that step puts
    it on its bound, z = +-_Z, and it leaves the direction, the curvature pairs
    and the _GTOL test. It is released as soon as its gradient points inward.
    Every candidate's z is clamped to [-_Z, _Z], so none lies past a bound.
    Returns (theta, _AscentReport), or (None, report) when the start cannot be
    factored.
    """
    lo, span = bounds.lower, bounds.upper - bounds.lower

    def coords(z):
        # sigma(z) = (1 + tanh(z/2)) / 2, which cannot overflow; dtheta/dz too.
        s = np.tanh(0.5 * z)
        return lo + span * (0.5 * (1.0 + s)), span * (0.25 * (1.0 - s) * (1.0 + s))

    u = np.clip((theta0 - lo) / span, _EDGE, 1.0 - _EDGE)
    z = np.log(u) - np.log1p(-u)
    theta, dtheta = coords(z)
    try:
        f, factor, alpha = _factor(theta, d2, match, dt, y)
    except np.linalg.LinAlgError:
        return None, _AscentReport(-math.inf, 0, 1, False)
    evaluations = 1
    g = _grad(theta, d2, match, dt, factor, alpha) * dtheta
    pairs = collections.deque(maxlen=_MEMORY)  # (s, y, 1 / s.y) with y the drop in gradient
    for it in range(max_iter):
        held = (np.abs(z) >= _EDGE_Z) & (z * g > 0.0)
        g_free = np.where(held, 0.0, g)
        if np.max(np.abs(g_free)) < _GTOL:
            return theta, _AscentReport(f, it, evaluations, True)
        d = _two_loop(g_free, pairs)
        d[held] = 0.0
        slope = float(g_free @ d)
        if not pairs:
            d /= math.sqrt(slope)  # a first step of unit length, as L-BFGS-B takes
            slope = float(g_free @ d)
        base = np.where(held, np.copysign(_Z, z), z)
        step, rejected = 1.0, None
        for _ in range(_MAX_BACKTRACKS):
            zc = np.clip(base + step * d, -_Z, _Z)
            cand, dcand = coords(zc)
            if np.array_equal(cand, theta):
                return theta, _AscentReport(f, it, evaluations, False)
            if not np.array_equal(cand, rejected):
                evaluations += 1
                try:
                    fc, factorc, alphac = _factor(cand, d2, match, dt, y)
                except np.linalg.LinAlgError:
                    fc = -math.inf
            if fc >= f + _ARMIJO * step * slope:
                break
            rejected = cand
            # Maximum of the quadratic through f, the slope and fc, kept in [0.1, 0.5] step.
            shortfall = f + slope * step - fc
            step = min(max(0.5 * slope * step * step / shortfall, 0.1 * step), 0.5 * step)
        else:
            return theta, _AscentReport(f, it, evaluations, False)
        gc = _grad(cand, d2, match, dt, factorc, alphac) * dcand
        s_vec, y_vec = zc - base, np.where(held, 0.0, g - gc)
        sy = float(s_vec @ y_vec)
        if sy > 1e-10 * float(y_vec @ y_vec):  # keep only curvature that is positive
            pairs.append((s_vec, y_vec, 1.0 / sy))
        flat = fc - f <= _FTOL * max(abs(fc), abs(f), 1.0)
        z, theta, f, g = zc, cand, fc, gc
        if flat:
            return theta, _AscentReport(f, it + 1, evaluations, True)
    return theta, _AscentReport(f, max_iter, evaluations, False)


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS ascent direction H g from the kept (s, y, 1/s.y) pairs, with
    H0 = (s.y / y.y) I from the newest pair (Nocedal & Wright, alg. 7.4)."""
    q = g.copy()
    a = []
    for s, yv, rho in reversed(pairs):
        a.append(rho * float(s @ q))
        q -= a[-1] * yv
    if pairs:
        s, yv, rho = pairs[-1]
        q *= 1.0 / (rho * float(yv @ yv))
    for (s, yv, rho), ai in zip(pairs, reversed(a)):
        q += (ai - rho * float(yv @ q)) * s
    return q


def fit(data_or_model: GPModel, seed: int = 0) -> GPHyperparams:
    """Maximum-likelihood hyperparameters within the model's bound box: one
    L-BFGS ascent warm-started from the model's theta and one from a random
    start drawn from the bounds with the given seed.

    Each ascent (`_ascend`) stops at a stationary point or after 100 iterations
    (see the module docstring). The random start is kept although it roughly
    doubles a fit: a warm start held on a bound can stay trapped there, which
    the second ascent escapes.

    The parameter is named data_or_model because perfbench/tracing.py binds it
    by that name. With fewer than two observations the model's theta is
    returned unchanged. Returns the better theta of the two; if both ascents
    fail numerically, returns the model's theta and logs a warning.
    """
    model = data_or_model
    if model.n < 2:
        return model.theta

    starts = (model.theta.as_array(), model.bounds.sample(np.random.default_rng(seed)))
    best_theta, best_f = None, -math.inf
    _lapack()  # before the block (see `_lapack`)
    with _blas.single_thread():
        for start in starts:
            theta, report = _ascend(start, model.bounds, model._d2, model._match, model._dt,
                                    model.y)
            if theta is not None and report.lml > best_f:
                best_theta, best_f = theta, report.lml
    if best_theta is None:
        logger.warning("both hyperparameter ascents failed numerically; keeping the model's theta")
        return model.theta
    return GPHyperparams.from_array(best_theta)
