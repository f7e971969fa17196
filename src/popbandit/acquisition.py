"""Batch UCB selection of continuous values with hallucinated variance updates.

Picks are made sequentially: the mean surface is frozen at the start of the
batch, while each chosen point is hallucinated, so later picks see reduced
variance there (the variance does not depend on targets). Following GP-BUCB
(Desautels, Krause & Burdick, JMLR 2014), a hallucination appends one row to
the model's Cholesky factor (`gp._BatchPosterior`). A batch draws one set U of
random candidates (`n_candidates`, 250 by default); each category assignment
among its picks pays one cross-kernel and one triangular solve over U,
V = L^-1 K(rows, U), and a pick that reads an assignment again extends its V by
one row per hallucination since, not by a new solve over U. The last pick is
not hallucinated, because nothing reads it. Each pick's best candidate is refined
one coordinate at a time on grids of 16 points, each grid one point-set query
(`_BatchPosterior.points`, one triangular solve over its 16 columns): the first
grid spans the coordinate's +-0.05 window, clipped to the box, and each further
level spans one grid spacing either side of the best point so far. A grid point
replaces the pick only when its UCB is strictly higher. The refinement draws
nothing from the RNG.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gp import GPModel, _BatchPosterior
from .space import ContinuousParam

_REFINE_HALF_WIDTH = 0.05  # unit-space window around the best candidate
_GRID = 16  # points per refinement grid


@dataclass(frozen=True)
class AcquisitionConfig:
    """beta_t = c1 + c2 ln(t); n_candidates random candidates per batch (250:
    the refinement resolves a pick, so the candidates need only find its
    basin); and n_refine_steps grid levels per continuous coordinate when
    refining a pick (0: the best candidate is the pick)."""

    c1: float = 0.2
    c2: float = 0.4
    n_candidates: int = 250
    n_refine_steps: int = 2

    def __post_init__(self):
        for name in ("c1", "c2"):
            value = getattr(self, name)
            if not (_is_a(value, numbers.Real) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite real >= 0, got {value!r}")
        for name, least in (("n_candidates", 1), ("n_refine_steps", 0)):
            value = getattr(self, name)
            if not (_is_a(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _is_a(value, kind) -> bool:
    """isinstance(value, kind), with a bool counting as no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def beta(t: int, cfg: AcquisitionConfig) -> float:
    """Exploration coefficient schedule: c1 + c2*ln(t), clamped to >= 0."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return max(0.0, cfg.c1 + cfg.c2 * math.log(t))


def _from_unit(u, params):
    """Raw values of the unit values u; clipped, since lower + 1.0 (upper - lower)
    can round above upper."""
    return np.array([p.clip(p.lower + v * (p.upper - p.lower)) for v, p in zip(u, params)])


def select_batch_continuous(
    model: GPModel,
    params: tuple[ContinuousParam, ...],
    batch: int,
    t: int,
    cfg: AcquisitionConfig,
    rng: np.random.Generator,
    fixed_h=None,
) -> list[np.ndarray]:
    """Sequentially maximize mu_frozen(x) + sqrt(beta_t) * sigma_b(x) over the box.

    fixed_h, when given, holds one sequence of integer category codes per pick
    (as `SearchSpace.encode_h` gives them): the b-th pick queries the mixed
    kernel with that assignment fixed, and the hallucinated point carries it.
    Returns raw-scale vectors, one per pick. Ties in the candidate scores
    resolve to the lowest candidate index, so the result is deterministic
    given (model, seed, cfg).
    """
    if not params:
        raise ValueError("need at least one continuous dimension")
    if fixed_h is not None and len(fixed_h) != batch:
        raise ValueError("fixed_h must provide one assignment per pick")
    d = len(params)
    sqrt_beta = math.sqrt(beta(t, cfg))
    U = rng.uniform(size=(cfg.n_candidates, d))  # one candidate set for the whole batch
    # Frozen mean, accumulates hallucinations; picks will be evaluated one round ahead.
    posterior = _BatchPosterior(model, U, t + 1)
    picks = []
    for b in range(batch):
        hq = None if fixed_h is None else fixed_h[b]
        mu, var = posterior.candidates(hq)
        scores = mu + sqrt_beta * np.sqrt(var)
        best = int(np.argmax(scores))
        u, best_score = U[best], scores[best]
        for j in range(d):
            lo, hi = max(0.0, u[j] - _REFINE_HALF_WIDTH), min(1.0, u[j] + _REFINE_HALF_WIDTH)
            for _ in range(cfg.n_refine_steps):
                Xq = np.tile(u, (_GRID, 1))
                Xq[:, j] = np.linspace(lo, hi, _GRID)
                mu, var = posterior.points(Xq, hq)
                scores = mu + sqrt_beta * np.sqrt(var)
                best = int(np.argmax(scores))
                if scores[best] > best_score:
                    u, best_score = Xq[best], scores[best]
                step = (hi - lo) / (_GRID - 1)
                lo, hi = max(lo, u[j] - step), min(hi, u[j] + step)
        if b + 1 < batch:  # the last pick's hallucination would be read by nothing
            posterior.append(u, hq)
        picks.append(_from_unit(u, params))
    return picks
