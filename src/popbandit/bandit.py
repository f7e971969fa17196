"""Time-varying adversarial bandit with multiple plays (TV.EXP3.M).

Maintains exponential weights over C arms, selects B distinct arms per round
via dependent rounding with exact inclusion marginals, and caps oversized
weights so no arm's selection probability exceeds 1. A uniform additive term
(e*alpha/C of total weight per round) keeps dormant arms revivable after
reward change points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_E = math.e
_WEIGHT_RESCALE_THRESHOLD = 1e100


@dataclass
class BanditState:
    C: int
    B: int
    T: int
    weights: np.ndarray
    gamma: float
    alpha: float
    round: int = 0


@dataclass(frozen=True)
class CapResult:
    capped_weights: np.ndarray
    s0: frozenset
    nu: float


def new_bandit(C: int, B: int, T: int) -> BanditState:
    """Fresh state with unit weights and the theory-prescribed gamma, alpha.

    gamma = min(1, sqrt(C ln(C/B) / ((e-1) B T))), alpha = 1/T. When C == B
    the log term vanishes; gamma is clamped to 1 so every arm is always played.
    """
    if C < 2:
        raise ValueError("need at least 2 arms")
    if not 1 <= B <= C:
        raise ValueError("B must satisfy 1 <= B <= C")
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    if C == B:
        gamma = 1.0
    else:
        gamma = min(1.0, math.sqrt(C * math.log(C / B) / ((_E - 1) * B * T)))
    return BanditState(
        C=C,
        B=B,
        T=T,
        weights=np.ones(C, dtype=float),
        gamma=gamma,
        alpha=1.0 / T,
        round=0,
    )


def cap_weights(state: BanditState) -> CapResult:
    """Cap oversized weights at nu so that no selection probability exceeds 1.

    If max_c w_c >= eta * sum(w) with eta = (1/B - gamma/C)/(1 - gamma), finds
    nu solving nu/eta = sum_{w_c >= nu} nu + sum_{w_c < nu} w_c by an exact
    piecewise-linear scan over sorted weights, then caps all w_c >= nu.
    Skipped entirely when gamma = 1 (pure exploration).
    """
    w = state.weights
    if state.gamma >= 1.0:
        return CapResult(w.copy(), frozenset(), 0.0)
    eta = (1.0 / state.B - state.gamma / state.C) / (1.0 - state.gamma)
    total = w.sum()
    if w.max() < eta * total:
        return CapResult(w.copy(), frozenset(), 0.0)
    # Sort descending: capping the top-k leaves nu = sum(rest) / (1/eta - k).
    order = np.argsort(-w, kind="stable")
    ws = w[order]
    suffix = np.concatenate([np.cumsum(ws[::-1])[::-1][1:], [0.0]])
    nu = None
    k_cap = 0
    for k in range(1, state.C):
        denom = 1.0 / eta - k
        if denom <= 0:
            break
        cand = suffix[k - 1] / denom
        upper = ws[k - 1]
        lower = ws[k]
        if lower < cand <= upper:
            nu = cand
            k_cap = k
            break
    if nu is None:
        # All segment boundaries tied; cap everything at the common solve.
        k_cap = max(1, int(math.floor(1.0 / eta)))
        nu = suffix[k_cap - 1] / (1.0 / eta - k_cap) if 1.0 / eta > k_cap else ws[k_cap - 1]
    capped = w.copy()
    s0 = frozenset(int(i) for i in order[:k_cap])
    for i in s0:
        capped[i] = nu
    return CapResult(capped, s0, float(nu))


def arm_probabilities(state: BanditState, cap: CapResult) -> np.ndarray:
    """p_c = B((1-gamma) w_c / sum(w) + gamma/C) on the capped weights."""
    w = cap.capped_weights
    # In place, with the same operations in the same order as
    # B * ((1 - gamma) * w / sum(w) + gamma / C).
    p = (1.0 - state.gamma) * w
    p /= w.sum()
    p += state.gamma / state.C
    p *= state.B
    return p


def depround(B: int, p: np.ndarray, rng: np.random.Generator) -> set[int]:
    """Sample exactly B distinct indices with inclusion marginals exactly p.

    Pairwise dependent rounding (Gandhi et al., JACM 2006): repeatedly take the
    two lowest-indexed fractional coordinates and shift probability mass between
    them until one settles at 0 or 1. Each step settles at least one of its
    pair, and the survivor stays below every untouched fractional index, so the
    next pair is always that survivor (the carry) and the next fractional index
    in ascending order. The round therefore walks the fractional indices once
    with a carry: the same pairs as rescanning all C arms after every step, with
    the same arithmetic. When a step settles both, the next index starts a
    fresh carry without a step. A round is at most C steps of O(1): O(C), not
    O(C^2). The chosen arms are inserted into the result in ascending order,
    which fixes the set's iteration order.

    With F fractional coordinates a round makes at most F - 1 steps, so it draws
    all its uniforms at once, `rng.random(F - 1)`, and uses them in step order:
    the same doubles as one `rng.random()` per step. When a step settles both
    coordinates of its pair, fewer steps remain; the round then restores the
    generator's state from before the draw and draws exactly the uniforms it
    used, which leaves `rng` where one draw per step would, buffered 32-bit
    half included (`bit_generator.advance` would drop it). F <= 1 draws nothing.
    """
    p = np.asarray(p, dtype=float)
    total = p.sum()
    # Written so that NaN fails them.
    if not abs(total - B) <= 1e-6:
        raise ValueError(f"probabilities must sum to B={B}, got {total}")
    if not (p.min() >= -1e-9 and p.max() <= 1 + 1e-9):
        raise ValueError("probabilities must lie in [0, 1]")
    # Clipping to [0, 1] would change only entries that are not fractional,
    # and their class (settled at 0 or at 1) is the same unclipped.
    q = p.tolist()
    lo, hi = 1e-12, 1 - 1e-12
    ones = [i for i, v in enumerate(q) if v >= hi]
    frac = [i for i, v in enumerate(q) if lo < v < hi]
    ci = None
    if frac:
        before = rng.bit_generator.state
        draws = rng.random(len(frac) - 1).tolist()
        used = 0
        for j in frac:
            if ci is None:
                ci, c = j, q[j]
                continue
            pj = q[j]
            # a = min(1 - c, pj) and b = min(c, 1 - pj), as min() picks them.
            x, y = 1.0 - c, 1.0 - pj
            a = pj if pj < x else x
            b = y if y < c else c
            if draws[used] < b / (a + b):
                c, pj = c + a, pj - a
            else:
                c, pj = c - b, pj + b
            used += 1
            if lo < c < hi:
                if pj > 0.5:
                    ones.append(j)
                continue
            if c > 0.5:
                ones.append(ci)
            if lo < pj < hi:
                ci, c = j, pj
            else:
                if pj > 0.5:
                    ones.append(j)
                ci = None
        if used < len(draws):
            rng.bit_generator.state = before
            rng.random(used)
    # A single leftover fractional mass is rounding noise; snap it.
    if ci is not None and round(c) > 0.5:
        ones.append(ci)
    if len(ones) != B:
        raise RuntimeError("dependent rounding failed to settle at exactly B arms")
    return set(sorted(ones))


def select_batch(state: BanditState, rng: np.random.Generator):
    """Cap weights, compute probabilities, and draw B distinct arms."""
    if state.round >= state.T:
        raise ValueError("bandit horizon exhausted")
    cap = cap_weights(state)
    p = arm_probabilities(state, cap)
    arms = depround(state.B, p, rng)
    return arms, p, cap


def update(
    state: BanditState,
    selected: set[int],
    p: np.ndarray,
    cap: CapResult,
    g: dict[int, float],
) -> BanditState:
    """Exponential-weight update from importance-weighted rewards.

    ghat(c) = g(c)/p_c on the selected arms, 0 elsewhere. Uncapped arms get the
    multiplicative update exp(B*gamma*ghat/C); capped arms (S0) get only the
    uniform additive term, so a dominant arm cannot grow further.

    An arm off the batch has factor exp(0.0) == 1.0 exactly, so `math.exp` runs
    only for the at most B selected uncapped arms, and the additive term is one
    vector add over all C weights: O(C) per round, with the same bits as a loop
    that multiplies every arm by its factor.
    """
    if state.round >= state.T:
        raise ValueError("bandit horizon exhausted")
    if g.keys() - selected:
        raise ValueError("reward provided for an arm outside the selected batch")
    for c, val in g.items():
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"reward for arm {c} outside [0,1]: {val}")
    w = cap.capped_weights.copy()
    additive = _E * state.alpha / state.C * w.sum()
    for c in selected:
        if c not in cap.s0:
            w[c] = w[c] * math.exp(state.B * state.gamma * (g.get(c, 0.0) / p[c]) / state.C)
    w += additive
    top = w.max()
    if top > _WEIGHT_RESCALE_THRESHOLD:
        w /= top
    return BanditState(
        C=state.C,
        B=state.B,
        T=state.T,
        weights=w,
        gamma=state.gamma,
        alpha=state.alpha,
        round=state.round + 1,
    )
