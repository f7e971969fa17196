"""Explore strategies and the exploit step for the population loop.

Five explore variants: uniform random, PBT-style perturbation, GP over
continuous values with random categories, bandit-selected categories with one
GP per category, and bandit-selected categories with a single joint mixed
kernel GP. Exploit is truncation selection: bottom-quantile agents copy a
random top-quantile agent.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import bandit as bd
from .acquisition import AcquisitionConfig, select_batch_continuous
from .gp import GPHyperparams, GPModel, HyperparamBounds, fit, windowed
from .space import (
    Config,
    Dataset,
    SearchSpace,
    filter_by_category,
    normalize_rewards,
)


class StrategyKind(enum.Enum):
    RANDOM = "random"
    PBT = "pbt"
    PB2_RAND = "pb2-rand"
    PB2_MULT = "pb2-mult"
    PB2_MIX = "pb2-mix"

    @classmethod
    def from_name(cls, name: str) -> "StrategyKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown strategy {name!r}; expected one of "
                         f"{[k.value for k in cls]}")


# Strategies whose categories come from the bandit; they need at least 2 arms.
BANDIT_STRATEGIES = frozenset({StrategyKind.PB2_MULT, StrategyKind.PB2_MIX})


@dataclass(frozen=True)
class BanditSelection:
    """What the harness needs to apply the delayed bandit update."""

    arms: frozenset
    p: np.ndarray
    cap: bd.CapResult
    arm_of_agent: tuple[int, ...]  # selected arm index per replaced agent


# PBT perturbation conventions (the underlying framework specifies none).
_PBT_RESAMPLE_PROB = 0.25
_PBT_FACTORS = (0.8, 1.2)


def _sample_x(params, rng) -> tuple[float, ...]:
    return tuple(rng.uniform(p.lower, p.upper) for p in params)


def _sample_h(space: SearchSpace, rng) -> tuple[str, ...]:
    return tuple(p.choices[rng.integers(len(p.choices))] for p in space.categorical)


def sample_config(space: SearchSpace, rng) -> Config:
    h = _sample_h(space, rng)
    return Config(x=_sample_x(space.continuous_for(h), rng), h=h)


def explore_random(space: SearchSpace, B: int, rng) -> list[Config]:
    """Independent uniform draws for every agent."""
    return [sample_config(space, rng) for _ in range(B)]


def explore_pbt(replaced_agents, parent_configs, space: SearchSpace, rng) -> list[Config]:
    """Perturb each parent: resample with prob 0.25, else scale x by 0.8 or 1.2."""
    out = []
    for parent in parent_configs:
        params = space.continuous_for(parent.h)
        x = []
        for p, v in zip(params, parent.x):
            if rng.random() < _PBT_RESAMPLE_PROB:
                x.append(rng.uniform(p.lower, p.upper))
            else:
                x.append(p.clip(v * _PBT_FACTORS[rng.integers(2)]))
        h = []
        for cp, label in zip(space.categorical, parent.h):
            if rng.random() < _PBT_RESAMPLE_PROB:
                h.append(cp.choices[rng.integers(len(cp.choices))])
            else:
                h.append(label)
        out.append(Config(x=tuple(x), h=tuple(h)))
    return out


def _continuous_arrays(data: Dataset, params):
    """Unit-scaled x, empty H, rounds, normalized rewards from a dataset."""
    y = normalize_rewards(data)
    X = np.array(
        [
            [(v - p.lower) / (p.upper - p.lower) for v, p in zip(obs.config.x, params)]
            for obs in data.observations
        ],
        dtype=float,
    ).reshape(len(y), len(params))
    H = np.zeros((len(y), 0), dtype=int)
    t = np.array([obs.round for obs in data.observations], dtype=float)
    return windowed(X, H, t, y)


def _mixed_arrays(data: Dataset, space: SearchSpace):
    y = normalize_rewards(data)
    params = space.continuous
    X = np.array(
        [
            [(v - p.lower) / (p.upper - p.lower) for v, p in zip(obs.config.x, params)]
            for obs in data.observations
        ],
        dtype=float,
    ).reshape(len(y), len(params))
    H = np.array(
        [space.encode_h(obs.config.h) for obs in data.observations], dtype=int
    ).reshape(len(y), len(space.categorical))
    t = np.array([obs.round for obs in data.observations], dtype=float)
    return windowed(X, H, t, y)


def _fitted_model(X, H, t, y, theta_init, restarts, seed) -> GPModel:
    init = theta_init if theta_init is not None else GPHyperparams()
    # The fit reads the model's pairwise structure, and the fitted model shares it.
    model = GPModel(X, H, t, y, init, HyperparamBounds.default(X.shape[1]))
    return model.with_theta(fit(model, init, restarts=restarts, seed=seed))


def _cached_model(X, H, t, y, theta_cache, key, t_round, restarts, seed,
                  refit_every) -> GPModel:
    """Fit hyperparameters, warm-started and optionally on a cadence.

    Between refits the last fitted theta is reused; the model itself always
    sees the full (windowed) data.
    """
    cached = theta_cache.get(key) if theta_cache is not None else None
    if cached is not None and t_round - cached[1] < refit_every:
        bounds = HyperparamBounds.default(X.shape[1])
        return GPModel(X, H, t, y, cached[0], bounds)
    init = cached[0] if cached is not None else None
    model = _fitted_model(X, H, t, y, init, restarts, seed)
    if theta_cache is not None:
        theta_cache[key] = (model.theta, t_round)
    return model


def explore_pb2_rand(
    data: Dataset,
    replaced_agents,
    space: SearchSpace,
    t: int,
    rng,
    acq_cfg: AcquisitionConfig | None = None,
    restarts: int = 3,
    theta_cache: dict | None = None,
    refit_every: int = 1,
) -> list[Config]:
    """Random categories; continuous values from a GP that never sees them."""
    acq_cfg = acq_cfg or AcquisitionConfig()
    B = len(replaced_agents)
    hs = [_sample_h(space, rng) for _ in range(B)]
    params = space.continuous
    if len(data) < 2 or not params:
        return [Config(x=_sample_x(params, rng), h=h) for h in hs]
    X, H, tv, y = _continuous_arrays(data, params)
    model = _cached_model(X, H, tv, y, theta_cache, "rand", t, restarts,
                          int(rng.integers(2**31)), refit_every)
    xs = select_batch_continuous(model, params, B, t, acq_cfg, rng)
    return [Config(x=tuple(x), h=h) for x, h in zip(xs, hs)]


def _assign_arms(bandit_state, replaced_agents, rng):
    arms, p, cap = bd.select_batch(bandit_state, rng)
    ordered = sorted(arms)
    # Replaced agents in index order get arms in ascending order; if there are
    # more agents than plays the assignment cycles.
    arm_of_agent = tuple(ordered[i % len(ordered)] for i in range(len(replaced_agents)))
    return BanditSelection(frozenset(arms), p, cap, arm_of_agent)


def explore_pb2_mult(
    data: Dataset,
    bandit_state: bd.BanditState,
    replaced_agents,
    space: SearchSpace,
    t: int,
    rng,
    acq_cfg: AcquisitionConfig | None = None,
    restarts: int = 3,
    theta_cache: dict | None = None,
    refit_every: int = 1,
):
    """Bandit-selected categories, one GP per category on its filtered data.

    Returns (decision, selection); the caller applies the bandit update once
    the realized rewards are observed.
    """
    acq_cfg = acq_cfg or AcquisitionConfig()
    assignments = space.categorical_assignments()
    selection = _assign_arms(bandit_state, replaced_agents, rng)
    xs_by_slot: dict[int, tuple[float, ...]] = {}
    hs_by_slot: dict[int, tuple[str, ...]] = {}
    by_arm: dict[int, list[int]] = {}
    for slot, arm in enumerate(selection.arm_of_agent):
        by_arm.setdefault(arm, []).append(slot)
    for arm, slots in sorted(by_arm.items()):
        h = assignments[arm]
        params = space.continuous_for(h)
        sub = filter_by_category(data, h)
        if len(sub) < 2 or not params:
            for slot in slots:
                xs_by_slot[slot] = _sample_x(params, rng)
                hs_by_slot[slot] = h
            continue
        X, H, tv, y = _continuous_arrays(sub, params)
        model = _cached_model(X, H, tv, y, theta_cache, arm, t, restarts,
                              int(rng.integers(2**31)), refit_every)
        xs = select_batch_continuous(model, params, len(slots), t, acq_cfg, rng)
        for slot, x in zip(slots, xs):
            xs_by_slot[slot] = tuple(x)
            hs_by_slot[slot] = h
    decision = [
        Config(x=xs_by_slot[slot], h=hs_by_slot[slot])
        for slot in range(len(replaced_agents))
    ]
    return decision, selection


def explore_pb2_mix(
    data: Dataset,
    bandit_state: bd.BanditState,
    replaced_agents,
    space: SearchSpace,
    t: int,
    rng,
    acq_cfg: AcquisitionConfig | None = None,
    restarts: int = 3,
    theta_cache: dict | None = None,
    refit_every: int = 1,
):
    """Bandit-selected categories; one joint GP with the mixed kernel.

    The batch shares a single hallucination chain; each pick's category is
    fixed in the kernel query. The sum/product mixing weight is fitted by MAP
    alongside the other hyperparameters.
    """
    acq_cfg = acq_cfg or AcquisitionConfig()
    assignments = space.categorical_assignments()
    selection = _assign_arms(bandit_state, replaced_agents, rng)
    hs = [assignments[arm] for arm in selection.arm_of_agent]
    params = space.continuous
    if len(data) < 2 or not params:
        decision = [Config(x=_sample_x(params, rng), h=h) for h in hs]
        return decision, selection
    X, H, tv, y = _mixed_arrays(data, space)
    model = _cached_model(X, H, tv, y, theta_cache, "mix", t, restarts,
                          int(rng.integers(2**31)), refit_every)
    fixed_h = [np.array(space.encode_h(h), dtype=int) for h in hs]
    xs = select_batch_continuous(model, params, len(hs), t, acq_cfg, rng, fixed_h=fixed_h)
    decision = [Config(x=tuple(x), h=h) for x, h in zip(xs, hs)]
    return decision, selection


def check_truncation(B: int, quantile: float) -> None:
    """Raise ValueError unless truncation selection is defined for B and quantile."""
    if B < 2:
        raise ValueError(f"B must be >= 2, got {B}")
    if not 0.0 < quantile <= 0.5:
        raise ValueError(f"quantile must be in (0, 0.5], got {quantile}")


def exploit_truncation(scores, quantile: float, rng) -> list[tuple[int, int]]:
    """Pair each bottom-quantile agent with a random top-quantile agent.

    Ranking is by score descending with ties broken by agent index. Returns
    (loser, winner) index pairs for exactly ceil(quantile * B) replacements.
    """
    B = len(scores)
    check_truncation(B, quantile)
    n = math.ceil(quantile * B)
    order = sorted(range(B), key=lambda i: (-scores[i], i))
    top = order[:n]
    bottom = order[-n:]
    return [(loser, top[rng.integers(n)]) for loser in sorted(bottom)]
