"""Explore strategies and the exploit step for the population loop.

Five explore variants: uniform random, PBT-style perturbation, GP over
continuous values with random categories, bandit-selected categories with one
GP per category, and bandit-selected categories with a single joint mixed
kernel GP. The three GP variants share one skeleton, `_explore_pb2`. Exploit
is truncation selection: bottom-quantile agents copy a random top-quantile
agent.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import bandit as bd
from .acquisition import AcquisitionConfig, select_batch_continuous
from .gp import GPHyperparams, GPModel, fit, windowed
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
    return Config(x=_sample_x(space.continuous, rng), h=h)


def explore_random(space: SearchSpace, B: int, rng) -> list[Config]:
    """Independent uniform draws for every agent."""
    return [sample_config(space, rng) for _ in range(B)]


def explore_pbt(replaced_agents, parent_configs, space: SearchSpace, rng) -> list[Config]:
    """Perturb each parent: resample with prob 0.25, else scale x by 0.8 or 1.2."""
    out = []
    for parent in parent_configs:
        x = []
        for p, v in zip(space.continuous, parent.x):
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


# Rounds between hyperparameter refits of one GP when a theta cache is given.
REFIT_EVERY = 5


def _model(data: Dataset, mixed: bool, theta_cache, key, t_round, restarts, seed) -> GPModel:
    """GP on the windowed columns of data, with normalized rewards as targets.

    H is kept only for a mixed model. Without a theta cache every call fits θ
    from the default. With one, the θ last fitted under key is reused for
    REFIT_EVERY rounds and then warm-starts the next fit.
    """
    H = data.H if mixed else data.H[:, :0]
    X, H, t, y = windowed(data.X, H, data.t, normalize_rewards(data))
    cached = theta_cache.get(key) if theta_cache is not None else None
    init = cached[0] if cached is not None else GPHyperparams()
    model = GPModel(X, H, t, y, init)
    if cached is not None and t_round - cached[1] < REFIT_EVERY:
        return model
    # The fit reads the model's pairwise structure, and the fitted model shares it.
    model = model.with_theta(fit(model, init, restarts=restarts, seed=seed))
    if theta_cache is not None:
        theta_cache[key] = (model.theta, t_round)
    return model


def _explore_pb2(data: Dataset, bandit_state, replaced_agents, space: SearchSpace, t: int,
                 rng, per_arm: bool, acq_cfg: AcquisitionConfig | None = None,
                 restarts: int = 3, theta_cache: dict | None = None):
    """The PB2 step shared by pb2-rand, pb2-mult and pb2-mix.

    Categories come first: drawn at random when bandit_state is None, else one
    bandit play per replaced agent. The data are then split into groups, one
    per selected arm when per_arm, else one group of all rows. In ascending
    arm order, a group with fewer than 2 rows (or a space with no continuous
    parameter) draws x at random; any other draws a fit seed, fits a GP and
    acquires one x per agent in the group. A GP over all rows sees the
    categories only when the bandit chose them (pb2-mix); pb2-rand's GP, like
    a per-arm GP, sees x and t alone. The public pb2 entry points pass
    acq_cfg, restarts (GP fit restarts) and theta_cache through as keywords.
    Returns (decision, selection or None).
    """
    acq_cfg = acq_cfg or AcquisitionConfig()
    B = len(replaced_agents)
    if bandit_state is None:
        selection = None
        hs = [_sample_h(space, rng) for _ in range(B)]
    else:
        selection = _assign_arms(bandit_state, replaced_agents, rng)
        assignments = space.categorical_assignments()
        hs = [assignments[arm] for arm in selection.arm_of_agent]
    mixed = bandit_state is not None and not per_arm
    groups = {None: list(range(B))}
    if per_arm:
        groups = {}
        for slot, arm in enumerate(selection.arm_of_agent):
            groups.setdefault(arm, []).append(slot)
    params = space.continuous
    xs: list = [None] * B
    for arm, slots in sorted(groups.items()):
        sub = filter_by_category(data, hs[slots[0]]) if per_arm else data
        if len(sub) < 2 or not params:
            for slot in slots:
                xs[slot] = _sample_x(params, rng)
            continue
        model = _model(sub, mixed, theta_cache, arm, t, restarts, int(rng.integers(2**31)))
        fixed_h = [np.array(space.encode_h(hs[s]), dtype=int) for s in slots] if mixed else None
        picks = select_batch_continuous(model, params, len(slots), t, acq_cfg, rng,
                                        fixed_h=fixed_h)
        for slot, x in zip(slots, picks):
            xs[slot] = tuple(x)
    return [Config(x=x, h=h) for x, h in zip(xs, hs)], selection


def explore_pb2_rand(data: Dataset, replaced_agents, space: SearchSpace, t: int, rng,
                     **gp_args) -> list[Config]:
    """Random categories; continuous values from a GP that never sees them."""
    return _explore_pb2(data, None, replaced_agents, space, t, rng, False, **gp_args)[0]


def _assign_arms(bandit_state, replaced_agents, rng):
    arms, p, cap = bd.select_batch(bandit_state, rng)
    ordered = sorted(arms)
    # Replaced agents in index order get arms in ascending order; if there are
    # more agents than plays the assignment cycles.
    arm_of_agent = tuple(ordered[i % len(ordered)] for i in range(len(replaced_agents)))
    return BanditSelection(frozenset(arms), p, cap, arm_of_agent)


def explore_pb2_mult(data: Dataset, bandit_state: bd.BanditState, replaced_agents,
                     space: SearchSpace, t: int, rng, **gp_args):
    """Bandit-selected categories, one GP per category on its filtered data.

    Returns (decision, selection); the caller applies the bandit update once
    the realized rewards are observed.
    """
    return _explore_pb2(data, bandit_state, replaced_agents, space, t, rng, True, **gp_args)


def explore_pb2_mix(data: Dataset, bandit_state: bd.BanditState, replaced_agents,
                    space: SearchSpace, t: int, rng, **gp_args):
    """Bandit-selected categories; one joint GP with the mixed kernel.

    The batch shares a single hallucination chain; each pick's category is
    fixed in the kernel query. The sum/product mixing weight is fitted by MAP
    alongside the other hyperparameters.
    """
    return _explore_pb2(data, bandit_state, replaced_agents, space, t, rng, False, **gp_args)


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
