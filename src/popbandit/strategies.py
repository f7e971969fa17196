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

import numpy as np

from . import bandit as bd
from .acquisition import AcquisitionConfig, select_batch_continuous
from .gp import SLIDING_WINDOW, GPHyperparams, GPModel, fit
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
# Strategies that fit a GP, and so load scipy's LAPACK extension; random and pbt never do.
GP_STRATEGIES = BANDIT_STRATEGIES | {StrategyKind.PB2_RAND}


class CategoryBandit:
    """TV.EXP3.M over a space's category assignments, with its last draw.

    It plays min(n_agents, n_arms) arms a round. `draw` selects the arms and
    gives them to the replaced agents: in index order they take the arms in
    ascending order, cycling when there are more agents than plays. `learn`
    feeds back the rewards those agents realized: each drawn arm earns the
    mean reward of the agents that ran it. Before the first draw `learn` does
    nothing.
    """

    def __init__(self, n_arms: int, n_agents: int, T: int):
        self.state = bd.new_bandit(n_arms, min(n_agents, n_arms), T)
        self.arms = self.p = self.cap = None
        self.agents = self.arm_of_agent = ()

    def draw(self, agents, rng) -> tuple[int, ...]:
        """Draws this round's arms and gives one to each agent; returns each agent's arm."""
        self.arms, self.p, self.cap = bd.select_batch(self.state, rng)
        ordered = sorted(self.arms)
        self.agents = tuple(agents)
        self.arm_of_agent = tuple(ordered[i % len(ordered)] for i in range(len(self.agents)))
        return self.arm_of_agent

    def learn(self, rewards) -> None:
        """Update the weights from rewards[agent] in [0, 1] of the last draw's agents."""
        if self.arms is None:
            return
        g: dict[int, list[float]] = {}
        for arm, agent in zip(self.arm_of_agent, self.agents):
            g.setdefault(arm, []).append(float(rewards[agent]))
        self.state = bd.update(self.state, set(self.arms), self.p, self.cap,
                               {arm: float(np.mean(vals)) for arm, vals in g.items()})


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


def explore_pbt(parent_configs, space: SearchSpace, rng) -> list[Config]:
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


# Rounds between hyperparameter refits of one GP.
REFIT_EVERY = 5


def _model(data: Dataset, mixed: bool, theta_cache: dict, key, t_round, seed) -> GPModel:
    """GP on the last SLIDING_WINDOW rows of data; its targets are the rewards
    normalized over all rows.

    H is kept only for a mixed model. The θ last fitted under key in theta_cache
    is reused for REFIT_EVERY rounds and then warm-starts the next fit; with
    none cached, θ is fitted from the default. A fit stores (θ, t_round) under
    key, and the model is built anew under the fitted θ.
    """
    H = data.H if mixed else data.H[:, :0]
    X, H, t, y = (col[-SLIDING_WINDOW:] for col in (data.X, H, data.t, normalize_rewards(data)))
    cached = theta_cache.get(key)
    model = GPModel(X, H, t, y, cached[0] if cached is not None else GPHyperparams())
    if cached is not None and t_round - cached[1] < REFIT_EVERY:
        return model
    theta = fit(model, seed=seed)
    theta_cache[key] = (theta, t_round)
    return GPModel(X, H, t, y, theta)


def _explore_pb2(data: Dataset, bandit: CategoryBandit | None, replaced_agents,
                 space: SearchSpace, t: int, rng, per_arm: bool, *,
                 acq_cfg: AcquisitionConfig, theta_cache: dict) -> list[Config]:
    """The PB2 step shared by pb2-rand, pb2-mult and pb2-mix.

    Categories come first: drawn at random when bandit is None, else by
    `bandit.draw`, which keeps the draw for the caller's `bandit.learn`. The
    data are then split into groups, one per selected arm when per_arm, else
    one group of all rows. In ascending arm order, a group with fewer than 2
    rows (or a space with no continuous parameter) draws x at random; any
    other draws a fit seed, fits a GP and acquires one x per agent in the
    group. A GP over all rows sees the
    categories only when the bandit chose them (pb2-mix); pb2-rand's GP, like
    a per-arm GP, sees x and t alone. The public pb2 entry points pass acq_cfg
    and theta_cache through as keywords. A run passes one theta_cache for all
    its rounds, so each GP reuses its θ between refits (see `_model`).
    Returns the decision, one config per replaced agent.
    """
    B = len(replaced_agents)
    if bandit is None:
        hs = [_sample_h(space, rng) for _ in range(B)]
    else:
        arm_of_agent = bandit.draw(replaced_agents, rng)
        assignments = space.categorical_assignments()
        hs = [assignments[arm] for arm in arm_of_agent]
    mixed = bandit is not None and not per_arm
    groups = {None: list(range(B))}
    if per_arm:
        groups = {}
        for slot, arm in enumerate(arm_of_agent):
            groups.setdefault(arm, []).append(slot)
    params = space.continuous
    xs: list = [None] * B
    for arm, slots in sorted(groups.items()):
        sub = filter_by_category(data, hs[slots[0]]) if per_arm else data
        if len(sub) < 2 or not params:
            for slot in slots:
                xs[slot] = _sample_x(params, rng)
            continue
        model = _model(sub, mixed, theta_cache, arm, t, int(rng.integers(2**31)))
        fixed_h = [space.encode_h(hs[s]) for s in slots] if mixed else None
        picks = select_batch_continuous(model, params, len(slots), t, acq_cfg, rng,
                                        fixed_h=fixed_h)
        for slot, x in zip(slots, picks):
            xs[slot] = tuple(x)
    return [Config(x=x, h=h) for x, h in zip(xs, hs)]


def explore_pb2_rand(data: Dataset, replaced_agents, space: SearchSpace, t: int, rng,
                     **gp_args) -> list[Config]:
    """Random categories; continuous values from a GP that never sees them."""
    return _explore_pb2(data, None, replaced_agents, space, t, rng, False, **gp_args)


def explore_pb2_mult(data: Dataset, bandit: CategoryBandit, replaced_agents,
                     space: SearchSpace, t: int, rng, **gp_args) -> list[Config]:
    """Bandit-selected categories, one GP per category on its filtered data.

    The bandit keeps its draw; the caller feeds the realized rewards back
    through `bandit.learn`.
    """
    return _explore_pb2(data, bandit, replaced_agents, space, t, rng, True, **gp_args)


def explore_pb2_mix(data: Dataset, bandit: CategoryBandit, replaced_agents,
                    space: SearchSpace, t: int, rng, **gp_args) -> list[Config]:
    """Bandit-selected categories; one joint GP with the mixed kernel.

    The batch shares a single hallucination chain; each pick's category is
    fixed in the kernel query. The sum/product mixing weight is fitted by
    maximum likelihood alongside the other hyperparameters.
    """
    return _explore_pb2(data, bandit, replaced_agents, space, t, rng, False, **gp_args)


def check_truncation(B: int, quantile: float) -> int:
    """How many agents truncation selection replaces, ceil(quantile * B); a
    ValueError unless that many losers and as many winners do not overlap."""
    if B < 2:
        raise ValueError(f"B must be >= 2, got {B}")
    if not 0.0 < quantile <= 0.5:
        raise ValueError(f"quantile must be in (0, 0.5], got {quantile}")
    n = math.ceil(quantile * B)
    if 2 * n > B:
        raise ValueError(f"quantile {quantile} with B={B}: its {n} losers and {n} winners overlap")
    return n


def exploit_truncation(scores, quantile: float, rng) -> list[tuple[int, int]]:
    """Pair each bottom-quantile agent with a random top-quantile agent.

    Ranking is by score descending with ties broken by agent index. Returns
    (loser, winner) index pairs for exactly ceil(quantile * B) replacements.
    """
    B = len(scores)
    n = check_truncation(B, quantile)
    order = sorted(range(B), key=lambda i: (-scores[i], i))
    top = order[:n]
    bottom = order[-n:]
    return [(loser, top[rng.integers(n)]) for loser in sorted(bottom)]
