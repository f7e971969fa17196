"""Population simulation loop over synthetic objectives, with regret accounting.

Each round every agent is evaluated, the worst agents copy the best
(truncation selection), and replaced agents receive fresh configurations from
the chosen explore strategy. A bandit strategy's `strategies.CategoryBandit`
keeps its draw, and each round's normalized rewards go to its `learn` before
the next draw. Also includes a standalone bandit simulator for
piecewise-stationary reward instances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bandit as bd
from .acquisition import AcquisitionConfig
from .space import (
    CategoricalParam,
    Config,
    ContinuousParam,
    Dataset,
    SearchSpace,
    normalize_rewards,
    validate_config,
)
from .strategies import (
    BANDIT_STRATEGIES,
    CategoryBandit,
    StrategyKind,
    check_truncation,
    exploit_truncation,
    explore_pb2_mix,
    explore_pb2_mult,
    explore_pb2_rand,
    explore_pbt,
    explore_random,
)


@dataclass(frozen=True)
class SyntheticObjective:
    name: str
    evaluate: Callable[[Config, int], float]
    optimum: Callable[[int], float]


def sincos_space() -> SearchSpace:
    return SearchSpace(
        continuous=(ContinuousParam("x", 0.0, math.pi / 2.0),),
        categorical=(CategoricalParam("h", ("sin", "cos")),),
    )


# Objectives are built from module-level callables so that they pickle, which
# the process pool in cli._run_seeds needs.

def _optimum_one(_round: int) -> float:
    return 1.0


@dataclass(frozen=True)
class _SinCosEvaluate:
    """sin(x) for label "sin", cos(x) for "cos"; the two swap at each swap point."""

    swap_points: tuple[int, ...] = ()

    def __call__(self, config: Config, round_: int) -> float:
        x = config.x[0]
        swapped = sum(1 for s in self.swap_points if round_ >= s) % 2 == 1
        return math.sin(x) if (config.h[0] == "sin") != swapped else math.cos(x)

    @staticmethod
    def check_space(space: SearchSpace, name: str) -> None:
        """A ValueError unless objective `name` scores space's configs and can reach 1 there."""
        if not (space.continuous and space.categorical):
            raise ValueError(f"objective {name!r} needs at least one continuous and one "
                             f"categorical parameter, the space has {len(space.continuous)} "
                             f"and {len(space.categorical)}")
        # Regret is taken against f = 1, which needs both labels and cos(0) or sin(pi/2).
        h, x = space.categorical[0], space.continuous[0]
        if set(h.choices) != {"sin", "cos"}:
            raise ValueError(f"objective {name!r} scores the first categorical's labels, "
                             f"so its choices must be 'sin' and 'cos', got {list(h.choices)}")
        if not (x.lower <= 0.0 <= x.upper or x.lower <= math.pi / 2 <= x.upper):
            raise ValueError(f"objective {name!r} reaches its optimum 1 only at x = 0 or "
                             f"pi/2, so the first continuous range must contain one of them, "
                             f"got [{x.lower!r}, {x.upper!r}]")


def sincos_objective() -> SyntheticObjective:
    """f(x, sin) = sin(x), f(x, cos) = cos(x); maximum 1 at every round."""
    return SyntheticObjective("sincos", _SinCosEvaluate(), _optimum_one)


def _swap_rounds(V: int, T: int) -> tuple[int, ...]:
    """The V evenly spaced rounds in 1..T-1 from which the best category or arm changes."""
    if not 0 <= V < T:
        raise ValueError("need 0 <= V < T")
    return tuple(T * v // (V + 1) for v in range(1, V + 1))


def changepoint_objective(V: int, T: int) -> SyntheticObjective:
    """sin/cos objective whose optimal category swaps at V evenly spaced rounds."""
    return SyntheticObjective("sincos-switch", _SinCosEvaluate(_swap_rounds(V, T)), _optimum_one)


OBJECTIVES: dict[str, Callable[..., SyntheticObjective]] = {
    "sincos": lambda **_kw: sincos_objective(),
    "sincos-switch": lambda T, V=1, **_kw: changepoint_objective(V, T),
}

# The keyword arguments each objective takes besides the round count T, and their types.
OBJECTIVE_ARGS: dict[str, dict[str, type]] = {
    "sincos": {},
    "sincos-switch": {"V": int},
}


@dataclass
class RunRecord:
    strategy: str
    seed: int
    rows: list[dict] = field(default_factory=list)
    cum_regret: list[float] = field(default_factory=list)


def check_run(space: SearchSpace, objective: SyntheticObjective, strategy: StrategyKind,
              B: int, T_rounds: int, quantile: float) -> int:
    """How many agents each exploit step replaces; the ValueError of a run that
    `run_experiment` refuses."""
    if T_rounds < 1:
        raise ValueError(f"T_rounds must be >= 1, got {T_rounds}")
    n_replaced = check_truncation(B, quantile)
    if strategy in BANDIT_STRATEGIES and space.n_arms < 2:
        raise ValueError(f"strategy {strategy.value!r} needs at least 2 categorical arms, "
                         f"the space has {space.n_arms}")
    if isinstance(objective.evaluate, _SinCosEvaluate):
        objective.evaluate.check_space(space, objective.name)
    return n_replaced


def run_experiment(
    space: SearchSpace,
    objective: SyntheticObjective,
    strategy: StrategyKind,
    B: int,
    T_rounds: int,
    quantile: float = 0.25,
    seed: int = 0,
    acq_cfg: AcquisitionConfig | None = None,
) -> RunRecord:
    """Run the full exploit/explore loop; deterministic given the seed.

    Before any agent is evaluated, `check_run` refuses with a ValueError a
    run of fewer than 1 round, truncation sets that overlap (see
    `check_truncation`), a bandit strategy on fewer than 2 arms, and a space
    that a sin/cos objective cannot score or where it cannot reach its
    optimum 1 (see `_SinCosEvaluate.check_space`).
    A bandit strategy's `CategoryBandit` learns each round, before the
    exploit step, from the normalized rewards of the agents it drew categories
    for in the round before (see `CategoryBandit.learn`).
    The random-search baseline resamples every agent every round (so its
    per-round regret stays at the uniform-draw mean). Each GP keeps its
    hyperparameters in one cache for the whole run: it is refitted every
    `strategies.REFIT_EVERY` rounds, warm-started from its last θ, by
    `gp.fit` (one ascent from that θ and one from a random start). The run
    returns as soon as the last round is recorded: no bandit update, exploit
    or explore follows it, since nothing would read their decision.
    """
    n_replaced = check_run(space, objective, strategy, B, T_rounds, quantile)
    rng = np.random.default_rng(seed)
    acq_cfg = acq_cfg or AcquisitionConfig()

    configs = explore_random(space, B, rng)
    data = Dataset(space)
    record = RunRecord(strategy=strategy.value, seed=seed)

    bandit = None
    if strategy in BANDIT_STRATEGIES:
        bandit = CategoryBandit(space.n_arms, n_replaced, T_rounds)
    gp_args = dict(acq_cfg=acq_cfg, theta_cache={})

    cum = 0.0
    for t in range(1, T_rounds + 1):
        fvals = []
        for config in configs:
            f = objective.evaluate(config, t)
            fvals.append(f)
            data.append(t, config, f)
        fstar = objective.optimum(t)
        regrets = [fstar - f for f in fvals]
        cum += float(np.mean(regrets))
        record.cum_regret.append(cum)
        for b, config in enumerate(configs):
            record.rows.append({
                "round": t,
                "agent": b,
                "strategy": strategy.value,
                "seed": seed,
                "h": "|".join(config.h),
                "x": config.x,
                "f": fvals[b],
                "regret": regrets[b],
                "cum_regret": cum,
            })
        if t == T_rounds:
            break

        if bandit is not None:
            bandit.learn(normalize_rewards(data)[-B:])  # this round's rewards, by agent

        pairs = exploit_truncation(fvals, quantile, rng)
        for loser, winner in pairs:
            configs[loser] = configs[winner]
        replaced = [loser for loser, _ in pairs]

        if strategy is StrategyKind.RANDOM:
            decision = explore_random(space, B, rng)
            replaced = list(range(B))
        elif strategy is StrategyKind.PBT:
            parents = [configs[i] for i in replaced]
            decision = explore_pbt(parents, space, rng)
        elif strategy is StrategyKind.PB2_RAND:
            decision = explore_pb2_rand(data, replaced, space, t, rng, **gp_args)
        else:
            explore = explore_pb2_mult if strategy is StrategyKind.PB2_MULT else explore_pb2_mix
            decision = explore(data, bandit, replaced, space, t, rng, **gp_args)

        for idx, config in zip(replaced, decision):
            if not validate_config(space, config):
                raise RuntimeError(f"strategy produced an invalid config: {config}")
            configs[idx] = config

    return record


# ---------------------------------------------------------------------------
# Standalone bandit diagnostics
# ---------------------------------------------------------------------------

def bernoulli_swap_table(p_best: float, p_worst: float, T: int, V: int = 0,
                         C: int = 2) -> np.ndarray:
    """(T, C) reward-probability table; the best arm rotates at V evenly spaced rounds."""
    swap_points = _swap_rounds(V, T)
    probs = np.full((T, C), p_worst)
    for t in range(T):
        n_swaps = sum(1 for s in swap_points if (t + 1) >= s)
        probs[t, n_swaps % C] = p_best
    return probs


@dataclass
class BanditSimResult:
    per_round_regret: np.ndarray  # (T,) mean over seeds, vs per-round best arms
    cum_regret: np.ndarray  # (T,)
    inclusion_freq: np.ndarray  # (T, C) mean over seeds


def bandit_sim(table: np.ndarray, B: int, seeds) -> BanditSimResult:
    """Run TV.EXP3.M on a reward-probability table; report pseudo-regret stats."""
    table = np.asarray(table, dtype=float)
    # Written so that NaN fails it, with no T x C temporary.
    if not (table.min() >= 0 and table.max() <= 1):
        raise ValueError("reward probabilities must be in [0, 1]")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    T, C = table.shape
    regret = np.zeros(T)
    # The table is sorted in inclusion's buffer: a separate T x C temporary
    # raised peak RSS by its size (1 MB at T=2000, C=64), as freed heap memory
    # stays resident.
    inclusion = np.sort(table, axis=1)
    # Each round's mean of its B best probabilities, summed in descending order.
    best = inclusion[:, ::-1][:, :B].mean(axis=1)
    inclusion.fill(0.0)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        state = bd.new_bandit(C, B, T)
        for t in range(T):
            arms, p, cap = bd.select_batch(state, rng)
            # The picked arms' Bernoulli rewards, one uniform each in the set's order.
            picked = list(arms)
            probs = table[t, picked]
            g = {c: float(u < v) for c, u, v in
                 zip(picked, rng.random(len(picked)).tolist(), probs.tolist())}
            # The pairwise sum that np.mean makes, in the same order.
            regret[t] += best[t] - np.add.reduce(probs) / len(picked)
            inclusion[t, picked] += 1.0
            state = bd.update(state, arms, p, cap, g)
    n = len(seeds)
    regret /= n
    inclusion /= n
    return BanditSimResult(regret, np.cumsum(regret), inclusion)
