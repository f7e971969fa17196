"""Population simulation loop over synthetic objectives, with regret accounting.

Each round every agent is evaluated, the worst agents copy the best
(truncation selection), replaced agents receive fresh configurations from the
chosen explore strategy, and category rewards from the previous selection feed
the bandit before the next one. Also includes a standalone bandit simulator
for piecewise-stationary reward instances.
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


def sincos_objective() -> SyntheticObjective:
    """f(x, sin) = sin(x), f(x, cos) = cos(x); maximum 1 at every round."""
    return SyntheticObjective("sincos", _SinCosEvaluate(), _optimum_one)


def changepoint_objective(V: int, T: int) -> SyntheticObjective:
    """sin/cos objective whose optimal category swaps at V evenly spaced rounds."""
    if not 0 <= V < T:
        raise ValueError("need 0 <= V < T")
    swap_points = tuple(T * v // (V + 1) for v in range(1, V + 1))
    return SyntheticObjective("sincos-switch", _SinCosEvaluate(swap_points), _optimum_one)


OBJECTIVES: dict[str, Callable[..., SyntheticObjective]] = {
    "sincos": lambda **_kw: sincos_objective(),
    "sincos-switch": lambda V=1, T=50, **_kw: changepoint_objective(V, T),
}

# The keyword arguments each objective takes from a config's objective_args;
# T always comes from the run's round count.
OBJECTIVE_ARGS: dict[str, frozenset[str]] = {
    "sincos": frozenset(),
    "sincos-switch": frozenset({"V"}),
}


@dataclass
class RunRecord:
    strategy: str
    seed: int
    rows: list[dict] = field(default_factory=list)
    cum_regret: list[float] = field(default_factory=list)

    def final_cum_regret(self) -> float:
        return self.cum_regret[-1] if self.cum_regret else 0.0


def run_experiment(
    space: SearchSpace,
    objective: SyntheticObjective,
    strategy: StrategyKind,
    B: int,
    T_rounds: int,
    quantile: float = 0.25,
    seed: int = 0,
    acq_cfg: AcquisitionConfig | None = None,
    gp_restarts: int = 1,
) -> RunRecord:
    """Run the full exploit/explore loop; deterministic given the seed.

    Rewards fed back to the bandit are normalized population rewards of the
    agents that ran each selected category, applied one round after selection.
    The random-search baseline resamples every agent every round (so its
    per-round regret stays at the uniform-draw mean). GP hyperparameters are
    refitted every `strategies.REFIT_EVERY` rounds.
    """
    check_truncation(B, quantile)
    rng = np.random.default_rng(seed)
    acq_cfg = acq_cfg or AcquisitionConfig()

    configs = explore_random(space, B, rng)
    data = Dataset(space)
    record = RunRecord(strategy=strategy.value, seed=seed)

    uses_bandit = strategy in BANDIT_STRATEGIES
    bandit_state = None
    if uses_bandit:
        n_replaced = math.ceil(quantile * B)
        bandit_B = min(n_replaced, space.n_arms)
        bandit_state = bd.new_bandit(space.n_arms, bandit_B, T_rounds)
    pending = None  # (selection, replaced agent indices) awaiting realized rewards
    gp_args = dict(acq_cfg=acq_cfg, restarts=gp_restarts, theta_cache={})

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

        if pending is not None:
            selection, replaced_idx = pending
            norm = normalize_rewards(data)
            base = len(data) - B  # first observation index of this round
            g: dict[int, list[float]] = {}
            for arm, agent_idx in zip(selection.arm_of_agent, replaced_idx):
                g.setdefault(arm, []).append(float(norm[base + agent_idx]))
            g_mean = {arm: float(np.mean(vals)) for arm, vals in g.items()}
            bandit_state = bd.update(bandit_state, set(selection.arms), selection.p,
                                     selection.cap, g_mean)
            pending = None

        pairs = exploit_truncation(fvals, quantile, rng)
        for loser, winner in pairs:
            configs[loser] = configs[winner]
        replaced = [loser for loser, _ in pairs]

        if strategy is StrategyKind.RANDOM:
            decision = explore_random(space, B, rng)
            replaced = list(range(B))
        elif strategy is StrategyKind.PBT:
            parents = [configs[i] for i in replaced]
            decision = explore_pbt(replaced, parents, space, rng)
        elif strategy is StrategyKind.PB2_RAND:
            decision = explore_pb2_rand(data, replaced, space, t, rng, **gp_args)
        else:
            explore = explore_pb2_mult if strategy is StrategyKind.PB2_MULT else explore_pb2_mix
            decision, selection = explore(data, bandit_state, replaced, space, t, rng, **gp_args)
            pending = (selection, replaced)

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
    probs = np.full((T, C), p_worst)
    swap_points = [T * v // (V + 1) for v in range(1, V + 1)]
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
    if np.any(table < 0) or np.any(table > 1):
        raise ValueError("reward probabilities must be in [0, 1]")
    seeds = list(seeds)
    T, C = table.shape
    regret = np.zeros(T)
    inclusion = np.zeros((T, C))
    for seed in seeds:
        rng = np.random.default_rng(seed)
        state = bd.new_bandit(C, B, T)
        for t in range(T):
            arms, p, cap = bd.select_batch(state, rng)
            g = {c: float(rng.random() < table[t, c]) for c in arms}
            best = np.sort(table[t])[::-1][:B].mean()
            got = np.mean([table[t, c] for c in arms])
            regret[t] += best - got
            for c in arms:
                inclusion[t, c] += 1.0
            state = bd.update(state, arms, p, cap, g)
    n = len(seeds)
    regret /= n
    inclusion /= n
    return BanditSimResult(regret, np.cumsum(regret), inclusion)
