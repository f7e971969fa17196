import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popbandit.acquisition import AcquisitionConfig
from popbandit.harness import (
    OBJECTIVES,
    SyntheticObjective,
    bandit_sim,
    bernoulli_swap_table,
    changepoint_objective,
    run_experiment,
    sincos_objective,
    sincos_space,
)
from popbandit.space import (
    CategoricalParam,
    Config,
    ContinuousParam,
    SearchSpace,
    validate_config,
)
from popbandit.strategies import StrategyKind

FAST_ACQ = AcquisitionConfig(n_candidates=50, n_refine_steps=3)


class TestObjectives:
    def test_sincos_values(self):
        obj = sincos_objective()
        assert obj.evaluate(Config((math.pi / 2,), ("sin",)), 1) == pytest.approx(1.0)
        assert obj.evaluate(Config((0.0,), ("cos",)), 1) == pytest.approx(1.0)
        assert obj.evaluate(Config((0.0,), ("sin",)), 1) == pytest.approx(0.0)
        assert obj.optimum(1) == 1.0

    def test_changepoint_swaps_once(self):
        obj = changepoint_objective(V=1, T=50)
        cfg = Config((math.pi / 2,), ("sin",))
        assert obj.evaluate(cfg, 1) == pytest.approx(1.0)
        # After the midpoint swap, the sin label evaluates the cos branch.
        assert obj.evaluate(cfg, 25) == pytest.approx(math.cos(math.pi / 2))
        assert obj.evaluate(cfg, 50) == pytest.approx(math.cos(math.pi / 2))

    def test_changepoint_two_swaps(self):
        obj = changepoint_objective(V=2, T=30)
        cfg = Config((math.pi / 2,), ("sin",))
        assert obj.evaluate(cfg, 1) == pytest.approx(1.0)
        assert obj.evaluate(cfg, 10) == pytest.approx(0.0, abs=1e-12)
        assert obj.evaluate(cfg, 20) == pytest.approx(1.0)

    def test_registry(self):
        assert set(OBJECTIVES) == {"sincos", "sincos-switch"}
        assert OBJECTIVES["sincos-switch"](V=1, T=50).name == "sincos-switch"

    @pytest.mark.parametrize("objective", [sincos_objective(),
                                           changepoint_objective(V=2, T=30)])
    def test_objectives_pickle(self, objective):
        # Seed workers receive the objective through a process pool.
        clone = pickle.loads(pickle.dumps(objective))
        cfg = Config((0.3,), ("sin",))
        for round_ in (1, 10, 20):
            assert clone.evaluate(cfg, round_) == objective.evaluate(cfg, round_)
        assert clone.optimum(5) == 1.0

    def test_invalid_changepoint_count(self):
        with pytest.raises(ValueError):
            changepoint_objective(V=50, T=50)


class TestRunExperiment:
    def test_row_count_and_schema(self):
        rec = run_experiment(sincos_space(), sincos_objective(),
                             StrategyKind.RANDOM, B=2, T_rounds=1, seed=0)
        assert len(rec.rows) == 2
        assert len(rec.cum_regret) == 1
        row = rec.rows[0]
        assert set(row) == {"round", "agent", "strategy", "seed", "h", "x",
                            "f", "regret", "cum_regret"}
        assert row["strategy"] == "random"
        assert row["regret"] == pytest.approx(1.0 - row["f"])

    def test_deterministic_given_seed(self):
        a = run_experiment(sincos_space(), sincos_objective(),
                           StrategyKind.PBT, B=4, T_rounds=5, seed=3)
        b = run_experiment(sincos_space(), sincos_objective(),
                           StrategyKind.PBT, B=4, T_rounds=5, seed=3)
        assert a.rows == b.rows
        assert a.cum_regret == b.cum_regret

    def test_cum_regret_nondecreasing(self):
        rec = run_experiment(sincos_space(), sincos_objective(),
                             StrategyKind.RANDOM, B=4, T_rounds=20, seed=1)
        diffs = np.diff([0.0] + rec.cum_regret)
        assert np.all(diffs >= -1e-12)

    def test_random_regret_near_uniform_mean(self):
        # Uniform x on [0, pi/2] gives mean f = 2/pi for either category.
        recs = [run_experiment(sincos_space(), sincos_objective(),
                               StrategyKind.RANDOM, B=4, T_rounds=50, seed=s)
                for s in range(5)]
        per_round = np.mean([r.final_cum_regret() / 50 for r in recs])
        assert per_round == pytest.approx(1.0 - 2.0 / math.pi, abs=0.03)

    def test_pbt_beats_random(self):
        random_cr = np.mean([
            run_experiment(sincos_space(), sincos_objective(),
                           StrategyKind.RANDOM, B=4, T_rounds=30, seed=s).final_cum_regret()
            for s in range(3)
        ])
        pbt_cr = np.mean([
            run_experiment(sincos_space(), sincos_objective(),
                           StrategyKind.PBT, B=4, T_rounds=30, seed=s).final_cum_regret()
            for s in range(3)
        ])
        assert pbt_cr < random_cr

    @pytest.mark.parametrize("strategy", [StrategyKind.PB2_RAND,
                                          StrategyKind.PB2_MULT,
                                          StrategyKind.PB2_MIX])
    def test_gp_strategies_run_and_are_deterministic(self, strategy):
        kwargs = dict(B=4, T_rounds=4, seed=0, acq_cfg=FAST_ACQ)
        a = run_experiment(sincos_space(), sincos_objective(), strategy, **kwargs)
        b = run_experiment(sincos_space(), sincos_objective(), strategy, **kwargs)
        assert a.rows == b.rows
        assert len(a.rows) == 16

    def test_population_too_small(self):
        with pytest.raises(ValueError):
            run_experiment(sincos_space(), sincos_objective(),
                           StrategyKind.RANDOM, B=1, T_rounds=5)


@st.composite
def small_spaces(draw):
    n_cont = draw(st.integers(0, 2))
    n_cat = draw(st.integers(0 if n_cont else 1, 2))
    continuous = []
    for i in range(n_cont):
        lower = draw(st.floats(-2.0, 2.0))
        continuous.append(ContinuousParam(f"x{i}", lower, lower + draw(st.floats(0.1, 3.0))))
    categorical = []
    for i in range(n_cat):
        n_choices = draw(st.integers(2, 3))
        categorical.append(CategoricalParam(f"h{i}", tuple(f"c{k}" for k in range(n_choices))))
    return SearchSpace(tuple(continuous), tuple(categorical))


class TestEveryAcceptedSpaceRuns:
    @settings(max_examples=150, deadline=None)
    @given(space=small_spaces(), strategy=st.sampled_from(list(StrategyKind)),
           B=st.integers(2, 5), T=st.integers(1, 4), quantile=st.sampled_from([0.25, 0.5]),
           seed=st.integers(0, 2**16))
    def test_completes_or_refuses_before_round_one(self, space, strategy, B, T, quantile, seed):
        calls = []

        def evaluate(config, round_):
            # Works on any space: a smooth term per continuous value, a bonus per first label.
            calls.append(round_)
            return (sum(math.sin(v) for v in config.x)
                    + sum(0.3 for p, label in zip(space.categorical, config.h)
                          if label == p.choices[0]))

        objective = SyntheticObjective("any-space", evaluate, lambda _round: 5.0)
        try:
            record = run_experiment(space, objective, strategy, B, T, quantile=quantile,
                                    seed=seed, acq_cfg=FAST_ACQ)
        except ValueError:
            assert calls == []
            return
        assert len(record.cum_regret) == T and len(record.rows) == B * T
        for row in record.rows:
            h = tuple(row["h"].split("|")) if space.categorical else ()
            assert validate_config(space, Config(row["x"], h))


class TestBernoulliSwapTable:
    def test_stationary(self):
        table = bernoulli_swap_table(0.9, 0.1, T=10, V=0)
        assert table.shape == (10, 2)
        assert np.all(table[:, 0] == 0.9)
        assert np.all(table[:, 1] == 0.1)

    def test_single_swap_at_midpoint(self):
        table = bernoulli_swap_table(0.9, 0.1, T=10, V=1)
        assert np.all(table[:4, 0] == 0.9)
        assert np.all(table[4:, 1] == 0.9)
        assert np.all(table[4:, 0] == 0.1)

    def test_row_contains_exactly_one_best(self):
        table = bernoulli_swap_table(0.8, 0.2, T=30, V=3, C=4)
        assert np.all(np.sum(table == 0.8, axis=1) == 1)


class TestBanditSim:
    def test_output_shapes(self):
        table = bernoulli_swap_table(0.9, 0.1, T=40, V=0)
        res = bandit_sim(table, B=1, seeds=range(5))
        assert res.per_round_regret.shape == (40,)
        assert res.cum_regret.shape == (40,)
        assert res.inclusion_freq.shape == (40, 2)
        assert np.all(res.inclusion_freq.sum(axis=1) == pytest.approx(1.0))

    def test_regret_shrinks_on_stationary_instance(self):
        table = bernoulli_swap_table(0.9, 0.1, T=500, V=0)
        res = bandit_sim(table, B=1, seeds=range(20))
        early = res.per_round_regret[:125].mean()
        late = res.per_round_regret[250:].mean()
        assert late < early

    def test_full_play_zero_regret(self):
        table = bernoulli_swap_table(0.9, 0.1, T=20, V=0)
        res = bandit_sim(table, B=2, seeds=range(3))
        assert np.all(res.per_round_regret == 0.0)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            bandit_sim(np.array([[1.2, 0.1]]), B=1, seeds=[0])
        with pytest.raises(ValueError):
            bandit_sim(np.array([[np.nan, 0.1]]), B=1, seeds=[0])
