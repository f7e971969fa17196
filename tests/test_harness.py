import collections
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popbandit import cli, harness
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
from popbandit.strategies import BANDIT_STRATEGIES, StrategyKind

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


class TestSwapRounds:
    """The one change-point schedule of `changepoint_objective` and `bernoulli_swap_table`."""

    @pytest.mark.parametrize("T", [4, 10])
    @pytest.mark.parametrize("V_of_T", [lambda T: -1, lambda T: T, lambda T: T + 3],
                             ids=["-1", "T", "T+3"])
    def test_v_outside_the_rounds_is_refused(self, T, V_of_T):
        # The table used to build with arm 0 never best (V > T) or with no swap (V = -1).
        for build in (changepoint_objective, lambda V, T: bernoulli_swap_table(0.9, 0.1, T, V)):
            with pytest.raises(ValueError, match="need 0 <= V < T"):
                build(V_of_T(T), T)

    @pytest.mark.parametrize("V, T", [(1, 2), (1, 10), (2, 30), (3, 18), (4, 9), (6, 7)])
    def test_objective_swaps_where_the_tables_best_arm_moves(self, V, T):
        objective = changepoint_objective(V, T)
        table = bernoulli_swap_table(0.9, 0.1, T, V=V)
        sin_top = Config((math.pi / 2,), ("sin",))
        sin_best = [objective.evaluate(sin_top, t) > 0.5 for t in range(1, T + 1)]
        assert sin_best == [bool(table[t, 0] == 0.9) for t in range(T)]
        assert not all(sin_best)


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
        per_round = np.mean([r.cum_regret[-1] / 50 for r in recs])
        assert per_round == pytest.approx(1.0 - 2.0 / math.pi, abs=0.03)

    def test_pbt_beats_random(self):
        random_cr = np.mean([
            run_experiment(sincos_space(), sincos_objective(),
                           StrategyKind.RANDOM, B=4, T_rounds=30, seed=s).cum_regret[-1]
            for s in range(3)
        ])
        pbt_cr = np.mean([
            run_experiment(sincos_space(), sincos_objective(),
                           StrategyKind.PBT, B=4, T_rounds=30, seed=s).cum_regret[-1]
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

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    @pytest.mark.parametrize("T", [1, 3])
    def test_no_decision_after_the_last_round(self, monkeypatch, strategy, T):
        calls = collections.Counter()

        def counted(name):
            real = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls["explore" if name.startswith("explore") else name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(harness, name, wrapper)

        for name in ("explore_random", "explore_pbt", "explore_pb2_rand", "explore_pb2_mult",
                     "explore_pb2_mix", "exploit_truncation"):
            counted(name)
        real_learn = harness.CategoryBandit.learn

        def learn(self, rewards):
            calls["learn"] += 1
            real_learn(self, rewards)
        monkeypatch.setattr(harness.CategoryBandit, "learn", learn)
        rec = run_experiment(sincos_space(), sincos_objective(), strategy, B=4, T_rounds=T,
                             seed=0, acq_cfg=FAST_ACQ)
        assert len(rec.cum_regret) == T
        # The initial population, then one explore and one exploit per round but the last.
        assert calls["explore"] == 1 + (T - 1)
        assert calls["exploit_truncation"] == T - 1
        assert calls["learn"] == (T - 1 if strategy in BANDIT_STRATEGIES else 0)

    def test_population_too_small(self):
        with pytest.raises(ValueError):
            run_experiment(sincos_space(), sincos_objective(),
                           StrategyKind.RANDOM, B=1, T_rounds=5)


SINCOS_DOC = {"continuous": [{"name": "x", "lower": 0.0, "upper": math.pi / 2}],
              "categorical": [{"name": "h", "choices": ["sin", "cos"]}]}
NO_CATEGORICAL_DOC = {"continuous": SINCOS_DOC["continuous"]}


class TestRunRefusedBeforeAnyEvaluation:
    """run_experiment refuses each run that `cli` refuses, with its message."""

    @pytest.mark.parametrize("fields, message", [
        ({"T_rounds": 0}, "T_rounds must be >= 1, got 0"),
        ({"B": 3, "quantile": 0.5}, "quantile 0.5 with B=3: its 2 losers and 2 winners overlap"),
        ({"strategy": "pb2-mult", "space": NO_CATEGORICAL_DOC},
         "strategy 'pb2-mult' needs at least 2 categorical arms, the space has 1"),
        ({"space": NO_CATEGORICAL_DOC}, "objective 'sincos' needs at least one continuous "
         "and one categorical parameter, the space has 1 and 0"),
        ({"strategy": "pb2-mult", "space": {**SINCOS_DOC, "categorical": [
            {"name": "h", "choices": ["a", "b"]}]}},
         "objective 'sincos' scores the first categorical's labels, so its choices must be "
         "'sin' and 'cos', got ['a', 'b']"),
        ({"strategy": "pb2-mult", "objective": "sincos-switch", "space": {
            **SINCOS_DOC, "continuous": [{"name": "x", "lower": 2.0, "upper": 3.0}]}},
         "objective 'sincos-switch' reaches its optimum 1 only at x = 0 or pi/2, so the first "
         "continuous range must contain one of them, got [2.0, 3.0]"),
    ], ids=["rounds", "overlap", "arms", "no-categorical", "labels", "range"])
    def test_refused_with_the_config_error_message(self, tmp_path, capsys, monkeypatch,
                                                   fields, message):
        doc = {"space": SINCOS_DOC, "objective": "sincos", "strategy": "random", "seeds": [0],
               "B": 4, "T_rounds": 5, "output": str(tmp_path / "out"), **fields}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert cli.main(["run", str(tmp_path / "config.json")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

        calls = []
        evaluate = harness._SinCosEvaluate.__call__
        monkeypatch.setattr(harness._SinCosEvaluate, "__call__",
                            lambda self, *args: calls.append(args) or evaluate(self, *args))
        objective = OBJECTIVES[doc["objective"]](T=doc["T_rounds"])
        with pytest.raises(ValueError) as refused:
            run_experiment(cli._space(doc["space"]), objective,
                           StrategyKind.from_name(doc["strategy"]), doc["B"], doc["T_rounds"],
                           quantile=doc.get("quantile", 0.25), acq_cfg=FAST_ACQ)
        assert str(refused.value) == message
        assert calls == []


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

    def test_rejects_no_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            bandit_sim(bernoulli_swap_table(0.9, 0.1, T=10), B=1, seeds=[])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            bandit_sim(np.array([[1.2, 0.1]]), B=1, seeds=[0])
        with pytest.raises(ValueError):
            bandit_sim(np.array([[np.nan, 0.1]]), B=1, seeds=[0])
