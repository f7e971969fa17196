import math

import numpy as np
import pytest

from popbandit import bandit as bd
from popbandit import strategies
from popbandit.acquisition import AcquisitionConfig
from popbandit.gp import SLIDING_WINDOW, GPHyperparams, GPModel, fit
from popbandit.space import (
    CategoricalParam,
    Config,
    ContinuousParam,
    Dataset,
    SearchSpace,
    validate_config,
)
from popbandit.strategies import (
    CategoryBandit,
    StrategyKind,
    check_truncation,
    exploit_truncation,
    explore_pb2_mix,
    explore_pb2_mult,
    explore_pb2_rand,
    explore_pbt,
    explore_random,
    sample_config,
)


def sincos_space():
    return SearchSpace(
        continuous=(ContinuousParam("x", 0.0, math.pi / 2.0),),
        categorical=(CategoricalParam("h", ("sin", "cos")),),
    )


def seeded_dataset(space, rng, n_rounds=6, B=4):
    data = Dataset(space)
    for t in range(1, n_rounds + 1):
        for b in range(B):
            cfg = sample_config(space, rng)
            f = math.sin(cfg.x[0]) if cfg.h[0] == "sin" else math.cos(cfg.x[0])
            data.append(t, cfg, f)
    return data


ACQ = AcquisitionConfig(n_candidates=100, n_refine_steps=5)


class TestStrategyKind:
    def test_round_trip_names(self):
        for kind in StrategyKind:
            assert StrategyKind.from_name(kind.value) is kind

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            StrategyKind.from_name("pb3")


class TestExploreRandom:
    def test_valid_and_varied(self):
        space = sincos_space()
        rng = np.random.default_rng(0)
        configs = explore_random(space, 50, rng)
        assert len(configs) == 50
        assert all(validate_config(space, c) for c in configs)
        assert len({c.h for c in configs}) == 2  # both categories appear

    def test_uniform_x_statistics(self):
        space = sincos_space()
        rng = np.random.default_rng(1)
        xs = [c.x[0] for c in explore_random(space, 4000, rng)]
        assert np.mean(xs) == pytest.approx(math.pi / 4.0, abs=0.03)


class TestExplorePbt:
    def test_perturbation_statistics(self):
        space = sincos_space()
        rng = np.random.default_rng(2)
        parent = Config((0.5,), ("sin",))
        factor_hits = 0
        resamples = 0
        n = 5000
        for _ in range(n):
            child = explore_pbt([parent], space, rng)[0]
            if math.isclose(child.x[0], 0.4) or math.isclose(child.x[0], 0.6):
                factor_hits += 1
            else:
                resamples += 1
        assert factor_hits / n == pytest.approx(0.75, abs=0.02)
        assert resamples / n == pytest.approx(0.25, abs=0.02)

    def test_perturbed_values_clipped(self):
        space = sincos_space()
        rng = np.random.default_rng(3)
        parent = Config((math.pi / 2.0,), ("cos",))
        for _ in range(200):
            child = explore_pbt([parent], space, rng)[0]
            assert validate_config(space, child)

    def test_category_resample_rate(self):
        space = sincos_space()
        rng = np.random.default_rng(4)
        parent = Config((0.5,), ("sin",))
        flips = sum(
            explore_pbt([parent], space, rng)[0].h[0] == "cos"
            for _ in range(8000)
        )
        # Resampled with prob 0.25, then lands on the other label half the time.
        assert flips / 8000 == pytest.approx(0.125, abs=0.02)


class TestExplorePb2Rand:
    def test_cold_start_random(self):
        space = sincos_space()
        rng = np.random.default_rng(5)
        out = explore_pb2_rand(Dataset(space), [0, 1], space, 1, rng, acq_cfg=ACQ, theta_cache={})
        assert len(out) == 2
        assert all(validate_config(space, c) for c in out)

    def test_warm_configs_valid(self):
        space = sincos_space()
        rng = np.random.default_rng(6)
        data = seeded_dataset(space, rng)
        out = explore_pb2_rand(data, [0, 1, 2], space, 7, rng, acq_cfg=ACQ, theta_cache={})
        assert len(out) == 3
        assert all(validate_config(space, c) for c in out)


class TestFittedModel:
    @pytest.mark.parametrize("m", [0, 1])
    def test_holds_the_theta_a_fit_on_the_arrays_gives(self, m):
        space = sincos_space()
        data = seeded_dataset(space, np.random.default_rng(8), n_rounds=8)
        model = strategies._model(data, bool(m), {}, None, 9, seed=3)
        y = strategies.normalize_rewards(data)
        H = data.H[:, :m]
        expected = fit(GPModel(data.X, H, data.t, y, GPHyperparams()), seed=3)
        assert model.theta == expected
        assert model.n == 32 and model.mixed == bool(m)
        assert model.H.tolist() == H.tolist() and model.y.tolist() == y.tolist()

    def test_theta_cache_refits_every_few_rounds(self, monkeypatch):
        space = sincos_space()
        data = seeded_dataset(space, np.random.default_rng(9))
        fits = []
        real = strategies.fit

        def counting_fit(model, **kwargs):
            fits.append(model.theta)
            return real(model, **kwargs)

        monkeypatch.setattr(strategies, "fit", counting_fit)
        cache = {}
        thetas = [strategies._model(data, False, cache, 0, t, seed=t).theta
                  for t in range(1, 12)]
        # Fits at rounds 1, 6 and 11; the rounds between reuse the last theta.
        assert len(fits) == 3 and fits[0] == GPHyperparams()
        assert fits[1] == thetas[0] and fits[2] == thetas[5]
        assert thetas[1:5] == [thetas[0]] * 4 and cache[0][1] == 11

    @pytest.mark.parametrize("m", [0, 1])
    def test_holds_the_last_window_of_rows(self, m):
        space = sincos_space()
        rng = np.random.default_rng(10)
        data = Dataset(space)
        n = SLIDING_WINDOW + 10
        for t in range(1, n + 1):
            # The largest reward lies before the window: only a normalization over all rows reads it.
            data.append(t, sample_config(space, rng), 2.0 if t == 1 else float(rng.uniform()))
        model = strategies._model(data, bool(m), {}, None, n + 1, seed=0)
        reward = data.reward
        y = (reward - reward.min()) / (reward.max() - reward.min())
        assert model.n == SLIDING_WINDOW and model.y.max() < 1.0
        assert model.y.tolist() == y[10:].tolist()
        assert model.X.tolist() == data.X[10:].tolist()
        assert model.H.tolist() == data.H[10:, :m].tolist()
        assert model.t.tolist() == data.t[10:].tolist()


class TestCategoryBandit:
    def test_plays_at_most_one_arm_per_agent(self):
        assert CategoryBandit(3, 5, 10).state.B == 3
        assert CategoryBandit(5, 2, 10).state.B == 2

    def test_learn_before_any_draw_changes_nothing(self):
        bandit = CategoryBandit(3, 2, 10)
        weights = bandit.state.weights.copy()
        bandit.learn([1.0, 0.0, 1.0])
        assert bandit.state.weights.tobytes() == weights.tobytes()
        assert bandit.state.round == 0

    def test_draw_cycles_through_the_arms_in_ascending_order(self):
        bandit = CategoryBandit(5, 2, 10)
        agents = [4, 1, 3, 0, 2]
        arm_of_agent = bandit.draw(agents, np.random.default_rng(0))
        low, high = sorted(bandit.arms)
        assert arm_of_agent == (low, high, low, high, low)
        assert bandit.arm_of_agent == arm_of_agent and bandit.agents == tuple(agents)

    def test_learn_updates_with_each_arms_mean_reward(self):
        bandit = CategoryBandit(5, 2, 10)
        rng = np.random.default_rng(1)
        for rewards in ([0.1, 0.9, 0.4, 0.7], [0.3, 0.2, 1.0, 0.6]):
            low, high, _ = bandit.draw([2, 0, 3], rng)  # agents 2 and 3 share the low arm
            before = bandit.state
            expected = bd.update(before, bandit.arms, bandit.p, bandit.cap,
                                 {low: float(np.mean([rewards[2], rewards[3]])),
                                  high: rewards[0]})
            bandit.learn(rewards)
            assert bandit.state.weights.tobytes() == expected.weights.tobytes()
            assert bandit.state.round == before.round + 1


class TestExplorePb2Mult:
    def test_draws_categories_and_partitions_by_arm(self):
        space = sincos_space()
        rng = np.random.default_rng(7)
        data = seeded_dataset(space, rng)
        bandit = CategoryBandit(space.n_arms, 2, 20)
        decision = explore_pb2_mult(data, bandit, [0, 1], space, 7, rng,
                                    acq_cfg=ACQ, theta_cache={})
        assert len(decision) == 2
        assert bandit.agents == (0, 1) and set(bandit.arm_of_agent) <= bandit.arms
        assignments = space.categorical_assignments()
        for cfg, arm in zip(decision, bandit.arm_of_agent):
            assert cfg.h == assignments[arm]
            assert validate_config(space, cfg)

    def test_sparse_category_falls_back_to_random(self):
        space = sincos_space()
        rng = np.random.default_rng(8)
        data = Dataset(space)
        # Only sin observations; a cos pick has < 2 filtered points.
        for t in range(1, 5):
            data.append(t, Config((0.3,), ("sin",)), math.sin(0.3))
        decision = explore_pb2_mult(data, CategoryBandit(2, 2, 20), [0, 1], space, 5, rng,
                                    acq_cfg=ACQ, theta_cache={})
        assert all(validate_config(space, c) for c in decision)

    def test_cycles_when_more_agents_than_plays(self):
        space = sincos_space()
        rng = np.random.default_rng(9)
        data = seeded_dataset(space, rng)
        bandit = CategoryBandit(2, 1, 20)
        decision = explore_pb2_mult(data, bandit, [0, 1, 2], space, 7, rng,
                                    acq_cfg=ACQ, theta_cache={})
        assert len(set(bandit.arm_of_agent)) == 1  # single play reused
        assert len({cfg.h for cfg in decision}) == 1 and len(decision) == 3


class TestExplorePb2Mix:
    def test_joint_model_configs(self):
        space = sincos_space()
        rng = np.random.default_rng(10)
        data = seeded_dataset(space, rng)
        bandit = CategoryBandit(2, 2, 20)
        decision = explore_pb2_mix(data, bandit, [0, 1], space, 7, rng, acq_cfg=ACQ, theta_cache={})
        assignments = space.categorical_assignments()
        for cfg, arm in zip(decision, bandit.arm_of_agent):
            assert cfg.h == assignments[arm]
            assert validate_config(space, cfg)

    def test_cold_start(self):
        space = sincos_space()
        rng = np.random.default_rng(11)
        bandit = CategoryBandit(2, 2, 20)
        decision = explore_pb2_mix(Dataset(space), bandit, [0, 1], space, 1, rng,
                                   acq_cfg=ACQ, theta_cache={})
        assert all(validate_config(space, c) for c in decision)
        assert len(bandit.arm_of_agent) == 2


class TestExploitTruncation:
    def test_quarter_of_four(self):
        rng = np.random.default_rng(0)
        pairs = exploit_truncation([0.9, 0.5, 0.1, 0.7], 0.25, rng)
        assert pairs == [(2, 0)]  # worst copies the single top agent

    def test_quarter_of_twelve(self):
        rng = np.random.default_rng(1)
        scores = list(range(12))
        pairs = exploit_truncation(scores, 0.25, rng)
        losers = [lo for lo, _ in pairs]
        winners = {w for _, w in pairs}
        assert losers == [0, 1, 2]
        assert winners <= {9, 10, 11}

    def test_ties_break_by_index(self):
        rng = np.random.default_rng(2)
        pairs = exploit_truncation([1.0, 1.0, 1.0, 1.0], 0.25, rng)
        # All tied: lowest index ranks first, highest index falls to the bottom.
        assert pairs == [(3, 0)]

    def test_invalid_inputs(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            exploit_truncation([1.0], 0.25, rng)
        with pytest.raises(ValueError):
            exploit_truncation([1.0, 2.0], 0.75, rng)
        with pytest.raises(ValueError, match="overlap"):
            exploit_truncation([1.0, 2.0, 3.0], 0.5, rng)  # the median would win and lose

    @pytest.mark.parametrize("B, quantile, n", [(2, 0.5, 1), (4, 0.5, 2), (12, 0.25, 3),
                                                (16, 0.25, 4), (7, 0.4, 3)])
    def test_replaced_count(self, B, quantile, n):
        assert check_truncation(B, quantile) == n
