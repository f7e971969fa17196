import math

import numpy as np
import pytest

from popbandit import bandit as bd
from popbandit import strategies
from popbandit.acquisition import AcquisitionConfig
from popbandit.gp import GPHyperparams, GPModel, fit
from popbandit.space import (
    CategoricalParam,
    Config,
    ContinuousParam,
    Dataset,
    SearchSpace,
    validate_config,
)
from popbandit.strategies import (
    StrategyKind,
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
            child = explore_pbt([0], [parent], space, rng)[0]
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
            child = explore_pbt([0], [parent], space, rng)[0]
            assert validate_config(space, child)

    def test_category_resample_rate(self):
        space = sincos_space()
        rng = np.random.default_rng(4)
        parent = Config((0.5,), ("sin",))
        flips = sum(
            explore_pbt([0], [parent], space, rng)[0].h[0] == "cos"
            for _ in range(8000)
        )
        # Resampled with prob 0.25, then lands on the other label half the time.
        assert flips / 8000 == pytest.approx(0.125, abs=0.02)


class TestExplorePb2Rand:
    def test_cold_start_random(self):
        space = sincos_space()
        rng = np.random.default_rng(5)
        out = explore_pb2_rand(Dataset(space), [0, 1], space, 1, rng, acq_cfg=ACQ)
        assert len(out) == 2
        assert all(validate_config(space, c) for c in out)

    def test_warm_configs_valid(self):
        space = sincos_space()
        rng = np.random.default_rng(6)
        data = seeded_dataset(space, rng)
        out = explore_pb2_rand(data, [0, 1, 2], space, 7, rng,
                               acq_cfg=ACQ, restarts=0)
        assert len(out) == 3
        assert all(validate_config(space, c) for c in out)


class TestFittedModel:
    @pytest.mark.parametrize("m", [0, 1])
    def test_holds_the_theta_a_fit_on_the_arrays_gives(self, m):
        space = sincos_space()
        data = seeded_dataset(space, np.random.default_rng(8), n_rounds=8)
        model = strategies._model(data, bool(m), None, None, 9, restarts=1, seed=3)
        y = strategies.normalize_rewards(data)
        H = data.H[:, :m]
        expected = fit(GPModel(data.X, H, data.t, y, GPHyperparams()), GPHyperparams(),
                       restarts=1, seed=3)
        assert model.theta == expected
        assert model.n == 32 and model.mixed == bool(m)
        assert model.H.tolist() == H.tolist() and model.y.tolist() == y.tolist()

    def test_theta_cache_refits_every_few_rounds(self, monkeypatch):
        space = sincos_space()
        data = seeded_dataset(space, np.random.default_rng(9))
        fits = []
        real = strategies.fit

        def counting_fit(model, init, **kwargs):
            fits.append(init)
            return real(model, init, **kwargs)

        monkeypatch.setattr(strategies, "fit", counting_fit)
        cache = {}
        thetas = [strategies._model(data, False, cache, 0, t, restarts=0, seed=t).theta
                  for t in range(1, 12)]
        # Fits at rounds 1, 6 and 11; the rounds between reuse the last theta.
        assert len(fits) == 3 and fits[0] == GPHyperparams()
        assert fits[1] == thetas[0] and fits[2] == thetas[5]
        assert thetas[1:5] == [thetas[0]] * 4 and cache[0][1] == 11


class TestExplorePb2Mult:
    def test_returns_selection_and_partitions_by_arm(self):
        space = sincos_space()
        rng = np.random.default_rng(7)
        data = seeded_dataset(space, rng)
        state = bd.new_bandit(space.n_arms, 2, 20)
        decision, selection = explore_pb2_mult(
            data, state, [0, 1], space, 7, rng, acq_cfg=ACQ, restarts=0)
        assert len(decision) == 2
        assert len(selection.arm_of_agent) == 2
        assignments = space.categorical_assignments()
        for cfg, arm in zip(decision, selection.arm_of_agent):
            assert cfg.h == assignments[arm]
            assert validate_config(space, cfg)
        assert set(selection.arm_of_agent) <= set(selection.arms)

    def test_sparse_category_falls_back_to_random(self):
        space = sincos_space()
        rng = np.random.default_rng(8)
        data = Dataset(space)
        # Only sin observations; a cos pick has < 2 filtered points.
        for t in range(1, 5):
            data.append(t, Config((0.3,), ("sin",)), math.sin(0.3))
        state = bd.new_bandit(2, 2, 20)
        decision, _ = explore_pb2_mult(data, state, [0, 1], space, 5, rng,
                                       acq_cfg=ACQ, restarts=0)
        assert all(validate_config(space, c) for c in decision)

    def test_cycles_when_more_agents_than_plays(self):
        space = sincos_space()
        rng = np.random.default_rng(9)
        data = seeded_dataset(space, rng)
        state = bd.new_bandit(2, 1, 20)
        decision, selection = explore_pb2_mult(
            data, state, [0, 1, 2], space, 7, rng, acq_cfg=ACQ, restarts=0)
        assert len(set(selection.arm_of_agent)) == 1  # single play reused
        assert len(decision) == 3


class TestExplorePb2Mix:
    def test_joint_model_configs(self):
        space = sincos_space()
        rng = np.random.default_rng(10)
        data = seeded_dataset(space, rng)
        state = bd.new_bandit(2, 2, 20)
        decision, selection = explore_pb2_mix(
            data, state, [0, 1], space, 7, rng, acq_cfg=ACQ, restarts=0)
        assignments = space.categorical_assignments()
        for cfg, arm in zip(decision, selection.arm_of_agent):
            assert cfg.h == assignments[arm]
            assert validate_config(space, cfg)

    def test_cold_start(self):
        space = sincos_space()
        rng = np.random.default_rng(11)
        state = bd.new_bandit(2, 2, 20)
        decision, selection = explore_pb2_mix(
            Dataset(space), state, [0, 1], space, 1, rng, acq_cfg=ACQ)
        assert all(validate_config(space, c) for c in decision)
        assert len(selection.arm_of_agent) == 2


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
