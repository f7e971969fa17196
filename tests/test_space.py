import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from popbandit.space import (
    CategoricalParam,
    Config,
    ContinuousParam,
    Dataset,
    Observation,
    SearchSpace,
    filter_by_category,
    normalize_rewards,
    validate_config,
)


def sincos_space():
    return SearchSpace(
        continuous=(ContinuousParam("x", 0.0, math.pi / 2),),
        categorical=(CategoricalParam("h", ("sin", "cos")),),
    )


def make_dataset(rewards, hs=None):
    data = Dataset()
    for i, r in enumerate(rewards):
        h = (hs[i],) if hs else ("sin",)
        data.append(Observation(round=i + 1, agent=0, config=Config((0.5,), h),
                                raw_score=r, reward=r))
    return data


class TestParams:
    def test_continuous_bounds_validation(self):
        with pytest.raises(ValueError):
            ContinuousParam("x", 1.0, 0.5)
        with pytest.raises(ValueError):
            ContinuousParam("x", 0.0, math.inf)

    def test_categorical_needs_two_distinct(self):
        with pytest.raises(ValueError):
            CategoricalParam("h", ("only",))
        with pytest.raises(ValueError):
            CategoricalParam("h", ("a", "a"))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(continuous=(), categorical=())


class TestValidateConfig:
    def test_in_bounds(self):
        assert validate_config(sincos_space(), Config((0.5,), ("sin",)))

    def test_out_of_bounds_x(self):
        assert not validate_config(sincos_space(), Config((2.0,), ("sin",)))

    def test_unknown_label(self):
        assert not validate_config(sincos_space(), Config((0.5,), ("tan",)))

    def test_wrong_arity(self):
        assert not validate_config(sincos_space(), Config((0.5, 0.5), ("sin",)))
        assert not validate_config(sincos_space(), Config((0.5,), ()))

    def test_per_category_dims(self):
        space = SearchSpace(
            continuous=(ContinuousParam("x", 0.0, 1.0),),
            categorical=(CategoricalParam("h", ("a", "b")),),
            per_category_continuous={
                ("a",): (ContinuousParam("u", 0.0, 1.0), ContinuousParam("v", 0.0, 1.0)),
                ("b",): (ContinuousParam("u", 0.0, 1.0),),
            },
        )
        assert validate_config(space, Config((0.1, 0.2), ("a",)))
        assert validate_config(space, Config((0.1,), ("b",)))
        assert not validate_config(space, Config((0.1,), ("a",)))


class TestFilterByCategory:
    def test_filters_in_order(self):
        data = make_dataset([1.0, 2.0, 3.0], hs=["sin", "cos", "sin"])
        sub = filter_by_category(data, ("sin",))
        assert [o.reward for o in sub.observations] == [1.0, 3.0]
        assert [o.round for o in sub.observations] == [1, 3]

    def test_empty_dataset(self):
        assert len(filter_by_category(Dataset(), ("sin",))) == 0

    def test_no_match(self):
        data = make_dataset([1.0], hs=["sin"])
        assert len(filter_by_category(data, ("cos",))) == 0

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        hs = [["sin", "cos"][i] for i in rng.integers(0, 2, size=30)]
        data = make_dataset(list(rng.normal(size=30)), hs=hs)
        merged = (
            [o.reward for o in filter_by_category(data, ("sin",)).observations]
            + [o.reward for o in filter_by_category(data, ("cos",)).observations]
        )
        assert sorted(merged) == sorted(o.reward for o in data.observations)


class TestNormalizeRewards:
    def test_affine_minmax(self):
        data = make_dataset([-2.0, 0.0, 2.0])
        assert normalize_rewards(data).tolist() == [0.0, 0.5, 1.0]

    def test_degenerate_range_maps_to_half(self):
        data = make_dataset([3.0, 3.0, 3.0])
        assert normalize_rewards(data).tolist() == [0.5, 0.5, 0.5]

    def test_unit_range_identity(self):
        data = make_dataset([0.0, 1.0])
        assert normalize_rewards(data).tolist() == [0.0, 1.0]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            normalize_rewards(Dataset())

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_affine_invariance(self, rewards, a, b):
        # Skip ranges so tiny they vanish under the shift's float rounding.
        assume(len(rewards) == 1 or max(rewards) - min(rewards) > 1e-6)
        base = normalize_rewards(make_dataset(rewards))
        scaled = normalize_rewards(make_dataset([a * r + b for r in rewards]))
        assert np.all((base >= 0) & (base <= 1))
        assert np.allclose(base, scaled, atol=1e-6)


class TestDataset:
    def test_rounds_must_not_decrease(self):
        data = make_dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            data.append(Observation(round=0, agent=0,
                                    config=Config((0.5,), ("sin",)),
                                    raw_score=0.0, reward=0.0))

    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf])
    def test_non_finite_reward_rejected(self, reward):
        data = make_dataset([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            data.append(Observation(round=5, agent=0,
                                    config=Config((0.5,), ("sin",)),
                                    raw_score=0.0, reward=reward))
        assert len(data) == 2
        assert data.reward_max == 2.0

    def test_extrema_tracking(self):
        data = make_dataset([3.0, -1.0, 2.0])
        assert data.reward_min == -1.0
        assert data.reward_max == 3.0


class TestJsonLoading:
    def test_round_trip(self):
        doc = """
        {"continuous": [{"name": "x", "lower": 0.0, "upper": 1.5707963}],
         "categorical": [{"name": "h", "choices": ["sin", "cos"]}]}
        """
        space = SearchSpace.from_json(doc)
        assert space.continuous[0].name == "x"
        assert space.categorical[0].choices == ("sin", "cos")
        assert space.n_arms == 2

    def test_arm_indexing(self):
        space = SearchSpace(
            continuous=(),
            categorical=(
                CategoricalParam("a", ("p", "q")),
                CategoricalParam("b", ("u", "v", "w")),
            ),
        )
        assignments = space.categorical_assignments()
        assert len(assignments) == 6
        for i, h in enumerate(assignments):
            assert space.arm_index(h) == i
