import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from popbandit.space import (
    CategoricalParam,
    Config,
    ContinuousParam,
    Dataset,
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
    data = Dataset(sincos_space())
    for i, r in enumerate(rewards):
        h = (hs[i],) if hs else ("sin",)
        data.append(i + 1, Config((0.5,), h), r)
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


class TestFilterByCategory:
    def test_filters_in_order(self):
        data = make_dataset([1.0, 2.0, 3.0], hs=["sin", "cos", "sin"])
        sub = filter_by_category(data, ("sin",))
        assert sub.reward.tolist() == [1.0, 3.0]
        assert sub.t.tolist() == [1.0, 3.0]

    def test_empty_dataset(self):
        assert len(filter_by_category(Dataset(sincos_space()), ("sin",))) == 0

    def test_no_match(self):
        data = make_dataset([1.0], hs=["sin"])
        assert len(filter_by_category(data, ("cos",))) == 0

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        hs = [["sin", "cos"][i] for i in rng.integers(0, 2, size=30)]
        data = make_dataset(list(rng.normal(size=30)), hs=hs)
        merged = (
            filter_by_category(data, ("sin",)).reward.tolist()
            + filter_by_category(data, ("cos",)).reward.tolist()
        )
        assert sorted(merged) == sorted(data.reward.tolist())


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
            normalize_rewards(Dataset(sincos_space()))

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
            data.append(0, Config((0.5,), ("sin",)), 0.0)

    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf])
    def test_non_finite_reward_rejected(self, reward):
        data = make_dataset([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            data.append(5, Config((0.5,), ("sin",)), reward)
        assert data.reward.tolist() == [1.0, 2.0]

    def test_extrema_tracking(self):
        # Normalization spans the extrema of every reward appended so far.
        data = make_dataset([3.0, -1.0, 2.0])
        assert normalize_rewards(data).tolist() == [1.0, 0.0, 0.75]


class TestJsonLoading:
    def test_round_trip(self):
        doc = """
        {"continuous": [{"name": "x", "lower": 0.0, "upper": 1.5707963}],
         "categorical": [{"name": "h", "choices": ["sin", "cos"]}]}
        """
        space = SearchSpace.from_dict(json.loads(doc))
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
        # Arm i is the assignment whose codes spell i in mixed radix (2, 3).
        for i, h in enumerate(assignments):
            a, b = space.encode_h(h)
            assert 3 * a + b == i

    @pytest.mark.parametrize("doc", [
        {"continuous": [], "categorcal": []},
        {"continuous": [{"name": "x", "lower": 0.0, "upper": 1.0, "log": True}]},
        {"categorical": [{"name": "h", "choices": ["a", "b"], "weights": [1, 1]}]},
        {"continuous": [{"name": "x", "lower": 0.0, "upper": 1.0}],
         "categorical": [{"name": "h", "choices": ["a", "b"]}],
         "per_category_continuous": {"a": [{"name": "u", "lower": 0.0, "upper": 1.0}]}},
    ])
    def test_unknown_keys_rejected(self, doc):
        with pytest.raises(ValueError, match="unknown"):
            SearchSpace.from_dict(doc)


def two_by_three_space():
    return SearchSpace(
        continuous=(ContinuousParam("u", -1.0, 3.0), ContinuousParam("v", 0.1, 0.7)),
        categorical=(CategoricalParam("a", ("p", "q")), CategoricalParam("b", ("u", "v", "w"))),
    )


class TestDatasetColumns:
    def test_columns_hold_scaled_x_codes_rounds_and_rewards(self):
        space = two_by_three_space()
        rng = np.random.default_rng(0)
        data = Dataset(space)
        configs = [Config(tuple(rng.uniform(p.lower, p.upper) for p in space.continuous),
                          space.categorical_assignments()[rng.integers(6)])
                   for _ in range(37)]  # past several capacity doublings
        for i, config in enumerate(configs):
            data.append(1 + i // 4, config, float(i))
        assert len(data) == 37
        # Bit-identical to scaling each value on its own.
        expected = [[(v - p.lower) / (p.upper - p.lower) for v, p in zip(c.x, space.continuous)]
                    for c in configs]
        assert data.X.tobytes() == np.array(expected).tobytes()
        assert data.H.tolist() == [list(space.encode_h(c.h)) for c in configs]
        assert data.t.tolist() == [float(1 + i // 4) for i in range(37)]
        assert data.reward.tolist() == [float(i) for i in range(37)]

    def test_views_taken_earlier_do_not_change(self):
        data = Dataset(two_by_three_space())
        data.append(1, Config((0.0, 0.4), ("p", "u")), 1.0)
        X, reward = data.X, data.reward
        first = X.tolist()
        for i in range(20):
            data.append(2, Config((1.0, 0.2), ("q", "w")), 2.0)
        assert X.tolist() == first and reward.tolist() == [1.0]
        assert data.X[0].tolist() == first[0] and len(data.X) == 21

    def test_filter_masks_on_every_categorical_column(self):
        space = two_by_three_space()
        data = Dataset(space)
        for i, h in enumerate(space.categorical_assignments() * 2):
            data.append(1, Config((0.0, 0.4), h), float(i))
        sub = filter_by_category(data, ("q", "v"))
        assert sub.reward.tolist() == [4.0, 10.0]
        assert sub.H.tolist() == [[1, 1], [1, 1]]
        assert normalize_rewards(sub).tolist() == [0.0, 1.0]

    def test_space_without_categories_keeps_every_row(self):
        space = SearchSpace(continuous=(ContinuousParam("x", 0.0, 2.0),), categorical=())
        data = Dataset(space)
        for i in range(3):
            data.append(1, Config((float(i),), ()), float(i))
        assert data.H.shape == (3, 0)
        assert data.X[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert len(filter_by_category(data, ())) == 3
