"""Mixed continuous/categorical search spaces and the time-indexed dataset.

All selection algorithms (bandit over categories, GP over continuous values)
consume the same append-only dataset of (round, agent, config, score, reward)
records defined here.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ContinuousParam:
    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"bounds of {self.name!r} must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"{self.name!r}: lower must be < upper")

    def clip(self, value: float) -> float:
        return min(max(value, self.lower), self.upper)


@dataclass(frozen=True)
class CategoricalParam:
    name: str
    choices: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))
        if len(self.choices) < 2:
            raise ValueError(f"{self.name!r}: need at least 2 choices")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"{self.name!r}: choices must be distinct")


@dataclass(frozen=True)
class Config:
    """A single point in the search space: continuous vector x, categorical labels h."""

    x: tuple[float, ...]
    h: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "h", tuple(self.h))


@dataclass(frozen=True)
class SearchSpace:
    continuous: tuple[ContinuousParam, ...]
    categorical: tuple[CategoricalParam, ...]
    # Optional map from a full categorical assignment to its own continuous
    # parameter list (used by the per-category surrogate strategy).
    per_category_continuous: dict[tuple[str, ...], tuple[ContinuousParam, ...]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "continuous", tuple(self.continuous))
        object.__setattr__(self, "categorical", tuple(self.categorical))
        if not self.continuous and not self.categorical:
            raise ValueError("search space must have at least one parameter")
        if self.per_category_continuous is not None:
            valid = set(self.categorical_assignments())
            pcc = {tuple(k): tuple(v) for k, v in self.per_category_continuous.items()}
            for key in pcc:
                if key not in valid:
                    raise ValueError(f"invalid categorical assignment in key set: {key}")
            object.__setattr__(self, "per_category_continuous", pcc)

    def categorical_assignments(self) -> list[tuple[str, ...]]:
        """All full categorical assignments, in deterministic product order."""
        if not self.categorical:
            return [()]
        return [tuple(h) for h in itertools.product(*(p.choices for p in self.categorical))]

    @property
    def n_arms(self) -> int:
        n = 1
        for p in self.categorical:
            n *= len(p.choices)
        return n

    def continuous_for(self, h: tuple[str, ...]) -> tuple[ContinuousParam, ...]:
        """Continuous parameters active under assignment h (per-category if defined)."""
        if self.per_category_continuous is not None:
            return self.per_category_continuous[tuple(h)]
        return self.continuous

    def encode_h(self, h: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(p.choices.index(label) for p, label in zip(self.categorical, h))

    def arm_index(self, h: tuple[str, ...]) -> int:
        """Index of a full assignment within categorical_assignments() order."""
        idx = 0
        for p, label in zip(self.categorical, h):
            idx = idx * len(p.choices) + p.choices.index(label)
        return idx

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchSpace":
        continuous = tuple(
            ContinuousParam(d["name"], float(d["lower"]), float(d["upper"]))
            for d in doc.get("continuous", [])
        )
        categorical = tuple(
            CategoricalParam(d["name"], tuple(d["choices"]))
            for d in doc.get("categorical", [])
        )
        pcc = None
        if "per_category_continuous" in doc:
            pcc = {}
            for key, params in doc["per_category_continuous"].items():
                labels = tuple(key.split("|"))
                pcc[labels] = tuple(
                    ContinuousParam(d["name"], float(d["lower"]), float(d["upper"]))
                    for d in params
                )
        return cls(continuous, categorical, pcc)

    @classmethod
    def from_json(cls, text: str) -> "SearchSpace":
        return cls.from_dict(json.loads(text))


def validate_config(space: SearchSpace, config: Config) -> bool:
    """True iff config is in-bounds and its labels are members of their choices."""
    if len(config.h) != len(space.categorical):
        return False
    for p, label in zip(space.categorical, config.h):
        if label not in p.choices:
            return False
    try:
        params = space.continuous_for(config.h)
    except KeyError:
        return False
    if len(config.x) != len(params):
        return False
    for p, v in zip(params, config.x):
        if not (p.lower <= v <= p.upper):
            return False
    return True


@dataclass
class Observation:
    round: int
    agent: int
    config: Config
    raw_score: float
    reward: float


@dataclass
class Dataset:
    """Append-only, time-ordered observation log with running reward extrema."""

    observations: list[Observation] = field(default_factory=list)
    reward_min: float = math.inf
    reward_max: float = -math.inf

    def append(self, obs: Observation) -> None:
        if self.observations and obs.round < self.observations[-1].round:
            raise ValueError("round indices must be non-decreasing")
        if not math.isfinite(obs.reward):
            raise ValueError(f"reward must be finite, got {obs.reward}")
        self.observations.append(obs)
        self.reward_min = min(self.reward_min, obs.reward)
        self.reward_max = max(self.reward_max, obs.reward)

    def __len__(self) -> int:
        return len(self.observations)


def filter_by_category(data: Dataset, h: tuple[str, ...]) -> Dataset:
    """Observations whose assignment equals h, in original order."""
    h = tuple(h)
    out = Dataset()
    for obs in data.observations:
        if obs.config.h == h:
            out.append(obs)
    return out


def normalize_rewards(data: Dataset) -> np.ndarray:
    """Min-max rescale rewards into [0,1]; a degenerate range maps to 0.5."""
    if not data.observations:
        raise ValueError("cannot normalize an empty dataset")
    y = np.array([obs.reward for obs in data.observations], dtype=float)
    lo, hi = data.reward_min, data.reward_max
    if hi == lo:
        return np.full_like(y, 0.5)
    return (y - lo) / (hi - lo)
