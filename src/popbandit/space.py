"""Mixed continuous/categorical search spaces and the time-indexed dataset.

All selection algorithms (bandit over categories, GP over continuous values)
consume the same append-only `Dataset`: four numpy columns over one search
space, filled at append time with the unit-scaled continuous values X, the
integer category codes H, the round t and the reward.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ContinuousParam:
    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not math.isfinite(self.upper - self.lower):  # an infinite or NaN bound, or span
            raise ValueError(f"bounds of {self.name!r} and their span must be finite")
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

    def __post_init__(self):
        object.__setattr__(self, "continuous", tuple(self.continuous))
        object.__setattr__(self, "categorical", tuple(self.categorical))
        if not self.continuous and not self.categorical:
            raise ValueError("search space must have at least one parameter")

    def categorical_assignments(self) -> list[tuple[str, ...]]:
        """All full categorical assignments, in deterministic product order."""
        return [tuple(h) for h in itertools.product(*(p.choices for p in self.categorical))]

    @property
    def n_arms(self) -> int:
        n = 1
        for p in self.categorical:
            n *= len(p.choices)
        return n

    def encode_h(self, h: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(p.choices.index(label) for p, label in zip(self.categorical, h))


def validate_config(space: SearchSpace, config: Config) -> bool:
    """True iff config is in-bounds and its labels are members of their choices."""
    if len(config.h) != len(space.categorical):
        return False
    for p, label in zip(space.categorical, config.h):
        if label not in p.choices:
            return False
    if len(config.x) != len(space.continuous):
        return False
    for p, v in zip(space.continuous, config.x):
        if not (p.lower <= v <= p.upper):
            return False
    return True


class Dataset:
    """Append-only, time-ordered observations over one space, held as columns.

    X: (n, d) continuous values scaled to the unit hypercube of
    space.continuous. H: (n, m) integer category codes (`SearchSpace.encode_h`).
    t: (n,) rounds, as floats. reward: (n,) rewards. The columns are views of
    buffers that double when full; rows already appended never change.
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        self._lower = np.array([p.lower for p in space.continuous], dtype=float)
        self._span = np.array([p.upper - p.lower for p in space.continuous], dtype=float)
        self._n = 0
        self._X = np.empty((0, len(space.continuous)))
        self._H = np.empty((0, len(space.categorical)), dtype=int)
        self._t = np.empty(0)
        self._reward = np.empty(0)

    def append(self, round_: int, config: Config, reward: float) -> None:
        if self._n and round_ < self._t[self._n - 1]:
            raise ValueError("round indices must be non-decreasing")
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        row = ((np.array(config.x, dtype=float) - self._lower) / self._span,
               self.space.encode_h(config.h), round_, reward)
        if self._n == len(self._t):
            grow = max(8, self._n)  # doubles the capacity
            self._X, self._H, self._t, self._reward = (
                np.concatenate([col, np.empty((grow,) + col.shape[1:], col.dtype)])
                for col in (self._X, self._H, self._t, self._reward))
        for col, value in zip((self._X, self._H, self._t, self._reward), row):
            col[self._n] = value
        self._n += 1

    def __len__(self) -> int:
        return self._n

    @property
    def X(self) -> np.ndarray:
        return self._X[: self._n]

    @property
    def H(self) -> np.ndarray:
        return self._H[: self._n]

    @property
    def t(self) -> np.ndarray:
        return self._t[: self._n]

    @property
    def reward(self) -> np.ndarray:
        return self._reward[: self._n]


def filter_by_category(data: Dataset, h: tuple[str, ...]) -> Dataset:
    """Observations whose assignment equals h, in original order."""
    mask = np.all(data.H == data.space.encode_h(h), axis=1)
    out = Dataset(data.space)
    out._X, out._H, out._t, out._reward = (
        col[mask] for col in (data.X, data.H, data.t, data.reward))
    out._n = len(out._t)
    return out


def normalize_rewards(data: Dataset) -> np.ndarray:
    """Min-max rescale rewards into [0,1]; a degenerate range maps to 0.5."""
    if not len(data):
        raise ValueError("cannot normalize an empty dataset")
    y = data.reward
    lo, hi = y.min(), y.max()
    if hi == lo:
        return np.full_like(y, 0.5)
    return (y - lo) / (hi - lo)
