"""The benchmark's workloads: inputs, one timed unit of work, and output checks.

A unit is one call into popbandit's public API. Population workloads time each
round from outside by wrapping the objective's `evaluate`, which is an input
the benchmark supplies; the wrapper returns the objective's values unchanged.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np


class UnitFailed(Exception):
    """A unit ended with a non-zero exit code."""


@dataclass
class Unit:
    seconds: float
    series: tuple  # cumulative regret per round; bit-identical on every rerun
    rounds: list[float] = field(default_factory=list)  # round latencies in s
    output: object = None


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _reference_f(objective: str, V: int, T: int, x: float, h: str, round_: int) -> float:
    """The sin/cos objectives, written out independently of popbandit.harness."""
    swaps = sum(1 for v in range(1, V + 1) if round_ >= T * v // (V + 1))
    swapped = objective == "sincos-switch" and swaps % 2 == 1
    return math.sin(x) if (h == "sin") != swapped else math.cos(x)


def _check_series(cum, T: int) -> list[str]:
    problems = []
    if len(cum) != T:
        problems.append(f"{len(cum)} cumulative-regret rounds, expected {T}")
    if any(b < a for a, b in zip(cum, cum[1:])):
        problems.append("cumulative regret decreases")
    if not all(math.isfinite(v) for v in cum):
        problems.append("cumulative regret is not finite")
    return problems


@dataclass(frozen=True)
class Population:
    """One harness.run_experiment call per unit."""

    strategy: str
    objective: str
    B: int
    T: int
    V: int
    per_pass: int  # seeds per pass; enough that >= 10 round samples lie beyond p90

    def build(self, pb):
        space = pb.harness.sincos_space()
        objective = pb.harness.OBJECTIVES[self.objective](V=self.V, T=self.T)
        return space, objective

    def warmup(self, pb, inputs):
        space, objective = inputs
        kind = pb.strategies.StrategyKind.from_name(self.strategy)
        pb.harness.run_experiment(space, objective, kind, 4, 7, seed=0)

    def unit(self, pb, inputs, seed, tracer=None) -> Unit:
        space, base = inputs
        starts = []

        def evaluate(config, round_):
            if len(starts) < round_:
                starts.append(time.perf_counter())
            return base.evaluate(config, round_)

        objective = pb.harness.SyntheticObjective(base.name, evaluate, base.optimum)
        kind = pb.strategies.StrategyKind.from_name(self.strategy)
        t0 = time.perf_counter()
        record = _call(tracer, "harness.run", pb.harness.run_experiment,
                       space, objective, kind, self.B, self.T, seed=seed)
        seconds = time.perf_counter() - t0
        rounds = [b - a for a, b in zip(starts, starts[1:])]
        return Unit(seconds, tuple(record.cum_regret), rounds, record)

    def check(self, pb, inputs, seed, unit: Unit) -> list[str]:
        """Series shape and monotonicity, and every row against the objective."""
        record = unit.output
        problems = _check_series(record.cum_regret, self.T)
        rows = record.rows
        if len(rows) != self.B * self.T:
            return problems + [f"{len(rows)} rows, expected {self.B * self.T}"]
        cum = 0.0
        for t in range(self.T):
            regrets = []
            for row in rows[t * self.B:(t + 1) * self.B]:
                (x,), h = row["x"], row["h"]
                if row["round"] != t + 1 or h not in ("sin", "cos") or not 0 <= x <= math.pi / 2:
                    return problems + [f"invalid row {row}"]
                f = _reference_f(self.objective, self.V, self.T, x, h, t + 1)
                if abs(row["f"] - f) > 1e-12:
                    return problems + [f"row {row} does not match the objective ({f})"]
                regrets.append(1.0 - f)
            cum += float(np.mean(regrets))
            if abs(record.cum_regret[t] - cum) > 1e-9 * max(1.0, cum):
                return problems + [f"round {t + 1}: cumulative regret "
                                   f"{record.cum_regret[t]} != {cum}"]
        return problems


@dataclass(frozen=True)
class BanditSim:
    """One seed of harness.bandit_sim per unit."""

    C: int
    B: int
    T: int
    V: int
    per_pass: int

    def build(self, pb):
        return pb.harness.bernoulli_swap_table(0.9, 0.1, self.T, V=self.V, C=self.C)

    def warmup(self, pb, table):
        pb.harness.bandit_sim(table[:50], self.B, [0])

    def unit(self, pb, table, seed, tracer=None) -> Unit:
        t0 = time.perf_counter()
        result = _call(tracer, "harness.run", pb.harness.bandit_sim, table, self.B, [seed])
        seconds = time.perf_counter() - t0
        # bandit_sim has no per-round hook, so a unit gives one round sample:
        # its mean round.
        return Unit(seconds, tuple(result.cum_regret.tolist()), [seconds / self.T], result)

    def check(self, pb, table, seed, unit: Unit) -> list[str]:
        """Inclusion rows sum to B, and each round's regret matches its picks."""
        result = unit.output
        problems = _check_series(unit.series, self.T)
        inc = result.inclusion_freq
        if inc.shape != (self.T, self.C) or not np.all((inc == 0) | (inc == 1)):
            return problems + ["inclusion is not one 0/1 row per round"]
        if not np.all(inc.sum(axis=1) == self.B):
            problems.append("an inclusion row does not sum to B")
        best = np.sort(table, axis=1)[:, ::-1][:, :self.B].mean(axis=1)
        got = (table * inc).sum(axis=1) / self.B
        if not np.allclose(result.per_round_regret, best - got, rtol=0, atol=1e-12):
            problems.append("per-round regret does not match the selected arms")
        return problems


@dataclass(frozen=True)
class CliCompare:
    """One `popbandit compare` call on two seeds per unit, through cli.main."""

    strategies: tuple[str, ...]
    B: int
    T: int
    per_pass: int
    workdir: str

    def build(self, pb):
        return {
            "space": {"continuous": [{"name": "x", "lower": 0.0, "upper": math.pi / 2}],
                      "categorical": [{"name": "h", "choices": ["sin", "cos"]}]},
            "objective": "sincos",
            "strategies": list(self.strategies),
            "B": self.B,
            "T_rounds": self.T,
        }

    def warmup(self, pb, config):
        pass

    def unit(self, pb, config, seed, tracer=None) -> Unit:
        out_dir = os.path.join(self.workdir, f"compare-{seed}")
        path = os.path.join(self.workdir, f"compare-{seed}.json")
        with open(path, "w") as fh:
            json.dump({**config, "seeds": [seed, seed + 1]}, fh)
        stderr = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = _call(tracer, "cli.compare", pb.cli.main,
                         ["compare", path, "--out", out_dir])
        seconds = time.perf_counter() - t0
        if code != 0:
            raise UnitFailed(f"exit code {code}: {stderr.getvalue().strip()}")
        with open(os.path.join(out_dir, "compare.csv"), newline="") as fh:
            text = fh.read()
        return Unit(seconds, (text,), output=text)

    def check(self, pb, config, seed, unit: Unit) -> list[str]:
        """compare.csv has T rows whose columns equal in-process run means."""
        rows = list(csv.reader(io.StringIO(unit.output)))
        if rows[0] != ["round", *self.strategies] or len(rows) != self.T + 1:
            return [f"compare.csv has header {rows[0]} and {len(rows) - 1} rows"]
        space = pb.harness.sincos_space()
        objective = pb.harness.sincos_objective()
        for col, name in enumerate(self.strategies, start=1):
            kind = pb.strategies.StrategyKind.from_name(name)
            runs = [pb.harness.run_experiment(space, objective, kind, self.B, self.T, seed=s)
                    for s in (seed, seed + 1)]
            mean = np.mean([r.cum_regret for r in runs], axis=0)
            for t, row in enumerate(rows[1:]):
                if not math.isclose(float(row[col]), mean[t], rel_tol=1e-9, abs_tol=1e-12):
                    return [f"compare.csv {name} round {t + 1}: {row[col]} != {mean[t]}"]
        return []


def workloads(workdir: str) -> dict:
    return {
        "mix-b4": Population("pb2-mix", "sincos", B=4, T=50, V=0, per_pass=3),
        "mult-switch-b16": Population("pb2-mult", "sincos-switch", B=16, T=18, V=3,
                                      per_pass=7),
        "bandit-c64": BanditSim(C=64, B=8, T=2000, V=3, per_pass=20),
        "cli-compare": CliCompare(("random", "pbt", "pb2-rand"), B=4, T=50, per_pass=1,
                                  workdir=workdir),
    }
