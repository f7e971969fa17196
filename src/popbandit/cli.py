"""Command-line entry point: run experiments, compare strategies, verify.

Subcommands:
  run         execute one strategy over several seeds, emit per-seed + summary CSVs
  compare     run several strategies on identical seeds, emit a wide summary CSV
  gradcheck   finite-difference verification of the analytic kernel gradients
  bandit-sim  standalone bandit regret diagnostics on a Bernoulli instance

Configs are JSON, outputs are CSV. This module owns the config schema: each
JSON object of a config is checked against its table by `_checked` before any
seed runs. Floats are printed with 10 significant digits. Files are written
to a temp path and renamed on success, so a failed run leaves no partial
output; `run`, `compare` and `bandit-sim --out` create and test-write the
output directory before they run anything, so a path that cannot be written
fails at once. POPBANDIT_THREADS caps parallel seeds; each seed worker runs
on one BLAS thread. Only a command that fits a GP (`gradcheck`, and `run` or
`compare` of a pb2-* strategy) loads scipy's LAPACK extension (see
`gp._lapack`); for a pb2-* strategy the parent loads it before it forks the
seed workers.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import _blas, gp
from .acquisition import AcquisitionConfig
from .harness import (
    OBJECTIVE_ARGS,
    OBJECTIVES,
    RunRecord,
    bandit_sim,
    bernoulli_swap_table,
    run_experiment,
)
from .space import CategoricalParam, ContinuousParam, SearchSpace
from .strategies import BANDIT_STRATEGIES, GP_STRATEGIES, StrategyKind, check_truncation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

GRADCHECK_TOLERANCE = 1e-4

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _atomic_write_csv(path: str, header: list[str], rows) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _probe_output(directory: str) -> None:
    """Create directory and write and remove one temp file in it, so that an
    output path that cannot be written fails before any seed runs."""
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    os.unlink(tmp)


def _threads_cap() -> int:
    """POPBANDIT_THREADS as a positive integer; the CPU count when it is unset or empty."""
    env = os.environ.get("POPBANDIT_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"POPBANDIT_THREADS must be a positive integer, got {env!r}")
    return cap


def _max_workers(n_seeds: int) -> int:
    return max(1, min(_threads_cap(), n_seeds))


_REQUIRED = object()
_OPTIONAL = object()
_STRATEGY_NAMES = [kind.value for kind in StrategyKind]
_JSON_TYPES = (dict, list, str, int, float, bool, type(None))  # every type json.load gives


def _distinct_list_of(valid):
    """A test that a list is nonempty, holds only values that pass valid, and none twice."""
    return lambda items: bool(items) and all(map(valid, items)) and len(set(items)) == len(items)


# The schema of a config: one table per kind of JSON object, one row per key.
# A row holds the key's exact JSON types (a bool is not an int), what a value
# must be, its default (_REQUIRED if none; _OPTIONAL leaves the key absent)
# and the test that a value of the right type must also pass (None if none).
_FIELDS = {
    "space": ((dict,), "an object", _REQUIRED, None),
    "objective": ((str,), f"one of {sorted(OBJECTIVES)}", _REQUIRED, OBJECTIVES.__contains__),
    "objective_args": ((dict,), "an object", {}, None),
    "seeds": ((list,), "a nonempty list of distinct non-negative integers", _REQUIRED,
              _distinct_list_of(lambda s: type(s) is int and s >= 0)),
    "B": ((int,), "an integer", _REQUIRED, None),
    "T_rounds": ((int,), "an integer", _REQUIRED, None),
    "quantile": ((int, float), "a finite number", 0.25, math.isfinite),
    "acquisition": ((dict,), "an object", {}, None),
    "output": ((str,), "a directory path string", ".", lambda path: "\0" not in path),
    # Each is required by its own command, `run` or `compare`.
    "strategy": ((str,), f"one of {_STRATEGY_NAMES}", _OPTIONAL, _STRATEGY_NAMES.__contains__),
    "strategies": ((list,), f"a nonempty list of distinct names from {_STRATEGY_NAMES}",
                   _OPTIONAL, _distinct_list_of(_STRATEGY_NAMES.__contains__)),
}
_SPACE = dict.fromkeys(("continuous", "categorical"), ((list,), "a list", [], None))
_NAME = ((str,), "a string", _REQUIRED, None)
_CONTINUOUS = dict(name=_NAME, lower=((int, float), "a number", _REQUIRED, None),
                   upper=((int, float), "a number", _REQUIRED, None))
_CATEGORICAL = dict(name=_NAME, choices=((list,), "a list", _REQUIRED, None))
# AcquisitionConfig checks the values, for library callers too.
_ACQUISITION = {field.name: (_JSON_TYPES, "a JSON value", _OPTIONAL, None)
                for field in dataclasses.fields(AcquisitionConfig)}


def _checked(doc, table: dict, what: str) -> dict:
    """doc, a JSON object checked against table, with the table's defaults filled in.

    A ValueError names doc `what`, and a value "{what} {key}" (in a config, its key alone).
    """
    if type(doc) is not dict:
        raise ValueError(f"{what} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; {what} takes {sorted(table)}")
    checked = {}
    for key, (types, must_be, default, test) in table.items():
        if key in doc:
            value = checked[key] = doc[key]
            if type(value) not in types or (test and not test(value)):
                name = key if what == "config" else f"{what} {key}"
                raise ValueError(f"{name} must be {must_be}, got {value!r}")
        elif default is _REQUIRED:
            raise ValueError(f"{what} missing key {key!r}")
        elif default is not _OPTIONAL:
            checked[key] = default
    return checked


def _space(doc) -> SearchSpace:
    """The search space that a config's `space` object describes."""
    doc = _checked(doc, _SPACE, "space")
    continuous = [_checked(d, _CONTINUOUS, "continuous parameter") for d in doc["continuous"]]
    categorical = [_checked(d, _CATEGORICAL, "categorical parameter") for d in doc["categorical"]]
    for d in categorical:
        if not all(type(label) is str for label in d["choices"]):
            raise ValueError(f"choices of {d['name']!r} must be strings, got {d['choices']!r}")
    return SearchSpace(
        [ContinuousParam(d["name"], float(d["lower"]), float(d["upper"])) for d in continuous],
        [CategoricalParam(**d) for d in categorical])


def _load_config(path: str, overrides: dict | None, strategy_field: str):
    """The checked config of `run` (strategy_field "strategy") or `compare` ("strategies").

    Returns its fields as an argparse.Namespace, with `space`, `objective`
    and `acquisition` built. On a fault, prints one `config error:` line and
    returns None.
    """
    try:
        with open(path) as fh:
            try:
                cfg = json.load(fh)
            except RecursionError:
                raise ValueError("the JSON document is nested too deeply") from None
        if type(cfg) is not dict:
            raise ValueError(f"a config must be a JSON object, got {type(cfg).__name__}")
        cfg.update({k: v for k, v in (overrides or {}).items() if v is not None})
        types, must_be, _, test = _FIELDS[strategy_field]
        cfg = _checked(cfg, {**_FIELDS, strategy_field: (types, must_be, _REQUIRED, test)},
                       "config")
        if cfg["T_rounds"] < 1:
            raise ValueError(f"T_rounds must be >= 1, got {cfg['T_rounds']}")
        check_truncation(cfg["B"], cfg["quantile"])
        cfg["acquisition"] = AcquisitionConfig(
            **_checked(cfg["acquisition"], _ACQUISITION, "acquisition"))
        objective = cfg["objective"]
        takes = {key: ((typ,), f"of type {typ.__name__}", _OPTIONAL, None)
                 for key, typ in OBJECTIVE_ARGS[objective].items()}
        args = _checked(cfg["objective_args"], takes, "objective_args")
        cfg["objective"] = OBJECTIVES[objective](T=cfg["T_rounds"], **args)
        cfg["space"] = space = _space(cfg["space"])
        names = [cfg["strategy"]] if strategy_field == "strategy" else cfg["strategies"]
        for name in names:
            if StrategyKind(name) in BANDIT_STRATEGIES and space.n_arms < 2:
                raise ValueError(f"strategy {name!r} needs at least 2 categorical arms, "
                                 f"the space has {space.n_arms}")
        # Both objectives score a config by its first continuous value and first label.
        if not (space.continuous and space.categorical):
            raise ValueError(f"objective {objective!r} needs at least one continuous and one "
                             f"categorical parameter, the space has {len(space.continuous)} "
                             f"and {len(space.categorical)}")
        # Regret is taken against f = 1, which needs both labels and cos(0) or sin(pi/2).
        h, x = space.categorical[0], space.continuous[0]
        if set(h.choices) != {"sin", "cos"}:
            raise ValueError(f"objective {objective!r} scores the first categorical's labels, "
                             f"so its choices must be 'sin' and 'cos', got {list(h.choices)}")
        if not (x.lower <= 0.0 <= x.upper or x.lower <= math.pi / 2 <= x.upper):
            raise ValueError(f"objective {objective!r} reaches its optimum 1 only at x = 0 or "
                             f"pi/2, so the first continuous range must contain one of them, "
                             f"got [{x.lower!r}, {x.upper!r}]")
        _threads_cap()  # checked here: `_max_workers` reads it only once the seeds run
        return argparse.Namespace(**cfg)
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _run_one_seed(cfg, strategy_name: str, seed: int) -> RunRecord:
    """One seed of strategy_name under the checked config cfg (see `_load_config`)."""
    return run_experiment(cfg.space, cfg.objective, StrategyKind.from_name(strategy_name),
                          cfg.B, cfg.T_rounds, quantile=cfg.quantile, seed=seed,
                          acq_cfg=cfg.acquisition)


def _run_seeds(cfg, strategy_name: str) -> list[RunRecord]:
    """Every seed of cfg under strategy_name, in order, on up to `_max_workers` processes."""
    run = functools.partial(_run_one_seed, cfg, strategy_name)
    workers = _max_workers(len(cfg.seeds))
    if workers == 1:
        return list(map(run, cfg.seeds))
    if StrategyKind.from_name(strategy_name) in GP_STRATEGIES:
        gp._lapack()  # loaded before the fork, so that the workers share its pages
    # One BLAS thread per worker keeps workers x BLAS threads within the cores.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                initializer=_blas.set_threads,
                                                initargs=(1,)) as pool:
        return list(pool.map(run, cfg.seeds))


def _run_csv_rows(record: RunRecord):
    for row in record.rows:
        yield [row["round"], row["agent"], row["strategy"], row["seed"], row["h"],
               *row["x"], row["f"], row["regret"], row["cum_regret"]]


def _run_csv_header(space: SearchSpace) -> list[str]:
    d = len(space.continuous)
    return ["round", "agent", "strategy", "seed", "h",
            *(f"x_{i}" for i in range(d)), "f", "regret", "cum_regret"]


def _summary(records: list[RunRecord]):
    """Per-round mean and standard error of cumulative regret across seeds."""
    series = np.array([r.cum_regret for r in records])
    mean = series.mean(axis=0)
    sem = series.std(axis=0, ddof=1) / math.sqrt(len(records)) if len(records) > 1 else np.zeros_like(mean)
    return mean, sem


def cmd_run(config_path: str, overrides: dict | None = None) -> int:
    cfg = _load_config(config_path, overrides, "strategy")
    if cfg is None:
        return EXIT_CONFIG
    try:
        _probe_output(cfg.output)
        records = _run_seeds(cfg, cfg.strategy)
        header = _run_csv_header(cfg.space)
        for record in records:
            path = os.path.join(cfg.output, f"run_{cfg.strategy}_seed{record.seed}.csv")
            _atomic_write_csv(path, header, _run_csv_rows(record))
        mean, sem = _summary(records)
        summary_path = os.path.join(cfg.output, f"summary_{cfg.strategy}.csv")
        _atomic_write_csv(
            summary_path,
            ["round", "cum_regret_mean", "cum_regret_sem"],
            ([t + 1, mean[t], sem[t]] for t in range(cfg.T_rounds)),
        )
        print(f"wrote {len(records)} run files and {summary_path}")
        print(f"final cumulative regret (mean over {len(records)} seeds): {_fmt(float(mean[-1]))}")
        return EXIT_OK
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def cmd_compare(config_path: str, overrides: dict | None = None) -> int:
    cfg = _load_config(config_path, overrides, "strategies")
    if cfg is None:
        return EXIT_CONFIG
    try:
        _probe_output(cfg.output)
        means = {}
        for name in cfg.strategies:
            means[name], _ = _summary(_run_seeds(cfg, name))
        path = os.path.join(cfg.output, "compare.csv")
        _atomic_write_csv(
            path,
            ["round", *cfg.strategies],
            ([t + 1, *(means[n][t] for n in cfg.strategies)] for t in range(cfg.T_rounds)),
        )
        print(f"wrote {path}")
        ordering = sorted(cfg.strategies, key=lambda n: means[n][-1])
        print("final-round cumulative regret (best first):")
        for name in ordering:
            print(f"  {name}: {_fmt(float(means[name][-1]))}")
        return EXIT_OK
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def _random_gradcheck_instance(rng: np.random.Generator):
    d = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    n = int(rng.integers(5, 16))
    X = rng.uniform(size=(n, d))
    H = rng.integers(0, 3, size=(n, m))
    t = np.sort(rng.integers(0, 11, size=n)).astype(float)
    y = rng.normal(size=n)
    theta = gp.GPHyperparams(
        eps1=float(rng.uniform(0.05, 0.45)),
        eps2=float(rng.uniform(0.05, 0.45)),
        lengthscale=float(rng.uniform(0.1, 3.0)),
        sigma1=float(rng.uniform(0.2, 5.0)),
        sigma2=float(rng.uniform(0.2, 5.0)),
        lam=float(rng.uniform(0.05, 0.95)),
        noise=float(rng.uniform(1e-3, 0.5)),
    )
    return X, H, t, y, theta


def gradient_check(seed: int = 0, n_instances: int = 100, step: float = 1e-6):
    """Max per-parameter relative error of analytic vs central-difference gradients.

    Returns (errors dict, worst instance description or None).
    """
    rng = np.random.default_rng(seed)
    errors = {name: 0.0 for name in gp.PARAM_NAMES}
    worst = None
    for k in range(n_instances):
        X, H, t, y, theta = _random_gradcheck_instance(rng)
        analytic = gp.grad_log_marginal(gp.GPModel(X, H, t, y, theta))
        base = theta.as_array()
        for i, name in enumerate(gp.PARAM_NAMES):
            up, dn = base.copy(), base.copy()
            up[i] += step
            dn[i] -= step
            f_up = gp.log_marginal(gp.GPModel(X, H, t, y, gp.GPHyperparams.from_array(up)))
            f_dn = gp.log_marginal(gp.GPModel(X, H, t, y, gp.GPHyperparams.from_array(dn)))
            fd = (f_up - f_dn) / (2 * step)
            rel = abs(analytic[i] - fd) / max(1.0, abs(fd))
            if rel > errors[name]:
                errors[name] = rel
                if worst is None or rel > worst["rel_error"]:
                    worst = {
                        "instance": k,
                        "param": name,
                        "analytic": float(analytic[i]),
                        "finite_diff": float(fd),
                        "rel_error": float(rel),
                        "theta": {n_: float(v) for n_, v in zip(gp.PARAM_NAMES, base)},
                        "n": len(y),
                    }
    return errors, worst


def cmd_gradcheck(seed: int = 0, n_instances: int = 100) -> int:
    if seed < 0:  # numpy's generator takes no negative seed
        print(f"flag error: --seed must be >= 0, got {seed}", file=sys.stderr)
        return EXIT_CONFIG
    if n_instances < 1:  # a check of no instance would pass whatever the gradient
        print(f"flag error: --instances must be >= 1, got {n_instances}", file=sys.stderr)
        return EXIT_CONFIG
    errors, worst = gradient_check(seed=seed, n_instances=n_instances)
    ok = True
    for name in gp.PARAM_NAMES:
        status = "ok" if errors[name] < GRADCHECK_TOLERANCE else "FAIL"
        ok = ok and errors[name] < GRADCHECK_TOLERANCE
        print(f"  {name:<12} max relative error {errors[name]:.3e}  [{status}]")
    if ok:
        print(f"gradcheck: pass ({n_instances} instances, tolerance {GRADCHECK_TOLERANCE})")
        return EXIT_OK
    print("gradcheck: FAIL; offending instance:", file=sys.stderr)
    print(json.dumps(worst, indent=2), file=sys.stderr)
    return EXIT_FAIL


def cmd_banditsim(C: int, B: int, T: int, V: int, seeds: list[int],
                  out: str | None = None) -> int:
    if not (2 <= C and 1 <= B <= C and T >= 1 and 0 <= V < T
            and _distinct_list_of(lambda s: s >= 0)(seeds)):
        print("flag error: require 2<=C, 1<=B<=C, T>=1, 0<=V<T, nonempty distinct non-negative "
              "seeds", file=sys.stderr)
        return EXIT_CONFIG
    table = bernoulli_swap_table(0.9, 0.1, T, V=V, C=C)
    try:
        if out:
            _probe_output(os.path.dirname(os.path.abspath(out)))
        result = bandit_sim(table, B, seeds)
        if out:
            _atomic_write_csv(
                out,
                ["round", "per_round_regret", "cum_regret",
                 *(f"inclusion_{c}" for c in range(C))],
                ([t + 1, result.per_round_regret[t], result.cum_regret[t],
                  *result.inclusion_freq[t]] for t in range(T)),
            )
            print(f"wrote {out}")
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    early = float(result.per_round_regret[: max(1, T // 4)].mean())
    late = float(result.per_round_regret[T // 2:].mean())
    # Zero late regret passes, also when early regret is zero as well (C == B).
    verdict = "pass" if late < early or late == 0.0 else "FAIL"
    print(f"per-round regret early (first T/4): {_fmt(early)}")
    print(f"per-round regret late (second half): {_fmt(late)}")
    print(f"sublinear-proxy: {verdict}")
    if V >= 1:
        # Inclusion frequency of the arm that became best after the last swap.
        final_best = int(np.argmax(table[-1]))
        quarter = result.inclusion_freq[3 * T // 4:, final_best].mean()
        print(f"tracking-frequency (final quarter, arm {final_best}): {_fmt(float(quarter))}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="popbandit",
                                     description="Population-based bandit optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one strategy from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override seeds with a single seed")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument("--strategy", default=None, help="override strategy name")

    p_cmp = sub.add_parser("compare", help="run several strategies on identical seeds")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--out", default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--instances", type=int, default=100)

    p_sim = sub.add_parser("bandit-sim", help="standalone bandit regret diagnostics")
    p_sim.add_argument("--C", type=int, default=2)
    p_sim.add_argument("--B", type=int, default=1)
    p_sim.add_argument("--T", type=int, default=500)
    p_sim.add_argument("--V", type=int, default=0)
    p_sim.add_argument("--seeds", type=int, nargs="+", default=list(range(50)))
    p_sim.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        overrides = {"output": args.out, "strategy": args.strategy}
        if args.seed is not None:
            overrides["seeds"] = [args.seed]
        return cmd_run(args.config, overrides)
    if args.command == "compare":
        return cmd_compare(args.config, {"output": args.out})
    if args.command == "gradcheck":
        return cmd_gradcheck(seed=args.seed, n_instances=args.instances)
    if args.command == "bandit-sim":
        return cmd_banditsim(args.C, args.B, args.T, args.V, args.seeds, args.out)
    return EXIT_CONFIG  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
