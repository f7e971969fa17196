"""Command-line entry point: run experiments, compare strategies, verify.

Subcommands:
  run         execute one strategy over several seeds, emit per-seed + summary CSVs
  compare     run several strategies on identical seeds, emit a wide summary CSV
  gradcheck   finite-difference verification of the analytic kernel gradients
  bandit-sim  standalone bandit regret diagnostics on a Bernoulli instance

Configs are JSON, outputs are CSV. Floats are printed with 10 significant
digits. Files are written to a temp path and renamed on success, so a failed
run leaves no partial output. POPBANDIT_THREADS caps parallel seeds; each
seed worker runs on one BLAS thread.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
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
    changepoint_objective,
    run_experiment,
    sincos_objective,
)
from .space import SearchSpace
from .strategies import BANDIT_STRATEGIES, StrategyKind, check_truncation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

GRADCHECK_TOLERANCE = 1e-4

CONFIG_KEYS = frozenset({"space", "objective", "objective_args", "seeds", "B", "T_rounds",
                         "quantile", "acquisition", "output", "strategy", "strategies"})


class ConfigError(Exception):
    pass


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


def _max_workers(n_seeds: int) -> int:
    env = os.environ.get("POPBANDIT_THREADS")
    cap = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(cap, n_seeds))


def _require(cfg: dict, field: str):
    if field not in cfg:
        raise ConfigError(f"config missing required field {field!r}")
    return cfg[field]


def _parse_run_config(cfg: dict):
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    space = SearchSpace.from_dict(_require(cfg, "space"))
    objective_name = _require(cfg, "objective")
    if objective_name not in OBJECTIVES:
        raise ConfigError(f"unknown objective {objective_name!r}")
    seeds = _require(cfg, "seeds")
    if not (isinstance(seeds, list) and seeds
            and all(type(s) is int and s >= 0 for s in seeds)):
        raise ConfigError(f"seeds must be a nonempty list of non-negative integers, got {seeds!r}")
    B = int(_require(cfg, "B"))
    T_rounds = int(_require(cfg, "T_rounds"))
    if T_rounds < 1:
        raise ConfigError(f"T_rounds must be >= 1, got {T_rounds}")
    quantile = float(cfg.get("quantile", 0.25))
    try:
        check_truncation(B, quantile)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    acq = AcquisitionConfig(**cfg.get("acquisition", {}))
    objective_args = cfg.get("objective_args", {})
    unknown = sorted(set(objective_args) - OBJECTIVE_ARGS[objective_name])
    if unknown:
        raise ConfigError(f"unknown objective_args {unknown} for {objective_name!r}, which "
                          f"takes {sorted(OBJECTIVE_ARGS[objective_name])}")
    objective = OBJECTIVES[objective_name](T=T_rounds, **objective_args)
    return space, objective, seeds, B, T_rounds, quantile, acq


def _check_strategy(name: str, space: SearchSpace) -> None:
    kind = StrategyKind.from_name(name)
    if kind in BANDIT_STRATEGIES and space.n_arms < 2:
        raise ConfigError(f"strategy {name!r} needs at least 2 categorical arms, "
                          f"the space has {space.n_arms}")


def _check_objective(objective, space: SearchSpace) -> None:
    # Both objectives score a config by its first continuous value and first label.
    if not (space.continuous and space.categorical):
        raise ConfigError(f"objective {objective.name!r} needs at least one continuous and one "
                          f"categorical parameter, the space has {len(space.continuous)} and "
                          f"{len(space.categorical)}")


def _run_one_seed(args):
    space, objective, strategy_name, B, T_rounds, quantile, acq, seed = args
    return run_experiment(
        space,
        objective,
        StrategyKind.from_name(strategy_name),
        B,
        T_rounds,
        quantile=quantile,
        seed=seed,
        acq_cfg=acq,
    )


def _run_seeds(space, objective, strategy_name, B, T_rounds, quantile, acq, seeds):
    jobs = [(space, objective, strategy_name, B, T_rounds, quantile, acq, s) for s in seeds]
    workers = _max_workers(len(seeds))
    if workers == 1:
        return [_run_one_seed(j) for j in jobs]
    # One BLAS thread per worker keeps workers x BLAS threads within the cores.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                initializer=_blas.set_threads,
                                                initargs=(1,)) as pool:
        return list(pool.map(_run_one_seed, jobs))


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
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
        if overrides:
            cfg.update({k: v for k, v in overrides.items() if v is not None})
        space, objective, seeds, B, T_rounds, quantile, acq = _parse_run_config(cfg)
        strategy_name = _require(cfg, "strategy")
        _check_strategy(strategy_name, space)
        _check_objective(objective, space)
        out_dir = cfg.get("output", ".")
    except (ConfigError, ValueError, TypeError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        records = _run_seeds(space, objective, strategy_name, B, T_rounds, quantile, acq, seeds)
        header = _run_csv_header(space)
        for record in records:
            path = os.path.join(out_dir, f"run_{strategy_name}_seed{record.seed}.csv")
            _atomic_write_csv(path, header, _run_csv_rows(record))
        mean, sem = _summary(records)
        summary_path = os.path.join(out_dir, f"summary_{strategy_name}.csv")
        _atomic_write_csv(
            summary_path,
            ["round", "cum_regret_mean", "cum_regret_sem"],
            ([t + 1, mean[t], sem[t]] for t in range(T_rounds)),
        )
        print(f"wrote {len(records)} run files and {summary_path}")
        print(f"final cumulative regret (mean over {len(records)} seeds): {_fmt(float(mean[-1]))}")
        return EXIT_OK
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def cmd_compare(config_path: str, overrides: dict | None = None) -> int:
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
        if overrides:
            cfg.update({k: v for k, v in overrides.items() if v is not None})
        space, objective, seeds, B, T_rounds, quantile, acq = _parse_run_config(cfg)
        strategies = _require(cfg, "strategies")
        if not strategies:
            raise ConfigError("strategies must be a nonempty list")
        for name in strategies:
            _check_strategy(name, space)
        _check_objective(objective, space)
        out_dir = cfg.get("output", ".")
    except (ConfigError, ValueError, TypeError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        means = {}
        for name in strategies:
            records = _run_seeds(space, objective, name, B, T_rounds, quantile, acq, seeds)
            mean, _ = _summary(records)
            means[name] = mean
        path = os.path.join(out_dir, "compare.csv")
        _atomic_write_csv(
            path,
            ["round", *strategies],
            ([t + 1, *(means[n][t] for n in strategies)] for t in range(T_rounds)),
        )
        print(f"wrote {path}")
        ordering = sorted(strategies, key=lambda n: means[n][-1])
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
        model = gp.GPModel(X, H, t, y, theta)
        analytic = gp.grad_log_marginal(model)
        base = theta.as_array()
        for i, name in enumerate(gp.PARAM_NAMES):
            up, dn = base.copy(), base.copy()
            up[i] += step
            dn[i] -= step
            f_up = gp.log_marginal(model.with_theta(gp.GPHyperparams.from_array(up)))
            f_dn = gp.log_marginal(model.with_theta(gp.GPHyperparams.from_array(dn)))
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
    try:
        if not (2 <= C and 1 <= B <= C and T >= 1 and 0 <= V < T and seeds):
            raise ValueError("require 2<=C, 1<=B<=C, T>=1, 0<=V<T, nonempty seeds")
    except (ValueError, TypeError) as exc:
        print(f"flag error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    table = bernoulli_swap_table(0.9, 0.1, T, V=V, C=C)
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
    early = float(result.per_round_regret[: max(1, T // 4)].mean())
    late = float(result.per_round_regret[T // 2:].mean())
    verdict = "pass" if late < early else "FAIL"
    print(f"per-round regret early (first T/4): {_fmt(early)}")
    print(f"per-round regret late (second half): {_fmt(late)}")
    print(f"sublinear-proxy: {verdict}")
    if V >= 1:
        # Inclusion frequency of the arm that became best after the last swap.
        final_best = int(np.argmax(table[-1]))
        quarter = result.inclusion_freq[3 * T // 4:, final_best].mean() / B
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
