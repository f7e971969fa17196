"""popbandit benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload mult-switch-b16 --seed 0 --seconds 45 --trace 0

With --trace 0 it times whole units of work (see workloads.py) for --seconds,
checks every output and reports the end-to-end metrics; their times are in
multiples of a reference loop timed beside each unit (see reference_s). With --trace 1 it runs
one untraced and one traced pass over the same seeds, checks that both give
bit-identical regret, and reports per-layer metrics and the tracing overhead.
BLAS threading is left as the program has it; the thread count is recorded.
"""
from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
REF_WINDOW_S = 0.4
REF_SPAN = 3  # references on either side of a unit that set its scale
REF_LOOP = 100_000  # 6-12 ms a loop on a 2.1 GHz Xeon
WORKLOAD_NAMES = ("mix-b4", "mult-switch-b16", "bandit-c64", "cli-compare")

UNITS = {
    "setup_s": "s", "run_s": "s", "run_s_mean": "s", "round_ms_p50": "ms",
    "round_ms_p90": "ms", "run_ref": "ref", "round_ref_p50": "ref", "round_ref_p90": "ref",
    "final_regret": "regret", "harness.final_regret": "regret", "peak_rss_mb": "MB",
    "gp.fit_n_mean": "obs", "gp.fit_lml_mean": "nats", "gp.posterior_points": "points",
    "space.filter_rows": "rows", "cli.csv_bytes": "bytes", "cli.blas_threads": "threads",
    "cli.workers": "workers",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_ms_total", "_ms_p50", "_ms_p90", "_ms", ".self_ms")):
        return "ms"
    return "frac" if name.endswith("_frac") else "count"


def load_popbandit() -> SimpleNamespace:
    """Import popbandit from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "popbandit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no popbandit sources under {src}")
    sys.path.insert(0, str(src))
    import popbandit
    from popbandit import bandit, cli, gp, harness, strategies

    if src.resolve() not in Path(popbandit.__file__).resolve().parents:
        sys.exit(f"perfbench: imported popbandit from {popbandit.__file__}, not {src}")
    return SimpleNamespace(bandit=bandit, cli=cli, gp=gp, harness=harness,
                           strategies=strategies)


def workdir() -> Path:
    return ROOT / ".perfbench_tmp" / str(os.getpid())


def setup_probe(name: str) -> None:
    """Print the seconds taken by import plus input construction (own process)."""
    t0 = time.perf_counter()
    import workloads

    pb = load_popbandit()
    workloads.workloads(str(workdir()))[name].build(pb)
    print(time.perf_counter() - t0)


def measure_setup(name: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", name],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded, read via ctypes."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "openblas_threads": openblas_threads(),
        "POPBANDIT_THREADS": os.environ.get("POPBANDIT_THREADS"),
    }


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class Tally:
    """Attempted units, failures with their messages, and the first output per seed."""

    def __init__(self, workload, pb, inputs):
        self.workload, self.pb, self.inputs = workload, pb, inputs
        self.attempted = 0
        self.failures = collections.Counter()  # message -> occurrences
        self.incorrect = 0  # units whose output failed a check
        self.first: dict = {}

    def run(self, seed, tracer=None):
        """One unit; returns it if it ran and its output passed every check."""
        self.attempted += 1
        try:
            unit = self.workload.unit(self.pb, self.inputs, seed, tracer)
        except Exception as exc:  # every exception is a counted, recorded failure
            self.failures[f"{type(exc).__name__}: {exc}"] += 1
            return None
        if seed in self.first:
            problems = ([] if unit.series == self.first[seed].series
                        else ["regret series differs from the seed's first run"])
        else:
            problems = self.workload.check(self.pb, self.inputs, seed, unit)
            self.first[seed] = unit
        if problems:
            self.incorrect += 1
            self.failures[f"seed {seed}: check failed: {'; '.join(problems)}"] += 1
            return None
        return unit


def mean_final_regret(units, n_seeds: int):
    """Mean final cumulative regret, when every seed has a regret series."""
    finals = [u.series[-1] for u in units if u is not None]
    if len(finals) == n_seeds and all(isinstance(v, float) for v in finals):
        return statistics.fmean(finals)
    return None


def reference_s() -> float:
    """Median seconds of a fixed pure-Python loop run for REF_WINDOW_S.

    On a shared host the CPU speed shifts by up to 1.9x for seconds to minutes
    at a time. Timings divided by this reference, measured beside them, cancel
    that shift. The median over a busy window, not one loop, rides out
    time-slice stalls of a few loops and the first loops slowed by OpenBLAS
    workers that still spin after the program's last call.
    """
    times = []
    end = time.perf_counter() + REF_WINDOW_S
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_run(tally: Tally, seeds, seconds: float) -> tuple[dict, dict]:
    """Cycle over the seeds until --seconds have passed (at least one pass).

    A reference is taken before the first unit and after each one. Each unit's
    times are divided by the median of the REF_SPAN references on either side
    of it: the host's slow and fast spells last seconds to minutes, so this
    tracks them while one reference's own jitter is smoothed out.
    """
    units, attempt = [], []
    start = time.perf_counter()
    refs = [reference_s()]
    i = 0
    while i < len(seeds) or time.perf_counter() - start < seconds:
        unit = tally.run(seeds[i % len(seeds)])
        refs.append(reference_s())
        if unit is not None:
            # Keep timings only, so that memory does not grow with the unit count.
            units.append(dataclasses.replace(unit, series=(), output=None))
            attempt.append(i)  # unit i ran between refs[i] and refs[i + 1]
        i += 1
    scales = [statistics.median(refs[max(0, j + 1 - REF_SPAN):j + 1 + REF_SPAN])
              for j in attempt]
    metrics, raw = {}, {}
    if units:
        runs = [u.seconds for u in units]
        rounds = [r for u in units for r in u.rounds]
        metrics["run_ref"] = statistics.median([t / k for t, k in zip(runs, scales)])
        raw["run_s"] = statistics.median(runs)
        raw["run_s_mean"] = statistics.fmean(runs)
        if rounds:
            scaled = [r / k for u, k in zip(units, scales) for r in u.rounds]
            metrics["round_ref_p50"] = tracing.p50(scaled)
            metrics["round_ref_p90"] = tracing.p90(scaled)
            raw["round_ms_p50"] = 1e3 * tracing.p50(rounds)
            raw["round_ms_p90"] = 1e3 * tracing.p90(rounds)
    raw["ref_ms"] = 1e3 * statistics.median(refs)
    regret = mean_final_regret(tally.first.values(), len(seeds))
    if regret is not None:
        metrics["final_regret"] = regret
    detail = {"units": len(units), "unit_seconds": [u.seconds for u in units],
              "ref_seconds": refs, "round_samples": sum(len(u.rounds) for u in units),
              "measured_s": time.perf_counter() - start, "unscaled": raw}
    return metrics, detail


def traced_run(tally: Tally, pb, seeds) -> tuple[dict, dict]:
    """An untraced pass, then a traced pass over the same seeds."""
    plain = {s: tally.run(s) for s in seeds}
    tracer = tracing.Tracer()
    tracing.install(tracer, pb)
    try:
        traced = {}
        for run_id, seed in enumerate(seeds):
            tracer.run = run_id
            # A rerun of a seed must reproduce its first regret series bit for bit.
            traced[seed] = tally.run(seed, tracer)
    finally:
        tracer.restore()
    both = [s for s in seeds if plain[s] is not None and traced[s] is not None]
    metrics = tracing.layer_metrics(tracer, pb)
    metrics["harness.final_regret"] = mean_final_regret(plain.values(), len(seeds)) or 0.0
    compare = tracer.named("cli.compare")
    outputs = [u.output for u in traced.values() if u is not None and isinstance(u.output, str)]
    metrics.update({
        "cli.compare_ms": tracing.p50([1e3 * s.duration for s in compare]),
        "cli.workers": max((s.info for s in tracer.named("cli.max_workers")), default=0),
        "cli.csv_bytes": max((len(text.encode()) for text in outputs), default=0),
    })
    untimed = sum(plain[s].seconds for s in both)
    metrics["trace.overhead_frac"] = (
        sum(traced[s].seconds for s in both) / untimed - 1.0 if untimed else 0.0)
    detail = {"spans": len(tracer.spans), "traced_units": len(both)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    pb = load_popbandit()
    import workloads

    scratch = workdir()
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.workloads(str(scratch))[args.workload]
        seeds = [args.seed * 1000 + i for i in range(workload.per_pass)]
        inputs = workload.build(pb)
        workload.warmup(pb, inputs)
        tally = Tally(workload, pb, inputs)
        if args.trace:
            metrics, detail = traced_run(tally, pb, seeds)
        else:
            metrics, detail = timed_run(tally, seeds, args.seconds)
        env = environment(args.seed)
        rss = peak_rss_mb(with_children=args.workload == "cli-compare")
        setup = [] if args.trace else measure_setup(args.workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    threads = env["openblas_threads"]
    if args.trace:
        metrics["cli.blas_threads"] = next(
            (n for lib, n in threads.items() if "openblas64" in lib), 0)
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = rss
    failed = sum(tally.failures.values())
    report = {
        "workload": args.workload, "trace": args.trace, "seeds": seeds, "env": env,
        "attempted": tally.attempted, "failed": failed,
        "failed_frac": failed / tally.attempted, "failures": tally.failures,
        "final_regret_by_seed": {s: u.series[-1] for s, u in tally.first.items()
                                 if u.series and isinstance(u.series[-1], float)},
        "setup_s_samples": setup, **detail,
    }
    print(json.dumps({"report": report}))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
    for name, value in report.get("unscaled", {}).items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}  (wall clock, not gated)")
    print(f"  {'failed_frac':<34} {report['failed_frac']:>14.6g}")
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
