"""In-memory span recorder attached to popbandit's public functions.

Each wrapper replaces one function where its caller looks it up, records a
span (name, start, end, parent, run id) around the call and hands the result
back unchanged. Nothing here touches a run's random generator, so a traced
run makes the same decisions as an untraced one; the benchmark checks that.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root span
    run: int = 0
    info: object = None
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # Calls nest on one thread, so direct children never overlap.
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    run: int = 0
    _stack: list[int] = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def call(self, name, fn, *args, info=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; info(args, kwargs, result) -> span.info."""
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1, run=self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.duration
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace owner.attr by a traced wrapper until restore().

        info(arguments, result), when given, receives the call's arguments
        bound to their parameter names and returns what the span keeps.
        """
        original = getattr(owner, attr)
        bind = inspect.signature(original).bind
        keep = None if info is None else (
            lambda args, kwargs, result: info(bind(*args, **kwargs).arguments, result))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, info=keep, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def install(tracer: Tracer, pb) -> None:
    """Wrap every layer boundary the benchmark reports on.

    `pb` is a namespace holding the imported popbandit modules. Functions are
    wrapped in the module whose code calls them: `strategies` and `harness`
    import names into their own namespace, while `bandit` functions are looked
    up through the module and GPModel methods through the class.
    """
    bd, gp, st, hn, cli = pb.bandit, pb.gp, pb.strategies, pb.harness, pb.cli

    def fit_info(a, theta):
        data = a["data_or_model"]
        if isinstance(data, gp.GPModel):
            return (data.X, data.H, data.t, data.y), a.get("bounds") or data.bounds, theta
        return data, a.get("bounds"), theta

    tracer.wrap(st, "fit", "gp.fit", info=fit_info)
    tracer.wrap(gp.GPModel, "posterior", "gp.posterior", info=lambda a, r: len(r[0]))
    tracer.wrap(gp.GPModel, "with_observation", "gp.with_observation")
    tracer.wrap(st, "select_batch_continuous", "acquisition.select",
                info=lambda a, r: len(r))
    tracer.wrap(bd, "select_batch", "bandit.select", info=lambda a, r: bool(r[2].s0))
    tracer.wrap(bd, "depround", "bandit.depround")
    tracer.wrap(bd, "update", "bandit.update")
    tracer.wrap(st, "filter_by_category", "space.filter", info=lambda a, r: len(a["data"]))
    for module in (st, hn):
        tracer.wrap(module, "normalize_rewards", "space.normalize")
    for attr in ("explore_random", "explore_pbt", "explore_pb2_rand",
                 "explore_pb2_mult", "explore_pb2_mix"):
        tracer.wrap(hn, attr, "strategies.explore")
    tracer.wrap(hn, "exploit_truncation", "strategies.exploit")
    tracer.wrap(cli, "_max_workers", "cli.max_workers", info=lambda a, r: r)


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def _ms(spans) -> list[float]:
    return [1e3 * s.duration for s in spans]


def layer_metrics(tracer: Tracer, pb) -> dict[str, float]:
    """Per-layer counts and timings over every span the tracer holds.

    gp.fit_lml_mean evaluates gp.log_marginal at each fitted theta here, after
    the traced runs, so it adds nothing to any span.
    """
    gp = pb.gp
    fits = tracer.named("gp.fit")
    lmls, sizes = [], []
    for span in fits:
        (X, H, t, y), bounds, theta = span.info
        sizes.append(len(y))
        if len(y) >= 1:
            lmls.append(gp.log_marginal(gp.GPModel(X, H, t, y, theta, bounds)))
    posts = tracer.named("gp.posterior")
    appends = tracer.named("gp.with_observation")
    acq = tracer.named("acquisition.select")
    picks = sum(s.info for s in acq)
    selects = tracer.named("bandit.select")
    filters = tracer.named("space.filter")
    norms = tracer.named("space.normalize")
    explores = tracer.named("strategies.explore")
    return {
        "gp.fit_calls": len(fits),
        "gp.fit_ms_p50": p50(_ms(fits)),
        "gp.fit_ms_p90": p90(_ms(fits)),
        "gp.fit_n_mean": statistics.fmean(sizes) if sizes else 0.0,
        "gp.fit_lml_mean": statistics.fmean(lmls) if lmls else 0.0,
        "gp.posterior_calls": len(posts),
        "gp.posterior_points": sum(s.info for s in posts),
        "gp.posterior_ms_total": sum(_ms(posts)),
        "gp.with_observation_calls": len(appends),
        "gp.with_observation_ms_total": sum(_ms(appends)),
        "acquisition.select_calls": len(acq),
        "acquisition.picks": picks,
        "acquisition.select_ms_p50": p50(_ms(acq)),
        "acquisition.self_ms_total": sum(1e3 * s.self_time for s in acq),
        "acquisition.useful_append_frac": (picks - len(acq)) / picks if picks else 0.0,
        "bandit.select_calls": len(selects),
        "bandit.select_ms_total": sum(_ms(selects)),
        "bandit.depround_ms_total": sum(_ms(tracer.named("bandit.depround"))),
        "bandit.update_ms_total": sum(_ms(tracer.named("bandit.update"))),
        "bandit.capped_frac": (sum(s.info for s in selects) / len(selects)
                               if selects else 0.0),
        "space.normalize_calls": len(norms),
        "space.normalize_ms_total": sum(_ms(norms)),
        "space.filter_calls": len(filters),
        "space.filter_rows": sum(s.info for s in filters),
        "space.filter_ms_total": sum(_ms(filters)),
        "strategies.explore_ms_p50": p50(_ms(explores)),
        "strategies.explore_ms_p90": p90(_ms(explores)),
        "strategies.exploit_ms_total": sum(_ms(tracer.named("strategies.exploit"))),
        "harness.self_ms": sum(1e3 * s.self_time for s in tracer.named("harness.run")),
    }
