"""The benchmark's tracer wraps popbandit functions by name; these names must stay.

perfbench/tracing.py is loaded from its file as it is, then installed around
one short run per strategy. A traced run must make the same decisions as an
untraced one, and each layer must still be reached through the name the tracer
wraps.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from popbandit import bandit, cli, gp, harness, strategies
from popbandit.acquisition import AcquisitionConfig
from popbandit.strategies import StrategyKind

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
FAST_ACQ = AcquisitionConfig(n_candidates=50, n_refine_steps=3)
PB2 = {StrategyKind.PB2_RAND, StrategyKind.PB2_MULT, StrategyKind.PB2_MIX}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def run(kind):
    return harness.run_experiment(harness.sincos_space(), harness.sincos_objective(), kind,
                                  4, 5, seed=0, acq_cfg=FAST_ACQ)


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_traced_run_matches_and_records_each_layer(tracing, kind):
    pb = SimpleNamespace(bandit=bandit, gp=gp, strategies=strategies, harness=harness, cli=cli)
    plain = run(kind)
    tracer = tracing.Tracer()
    originals = (strategies.fit, harness.explore_pb2_mult, strategies.filter_by_category)
    tracing.install(tracer, pb)
    try:
        traced = run(kind)
    finally:
        tracer.restore()
    assert (strategies.fit, harness.explore_pb2_mult, strategies.filter_by_category) == originals
    assert traced.cum_regret == plain.cum_regret

    names = {span.name for span in tracer.spans}
    # The initial population, then one explore and one exploit per round but the last.
    assert len(tracer.named("strategies.explore")) == 1 + 4
    assert len(tracer.named("strategies.exploit")) == 4
    if kind in PB2:
        assert {"gp.fit", "acquisition.select", "space.normalize"} <= names
    if kind is StrategyKind.PB2_MULT:
        assert "space.filter" in names
    metrics = tracing.layer_metrics(tracer, pb)
    # One fit per GP in round 1 (pb2-mult keeps one GP per arm); the next refit is at round 6.
    assert metrics["gp.fit_calls"] == {StrategyKind.PB2_MULT: 2}.get(kind, int(kind in PB2))
    assert metrics["space.filter_rows"] == sum(
        span.info for span in tracer.named("space.filter"))
