"""Pins of the request path's event schedule and work.

The request path (client -> pipeline -> partition -> tracer) may get
cheaper, but it must schedule the same kernel events and fold the same
traces.  The counts below were measured before the per-request path was
trimmed; any change to them is a change of the simulation, not of its
cost.
"""

import pytest

from repro.scenarios.driver import run_scenario
from repro.scenarios.registry import get_scenario
from repro.workloads.harness import build_platform
from repro.workloads.table_bench import run_table_test

OPS = {"insert": 10, "query": 10, "update": 5, "delete": 10}


@pytest.mark.parametrize(
    "n, kb, events, traced",
    [
        (16, 4, 5400, (560, 0, 560, 0)),
        # 64 kB at 128 clients: the shedding regime, with timeouts.
        (128, 64, 43070, (4462, 4, 4462, 4)),
    ],
)
def test_table_run_schedules_the_pinned_events(n, kb, events, traced):
    p = build_platform(seed=3, n_clients=n)
    run_table_test(n, kb, OPS, seed=3, platform=p)
    tracer = p.tracer
    # _seq counts every event the kernel scheduled in the run.
    assert p.env._seq == events
    assert (
        tracer.total, tracer.errors, tracer.client_total,
        tracer.client_errors,
    ) == traced


def test_tracer_snapshot_is_identical_with_spans_on_and_off():
    spec = get_scenario("fig2-table").scaled(0.05)
    snapshots = []
    for spans in (False, True):
        p = build_platform(seed=3, n_clients=8, spans=spans)
        run_scenario(spec, n_clients=8, seed=3, mode="exact", platform=p)
        snapshots.append(p.tracer.snapshot())
        if spans:
            assert len(p.spans.spans()) > 0
    off, on = snapshots
    assert off["total"] > 0
    assert on == off
