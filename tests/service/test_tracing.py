"""Unit tests for the bounded request tracer."""

import gc

import pytest

from repro.service.tracing import OK, RequestTrace, RequestTracer


def _trace(op="svc.op", outcome=OK, **kw):
    defaults = dict(
        service="svc",
        op=op,
        started_at=0.0,
        finished_at=1.0,
        outcome=outcome,
    )
    defaults.update(kw)
    return RequestTrace(**defaults)


def test_trace_latency_and_ok():
    t = _trace(started_at=2.0, finished_at=5.5)
    assert t.latency_s == pytest.approx(3.5)
    assert t.ok
    assert not _trace(outcome="OperationTimeoutError").ok


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RequestTracer(capacity=0)
    # None = unbounded is allowed.
    RequestTracer(capacity=None)


def test_counters_and_records():
    tracer = RequestTracer()
    tracer.observe(_trace())
    tracer.observe(_trace(outcome="ServerBusyError"))
    assert tracer.total == 2 and tracer.errors == 1
    assert len(tracer.records()) == 2
    assert tracer.client_total == 0


def test_client_calls_tracked_separately():
    tracer = RequestTracer()
    tracer.observe_call(_trace(retries=2))
    tracer.observe_call(_trace(outcome="ClientTimeoutError", retries=3))
    assert tracer.client_total == 2 and tracer.client_errors == 1
    assert tracer.retries == 5
    assert tracer.records() == []
    assert len(tracer.client_calls()) == 2


def test_capacity_trimming_keeps_aggregates_exact():
    tracer = RequestTracer(capacity=100)
    for i in range(500):
        tracer.observe(_trace(started_at=float(i), finished_at=i + 1.0))
    assert tracer.total == 500
    assert tracer.dropped > 0
    retained = tracer.records()
    assert len(retained) <= 100 + 25  # capacity + one trim block
    assert len(retained) + tracer.dropped == 500
    # Newest records win.
    assert retained[-1].started_at == 499.0
    # Aggregates never trim.
    totals = tracer.per_op_totals()["svc.op"]
    assert totals["count"] == 500
    assert totals["latency_s"] == pytest.approx(500.0)


def test_per_op_totals_fold_stage_timings():
    tracer = RequestTracer()
    tracer.observe(
        _trace(op="a", queue_wait_s=0.5, transfer_s=1.5, size_mb=8.0)
    )
    tracer.observe(
        _trace(op="a", outcome="X", queue_wait_s=0.25, size_mb=2.0)
    )
    tracer.observe(_trace(op="b"))
    totals = tracer.per_op_totals()
    assert totals["a"]["count"] == 2 and totals["a"]["errors"] == 1
    assert totals["a"]["queue_wait_s"] == pytest.approx(0.75)
    assert totals["a"]["transfer_s"] == pytest.approx(1.5)
    assert totals["a"]["size_mb"] == pytest.approx(10.0)
    assert totals["b"]["count"] == 1


def test_of_op_filters():
    tracer = RequestTracer()
    tracer.observe(_trace(op="a"))
    tracer.observe(_trace(op="b"))
    tracer.observe(_trace(op="a"))
    assert [t.op for t in tracer.of_op("a")] == ["a", "a"]


def test_per_service_op_totals_keep_services_apart():
    tracer = RequestTracer()
    tracer.observe(_trace(service="blob", op="get"))
    tracer.observe(_trace(service="table", op="get"))
    tracer.observe(
        _trace(service="table", op="get", outcome="ServerBusyError")
    )
    exact = tracer.per_service_op_totals()
    assert exact[("blob", "get")]["count"] == 1
    assert exact[("table", "get")]["count"] == 2
    assert exact[("table", "get")]["errors"] == 1
    # The op-keyed compatibility view merges across services.
    merged = tracer.per_op_totals()
    assert merged["get"]["count"] == 3
    assert merged["get"]["errors"] == 1


def test_latency_histograms_survive_trimming_and_skip_failures():
    tracer = RequestTracer(capacity=10)
    for i in range(200):
        tracer.observe(_trace(started_at=0.0, finished_at=0.1))
    tracer.observe(_trace(outcome="ServerBusyError", finished_at=9.0))
    assert tracer.dropped > 0
    hist = tracer.latency_histograms()[("svc", "svc.op")]
    assert hist.count == 200  # failures excluded, trimming irrelevant
    assert hist.percentile(99) == pytest.approx(0.1, rel=0.03)
    assert tracer.latency_histograms() is not tracer.latency_histograms()


def test_client_latency_histograms_track_call_level_view():
    tracer = RequestTracer()
    tracer.observe_call(_trace(started_at=0.0, finished_at=0.5, retries=1))
    tracer.observe_call(_trace(outcome="ClientTimeoutError", retries=3))
    hists = tracer.client_latency_histograms()
    assert hists[("svc", "svc.op")].count == 1
    calls = tracer.client_per_op_totals()[("svc", "svc.op")]
    assert calls["count"] == 2 and calls["errors"] == 1
    assert calls["retries"] == 4


def test_disabled_tracer_records_nothing():
    tracer = RequestTracer(enabled=False)
    assert not tracer.enabled
    tracer.observe(_trace())
    tracer.observe_call(_trace())
    assert tracer.total == 0 and tracer.client_total == 0
    assert tracer.records() == []


def test_clear_resets_everything():
    tracer = RequestTracer(capacity=10)
    for i in range(50):
        tracer.observe(_trace())
    tracer.observe_call(_trace(retries=1))
    tracer.clear()
    assert tracer.total == 0 and tracer.errors == 0
    assert tracer.dropped == 0 and tracer.retries == 0
    assert tracer.records() == [] and tracer.client_calls() == []
    assert tracer.per_op_totals() == {}


# -- the retained window --------------------------------------------------

def _varied(i, **kw):
    return _trace(
        op=f"svc.op{i % 3}",
        started_at=float(i),
        finished_at=i + 0.5,
        size_mb=0.25 * i,
        base_latency_s=0.01,
        queue_wait_s=0.002 * i,
        server_s=0.003,
        transfer_s=0.004 * i,
        outcome=OK if i % 4 else "ServerBusyError",
        **kw,
    )


def test_window_returns_field_equal_traces_in_order():
    tracer = RequestTracer()
    requests, calls = [], []
    for i in range(12):
        request = _varied(i)
        call = _varied(i, retries=i % 3)
        tracer.observe(request)
        tracer.observe_call(call)
        requests.append(request)
        calls.append(call)
    assert tracer.records() == requests
    assert tracer.client_calls() == calls
    assert tracer.of_op("svc.op1") == [t for t in requests if t.op == "svc.op1"]
    # Rebuilt on demand: callers cannot reach the window through them.
    tracer.records()[0].op = "changed"
    assert tracer.records()[0] == requests[0]


@pytest.mark.parametrize(
    "observes, kept, dropped",
    # Capacity 8 trims in blocks: at 8 + max(8 // 4, 1) = 10 retained
    # records it drops back to 8.
    [(8, 8, 0), (9, 9, 0), (10, 8, 2), (11, 9, 2), (12, 8, 4)],
)
def test_window_trims_in_blocks(observes, kept, dropped):
    tracer = RequestTracer(capacity=8)
    traces = [_varied(i) for i in range(observes)]
    for trace in traces:
        tracer.observe(trace)
    assert tracer.dropped == dropped
    assert tracer.records() == traces[observes - kept:]
    assert tracer.total == observes


def test_window_trims_both_kinds_together():
    tracer = RequestTracer(capacity=8)
    for i in range(5):
        tracer.observe(_varied(i))
        tracer.observe_call(_varied(i))
    assert tracer.dropped == 2
    assert len(tracer.records()) + len(tracer.client_calls()) == 8
    assert [t.started_at for t in tracer.records()] == [1.0, 2.0, 3.0, 4.0]


def test_enabled_is_a_switch_and_clear_empties_the_window():
    tracer = RequestTracer(capacity=8)
    tracer.observe(_varied(1))
    tracer.enabled = False
    tracer.observe(_varied(2))
    tracer.observe_call(_varied(3))
    tracer.observe_batch("svc", "svc.op", [0.1, 0.2])
    assert tracer.total == 1 and tracer.client_total == 0
    assert tracer.records() == [_varied(1)]
    tracer.enabled = True
    tracer.observe(_varied(4))
    assert tracer.records() == [_varied(1), _varied(4)]
    for i in range(20):
        tracer.observe(_varied(i))
    tracer.clear()
    assert tracer.records() == [] and tracer.dropped == 0
    tracer.observe(_varied(5))
    assert tracer.records() == [_varied(5)] and tracer.total == 1


def test_window_rows_are_untracked_by_the_collector():
    tracer = RequestTracer()
    for i in range(10):
        tracer.observe(_varied(i))
        tracer.observe_call(_varied(i, retries=1))
    gc.collect()
    assert tracer._rows
    assert not any(gc.is_tracked(row) for row in tracer._rows)
