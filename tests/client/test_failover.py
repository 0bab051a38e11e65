"""Tests for replica-aware client routing: failover, hedging, spans."""

import pytest

from repro.client import TableClient
from repro.client.service_client import FailoverPolicy
from repro.faults import FaultInjector
from repro.observability import spans as spanlib
from repro.observability.spans import SpanTracer
from repro.resilience.backoff import NO_RETRY
from repro.resilience.hedging import HedgePolicy
from repro.simcore import Environment, RandomStreams
from repro.storage import (
    AccountFailoverError,
    GeoReplicatedAccount,
    OperationTimeoutError,
    ReplicationConfig,
    StorageAccount,
)
from repro.storage.errors import ConnectionFailureError, is_transport_failure
from repro.storage.table import make_entity


def _geo(seed=0, spans=False, **cfg):
    env = Environment()
    streams = RandomStreams(seed)
    geo = GeoReplicatedAccount(
        env, streams, name="geo",
        replication=ReplicationConfig(**cfg) if cfg else None,
    )
    if spans:
        geo.tracer.spans = SpanTracer()
    for replica in (geo.primary, geo.secondary):
        replica.tables.create_table("t")
        replica.tables.seed_entity("t", make_entity("hot", "hot"))
    return env, geo


def _fault_primary(env, geo, kind="blackout", magnitude=0.0):
    """Open a long fault window on the primary's hot partition server."""
    server = geo.primary.tables.server_for("t", "hot")
    injector = FaultInjector(env, RandomStreams(99).stream("faults"))
    injector.attach(server)
    injector.add_window(0.0, 10_000.0, kind, magnitude)
    return injector


def _run(env, gen):
    box = {}

    def runner(env):
        box["result"] = yield from gen

    env.process(runner(env))
    env.run()
    return box.get("result")


def test_read_fails_over_to_secondary_when_primary_blacks_out():
    env, geo = _geo()
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    entity = _run(env, client.query("t", "hot", "hot"))
    assert entity.key == ("hot", "hot")
    assert client.failovers == 1


def test_failover_span_waterfall_shows_replica_legs():
    env, geo = _geo(spans=True)
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    _run(env, client.query("t", "hot", "hot"))

    recorded = geo.tracer.spans.spans()
    calls = [s for s in recorded if s.name == "call:table.query"]
    assert len(calls) == 1
    call = calls[0]
    assert call.kind == spanlib.CLIENT
    assert call.ok
    # The call-level span records which replica ultimately served it.
    assert call.attributes["replica"] == "secondary"

    attempts = [
        s for s in recorded
        if s.kind == spanlib.ATTEMPT and s.parent_id == call.span_id
    ]
    assert [a.attributes["replica"] for a in attempts] == [
        "primary", "secondary",
    ]
    assert attempts[0].status == "ConnectionFailureError"
    assert attempts[1].ok
    # The waterfall is causally ordered: the failover leg starts only
    # after the primary leg has failed.
    assert attempts[1].start_s >= attempts[0].end_s


def test_client_without_secondary_emits_no_replica_attributes():
    """Seed behaviour: single-replica clients trace exactly as before."""
    env = Environment()
    account = StorageAccount(env, RandomStreams(0), name="acct")
    account.tracer.spans = SpanTracer()
    account.tables.create_table("t")
    account.tables.seed_entity("t", make_entity("hot", "hot"))
    client = TableClient(account.tables)
    entity = _run(env, client.query("t", "hot", "hot"))
    assert entity.key == ("hot", "hot")
    recorded = account.tracer.spans.spans()
    assert recorded  # the call + attempt (+ server) spans were emitted
    assert all("replica" not in s.attributes for s in recorded)


def test_failover_disabled_by_policy_surfaces_the_error():
    env, geo = _geo()
    _fault_primary(env, geo)
    client = geo.table_client(
        retry=NO_RETRY, failover=FailoverPolicy(enabled=False)
    )
    caught = {}

    def scenario(env):
        try:
            yield from client.query("t", "hot", "hot")
        except ConnectionFailureError as exc:
            caught["error"] = exc

    env.process(scenario(env))
    env.run()
    assert isinstance(caught["error"], ConnectionFailureError)
    assert client.failovers == 0


def test_writes_never_fail_over_to_the_demoted_secondary():
    """The failover pass runs for writes too, but the account's write
    guard rejects the demoted replica -- retryably, so the client can
    ride out the promotion instead of forking history."""
    env, geo = _geo()
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    caught = {}

    def scenario(env):
        try:
            yield from client.insert("t", make_entity("hot", "k2"))
        except AccountFailoverError as exc:
            caught["error"] = exc

    env.process(scenario(env))
    env.run()
    assert isinstance(caught["error"], AccountFailoverError)
    assert is_transport_failure(caught["error"])  # i.e. retryable
    assert client.failovers == 0  # the guard rejected the second leg


def test_route_hint_sends_calls_straight_to_secondary_after_failover():
    env, geo = _geo(promotion_s=0.0)
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    seen = {}

    def scenario(env):
        yield from geo.failover()
        seen["read"] = yield from client.query("t", "hot", "hot")
        seen["write"] = yield from client.insert(
            "t", make_entity("hot", "k2")
        )
        # The commit hook ledgered the write for the lag window.
        seen["at_risk"] = geo.writes_at_risk(env.now)

    env.process(scenario(env))
    env.run()
    assert seen["read"].key == ("hot", "hot")
    assert seen["write"].key == ("hot", "k2")
    # The route hint sent both calls to the promoted secondary directly:
    # no failover pass was ever needed, despite the dark primary.
    assert client.failovers == 0
    assert seen["at_risk"] == 1


def test_hedged_read_races_the_secondary_replica():
    env, geo = _geo()
    _fault_primary(env, geo, kind="latency_spike", magnitude=50.0)
    hedge = HedgePolicy(default_delay_s=0.05, warmup=1_000)
    client = geo.table_client(retry=NO_RETRY, hedge=hedge)
    entity = _run(env, client.query("t", "hot", "hot"))
    assert entity.key == ("hot", "hot")
    # The primary leg sat in the spike past the hedge delay; the backup
    # leg against the healthy secondary won the race.
    assert hedge.launched == 1
    assert hedge.wins == 1
    assert client.failovers == 0  # hedging is not failover


def test_pin_secondary_keeps_routing_there_after_a_failover():
    env = Environment()
    streams = RandomStreams(0)
    primary = StorageAccount(env, streams, name="acct-p")
    secondary = StorageAccount(env, streams, name="acct-s")
    for account in (primary, secondary):
        account.tables.create_table("t")
        account.tables.seed_entity("t", make_entity("hot", "hot"))
    server = primary.tables.server_for("t", "hot")
    injector = FaultInjector(env, RandomStreams(99).stream("faults"))
    injector.attach(server)
    injector.add_window(0.0, 50.0, "blackout")
    client = TableClient(
        primary.tables,
        retry=NO_RETRY,
        secondary=secondary.tables,
        failover=FailoverPolicy(pin_secondary_s=100.0),
    )
    pinned = {}

    def scenario(env):
        yield from client.query("t", "hot", "hot")  # fails over and pins
        pinned["after_first"] = (
            client.failovers, client._default_replica(),
        )
        yield from client.query("t", "hot", "hot")
        # Still one failover: the second call went straight to the
        # pinned secondary instead of re-failing on the dark primary.
        pinned["after_second"] = (
            client.failovers, client._default_replica(),
        )
        yield env.timeout(200.0)  # pin expired, primary repaired
        pinned["after_expiry"] = client._default_replica()
        yield from client.query("t", "hot", "hot")
        pinned["final_failovers"] = client.failovers

    env.process(scenario(env))
    env.run()
    assert pinned["after_first"] == (1, "secondary")
    assert pinned["after_second"] == (1, "secondary")
    assert pinned["after_expiry"] == "primary"
    assert pinned["final_failovers"] == 1


def test_failover_counts_in_measured_calls_too():
    env, geo = _geo()
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)

    def scenario(env):
        result, outcome = yield from client.query_measured(
            "t", "hot", "hot"
        )
        assert outcome.ok
        assert result.key == ("hot", "hot")

    env.process(scenario(env))
    env.run()
    assert client.failovers == 1


def _time_out_queries(env, replica):
    """Make ``replica``'s table ``query`` fail with a server timeout."""

    def query(table, pk, rk):
        yield env.timeout(0.01)
        raise OperationTimeoutError(
            "query timed out", service=replica.tables.name, op="table.query"
        )

    replica.tables.query = query


def _call_query(env, client, measured):
    box = {}

    def scenario(env):
        if measured:
            box["result"], box["outcome"] = yield from client.query_measured(
                "t", "hot", "hot"
            )
            return
        try:
            box["result"] = yield from client.query("t", "hot", "hot")
        except OperationTimeoutError as exc:
            box["error"] = exc

    env.process(scenario(env))
    env.run()
    return box


@pytest.mark.parametrize("measured", [False, True])
def test_call_trace_names_the_replica_that_served_the_failover(measured):
    env, geo = _geo()
    _time_out_queries(env, geo.primary)
    client = geo.table_client(retry=NO_RETRY)
    box = _call_query(env, client, measured)
    assert box["result"].key == ("hot", "hot")
    assert client.failovers == 1
    key = ("geo-secondary.tables", "table.query")
    assert key in geo.tracer.per_service_op_totals()
    calls = geo.tracer.client_per_op_totals()
    assert list(calls) == [key]
    assert calls[key]["count"] == 1 and calls[key]["errors"] == 0
    assert [c.service for c in geo.tracer.client_calls()] == [key[0]]


@pytest.mark.parametrize("measured", [False, True])
def test_failed_call_trace_names_the_last_replica_tried(measured):
    env, geo = _geo()
    _time_out_queries(env, geo.primary)
    _time_out_queries(env, geo.secondary)
    client = geo.table_client(retry=NO_RETRY)
    box = _call_query(env, client, measured)
    if measured:
        assert box["result"] is None and not box["outcome"].ok
    else:
        assert isinstance(box["error"], OperationTimeoutError)
    assert client.failovers == 0
    calls = geo.tracer.client_per_op_totals()
    assert list(calls) == [("geo-secondary.tables", "table.query")]
    assert calls[("geo-secondary.tables", "table.query")]["errors"] == 1
