"""Unit tests for table-service semantics."""

import pytest

from repro.simcore import Environment, RandomStreams
from repro.storage import (
    EntityAlreadyExistsError,
    EntityNotFoundError,
    TableService,
)
from repro.storage.errors import PreconditionFailedError
from repro.storage.table import make_entity


def _svc(env, seed=0):
    return TableService(env, RandomStreams(seed).stream("table"))


def _run(env, gen):
    """Drive a service generator to completion; returns (result, error)."""
    box = {}

    def proc(env):
        try:
            box["result"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - test harness
            box["error"] = exc

    env.process(proc(env))
    env.run()
    return box.get("result"), box.get("error")


def test_insert_then_query_roundtrip():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    entity = make_entity("p", "r1", size_kb=4.0)
    _, err = _run(env, svc.insert("t", entity))
    assert err is None
    found, err = _run(env, svc.query("t", "p", "r1"))
    assert err is None
    assert found is entity
    assert svc.entity_count("t") == 1


def test_insert_duplicate_key_fails():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _run(env, svc.insert("t", make_entity("p", "r")))
    _, err = _run(env, svc.insert("t", make_entity("p", "r")))
    assert isinstance(err, EntityAlreadyExistsError)


def test_query_missing_entity_fails():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _, err = _run(env, svc.query("t", "p", "nope"))
    assert isinstance(err, EntityNotFoundError)


def test_unconditional_update_replaces_and_bumps_etag():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    original = make_entity("p", "r")
    _run(env, svc.insert("t", original))
    first_etag = original.etag
    replacement = make_entity("p", "r", f1=99)
    _, err = _run(env, svc.update("t", replacement))
    assert err is None
    assert replacement.etag != first_etag
    found, _ = _run(env, svc.query("t", "p", "r"))
    assert found.properties["f1"] == 99


def test_conditional_update_enforces_etag():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    entity = make_entity("p", "r")
    _run(env, svc.insert("t", entity))
    stale = entity.etag
    _run(env, svc.update("t", make_entity("p", "r")))  # bumps etag
    _, err = _run(env, svc.update("t", make_entity("p", "r"), if_match=stale))
    assert isinstance(err, PreconditionFailedError)


def test_update_missing_entity_fails():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _, err = _run(env, svc.update("t", make_entity("p", "ghost")))
    assert isinstance(err, EntityNotFoundError)


def test_delete_removes_entity():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _run(env, svc.insert("t", make_entity("p", "r")))
    _, err = _run(env, svc.delete("t", "p", "r"))
    assert err is None
    assert svc.entity_count("t") == 0
    _, err = _run(env, svc.delete("t", "p", "r"))
    assert isinstance(err, EntityNotFoundError)


def test_query_by_property_scans_partition():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    for i in range(20):
        _run(env, svc.insert("t", make_entity("p", f"r{i}", f1=i)))
    hits, err = _run(
        env,
        svc.query_by_property("t", "p", lambda e: e.properties["f1"] % 2 == 0),
    )
    assert err is None
    assert len(hits) == 10


def test_property_scan_cost_grows_with_partition_size():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    for i in range(50):
        _run(env, svc.insert("t", make_entity("p", f"r{i}")))
    t0 = env.now
    _run(env, svc.query_by_property("t", "p", lambda e: False))
    small_cost = env.now - t0

    env2 = Environment()
    svc2 = _svc(env2)
    svc2.create_table("t")
    svc2.preload("t", (make_entity("p", f"r{i}") for i in range(5000)))
    t0 = env2.now
    _run(env2, svc2.query_by_property("t", "p", lambda e: False))
    large_cost = env2.now - t0
    assert large_cost > small_cost * 5


def test_operations_on_missing_table_fail():
    env = Environment()
    svc = _svc(env)
    _, err = _run(env, svc.insert("ghost", make_entity("p", "r")))
    assert isinstance(err, EntityNotFoundError)


def test_partition_isolation():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _run(env, svc.insert("t", make_entity("p1", "r")))
    _run(env, svc.insert("t", make_entity("p2", "r")))
    assert svc.entity_count("t", "p1") == 1
    assert svc.entity_count("t") == 2
    s1 = svc.server_for("t", "p1")
    s2 = svc.server_for("t", "p2")
    assert s1 is not s2
    assert svc.server_for("t", "p1") is s1


def test_entity_key_and_timestamp():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    e = make_entity("p", "r", size_kb=2.0)
    assert e.key == ("p", "r")
    _run(env, svc.insert("t", e))
    assert e.timestamp > 0
    assert e.size_kb == 2.0


# -- partition index and shared scan snapshots ------------------------------

def _spy_snapshots(svc):
    """Record (time, scan set) each time a scan captures its rows."""
    seen = []
    capture = svc._snapshot

    def spy(*args):
        snap = capture(*args)
        seen.append((svc.env.now, snap))
        return snap

    svc._snapshot = spy
    return seen


def _scan_all(env, svc, n, predicate=lambda e: True):
    """Start ``n`` concurrent scans of partition "p"; returns their results."""
    results = [None] * n

    def scanner(env, idx):
        results[idx] = yield from svc.query_by_property("t", "p", predicate)

    for idx in range(n):
        env.process(scanner(env, idx))
    return results


def test_concurrent_scans_share_one_snapshot():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    entities = [make_entity("p", f"r{i}", f1=i % 7) for i in range(300)]
    svc.preload("t", entities)
    svc.preload("t", [make_entity("q", "other", f1=3)])
    seen = _spy_snapshots(svc)
    predicate = lambda e: e.properties["f1"] == 3  # noqa: E731
    results = _scan_all(env, svc, 12, predicate)
    env.run()
    assert len(seen) == 12
    assert all(snap is seen[0][1] for _, snap in seen)
    fresh = [e for e in entities if predicate(e)]
    assert all(result == fresh for result in results)
    assert all(a is b for a, b in zip(results[0], fresh))


def _mutate_insert(env, svc):
    _run(env, svc.insert("t", make_entity("p", "new")))


def _mutate_update(env, svc):
    _run(env, svc.update("t", make_entity("p", "r1", f1=99)))


def _mutate_delete(env, svc):
    _run(env, svc.delete("t", "p", "r1"))


def _mutate_insert_batch(env, svc):
    batch = [make_entity("p", "b1"), make_entity("p", "b2")]
    _run(env, svc.insert_batch("t", batch))


def _mutate_seed_entity(env, svc):
    svc.seed_entity("t", make_entity("p", "new"))


def _mutate_preload(env, svc):
    svc.preload("t", [make_entity("p", "new1"), make_entity("p", "new2")])


@pytest.mark.parametrize(
    "mutate",
    [
        _mutate_insert,
        _mutate_update,
        _mutate_delete,
        _mutate_insert_batch,
        _mutate_seed_entity,
        _mutate_preload,
    ],
)
def test_every_write_path_drops_the_snapshot(mutate):
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    svc.preload("t", (make_entity("p", f"r{i}") for i in range(5)))
    seen = _spy_snapshots(svc)
    before, _ = _run(env, svc.query_by_property("t", "p", lambda e: True))
    mutate(env, svc)
    after, _ = _run(env, svc.query_by_property("t", "p", lambda e: True))
    assert seen[1][1] is not seen[0][1]
    assert after != before
    # The new snapshot is the partition in insertion order, with an
    # update kept in place.
    assert [e.row_key for e in after] == list(svc._tables["t"]["p"])
    if mutate is _mutate_update:
        assert [e.row_key for e in after] == [e.row_key for e in before]
        assert after[1].properties["f1"] == 99


def test_write_while_a_scan_waits_for_cpu_is_seen_by_the_next_scan():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    svc.preload("t", (make_entity("p", f"r{i}") for i in range(5000)))
    server = svc.server_for("t", "p")
    seen = _spy_snapshots(svc)
    # One scan more than the server has cores: the last one queues.
    n_scans = server.cpu.capacity + 1
    results = _scan_all(env, svc, n_scans)
    late = make_entity("p", "late")

    def writer(env):
        yield env.timeout(0.1)
        assert len(seen) == n_scans  # every scan has captured its rows
        assert server.cpu.queue  # and at least one still waits for CPU
        svc.seed_entity("t", late)

    env.process(writer(env))
    env.run()
    assert all(len(result) == 5000 for result in results)
    assert all(late not in result for result in results)
    following, _ = _run(env, svc.query_by_property("t", "p", lambda e: True))
    assert len(following) == 5001
    assert following[-1] is late


def test_reads_do_not_grow_the_index():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _, err = _run(env, svc.query("t", "ghost", "r"))
    assert isinstance(err, EntityNotFoundError)
    _, err = _run(env, svc.delete("t", "ghost", "r"))
    assert isinstance(err, EntityNotFoundError)
    hits, err = _run(env, svc.query_by_property("t", "ghost", lambda e: True))
    assert err is None and hits == []
    assert svc._tables["t"] == {}
    assert svc._snapshots == {}
    assert svc.entity_count("t", "ghost") == 0


def test_deleting_the_last_row_drops_the_partition():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    svc.preload("t", [make_entity("p", "r"), make_entity("q", "r")])
    _run(env, svc.query_by_property("t", "p", lambda e: True))
    _, err = _run(env, svc.delete("t", "p", "r"))
    assert err is None
    assert list(svc._tables["t"]) == ["q"]
    assert ("t", "p") not in svc._snapshots
    assert svc.entity_count("t", "p") == 0
    assert svc.entity_count("t") == 1


def test_preload_keeps_the_seed_checks():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    env.run(until=5.0)
    rng_state = svc.rng.bit_generator.state
    loaded = [make_entity("p", "a"), make_entity("p2", "b")]
    svc.preload("t", loaded)
    assert all(e.timestamp == 5.0 for e in loaded)
    assert [s.name for s in svc.servers()] == ["tables/t/p", "tables/t/p2"]
    assert svc.rng.bit_generator.state == rng_state
    assert env.peek() == float("inf")  # no events scheduled
    with pytest.raises(EntityAlreadyExistsError):
        svc.preload("t", [make_entity("p", "c"), make_entity("p", "a")])
    # Entities before the duplicate stay loaded.
    assert svc.entity_count("t", "p") == 2
    with pytest.raises(EntityAlreadyExistsError):
        svc.seed_entity("t", make_entity("p2", "b"))
    with pytest.raises(EntityNotFoundError):
        svc.preload("ghost", [make_entity("p", "a")])


# -- memoized filter results on the scan snapshot ----------------------------

class _CountingPredicate:
    """``f1 == 3``, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, entity):
        self.calls += 1
        return entity.properties["f1"] == 3


def _filled(n=300):
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    svc.preload("t", [make_entity("p", f"r{i}", f1=i % 7) for i in range(n)])
    return env, svc


def test_concurrent_scans_share_one_filter_evaluation():
    env, svc = _filled(300)
    predicate = _CountingPredicate()
    results = _scan_all(env, svc, 12, predicate)
    env.run()
    assert predicate.calls == 300
    expected = [e for e in svc._tables["t"]["p"].values()
                if e.properties["f1"] == 3]
    assert all(result == expected for result in results)


@pytest.mark.parametrize(
    "mutate",
    [
        _mutate_insert,
        _mutate_update,
        _mutate_delete,
        _mutate_insert_batch,
        _mutate_seed_entity,
        _mutate_preload,
    ],
)
def test_every_write_path_drops_the_memo(mutate):
    env, svc = _filled(5)
    predicate = _CountingPredicate()
    _run(env, svc.query_by_property("t", "p", predicate))
    _run(env, svc.query_by_property("t", "p", predicate))
    assert predicate.calls == 5
    mutate(env, svc)
    after, _ = _run(env, svc.query_by_property("t", "p", predicate))
    rows = list(svc._tables["t"]["p"].values())
    assert predicate.calls == 5 + len(rows)
    assert after == [e for e in rows if e.properties["f1"] == 3]


def test_different_predicates_do_not_share_a_result():
    env, svc = _filled(70)
    threes, _ = _run(env, svc.query_by_property(
        "t", "p", lambda e: e.properties["f1"] == 3))
    fours, _ = _run(env, svc.query_by_property(
        "t", "p", lambda e: e.properties["f1"] == 4))
    assert len(threes) == len(fours) == 10
    assert all(e.properties["f1"] == 3 for e in threes)
    assert all(e.properties["f1"] == 4 for e in fours)


def test_each_scan_gets_its_own_list():
    env, svc = _filled(70)
    predicate = _CountingPredicate()
    results = _scan_all(env, svc, 3, predicate)
    env.run()
    assert predicate.calls == 70
    assert results[0] is not results[1]
    results[0].clear()
    results[1].append("junk")
    later, _ = _run(env, svc.query_by_property("t", "p", predicate))
    assert predicate.calls == 70
    assert len(results[2]) == len(later) == 10
    assert "junk" not in later


def test_fixed_latch_ops_share_one_spec_per_kind_and_size():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    specs = []
    svc.pipeline.execute = _recording_execute(svc.pipeline.execute, specs)
    for rk in ("a", "b"):
        _run(env, svc.insert("t", make_entity("p", rk, size_kb=4.0)))
    _run(env, svc.insert("t", make_entity("p", "c", size_kb=8.0)))
    for rk in ("a", "b"):
        _run(env, svc.query("t", "p", rk))
        _run(env, svc.delete("t", "p", rk))
    for _ in range(2):
        _run(env, svc.update("t", make_entity("p", "c", size_kb=8.0)))
    by_kind = {}
    for kind, spec in specs:
        by_kind.setdefault(kind, []).append(spec)
    a, b, c = by_kind["table.insert"]
    assert a is b and a is not c and c.payload_mb == 8.0 / 1024.0
    for kind in ("table.query", "table.delete"):
        first, second = by_kind[kind]
        assert first is second
    # Update latches on its entity: a fresh spec per call.
    u1, u2 = by_kind["table.update"]
    assert u1 == u2 and u1 is not u2
    assert u1.latch_key == ("entity", ("p", "c"))


def test_spec_cache_is_bounded(monkeypatch):
    import repro.storage.table as table_mod

    monkeypatch.setattr(table_mod, "_SPEC_CACHE_SIZE", 3)
    svc = _svc(Environment())
    specs = [svc._fixed_op("insert", float(kb)) for kb in range(1, 6)]
    assert len(svc._specs) == 3
    assert svc._fixed_op("insert", 1.0) is specs[0]
    assert svc._fixed_op("insert", 5.0) is not specs[4]
    assert svc._fixed_op("insert", 5.0) == specs[4]


def _recording_execute(execute, specs):
    def wrapper(kind, op=None, **kw):
        def spec():
            s = op() if callable(op) else op
            specs.append((kind, s))
            return s

        return execute(kind, spec, **kw)

    return wrapper
