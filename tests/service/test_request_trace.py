"""The :class:`RequestTrace` contract: fields, defaults, equality, repr.

``RequestTrace`` is a hand-written slotted class (one is built per
request and per client call); these tests pin the behaviour it keeps
from the dataclass it replaced.
"""

import copy
import inspect
import pickle

import pytest

from repro.service.tracing import OK, RequestTrace

FIELDS = [
    "service", "op", "started_at", "finished_at", "size_mb",
    "base_latency_s", "queue_wait_s", "server_s", "transfer_s", "retries",
    "outcome",
]


def test_field_names_and_defaults():
    params = inspect.signature(RequestTrace).parameters
    assert list(params) == FIELDS
    assert RequestTrace.__slots__ == tuple(FIELDS)
    t = RequestTrace("svc", "op", 1.0, 3.0)
    assert (t.service, t.op, t.started_at, t.finished_at) == (
        "svc", "op", 1.0, 3.0,
    )
    assert (t.size_mb, t.base_latency_s, t.queue_wait_s) == (0.0, 0.0, 0.0)
    assert (t.server_s, t.transfer_s, t.retries) == (0.0, 0.0, 0)
    assert t.outcome == OK


def test_keyword_and_positional_construction_agree():
    a = RequestTrace("s", "o", 0.0, 2.0, 0.5, 0.1, 0.2, 0.3, 0.4, 2, "Err")
    b = RequestTrace(
        service="s", op="o", started_at=0.0, finished_at=2.0, size_mb=0.5,
        base_latency_s=0.1, queue_wait_s=0.2, server_s=0.3, transfer_s=0.4,
        retries=2, outcome="Err",
    )
    assert a == b


def test_ok_and_latency():
    assert RequestTrace("s", "o", 1.0, 3.5).latency_s == pytest.approx(2.5)
    assert RequestTrace("s", "o", 0.0, 1.0).ok
    assert not RequestTrace("s", "o", 0.0, 1.0, outcome="Boom").ok


def test_equality_compares_every_field():
    base = dict(zip(FIELDS, ["s", "o", 0.0, 1.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1,
                             OK]))
    a = RequestTrace(**base)
    assert a == RequestTrace(**base)
    for name in FIELDS:
        changed = dict(base)
        changed[name] = "x" if isinstance(base[name], str) else base[name] + 1
        assert a != RequestTrace(**changed), name
    assert a != tuple(base.values())
    assert (a == tuple(base.values())) is False


def test_repr():
    t = RequestTrace("s", "o", 0.0, 1.5, retries=1)
    assert repr(t) == (
        "RequestTrace(service='s', op='o', started_at=0.0, finished_at=1.5,"
        " size_mb=0.0, base_latency_s=0.0, queue_wait_s=0.0, server_s=0.0,"
        " transfer_s=0.0, retries=1, outcome='ok')"
    )


def test_mutable_but_unhashable_and_without_dict():
    t = RequestTrace("s", "o", 0.0, 1.0)
    t.outcome = "Boom"
    t.retries = 3
    assert (t.outcome, t.retries) == ("Boom", 3)
    assert not hasattr(t, "__dict__")
    with pytest.raises(AttributeError):
        t.colour = "red"
    with pytest.raises(TypeError):
        hash(t)


def test_copy_and_pickle_round_trip():
    t = RequestTrace("s", "o", 0.0, 1.0, 0.25, retries=2, outcome="Err")
    assert pickle.loads(pickle.dumps(t)) == t
    assert copy.copy(t) == t
    assert copy.deepcopy(t) == t
