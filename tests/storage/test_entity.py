"""The :class:`Entity` contract: fields, defaults, key, equality, repr.

``Entity`` is a hand-written slotted class (slots work the same on every
supported Python, 3.9 included); these tests pin the behaviour it keeps
from the dataclass it replaced.
"""

import copy
import inspect
import pickle

import pytest

from repro.storage.table import Entity


def test_field_names_and_defaults():
    params = inspect.signature(Entity).parameters
    assert list(params) == [
        "partition_key", "row_key", "properties", "size_kb", "etag",
        "timestamp",
    ]
    assert Entity.__slots__ == tuple(params)
    e = Entity("p", "r")
    assert e.partition_key == "p" and e.row_key == "r"
    assert e.properties == {}
    assert e.size_kb == 1.0
    assert e.timestamp == 0.0
    assert isinstance(e.etag, int)


def test_defaults_are_fresh_per_instance():
    a, b = Entity("p", "a"), Entity("p", "b")
    assert a.properties is not b.properties
    assert b.etag > a.etag
    assert Entity("p", "c", etag=7).etag == 7


def test_keyword_and_positional_construction_agree():
    props = {"f1": 1}
    a = Entity("p", "r", props, 4.0, 3, 2.5)
    b = Entity(
        partition_key="p", row_key="r", properties=props, size_kb=4.0,
        etag=3, timestamp=2.5,
    )
    assert a == b
    assert a.properties is props


def test_key():
    assert Entity("p", "r").key == ("p", "r")


def test_equality_compares_every_field():
    a = Entity("p", "r", {"f1": 1}, etag=1)
    assert a == Entity("p", "r", {"f1": 1}, etag=1)
    assert a != Entity("p", "r", {"f1": 2}, etag=1)
    assert a != Entity("p", "r", {"f1": 1}, etag=2)
    assert a != Entity("p", "r", {"f1": 1}, size_kb=2.0, etag=1)
    assert a != Entity("p", "r", {"f1": 1}, etag=1, timestamp=1.0)
    assert a != Entity("q", "r", {"f1": 1}, etag=1)
    assert a != ("p", "r")
    assert (a == ("p", "r")) is False


def test_repr():
    e = Entity("p", "r", {"f1": 0}, size_kb=2.0, etag=5, timestamp=1.5)
    assert repr(e) == (
        "Entity(partition_key='p', row_key='r', properties={'f1': 0},"
        " size_kb=2.0, etag=5, timestamp=1.5)"
    )


def test_mutable_but_unhashable_and_without_dict():
    e = Entity("p", "r", etag=1)
    e.etag = 2
    e.timestamp = 3.0
    e.properties["f1"] = 4
    assert (e.etag, e.timestamp, e.properties) == (2, 3.0, {"f1": 4})
    assert not hasattr(e, "__dict__")
    with pytest.raises(AttributeError):
        e.colour = "red"
    with pytest.raises(TypeError):
        hash(e)


def test_copy_and_pickle_round_trip():
    e = Entity("p", "r", {"f1": [1, 2]}, size_kb=2.0, etag=9, timestamp=1.0)
    assert pickle.loads(pickle.dumps(e)) == e
    assert copy.copy(e) == e
    deep = copy.deepcopy(e)
    assert deep == e and deep.properties is not e.properties
