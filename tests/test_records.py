"""Contract of the frozen, slotted records whose checked __init__ is
hand-written (init=False) and stores fields through slot setters.

Each must behave as the dataclass-generated constructor did: positional
and keyword construction, the same ValueError checks and messages, frozen
attributes, generated __eq__ / __hash__ / __repr__ in field order,
dataclasses.replace, and no instance __dict__.
"""

import dataclasses
import pickle

import pytest

from etopo import (
    Demand,
    EntangledLink,
    FailureEvent,
    FailureKind,
    InterferenceSet,
    Path,
    ResourceSet,
    RouteStatus,
    RoutingOutcome,
)

# Per record: its field names in order, one valid set of field values, and
# its repr for those values.
RECORDS = {
    "ResourceSet": (
        ResourceSet, ("link", "states"), (3, (0, 2, 1)),
        "ResourceSet(link=3, states=(0, 2, 1))",
    ),
    "InterferenceSet": (
        InterferenceSet, ("link", "state", "competing"), (4, 1, ((0, 0), (2, 1))),
        "InterferenceSet(link=4, state=1, competing=((0, 0), (2, 1)))",
    ),
    "Path": (
        Path, ("nodes", "links"), ((5, 2, 9), (7, 3)),
        "Path(nodes=(5, 2, 9), links=(7, 3))",
    ),
    "RoutingOutcome": (
        RoutingOutcome, ("status", "path", "steps_taken"),
        (RouteStatus.FOUND, Path((1, 2), (0,)), 4),
        "RoutingOutcome(status=<RouteStatus.FOUND: 'found'>, "
        "path=Path(nodes=(1, 2), links=(0,)), steps_taken=4)",
    ),
    "EntangledLink": (
        EntangledLink,
        ("id", "a", "b", "level", "swap_success", "photon_loss", "fidelity",
         "throughput", "resource_count"),
        (6, 1, 0, 2, 0.5, 0.25, 0.75, 3.0, 2),
        "EntangledLink(id=6, a=1, b=0, level=2, swap_success=0.5, photon_loss=0.25, "
        "fidelity=0.75, throughput=3.0, resource_count=2)",
    ),
}


@pytest.fixture(params=list(RECORDS), ids=list(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_positional_and_keyword_construction_agree(record):
    cls, names, values, _ = record
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, n) for n in names) == values
    assert tuple(getattr(by_keyword, n) for n in names) == values


def test_fields_keep_their_order(record):
    cls, names, _, _ = record
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__slots__ == names


def test_repr_eq_and_hash_are_the_generated_ones(record):
    cls, names, values, text = record
    rec = cls(*values)
    assert repr(rec) == text
    assert hash(rec) == hash(values)
    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != values  # another type never compares equal


def refuses_every_name(rec, names, action):
    """Setting or deleting each of names, and of a name that is no field,
    raises FrozenInstanceError (the frozen slotted dataclass's own methods
    raise TypeError for the latter on CPython 3.10 to 3.13)."""
    for name in (*names, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            if action == "set":
                setattr(rec, name, 1)
            else:
                delattr(rec, name)


@pytest.mark.parametrize("action", ["set", "delete"])
def test_attributes_are_frozen(record, action):
    cls, names, values, _ = record
    rec = cls(*values)
    refuses_every_name(rec, names, action)
    assert tuple(getattr(rec, n) for n in names) == values
    assert not hasattr(rec, "extra")


# The frozen slotted records whose __init__ dataclass generates.
GENERATED = {
    "FailureEvent": (FailureEvent(3, FailureKind.DEGRADE_SWAP, 0.5, 2),
                     ("target", "kind", "magnitude", "time")),
    "Demand": (Demand(1, 0, 4, 2.5), ("user", "source", "target", "rate")),
}


@pytest.mark.parametrize("action", ["set", "delete"])
@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_records_are_frozen(name, action):
    rec, names = GENERATED[name]
    values = tuple(getattr(rec, n) for n in names)
    refuses_every_name(rec, names, action)
    assert tuple(getattr(rec, n) for n in names) == values
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert dataclasses.replace(rec) == rec


def test_no_instance_dict(record):
    cls, _, values, _ = record
    assert not hasattr(cls(*values), "__dict__")


def test_replace_and_pickle_round_trip(record):
    cls, names, values, _ = record
    rec = cls(*values)
    assert dataclasses.replace(rec) == rec
    changed = dataclasses.replace(rec, **{names[-1]: values[-1]})
    assert changed == rec and changed is not rec
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("make, message", [
    (lambda: ResourceSet(2, (0, 1, 0)), "resource set of link 2 has duplicate state ids"),
    (lambda: ResourceSet(link=2, states=(5, 5)),
     "resource set of link 2 has duplicate state ids"),
    (lambda: InterferenceSet(0, 1, ((0, 0),)),
     "an interference set needs at least two competing demands"),
    (lambda: InterferenceSet(link=0, state=1, competing=()),
     "an interference set needs at least two competing demands"),
    (lambda: Path((0, 1, 2), (4,)), "path must carry exactly one link per hop"),
    (lambda: Path(nodes=(0, 1), links=(4, 5)), "path must carry exactly one link per hop"),
    (lambda: Path((0,), (4,)), "path must carry exactly one link per hop"),
], ids=["rs-positional", "rs-keyword", "iset-one", "iset-none",
        "path-short", "path-long", "path-single-node"])
def test_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


@pytest.mark.parametrize("rec, field, value, message", [
    (ResourceSet(1, (0, 1)), "states", (1, 1), "resource set of link 1 has duplicate state ids"),
    (InterferenceSet(0, 0, ((0, 0), (1, 1))), "competing", ((0, 0),),
     "an interference set needs at least two competing demands"),
    (Path((0, 1), (3,)), "links", (), "path must carry exactly one link per hop"),
], ids=["ResourceSet", "InterferenceSet", "Path"])
def test_replace_runs_the_checks(rec, field, value, message):
    with pytest.raises(ValueError) as raised:
        dataclasses.replace(rec, **{field: value})
    assert str(raised.value) == message


def test_path_without_nodes_is_not_checked():
    # The hop check applies only to a path that has nodes.
    assert Path((), (1, 2)).links == (1, 2)

