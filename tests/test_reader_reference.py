"""The file readers against their field-by-field references in util.

The package reads each valid record of the kinds a file holds many of
(nodes, links, placement entries, demands, resource sets, interference
sets) with one test and builds it positionally; a record that fails the
test is read again field by field to name the fault. For every document
below, the package's reader and the reference must return equal objects
with equal reprs (so a bool read as an int, or an int as a float, shows),
or raise the same type of error with the same text.

The documents are every one-field mutation and every NaN and infinity
swap of each valid file kind of test_exit_codes, its documents that each
break one rule across records and a few more such, those files with their
number fields given as plain ints, and 200 saved instances.
"""

import copy
import json
import random

import pytest

import etopo.io
from etopo import PStarMode, ThresholdPolicy, scenario_from_dict
from etopo.io import (
    _network_records_from_dict,
    conflict_graph_from_dict,
    demands_from_list,
    instance_from_dict,
    load_instance,
    network_from_dict,
    placement_from_list,
    save_instance,
    thresholds_from_dict,
)
from test_exit_codes import CROSS_RECORD, FILES, NON_FINITE, _mutations, _value_paths
from util import (
    _reference_network_records_from_dict,
    builder_pool,
    random_instance,
    reference_conflict_graph_from_dict,
    reference_demands_from_list,
    reference_instance_from_dict,
    reference_load_instance,
    reference_network_from_dict,
    reference_placement_from_list,
    reference_scenario_from_dict,
    reference_thresholds_from_dict,
)

# The package's reader and the reference for each file kind.
READERS = {
    "network": (network_from_dict, reference_network_from_dict),
    "placement": (placement_from_list, reference_placement_from_list),
    "thresholds": (thresholds_from_dict, reference_thresholds_from_dict),
    "scenario-inline": (scenario_from_dict, reference_scenario_from_dict),
    "scenario-generator": (scenario_from_dict, reference_scenario_from_dict),
    "instance": (instance_from_dict, reference_instance_from_dict),
    "graph": (conflict_graph_from_dict, reference_conflict_graph_from_dict),
}


def _outcome(read, *args):
    """What read(*args) gives: the value and its repr, or the error's type
    and text."""
    try:
        value = read(*args)
    except Exception as exc:  # noqa: BLE001 - any error must match
        return "raised", type(exc).__name__, str(exc)
    return "returned", value, repr(value)


def _differences(kind, documents):
    read, reference = READERS[kind]
    differences = []
    for label, doc in documents:
        got, expected = _outcome(read, doc), _outcome(reference, doc)
        if got != expected:
            differences.append(f"{label}: {got} != {expected}")
    return differences


# Records that pass the one test but that their constructor, or a rule
# across records, refuses: (kind, key path, new value), as in CROSS_RECORD.
REFUSED_RECORDS = [
    ("placement", (1, "node"), 0),  # node 0 placed twice
    ("instance", ("resource_sets", 1, "link"), 0),  # two resource sets on link 0
    ("instance", ("resource_sets", 0, "states"), [1, 1]),  # a state twice
    ("instance", ("interference", 0, "competing"), [[0, 0]]),  # one competitor
    ("instance", ("demands", 1, "source"), 1),  # source is target
    ("network", ("links", 1, "a"), 2),  # a is b
    ("network", ("links", 1, "throughput"), -1.0),
    ("network", ("links", 1, "fidelity"), 1.5),
]


def _value_at(data, keys):
    for key in keys:
        data = data[key]
    return data


def _replaced(data, keys, value):
    doc = copy.deepcopy(data)
    _value_at(doc, keys[:-1])[keys[-1]] = value
    return doc


def _with_plain_ints(data):
    """(label, document) for each float of data that is a whole number
    given as an int, one at a time, then all of them at once."""
    everything = data
    for path in _value_paths(data):
        value = _value_at(data, path)
        if type(value) is float and value.is_integer():
            everything = _replaced(everything, path, int(value))
            yield f"{list(path)} as an int", _replaced(data, path, int(value))
    yield "every whole float as an int", everything


@pytest.mark.parametrize("kind", sorted(FILES))
def test_valid_file_reads_as_the_reference_reads_it(kind):
    assert _outcome(READERS[kind][0], FILES[kind])[0] == "returned"
    assert not _differences(kind, [("valid", FILES[kind])])


@pytest.mark.parametrize("kind", sorted(FILES))
def test_mutated_file_reads_as_the_reference_reads_it(kind):
    differences = _differences(kind, _mutations(FILES[kind]))
    assert not differences, "\n".join(differences)


@pytest.mark.parametrize("kind", sorted(FILES))
def test_non_finite_value_reads_as_the_reference_reads_it(kind):
    differences = _differences(kind, _mutations(FILES[kind], NON_FINITE))
    assert not differences, "\n".join(differences)


@pytest.mark.parametrize("kind", sorted(FILES))
def test_refused_record_reads_as_the_reference_reads_it(kind):
    documents = [(f"{list(keys)} = {value!r}", _replaced(FILES[kind], keys, value))
                 for kind_, keys, value, *_ in CROSS_RECORD + REFUSED_RECORDS
                 if kind_ == kind]
    differences = _differences(kind, documents)
    assert not differences, "\n".join(differences)


@pytest.mark.parametrize("kind, keys, value", REFUSED_RECORDS)
def test_refused_record_is_refused(kind, keys, value):
    refused = _outcome(READERS[kind][0], _replaced(FILES[kind], keys, value))
    assert refused[:2] == ("raised", "ConfigError")


@pytest.mark.parametrize("kind", sorted(FILES))
def test_plain_int_numbers_read_as_the_reference_reads_them(kind):
    documents = list(_with_plain_ints(FILES[kind]))
    if kind in ("network", "scenario-inline", "instance"):
        assert len(documents) > 1  # the file has whole floats to swap
    differences = _differences(kind, documents)
    assert not differences, "\n".join(differences)


# EntangledLink and Demand refuse a non-finite number too, and a record its
# constructor refuses is read again field by field, so the readers would
# name the fault rightly even without their finiteness test. With
# constructors that take anything, that test alone must keep NaN and the
# infinities out.
def _takes_anything(*args, **kwargs):
    return args, kwargs


NUMBER_RECORDS = {
    "links": ("EntangledLink", FILES["network"], "network",
              _network_records_from_dict, _reference_network_records_from_dict),
    "demands": ("Demand", FILES["instance"]["demands"], "instance.demands",
                demands_from_list, reference_demands_from_list),
}


@pytest.mark.parametrize("records", sorted(NUMBER_RECORDS))
def test_non_finite_number_is_refused_before_it_is_built(records, monkeypatch):
    constructor, data, context, read, reference = NUMBER_RECORDS[records]
    monkeypatch.setattr(etopo.io, constructor, _takes_anything)
    differences = []
    for label, doc in _mutations(data, NON_FINITE):
        got, expected = _outcome(read, doc, context), _outcome(reference, doc, context)
        assert expected[0] == "raised"
        if got != expected:
            differences.append(f"{label}: {got} != {expected}")
    assert not differences, "\n".join(differences)


def _saved_instances(count=200, seed=61):
    """The trial instances of builder_pool(), then random instances, count
    in all, each with a threshold policy of either p* mode."""
    rng = random.Random(seed)
    instances = builder_pool()
    while len(instances) < count:
        instance = random_instance(rng)
        if instance is not None:
            instances.append(instance)
    modes = (PStarMode.MEASURED, PStarMode.THRESHOLD)
    return [(instance, ThresholdPolicy(default=0.0, mode=modes[i % 2]))
            for i, instance in enumerate(instances[:count])]


def test_saved_instances_load_as_the_reference_loads_them(tmp_path):
    differences = []
    for i, (instance, policy) in enumerate(_saved_instances()):
        path = tmp_path / f"{i}.json"
        save_instance(instance, policy, path)
        loaded = _outcome(load_instance, path)
        assert loaded[0] == "returned"
        if loaded != _outcome(reference_load_instance, path):
            differences.append(f"instance {i}")
    assert not differences, differences


def test_network_file_loads_as_the_reference_loads_it(tmp_path, monkeypatch):
    (tmp_path / "net").mkdir()
    (tmp_path / "net" / "network.json").write_text(json.dumps(FILES["network"]))
    doc = copy.deepcopy(FILES["instance"])
    doc["network_file"] = "net/network.json"
    del doc["network"]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path.parent)
    for spelled in (path, str(path), f"./{tmp_path.name}//instance.json"):
        loaded = _outcome(load_instance, spelled)
        assert loaded[0] == "returned"
        assert loaded == _outcome(reference_load_instance, spelled)


@pytest.mark.parametrize("spelled", ["./missing.json", "missing//x.json", "."])
def test_unreadable_file_is_named_as_the_reference_names_it(spelled, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    failed = _outcome(load_instance, spelled)
    assert failed[:2] == ("raised", "ConfigError")
    assert failed == _outcome(reference_load_instance, spelled)
