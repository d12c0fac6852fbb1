"""Exit-code sweep over one-field mutations of valid input files.

Each value of a valid file, at any depth and the whole document too, is
replaced in turn by each of null, true, "x", 1.5, -1, [] and {}, and each
value is also deleted. The CLI must answer every mutated file with exit
0, 1 or 2: exit 3 is kept for bugs in the program, not for bad input.

A second sweep puts each of NaN, Infinity and -Infinity (JSON extensions
that Python's json reads) in place of each value. No field takes a
non-finite number, so every such file must exit 1.

A third set of documents each breaks one rule, most of them rules that
span records, such as two links on one pair and level or a resource set
one state short, some of one record, such as a link at level 0 or a
scenario with two network sources or none, and some found only once the
records are read, such as a placement that misses a node or a lattice too
small for the network. Each must exit 1 with an error that names the
offending record's field path, as must a boolean or a string in a link's
number fields.

Last, whole files that JSON cannot decode (bytes that are not text in
any encoding it detects, too deep a nesting, an integer literal longer
than the int-string limit) must exit 1 with an error that names the file.
"""

import codecs
import copy
import json

import pytest

from etopo.cli import EXIT_CONFIG, EXIT_INTERNAL, main

MUTANTS = (None, True, "x", 1.5, -1, [], {})
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
DELETE = object()


def _link(lid, a, b, level=1, resources=1):
    return {"id": lid, "a": a, "b": b, "level": level, "swap_success": 0.75,
            "photon_loss": 0.0, "fidelity": 1.0, "throughput": 4.0,
            "resource_count": resources}


NETWORK = {"nodes": [0, 1, 2],
           "links": [_link(0, 0, 1, resources=2), _link(1, 1, 2, level=2)]}
PLACEMENT = [{"node": i, "coords": [i]} for i in range(3)]
THRESHOLDS = {"default": 0.1, "levels": {"1": 0.2, "2": 0.3}}
DEMANDS = [{"user": 0, "source": 0, "target": 2, "rate": 1.0},
           {"user": 1, "source": 0, "target": 1, "rate": 0.5}]
FAILURES = [{"target": 1, "kind": "degrade-swap", "magnitude": 0.5, "time": 0},
            {"target": 0, "kind": "remove-link", "time": 1}]

FILES = {
    "network": NETWORK,
    "placement": PLACEMENT,
    "thresholds": THRESHOLDS,
    "scenario-inline": {
        "seed": 5, "trials": 2, "network": NETWORK,
        "base_graph": {"k": 1, "n": 4, "placement": PLACEMENT},
        "thresholds": THRESHOLDS, "pstar_mode": "measured",
        "demands": DEMANDS, "failures": FAILURES,
    },
    "scenario-generator": {
        "seed": 5, "trials": 1,
        "generator": {"num_nodes": 4, "num_links": 4, "levels": [1, 2],
                      "swap_range": [0.5, 1.0], "loss_range": [0.0, 0.5],
                      "fidelity_range": [0.5, 1.0], "throughput_range": [1.0, 4.0],
                      "resource_range": [1, 2]},
        "base_graph": {"k": 2, "n": 3},
        "demands": [{"user": 0, "source": 0, "target": 3, "rate": 1.0}],
        "failures": [FAILURES[0]],
    },
    "instance": {
        "network": NETWORK,
        "base_graph": {"k": 1, "n": 4, "seed": 3},
        "thresholds": THRESHOLDS, "pstar_mode": "measured",
        "demands": DEMANDS,
        "resource_sets": [{"link": 0, "states": [0, 1]}, {"link": 1, "states": [0]}],
        "interference": [{"link": 0, "state": 0, "competing": [[0, 0], [1, 1]]}],
    },
    "graph": {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]], "k_star": 2},
}


def _command(kind, path, tmp_path):
    """The CLI call that reads a file of this kind from path."""
    out = str(tmp_path / "out")
    if kind == "network":
        return ["route", path, "--k", "1", "--n", "4", "--source", "0",
                "--target", "2", "--seed", "1", "--out", out]
    if kind == "placement":
        network = tmp_path / "network.json"
        network.write_text(json.dumps(NETWORK))
        return ["route", str(network), "--k", "1", "--n", "4", "--placement", path,
                "--source", "0", "--target", "2", "--out", out]
    if kind == "thresholds":
        network = tmp_path / "network.json"
        network.write_text(json.dumps(NETWORK))
        return ["adapt", str(network), "--k", "1", "--n", "4", "--seed", "1",
                "--thresholds", path, "--out", out]
    if kind.startswith("scenario"):
        return ["run", path, "--out", out]
    if kind == "instance":
        return ["assign", path, "--out", out]
    return ["reduce-coloring", path, "--colors", "2", "--out", out]


def _value_paths(value, prefix=()):
    """The key path of every value nested in value, depth first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


def _mutations(data, values=(*MUTANTS, DELETE)):
    """(label, mutated document) for every replacement of one value of data,
    or of data itself, by one of values (DELETE deletes the value)."""
    for new in values:
        if new is not DELETE:
            yield f"<root> = {new!r}", new
    for path in _value_paths(data):
        for new in values:
            doc = copy.deepcopy(data)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if new is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
            label = "delete" if new is DELETE else f"= {new!r}"
            yield f"{list(path)} {label}", doc


@pytest.fixture(autouse=True)
def clear_seed_env(monkeypatch):
    monkeypatch.delenv("ETOPO_SEED", raising=False)


@pytest.mark.parametrize("kind", sorted(FILES))
def test_valid_file_exits_ok(kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(FILES[kind]))
    assert main(_command(kind, str(path), tmp_path)) in (0, 2)


@pytest.mark.parametrize("kind", sorted(FILES))
def test_no_mutated_file_exits_internal(kind, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    argv = _command(kind, str(path), tmp_path)
    internal = []
    for label, doc in _mutations(FILES[kind]):
        path.write_text(json.dumps(doc))
        code = main(argv)
        if code not in (0, 1, 2):
            err = capsys.readouterr().err.strip().splitlines()
            internal.append(f"{label}: exit {code}: {err[-1] if err else ''}")
        else:
            capsys.readouterr()
    assert not internal, f"{len(internal)} mutations of {kind} exited " \
                         f"{EXIT_INTERNAL} or worse:\n" + "\n".join(internal)


@pytest.mark.parametrize("kind", sorted(FILES))
def test_non_finite_value_exits_config_error(kind, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    argv = _command(kind, str(path), tmp_path)
    wrong = []
    for label, doc in _mutations(FILES[kind], NON_FINITE):
        path.write_text(json.dumps(doc))
        code = main(argv)
        capsys.readouterr()
        if code != EXIT_CONFIG:
            wrong.append(f"{label}: exit {code}")
    assert not wrong, f"{len(wrong)} non-finite values in {kind} did not exit " \
                      f"{EXIT_CONFIG}:\n" + "\n".join(wrong)


# Documents that each break one rule, most of them across records, which
# no one-field mutation above reaches, and whose error must name the field
# path: (kind, key path, new value, field path named).
CROSS_RECORD = [
    ("network", ("links", 1), _link(1, 1, 0), "network.links[1]"),
    ("scenario-inline", ("network", "links", 1), _link(1, 1, 0),
     "scenario.network.links[1]"),
    ("instance", ("network", "links", 1), _link(1, 1, 0), "instance.network.links[1]"),
    ("network", ("links", 0, "level"), 0, "network.links[0]"),
    ("scenario-inline", ("network", "links", 0, "level"), 0, "scenario.network.links[0]"),
    ("instance", ("network", "links", 0, "level"), 0, "instance.network.links[0]"),
    ("scenario-inline", ("generator",), FILES["scenario-generator"]["generator"], "scenario"),
    ("instance", ("resource_sets", 0, "states"), [0], "instance.resource_sets[0].states"),
    ("instance", ("interference", 0, "state"), 2, "instance.interference[0].state"),
    ("instance", ("interference", 0, "competing", 1), [1, 0],
     "instance.interference[0].competing[1]"),
    ("instance", ("interference", 0, "competing"), [[0, 0], [1, 1], [0, 0]],
     "instance.interference[0].competing[2]"),
    ("instance", ("demands", 1, "user"), 0, "instance.demands[1].user"),
    ("scenario-inline", ("demands", 1, "user"), 0, "scenario.demands[1].user"),
    ("instance", ("demands", 0, "target"), 7, "instance.demands[0].target"),
    ("thresholds", ("levels",), {"01": 0.2, "1": 0.3}, "thresholds.levels.01"),
    ("thresholds", ("levels",), {"-3": 0.2}, "thresholds.levels.-3"),
    ("thresholds", ("levels",), {"x": 0.2}, "thresholds.levels.x"),
    ("thresholds", ("levels",), {"2": 1.5}, "thresholds.levels.2"),
    ("thresholds", ("default",), -0.5, "thresholds.default"),
    ("network", ("nodes",), [0, 1, 2, 1], "network.nodes[3]"),
    ("scenario-inline", ("network", "nodes"), [0, 0, 1, 2], "scenario.network.nodes[1]"),
    ("graph", ("vertices",), [0, 1, 1, 2], "graph.vertices[2]"),
    ("graph", ("k_star",), -3, "graph.k_star"),
    ("instance", ("thresholds", "levels", "1"), 0.9, "instance.resource_sets[0].link"),
    ("instance", ("demands", 0, "target"), 0, "instance.demands[0]"),
    ("scenario-inline", ("demands", 0, "target"), 0, "scenario.demands[0]"),
    # Faults found once the records are read: placing the nodes on the
    # lattice, counting a generator's slots, a scenario's demand endpoints
    # against its network.
    ("scenario-inline", ("base_graph", "placement"), PLACEMENT[:2],
     "scenario.base_graph.placement"),  # misses node 2
    ("scenario-inline", ("base_graph", "placement", 1, "coords"), [4],
     "scenario.base_graph.placement"),  # outside [0, 4)
    ("scenario-inline", ("base_graph", "placement", 1, "coords"), [1, 0],
     "scenario.base_graph.placement"),  # of dimension 2
    ("scenario-inline", ("base_graph", "placement", 1, "coords"), [0],
     "scenario.base_graph.placement"),  # in node 0's cell
    ("instance", ("base_graph",), {"k": 1, "n": 4, "placement": PLACEMENT[:2]},
     "instance.base_graph.placement"),
    ("scenario-inline", ("base_graph", "n"), 2, "scenario.base_graph"),  # 2 cells, 3 nodes
    ("instance", ("base_graph", "n"), 2, "instance.base_graph"),
    ("instance", ("base_graph",), {"k": 1, "n": 4}, "instance.base_graph"),  # nor seed
    ("scenario-inline", ("demands", 0, "target"), 99, "scenario.demands[0].target"),
    ("scenario-generator", ("demands", 0, "source"), 99, "scenario.demands[0].source"),
    ("scenario-generator", ("generator", "num_links"), 13, "scenario.generator.num_links"),
]


@pytest.mark.parametrize("kind, keys, value, where", CROSS_RECORD,
                         ids=[f"{c[0]}-{c[3]}" for c in CROSS_RECORD])
def test_cross_record_fault_exits_config_error(kind, keys, value, where, tmp_path, capsys):
    doc = copy.deepcopy(FILES[kind])
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert main(_command(kind, str(path), tmp_path)) == EXIT_CONFIG
    assert f"{where}: " in capsys.readouterr().err


def test_scenario_without_network_source_exits_config_error(tmp_path, capsys):
    doc = copy.deepcopy(FILES["scenario-inline"])
    del doc["network"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(_command("scenario-inline", str(path), tmp_path)) == EXIT_CONFIG
    assert "scenario: " in capsys.readouterr().err


# Each kind of file that holds a network: the key path of its network and
# the field path its errors name. A boolean or a string in one of a link's
# four number fields exits 1 with the field's path, as in its integers.
NETWORK_AT = {
    "network": ((), "network"),
    "scenario-inline": (("network",), "scenario.network"),
    "instance": (("network",), "instance.network"),
}
LINK_NUMBERS = ("swap_success", "photon_loss", "fidelity", "throughput")


@pytest.mark.parametrize("value", [True, False, "0.5"])
@pytest.mark.parametrize("key", LINK_NUMBERS)
@pytest.mark.parametrize("kind", sorted(NETWORK_AT))
def test_link_number_of_wrong_type_exits_config_error(kind, key, value, tmp_path, capsys):
    doc = copy.deepcopy(FILES[kind])
    keys, where = NETWORK_AT[kind]
    network = doc
    for step in keys:
        network = network[step]
    network["links"][0][key] = value
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert main(_command(kind, str(path), tmp_path)) == EXIT_CONFIG
    assert f"{where}.links[0].{key}: expected a number, got {value!r}" \
        in capsys.readouterr().err


# Whole files that json cannot decode, each a valid file of its kind with
# one thing broken: (label, bytes of a valid file -> broken bytes). Nesting
# far deeper than the ~1000 levels that CPython 3.11 parses keeps the case
# a RecursionError on the versions whose C recursion limit is higher.
UNDECODABLE = [
    ("latin-1-key", lambda text: text.replace(b"{", b'{"caf\xe9": 0, ', 1)),
    ("utf-16-truncated", lambda text: codecs.BOM_UTF16_LE + text.decode().encode("utf-16-le")[:-1]),
    ("nested-too-deep", lambda text: text.replace(b"{", b'{"x": ' + b"[" * 100_000
                                                  + b"]" * 100_000 + b", ", 1)),
    ("integer-over-limit", lambda text: text.replace(b"{", b'{"x": ' + b"1" * 5001 + b", ", 1)),
]


@pytest.mark.parametrize("label, breaks", UNDECODABLE, ids=[c[0] for c in UNDECODABLE])
@pytest.mark.parametrize("kind", sorted(FILES))
def test_undecodable_file_exits_config_error(kind, label, breaks, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(breaks(json.dumps(FILES[kind]).encode()))
    assert main(_command(kind, str(path), tmp_path)) == EXIT_CONFIG
    assert f"{path}: " in capsys.readouterr().err
