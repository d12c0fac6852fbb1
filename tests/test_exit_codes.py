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

So must a fault in a command-line flag, such as a lattice dimension or
side below its minimum, a lattice too small for the network or a source
node it lacks: the error names the flag, and the file that a flag names
when that file is at fault.

And so must a file that a command cannot write: each command that writes
one, told to write to /dev/full, names that path.
"""

import codecs
import copy
import json
import os

import pytest

import etopo.scenario
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
    "graph": {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]},
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


# Faults that show only once the files are read, in a flag or in the file a
# flag names, on a 30-node network: (id, command, flags, error). Each must
# exit 1 and name the flag, and the file when a file is at fault. Later
# flags override the defaults, --k 2 --n 8 --source 0 --target 1.
FLAG_FAULTS = [
    ("placement-misses-a-node", "adapt", ["--placement", "{placement}"],
     "--placement {placement}: placement missing node 1"),
    ("placement-misses-a-node", "route", ["--placement", "{placement}"],
     "--placement {placement}: placement missing node 1"),
    ("k-below-one", "adapt", ["--k", "0"], "--k: must be >= 1, got 0"),
    ("k-below-one", "route", ["--k", "0"], "--k: must be >= 1, got 0"),
    ("n-below-two", "adapt", ["--n", "1"], "--n: must be >= 2, got 1"),
    ("n-below-two", "route", ["--n", "1"], "--n: must be >= 2, got 1"),
    ("lattice-too-small", "adapt", ["--k", "1", "--n", "4"],
     "--k 1 --n 4: lattice with 4 cells cannot hold 30 nodes"),
    ("lattice-too-small", "route", ["--k", "1", "--n", "4"],
     "--k 1 --n 4: lattice with 4 cells cannot hold 30 nodes"),
    ("threshold-above-one", "adapt", ["--threshold", "1.5"],
     "--threshold: must be in [0, 1], got 1.5"),
    ("threshold-above-one", "route", ["--threshold", "1.5"],
     "--threshold: must be in [0, 1], got 1.5"),
    ("threshold-nan", "adapt", ["--threshold", "nan"],
     "--threshold: must be in [0, 1], got nan"),
    ("threshold-nan", "route", ["--threshold", "nan"],
     "--threshold: must be in [0, 1], got nan"),
    ("unknown-source", "route", ["--source", "99"],
     "--source: node 99 is not mapped in the base-graph"),
    ("unknown-target", "route", ["--target", "99"],
     "--target: node 99 is not mapped in the base-graph"),
]


@pytest.mark.parametrize("command, flags, message", [c[1:] for c in FLAG_FAULTS],
                         ids=[f"{c[1]}-{c[0]}" for c in FLAG_FAULTS])
def test_flag_fault_names_the_flag(command, flags, message, tmp_path, capsys):
    network = tmp_path / "network.json"
    assert main(["generate", "--nodes", "30", "--links", "40", "--seed", "3",
                 "--out", str(network)]) == 0
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps([{"node": 0, "coords": [0, 0]}]))
    argv = [command, str(network), "--k", "2", "--n", "8", "--seed", "1",
            "--out", str(tmp_path / "out")]
    if command == "route":
        argv += ["--source", "0", "--target", "1"]
    argv += [flag.format(placement=placement) for flag in flags]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message.format(placement=placement)}\n"


@pytest.mark.parametrize("flags, message", [
    (["--nodes", "3", "--links", "9"],
     "--links: cannot place 9 links: only 3 distinct (pair, level) slots exist"),
    (["--nodes", "1"], "--nodes: must be >= 2, got 1"),
    (["--links", "-1"], "--links: must be >= 0, got -1"),
    (["--levels", "0"],
     "--levels: expected a nonempty list of distinct integers >= 1, got (0,)"),
], ids=["links", "nodes", "negative-links", "levels"])
def test_generate_flag_fault_names_the_flag(flags, message, tmp_path, capsys):
    out = tmp_path / "network.json"
    assert main(["generate", *flags, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--sizes", "1"], "--sizes: lattice side must be >= 2, got 1"),
    (["--sizes", "8,16,0"], "--sizes: lattice side must be >= 2, got 0"),
    (["--sizes", "x"], "--sizes: expected comma-separated integers, got 'x'"),
    (["--sizes", "8,"], "--sizes: expected comma-separated integers, got '8,'"),
    (["--trials", "0"], "--trials: must be >= 1, got 0"),
], ids=["side", "late-side", "not-integer", "empty-entry", "trials"])
def test_bench_routing_flag_fault_names_the_flag(flags, message, monkeypatch, capsys):
    def no_lattice(*args):
        raise AssertionError("a lattice was built before the flags were checked")

    monkeypatch.setattr(etopo.scenario, "kleinberg_lattice", no_lattice)
    argv = ["bench-routing", "--sizes", "8", "--trials", "3", "--seed", "1", *flags]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# Each command that writes a file, told to write to /dev/full, whose every
# write fails with ENOSPC: (command, flags before --out). A write that
# fails must exit 1 and name the output path.
WRITE_FAULTS = [
    ("generate", ["--nodes", "4", "--links", "3", "--seed", "1"]),
    ("adapt", ["{network}", "--k", "1", "--n", "4", "--seed", "1"]),
    ("route", ["{network}", "--k", "1", "--n", "4", "--seed", "1",
               "--source", "0", "--target", "2"]),
    ("assign", ["{instance}"]),
    ("reduce-coloring", ["{graph}", "--colors", "2"]),
    ("bench-routing", ["--sizes", "4", "--trials", "2", "--seed", "1"]),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command, flags", WRITE_FAULTS, ids=[c[0] for c in WRITE_FAULTS])
def test_failed_write_exits_config_error(command, flags, tmp_path, capsys):
    paths = {}
    for kind in ("network", "instance", "graph"):
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(FILES[kind]))
    argv = [command, *(flag.format(**paths) for flag in flags), "--out", "/dev/full"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: /dev/full: ")
