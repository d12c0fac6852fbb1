"""etopo.io._json_text writes json.dumps(payload, indent=2, sort_keys=True)
plus a newline, byte for byte, for every value the package passes it."""

import enum
import json

import pytest
from hypothesis import given, settings, strategies as st

import etopo.cli
import etopo.io
from etopo.cli import main
from etopo.io import _json_text
from util import greedy_scenario_payload


def dumped(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class Color(str, enum.Enum):
    RED = "red\n"
    BLUE = "blüe"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


# Control characters, non-ASCII characters and lone surrogates.
text = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.integers(0xD800, 0xDFFF).map(chr)), max_size=12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]),
    text,
    st.sampled_from(list(Color) + list(Level)),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(text, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_writes_the_bytes_of_json_dumps(value):
    assert _json_text(value) == dumped(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}, ()]}, [[[]]],
    {Color.RED: 1, "a": Color.BLUE, "b": [Level.LOW, Level.HIGH]},
    " \ud800\x00\x1f\x7f\"\\", 2 ** 64 + 1, -(2 ** 100),
], ids=repr)
def test_edge_values(value):
    assert _json_text(value) == dumped(value)


def test_subclasses_are_written_as_their_base_type():
    # json reads int and float subclasses through int.__repr__ and
    # float.__repr__, and a str subclass through its characters.
    class Count(int):
        def __repr__(self):
            return "Count()"

    class Ratio(float):
        def __repr__(self):
            return "Ratio()"

    class Name(str):
        def __str__(self):
            return "other"

    value = {Name("k"): [Count(3), Ratio(0.5), Ratio("nan"), Name("v")]}
    assert _json_text(value) == dumped(value) == (
        '{\n  "k": [\n    3,\n    0.5,\n    NaN,\n    "v"\n  ]\n}\n'
    )


@pytest.mark.parametrize("value", [
    {1, 2}, [frozenset()], {"a": object()}, b"bytes", {1: "int key"}, {("a",): 1},
], ids=["set", "frozenset-in-list", "object", "bytes", "int-key", "tuple-key"])
def test_other_values_raise_type_error(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_every_document_the_package_writes(tmp_path, monkeypatch):
    # Every file and stdout document of the CLI, recorded as its payload.
    written = []

    def recording(payload):
        text = _json_text(payload)
        written.append((payload, text))
        return text

    monkeypatch.setattr(etopo.io, "_json_text", recording)
    monkeypatch.setattr(etopo.cli, "_json_text", recording)
    monkeypatch.delenv("ETOPO_SEED", raising=False)
    network, graph, instance = (tmp_path / n for n in ("net.json", "graph.json", "inst.json"))
    scenario = tmp_path / "scenario.json"
    graph.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}))
    scenario.write_text(json.dumps(greedy_scenario_payload()))
    lattice = ["--k", "2", "--n", "6", "--seed", "1"]
    commands = [
        (["generate", "--nodes", "8", "--links", "14", "--seed", "2", "--out", str(network)], 0),
        (["adapt", str(network), *lattice, "--format", "json"], 0),
        (["route", str(network), *lattice, "--source", "0", "--target", "5"], None),
        (["reduce-coloring", str(graph), "--colors", "2", "--out", str(instance)], 0),
        (["assign", str(instance)], 0),
        (["run", str(scenario), "--out", str(tmp_path / "run")], None),
        (["bench-routing", "--sizes", "4,8", "--trials", "3", "--seed", "1",
          "--format", "json"], 0),
    ]
    for argv, code in commands:
        got = main(argv)
        assert code is None or got == code, argv
    assert len(written) == len(commands)
    for payload, text in written:
        assert text == dumped(payload)
    assert (tmp_path / "run" / "solutions.json").read_text(encoding="utf-8") == written[5][1]
