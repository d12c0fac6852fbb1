import json
import math
import random
from collections import OrderedDict

import pytest

from etopo import (
    ConfigError,
    Demand,
    EntangledLink,
    ThresholdPolicy,
    make_network,
    map_overlay,
)
from etopo.io import (
    _require,
    conflict_graph_from_dict,
    instance_from_dict,
    instance_to_dict,
    load_network,
    network_from_dict,
    network_to_dict,
    placement_from_list,
    save_network,
    thresholds_from_dict,
    thresholds_to_dict,
)
from util import random_overlay


class TestNetworkRoundTrip:
    def test_round_trip_preserves_everything(self):
        rng = random.Random(3)
        net = random_overlay(rng, 6, 9)
        again = network_from_dict(network_to_dict(net))
        assert again == net

    def test_file_round_trip(self, tmp_path):
        net = make_network([0, 1], [EntangledLink(id=0, a=0, b=1)])
        path = tmp_path / "net.json"
        save_network(net, path)
        assert load_network(path) == net

    def test_save_over_longer_file(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(random_overlay(random.Random(3), 6, 9), path)
        net = make_network([0, 1], [EntangledLink(id=0, a=0, b=1)])
        save_network(net, path)
        assert load_network(path) == net
        expected = json.dumps(network_to_dict(net), indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_unknown_field_rejected(self):
        data = network_to_dict(make_network([0], []))
        data["color"] = "blue"
        with pytest.raises(ConfigError, match="unknown fields"):
            network_from_dict(data)

    def test_missing_link_field_rejected(self):
        data = network_to_dict(make_network([0, 1], [EntangledLink(id=0, a=0, b=1)]))
        del data["links"][0]["fidelity"]
        with pytest.raises(ConfigError, match="missing fields"):
            network_from_dict(data)

    def test_invalid_link_value_rejected(self):
        data = network_to_dict(make_network([0, 1], [EntangledLink(id=0, a=0, b=1)]))
        data["links"][0]["swap_success"] = 2.0
        with pytest.raises(ConfigError, match="links\\[0\\]"):
            network_from_dict(data)

    @pytest.mark.parametrize("context", [None, "scenario.network"])
    def test_endpoint_outside_nodes_names_the_block(self, context):
        data = network_to_dict(make_network([0, 1], [EntangledLink(id=0, a=0, b=1)]))
        data["links"][0]["b"] = 9
        where = context or "network"
        message = f"^{where}.links\\[0\\]: endpoint 9 is not in {where}.nodes$"
        with pytest.raises(ConfigError, match=message):
            network_from_dict(data, *([context] if context else []))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_network(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_network(path)


class TestPlacement:
    def test_parse(self):
        out = placement_from_list([{"node": 3, "coords": [1, 2]}])
        assert out == {3: (1, 2)}

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            placement_from_list([{"node": 3, "coords": [1], "extra": 1}])


class TestThresholds:
    def test_round_trip(self):
        policy = ThresholdPolicy(default=0.4, per_level={1: 0.5, 3: 0.9})
        assert thresholds_from_dict(thresholds_to_dict(policy)) == policy

    def test_defaults(self):
        assert thresholds_from_dict({}) == ThresholdPolicy()

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            thresholds_from_dict({"floor": 0.1})


class TestInstance:
    def base_dict(self):
        net = make_network(
            [0, 1, 2],
            [EntangledLink(id=0, a=0, b=1, throughput=4.0, resource_count=2),
             EntangledLink(id=1, a=1, b=2, throughput=4.0)],
        )
        return {
            "network": network_to_dict(net),
            "base_graph": {
                "k": 1, "n": 4,
                "placement": [{"node": i, "coords": [i]} for i in range(3)],
            },
            "demands": [{"user": 0, "source": 0, "target": 2, "rate": 1.0}],
            "resource_sets": [
                {"link": 0, "states": [0, 1]},
                {"link": 1, "states": [0]},
            ],
            "interference": [],
        }

    def test_parse_and_reserialize(self):
        data = self.base_dict()
        inst = instance_from_dict(data)
        assert inst.demands == (Demand(user=0, source=0, target=2, rate=1.0),)
        assert inst.states_of(0) == (0, 1)
        again = instance_from_dict(instance_to_dict(inst, ThresholdPolicy()))
        assert again.demands == inst.demands
        assert again.resource_sets == inst.resource_sets
        assert again.network == inst.network

    def test_base_graph_needs_placement_or_seed(self):
        # Without either, each load would place the nodes anew at random.
        data = self.base_dict()
        del data["base_graph"]["placement"]
        with pytest.raises(ConfigError,
                           match=r"^instance\.base_graph: provide placement or seed$"):
            instance_from_dict(data)
        data["base_graph"]["seed"] = 5
        assert instance_from_dict(data).graph == instance_from_dict(data).graph

    def test_placement_wins_over_seed(self):
        data = self.base_dict()
        placed = instance_from_dict(data).graph.placement
        data["base_graph"]["seed"] = 5
        inst = instance_from_dict(data)
        assert map_overlay(inst.network, 1, 4, seed=5).placement != placed
        assert inst.graph.placement == placed

    def test_resource_set_for_unknown_link_is_one_violation(self):
        data = self.base_dict()
        data["resource_sets"].append({"link": 9, "states": [0]})
        with pytest.raises(ConfigError, match=r"^instance\.resource_sets\[2\]\.link: "
                                              r"link 9 not in network$"):
            instance_from_dict(data)

    def test_network_and_file_are_mutually_exclusive(self):
        data = self.base_dict()
        data["network_file"] = "net.json"
        with pytest.raises(ConfigError, match="exactly one"):
            instance_from_dict(data)

    def test_network_file_resolved_relative(self, tmp_path):
        data = self.base_dict()
        net = network_from_dict(data.pop("network"))
        save_network(net, tmp_path / "net.json")
        data["network_file"] = "net.json"
        inst = instance_from_dict(data, base_dir=tmp_path)
        assert inst.network == net

    def test_interference_parsing(self):
        data = self.base_dict()
        data["demands"].append({"user": 1, "source": 0, "target": 2, "rate": 1.0})
        data["interference"] = [
            {"link": 0, "state": 0, "competing": [[0, 0], [1, 1]]}
        ]
        inst = instance_from_dict(data)
        assert inst.interference[0].competing == ((0, 0), (1, 1))

    def test_unknown_top_level_field(self):
        data = self.base_dict()
        data["solver"] = "exact"
        with pytest.raises(ConfigError):
            instance_from_dict(data)


class TestNonFinite:
    """No field of any file takes NaN or an infinity; the error names the field."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_link_throughput(self, value):
        data = network_to_dict(make_network([0, 1], [EntangledLink(id=0, a=0, b=1)]))
        data["links"][0]["throughput"] = value
        with pytest.raises(ConfigError, match=rf"^network\.links\[0\]\.throughput: "
                                              rf"expected a finite number, got {value}$"):
            network_from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_demand_rate(self, value):
        data = TestInstance().base_dict()
        data["demands"][0]["rate"] = value
        with pytest.raises(ConfigError, match=rf"^instance\.demands\[0\]\.rate: "
                                              rf"expected a finite number, got {value}$"):
            instance_from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_threshold(self, value):
        with pytest.raises(ConfigError, match=r"^thresholds\.levels\.2: expected a finite"):
            thresholds_from_dict({"default": 0.5, "levels": {"2": value}})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_demand_constructor(self, value):
        with pytest.raises(ValueError, match="demand rate must be finite"):
            Demand(user=0, source=0, target=1, rate=value)


class TestRequire:
    FIELDS = frozenset({"user", "source"})
    OPTIONAL = frozenset({"rate"})

    @pytest.mark.parametrize("record", [
        {"user": 0, "source": 1},
        {"user": 0, "source": 1, "rate": 2.0},
        OrderedDict(user=0, source=1, rate=2.0),
    ])
    def test_valid(self, record):
        assert _require(record, self.FIELDS, "d", self.OPTIONAL) is None

    @pytest.mark.parametrize("record,message", [
        ([], "d: expected an object"),
        ({"user": 0, "source": 1, "z": 0, "a": 0}, "d: unknown fields ['a', 'z']"),
        ({"user": 0, "rate": 1.0, "z": 0}, "d: unknown fields ['z']"),
        ({"rate": 1.0}, "d: missing fields ['source', 'user']"),
        ({}, "d: missing fields ['source', 'user']"),
    ])
    def test_invalid(self, record, message):
        with pytest.raises(ConfigError) as info:
            _require(record, self.FIELDS, "d", self.OPTIONAL)
        assert str(info.value) == message

    def test_optional_fields_only_where_given(self):
        with pytest.raises(ConfigError, match=r"^d: unknown fields \['rate'\]$"):
            _require({"user": 0, "source": 1, "rate": 2.0}, self.FIELDS, "d")


class TestConflictGraphParsing:
    def test_parse(self):
        graph = conflict_graph_from_dict(
            {"vertices": [0, 1, 2], "edges": [[0, 1], [2, 1]]}
        )
        assert graph.vertices == {0, 1, 2}
        assert graph.edges == {(0, 1), (1, 2)}

    def test_explicit_k_star(self):
        # A graph file has no k_star field.
        with pytest.raises(ConfigError, match=r"^graph: unknown fields \['k_star'\]$"):
            conflict_graph_from_dict({"vertices": [0, 1], "edges": [], "k_star": 5})

    def test_dangling_edge(self):
        with pytest.raises(ConfigError):
            conflict_graph_from_dict({"vertices": [0], "edges": [[0, 9]]})
