import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import etopo
from etopo import EntangledLink, make_network
from etopo.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from etopo.io import load_network, network_to_dict, save_network
from util import greedy_scenario_payload, parallel_chain


@pytest.fixture(autouse=True)
def clear_seed_env(monkeypatch):
    monkeypatch.delenv("ETOPO_SEED", raising=False)


@pytest.fixture
def line_file(tmp_path):
    links = [
        EntangledLink(id=i, a=i, b=i + 1, swap_success=0.75, throughput=4.0)
        for i in range(3)
    ]
    path = tmp_path / "line.json"
    save_network(make_network(range(4), links), path)
    return path


class TestGenerate:
    def test_writes_a_loadable_network(self, tmp_path):
        out = tmp_path / "net.json"
        assert main(["generate", "--nodes", "6", "--links", "8",
                     "--out", str(out), "--seed", "3"]) == EXIT_OK
        net = load_network(out)
        assert len(net.nodes) == 6 and len(net.links) == 8

    def test_seed_flag_changes_output(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        main(["generate", "--out", str(a), "--seed", "1"])
        main(["generate", "--out", str(b), "--seed", "1"])
        main(["generate", "--out", str(c), "--seed", "2"])
        assert a.read_text() == b.read_text() != c.read_text()

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("ETOPO_SEED", "9")
        main(["generate", "--out", str(a), "--seed", "1"])
        main(["generate", "--out", str(b), "--seed", "2"])
        assert a.read_text() == b.read_text()

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ETOPO_SEED", "many")
        assert main(["generate", "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG

    def test_repeated_level_is_a_config_error(self, tmp_path, capsys):
        # Each repeated level would give every pair a second link at that
        # level, which no network file may hold.
        out = tmp_path / "net.json"
        assert main(["generate", "--nodes", "3", "--links", "6", "--levels", "1", "1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "levels: expected a nonempty list of distinct integers" in capsys.readouterr().err
        assert not out.exists()


class TestAdapt:
    def test_csv_output(self, line_file, tmp_path, capsys):
        assert main(["adapt", str(line_file), "--k", "1", "--n", "4",
                     "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "link,a,b,level,probability,retained,p_star"
        assert len(lines) == 4

    def test_json_output_and_threshold(self, line_file, capsys):
        assert main(["adapt", str(line_file), "--k", "1", "--n", "4",
                     "--seed", "0", "--format", "json",
                     "--threshold", "0.9"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 3 and payload["retained"] == 0

    def test_missing_network_file(self, tmp_path):
        assert main(["adapt", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("content, where", [
        (None, "path"),
        ('{"default": ', "path"),
        ('{"levels": [0.5]}', "thresholds.levels: expected an object"),
        # was accepted as threshold 1.0
        ('{"default": true}', "thresholds.default: expected a number"),
        ('{"default": "0.5"}', "thresholds.default: expected a number"),
        ('{"levels": {"1": false}}', "thresholds.levels.1: expected a number"),
        ('{"levels": {"1": [0.5]}}', "thresholds.levels.1: expected a number"),
        ('{"levels": {"one": 0.5}}', "thresholds.levels.one: expected an integer level"),
        ('{"default": 1.5}', "thresholds.default: threshold 1.5 is outside [0, 1]"),
    ], ids=["missing", "malformed-json", "levels-not-object", "default-boolean",
            "default-string", "level-boolean", "level-list", "level-key", "out-of-range"])
    def test_bad_thresholds_file(self, line_file, tmp_path, capsys, content, where):
        path = tmp_path / "thresholds.json"
        if content is not None:
            path.write_text(content)
        assert main(["adapt", str(line_file), "--k", "1", "--n", "4",
                     "--thresholds", str(path)]) == EXIT_CONFIG
        assert (str(path) if where == "path" else where) in capsys.readouterr().err


class TestRoute:
    def test_found(self, line_file, capsys):
        code = main(["route", str(line_file), "--k", "1", "--n", "4",
                     "--seed", "0", "--source", "0", "--target", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["status"] == "found" and payload["diameter"] == 3

    def test_unreachable_exit_code(self, line_file, capsys):
        code = main(["route", str(line_file), "--k", "1", "--n", "4",
                     "--seed", "0", "--source", "0", "--target", "3",
                     "--threshold", "0.9"])
        assert code == EXIT_INFEASIBLE
        assert json.loads(capsys.readouterr().out)["status"] == "unreachable"

    def test_unknown_node_is_config_error(self, line_file):
        assert main(["route", str(line_file), "--k", "1", "--n", "4",
                     "--seed", "0", "--source", "0", "--target", "99"]) == EXIT_CONFIG

    @pytest.mark.parametrize("nodes, message", [
        # was an internal error from sorting mixed ids
        ([0, 1, 2, 3, "a"], "network.nodes[4]: expected an integer"),
        # was accepted as node 1
        ([0, True, 2, 3], "network.nodes[1]: expected an integer"),
        # was an internal error from iterating an int
        (4, "network.nodes: expected a list"),
    ], ids=["string", "boolean", "not-a-list"])
    def test_non_integer_node_id(self, line_file, tmp_path, capsys, nodes, message):
        payload = json.loads(line_file.read_text())
        payload["nodes"] = nodes
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        code = main(["route", str(path), "--k", "1", "--n", "5",
                     "--source", "0", "--target", "3"])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("id", [0]),            # was an internal error: unhashable type
        ("a", {}),
        ("b", [1]),
        ("id", True),
        ("level", "2"),
        ("resource_count", 1.5),
    ], ids=repr)
    def test_non_integer_link_field(self, line_file, tmp_path, capsys, key, value):
        payload = json.loads(line_file.read_text())
        payload["links"][1][key] = value
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        code = main(["route", str(path), "--k", "1", "--n", "4",
                     "--source", "0", "--target", "3"])
        assert code == EXIT_CONFIG
        assert f"error: network.links[1].{key}: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["route", "adapt"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "0", "--k: must be >= 1, got 0"),
        ("--n", "1", "--n: must be >= 2, got 1"),
    ])
    def test_bad_shape_flag(self, line_file, capsys, command, flag, value, message):
        # was an internal error from map_overlay's ValueError
        args = [command, str(line_file), "--k", "1", "--n", "4", flag, value]
        if command == "route":
            args += ["--source", "0", "--target", "3"]
        assert main(args) == EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err

    def test_unwritable_out(self, line_file, tmp_path, capsys):
        out = tmp_path / "missing" / "route.json"
        code = main(["route", str(line_file), "--k", "1", "--n", "4", "--seed", "0",
                     "--source", "0", "--target", "3", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err

    def test_links_not_a_list(self, line_file, tmp_path, capsys):
        payload = json.loads(line_file.read_text())
        payload["links"] = {str(link["id"]): link for link in payload["links"]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        code = main(["route", str(path), "--k", "1", "--n", "4",
                     "--source", "0", "--target", "3"])
        assert code == EXIT_CONFIG
        assert "network.links: expected a list" in capsys.readouterr().err

    @pytest.mark.parametrize("placement, message", [
        # was an internal error comparing a string with the lattice bounds
        ([{"node": 0, "coords": "ab"}], "placement[0].coords: expected a list of integers"),
        ([{"node": 0, "coords": [0]}, {"node": 1, "coords": [True]}],
         "placement[1].coords: expected a list of integers"),
        ([{"node": 0, "coords": [0.0]}], "placement[0].coords: expected a list of integers"),
        ([{"node": 0, "coords": 0}], "placement[0].coords: expected a list of integers"),
        ([{"node": "0", "coords": [0]}], "placement[0].node: expected an integer"),
        ([{"node": False, "coords": [0]}], "placement[0].node: expected an integer"),
        ({"0": [0]}, "placement: expected a list"),
    ], ids=["coords-string", "coords-boolean", "coords-float", "coords-int",
            "node-string", "node-boolean", "not-a-list"])
    def test_bad_placement_file(self, line_file, tmp_path, capsys, placement, message):
        path = tmp_path / "placement.json"
        path.write_text(json.dumps(placement))
        code = main(["route", str(line_file), "--k", "1", "--n", "4",
                     "--placement", str(path), "--source", "0", "--target", "3"])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_placement_file(self, line_file, tmp_path, capsys):
        path = tmp_path / "placement.json"
        path.write_text(json.dumps(
            [{"node": i, "coords": [3 - i]} for i in range(4)]))
        assert main(["route", str(line_file), "--k", "1", "--n", "4",
                     "--placement", str(path), "--source", "0", "--target", "3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["diameter"] == 3

    @pytest.mark.parametrize("source,target", [(1, 0), (0, 1)])
    def test_link_endpoint_outside_node_set(self, tmp_path, capsys, source, target):
        links = [EntangledLink(id=0, a=0, b=1), EntangledLink(id=1, a=0, b=5)]
        path = tmp_path / "net.json"
        save_network(make_network([0, 1], links), path)
        code = main(["route", str(path), "--k", "1", "--n", "2",
                     "--source", str(source), "--target", str(target)])
        assert code == EXIT_CONFIG
        assert "network.links[1]" in capsys.readouterr().err

    def test_repeated_link_id(self, tmp_path, capsys):
        # was accepted: the route from 0 to 2 ran over links [0, 0]
        links = [EntangledLink(id=0, a=0, b=1), EntangledLink(id=0, a=1, b=2)]
        path = tmp_path / "net.json"
        save_network(make_network([0, 1, 2], links), path)
        code = main(["route", str(path), "--k", "1", "--n", "3",
                     "--source", "0", "--target", "2"])
        assert code == EXIT_CONFIG
        assert ("error: network.links[1].id: link id 0 appears more than once"
                in capsys.readouterr().err)

    def test_repeated_placement_node(self, line_file, tmp_path, capsys):
        # was accepted: the last record moved node 0
        path = tmp_path / "placement.json"
        path.write_text(json.dumps(
            [{"node": i, "coords": [i]} for i in range(4)] + [{"node": 0, "coords": [4]}]))
        code = main(["route", str(line_file), "--k", "1", "--n", "5",
                     "--placement", str(path), "--source", "0", "--target", "3"])
        assert code == EXIT_CONFIG
        assert ("error: placement[4].node: node 0 is placed more than once"
                in capsys.readouterr().err)


@pytest.fixture
def instance_file(tmp_path, line_file):
    payload = {
        "network_file": "line.json",
        "base_graph": {
            "k": 1, "n": 4,
            "placement": [{"node": i, "coords": [i]} for i in range(4)],
        },
        "demands": [{"user": 0, "source": 0, "target": 3, "rate": 1.0}],
        "resource_sets": [{"link": i, "states": [0]} for i in range(3)],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    return path


class TestAssign:
    def test_feasible(self, instance_file, capsys):
        assert main(["assign", str(instance_file)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible"
        assert payload["served"] == [0]
        assert len(payload["C"]) == 3

    def test_solver_choice_and_out_file(self, instance_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        for solver in ("exact", "greedy"):
            assert main(["assign", str(instance_file), "--solver", solver,
                         "--out", str(out)]) == EXIT_OK
            assert json.loads(out.read_text())["status"] == "feasible"
            assert main(["assign", str(instance_file), "--solver", solver]) == EXIT_OK
            assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("field, value, message", [
        # each was an internal error
        (("demands",), 3, "expected a list"),
        (("resource_sets",), 3, "expected a list"),
        (("interference",), {}, "expected a list"),
        (("resource_sets", 0, "states"), 3, "expected a list of integers"),
        (("resource_sets", 0, "states"), [[0]], "expected a list of integers"),
        (("resource_sets", 0, "states"), [0, 0], "resource set of link 0 has duplicate"),
        (("resource_sets", 0, "link"), [0], "expected an integer"),
        (("interference", 0, "link"), {}, "expected an integer"),
        (("interference", 0, "competing"), 3, "expected a list of integer pairs"),
        (("interference", 0, "competing"), [[0, 0], 1], "expected a list of integer pairs"),
        (("base_graph", "seed"), [1], "expected an integer"),
        (("network_file",), 5, "expected a string"),
        # each was accepted
        (("resource_sets", 0, "states"), "a", "expected a list of integers"),
        (("resource_sets", 0, "link"), True, "expected an integer"),
        (("interference", 0, "state"), "0", "expected an integer"),
        (("interference", 0, "competing"), [[0, 0], [1, True]],
         "expected a list of integer pairs"),
        (("base_graph", "seed"), "x", "expected an integer"),
        # each named its path from the nested block, not from the file
        (("network", "nodes", 0), True, "expected an integer"),
        (("network", "links", 0, "id"), "0", "expected an integer"),
        (("thresholds",), 3, "expected an object"),
        (("thresholds", "default"), "x", "expected a number"),
        (("thresholds", "levels", "1"), None, "expected a number"),
        (("base_graph", "placement", 0, "node"), "0", "expected an integer"),
        (("base_graph", "placement", 0, "coords"), [0.5], "expected a list of integers"),
    ], ids=repr)
    def test_malformed_field_names_its_path(self, instance_file, line_file, tmp_path,
                                            capsys, field, value, message):
        payload = json.loads(instance_file.read_text())
        payload["base_graph"]["seed"] = 3
        payload["demands"].append({"user": 1, "source": 0, "target": 3, "rate": 1.0})
        payload["interference"] = [{"link": 0, "state": 0, "competing": [[0, 0], [1, 1]]}]
        payload["thresholds"] = {"default": 0.0, "levels": {"1": 0.0}}
        if field[0] == "network":
            del payload["network_file"]
            payload["network"] = json.loads(line_file.read_text())
        record = payload
        for key in field[:-1]:
            record = record[key]
        record[field[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["assign", str(path)]) == EXIT_CONFIG
        where = "instance" + "".join(
            f"[{key}]" if isinstance(key, int) else f".{key}" for key in field
        )
        assert f"error: {where}: {message}" in capsys.readouterr().err

    def test_repeated_resource_set(self, instance_file, tmp_path, capsys):
        # was accepted: the last record replaced the first
        payload = json.loads(instance_file.read_text())
        payload["resource_sets"].append({"link": 0, "states": [0]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["assign", str(path)]) == EXIT_CONFIG
        assert ("error: instance.resource_sets[3].link: link 0 has more than one "
                "resource set" in capsys.readouterr().err)

    def test_bad_pstar_mode(self, instance_file, tmp_path, capsys):
        payload = json.loads(instance_file.read_text())
        payload["pstar_mode"] = "bogus"
        bad = tmp_path / "bogus.json"
        bad.write_text(json.dumps(payload))
        assert main(["assign", str(bad)]) == EXIT_CONFIG
        assert "instance.pstar_mode: " in capsys.readouterr().err

    def test_path_rich_instance_falls_back_to_greedy(self, tmp_path, capsys):
        # 40 variables, within the exact solver's cap, but 2**20 simple
        # paths: the exact solver stops listing them and auto solves greedily.
        hops = 20
        payload = {
            "network": network_to_dict(parallel_chain(hops)),
            "base_graph": {"k": 1, "n": hops + 1,
                           "placement": [{"node": i, "coords": [i]} for i in range(hops + 1)]},
            "demands": [{"user": 0, "source": 0, "target": hops, "rate": 1.0}],
            "resource_sets": [{"link": i, "states": [0]} for i in range(2 * hops)],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(payload))
        assert main(["assign", str(path), "--solver", "auto"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["status"] == "feasible" and result["served"] == [0]
        assert len(result["C"]) == hops

    def test_no_demands_is_feasible(self, instance_file, tmp_path, capsys):
        payload = json.loads(instance_file.read_text())
        payload["demands"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(payload))
        for solver in ("auto", "exact", "greedy"):
            assert main(["assign", str(path), "--solver", solver]) == EXIT_OK
            result = json.loads(capsys.readouterr().out)
            assert result == {"status": "feasible", "objective": 0, "C": [], "K": [],
                              "served": [], "rejected": []}

    def test_infeasible_exit_code(self, instance_file, tmp_path, capsys):
        payload = json.loads(instance_file.read_text())
        payload["demands"][0]["rate"] = 100.0
        bad = tmp_path / "too_big.json"
        bad.write_text(json.dumps(payload))
        assert main(["assign", str(bad)]) == EXIT_INFEASIBLE


class TestRun:
    def scenario_payload(self):
        return {
            "seed": 11,
            "trials": 2,
            "network_file": "line.json",
            "base_graph": {
                "k": 1, "n": 4,
                "placement": [{"node": i, "coords": [i]} for i in range(4)],
            },
            "demands": [{"user": 0, "source": 0, "target": 3, "rate": 1.0}],
        }

    def test_outputs_are_byte_identical_across_runs(self, tmp_path, line_file):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_payload()))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", str(path), "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(path), "--out", str(out2)]) == EXIT_OK
        for name in ("metrics.csv", "solutions.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_scenario_field(self, tmp_path, line_file):
        payload = self.scenario_payload()
        payload["mystery"] = 1
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("seed_flag", [[], ["--seed", "3"]])
    def test_malformed_scenario_json(self, tmp_path, capsys, seed_flag):
        path = tmp_path / "scenario.json"
        path.write_text('{"seed": 11,')
        assert main(["run", str(path), *seed_flag]) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    def test_scenario_not_an_object_with_seed_flag(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("[1, 2]")
        assert main(["run", str(path), "--seed", "3"]) == EXIT_CONFIG
        assert "scenario: expected an object" in capsys.readouterr().err

    def test_out_is_a_file(self, tmp_path, line_file, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_payload()))
        assert main(["run", str(path), "--out", str(line_file)]) == EXIT_CONFIG
        assert f"--out {line_file}: " in capsys.readouterr().err

    def test_all_trials_infeasible(self, tmp_path, line_file):
        payload = self.scenario_payload()
        payload["thresholds"] = {"default": 0.9}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE


    def test_greedy_scenario_outputs_are_pinned(self, tmp_path):
        # metrics.csv + solutions.json of a scenario that routes, spills,
        # fails links and solves greedily: a faster pipeline must write
        # these same bytes.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(greedy_scenario_payload()))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_INFEASIBLE
        data = (out / "metrics.csv").read_bytes() + (out / "solutions.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "828ad4014b0ec6121c0f46ea9a78cf1cf6e722a668cef962b020679950eccd58"
        )

    def test_greedy_scenario_outputs_never_say_blocked(self, tmp_path, monkeypatch):
        # Spill walks that stop early come back BLOCKED; demand routes never
        # do, so neither the run records nor the files carry that status.
        import etopo.assignment
        import etopo.cli

        spill_statuses, runs = [], []
        route, run_scenario = etopo.assignment.route, etopo.cli.run_scenario

        def spill_walk(*args, **kwargs):
            outcome = route(*args, **kwargs)
            spill_statuses.append(outcome.status)
            return outcome

        def kept_run(scenario):
            runs.append(run_scenario(scenario))
            return runs[-1]

        monkeypatch.setattr(etopo.assignment, "route", spill_walk)
        monkeypatch.setattr(etopo.cli, "run_scenario", kept_run)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(greedy_scenario_payload()))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_INFEASIBLE
        assert etopo.RouteStatus.BLOCKED in spill_statuses
        [records] = runs
        statuses = {o.status for rec in records for _, o in rec.routing}
        assert etopo.RouteStatus.BLOCKED not in statuses
        for name in ("metrics.csv", "solutions.json"):
            assert "blocked" not in (out / name).read_text().lower()

    @pytest.mark.parametrize("field, value", [
        (("trials",), "2"),
        (("seed",), "7"),
        (("base_graph", "k"), "1"),
        (("base_graph", "n"), True),
        (("base_graph", "k"), 0),
        (("demands", 0, "rate"), "1"),
        (("demands", 0, "user"), True),
        (("demands", 0, "source"), "0"),
        (("failures", 0, "time"), "1"),
        (("failures", 0, "target"), True),
        (("failures", 0, "magnitude"), True),
        (("demands",), {}),
        (("network_file",), 5),
        (("generator", "swap_range"), [0.5, 2.0]),
        (("generator", "swap_range"), [0.5, 0.75, 1.0]),
        (("generator", "swap_range"), [True, 1.0]),
        (("generator", "loss_range"), [-0.25, 0.5]),
        (("generator", "fidelity_range"), 0.5),
        (("generator", "throughput_range"), [-1.0, 2.0]),
        (("generator", "resource_range"), [1.5, 2]),
        (("generator", "resource_range"), [False, 2]),
        (("generator", "resource_range"), [2, 1]),
        (("generator", "num_nodes"), True),
        (("generator", "num_links"), 4.0),
        (("generator", "levels"), "12"),
        (("network", "nodes"), {}),
        (("network", "nodes", 0), "0"),
        (("network", "links", 0, "resource_count"), "1"),
        (("thresholds",), []),
        (("thresholds", "default"), "x"),
        (("thresholds", "levels"), 3),
        (("base_graph", "placement", 0, "coords"), "x"),
        (("base_graph", "placement", 0), {"node": 0}),
    ], ids=lambda v: repr(v))
    def test_malformed_field_names_its_path(self, tmp_path, line_file, capsys,
                                            field, value):
        payload = {
            "seed": 5, "trials": 1,
            "generator": {"num_nodes": 8, "num_links": 12},
            "base_graph": {
                "k": 2, "n": 4,
                "placement": [{"node": i, "coords": [i // 4, i % 4]} for i in range(8)],
            },
            "thresholds": {"default": 0.0, "levels": {"1": 0.0}},
            "demands": [{"user": 0, "source": 0, "target": 3, "rate": 1.0}],
            "failures": [{"target": 1, "kind": "degrade-swap", "magnitude": 0.5,
                          "time": 0}],
        }
        if field == ("network_file",):
            del payload["generator"]
        if field[0] == "network":
            del payload["generator"]
            payload["network"] = json.loads(line_file.read_text())
        record = payload
        for key in field[:-1]:
            record = record[key]
        record[field[-1]] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        where = "scenario" + "".join(
            f"[{key}]" if isinstance(key, int) else f".{key}" for key in field
        )
        assert f"error: {where}: " in capsys.readouterr().err


class TestReduceColoring:
    def test_reduction_then_assign(self, tmp_path):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(
            {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]]}
        ))
        inst = tmp_path / "instance.json"
        assert main(["reduce-coloring", str(graph), "--colors", "3",
                     "--out", str(inst)]) == EXIT_OK
        assert main(["assign", str(inst), "--out",
                     str(tmp_path / "r.json")]) == EXIT_OK
        assert main(["reduce-coloring", str(graph), "--colors", "2",
                     "--out", str(inst)]) == EXIT_OK
        assert main(["assign", str(inst), "--out",
                     str(tmp_path / "r.json")]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("graph, colors, message", [
        # each was an internal error
        ({"vertices": 3, "edges": []}, 2, "graph.vertices: expected a list of integers"),
        ({"vertices": [0, "b"], "edges": []}, 2,
         "graph.vertices: expected a list of integers"),
        ({"vertices": [0, 1], "edges": [0, 1]}, 2,
         "graph.edges: expected a list of integer pairs"),
        ({"vertices": [0, 1], "edges": 5}, 2, "graph.edges: expected a list of integer pairs"),
        ({"vertices": [0, 1], "edges": [[0, 1]]}, 0, "--colors: "),
        # was accepted and ignored
        ({"vertices": [0, 1], "edges": [], "k_star": 2}, 2,
         "graph: unknown fields ['k_star']"),
    ], ids=repr)
    def test_bad_input_is_a_config_error(self, tmp_path, capsys, graph, colors, message):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        assert main(["reduce-coloring", str(path), "--colors", str(colors),
                     "--out", str(tmp_path / "inst.json")]) == EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err


class TestBenchRouting:
    def test_small_sizes_csv(self, capsys):
        assert main(["bench-routing", "--sizes", "4,8", "--trials", "5",
                     "--seed", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,trials,mean_steps,log2n_squared,normalized"
        assert len(lines) == 3

    def test_json_format(self, capsys):
        assert main(["bench-routing", "--sizes", "4", "--trials", "3",
                     "--seed", "1", "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["n"] == 4 and "normalized" in rows[0]

    def test_verbose_logs_stage_timings_and_leaves_stdout_alone(self, capsys, caplog):
        args = ["bench-routing", "--sizes", "4,8", "--trials", "5", "--seed", "1"]
        assert main(args) == EXIT_OK
        plain = capsys.readouterr().out
        caplog.set_level(logging.INFO, logger="etopo")
        assert main(["-v", *args]) == EXIT_OK
        assert capsys.readouterr().out == plain
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("bench ")]
        assert len(lines) == 2
        for n, line in zip((4, 8), lines):
            assert re.fullmatch(
                rf"bench n={n} mean_steps=[0-9.]+ "
                r"build=[0-9.]+s adapt=[0-9.]+s route=[0-9.]+s",
                line,
            )

    @pytest.mark.parametrize("args, digest", [
        (["--sizes", "16,32,64", "--trials", "200", "--seed", "5"],
         "530a4b37654b1ebef66f8cc5bacf7ca075af7970480900e47f0fffa072164c87"),
        (["--sizes", "128", "--trials", "100", "--seed", "9", "--format", "json"],
         "bdff11ac7e21ba89e95bf1387a4fde35fba136f47a85f5a2361aba678b5ccae3"),
    ], ids=["csv", "json"])
    def test_stdout_is_pinned(self, capsys, args, digest):
        # Lattices, routes and step counts together: a faster build or walk
        # must print these same bytes.
        assert main(["bench-routing", *args]) == EXIT_OK
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"),
        ("--trials", "-1"),
        ("--sizes", "8,x"),
    ])
    def test_bad_flag_is_a_config_error(self, flag, value, capsys):
        assert main(["bench-routing", "--sizes", "4", "--trials", "3",
                     flag, value]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(etopo.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "etopo", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK
    assert done.stdout.startswith("usage: etopo ")
    assert "bench-routing" in done.stdout


@pytest.mark.parametrize("argv, message", [
    (["route", "net.json", "--k", "abc", "--source", "0", "--target", "1"],
     "argument --k: invalid int value: 'abc'"),
    (["assign", "x.json", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["bogus"], "invalid choice: 'bogus'"),
], ids=["bad-value", "unknown-flag", "unknown-command"])
def test_malformed_command_line_is_a_config_error(capsys, argv, message):
    # each exited 2, the code of an infeasible result
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_subcommand_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["route", "--help"])
    assert exit_.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: etopo route ")
