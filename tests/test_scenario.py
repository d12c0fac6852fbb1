import collections
import gc
import hashlib

import pytest

import etopo.generate
from etopo import (
    ConfigError,
    Demand,
    EntangledLink,
    FailureKind,
    GeneratorParams,
    RouteStatus,
    Scenario,
    SolveStatus,
    ThresholdPolicy,
    derive_seed,
    generate_network,
    kleinberg_lattice,
    make_network,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from etopo.scenario import BNB_VARIABLE_CAP, records_to_csv, records_to_solutions
from util import (
    greedy_scenario_payload,
    reference_generate_network,
    reference_kleinberg_lattice,
)


def line_network(length=4, throughput=4.0):
    links = [
        EntangledLink(id=i, a=i, b=i + 1, swap_success=0.75, throughput=throughput)
        for i in range(length - 1)
    ]
    return make_network(range(length), links)


def line_scenario(**overrides):
    base = dict(
        seed=7,
        trials=2,
        network_inline=line_network(),
        k=1,
        n=4,
        placement={i: (i,) for i in range(4)},
        thresholds=ThresholdPolicy(default=0.0),
        demands=(Demand(user=0, source=0, target=3, rate=1.0),),
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            line_scenario(generator=GeneratorParams())
        with pytest.raises(ConfigError, match="exactly one"):
            line_scenario(network_inline=None)

    def test_duplicate_users_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            line_scenario(demands=(
                Demand(user=0, source=0, target=3),
                Demand(user=0, source=1, target=3),
            ))

    def test_duplicate_user_names_the_first_repeat(self):
        with pytest.raises(ConfigError, match=r"^scenario\.demands\[2\]\.user: user 0 "):
            line_scenario(demands=(
                Demand(user=0, source=0, target=3),
                Demand(user=1, source=1, target=3),
                Demand(user=0, source=2, target=3),
                Demand(user=1, source=0, target=2),
            ))

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            line_scenario(trials=0)


class TestScenarioSerialization:
    def test_dict_round_trip(self):
        scenario = line_scenario()
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario

    def test_unknown_field_rejected(self):
        data = scenario_to_dict(line_scenario())
        data["verbose"] = True
        with pytest.raises(ConfigError):
            scenario_from_dict(data)

    def test_generator_round_trip(self):
        scenario = Scenario(
            seed=1, trials=1,
            generator=GeneratorParams(num_nodes=6, num_links=8),
            demands=(Demand(user=0, source=0, target=1),),
        )
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_base_graph_takes_no_seed(self):
        # placements are seeded per trial from the scenario seed
        data = scenario_to_dict(line_scenario())
        data["base_graph"]["seed"] = 3
        with pytest.raises(ConfigError, match=r"scenario.base_graph: unknown fields \['seed'\]"):
            scenario_from_dict(data)

    def test_bad_pstar_mode(self):
        data = scenario_to_dict(line_scenario())
        data["pstar_mode"] = "optimistic"
        with pytest.raises(ConfigError):
            scenario_from_dict(data)


class TestRunScenario:
    def test_line_scenario_served(self):
        records = run_scenario(line_scenario())
        assert len(records) == 2
        for rec in records:
            assert rec.assign_status is SolveStatus.FEASIBLE
            assert rec.served == (0,)
            assert rec.links_total == rec.links_adapted == 3

    def test_failures_apply_at_their_tick(self):
        from etopo import FailureEvent, FailureKind

        scenario = line_scenario(
            trials=3,
            failures=(FailureEvent(target=1, kind=FailureKind.REMOVE_LINK, time=1),),
        )
        records = run_scenario(scenario)
        assert records[0].links_total == 3
        assert records[1].links_total == 2
        assert records[1].assign_status is SolveStatus.INFEASIBLE
        assert records[1].rejected == (0,)

    def test_missing_failure_targets_warn_once_each(self, caplog):
        from etopo import FailureEvent, FailureKind

        valid = (
            FailureEvent(target=1, kind=FailureKind.REMOVE_LINK, time=0),
            # link 1 is gone by then: a legitimate skip, not a typo
            FailureEvent(target=1, kind=FailureKind.DEGRADE_SWAP, magnitude=0.5, time=1),
        )
        missing = (
            FailureEvent(target=999, kind=FailureKind.REMOVE_LINK, time=0),
            FailureEvent(target=998, kind=FailureKind.DEGRADE_FIDELITY, magnitude=0.5,
                         time=7),
        )
        clean = line_scenario(trials=3, failures=valid)
        typo = line_scenario(trials=3, failures=valid + missing)
        caplog.set_level("WARNING", logger="etopo")
        expected = run_scenario(clean)
        assert not caplog.records
        got = run_scenario(typo)
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 2
        for record, target in zip(warnings, (999, 998)):
            assert f"targets link {target}," in record.getMessage()
        assert records_to_csv(got) == records_to_csv(expected)
        assert records_to_solutions(typo, got) == records_to_solutions(clean, expected)

    def test_deterministic_outputs(self):
        scenario = line_scenario()
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert records_to_csv(first) == records_to_csv(second)
        assert records_to_solutions(scenario, first) == \
            records_to_solutions(scenario, second)

    def test_csv_shape(self):
        records = run_scenario(line_scenario(trials=1))
        lines = records_to_csv(records).splitlines()
        assert lines[0].startswith("trial,links_total,links_adapted")
        assert len(lines) == 2
        assert lines[1].startswith("0,3,3,1,1,0,feasible,")

    def test_each_pair_is_routed_once_per_trial(self, monkeypatch):
        import etopo.assignment
        import etopo.scenario

        trial = [-1]
        # Walks that ran to the end, by (trial, source, target), and the
        # start of every walk, by (trial, source).
        walks = collections.Counter()
        starts = set()
        instances = []
        map_overlay = etopo.scenario.map_overlay
        build = etopo.scenario.build_trial_instance

        def next_trial(*args, **kwargs):
            trial[0] += 1
            return map_overlay(*args, **kwargs)

        def keep(*args, **kwargs):
            built = build(*args, **kwargs)
            instances.append(built[0])
            return built

        def counted(route):
            def walk(graph, adapted, source, target, **kwargs):
                outcome = route(graph, adapted, source, target, **kwargs)
                starts.add((trial[0], source))
                if outcome.status is not RouteStatus.BLOCKED:
                    walks[(trial[0], source, target)] += 1
                return outcome
            return walk

        monkeypatch.setattr(etopo.scenario, "map_overlay", next_trial)
        monkeypatch.setattr(etopo.scenario, "build_trial_instance", keep)
        monkeypatch.setattr(etopo.scenario, "route", counted(etopo.scenario.route))
        monkeypatch.setattr(etopo.assignment, "route", counted(etopo.assignment.route))
        scenario = scenario_from_dict(greedy_scenario_payload())
        records = run_scenario(scenario)

        # The scenario covers what the route memo has to: every failure
        # kind, greedy solving above the exact cap, and spill re-routes
        # (walks from a node that is no demand's source). A spill walk that
        # stops early is not memoized, so only walks that ran to the end
        # count as routing a pair.
        assert {f.kind for f in scenario.failures} == set(FailureKind)
        assert len(records) == len(instances) == 2
        assert all(inst.n_variables() > BNB_VARIABLE_CAP for inst in instances)
        sources = {d.source for d in scenario.demands}
        for t in range(2):
            assert any(s not in sources for (tr, s) in starts if tr == t)
        assert max(walks.values()) == 1

    def test_contention_forces_rejection(self):
        # two demands share the only state of the final link
        net = make_network(
            range(4),
            [
                EntangledLink(id=0, a=0, b=2, throughput=9.0),
                EntangledLink(id=1, a=1, b=2, throughput=9.0),
                EntangledLink(id=2, a=2, b=3, throughput=9.0),
            ],
        )
        scenario = line_scenario(
            network_inline=net,
            placement={0: (0,), 1: (1,), 2: (2,), 3: (3,)},
            demands=(
                Demand(user=0, source=0, target=3, rate=1.0),
                Demand(user=1, source=1, target=3, rate=1.0),
            ),
        )
        records = run_scenario(scenario)
        for rec in records:
            assert rec.assign_status is SolveStatus.INFEASIBLE
            assert rec.served == () and rec.rejected == (0, 1)


class TestRecordOutcomes:
    """A record's status and objective follow from its served and rejected
    demands and its solver result."""

    @staticmethod
    def solutions(scenario):
        records = run_scenario(scenario)
        return records, records_to_solutions(scenario, records)["trials"]

    def test_no_demands(self):
        records, trials = self.solutions(line_scenario(demands=()))
        for rec, entry in zip(records, trials):
            assert rec.assign_status is None and rec.objective is None
            assert rec.result is None
            assert rec.served == rec.rejected == ()
            assert entry["assign_status"] is None and entry["objective"] is None
            assert "C" not in entry and "K" not in entry
        assert records_to_csv(records).splitlines()[1] == "0,3,3,0,0,0,,,"

    def test_every_demand_unroutable(self):
        scenario = line_scenario(
            thresholds=ThresholdPolicy(default=0.9),
            demands=(Demand(user=0, source=0, target=3, rate=1.0),
                     Demand(user=1, source=1, target=2, rate=1.0)),
        )
        records, trials = self.solutions(scenario)
        for rec, entry in zip(records, trials):
            assert rec.assign_status is SolveStatus.INFEASIBLE
            assert rec.result is None and rec.objective is None
            assert rec.served == () and rec.rejected == (0, 1)
            assert entry["assign_status"] == "infeasible" and entry["objective"] is None
            assert "C" not in entry

    def test_an_unroutable_demand_next_to_a_served_one(self):
        # Node 4 is placed but holds no link, so demand 1 cannot be routed;
        # demand 0 is solved, and its objective is kept.
        scenario = line_scenario(
            network_inline=make_network(range(5), line_network().links),
            n=5,
            placement={i: (i,) for i in range(5)},
            demands=(Demand(user=0, source=0, target=3, rate=1.0),
                     Demand(user=1, source=0, target=4, rate=1.0)),
        )
        records, trials = self.solutions(scenario)
        for rec, entry in zip(records, trials):
            assert rec.routing[1][1].status is RouteStatus.UNREACHABLE
            assert rec.assign_status is SolveStatus.INFEASIBLE
            assert rec.served == (0,) and rec.rejected == (1,)
            assert rec.result is not None and rec.result.feasible
            assert rec.objective == rec.result.objective == pytest.approx(0.75)
            assert entry["assign_status"] == "infeasible"
            assert entry["objective"] == pytest.approx(0.75)
            assert sorted(map(tuple, entry["C"])) == [(0, 0, 0), (0, 1, 0), (0, 2, 0)]

    def test_grants_name_scenario_demands(self):
        # Node 3 is placed but holds no link, so demand 0 cannot be routed
        # and the solver's instance numbers demands 1 and 2 as 0 and 1.
        # Both cross link 1, so each is granted one of its states.
        net = make_network(range(4), [
            EntangledLink(id=0, a=0, b=1, throughput=9.0),
            EntangledLink(id=1, a=1, b=2, throughput=9.0, resource_count=2),
        ])
        scenario = line_scenario(
            network_inline=net,
            demands=(Demand(user=0, source=0, target=3, rate=1.0),
                     Demand(user=1, source=0, target=2, rate=1.0),
                     Demand(user=2, source=1, target=2, rate=1.0)),
        )
        records, trials = self.solutions(scenario)
        for rec, entry in zip(records, trials):
            assert rec.served == (1, 2) and rec.rejected == (0,)
            assert entry["served"] == [1, 2]
            assert entry["K"] == [[1, 1, [1, 0]], [2, 2, [1, 1]]]
            for user, qid, _ in entry["K"]:
                assert scenario.demands[qid].user == user


class TestGenerators:
    def test_generate_network_is_seed_deterministic(self):
        params = GeneratorParams(num_nodes=8, num_links=12, levels=(1, 2))
        assert generate_network(params, 5) == generate_network(params, 5)
        assert generate_network(params, 5) != generate_network(params, 6)

    def test_generated_network_is_valid(self):
        net = generate_network(GeneratorParams(num_nodes=8, num_links=12), 1)
        assert validate(net) == []
        assert len(net.links) == 12

    def test_kleinberg_lattice_structure(self):
        net, graph = kleinberg_lattice(4, seed=2)
        assert len(net.nodes) == 16
        assert validate(net) == []
        # long-range links land on top of the grid, minus duplicate pairs
        grid_links = 2 * 4 * 3
        assert grid_links < len(net.links) <= grid_links + 16
        assert graph.placement[0] == (0, 0)
        from etopo import l1_distance

        spans = [
            l1_distance(graph.coord(l.a), graph.coord(l.b)) for l in net.links
        ]
        assert any(d > 1 for d in spans)

    @pytest.mark.parametrize("n, seed, link_count, digest", [
        (16, 7, 635, "7ce12906900582e7145ab46e9c58ff3bca26b3379c2c2ebd32a46151e8de8d3a"),
        (64, 7, 11042, "ee56ec0e849c141c7f34b6794f145744aae05aa22ac423333345481b5352227e"),
    ], ids=["n16", "n64"])
    def test_kleinberg_lattice_links_are_pinned(self, n, seed, link_count, digest):
        # Step counts and benchmark digests measured on these lattices
        # depend on the sampler's exact draw sequence, so pin the links.
        net, _ = kleinberg_lattice(n, seed)
        triples = [(l.id, l.a, l.b) for l in net.links]
        assert len(triples) == link_count
        assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 33])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_kleinberg_lattice_matches_reference(self, n, seed):
        net, graph = kleinberg_lattice(n, seed)
        ref_net, ref_graph = reference_kleinberg_lattice(n, seed)
        assert net.links == ref_net.links
        assert net.nodes == ref_net.nodes
        assert graph.placement == ref_graph.placement
        assert graph.contacts == ref_graph.contacts

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        """The cyclic collector's state for the test, restored after it."""
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_kleinberg_lattice_restores_the_collector(self, collector):
        kleinberg_lattice(8, seed=3)
        assert gc.isenabled() is collector

    def test_kleinberg_lattice_restores_the_collector_when_it_raises(
        self, collector, monkeypatch
    ):
        seen = []

        def failing_map_overlay(*args, **kwargs):
            seen.append(gc.isenabled())
            raise RuntimeError("map_overlay failed")

        monkeypatch.setattr(etopo.generate, "map_overlay", failing_map_overlay)
        with pytest.raises(RuntimeError, match="map_overlay failed"):
            kleinberg_lattice(8, seed=3)
        assert seen == [False]  # paused through map_overlay
        assert gc.isenabled() is collector

    def test_kleinberg_lattice_builds_no_cycles(self):
        # Why pausing the collector loses nothing: the build leaves no
        # unreachable cycle for it to find.
        gc.collect()
        net, graph = kleinberg_lattice(64, seed=7)
        assert gc.collect() == 0
        assert len(net.links) == 11042 and len(graph.placement) == 64 * 64

    # Counts 0 .. slots // 3 and slots make random.sample copy the slot
    # range into a list; 5 and slots // 30 (from 10 nodes on) make it draw
    # indices into a set. Both must pick what the listed slots give.
    @pytest.mark.parametrize("num_nodes", [2, 3, 5, 10, 40, 120])
    @pytest.mark.parametrize("levels", [(1,), (1, 2), (2, 1), (3, 1, 2)])
    @pytest.mark.parametrize("count", ["none", "five", "thirtieth", "third", "all"])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_generate_network_matches_reference(self, num_nodes, levels, count, seed):
        slots = num_nodes * (num_nodes - 1) // 2 * len(levels)
        num_links = {"none": 0, "five": min(5, slots), "thirtieth": slots // 30,
                     "third": slots // 3, "all": slots}[count]
        params = GeneratorParams(num_nodes=num_nodes, num_links=num_links, levels=levels,
                                 resource_range=(0, 3))
        assert generate_network(params, seed) == reference_generate_network(params, seed)

    # generate_network draws with random() and getrandbits, not with uniform
    # and randint; the reference keeps those helpers. Ranges at the edges of
    # what GeneratorParams accepts must give the same values and leave the
    # stream where the helpers leave it.
    @pytest.mark.parametrize("ranges", [
        {"resource_range": (0, 0)},
        {"resource_range": (1, 1)},
        {"resource_range": (2, 1000)},
        {"loss_range": (0.25, 0.25), "fidelity_range": (1, 1)},
        {"swap_range": (0.9, 0.2), "throughput_range": (10, 1)},
        {"throughput_range": (0.0, 1e6)},
    ], ids=["res-0-0", "res-1-1", "res-2-1000", "lo-eq-hi", "lo-gt-hi", "thr-0-1e6"])
    @pytest.mark.parametrize("num_nodes, num_links", [(2, 1), (12, 40), (120, 480)])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_generate_network_matches_reference_at_range_edges(
        self, ranges, num_nodes, num_links, seed
    ):
        params = GeneratorParams(num_nodes=num_nodes, num_links=num_links, **ranges)
        net, ref = generate_network(params, seed), reference_generate_network(params, seed)
        assert net == ref
        assert repr(net.links) == repr(ref.links)  # 1 == 1.0, but not in repr

    @pytest.mark.parametrize("num_nodes, levels", [(2, (1,)), (10, (1, 2)), (40, (3, 1, 2))])
    def test_too_many_links_message_is_unchanged(self, num_nodes, levels):
        # GeneratorParams refuses the count, with its field name before the
        # reference generator's message; every slot filled is accepted.
        slots = num_nodes * (num_nodes - 1) // 2 * len(levels)
        params = GeneratorParams(num_nodes=num_nodes, num_links=slots, levels=levels)
        object.__setattr__(params, "num_links", slots + 1)  # past the check
        with pytest.raises(ConfigError) as expected:
            reference_generate_network(params, 0)
        with pytest.raises(ConfigError) as got:
            GeneratorParams(num_nodes=num_nodes, num_links=slots + 1, levels=levels)
        assert str(got.value) == f"num_links: {expected.value}"
        assert f"only {slots} distinct" in str(got.value)

    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "b", 2)
        assert derive_seed(1, "a") != derive_seed(2, "a")
