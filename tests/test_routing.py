import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import etopo.assignment
from etopo import (
    AssignmentInstance,
    EntangledLink,
    NotFoundError,
    ResourceSet,
    RouteStatus,
    RoutingOutcome,
    ThresholdPolicy,
    TooLargeError,
    adapt,
    kleinberg_lattice,
    make_network,
    map_overlay,
    route,
    shortest_path_oracle,
)
from etopo.assignment import enumerate_simple_paths
from etopo.routing import Plan
from util import (
    random_embedded,
    random_overlay,
    reference_oracle,
    reference_plan_route,
    reference_route,
    reference_simple_paths,
)


def line_setup(length=6):
    links = [EntangledLink(id=i, a=i, b=i + 1) for i in range(length - 1)]
    net = make_network(range(length), links)
    graph = map_overlay(net, k=1, n=length,
                        placement={i: (i,) for i in range(length)})
    adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
    return net, graph, adapted


def cycle_setup(length=4):
    links = [EntangledLink(id=i, a=i, b=(i + 1) % length) for i in range(length)]
    net = make_network(range(length), links)
    graph = map_overlay(net, k=2, n=2,
                        placement={0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)})
    adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
    return net, graph, adapted


class TestRoute:
    def test_source_equals_target(self):
        _, graph, adapted = line_setup()
        out = route(graph, adapted, 2, 2)
        assert out.found and out.diameter == 0 and out.steps_taken == 0

    def test_line_end_to_end(self):
        _, graph, adapted = line_setup()
        out = route(graph, adapted, 0, 5)
        oracle = shortest_path_oracle(graph, adapted, 0, 5)
        assert out.found and out.diameter == 5 == oracle.diameter
        assert out.path.nodes == (0, 1, 2, 3, 4, 5)

    def test_unreachable_across_components(self):
        links = [EntangledLink(id=0, a=0, b=1), EntangledLink(id=1, a=2, b=3)]
        net = make_network(range(4), links)
        graph = map_overlay(net, k=2, n=2, seed=0)
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        assert route(graph, adapted, 0, 3).status is RouteStatus.UNREACHABLE

    def test_unmapped_node(self):
        _, graph, adapted = line_setup()
        with pytest.raises(NotFoundError):
            route(graph, adapted, 0, 99)

    def test_deterministic(self):
        rng = random.Random(2)
        _, graph, adapted = random_embedded(rng, num_nodes=10, num_links=16)
        nodes = sorted(graph.placement)
        a, b = nodes[0], nodes[-1]
        assert route(graph, adapted, a, b) == route(graph, adapted, a, b)


def placed_line(cells, pairs):
    """Links pairs[i] with id i, each node at its cell of a 1-d lattice."""
    links = [EntangledLink(id=i, a=a, b=b) for i, (a, b) in enumerate(pairs)]
    net = make_network(range(len(cells)), links)
    graph = map_overlay(net, k=1, n=12,
                        placement={v: (cell,) for v, cell in enumerate(cells)})
    return graph, adapt(graph, net, ThresholdPolicy(default=0.0))


def plan_of(nodes, walked):
    return Plan({v: i for i, v in enumerate(nodes)}, frozenset(walked))


class TestPlan:
    def test_stops_on_pushing_a_walked_node(self):
        # Plan 0-1-2-3 with 0 and 1 walked. From 4 the walk steps onto 1,
        # whose plan rest 2-3 is unvisited, so the path must cross 1.
        graph, adapted = placed_line([0, 5, 7, 9, 3], [(0, 1), (1, 2), (2, 3), (1, 4)])
        out = route(graph, adapted, 4, 3, plan=plan_of([0, 1, 2, 3], {0, 1}))
        assert out == RoutingOutcome(RouteStatus.BLOCKED, None, 1)
        full = route(graph, adapted, 4, 3)
        assert full.found and full.path.nodes == (4, 1, 2, 3)

    def test_stops_when_a_walked_node_lies_under_a_later_plan_node(self):
        # Plan 0-1-2-3-4 with 0 and 1 walked, routed from plan node 2. The
        # walk steps onto 0 (not final: plan node 2 is visited), then 5,
        # then plan node 3, after which 0 cannot leave the stack.
        graph, adapted = placed_line(
            [10, 2, 0, 7, 11, 9],
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 0), (0, 5), (5, 3)],
        )
        out = route(graph, adapted, 2, 4, plan=plan_of([0, 1, 2, 3, 4], {0, 1}))
        assert out == RoutingOutcome(RouteStatus.BLOCKED, None, 3)
        full = route(graph, adapted, 2, 4)
        assert full.found and full.path.nodes == (2, 0, 5, 3, 4)

    def test_walked_node_after_a_visited_plan_node_runs_to_the_end(self):
        # Plan 0-1-2-3 with 0 walked, routed from plan node 1. The walk
        # steps onto 0 first, but 1 was visited before it, so 0 may yet be
        # popped: it is a dead end, and the path found avoids it.
        graph, adapted = placed_line([8, 0, 5, 9], [(0, 1), (1, 2), (2, 3)])
        out = route(graph, adapted, 1, 3, plan=plan_of([0, 1, 2, 3], {0}))
        assert out == route(graph, adapted, 1, 3)
        assert out.found and out.path.nodes == (1, 2, 3) and out.steps_taken == 4


class TestOracle:
    def test_single_link(self):
        _, graph, adapted = line_setup(2)
        assert shortest_path_oracle(graph, adapted, 0, 1).diameter == 1

    def test_cycle_opposite_corners(self):
        _, graph, adapted = cycle_setup()
        assert shortest_path_oracle(graph, adapted, 0, 2).diameter == 2


class TestProperties:
    def test_route_against_oracle_random(self):
        rng = random.Random(99)
        for _ in range(60):
            net, graph, adapted = random_embedded(
                rng, num_nodes=rng.randint(5, 12), num_links=rng.randint(4, 20),
                threshold=rng.choice([0.0, 0.3, 0.6]),
            )
            nodes = sorted(graph.placement)
            source, target = rng.sample(nodes, 2)
            got = route(graph, adapted, source, target)
            oracle = shortest_path_oracle(graph, adapted, source, target)
            assert got.status == oracle.status
            if got.found:
                assert got.diameter >= oracle.diameter
                # path validity: simple, over adapted links only, correct hops
                assert len(set(got.path.nodes)) == len(got.path.nodes)
                assert got.path.nodes[0] == source
                assert got.path.nodes[-1] == target
                for (u, v), lid in zip(
                    zip(got.path.nodes, got.path.nodes[1:]), got.path.links
                ):
                    assert lid in adapted.links
                    link = net.link_by_id(lid)
                    assert {link.a, link.b} == {u, v}


def _path_instance(network, graph, adapted, resource_sets=None):
    return AssignmentInstance(network=network, graph=graph, adapted=adapted,
                              demands=(), resource_sets=resource_sets or {})


def _stated_paths(rng, k, threshold):
    """A small random instance whose links store 0-3 states, some of them
    with no resource set at all, a source and target on it, and the
    reference's paths between them over links that hold states, sorted,
    with each path's option count."""
    side = {1: 40, 2: 8, 3: 4}[k]
    net, graph, adapted = random_embedded(
        rng, num_nodes=rng.randint(3, 7), num_links=rng.randint(2, 12),
        k=k, n=side, threshold=threshold,
    )
    resource_sets = {
        link.id: ResourceSet(link=link.id, states=tuple(range(rng.randint(0, 3))))
        for link in net.links if rng.random() < 0.8
    }
    source, target = rng.sample(sorted(graph.placement), 2)
    stored = {lid: len(rs.states) for lid, rs in resource_sets.items()}
    paths = sorted(
        (links, math.prod(stored[lid] for lid in links))
        for _, links in reference_simple_paths(graph, adapted, source, target)
        if all(stored.get(lid) for lid in links)
    )
    return _path_instance(net, graph, adapted, resource_sets), source, target, paths


class TestAdaptedAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]),
           threshold=st.sampled_from([0.0, 0.2, 0.4, 0.6]))
    def test_walks_match_reference(self, seed, k, threshold):
        rng = random.Random(seed)
        side = {1: 40, 2: 8, 3: 4}[k]
        net, graph, adapted = random_embedded(
            rng, num_nodes=rng.randint(3, 20), num_links=rng.randint(2, 40),
            k=k, n=side, threshold=threshold,
        )
        nodes = sorted(graph.placement)
        for _ in range(5):
            source, target = rng.choice(nodes), rng.choice(nodes)
            assert route(graph, adapted, source, target) == reference_route(
                graph, adapted, source, target)
            assert shortest_path_oracle(graph, adapted, source, target) == (
                reference_oracle(graph, adapted, source, target))
        instance, source, target, paths = _stated_paths(rng, k, threshold)
        assert sorted(enumerate_simple_paths(instance, source, target)) == [
            links for links, _ in paths]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]),
           threshold=st.sampled_from([0.0, 0.2, 0.4]), cap=st.integers(0, 30))
    def test_walk_raises_exactly_above_the_option_cap(self, seed, k, threshold, cap):
        # Each path gives the product of its links' state counts in options;
        # the walk raises exactly when all paths together give more than
        # OPTION_CAP, and otherwise lists them all.
        instance, source, target, paths = _stated_paths(random.Random(seed), k, threshold)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(etopo.assignment, "OPTION_CAP", cap)
            if sum(options for _, options in paths) > cap:
                with pytest.raises(TooLargeError, match=f"more than {cap} options serve "
                                                        f"node {source} to node {target}"):
                    enumerate_simple_paths(instance, source, target)
            else:
                assert sorted(enumerate_simple_paths(instance, source, target)) == [
                    links for links, _ in paths]

    def test_foreign_graph_is_rejected(self):
        net, graph, adapted = line_setup()
        moved = map_overlay(net, k=1, n=6,
                            placement={i: (5 - i,) for i in range(6)})
        with pytest.raises(ValueError):
            route(moved, adapted, 0, 5)
        with pytest.raises(ValueError):
            shortest_path_oracle(moved, adapted, 0, 5)
        with pytest.raises(ValueError):
            enumerate_simple_paths(_path_instance(net, moved, adapted), 0, 5)

    @pytest.mark.parametrize("source, target", [(0, 99), (99, 0), (99, 99)])
    def test_unmapped_endpoint(self, source, target):
        _, graph, adapted = line_setup()
        with pytest.raises(NotFoundError):
            route(graph, adapted, source, target)
        with pytest.raises(NotFoundError):
            shortest_path_oracle(graph, adapted, source, target)

    @pytest.mark.parametrize("seed", [0, 3, 2024])
    def test_kleinberg_lattice_matches_reference(self, seed):
        # The real planar shape: grid links, long links and distance ties.
        net, graph = kleinberg_lattice(64, seed)
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        rng = random.Random(seed)
        for _ in range(300):
            source, target = rng.sample(range(64 * 64), 2)
            assert route(graph, adapted, source, target) == reference_route(
                graph, adapted, source, target)

    def test_pruned_lattice_matches_reference(self):
        # Every fifth link is weakened below the threshold, so adapt filters
        # most rows and shares the rest with the graph.
        net, _ = kleinberg_lattice(64, 5)
        weak = [dataclasses.replace(l, swap_success=0.5) if l.id % 5 == 0 else l
                for l in net.links]
        net = make_network(net.nodes, weak)
        graph = map_overlay(net, k=2, n=64,
                            placement={u: divmod(u, 64) for u in net.nodes})
        adapted = adapt(graph, net, ThresholdPolicy(default=0.75))
        shared = [adapted.adjacency[u] is row for u, row in graph.contacts.items()]
        assert any(shared) and not all(shared)
        rng = random.Random(5)
        found = 0
        for _ in range(120):
            source, target = rng.sample(range(64 * 64), 2)
            outcome = route(graph, adapted, source, target)
            assert outcome == reference_route(graph, adapted, source, target)
            oracle = shortest_path_oracle(graph, adapted, source, target)
            assert oracle.diameter == reference_oracle(
                graph, adapted, source, target).diameter
            assert oracle.found == outcome.found
            found += outcome.found
        assert found > 0

    @pytest.mark.parametrize("k, side", [(1, 40), (3, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_embedding_matches_reference(self, k, side, seed):
        rng = random.Random(seed)
        _, graph, adapted = random_embedded(
            rng, num_nodes=20, num_links=40, k=k, n=side, threshold=0.3)
        nodes = sorted(graph.placement)
        for source in nodes:
            for target in nodes:
                assert route(graph, adapted, source, target) == reference_route(
                    graph, adapted, source, target)
                assert shortest_path_oracle(graph, adapted, source, target).diameter == (
                    reference_oracle(graph, adapted, source, target).diameter)

    @staticmethod
    def assert_unmapped_neighbor_raises(k):
        # make_network does not check endpoints, so a contact can name a
        # node the placement never saw.
        links = [EntangledLink(id=0, a=0, b=1), EntangledLink(id=1, a=0, b=5)]
        net = make_network(range(2), links)
        graph = map_overlay(net, k=k, n=2, placement={0: (0,) * k, 1: (1,) * k})
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        with pytest.raises(NotFoundError):
            reference_route(graph, adapted, 0, 1)
        with pytest.raises(NotFoundError) as expected:
            reference_plan_route(graph, adapted, 0, 1)
        with pytest.raises(NotFoundError) as got:
            route(graph, adapted, 0, 1)
        assert str(got.value) == str(expected.value) == (
            "node 5 is not mapped in the base-graph")

    def test_unmapped_neighbor(self):
        self.assert_unmapped_neighbor_raises(1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_unmapped_neighbor_in_higher_dimensions(self, k):
        self.assert_unmapped_neighbor_raises(k)


def random_plan(rng, graph, adapted, target):
    """A Plan along the oracle's path to target from a random node, with a
    random half of its nodes walked; a lone target when none reaches it."""
    start = rng.choice(sorted(graph.placement))
    path = reference_oracle(graph, adapted, start, target).path
    nodes = path.nodes if path is not None else (target,)
    return plan_of(nodes, [v for v in nodes if rng.random() < 0.5])


class TestPlanRouteReference:
    """route reads a contact's cell first and the rest only of the contact it
    keeps; outcomes, with and without a plan, are those of the walk that
    read each contact whole."""

    @staticmethod
    def assert_matches(rng, graph, adapted, nodes, queries, seen):
        for _ in range(queries):
            source, target = rng.choice(nodes), rng.choice(nodes)
            for plan in (None, random_plan(rng, graph, adapted, target)):
                got = route(graph, adapted, source, target, plan=plan)
                assert got == reference_plan_route(
                    graph, adapted, source, target, plan=plan)
                seen[got.status] += 1

    @pytest.mark.parametrize("k, side", [(1, 40), (2, 8), (3, 4)])
    def test_random_embedding(self, k, side):
        rng = random.Random(k)
        seen = Counter()
        for _ in range(40):
            _, graph, adapted = random_embedded(
                rng, num_nodes=rng.randint(3, 20), num_links=rng.randint(2, 40),
                k=k, n=side, threshold=rng.choice([0.0, 0.3, 0.6]))
            self.assert_matches(rng, graph, adapted, sorted(graph.placement), 10, seen)
        assert seen.keys() == set(RouteStatus)

    def test_pruned_lattice(self):
        # Every other link is weakened below the threshold, enough to cut
        # some nodes off.
        net, _ = kleinberg_lattice(32, 7)
        weak = [dataclasses.replace(l, swap_success=0.5) if l.id % 2 == 0 else l
                for l in net.links]
        net = make_network(net.nodes, weak)
        graph = map_overlay(net, k=2, n=32,
                            placement={u: divmod(u, 32) for u in net.nodes})
        adapted = adapt(graph, net, ThresholdPolicy(default=0.75))
        seen = Counter()
        self.assert_matches(random.Random(7), graph, adapted, sorted(net.nodes), 150, seen)
        assert seen.keys() == set(RouteStatus)


class TestRouteAtTheEdges:
    """route against reference_plan_route, with and without a plan, on the
    smallest lattices, where every cell or nearly every one lies on a
    border, and on planar lattices with their corners placed first, from
    fewer placed nodes than n to every cell placed."""

    @staticmethod
    def assert_all_pairs_match(rng, graph, adapted, seen):
        nodes = sorted(graph.placement)
        for source in nodes:
            for target in nodes:
                for plan in (None, random_plan(rng, graph, adapted, target)):
                    got = route(graph, adapted, source, target, plan=plan)
                    assert got == reference_plan_route(
                        graph, adapted, source, target, plan=plan)
                    seen[got.status] += 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("side", [2, 3])
    def test_smallest_lattices(self, k, side):
        rng = random.Random(10 * k + side)
        seen = Counter()
        for _ in range(25):
            num_nodes = rng.randint(2, side**k)
            _, graph, adapted = random_embedded(
                rng, num_nodes=num_nodes, num_links=rng.randint(1, 2 * num_nodes),
                k=k, n=side, threshold=rng.choice([0.0, 0.3, 0.6]))
            self.assert_all_pairs_match(rng, graph, adapted, seen)
        assert seen[RouteStatus.FOUND] and seen[RouteStatus.UNREACHABLE]

    @pytest.mark.parametrize("side", [3, 5, 9])
    def test_corner_and_border_targets(self, side):
        # The corners are placed first, so targets sit on corners and on
        # borders, on graphs with fewer placed nodes than n and more.
        rng = random.Random(side)
        corners = [(0, 0), (0, side - 1), (side - 1, 0), (side - 1, side - 1)]
        inner = [(x, y) for x in range(side) for y in range(side) if (x, y) not in corners]
        seen = Counter()
        for num_nodes in [side - 1, side, side + 1] * 6 + [side * side] * 2:
            cells = (corners + rng.sample(inner, len(inner)))[:num_nodes]
            rng.shuffle(cells)
            network = random_overlay(rng, num_nodes, rng.randint(1, 3 * num_nodes))
            graph = map_overlay(network, k=2, n=side, placement=dict(enumerate(cells)))
            adapted = adapt(graph, network,
                            ThresholdPolicy(default=rng.choice([0.0, 0.3, 0.6])))
            self.assert_all_pairs_match(rng, graph, adapted, seen)
        assert seen[RouteStatus.FOUND] and seen[RouteStatus.UNREACHABLE]
