import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from etopo import (
    AssignmentInstance,
    EntangledLink,
    NotFoundError,
    RouteStatus,
    ThresholdPolicy,
    adapt,
    kleinberg_lattice,
    make_network,
    map_overlay,
    route,
    shortest_path_oracle,
)
from etopo.assignment import enumerate_simple_paths
from util import (
    random_embedded,
    reference_oracle,
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


def _path_instance(network, graph, adapted):
    return AssignmentInstance(network=network, graph=graph, adapted=adapted,
                              demands=(), resource_sets={})


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
        small, small_graph, small_adapted = random_embedded(
            rng, num_nodes=rng.randint(3, 7), num_links=rng.randint(2, 12),
            k=k, n=side, threshold=threshold,
        )
        source, target = rng.sample(sorted(small_graph.placement), 2)
        instance = _path_instance(small, small_graph, small_adapted)
        paths = reference_simple_paths(small_graph, small_adapted, source, target)
        assert enumerate_simple_paths(instance, source, target) == paths
        only = {lid for lid in sorted(small_adapted.links) if rng.random() < 0.5}
        assert enumerate_simple_paths(instance, source, target, only) == [
            path for path in paths if only.issuperset(path[1])]

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
        with pytest.raises(NotFoundError):
            route(graph, adapted, 0, 1)

    def test_unmapped_neighbor(self):
        self.assert_unmapped_neighbor_raises(1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_unmapped_neighbor_in_higher_dimensions(self, k):
        self.assert_unmapped_neighbor_raises(k)
