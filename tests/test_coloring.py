import itertools
import random

import pytest

from etopo import (
    Demand,
    EntangledLink,
    InterferenceSet,
    ResourceSet,
    ThresholdPolicy,
    adapt,
    build_conflict_graph,
    make_conflict_graph,
    make_network,
    map_overlay,
    TooLargeError,
    reduction_from_coloring,
    solve_exact,
)
from etopo.assignment import BNB_VARIABLE_CAP
from etopo.assignment import AssignmentInstance
from util import brute_force_colorable, is_proper_coloring, oracle_solve


def interference_instance(isets):
    """Minimal instance carrying the given interference sets on one link."""
    users = sorted({q for s in isets for _, q in s.competing})
    max_state = max((s.state for s in isets), default=0)
    link = EntangledLink(id=0, a=0, b=1, throughput=99.0,
                         resource_count=max_state + 1)
    net = make_network([0, 1], [link])
    graph = map_overlay(net, k=1, n=2, placement={0: (0,), 1: (1,)})
    adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
    n_users = (max(users) + 1) if users else 0
    demands = tuple(Demand(user=u, source=0, target=1, rate=0.0)
                    for u in range(n_users))
    return AssignmentInstance(
        network=net, graph=graph, adapted=adapted, demands=demands,
        resource_sets={0: ResourceSet(link=0, states=tuple(range(max_state + 1)))},
        interference=tuple(isets),
    )


class TestBuildConflictGraph:
    def test_no_interference_is_empty(self):
        inst = interference_instance([])
        graph = build_conflict_graph(inst)
        assert graph.vertices == frozenset()
        assert graph.edges == frozenset()

    def test_single_pair(self):
        inst = interference_instance(
            [InterferenceSet(link=0, state=0, competing=((0, 0), (1, 1)))]
        )
        graph = build_conflict_graph(inst)
        assert graph.vertices == {0, 1}
        assert graph.edges == {(0, 1)}

    def test_three_way_set_is_a_triangle(self):
        inst = interference_instance(
            [InterferenceSet(link=0, state=0, competing=((0, 0), (1, 1), (2, 2)))]
        )
        graph = build_conflict_graph(inst)
        assert graph.edges == {(0, 1), (0, 2), (1, 2)}

    def test_overlapping_sets_merge(self):
        inst = interference_instance([
            InterferenceSet(link=0, state=0, competing=((0, 0), (1, 1))),
            InterferenceSet(link=0, state=1, competing=((1, 1), (2, 2))),
        ])
        graph = build_conflict_graph(inst)
        assert graph.vertices == {0, 1, 2}
        assert graph.edges == {(0, 1), (1, 2)}


    def test_reduction_round_trip(self):
        # The reduction numbers demands by sorted vertex, which on range(n)
        # is the vertex itself: its conflict graph is the graph's edges
        # and the vertices they touch.
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 8)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
            graph = make_conflict_graph(range(n), edges)
            for colors in range(1, 4):
                back = build_conflict_graph(reduction_from_coloring(graph, colors))
                assert back.edges == graph.edges
                assert back.vertices == {v for e in graph.edges for v in e}


class TestMakeConflictGraph:
    def test_edge_normalization(self):
        graph = make_conflict_graph([0, 1], [(1, 0)])
        assert graph.edges == {(0, 1)}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_conflict_graph([0], [(0, 0)])

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValueError):
            make_conflict_graph([0, 1], [(0, 2)])


class TestReduction:
    def test_triangle_equivalence(self):
        graph = make_conflict_graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
        assert not solve_exact(reduction_from_coloring(graph, 2)).feasible
        assert solve_exact(reduction_from_coloring(graph, 3)).feasible

    def test_feasible_solution_is_a_proper_coloring(self):
        graph = make_conflict_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        result = solve_exact(reduction_from_coloring(graph, 2))
        assert result.feasible
        color = {user: state for user, _, state in result.solution.C}
        assert is_proper_coloring(graph, color)

    def test_random_equivalence(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 5)
            pairs = list(itertools.combinations(range(n), 2))
            edges = [e for e in pairs if rng.random() < 0.5]
            graph = make_conflict_graph(range(n), edges)
            for colors in range(1, 4):
                expected = brute_force_colorable(range(n), edges, colors)
                inst = reduction_from_coloring(graph, colors)
                result = solve_exact(inst)
                assert result.feasible == expected
                feasible, cost, best_C = oracle_solve(inst)
                assert feasible == expected
                if feasible:
                    assert result.objective == cost
                    assert result.solution.C == best_C


def colorable(graph, colors):
    """Whether graph is colors-colorable, decided through the reduction:
    the way to answer the question without a coloring solver."""
    result = solve_exact(reduction_from_coloring(graph, colors))
    if result.feasible:
        color = {user: state for user, _, state in result.solution.C}
        vertex = dict(enumerate(sorted(graph.vertices)))
        assert is_proper_coloring(graph, {vertex[q]: c for q, c in color.items()})
        assert set(color.values()) <= set(range(colors))
    return result.feasible


class TestColorability:
    def triangle(self):
        return make_conflict_graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])

    def test_triangle_needs_three_colors(self):
        graph = self.triangle()
        assert not colorable(graph, 2)
        assert colorable(graph, 3)

    def test_odd_cycle_needs_three(self):
        cycle = make_conflict_graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
        assert not colorable(cycle, 2)
        assert colorable(cycle, 3)

    def test_empty_graph(self):
        graph = make_conflict_graph([], [])
        assert colorable(graph, 1)
        with pytest.raises(ValueError):
            reduction_from_coloring(graph, 0)

    def test_edgeless_needs_one_color(self):
        graph = make_conflict_graph(range(4), [])
        with pytest.raises(ValueError):
            reduction_from_coloring(graph, 0)
        assert colorable(graph, 1)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 7)
            pairs = list(itertools.combinations(range(n), 2))
            edges = [e for e in pairs if rng.random() < 0.5]
            graph = make_conflict_graph(range(n), edges)
            for colors in range(1, 4):
                assert colorable(graph, colors) == brute_force_colorable(range(n), edges, colors)

    def test_too_large_beyond_cap(self):
        # one binary variable per (vertex, color): 25 vertices with 2 colors
        # exceed the exact solver's cap, however easy the graph
        graph = make_conflict_graph(range(25), [])
        instance = reduction_from_coloring(graph, 2)
        assert instance.n_variables() == 50 > BNB_VARIABLE_CAP
        with pytest.raises(TooLargeError):
            solve_exact(instance)

    # Vertex counts up to the largest that fits the exact cap with 5
    # colors, ids spread out so a vertex's rank is not its id, edge
    # densities from empty to complete.
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 7, BNB_VARIABLE_CAP // 5])
    @pytest.mark.parametrize("density", [0.0, 0.15, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, n, density, seed):
        rng = random.Random(seed * 1000 + n)
        vertices = rng.sample(range(10 * n + 1), n)
        edges = [e for e in itertools.combinations(vertices, 2) if rng.random() < density]
        graph = make_conflict_graph(vertices, edges)
        for colors in range(1, 6):
            assert colorable(graph, colors) == brute_force_colorable(vertices, edges, colors)
