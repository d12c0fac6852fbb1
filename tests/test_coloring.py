import itertools
import random

import pytest

from etopo import (
    ColoringStatus,
    Coloring,
    Demand,
    EntangledLink,
    InterferenceSet,
    ResourceSet,
    ThresholdPolicy,
    adapt,
    build_conflict_graph,
    color_graph,
    is_proper,
    make_conflict_graph,
    make_network,
    map_overlay,
    reduction_from_coloring,
    solve_exact,
)
from etopo.assignment import AssignmentInstance
from etopo.coloring import EXACT_COLORING_CAP
from util import brute_force_colorable, oracle_solve, reference_color_graph


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
        assert graph.k_star == 0

    def test_single_pair(self):
        inst = interference_instance(
            [InterferenceSet(link=0, state=0, competing=((0, 0), (1, 1)))]
        )
        graph = build_conflict_graph(inst)
        assert graph.vertices == {0, 1}
        assert graph.edges == {(0, 1)}
        assert graph.k_star == 2

    def test_three_way_set_is_a_triangle(self):
        inst = interference_instance(
            [InterferenceSet(link=0, state=0, competing=((0, 0), (1, 1), (2, 2)))]
        )
        graph = build_conflict_graph(inst)
        assert graph.edges == {(0, 1), (0, 2), (1, 2)}
        assert graph.k_star == 3

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


class TestColorGraph:
    def triangle(self):
        return make_conflict_graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])

    def test_triangle_needs_three_colors(self):
        graph = self.triangle()
        assert color_graph(graph, 2).status is ColoringStatus.INFEASIBLE
        result = color_graph(graph, 3)
        assert result.status is ColoringStatus.COLORED
        assert is_proper(graph, result.coloring)

    def test_odd_cycle_needs_three(self):
        cycle = make_conflict_graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
        assert color_graph(cycle, 2).status is ColoringStatus.INFEASIBLE
        result = color_graph(cycle, 3)
        assert result.status is ColoringStatus.COLORED
        assert is_proper(cycle, result.coloring)

    def test_empty_graph(self):
        graph = make_conflict_graph([], [])
        assert color_graph(graph, 0).status is ColoringStatus.COLORED

    def test_edgeless_needs_one_color(self):
        graph = make_conflict_graph(range(4), [])
        assert color_graph(graph, 0).status is ColoringStatus.INFEASIBLE
        result = color_graph(graph, 1)
        assert result.status is ColoringStatus.COLORED

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 7)
            pairs = list(itertools.combinations(range(n), 2))
            edges = [e for e in pairs if rng.random() < 0.5]
            graph = make_conflict_graph(range(n), edges)
            for colors in range(0, 4):
                expected = brute_force_colorable(range(n), edges, colors)
                result = color_graph(graph, colors)
                assert (result.status is ColoringStatus.COLORED) == expected
                if expected:
                    assert is_proper(graph, result.coloring)

    def test_greedy_mode_beyond_cap(self):
        # 25 isolated vertices exceed the exact cap but color trivially
        graph = make_conflict_graph(range(25), [])
        result = color_graph(graph, 1)
        assert result.status is ColoringStatus.COLORED
        # a 25-clique defeats the greedy pass with too few colors
        clique = make_conflict_graph(
            range(25), itertools.combinations(range(25), 2)
        )
        assert color_graph(clique, 3).status is ColoringStatus.UNKNOWN_INFEASIBLE


    # Vertex counts on both sides of the exact cap, ids spread out so a
    # vertex's rank is not its id, edge densities from empty to complete.
    @pytest.mark.parametrize("n", [0, 1, 5, EXACT_COLORING_CAP, EXACT_COLORING_CAP + 1, 60])
    @pytest.mark.parametrize("density", [0.0, 0.15, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference(self, n, density, seed):
        rng = random.Random(seed * 1000 + n)
        vertices = rng.sample(range(10 * n + 1), n)
        edges = [e for e in itertools.combinations(vertices, 2) if rng.random() < density]
        graph = make_conflict_graph(vertices, edges)
        for colors in range(0, 6):
            assert color_graph(graph, colors) == reference_color_graph(graph, colors)


class TestIsProper:
    def test_missing_vertex(self):
        graph = make_conflict_graph([0, 1], [(0, 1)])
        assert not is_proper(graph, Coloring({0: 0}))

    def test_conflicting_colors(self):
        graph = make_conflict_graph([0, 1], [(0, 1)])
        assert not is_proper(graph, Coloring({0: 0, 1: 0}))
        assert is_proper(graph, Coloring({0: 0, 1: 1}))


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
        assert is_proper(graph, Coloring(color))

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
