import dataclasses
import itertools
import random

import pytest

import etopo.assignment
from etopo import (
    AssignmentInstance,
    AssignmentSolution,
    Demand,
    EntangledLink,
    InterferenceSet,
    NotFoundError,
    ResourceSet,
    RouteStatus,
    SolveStatus,
    ThresholdPolicy,
    TooLargeError,
    adapt,
    check_capacity,
    check_interference,
    flow_imbalance,
    make_network,
    map_overlay,
    objective,
    route,
    solve_exact,
    solve_greedy,
    validate_instance,
)
from etopo.assignment import BNB_VARIABLE_CAP
from util import (
    feasible_pool,
    greedy_scenario_payload,
    oracle_solve,
    parallel_chain,
    random_instance,
    reference_flow_imbalance,
    reference_solve_greedy,
    trial_instances,
)


def build_instance(links, demands, resource_sets=None, interference=(),
                   n=8, k=1, placement=None):
    nodes = sorted({e for l in links for e in (l.a, l.b)})
    net = make_network(nodes, links)
    if placement is None:
        placement = {v: (i,) for i, v in enumerate(nodes)}
    graph = map_overlay(net, k=k, n=n, placement=placement)
    adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
    if resource_sets is None:
        resource_sets = {
            l.id: ResourceSet(link=l.id, states=tuple(range(l.resource_count)))
            for l in links
        }
    return AssignmentInstance(
        network=net, graph=graph, adapted=adapted,
        demands=tuple(demands), resource_sets=resource_sets,
        interference=tuple(interference),
    )


def two_hop_instance(rate=1.0, throughput=5.0):
    links = [
        EntangledLink(id=0, a=0, b=1, swap_success=0.75, throughput=throughput),
        EntangledLink(id=1, a=1, b=2, swap_success=0.5, throughput=throughput),
    ]
    return build_instance(links, [Demand(user=0, source=0, target=2, rate=rate)])


class CountingRows(dict):
    """An adjacency index that counts the rows read from it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def with_counted_rows(inst):
    """The instance over a copy of its adjacency that counts row reads,
    and that copy."""
    rows = CountingRows(inst.adapted.adjacency)
    adapted = dataclasses.replace(inst.adapted, adjacency=rows)
    return dataclasses.replace(inst, adapted=adapted), rows


@pytest.mark.parametrize("qid", [-1, -2, 1, 5])
def test_demand_id_outside_the_instance_is_not_found(qid):
    # A negative id names no demand; it does not count from the end.
    inst = two_hop_instance()
    assert inst.demand(0) is inst.demands[0]
    with pytest.raises(NotFoundError, match=f"no demand with id {qid}"):
        inst.demand(qid)


class TestObjective:
    def test_empty_solution(self):
        inst = two_hop_instance()
        assert objective(inst, AssignmentSolution(frozenset())) == 0.0

    def test_single_assignment(self):
        links = [EntangledLink(id=0, a=0, b=1, swap_success=0.75, throughput=5.0)]
        inst = build_instance(links, [Demand(user=0, source=0, target=1, rate=1.0)])
        sol = AssignmentSolution(frozenset({(0, 0, 0)}))
        assert objective(inst, sol) == pytest.approx(0.25)

    def test_two_users_two_links(self):
        links = [
            EntangledLink(id=0, a=0, b=1, throughput=5.0),                    # p = 1.0
            EntangledLink(id=1, a=2, b=3, swap_success=0.875, throughput=5.0),
        ]
        inst = build_instance(links, [
            Demand(user=0, source=0, target=1, rate=1.0),
            Demand(user=1, source=2, target=3, rate=1.0),
        ])
        sol = AssignmentSolution(frozenset({(0, 0, 0), (1, 1, 0)}))
        assert objective(inst, sol) == pytest.approx(0.125)

    def test_linear_in_disjoint_union(self):
        links = [
            EntangledLink(id=0, a=0, b=1, swap_success=0.75, throughput=5.0),
            EntangledLink(id=1, a=2, b=3, swap_success=0.5, throughput=5.0),
        ]
        inst = build_instance(links, [
            Demand(user=0, source=0, target=1, rate=1.0),
            Demand(user=1, source=2, target=3, rate=1.0),
        ])
        a = AssignmentSolution(frozenset({(0, 0, 0)}))
        b = AssignmentSolution(frozenset({(1, 1, 0)}))
        both = AssignmentSolution(a.C | b.C)
        assert objective(inst, both) == objective(inst, a) + objective(inst, b)

    def test_user_without_demand_is_not_found(self):
        inst = two_hop_instance()
        with pytest.raises(NotFoundError, match="no demand for user 5"):
            objective(inst, AssignmentSolution(frozenset({(0, 0, 0), (5, 1, 0)})))


class TestCapacity:
    def test_within_capacity(self):
        links = [EntangledLink(id=0, a=0, b=1, throughput=5.0)]
        inst = build_instance(links, [Demand(user=0, source=0, target=1, rate=2.0)])
        sol = AssignmentSolution(frozenset({(0, 0, 0)}))
        assert check_capacity(inst, sol) == []

    def test_aggregate_rate_violation(self):
        links = [EntangledLink(id=0, a=0, b=1, throughput=5.0, resource_count=2)]
        inst = build_instance(links, [
            Demand(user=0, source=0, target=1, rate=3.0),
            Demand(user=1, source=0, target=1, rate=3.0),
        ])
        sol = AssignmentSolution(frozenset({(0, 0, 0), (1, 0, 1)}))
        violations = check_capacity(inst, sol)
        assert len(violations) == 1
        assert violations[0].subject == 0
        assert "6.0" in violations[0].message and "5.0" in violations[0].message

    def test_empty_is_ok(self):
        inst = two_hop_instance()
        assert check_capacity(inst, AssignmentSolution(frozenset())) == []

    def test_user_without_demand_is_not_found(self):
        inst = two_hop_instance()
        with pytest.raises(NotFoundError, match="no demand for user 5"):
            check_capacity(inst, AssignmentSolution(frozenset({(5, 0, 0)})))


class TestFlowImbalance:
    def test_source_target_intermediate_pattern(self):
        inst = two_hop_instance()
        result = solve_exact(inst)
        assert result.feasible
        assert flow_imbalance(inst, result.solution, 0, 0) == 1
        assert flow_imbalance(inst, result.solution, 2, 0) == -1
        assert flow_imbalance(inst, result.solution, 1, 0) == 0

    def test_node_off_path_is_balanced(self):
        links = [
            EntangledLink(id=0, a=0, b=1, throughput=5.0),
            EntangledLink(id=1, a=2, b=3, throughput=5.0),
        ]
        inst = build_instance(links, [Demand(user=0, source=0, target=1, rate=1.0)])
        result = solve_exact(inst)
        assert flow_imbalance(inst, result.solution, 2, 0) == 0

    @staticmethod
    def assert_matches_reference(inst, solution):
        for demand in inst.demands:
            for node in sorted(inst.graph.placement):
                assert (flow_imbalance(inst, solution, node, demand.user)
                        == reference_flow_imbalance(inst, solution, node, demand.user)), \
                    (sorted(solution.C), node, demand.user)

    def test_matches_reference_on_random_assignments(self):
        rng = random.Random(1901)
        checked = 0
        while checked < 3000:
            inst = random_instance(rng)
            if inst is None:
                continue
            stored = sorted(
                (d.user, link, state)
                for d in inst.demands
                for link in inst.resource_sets
                for state in inst.states_of(link)
            )
            for _ in range(10):
                keep = rng.random()
                C = frozenset(t for t in stored if rng.random() < keep)
                self.assert_matches_reference(inst, AssignmentSolution(C))
                checked += 1

    def test_matches_reference_on_solver_outputs(self):
        for inst, exact, greedy in feasible_pool():
            self.assert_matches_reference(inst, exact.solution)
            self.assert_matches_reference(inst, greedy.solution)

    def cases_instance(self):
        # A path 0-1-2-3 whose link 1 is stored against the walk, a chord
        # 1-3, a spur 3-4 and a triangle 5-6-7 apart from it all.
        links = [
            EntangledLink(id=0, a=0, b=1, throughput=9.0, resource_count=2),
            EntangledLink(id=1, a=2, b=1, throughput=9.0),
            EntangledLink(id=2, a=2, b=3, throughput=9.0),
            EntangledLink(id=3, a=1, b=3, throughput=9.0),
            EntangledLink(id=4, a=3, b=4, throughput=9.0),
            EntangledLink(id=5, a=5, b=6, throughput=9.0),
            EntangledLink(id=6, a=6, b=7, throughput=9.0),
            EntangledLink(id=7, a=7, b=5, throughput=9.0),
        ]
        return build_instance(links, [Demand(user=0, source=0, target=3, rate=1.0),
                                      Demand(user=1, source=2, target=0, rate=1.0)])

    # (case, user 0's (link, state) entries, flow at nodes 0 .. 7)
    CASES = [
        ("path", [(0, 0), (1, 0), (2, 0)], [1, 0, 0, -1, 0, 0, 0, 0]),
        ("path-short-of-target", [(0, 0), (1, 0)], [1, 0, -1, 0, 0, 0, 0, 0]),
        ("link-held-twice", [(0, 0), (0, 1), (3, 0)], [2, -1, 0, -1, 0, 0, 0, 0]),
        ("branch", [(0, 0), (1, 0), (3, 0)], [1, -1, 1, -1, 0, 0, 0, 0]),
        ("gap", [(0, 0), (2, 0)], [1, -1, 1, -1, 0, 0, 0, 0]),
        ("cycle-beside-path", [(0, 0), (3, 0), (5, 0), (6, 0), (7, 0)],
         [1, 0, 0, -1, 0, 0, 0, 0]),
        ("cycle-through-path", [(0, 0), (1, 0), (2, 0), (3, 0)],
         [1, -1, 2, -2, 0, 0, 0, 0]),
        ("walk-away-from-source", [(2, 0), (4, 0)], [0, 0, 1, 0, -1, 0, 0, 0]),
        ("empty", [], [0] * 8),
    ]

    @pytest.mark.parametrize("entries, flows", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_hand_built_cases(self, entries, flows):
        inst = self.cases_instance()
        # User 1 holds a path of its own, which must not count for user 0.
        C = frozenset({(0, link, state) for link, state in entries} | {(1, 1, 0)})
        solution = AssignmentSolution(C)
        self.assert_matches_reference(inst, solution)
        assert [flow_imbalance(inst, solution, node, 0) for node in range(8)] == flows

    def test_missing_state_is_not_found(self):
        inst = two_hop_instance()
        sol = AssignmentSolution(frozenset({(0, 0, 99)}))
        with pytest.raises(NotFoundError, match="missing state 99 on link 0"):
            objective(inst, sol)
        with pytest.raises(NotFoundError, match="missing state 99 on link 0"):
            flow_imbalance(inst, sol, 0, 0)

    def test_user_without_demand_is_not_found(self):
        inst = two_hop_instance()
        # The unknown user's triple raises even when another user is asked about.
        sol = AssignmentSolution(frozenset({(0, 0, 0), (5, 1, 0)}))
        with pytest.raises(NotFoundError, match="no demand for user 5"):
            objective(inst, sol)
        with pytest.raises(NotFoundError, match="no demand for user 5"):
            flow_imbalance(inst, sol, 0, 0)


class TestInterference:
    def contested(self, granted):
        links = [
            EntangledLink(id=0, a=0, b=2, throughput=9.0),
            EntangledLink(id=1, a=1, b=2, throughput=9.0),
            EntangledLink(id=2, a=2, b=3, throughput=9.0),
        ]
        demands = [
            Demand(user=0, source=0, target=3, rate=1.0),
            Demand(user=1, source=1, target=3, rate=1.0),
        ]
        iset = InterferenceSet(link=2, state=0, competing=((0, 0), (1, 1)))
        inst = build_instance(links, demands, interference=[iset])
        C = set()
        for user in granted:
            C.add((user, 2, 0))
        return inst, AssignmentSolution.from_C(inst, frozenset(C))

    def test_single_grant_ok(self):
        inst, sol = self.contested([0])
        assert check_interference(inst, sol) == []

    def test_double_grant_violation(self):
        inst, sol = self.contested([0, 1])
        violations = check_interference(inst, sol)
        assert len(violations) == 1
        assert violations[0].subject == (2, 0)

    def test_empty_ok(self):
        inst, _ = self.contested([])
        assert check_interference(inst, AssignmentSolution(frozenset())) == []

    def test_user_without_demand_is_not_found(self):
        # The same reference checks as objective and check_capacity.
        inst = two_hop_instance()
        with pytest.raises(NotFoundError, match="no demand for user 9"):
            check_interference(inst, AssignmentSolution(frozenset({(9, 0, 0)})))

    def test_missing_state_is_not_found(self):
        inst = two_hop_instance()
        with pytest.raises(NotFoundError, match="missing state 3 on link 0"):
            check_interference(inst, AssignmentSolution(frozenset({(0, 0, 3)})))


class TestSolveExact:
    def test_single_user_single_path(self):
        inst = two_hop_instance()
        result = solve_exact(inst)
        assert result.feasible
        assert sorted(result.solution.C) == [(0, 0, 0), (0, 1, 0)]
        assert result.objective == pytest.approx(0.25 + 0.5)

    def test_disjoint_paths_both_served(self):
        links = [
            EntangledLink(id=0, a=0, b=1, swap_success=0.75, throughput=5.0),
            EntangledLink(id=1, a=2, b=3, swap_success=0.5, throughput=5.0),
        ]
        inst = build_instance(links, [
            Demand(user=0, source=0, target=1, rate=1.0),
            Demand(user=1, source=2, target=3, rate=1.0),
        ])
        feasible, cost, _ = oracle_solve(inst)
        result = solve_exact(inst)
        assert feasible and result.feasible
        assert result.objective == cost == pytest.approx(0.75)

    def test_pigeonhole_infeasible(self):
        links = [
            EntangledLink(id=0, a=0, b=3, throughput=9.0),
            EntangledLink(id=1, a=1, b=3, throughput=9.0),
            EntangledLink(id=2, a=2, b=3, throughput=9.0),
            EntangledLink(id=3, a=3, b=4, throughput=9.0, resource_count=2),
        ]
        demands = [Demand(user=u, source=u, target=4, rate=1.0) for u in range(3)]
        interference = [
            InterferenceSet(link=3, state=s, competing=((0, 0), (1, 1), (2, 2)))
            for s in (0, 1)
        ]
        inst = build_instance(links, demands, interference=interference)
        assert solve_exact(inst).status is SolveStatus.INFEASIBLE
        greedy = solve_greedy(inst)
        assert greedy.status is SolveStatus.INFEASIBLE
        assert len(greedy.served) == 2 and len(greedy.rejected) == 1

    def test_size_cap(self):
        links = [
            EntangledLink(id=i, a=0, b=1 + i, throughput=9.0, resource_count=3)
            for i in range(5)
        ]
        demands = [Demand(user=u, source=0, target=1, rate=1.0) for u in range(3)]
        inst = build_instance(links, demands)
        with pytest.raises(TooLargeError):
            solve_exact(inst)

    def test_option_cap_bounds_the_path_listing(self, monkeypatch):
        # 2**12 simple paths of one option each, 24 variables: the listing
        # stops once its paths give more than OPTION_CAP options, and
        # reaching each next path reads at most one adjacency row per hop.
        hops, cap = 12, 10
        monkeypatch.setattr(etopo.assignment, "OPTION_CAP", cap)
        inst = build_instance(parallel_chain(hops).links,
                              [Demand(user=0, source=0, target=hops, rate=1.0)], n=hops + 1)
        assert inst.n_variables() <= BNB_VARIABLE_CAP
        counted, rows = with_counted_rows(inst)
        with pytest.raises(TooLargeError, match=f"more than {cap} options serve "
                                                f"node 0 to node {hops}"):
            solve_exact(counted)
        assert 0 < rows.reads <= (cap + 1) * hops

    def test_option_cap_stops_inside_the_first_path(self, monkeypatch):
        # Two states per link, 40 variables: the first path alone gives
        # 2**10 options, more than OPTION_CAP, so the listing stops there,
        # having read one adjacency row per node before the target.
        hops, cap = 10, 10
        monkeypatch.setattr(etopo.assignment, "OPTION_CAP", cap)
        links = parallel_chain(hops).links
        inst = build_instance(links, [Demand(user=0, source=0, target=hops, rate=1.0)],
                              resource_sets={l.id: ResourceSet(link=l.id, states=(0, 1))
                                             for l in links}, n=hops + 1)
        assert inst.n_variables() == BNB_VARIABLE_CAP
        counted, rows = with_counted_rows(inst)
        with pytest.raises(TooLargeError, match=f"more than {cap} options serve "
                                                f"node 0 to node {hops}"):
            solve_exact(counted)
        assert 0 < rows.reads <= hops + 1

    def test_walks_only_links_that_hold_states(self):
        # One state on one link of K_9: a path over any stateless link
        # yields no option, so the search reads a handful of adjacency
        # rows, not one per simple path of K_9 (about 10^5).
        m = 9
        links = [
            EntangledLink(id=i, a=a, b=b, throughput=9.0)
            for i, (a, b) in enumerate(itertools.combinations(range(m), 2))
        ]
        inst = build_instance(links, [Demand(user=0, source=0, target=1, rate=1.0)],
                              resource_sets={0: ResourceSet(link=0, states=(0,))}, n=m)
        counted, rows = with_counted_rows(inst)
        result = solve_exact(counted)
        assert result.feasible
        assert result.solution.C == {(0, 0, 0)}
        assert rows.reads <= m

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(7)
        checked = 0
        while checked < 40:
            inst = random_instance(rng)
            if inst is None:
                continue
            assert validate_instance(inst) == []
            feasible, cost, best_C = oracle_solve(inst)
            result = solve_exact(inst)
            assert result.feasible == feasible
            if feasible:
                assert result.objective == cost
                assert result.solution.C == best_C
                assert check_capacity(inst, result.solution) == []
                assert check_interference(inst, result.solution) == []
            checked += 1

    def test_tie_break_follows_demand_ids(self):
        # Demand 0 (four options) and demand 1 (two options) tie on cost
        # whichever of them takes state 0 of link 0; the lower demand id
        # gets the lexicographically smaller entries.
        links = [
            EntangledLink(id=0, a=0, b=1, throughput=9.0, resource_count=2),
            EntangledLink(id=1, a=1, b=2, throughput=9.0, resource_count=2),
        ]
        demands = [
            Demand(user=0, source=2, target=0, rate=1.0),
            Demand(user=1, source=0, target=1, rate=1.0),
        ]
        interference = [
            InterferenceSet(link=0, state=s, competing=((0, 0), (1, 1))) for s in (0, 1)
        ]
        inst = build_instance(links, demands, interference=interference)
        result = solve_exact(inst)
        assert result.solution.C == {(0, 1, 0), (0, 0, 0), (1, 0, 1)}
        assert oracle_solve(inst)[2] == result.solution.C

    def test_states_with_different_rivals_are_not_interchangeable(self):
        # State 0 is contested by demands 0-1 and 0-2, state 1 by 1-2: with
        # demand 0 on state 0 the other two cannot both be served, so the
        # only optimum opens state 1 before state 0.
        links = [EntangledLink(id=0, a=0, b=1, throughput=9.0, resource_count=2)]
        demands = [Demand(user=u, source=0, target=1, rate=1.0) for u in range(3)]
        interference = [
            InterferenceSet(link=0, state=0, competing=((0, 0), (1, 1))),
            InterferenceSet(link=0, state=0, competing=((0, 0), (2, 2))),
            InterferenceSet(link=0, state=1, competing=((1, 1), (2, 2))),
        ]
        inst = build_instance(links, demands, interference=interference)
        result = solve_exact(inst)
        assert result.solution.C == {(0, 0, 1), (1, 0, 0), (2, 0, 0)}
        assert oracle_solve(inst)[2] == result.solution.C


def parallel_greedy_instance():
    links = [
        EntangledLink(id=0, a=0, b=2, throughput=9.0),
        EntangledLink(id=1, a=1, b=2, throughput=9.0),
        EntangledLink(id=2, a=2, b=3, throughput=9.0, resource_count=3),
    ]
    demands = [
        Demand(user=0, source=0, target=3, rate=1.0),
        Demand(user=1, source=1, target=3, rate=1.0),
    ]
    interference = [
        InterferenceSet(link=2, state=s, competing=((0, 0), (1, 1)))
        for s in range(3)
    ]
    return build_instance(links, demands, interference=interference)


def spill_greedy_instance():
    links = [
        EntangledLink(id=0, a=0, b=2, throughput=9.0),
        EntangledLink(id=1, a=1, b=2, throughput=9.0),
        EntangledLink(id=2, a=2, b=3, throughput=9.0),   # one state only
        EntangledLink(id=3, a=2, b=4, throughput=9.0),
        EntangledLink(id=4, a=4, b=3, throughput=9.0),
    ]
    demands = [
        Demand(user=0, source=0, target=3, rate=2.0),
        Demand(user=1, source=1, target=3, rate=1.0),
    ]
    interference = [InterferenceSet(link=2, state=0, competing=((0, 0), (1, 1)))]
    return build_instance(links, demands, interference=interference)


def unroutable_greedy_instance():
    links = [
        EntangledLink(id=0, a=0, b=1, throughput=9.0),
        EntangledLink(id=1, a=2, b=3, throughput=9.0),
    ]
    return build_instance(links, [Demand(user=0, source=0, target=3, rate=1.0)])


def random_greedy_instances(count=30, seed=13):
    rng = random.Random(seed)
    instances = []
    while len(instances) < count:
        inst = random_instance(rng)
        if inst is not None:
            instances.append(inst)
    return instances


def spilling_random_instances(count=60, seed=31):
    """Larger draws than the oracle tests take: more demands than states,
    so links run out and demands spill or are rejected."""
    rng = random.Random(seed)
    instances = []
    while len(instances) < count:
        inst = random_instance(rng, max_users=6, max_links=8, max_states=2,
                               option_product_cap=10**12)
        if inst is not None:
            instances.append(inst)
    return instances


def greedy_scenario_trials():
    """The two trial instances that `run_scenario` builds from
    greedy_scenario_payload(), both solved greedily."""
    trials = trial_instances(greedy_scenario_payload())
    assert len(trials) == 2
    return trials


class TestSolveGreedy:
    def test_trivial_parallel_serving(self):
        result = solve_greedy(parallel_greedy_instance())
        assert result.feasible and len(result.served) == 2

    def test_spill_to_alternate_link(self):
        result = solve_greedy(spill_greedy_instance())
        assert result.feasible and len(result.served) == 2
        # the lower-rate demand spilled through node 4
        spilled = {(link, state) for u, link, state in result.solution.C if u == 1}
        assert (3, 0) in spilled and (4, 0) in spilled

    def test_greedy_never_beats_exact(self):
        for inst in random_greedy_instances():
            greedy = solve_greedy(inst)
            exact = solve_exact(inst)
            if greedy.feasible and exact.feasible:
                assert greedy.objective >= exact.objective
            if greedy.feasible:
                assert exact.feasible
                assert check_capacity(inst, greedy.solution) == []
                assert check_interference(inst, greedy.solution) == []

    def test_unroutable_demand_rejected(self):
        result = solve_greedy(unroutable_greedy_instance())
        assert result.status is SolveStatus.INFEASIBLE
        assert result.rejected == (0,)

    def test_route_memo_changes_no_result(self):
        instances = [parallel_greedy_instance(), spill_greedy_instance(),
                     unroutable_greedy_instance(), *random_greedy_instances()]
        for inst in instances:
            routes = {}
            expected = solve_greedy(inst)
            assert solve_greedy(inst, routes) == expected
            # The memo holds what route() gives, for every demand's pair at least.
            for d in inst.demands:
                assert (d.source, d.target) in routes
            for (source, target), outcome in routes.items():
                assert outcome == route(inst.graph, inst.adapted, source, target)
            # A memo already filled by an earlier call is read, not re-walked.
            assert solve_greedy(inst, routes) == expected

    def test_matches_reference(self):
        instances = [parallel_greedy_instance(), spill_greedy_instance(),
                     unroutable_greedy_instance(), *random_greedy_instances()]
        for inst in spilling_random_instances():
            # Files may list a link's states in any order.
            reversed_sets = {lid: ResourceSet(lid, rs.states[::-1])
                             for lid, rs in inst.resource_sets.items()}
            instances += [inst, dataclasses.replace(inst, resource_sets=reversed_sets)]
        instances.extend(greedy_scenario_trials())

        rejections = 0
        for inst in instances:
            routes, reference_routes = {}, {}
            result = solve_greedy(inst, routes)
            assert result == reference_solve_greedy(inst, reference_routes)
            # The memo holds only walks that ran to the end, each what
            # route() gives, and of pairs the reference walks too: a spill
            # walk that stopped early is not kept.
            for (source, target), outcome in routes.items():
                assert outcome == route(inst.graph, inst.adapted, source, target)
            assert routes.keys() <= reference_routes.keys()
            rejections += len(result.rejected)
        assert rejections > 0

    def test_spill_walks_stop_only_when_refused(self, monkeypatch):
        import etopo.assignment

        stopped = []

        def checked(graph, adapted, source, target, *, plan=None):
            outcome = route(graph, adapted, source, target, plan=plan)
            full = route(graph, adapted, source, target)
            if outcome.status is RouteStatus.BLOCKED:
                # Stopped early: the full walk finds a path that crosses
                # the demand's walk, which the solver refuses.
                assert full.found
                assert not plan.walked.isdisjoint(full.path.nodes)
                assert outcome.path is None and outcome.diameter == 0
                assert 0 < outcome.steps_taken < full.steps_taken
                stopped.append((source, target))
            else:
                assert outcome == full
            return outcome

        monkeypatch.setattr(etopo.assignment, "route", checked)
        for instances in (spilling_random_instances(), greedy_scenario_trials()):
            before = len(stopped)
            for inst in instances:
                routes = {}
                result = solve_greedy(inst, routes)
                assert result == reference_solve_greedy(inst)
                assert all(o.status is not RouteStatus.BLOCKED for o in routes.values())
            assert len(stopped) > before


class TestSolveResult:
    """A result is feasible exactly when no demand is rejected, and only a
    feasible result carries an objective."""

    def test_exact_infeasible_serves_nothing(self):
        # Infeasible by search (pigeonhole) and with no option at all.
        pigeonhole = build_instance(
            [EntangledLink(id=i, a=i, b=3, throughput=9.0) for i in range(3)]
            + [EntangledLink(id=3, a=3, b=4, throughput=9.0, resource_count=2)],
            [Demand(user=u, source=u, target=4, rate=1.0) for u in range(3)],
            interference=[
                InterferenceSet(link=3, state=s, competing=((0, 0), (1, 1), (2, 2)))
                for s in (0, 1)
            ],
        )
        for inst in (pigeonhole, unroutable_greedy_instance()):
            result = solve_exact(inst)
            assert not result.feasible
            assert result.solution.C == frozenset() and result.solution.K == frozenset()
            assert result.objective is None
            assert result.served == ()
            assert result.rejected == tuple(range(len(inst.demands)))

    @pytest.mark.parametrize("solver", [solve_exact, solve_greedy])
    def test_feasible_exactly_when_nothing_is_rejected(self, solver):
        instances = random_greedy_instances() + spilling_random_instances(count=20)
        outcomes = set()
        for inst in instances:
            try:
                result = solver(inst)
            except TooLargeError:
                continue
            assert result.feasible == (not result.rejected) == (result.objective is not None)
            assert result.status is (SolveStatus.FEASIBLE if result.feasible
                                     else SolveStatus.INFEASIBLE)
            assert not set(result.served) & set(result.rejected)
            assert sorted(result.served + result.rejected) == list(range(len(inst.demands)))
            outcomes.add(result.feasible)
        assert outcomes == {True, False}


class TestValidateInstance:
    def test_competing_entry_of_a_shared_user(self):
        # Two demands of user 0 break the user rule once; an interference
        # entry naming either demand of user 0 still names a demand.
        links = [EntangledLink(id=0, a=0, b=1, resource_count=1, throughput=5.0)]
        demands = [Demand(user=0, source=0, target=1, rate=1.0),
                   Demand(user=0, source=1, target=0, rate=1.0)]
        inst = build_instance(links, demands, interference=[
            InterferenceSet(link=0, state=0, competing=((0, 0), (0, 1), (1, 0))),
        ])
        assert [(v.code, v.message) for v in validate_instance(inst)] == [
            ("duplicate-user", "instance.demands[1].user: user 0 already has a demand"),
            ("unknown-demand",
             "instance.interference[0].competing[2]: user 1 has no demand 0"),
        ]

    def test_each_repeated_user_is_named(self):
        links = [EntangledLink(id=0, a=0, b=1, resource_count=1, throughput=5.0)]
        demands = [Demand(user=u, source=0, target=1, rate=1.0) for u in (0, 0, 1, 1, 1)]
        inst = build_instance(links, demands)
        assert [v.message for v in validate_instance(inst)] == [
            "instance.demands[1].user: user 0 already has a demand",
            "instance.demands[3].user: user 1 already has a demand",
            "instance.demands[4].user: user 1 already has a demand",
        ]
        # A user's first demand answers for it.
        assert inst.demand_of_user(1) == (2, demands[2])

    def test_repeated_competing_pair(self):
        links = [EntangledLink(id=0, a=0, b=1, resource_count=1, throughput=5.0)]
        demands = [Demand(user=u, source=0, target=1, rate=1.0) for u in range(2)]
        inst = build_instance(links, demands, interference=[
            InterferenceSet(link=0, state=0, competing=((0, 0), (0, 0), (1, 1), (0, 0))),
        ])
        assert [(v.code, v.message) for v in validate_instance(inst)] == [
            ("repeated-demand", "instance.interference[0].competing[1]: "
                                "demand 0 of user 0 is already listed"),
            ("repeated-demand", "instance.interference[0].competing[3]: "
                                "demand 0 of user 0 is already listed"),
        ]
