"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its measured quantity."""

import itertools
import json
import random
import time

import pytest

from etopo import (
    AssignmentInstance,
    Demand,
    EntangledLink,
    InterferenceSet,
    ResourceSet,
    ThresholdPolicy,
    adapt,
    bench_routing,
    check_interference,
    connection_probability,
    flow_imbalance,
    link_existence_probability,
    make_conflict_graph,
    make_network,
    map_overlay,
    reduction_from_coloring,
    route,
    shortest_path_oracle,
    solve_exact,
    solve_greedy,
)
from etopo.cli import main as cli_main
from util import (
    brute_force_colorable,
    dyadic,
    feasible_pool,
    oracle_solve,
    random_embedded,
    random_instance,
    random_overlay,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_connection_probability_identity():
    rng = random.Random(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        net = random_overlay(rng, rng.randint(4, 8), rng.randint(3, 12))
        graph = map_overlay(net, k=2, n=8, seed=rng.randrange(2**32))
        for link in net.links:
            cp = connection_probability(graph, net, link.a, link.b, link_id=link.id)
            worst = max(worst, abs(cp.p - link_existence_probability(link)))
    elapsed = time.perf_counter() - start
    report(
        "connection probability matches overlay probability on 1000 networks",
        worst <= 1e-12 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_adaption_soundness_completeness_monotonicity():
    rng = random.Random(1002)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        net = random_overlay(rng, rng.randint(4, 8), rng.randint(3, 12))
        graph = map_overlay(net, k=2, n=8, seed=rng.randrange(2**32))
        lo = rng.uniform(0.0, 0.7)
        policy = ThresholdPolicy(
            default=lo, per_level={l: rng.uniform(0.0, 0.7) for l in (1, 2)}
        )
        adapted = adapt(graph, net, policy)
        for link in net.links:
            meets = (link_existence_probability(link)
                     >= policy.threshold_for(link.level))
            ok = ok and ((link.id in adapted.links) == meets)
        raised = ThresholdPolicy(
            default=policy.default + 0.2,
            per_level={l: t + 0.2 for l, t in policy.per_level.items()},
        )
        ok = ok and adapt(graph, net, raised).links <= adapted.links
    elapsed = time.perf_counter() - start
    report(
        "threshold adaption keeps exactly the qualifying links on 500 policies",
        ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def solved_pool():
    return feasible_pool()


def test_flow_conservation_on_solver_outputs(solved_pool):
    checked = 0
    ok = True
    for inst, exact, greedy in solved_pool:
        for result in (exact, greedy):
            if not result.feasible:
                continue
            for qid in result.served:
                demand = inst.demands[qid]
                for node in sorted(inst.network.nodes):
                    expected = (
                        1 if node == demand.source
                        else -1 if node == demand.target
                        else 0
                    )
                    got = flow_imbalance(inst, result.solution, node, demand.user)
                    ok = ok and got == expected
        checked += 1
    report(
        "flow conservation holds at every node of every served demand",
        ok and checked >= 200,
        f"{checked} feasible instances",
    )


def test_exact_solver_matches_brute_force():
    rng = random.Random(1004)
    start = time.perf_counter()
    checked = 0
    ok = True
    while checked < 200:
        inst = random_instance(rng)
        if inst is None:
            continue
        feasible, cost, _ = oracle_solve(inst)
        result = solve_exact(inst)
        ok = ok and result.feasible == feasible
        if feasible:
            ok = ok and result.objective == cost
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "exact solver objective equals brute-force enumeration on 200 instances",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_no_interference_violations(solved_pool):
    violations = 0
    for inst, exact, greedy in solved_pool:
        for result in (exact, greedy):
            if result.solution is not None:
                violations += len(check_interference(inst, result.solution))
    report(
        "zero interference violations across all solver outputs",
        violations == 0,
        f"{2 * len(solved_pool)} solutions checked",
    )


def star_case(rng):
    """m contending demands over a bottleneck link holding g >= m states."""
    m = rng.randint(2, 4)
    g = rng.randint(m, m + 2)
    hub, target = m, m + 1
    links = [
        EntangledLink(id=i, a=i, b=hub, throughput=64.0) for i in range(m)
    ]
    links.append(
        EntangledLink(id=m, a=hub, b=target, throughput=64.0, resource_count=g)
    )
    net = make_network(range(m + 2), links)
    graph = map_overlay(net, k=1, n=m + 2,
                        placement={i: (i,) for i in range(m + 2)})
    adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
    demands = tuple(
        Demand(user=i, source=i, target=target, rate=dyadic(rng, 0.25, 2.0))
        for i in range(m)
    )
    competing = tuple((i, i) for i in range(m))
    interference = tuple(
        InterferenceSet(link=m, state=s, competing=competing) for s in range(g)
    )
    resource_sets = {
        l.id: ResourceSet(link=l.id, states=tuple(range(l.resource_count)))
        for l in links
    }
    return AssignmentInstance(
        network=net, graph=graph, adapted=adapted, demands=demands,
        resource_sets=resource_sets, interference=interference,
    ), m


def test_greedy_serves_all_when_states_suffice():
    rng = random.Random(1005)
    ok = True
    for _ in range(200):
        inst, m = star_case(rng)
        result = solve_greedy(inst)
        ok = ok and result.feasible and len(result.served) == m
    report(
        "greedy serves every interfering demand when states outnumber demands",
        ok,
        "200 sampled cases",
    )


def test_coloring_reduction_equivalence():
    nx = pytest.importorskip("networkx")
    start = time.perf_counter()
    graphs = []
    for g in nx.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 5:
            graphs.append((sorted(g.nodes), [tuple(e) for e in g.edges]))
    rng = random.Random(1006)
    for _ in range(100):
        size = rng.randint(2, 8)
        pairs = list(itertools.combinations(range(size), 2))
        edges = [e for e in pairs if rng.random() < 0.45]
        graphs.append((list(range(size)), edges))
    ok = True
    for vertices, edges in graphs:
        graph = make_conflict_graph(vertices, edges)
        for colors in range(1, 5):
            expected = brute_force_colorable(vertices, edges, colors)
            got = solve_exact(reduction_from_coloring(graph, colors)).feasible
            ok = ok and got == expected
    elapsed = time.perf_counter() - start
    report(
        "coloring feasibility matches reduction feasibility on "
        f"{len(graphs)} graphs x 4 palettes",
        ok and elapsed < 120.0,
        f"{elapsed:.1f}s",
    )


def test_routing_validity_and_oracle_dominance():
    rng = random.Random(1007)
    ok = True
    for _ in range(500):
        net, graph, adapted = random_embedded(
            rng, num_nodes=rng.randint(5, 12), num_links=rng.randint(4, 20),
            threshold=rng.choice([0.0, 0.3, 0.6]),
        )
        source, target = rng.sample(sorted(graph.placement), 2)
        got = route(graph, adapted, source, target)
        oracle = shortest_path_oracle(graph, adapted, source, target)
        ok = ok and got.status == oracle.status
        if got.found:
            ok = ok and got.diameter >= oracle.diameter
            nodes, links = got.path.nodes, got.path.links
            ok = ok and len(set(nodes)) == len(nodes)
            ok = ok and nodes[0] == source and nodes[-1] == target
            for (u, v), lid in zip(zip(nodes, nodes[1:]), links):
                link = net.link_by_id(lid)
                ok = ok and lid in adapted.links and {link.a, link.b} == {u, v}
    report(
        "routing stays on adapted links and never beats the shortest path",
        ok,
        "500 random adapted graphs",
    )


def test_routing_step_scaling():
    start = time.perf_counter()
    rows = bench_routing([64, 128, 256, 512], trials=1000, seed=0)
    elapsed = time.perf_counter() - start
    baseline = rows[0].normalized
    ratios = [r.normalized / baseline for r in rows]
    ok = all(0.5 <= ratio <= 2.0 for ratio in ratios) and elapsed < 300.0
    report(
        "mean routing steps stay near (log2 n)^2 from n=64 to n=512",
        ok,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios) + f", {elapsed:.0f}s",
    )


def test_run_outputs_are_deterministic(tmp_path):
    scenario = {
        "seed": 42,
        "trials": 3,
        "generator": {"num_nodes": 10, "num_links": 16},
        "base_graph": {"k": 2, "n": 8},
        "thresholds": {"default": 0.3},
        "demands": [
            {"user": 0, "source": 0, "target": 9, "rate": 1.0},
            {"user": 1, "source": 2, "target": 7, "rate": 0.5},
        ],
        "failures": [
            {"target": 0, "kind": "degrade-swap", "magnitude": 0.4, "time": 1}
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    cli_main(["run", str(path), "--out", str(out1)])
    cli_main(["run", str(path), "--out", str(out2)])
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("metrics.csv", "solutions.json")
    )
    report("repeated scenario runs produce byte-identical outputs", identical)
