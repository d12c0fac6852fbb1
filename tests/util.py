"""Shared samplers and independent brute-force oracles for the test suite.

The oracles here deliberately reimplement path enumeration, feasibility
checking, and cost summation from scratch so they share no code path with
the solvers they validate. Link attributes are sampled on a dyadic grid
(multiples of 1/64) so objective sums are exact in floating point and
solver-vs-oracle comparisons can demand exact equality.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from etopo import (
    AssignmentInstance,
    AssignmentSolution,
    ConfigError,
    Demand,
    EntangledLink,
    GeneratorParams,
    InterferenceSet,
    InvalidLevelError,
    Path,
    PlacementError,
    PStarMode,
    ResourceSet,
    RouteStatus,
    RoutingOutcome,
    SolveResult,
    SolveStatus,
    ThresholdPolicy,
    adapt,
    l1_distance,
    link_existence_probability,
    make_network,
    map_overlay,
    objective,
    route,
)
from etopo.assignment import (
    CTriple,
    DemandId,
    LinkId,
    NodeId,
    ResourceRef,
    RouteMemo,
    StateId,
)

DENOM = 64


def dyadic(rng: random.Random, lo: float = 0.0, hi: float = 1.0) -> float:
    return rng.randint(int(lo * DENOM), int(hi * DENOM)) / DENOM


def random_overlay(
    rng: random.Random,
    num_nodes: int,
    num_links: int,
    levels=(1, 2, 3),
    throughput_hi: float = 8.0,
    resource_hi: int = 1,
):
    nodes = list(range(num_nodes))
    combos = [
        (a, b, l)
        for (a, b) in itertools.combinations(nodes, 2)
        for l in levels
    ]
    chosen = sorted(rng.sample(combos, min(num_links, len(combos))))
    links = [
        EntangledLink(
            id=i, a=a, b=b, level=l,
            swap_success=dyadic(rng, 0.25, 1.0),
            photon_loss=dyadic(rng, 0.0, 0.5),
            fidelity=dyadic(rng, 0.5, 1.0),
            throughput=float(rng.randint(1, int(throughput_hi))),
            resource_count=rng.randint(1, resource_hi),
        )
        for i, (a, b, l) in enumerate(chosen)
    ]
    return make_network(nodes, links)


def random_embedded(rng: random.Random, num_nodes=8, num_links=12, k=2, n=8,
                    threshold: Optional[float] = None, **kwargs):
    """A random overlay plus base-graph and adapted set, for routing tests."""
    network = random_overlay(rng, num_nodes, num_links, **kwargs)
    graph = map_overlay(network, k=k, n=n, seed=rng.randrange(2**32))
    policy = ThresholdPolicy(default=threshold if threshold is not None else 0.0)
    adapted = adapt(graph, network, policy)
    return network, graph, adapted


# -- reference graph walks ----------------------------------------------------
#
# Direct versions of the package's walks: every visit re-filters the
# base-graph's contacts against the adapted link ids, and greedy forwarding
# takes the minimum of (L1 distance, node, link) over the unvisited
# candidates. The package's walks read the adjacency adapt builds and must
# agree with these exactly.


def _reference_neighbors(graph, adapted, node):
    return [(nbr, lid) for nbr, lid in graph.contacts_of(node) if lid in adapted.links]


def reference_route(graph, adapted, source, target) -> RoutingOutcome:
    target_coord = graph.coord(target)
    graph.coord(source)
    if source == target:
        return RoutingOutcome(RouteStatus.FOUND, Path((source,), ()), 0, 0)
    visited = {source}
    stack, link_stack, steps = [source], [], 0
    while stack:
        candidates = [
            (nbr, lid) for nbr, lid in _reference_neighbors(graph, adapted, stack[-1])
            if nbr not in visited
        ]
        steps += 1
        if not candidates:
            stack.pop()
            if link_stack:
                link_stack.pop()
            continue
        nbr, lid = min(
            candidates,
            key=lambda c: (l1_distance(graph.coord(c[0]), target_coord), c[0], c[1]),
        )
        visited.add(nbr)
        stack.append(nbr)
        link_stack.append(lid)
        if nbr == target:
            return RoutingOutcome(RouteStatus.FOUND, Path(tuple(stack), tuple(link_stack)),
                                  len(link_stack), steps)
    return RoutingOutcome(RouteStatus.UNREACHABLE, None, 0, steps)


def reference_oracle(graph, adapted, source, target) -> RoutingOutcome:
    graph.coord(source)
    graph.coord(target)
    parent = {source: None}
    frontier = [source]
    while frontier and target not in parent:
        next_frontier = []
        for current in frontier:
            for nbr, lid in _reference_neighbors(graph, adapted, current):
                if nbr not in parent:
                    parent[nbr] = (current, lid)
                    next_frontier.append(nbr)
        frontier = next_frontier
    if target not in parent:
        return RoutingOutcome(RouteStatus.UNREACHABLE, None, 0, 0)
    nodes, links = [target], []
    while parent[nodes[-1]] is not None:
        prev, lid = parent[nodes[-1]]
        nodes.append(prev)
        links.append(lid)
    nodes.reverse()
    links.reverse()
    return RoutingOutcome(RouteStatus.FOUND, Path(tuple(nodes), tuple(links)),
                          len(links), len(links))


def reference_simple_paths(graph, adapted, source, target):
    results = []

    def extend(nodes, links):
        if nodes[-1] == target:
            results.append((tuple(nodes), tuple(links)))
            return
        for nbr, lid in _reference_neighbors(graph, adapted, nodes[-1]):
            if nbr not in nodes:
                extend(nodes + [nbr], links + [lid])

    extend([source], [])
    return sorted(results)


# -- reference link checks, threshold rule and placement checks ---------------
#
# The per-field, per-link and per-node forms of checks the package runs in
# bulk. EntangledLink, adapt and map_overlay must raise the same errors and
# give the same results.


@dataclass(frozen=True, slots=True)
class ReferenceLink:
    """EntangledLink's fields and checks, as a generated dataclass __init__
    followed by a __post_init__ that tests each field in turn. It takes a
    NaN or infinite throughput, which EntangledLink rejects."""

    id: int
    a: int
    b: int
    level: int = 1
    swap_success: float = 1.0
    photon_loss: float = 0.0
    fidelity: float = 1.0
    throughput: float = 0.0
    resource_count: int = 1

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"link {self.id}: endpoints must be distinct")
        if self.level < 1:
            raise InvalidLevelError(
                f"link {self.id}: level must be >= 1, got {self.level}"
            )
        for name in ("swap_success", "photon_loss", "fidelity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"link {self.id}: {name}={value} outside [0, 1]")
        if self.throughput < 0:
            raise ValueError(f"link {self.id}: throughput must be >= 0")
        if self.resource_count < 0:
            raise ValueError(f"link {self.id}: resource_count must be >= 0")


def reference_link_update(link, policy: ThresholdPolicy, mode: PStarMode):
    """Whether link meets its level threshold, and its updated probability."""
    pr = link_existence_probability(link)
    threshold = policy.threshold_for(link.level)
    if pr < threshold:
        return False, 0.0
    return True, pr if mode is PStarMode.MEASURED else threshold


def reference_placement(nodes, placement, k: int, n: int):
    """placement checked node by node in sorted order; raises PlacementError
    at the first missing, misshapen, out-of-range or colliding node."""
    placed = {}
    used = {}
    for node in sorted(nodes):
        if node not in placement:
            raise PlacementError(f"placement missing node {node}")
        coord = tuple(placement[node])
        if len(coord) != k:
            raise PlacementError(
                f"node {node}: coordinate {coord} has dimension {len(coord)}, expected {k}"
            )
        if any(not 0 <= c < n for c in coord):
            raise PlacementError(f"node {node}: coordinate {coord} outside [0, {n})")
        if coord in used:
            raise PlacementError(f"nodes {used[coord]} and {node} collide at {coord}")
        used[coord] = node
        placed[node] = coord
    return placed


# -- reference Kleinberg lattice ----------------------------------------------
#
# The per-link lattice builder the package's bulk builder replaced, kept as
# it was: grid and long-range links both pass one dedupe set, and the
# distance is drawn by rng.choices. kleinberg_lattice must return the same
# links, placement and contacts for every (n, seed).


def _reference_distance_cum_weights(n: int) -> list[float]:
    """Cumulative radial weights 1/d for d = 1 .. 2(n-1), as _sample_long_range
    draws them; computed once per lattice."""
    return list(itertools.accumulate(1.0 / d for d in range(1, 2 * (n - 1) + 1)))


def _reference_sample_long_range(
    rng: random.Random, origin: tuple[int, int], n: int, cum_weights: list[float]
) -> Optional[tuple[int, int]]:
    """Sample a cell at L1 distance d with probability proportional to d**-2.

    Radial form: mass of distance d is (d**-2 * count_at(d)), with
    count_at(d) about 4d on the open lattice, so d is drawn with weight
    1/d and a uniform cell at that distance is kept if it lies on the
    lattice. cum_weights is _distance_cum_weights(n).
    """
    x, y = origin
    max_d = 2 * (n - 1)
    if max_d < 2:
        return None
    for _ in range(64):
        d = rng.choices(range(1, max_d + 1), cum_weights=cum_weights)[0]
        dx = rng.randint(-d, d)
        dy_mag = d - abs(dx)
        dy = dy_mag if rng.random() < 0.5 else -dy_mag
        cell = (x + dx, y + dy)
        if cell == origin:
            continue
        if 0 <= cell[0] < n and 0 <= cell[1] < n:
            return cell
    return None


def reference_kleinberg_lattice(n: int, seed: int):
    """n-by-n lattice overlay: nearest-neighbor links plus one long-range
    link per node, identity placement, all link probabilities 1."""
    if n < 2:
        raise ConfigError("lattice side must be >= 2")
    rng = random.Random(seed)

    def node_at(x: int, y: int) -> int:
        return x * n + y

    links: list[EntangledLink] = []
    link_id = 0
    pairs: set[tuple[int, int]] = set()

    def add_link(u: int, v: int) -> None:
        nonlocal link_id
        key = (u, v) if u < v else (v, u)
        if key in pairs:
            return
        pairs.add(key)
        links.append(EntangledLink(id=link_id, a=key[0], b=key[1], level=1))
        link_id += 1

    for x in range(n):
        for y in range(n):
            if x + 1 < n:
                add_link(node_at(x, y), node_at(x + 1, y))
            if y + 1 < n:
                add_link(node_at(x, y), node_at(x, y + 1))
    cum_weights = _reference_distance_cum_weights(n)
    for x in range(n):
        for y in range(n):
            cell = _reference_sample_long_range(rng, (x, y), n, cum_weights)
            if cell is not None:
                add_link(node_at(x, y), node_at(*cell))

    network = make_network(range(n * n), links)
    placement = {node_at(x, y): (x, y) for x in range(n) for y in range(n)}
    graph = map_overlay(network, k=2, n=n, placement=placement)
    return network, graph


# -- reference overlay generator ----------------------------------------------
#
# The generator as it was before it sampled slot indices: it lists every
# (a, b, level) slot and samples from that list. generate_network must
# return the same network for every (params, seed).


def reference_generate_network(params: GeneratorParams, seed: int):
    """Random overlay with the requested link count; deterministic in (params, seed)."""
    rng = random.Random(seed)
    nodes = list(range(params.num_nodes))
    combos = [
        (a, b, level)
        for (a, b) in itertools.combinations(nodes, 2)
        for level in params.levels
    ]
    if params.num_links > len(combos):
        raise ConfigError(
            f"cannot place {params.num_links} links: only {len(combos)} distinct "
            f"(pair, level) slots exist"
        )
    chosen = rng.sample(combos, params.num_links)
    links = []
    for link_id, (a, b, level) in enumerate(sorted(chosen)):
        links.append(
            EntangledLink(
                id=link_id,
                a=a,
                b=b,
                level=level,
                swap_success=rng.uniform(*params.swap_range),
                photon_loss=rng.uniform(*params.loss_range),
                fidelity=rng.uniform(*params.fidelity_range),
                throughput=rng.uniform(*params.throughput_range),
                resource_count=rng.randint(*params.resource_range),
            )
        )
    return make_network(nodes, links)


# -- assignment instance sampling ---------------------------------------------


def random_instance(
    rng: random.Random,
    max_users: int = 3,
    max_links: int = 4,
    max_states: int = 3,
    option_product_cap: int = 20_000,
    with_interference: bool = True,
) -> Optional[AssignmentInstance]:
    """A small random instance within the exhaustive-test caps.

    Returns None when the sampled instance would be too expensive for the
    product-enumeration oracle; callers resample.
    """
    num_nodes = rng.randint(3, 5)
    num_links = rng.randint(1, max_links)
    network = random_overlay(
        rng, num_nodes, num_links, levels=(1,), resource_hi=max_states,
    )
    if len(network.links) < num_links:
        return None
    graph = map_overlay(network, k=2, n=4, seed=rng.randrange(2**32))
    adapted = adapt(graph, network, ThresholdPolicy(default=0.0))

    n_users = rng.randint(1, max_users)
    demands = []
    for user in range(n_users):
        a, b = rng.sample(sorted(network.nodes), 2)
        demands.append(Demand(user=user, source=a, target=b, rate=dyadic(rng, 0.25, 3.0)))
    resource_sets = {
        link.id: ResourceSet(link=link.id, states=tuple(range(link.resource_count)))
        for link in network.links
    }
    interference = []
    if with_interference and n_users >= 2 and rng.random() < 0.7:
        for _ in range(rng.randint(1, 2)):
            link = rng.choice(sorted(resource_sets))
            state = rng.choice(resource_sets[link].states)
            size = rng.randint(2, n_users)
            qids = rng.sample(range(n_users), size)
            interference.append(
                InterferenceSet(
                    link=link, state=state,
                    competing=tuple(sorted((demands[q].user, q) for q in qids)),
                )
            )
    instance = AssignmentInstance(
        network=network, graph=graph, adapted=adapted,
        demands=tuple(demands), resource_sets=resource_sets,
        interference=tuple(interference),
    )
    product = 1
    for qid in range(len(demands)):
        count = sum(
            _count_state_combos(instance, links)
            for _, links in _oracle_paths(instance, demands[qid].source, demands[qid].target)
        )
        if count == 0:
            count = 1
        product *= count
        if product > option_product_cap:
            return None
    return instance


# -- independent oracle -------------------------------------------------------


def _oracle_paths(instance: AssignmentInstance, source: int, target: int):
    """All simple paths over the adapted links, by direct recursion on the
    network's link list (independent of the solver's path enumerator)."""
    links = [
        l for l in instance.network.links if l.id in instance.adapted.links
    ]
    paths = []

    def walk(node, node_seq, link_seq):
        if node == target:
            paths.append((tuple(node_seq), tuple(link_seq)))
            return
        for link in links:
            if node not in link.endpoints or link.id in link_seq:
                continue
            nxt = link.other(node)
            if nxt in node_seq:
                continue
            walk(nxt, node_seq + [nxt], link_seq + [link.id])

    walk(source, [source], [])
    return paths


def _count_state_combos(instance: AssignmentInstance, link_seq) -> int:
    combos = 1
    for lid in link_seq:
        combos *= len(instance.states_of(lid))
    return combos


def oracle_solve(instance: AssignmentInstance):
    """Exhaustive minimum over all per-demand (path, states) products.

    Returns (feasible, min_cost, best_C). Feasibility requires every demand
    served; capacity and interference are checked by direct summation.
    Among minimum-cost selections best_C is the one whose sequence of
    per-demand (path cost, (link, state) entries in path order), in demand
    order, is lexicographically smallest: the tie-break solve_exact
    documents.
    """
    per_demand = []
    for demand in instance.demands:
        options = []
        for _, link_seq in _oracle_paths(instance, demand.source, demand.target):
            state_lists = [
                [(lid, s) for s in instance.states_of(lid)] for lid in link_seq
            ]
            if any(not sl for sl in state_lists):
                continue
            for combo in itertools.product(*state_lists):
                options.append(combo)
        if not options:
            return False, None, None
        per_demand.append(options)

    best_cost = None
    best_C = None
    best_key = None
    for selection in itertools.product(*per_demand):
        load: dict[int, float] = {}
        ok = True
        for demand, combo in zip(instance.demands, selection):
            for lid, _ in combo:
                load[lid] = load.get(lid, 0.0) + demand.rate
        for lid, total in load.items():
            if total > instance.network.link_by_id(lid).throughput:
                ok = False
                break
        if ok:
            for iset in instance.interference:
                holders = 0
                for user, qid in iset.competing:
                    if (iset.link, iset.state) in selection[qid]:
                        holders += 1
                if holders > 1:
                    ok = False
                    break
        if not ok:
            continue
        cost = sum(
            1.0 - instance.adapted.link_p_star(lid)
            for combo in selection
            for lid, _ in combo
        )
        key = tuple(
            (sum(1.0 - instance.adapted.link_p_star(lid) for lid, _ in combo), combo)
            for combo in selection
        )
        if best_cost is None or cost < best_cost or (cost == best_cost and key < best_key):
            best_cost = cost
            best_key = key
            best_C = frozenset(
                (demand.user, lid, s)
                for demand, combo in zip(instance.demands, selection)
                for lid, s in combo
            )
    if best_cost is None:
        return False, None, None
    return True, best_cost, best_C


def brute_force_colorable(vertices, edges, colors: int) -> bool:
    """Direct enumeration of all colorings."""
    vs = sorted(vertices)
    if not vs:
        return True
    if colors == 0:
        return False
    index = {v: i for i, v in enumerate(vs)}
    # color classes are interchangeable, so the first vertex can be pinned
    for rest in itertools.product(range(colors), repeat=len(vs) - 1):
        assignment = (0,) + rest
        if all(assignment[index[u]] != assignment[index[v]] for u, v in edges):
            return True
    return False


# -- a small multi-user scenario -----------------------------------------------


def greedy_scenario_payload() -> dict:
    """An `etopo run` scenario file, as its parsed JSON, that exercises the
    whole trial pipeline: 30 generated nodes and 90 links, 10 demands at
    rates 1-4 and one failure of each kind. Every trial has far more
    assignment variables than the branch-and-bound cap, so it is solved
    greedily, and states run out so the greedy solver spills."""
    rng = random.Random(3)
    demands = []
    for user in range(10):
        source, target = rng.sample(range(30), 2)
        demands.append({"user": user, "source": source, "target": target,
                        "rate": rng.randint(4, 16) / 4})
    failures = [
        {"target": rng.randrange(90), "kind": kind,
         "magnitude": rng.randint(1, 3) / 4, "time": rng.randrange(2)}
        for kind in ("remove-link", "degrade-swap", "degrade-loss", "degrade-fidelity")
    ]
    return {
        "seed": 3,
        "trials": 2,
        "generator": {"num_nodes": 30, "num_links": 90, "levels": [1, 2],
                      "resource_range": [1, 2]},
        "base_graph": {"k": 2, "n": 8},
        "thresholds": {"default": 0.15, "levels": {"2": 0.25}},
        "demands": demands,
        "failures": failures,
    }


# -- reference greedy solver --------------------------------------------------
#
# The greedy solver as it was before it kept one state count per link: it
# re-sorts a link's states on every pick, skips the ones taken by served
# demands or pending in the demand's own walk, and serves each demand
# through a pick_state callback. solve_greedy must return the same
# SolveResult for every instance and route memo.


def reference_solve_greedy(
    instance: AssignmentInstance, routes: Optional[RouteMemo] = None
) -> SolveResult:
    """Serve demands one by one along greedy routes, spilling onto alternate
    links of an intermediate node when a link's states run out.

    Demands are admitted in order of descending rate (ties by user index);
    demands that cannot be served with the remaining resources are
    rejected, and the result is infeasible when any rejection occurs.
    States are consumed exclusively here, which is stricter than the exact
    solver's constraint set but never violates it.

    routes memoizes route() by (source, target) for the demand routes and
    the spill re-routes: the solver reads outcomes from it and adds those
    it walks. route() depends only on the graph, the adapted set and the
    pair, so the memo changes no result. The caller owns it and must fill
    it from this instance's graph and adapted set only (run_scenario hands
    in the routes of the trial that built the instance). Without one, the
    solver keeps its own for the length of the call.
    """
    if routes is None:
        routes = {}
    order = sorted(
        range(len(instance.demands)),
        key=lambda q: (-instance.demand(q).rate, instance.demand(q).user),
    )
    taken: set[ResourceRef] = set()
    load: dict[LinkId, float] = {}
    C: set[CTriple] = set()
    served: list[DemandId] = []
    rejected: list[DemandId] = []

    def pick_state(qid: DemandId, link: LinkId, pending: set[ResourceRef]) -> Optional[StateId]:
        demand = instance.demand(qid)
        capacity = instance.network.link_by_id(link).throughput
        if load.get(link, 0.0) + demand.rate > capacity:
            return None
        for state in sorted(instance.states_of(link)):
            ref = (link, state)
            # A state held by no other demand cannot interfere.
            if ref in taken or ref in pending:
                continue
            return state
        return None

    for qid in order:
        demand = instance.demand(qid)
        assignment = _reference_greedy_serve(instance, qid, pick_state, routes)
        if assignment is None:
            rejected.append(qid)
            continue
        served.append(qid)
        for link, state in assignment:
            C.add((demand.user, link, state))
            taken.add((link, state))
            load[link] = load.get(link, 0.0) + demand.rate

    solution = AssignmentSolution.from_C(instance, frozenset(C))
    status = SolveStatus.FEASIBLE if not rejected else SolveStatus.INFEASIBLE
    return SolveResult(
        status=status,
        solution=solution,
        objective=objective(instance, solution) if not rejected else None,
        served=tuple(sorted(served)),
        rejected=tuple(sorted(rejected)),
    )


def _reference_route_once(
    instance: AssignmentInstance, routes: RouteMemo, source: NodeId, target: NodeId
) -> RoutingOutcome:
    outcome = routes.get((source, target))
    if outcome is None:
        outcome = route(instance.graph, instance.adapted, source, target)
        routes[(source, target)] = outcome
    return outcome


def _reference_greedy_serve(
    instance: AssignmentInstance,
    qid: DemandId,
    pick_state,
    routes: RouteMemo,
) -> Optional[list[tuple[LinkId, StateId]]]:
    demand = instance.demand(qid)
    outcome = _reference_route_once(instance, routes, demand.source, demand.target)
    if not outcome.found:
        return None
    nodes = list(outcome.path.nodes)
    links = list(outcome.path.links)
    path_nodes = [demand.source]
    pending: set[ResourceRef] = set()
    assignment: list[tuple[LinkId, StateId]] = []
    arrived_by: Optional[LinkId] = None
    i = 0
    while i < len(links):
        current = path_nodes[-1]
        link = links[i]
        state = pick_state(qid, link, pending)
        if state is not None:
            assignment.append((link, state))
            pending.add((link, state))
            path_nodes.append(nodes[i + 1])
            arrived_by = link
            i += 1
            continue
        # The link's states are exhausted here: spill onto another link of
        # this intermediate node and route onward from its far endpoint.
        spilled = False
        for nbr, alt in _reference_neighbors(instance.graph, instance.adapted, current):
            if alt == link or alt == arrived_by:
                continue
            if nbr in path_nodes:
                continue
            alt_state = pick_state(qid, alt, pending)
            if alt_state is None:
                continue
            onward = _reference_route_once(instance, routes, nbr, demand.target)
            if not onward.found:
                continue
            if any(n in path_nodes for n in onward.path.nodes[1:]):
                continue
            assignment.append((alt, alt_state))
            pending.add((alt, alt_state))
            path_nodes.append(nbr)
            nodes = list(onward.path.nodes)
            links = list(onward.path.links)
            arrived_by = alt
            i = 0
            spilled = True
            break
        if not spilled:
            return None
    return assignment
