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
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from math import inf
from operator import sub
from pathlib import Path as FilePath
from typing import AbstractSet, Any, Mapping, Optional, Sequence, Union

from etopo import (
    AssignmentInstance,
    AssignmentSolution,
    ConfigError,
    ConflictGraph,
    Demand,
    EntangledLink,
    FailureEvent,
    FailureKind,
    GeneratorParams,
    InterferenceSet,
    InvalidLevelError,
    NotFoundError,
    OverlayNetwork,
    Path,
    PlacementError,
    PStarMode,
    ResourceSet,
    RouteStatus,
    RoutingOutcome,
    SolveResult,
    ThresholdPolicy,
    adapt,
    l1_distance,
    link_existence_probability,
    make_network,
    map_overlay,
    objective,
    route,
    run_scenario,
    scenario_from_dict,
    solve_exact,
    solve_greedy,
    validate_instance,
)
from etopo.assignment import (
    CTriple,
    DemandId,
    LinkId,
    NodeId,
    ResourceRef,
    RouteMemo,
    StateId,
    UserId,
)
from etopo.coloring import Edge, Vertex, make_conflict_graph
from etopo.errors import Violation
from etopo.io import (
    BASE_GRAPH_FAULTS,
    PathLike,
    _check_network,
    _load_json,
    base_graph_fault,
    failure_from_dict,
    network_file_from_dict,
)
from etopo.scenario import Scenario

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
        return RoutingOutcome(RouteStatus.FOUND, Path((source,), ()), 0)
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
                                  steps)
    return RoutingOutcome(RouteStatus.UNREACHABLE, None, steps)


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
        return RoutingOutcome(RouteStatus.UNREACHABLE, None, 0)
    nodes, links = [target], []
    while parent[nodes[-1]] is not None:
        prev, lid = parent[nodes[-1]]
        nodes.append(prev)
        links.append(lid)
    nodes.reverse()
    links.reverse()
    return RoutingOutcome(RouteStatus.FOUND, Path(tuple(nodes), tuple(links)),
                          len(links))


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


# -- earlier forms of the contact rows and the greedy walk --------------------
#
# map_overlay's rows made in link order, and route as it read each contact
# whole. The package makes each row's triples together and reads a
# contact's cell first; rows, walks and errors must be the same.


def reference_contacts(network, placement):
    """The rows map_overlay builds for network under placement, one link at a
    time, each row then sorted."""
    rows = defaultdict(list)
    cell = placement.get
    for link in network.links:
        a, b, link_id = link.a, link.b, link.id
        rows[a].append((b, link_id, cell(b)))
        rows[b].append((a, link_id, cell(a)))
    for row in rows.values():
        row.sort()
    return dict(zip(rows, map(tuple, rows.values())))


def reference_plan_route(graph, adapted, source, target, *, plan=None) -> RoutingOutcome:
    adjacency = adapted.adjacency_on(graph)
    target_coord = graph.coord(target)
    graph.coord(source)
    if source == target:
        return RoutingOutcome(RouteStatus.FOUND, Path((source,), ()), 0)

    planar = graph.k == 2
    if planar:
        tx, ty = target_coord
    if plan is not None:
        position, walked = plan
        # The furthest plan position among the visited nodes.
        furthest = position.get(source, -1)
    visited = {source}
    stack = [source]
    link_stack = []
    steps = 0
    while stack:
        # Rows are sorted by (node, link), so keeping the first strictly
        # closer unvisited contact breaks distance ties by lowest node, then
        # link. A visited contact can never be kept, so visited is tested
        # only for a contact that would be.
        best_dist, best_lid = inf, None
        try:
            for nbr, lid, cell in adjacency.get(stack[-1], ()):
                if planar:
                    x, y = cell
                    dist = abs(x - tx) + abs(y - ty)
                else:
                    dist = sum(map(abs, map(sub, cell, target_coord)))
                if dist < best_dist and nbr not in visited:
                    best_dist, best_nbr, best_lid = dist, nbr, lid
        except TypeError:
            # Only an unmapped neighbor's cell, None, fails to unpack.
            raise NotFoundError(
                f"node {nbr} is not mapped in the base-graph"
            ) from None
        steps += 1
        if best_lid is None:
            stack.pop()
            if link_stack:
                link_stack.pop()
            continue
        visited.add(best_nbr)
        stack.append(best_nbr)
        link_stack.append(best_lid)
        if best_nbr == target:
            return RoutingOutcome(
                RouteStatus.FOUND, Path(tuple(stack), tuple(link_stack)), steps
            )
        if plan is not None:
            at = position.get(best_nbr, -1)
            if at > furthest:
                furthest = at
                if not walked.isdisjoint(stack):
                    return RoutingOutcome(RouteStatus.BLOCKED, None, steps)
    return RoutingOutcome(RouteStatus.UNREACHABLE, None, steps)


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


def _reference_apply_failure(network: OverlayNetwork, event: FailureEvent) -> OverlayNetwork:
    link = network.link_by_id(event.target)
    if event.kind is FailureKind.REMOVE_LINK:
        return replace(network, links=tuple(l for l in network.links if l.id != event.target))
    keep = 1.0 - event.magnitude
    if event.kind is FailureKind.DEGRADE_SWAP:
        updated = replace(link, swap_success=link.swap_success * keep)
    elif event.kind is FailureKind.DEGRADE_FIDELITY:
        updated = replace(link, fidelity=link.fidelity * keep)
    else:
        updated = replace(link, photon_loss=1.0 - (1.0 - link.photon_loss) * keep)
    return replace(
        network,
        links=tuple(updated if l.id == event.target else l for l in network.links),
    )


def reference_apply_failures(network: OverlayNetwork, events, until=None) -> OverlayNetwork:
    """One event at a time, each copying the whole network; an event whose
    target is missing raises NotFoundError and is skipped."""
    for event in sorted(events, key=lambda e: (e.time, e.target, e.kind.value)):
        if until is not None and event.time > until:
            continue
        try:
            network = _reference_apply_failure(network, event)
        except NotFoundError:
            continue
    return network


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


def feasible_pool(count=200, seed=1003):
    """Random instances where the exact solver found a solution, with both
    solvers' results attached."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        inst = random_instance(rng)
        if inst is None:
            continue
        exact = solve_exact(inst)
        if not exact.feasible:
            continue
        pool.append((inst, exact, solve_greedy(inst)))
    return pool


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


def is_proper_coloring(graph: ConflictGraph, color: dict[int, int]) -> bool:
    """Whether color, a {vertex: color} dict, colors every vertex of the
    graph and gives the two ends of each edge different colors."""
    return set(color) == graph.vertices and all(color[u] != color[v] for u, v in graph.edges)


# The three readings of interference as they were before the instance
# kept one rivalry index: each walks the interference sets in its own way.
# AssignmentInstance.rivals, check_interference and build_conflict_graph
# must agree with them.


def reference_rivals(
    instance: AssignmentInstance,
) -> dict[tuple[DemandId, ResourceRef], frozenset[DemandId]]:
    rivals: dict[tuple[DemandId, ResourceRef], set[DemandId]] = {}
    for iset in instance.interference:
        competitors = frozenset(q for _, q in iset.competing)
        for qid in competitors:
            rivals.setdefault((qid, iset.resource), set()).update(competitors - {qid})
    return {key: frozenset(qids) for key, qids in rivals.items() if qids}


def reference_check_interference(
    instance: AssignmentInstance, solution: AssignmentSolution
) -> list[Violation]:
    """One violation per interference set granted to two or more of its
    demands, by the set's own (user, demand) pairs."""
    violations = []
    for iset in instance.interference:
        granted = set()
        for user, qid in iset.competing:
            if (user, qid, iset.resource) in solution.K:
                granted.add(qid)
            if (user, iset.link, iset.state) in solution.C:
                granted.add(qid)
        if len(granted) > 1:
            violations.append(
                Violation("interference", iset.resource,
                          f"state {iset.resource} granted to {len(granted)} competing "
                          f"demands {sorted(granted)}")
            )
    return violations


# flow_imbalance as it was when it oriented the user's whole hop list:
# flow_imbalance must give the same value at every node for every user
# whose assignment references only stored states.


def _reference_user_entries(
    solution: AssignmentSolution, user: UserId
) -> list[tuple[LinkId, StateId]]:
    return sorted((link, state) for u, link, state in solution.C if u == user)


def _reference_path_orientation(
    instance: AssignmentInstance, demand: Demand, entries: Sequence[tuple[LinkId, StateId]]
) -> Optional[list[tuple[LinkId, NodeId, NodeId]]]:
    """Orient a user's assigned links by walking from the demand source.

    Returns (link, from, to) hops when the links form a simple path rooted
    at the source with one assigned state per link; None otherwise.
    """
    counts: dict[LinkId, int] = {}
    for link, _ in entries:
        counts[link] = counts.get(link, 0) + 1
    if not counts or any(c != 1 for c in counts.values()):
        return None
    unused = set(counts)
    current = demand.source
    seen = {current}
    hops: list[tuple[LinkId, NodeId, NodeId]] = []
    while unused:
        incident = [
            lid for lid in unused
            if current in instance.network.link_by_id(lid).endpoints
        ]
        if len(incident) != 1:
            return None
        lid = incident[0]
        nxt = instance.network.link_by_id(lid).other(current)
        if nxt in seen:
            return None
        hops.append((lid, current, nxt))
        seen.add(nxt)
        unused.discard(lid)
        current = nxt
    return hops


def reference_flow_imbalance(
    instance: AssignmentInstance,
    solution: AssignmentSolution,
    node: NodeId,
    user: UserId,
) -> int:
    """Net assigned flow of one user at a node: links out minus links onto it.

    Direction comes from walking the user's assigned links from the
    demand's source; assignments that do not form such a walk fall back to
    the links' stored endpoint order.
    """
    if node not in instance.graph.placement:
        raise NotFoundError(f"node {node} is not mapped")
    _, demand = instance.demand_of_user(user)
    entries = _reference_user_entries(solution, user)
    hops = _reference_path_orientation(instance, demand, entries)
    if hops is not None:
        out_flow = sum(1 for _, frm, _ in hops if frm == node)
        in_flow = sum(1 for _, _, to in hops if to == node)
        return out_flow - in_flow
    balance = 0
    for link_id, _ in entries:
        link = instance.network.link_by_id(link_id)
        if link.a == node:
            balance += 1
        elif link.b == node:
            balance -= 1
    return balance


def reference_build_conflict_graph(instance: AssignmentInstance) -> ConflictGraph:
    vertices: set[Vertex] = set()
    edges: set[Edge] = set()
    for iset in instance.interference:
        qids = sorted({q for _, q in iset.competing})
        vertices.update(qids)
        for i, u in enumerate(qids):
            for v in qids[i + 1:]:
                edges.add((u, v))
    return ConflictGraph(frozenset(vertices), frozenset(edges))


def parallel_chain(hops: int):
    """Nodes 0 .. hops in a chain, each hop two parallel links (levels 1 and
    2) of one state: 2 * hops assignment variables for one demand from end
    to end, but 2**hops simple paths."""
    return make_network(range(hops + 1), [
        EntangledLink(id=2 * i + j, a=i, b=i + 1, level=1 + j, throughput=9.0)
        for i in range(hops) for j in range(2)
    ])


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


def scenario_trials(payload: dict):
    """Run an `etopo run` scenario payload. Returns its records and, in
    trial order, the (instance, routable) pair that build_trial_instance
    returned for each trial."""
    import etopo.scenario

    build = etopo.scenario.build_trial_instance
    built = []

    def keep(*args, **kwargs):
        result = build(*args, **kwargs)
        built.append(result)
        return result

    etopo.scenario.build_trial_instance = keep
    try:
        records = run_scenario(scenario_from_dict(payload))
    finally:
        etopo.scenario.build_trial_instance = build
    return records, built


def trial_instances(payload: dict) -> list[AssignmentInstance]:
    """The assignment instance of each trial that run_scenario builds from
    an `etopo run` scenario payload, in trial order."""
    return [instance for instance, _ in scenario_trials(payload)[1]]


def small_scenario_payload(rng: random.Random) -> dict:
    """A generated scenario of a few nodes and demands, so routes cross."""
    nodes = rng.randint(5, 10)
    demands = []
    for user in range(rng.randint(2, 5)):
        source, target = rng.sample(range(nodes), 2)
        demands.append({"user": user, "source": source, "target": target,
                        "rate": rng.randint(1, 8) / 4})
    return {
        "seed": rng.randrange(2**16),
        "trials": 2,
        "generator": {"num_nodes": nodes, "num_links": rng.randint(nodes, 2 * nodes),
                      "levels": [1, 2], "resource_range": [1, 3]},
        "base_graph": {"k": 2, "n": 5},
        "demands": demands,
    }


def builder_pool(count=30, seed=47) -> list[AssignmentInstance]:
    """The trial instances of greedy_scenario_payload() and of count small
    random scenarios."""
    rng = random.Random(seed)
    pool = trial_instances(greedy_scenario_payload())
    for _ in range(count):
        pool.extend(trial_instances(small_scenario_payload(rng)))
    return pool


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
    return SolveResult(
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


# -- reference file readers ---------------------------------------------------
#
# The file readers field by field: every field of every record checked by
# its own call, with its field path formatted as it goes. The package reads
# a valid record with one test and builds it positionally; its readers must
# return equal objects (of the same types, so the same repr) for every
# document, or raise the same error with the same text.

_REFERENCE_LINK_FIELDS = (
    "id", "a", "b", "level", "swap_success", "photon_loss", "fidelity",
    "throughput", "resource_count",
)
_REFERENCE_LINK_INTEGERS = ("id", "a", "b", "level", "resource_count")
_REFERENCE_LINK_NUMBERS = ("swap_success", "photon_loss", "fidelity", "throughput")
_REFERENCE_INF = float("inf")
_REFERENCE_LINK_KEYS = frozenset(_REFERENCE_LINK_FIELDS)
_REFERENCE_PLACEMENT_KEYS = frozenset({"node", "coords"})
_REFERENCE_DEMAND_KEYS = frozenset({"user", "source", "target"})
_REFERENCE_DEMAND_OPTIONAL = frozenset({"rate"})
_REFERENCE_RESOURCE_SET_KEYS = frozenset({"link", "states"})
_REFERENCE_INTERFERENCE_KEYS = frozenset({"link", "state", "competing"})


def _reference_require(record: Mapping[str, Any], fields: AbstractSet[str], context: str,
                       optional: AbstractSet[str] = frozenset()) -> None:
    """record must be an object with every key of fields and no key outside
    fields and optional. A valid record costs one key-set comparison, plus
    a subset test when it holds optional keys; the set arithmetic below
    runs only to name the fault."""
    if type(record) is dict:
        keys = record.keys()
        if keys == fields or (optional and fields <= keys <= fields | optional):
            return
    if not isinstance(record, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = record.keys() - fields - optional
    if unknown:
        raise ConfigError(f"{context}: unknown fields {sorted(unknown)}")
    missing = fields - record.keys()
    if missing:
        raise ConfigError(f"{context}: missing fields {sorted(missing)}")


def _reference_path(context: str, key: Union[str, int]) -> str:
    return f"{context}[{key}]" if type(key) is int else f"{context}.{key}"


def _reference_integer(value: Any, context: str, key: Union[str, int],
                       minimum: Optional[int] = None) -> int:
    if type(value) is not int:  # bool is an int subclass, and no count or id
        raise ConfigError(f"{_reference_path(context, key)}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{_reference_path(context, key)}: must be >= {minimum}, got {value}")
    return value


def _reference_number(value: Any, context: str, key: Union[str, int]) -> Union[int, float]:
    if type(value) not in (int, float):  # bool is an int subclass, and no number
        raise ConfigError(f"{_reference_path(context, key)}: expected a number, got {value!r}")
    if not -_REFERENCE_INF < value < _REFERENCE_INF:  # NaN fails both comparisons
        raise ConfigError(
            f"{_reference_path(context, key)}: expected a finite number, got {value!r}")
    return value


def _reference_list(value: Any, context: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list")
    return value


def _reference_integer_list(value: Any, context: str, key: Union[str, int]) -> list:
    if type(value) is not list or any(type(v) is not int for v in value):
        raise ConfigError(
            f"{_reference_path(context, key)}: expected a list of integers, got {value!r}")
    return value


def _reference_integer_pairs(value: Any, context: str, key: Union[str, int]) -> tuple:
    """value, a list of [int, int] lists, as a tuple of pairs."""
    if type(value) is not list or any(
        type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int
        for p in value
    ):
        raise ConfigError(
            f"{_reference_path(context, key)}: expected a list of integer pairs, got {value!r}"
        )
    return tuple((u, v) for u, v in value)


def reference_network_from_dict(data: Mapping[str, Any],
                                context: str = "network") -> OverlayNetwork:
    """The network block at field path context ("instance.network" inline),
    checked as a whole by overlay.validate."""
    network = _reference_network_records_from_dict(data, context)
    _check_network(network, context)
    return network


def _reference_network_records_from_dict(data: Mapping[str, Any], context: str) -> OverlayNetwork:
    """The network block at field path context, each node and link record
    checked, but not the network as a whole: Scenario.__post_init__ runs
    _check_network on its inline network, so a scenario reads its block
    with this and checks it once."""
    _reference_require(data, {"nodes", "links"}, context)
    nodes: set[int] = set()
    for i, node in enumerate(_reference_list(data["nodes"], f"{context}.nodes")):
        nodes.add(_reference_integer(node, f"{context}.nodes", i))
        if len(nodes) == i:  # the node was listed before
            raise ConfigError(f"{context}.nodes[{i}]: node {node} appears more than once")
    links = []
    for i, record in enumerate(_reference_list(data["links"], f"{context}.links")):
        where = f"{context}.links[{i}]"
        _reference_require(record, _REFERENCE_LINK_KEYS, where)
        for key in _REFERENCE_LINK_INTEGERS:
            _reference_integer(record[key], where, key)
        for key in _REFERENCE_LINK_NUMBERS:
            _reference_number(record[key], where, key)
        try:
            link = EntangledLink(**record)
        except (ValueError, InvalidLevelError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        links.append(link)
    return make_network(nodes, links)


def reference_load_network(path: PathLike) -> OverlayNetwork:
    return reference_network_from_dict(_load_json(path))


def reference_placement_from_list(data: Any,
                                  context: str = "placement") -> dict[int, tuple[int, ...]]:
    """The placement list at field path context."""
    placement: dict[int, tuple[int, ...]] = {}
    for i, record in enumerate(_reference_list(data, context)):
        where = f"{context}[{i}]"
        _reference_require(record, _REFERENCE_PLACEMENT_KEYS, where)
        node = _reference_integer(record["node"], where, "node")
        placement[node] = tuple(_reference_integer_list(record["coords"], where, "coords"))
        if len(placement) == i:  # the record replaced an earlier one
            raise ConfigError(f"{where}.node: node {node} is placed more than once")
    return placement


def reference_base_graph_from_dict(
    data: Mapping[str, Any], context: str, seeded: bool = True
) -> tuple[int, int, Optional[dict[int, tuple[int, ...]]], Optional[int]]:
    """The k, n, placement and seed (None when absent) of a base_graph
    record; map_overlay needs k >= 1, n >= 2. Only a seeded record has a seed."""
    _reference_require(data, {"k", "n"}, context,
                       optional={"placement", "seed"} if seeded else {"placement"})
    return (
        _reference_integer(data["k"], context, "k", minimum=1),
        _reference_integer(data["n"], context, "n", minimum=2),
        (reference_placement_from_list(data["placement"], f"{context}.placement")
         if "placement" in data else None),
        _reference_integer(data["seed"], context, "seed") if "seed" in data else None,
    )


def reference_thresholds_from_dict(data: Mapping[str, Any],
                                   context: str = "thresholds") -> ThresholdPolicy:
    """The thresholds block at field path context. Each levels key is a
    level, an integer >= 1 in decimal digits without leading zeros, so no
    two keys name one level."""
    _reference_require(data, set(), context, optional={"default", "levels"})
    levels = data.get("levels", {})
    where = f"{context}.levels"
    if not isinstance(levels, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in levels:
        if not (key.isascii() and key.isdigit() and key[0] != "0"):
            raise ConfigError(f"{where}.{key}: expected an integer level >= 1 "
                              f"without leading zeros")
    try:
        return ThresholdPolicy(
            default=float(_reference_number(data.get("default", 0.0), context, "default")),
            per_level={int(l): float(_reference_number(t, where, l)) for l, t in levels.items()},
        )
    except ValueError as exc:  # the policy's range check names the key first
        raise ConfigError(f"{context}.{exc}") from exc


def reference_pstar_mode_from_dict(data: Mapping[str, Any], context: str) -> ThresholdPolicy:
    """The adaption rule of the scenario or instance record at field path
    context: its thresholds block, with its pstar_mode key as the mode."""
    policy = reference_thresholds_from_dict(data.get("thresholds", {}), f"{context}.thresholds")
    try:
        return replace(policy, mode=PStarMode(data.get("pstar_mode", "measured")))
    except ValueError as exc:
        raise ConfigError(f"{context}.pstar_mode: {exc}") from exc


def reference_generator_from_dict(data: Mapping[str, Any], context: str) -> GeneratorParams:
    _reference_require(data, set(), context, optional={f.name for f in fields(GeneratorParams)})
    try:
        return GeneratorParams(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        })
    except ConfigError as exc:
        # GeneratorParams names the field first: "swap_range: ...".
        raise ConfigError(f"{context}.{exc}") from exc


def reference_demand_from_dict(data: Mapping[str, Any], context: str) -> Demand:
    _reference_require(data, _REFERENCE_DEMAND_KEYS, context, optional=_REFERENCE_DEMAND_OPTIONAL)
    try:
        return Demand(
            user=_reference_integer(data["user"], context, "user"),
            source=_reference_integer(data["source"], context, "source"),
            target=_reference_integer(data["target"], context, "target"),
            rate=_reference_number(data.get("rate", 0.0), context, "rate"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def reference_demands_from_list(data: Any, context: str) -> tuple[Demand, ...]:
    return tuple(
        reference_demand_from_dict(d, f"{context}[{i}]")
        for i, d in enumerate(_reference_list(data, context))
    )


def reference_instance_from_dict(
    data: Mapping[str, Any], base_dir: Optional[FilePath] = None
) -> AssignmentInstance:
    _reference_require(
        data,
        {"base_graph", "demands", "resource_sets"},
        "instance",
        optional={"network", "network_file", "thresholds", "pstar_mode", "interference"},
    )
    if ("network" in data) == ("network_file" in data):
        raise ConfigError("instance: provide exactly one of network, network_file")
    network_file = network_file_from_dict(data, "instance", base_dir)
    network = (reference_network_from_dict(data["network"], "instance.network")
               if network_file is None else reference_load_network(network_file))
    k, n, placement, seed = reference_base_graph_from_dict(
        data["base_graph"], "instance.base_graph")
    if placement is None and seed is None:  # else each load would place anew
        raise ConfigError("instance.base_graph: provide placement or seed")
    try:
        graph = map_overlay(network, k, n, placement=placement, seed=seed)
    except BASE_GRAPH_FAULTS as exc:
        raise base_graph_fault(exc, "instance.base_graph") from None
    adapted = adapt(graph, network, reference_pstar_mode_from_dict(data, "instance"))
    demands = reference_demands_from_list(data["demands"], "instance.demands")
    resource_sets = {}
    for i, record in enumerate(_reference_list(data["resource_sets"], "instance.resource_sets")):
        where = f"instance.resource_sets[{i}]"
        _reference_require(record, _REFERENCE_RESOURCE_SET_KEYS, where)
        link = _reference_integer(record["link"], where, "link")
        states = _reference_integer_list(record["states"], where, "states")
        try:
            resource_sets[link] = ResourceSet(link=link, states=tuple(states))
        except ValueError as exc:
            raise ConfigError(f"{where}.states: {exc}") from exc
        if len(resource_sets) == i:  # the record replaced an earlier one
            raise ConfigError(f"{where}.link: link {link} has more than one resource set")
    interference = []
    for i, record in enumerate(
            _reference_list(data.get("interference", []), "instance.interference")):
        where = f"instance.interference[{i}]"
        _reference_require(record, _REFERENCE_INTERFERENCE_KEYS, where)
        try:
            interference.append(InterferenceSet(
                link=_reference_integer(record["link"], where, "link"),
                state=_reference_integer(record["state"], where, "state"),
                competing=_reference_integer_pairs(record["competing"], where, "competing"),
            ))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    instance = AssignmentInstance(
        network=network,
        graph=graph,
        adapted=adapted,
        demands=demands,
        resource_sets=resource_sets,
        interference=tuple(interference),
    )
    violations = validate_instance(instance)
    if violations:
        raise ConfigError("; ".join(v.message for v in violations))
    return instance


def reference_load_instance(path: PathLike) -> AssignmentInstance:
    path = FilePath(path)
    return reference_instance_from_dict(_load_json(path), base_dir=path.parent)


def reference_conflict_graph_from_dict(data: Mapping[str, Any]) -> ConflictGraph:
    _reference_require(data, {"vertices", "edges"}, "graph")
    vertices: set[int] = set()
    for i, vertex in enumerate(_reference_integer_list(data["vertices"], "graph", "vertices")):
        vertices.add(vertex)
        if len(vertices) == i:  # the vertex was listed before
            raise ConfigError(f"graph.vertices[{i}]: vertex {vertex} appears more than once")
    try:
        return make_conflict_graph(
            vertices,
            _reference_integer_pairs(data["edges"], "graph", "edges"),
        )
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from exc


def reference_scenario_from_dict(data: Mapping[str, Any],
                                 base_dir: Optional[FilePath] = None) -> Scenario:
    _reference_require(
        data,
        {"seed", "trials", "base_graph", "demands"},
        "scenario",
        optional={"network", "network_file", "generator", "thresholds",
                  "pstar_mode", "failures"},
    )
    k, n, placement, _ = reference_base_graph_from_dict(
        data["base_graph"], "scenario.base_graph", seeded=False)
    return Scenario(
        seed=_reference_integer(data["seed"], "scenario", "seed"),
        trials=_reference_integer(data["trials"], "scenario", "trials", minimum=1),
        network_file=network_file_from_dict(data, "scenario", base_dir),
        # Scenario.__post_init__ checks the inline network as a whole.
        network_inline=(_reference_network_records_from_dict(data["network"], "scenario.network")
                        if "network" in data else None),
        generator=(reference_generator_from_dict(data["generator"], "scenario.generator")
                   if "generator" in data else None),
        k=k,
        n=n,
        placement=placement,
        thresholds=reference_pstar_mode_from_dict(data, "scenario"),
        demands=reference_demands_from_list(data["demands"], "scenario.demands"),
        failures=tuple(
            failure_from_dict(f, f"scenario.failures[{i}]")
            for i, f in enumerate(_reference_list(data.get("failures", []), "scenario.failures"))
        ),
    )
