"""Multi-user entanglement assignment.

Users demand end-to-end entanglement across the adapted link set; each
served demand consumes one stored entangled state per link of a simple
source-to-target path. The objective charges (1 - p_star) per assigned
state, so reliable links are preferred. Interference sets encode
contention between demands for the same resource state at intermediate
nodes; capacity bounds the aggregate rate per link.

Two solvers are provided: an exact one (branch-and-bound over per-demand
path options, up to BNB_VARIABLE_CAP binary variables) and a greedy one
that routes each demand and spills onto alternate links of an
intermediate node when a link's states are exhausted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Container, Mapping, MutableMapping, NamedTuple, Optional, Sequence

from .adaption import AdaptedLinkSet
from .basegraph import BaseGraph
from .errors import NotFoundError, TooLargeError, Violation
from .overlay import LinkId, NodeId, OverlayNetwork
from .routing import RoutingOutcome, route

StateId = int
DemandId = int
UserId = int
# An assignable resource state is identified by its link and in-link state id.
ResourceRef = tuple[LinkId, StateId]
CTriple = tuple[UserId, LinkId, StateId]
KTriple = tuple[UserId, DemandId, ResourceRef]
# route() outcomes over one instance's graph and adapted set, by (source, target).
RouteMemo = MutableMapping[tuple[NodeId, NodeId], RoutingOutcome]

# Largest instance, in binary variables, that solve_exact accepts.
BNB_VARIABLE_CAP = 40
# Most (path, state per link) options that solve_exact lists for one demand.
OPTION_CAP = 200_000


@dataclass(frozen=True, slots=True)
class Demand:
    """One user's request for end-to-end entanglement at a given rate, a
    finite number >= 0."""

    user: UserId
    source: NodeId
    target: NodeId
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError("demand source and target must differ")
        if self.rate < 0:
            raise ValueError(f"demand rate must be >= 0, got {self.rate}")
        if not self.rate < math.inf:  # NaN fails this comparison too
            raise ValueError(f"demand rate must be finite, got {self.rate}")


@dataclass(frozen=True, slots=True)
class ResourceSet:
    """The stored entangled states available on one link."""

    link: LinkId
    states: tuple[StateId, ...]

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"resource set of link {self.link} has duplicate state ids")


@dataclass(frozen=True, slots=True)
class InterferenceSet:
    """Demands contending for one resource state at an intermediate node.

    competing holds (user, demand id) pairs; at most one of them may be
    granted the state.
    """

    link: LinkId
    state: StateId
    competing: tuple[tuple[UserId, DemandId], ...]

    def __post_init__(self) -> None:
        if len(self.competing) < 2:
            raise ValueError("an interference set needs at least two competing demands")

    @property
    def resource(self) -> ResourceRef:
        return (self.link, self.state)

    @property
    def competing_demands(self) -> frozenset[DemandId]:
        return frozenset(q for _, q in self.competing)


@dataclass(frozen=True)
class AssignmentInstance:
    network: OverlayNetwork
    graph: BaseGraph
    adapted: AdaptedLinkSet
    demands: tuple[Demand, ...]
    resource_sets: Mapping[LinkId, ResourceSet]
    interference: tuple[InterferenceSet, ...] = ()

    def demand(self, qid: DemandId) -> Demand:
        try:
            return self.demands[qid]
        except IndexError:
            raise NotFoundError(f"no demand with id {qid}") from None

    def demand_of_user(self, user: UserId) -> tuple[DemandId, Demand]:
        for qid, d in enumerate(self.demands):
            if d.user == user:
                return qid, d
        raise NotFoundError(f"no demand for user {user}")

    def states_of(self, link: LinkId) -> tuple[StateId, ...]:
        rs = self.resource_sets.get(link)
        return rs.states if rs is not None else ()

    def n_variables(self) -> int:
        """Total count of binary assignment variables (demands times states)."""
        return len(self.demands) * sum(len(rs.states) for rs in self.resource_sets.values())


def validate_instance(instance: AssignmentInstance) -> list[Violation]:
    """Structural checks: link membership, state sizes, user uniqueness. Each
    message starts with the field path of its record in an instance file."""
    violations: list[Violation] = []

    def report(code: str, subject: object, path: str, message: str) -> None:
        violations.append(Violation(code, subject, f"instance{path}: {message}"))

    placement, adapted = instance.graph.placement, instance.adapted.links
    users: set[UserId] = set()
    for qid, d in enumerate(instance.demands):
        users.add(d.user)
        if len(users) == qid:  # the user already had an earlier demand
            report("duplicate-user", [e.user for e in instance.demands],
                   f".demands[{qid}].user", f"user {d.user} already has a demand")
        if d.source not in placement:
            report("unmapped-node", d.source, f".demands[{qid}].source",
                   f"demand endpoint {d.source} is not placed")
        if d.target not in placement:
            report("unmapped-node", d.target, f".demands[{qid}].target",
                   f"demand endpoint {d.target} is not placed")
    for i, (link_id, rs) in enumerate(instance.resource_sets.items()):
        try:
            link = instance.network.link_by_id(link_id)
        except NotFoundError:
            report("unknown-link", link_id, f".resource_sets[{i}].link",
                   f"link {link_id} not in network")
            continue
        if link_id not in adapted:
            report("link-outside-adapted", link_id, f".resource_sets[{i}].link",
                   f"link {link_id} is outside the adapted set")
        if len(rs.states) != link.resource_count:
            report("resource-count-mismatch", link_id, f".resource_sets[{i}].states",
                   f"link {link_id} stores {link.resource_count} states, "
                   f"the set lists {len(rs.states)}")
    known = {(d.user, qid) for qid, d in enumerate(instance.demands)}
    for i, iset in enumerate(instance.interference):
        if iset.state not in instance.states_of(iset.link):
            report("unknown-state", iset.resource, f".interference[{i}].state",
                   f"link {iset.link} has no state {iset.state}")
        for j, entry in enumerate(iset.competing):
            if entry not in known:
                report("unknown-demand", entry, f".interference[{i}].competing[{j}]",
                       f"user {entry[0]} has no demand {entry[1]}")
    return violations


@dataclass(frozen=True)
class AssignmentSolution:
    """Binary assignment variables as sparse sets of set-to-one triples."""

    C: frozenset[CTriple]
    K: frozenset[KTriple] = frozenset()

    @staticmethod
    def from_C(instance: AssignmentInstance, C: frozenset[CTriple]) -> "AssignmentSolution":
        return AssignmentSolution(C=frozenset(C), K=derive_grants(instance, C))


def derive_grants(instance: AssignmentInstance, C: frozenset[CTriple]) -> frozenset[KTriple]:
    """Grant variables implied by C: a competing demand holding the contested state."""
    grants: set[KTriple] = set()
    for iset in instance.interference:
        for user, qid in iset.competing:
            if (user, iset.link, iset.state) in C:
                grants.add((user, qid, iset.resource))
    return frozenset(grants)


def _check_refs(instance: AssignmentInstance, solution: AssignmentSolution) -> None:
    for user, link, state in solution.C:
        if state not in instance.states_of(link):
            raise NotFoundError(f"assignment references missing state {state} on link {link}")
        instance.demand_of_user(user)


def objective(instance: AssignmentInstance, solution: AssignmentSolution) -> float:
    """Total unreliability cost: sum of (1 - p_star) over assigned states."""
    _check_refs(instance, solution)
    return sum(1.0 - instance.adapted.link_p_star(link) for _, link, _ in solution.C)


def check_capacity(
    instance: AssignmentInstance, solution: AssignmentSolution
) -> list[Violation]:
    """Per-link aggregate rate against the link's entanglement throughput."""
    _check_refs(instance, solution)
    load: dict[LinkId, float] = {}
    for user, link, _ in solution.C:
        _, demand = instance.demand_of_user(user)
        load[link] = load.get(link, 0.0) + demand.rate
    violations = []
    for link_id in sorted(load):
        capacity = instance.network.link_by_id(link_id).throughput
        if load[link_id] > capacity:
            violations.append(
                Violation("capacity", link_id,
                          f"link {link_id}: assigned rate {load[link_id]} exceeds "
                          f"throughput {capacity}")
            )
    return violations


def check_interference(
    instance: AssignmentInstance, solution: AssignmentSolution
) -> list[Violation]:
    """At most one competing demand granted per contested resource state."""
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


def _user_entries(solution: AssignmentSolution, user: UserId) -> list[tuple[LinkId, StateId]]:
    return sorted((link, state) for u, link, state in solution.C if u == user)


def _path_orientation(
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


def flow_imbalance(
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
    entries = _user_entries(solution, user)
    hops = _path_orientation(instance, demand, entries)
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


class SolveStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome; on infeasibility the solution covers served demands only."""

    status: SolveStatus
    solution: AssignmentSolution
    objective: Optional[float]
    served: tuple[DemandId, ...] = ()
    rejected: tuple[DemandId, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.FEASIBLE


class _Option(NamedTuple):
    """One way to serve a demand: a path with one chosen state per link."""

    cost: float
    entries: tuple[tuple[LinkId, StateId], ...]


def enumerate_simple_paths(
    instance: AssignmentInstance, source: NodeId, target: NodeId,
    only: Optional[Container[LinkId]] = None,
) -> list[tuple[tuple[NodeId, ...], tuple[LinkId, ...]]]:
    """All node-simple paths over the adapted set, link-resolved; when only
    is given, just the paths all of whose links are in it."""
    results: list[tuple[tuple[NodeId, ...], tuple[LinkId, ...]]] = []
    adjacency = instance.adapted.adjacency_on(instance.graph)

    def extend(nodes: list[NodeId], links: list[LinkId]) -> None:
        current = nodes[-1]
        if current == target:
            results.append((tuple(nodes), tuple(links)))
            return
        for nbr, lid, _ in adjacency.get(current, ()):
            if nbr in nodes or (only is not None and lid not in only):
                continue
            nodes.append(nbr)
            links.append(lid)
            extend(nodes, links)
            nodes.pop()
            links.pop()

    extend([source], [])
    return sorted(results)


def _demand_options(
    instance: AssignmentInstance,
    qid: DemandId,
    usable: Mapping[LinkId, list[ResourceRef]],
) -> list[_Option]:
    """The demand's options in (cost, entries) order, each link of a path
    taking one of its usable (link, state) entries. TooLargeError when
    all states of the links would give more than OPTION_CAP options."""
    demand = instance.demand(qid)
    options: list[_Option] = []
    total = 0
    # A path over a link without states counts no option and yields none,
    # so only links that hold states are walked.
    stated = {lid for lid, rs in instance.resource_sets.items() if rs.states}
    for _, links in enumerate_simple_paths(instance, demand.source, demand.target, stated):
        total += math.prod(len(instance.states_of(lid)) for lid in links)
        if total > OPTION_CAP:
            raise TooLargeError(f"demand {qid} has more than {OPTION_CAP} serving options")
        cost = sum(1.0 - instance.adapted.link_p_star(lid) for lid in links)
        combos = itertools.product(*(usable.get(lid, ()) for lid in links))
        options.extend(_Option(cost, combo) for combo in combos)
    options.sort()
    return options


def _result(instance: AssignmentInstance, C: Optional[frozenset[CTriple]]) -> SolveResult:
    all_demands = tuple(range(len(instance.demands)))
    if C is None:
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            solution=AssignmentSolution(frozenset(), frozenset()),
            objective=None,
            served=(),
            rejected=all_demands,
        )
    solution = AssignmentSolution.from_C(instance, C)
    return SolveResult(
        status=SolveStatus.FEASIBLE,
        solution=solution,
        objective=objective(instance, solution),
        served=all_demands,
        rejected=(),
    )


def _rivals(
    instance: AssignmentInstance,
) -> dict[tuple[DemandId, ResourceRef], frozenset[DemandId]]:
    """For each demand and resource state it competes for, the other
    demands that may not be granted that state alongside it."""
    rivals: dict[tuple[DemandId, ResourceRef], set[DemandId]] = {}
    for iset in instance.interference:
        competitors = iset.competing_demands
        for qid in competitors:
            rivals.setdefault((qid, iset.resource), set()).update(competitors - {qid})
    return {key: frozenset(qids) for key, qids in rivals.items() if qids}


def solve_exact(
    instance: AssignmentInstance, bnb_cap: int = BNB_VARIABLE_CAP
) -> SolveResult:
    """Minimum-cost assignment serving every demand, or infeasible.

    Branch-and-bound over per-demand path options solves instances of at
    most bnb_cap binary variables. Larger instances raise TooLargeError;
    use solve_greedy there.

    Equal-cost optima are broken by a fixed rule, not by search order: of
    the assignments with the minimum total cost, the result is the one
    whose sequence of per-demand (path cost, (link, state) entries in path
    order), taken in demand-id order, is lexicographically smallest.
    """
    n_vars = instance.n_variables()
    if n_vars > bnb_cap:
        raise TooLargeError(
            f"instance has {n_vars} binary variables, above the cap of {bnb_cap}"
        )
    # Demands in id order, options in (cost, entries) order and >= pruning
    # keep the first optimum found: the tie-break documented above.
    order = list(range(len(instance.demands)))
    rate = {qid: instance.demand(qid).rate for qid in order}
    capacity = {link.id: link.throughput for link in instance.network.links}
    rivals = _rivals(instance)
    # States of a link with the same rivals for every demand can be swapped
    # in any assignment at no change in cost or feasibility, and putting the
    # smaller state first gives smaller entries: the rule's optimum opens
    # such twins in increasing order, so no other order is searched.
    earlier: dict[ResourceRef, tuple[StateId, ...]] = {}
    for link in instance.resource_sets:
        twins: dict[tuple, list[StateId]] = {}
        for state in sorted(instance.states_of(link)):
            key = tuple(rivals.get((qid, (link, state))) for qid in order)
            earlier[(link, state)] = tuple(twins.setdefault(key, []))
            twins[key].append(state)
    # Demand qid follows qid others, which hold at most qid states of a
    # link: a state with more smaller twins than that never opens in order.
    options: dict[DemandId, list[_Option]] = {}
    for qid in order:
        usable: dict[LinkId, list[ResourceRef]] = {}
        for ref in sorted(earlier):
            if len(earlier[ref]) <= qid:
                usable.setdefault(ref[0], []).append(ref)
        options[qid] = _demand_options(instance, qid, usable)
    if any(not opts for opts in options.values()):
        return _result(instance, None)

    best: Optional[frozenset[CTriple]] = None
    best_cost = float("inf")
    chosen: dict[DemandId, _Option] = {}
    load: dict[LinkId, float] = {}
    granted: dict[ResourceRef, set[DemandId]] = {}

    def fits(qid: DemandId, opt: _Option) -> bool:
        for ref in opt.entries:
            link = ref[0]
            if load.get(link, 0.0) + rate[qid] > capacity[link]:
                return False
            held = granted.get(ref)
            if held and not held.isdisjoint(rivals.get((qid, ref), ())):
                return False
        return True

    def opens_in_order(opt: _Option) -> bool:
        for link, state in opt.entries:
            if not granted.get((link, state)) and any(
                not granted.get((link, s)) for s in earlier[(link, state)]
            ):
                return False
        return True

    def open_tail(pos: int) -> Optional[float]:
        # The cheapest option that still fits, summed over the demands from
        # pos on; None when one has none left. Load and grants only grow
        # deeper in the search, so this bounds every completion from below.
        tail = 0.0
        for qid in reversed(order[pos:]):
            cheapest = next((opt.cost for opt in options[qid] if fits(qid, opt)), None)
            if cheapest is None:
                return None
            tail += cheapest
        return tail

    def descend(pos: int, cost: float) -> None:
        nonlocal best, best_cost
        if pos == len(order):
            C = frozenset(
                (instance.demand(q).user, link, state)
                for q, opt in chosen.items()
                for link, state in opt.entries
            )
            best, best_cost = C, cost
            return
        rest = open_tail(pos + 1)
        if rest is None:
            return
        qid = order[pos]
        for opt in options[qid]:
            if cost + opt.cost + rest >= best_cost:
                break  # options are cost-sorted
            if not opens_in_order(opt) or not fits(qid, opt):
                continue
            chosen[qid] = opt
            for link, state in opt.entries:
                load[link] = load.get(link, 0.0) + rate[qid]
                granted.setdefault((link, state), set()).add(qid)
            descend(pos + 1, cost + opt.cost)
            for link, state in opt.entries:
                load[link] -= rate[qid]
                granted[(link, state)].discard(qid)
            del chosen[qid]

    descend(0, 0.0)
    return _result(instance, best)


def solve_greedy(
    instance: AssignmentInstance, routes: Optional[RouteMemo] = None
) -> SolveResult:
    """Serve demands one by one along greedy routes, spilling onto alternate
    links of an intermediate node when a link's states run out.

    Demands are admitted in order of descending rate (ties by user index);
    demands that cannot be served with the remaining resources are
    rejected, and the result is infeasible when any rejection occurs.
    A served demand takes, on each link of its walk, the lowest state id
    no earlier served demand holds, so the states taken on a link are
    always the first ones in sorted order. No state is shared, which is
    stricter than the exact solver's constraint set but never violates it:
    in particular no interference set is ever granted twice.

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
    adjacency = instance.adapted.adjacency_on(instance.graph)
    capacity = {link.id: link.throughput for link in instance.network.links}
    # States taken and rate carried per link, by served demands only. A
    # demand's walk is node-simple and every link it asks for leads off
    # the walk, so it never asks twice for one link or for one it holds.
    used: dict[LinkId, int] = {}
    load: dict[LinkId, float] = {}
    C: set[CTriple] = set()
    served: list[DemandId] = []
    rejected: list[DemandId] = []
    order = sorted(
        range(len(instance.demands)),
        key=lambda q: (-instance.demand(q).rate, instance.demand(q).user),
    )
    for qid in order:
        demand = instance.demand(qid)
        rate = demand.rate
        pair = (demand.source, demand.target)
        outcome = routes.get(pair)
        if outcome is None:
            outcome = routes[pair] = route(instance.graph, instance.adapted, *pair)
        if not outcome.found:
            rejected.append(qid)
            continue
        nodes, links = outcome.path.nodes, outcome.path.links
        current = demand.source
        walked = {current}
        hops: list[LinkId] = []
        i = 0
        while i < len(links):
            link = links[i]
            if (used.get(link, 0) < len(instance.states_of(link))
                    and load.get(link, 0.0) + rate <= capacity[link]):
                hops.append(link)
                current = nodes[i + 1]
                walked.add(current)
                i += 1
                continue
            # The link has no state or capacity left here: spill onto another
            # link of this intermediate node and route onward from its far
            # endpoint. The full link fails the test below again, and the
            # link just walked leads back onto the walk.
            for nbr, alt, _ in adjacency.get(current, ()):
                if (nbr in walked or used.get(alt, 0) >= len(instance.states_of(alt))
                        or load.get(alt, 0.0) + rate > capacity[alt]):
                    continue
                pair = (nbr, demand.target)
                onward = routes.get(pair)
                if onward is None:
                    onward = routes[pair] = route(instance.graph, instance.adapted, *pair)
                if onward.found and walked.isdisjoint(onward.path.nodes):
                    hops.append(alt)
                    current = nbr
                    walked.add(current)
                    nodes, links, i = onward.path.nodes, onward.path.links, 0
                    break
            else:
                break  # no link leads on
        if i < len(links):
            rejected.append(qid)
            continue
        served.append(qid)
        for link in hops:
            n = used.get(link, 0)
            C.add((demand.user, link, sorted(instance.states_of(link))[n]))
            used[link] = n + 1
            load[link] = load.get(link, 0.0) + rate

    solution = AssignmentSolution.from_C(instance, frozenset(C))
    status = SolveStatus.FEASIBLE if not rejected else SolveStatus.INFEASIBLE
    return SolveResult(
        status=status,
        solution=solution,
        objective=objective(instance, solution) if not rejected else None,
        served=tuple(sorted(served)),
        rejected=tuple(sorted(rejected)),
    )
