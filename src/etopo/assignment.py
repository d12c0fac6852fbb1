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
from functools import cached_property
from typing import Collection, Mapping, MutableMapping, NamedTuple, Optional, Sequence

from .adaption import AdaptedLinkSet
from .basegraph import BaseGraph
from .errors import NotFoundError, TooLargeError, Violation
from .overlay import LinkId, NodeId, OverlayNetwork, frozen_record, slot_setters
from .routing import Plan, RouteStatus, RoutingOutcome, route

StateId = int
DemandId = int
UserId = int
# An assignable resource state is identified by its link and in-link state id.
ResourceRef = tuple[LinkId, StateId]
CTriple = tuple[UserId, LinkId, StateId]
KTriple = tuple[UserId, DemandId, ResourceRef]
# Outcomes of route() walks that ran to the end over one instance's graph
# and adapted set, by (source, target).
RouteMemo = MutableMapping[tuple[NodeId, NodeId], RoutingOutcome]

# Largest instance, in binary variables, that solve_exact accepts.
BNB_VARIABLE_CAP = 40
# Most (path, state per link) options that solve_exact lists for one demand.
OPTION_CAP = 200_000


@frozen_record
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


@frozen_record
@dataclass(frozen=True, slots=True, init=False)
class ResourceSet:
    """The stored entangled states available on one link."""

    link: LinkId
    states: tuple[StateId, ...]

    def __init__(self, link: LinkId, states: tuple[StateId, ...]) -> None:
        if len(set(states)) != len(states):
            raise ValueError(f"resource set of link {link} has duplicate state ids")
        _set_rs_link(self, link)
        _set_rs_states(self, states)


@frozen_record
@dataclass(frozen=True, slots=True, init=False)
class InterferenceSet:
    """Demands contending for one resource state at an intermediate node.

    competing holds (user, demand id) pairs; at most one of them may be
    granted the state.
    """

    link: LinkId
    state: StateId
    competing: tuple[tuple[UserId, DemandId], ...]

    def __init__(
        self, link: LinkId, state: StateId, competing: tuple[tuple[UserId, DemandId], ...]
    ) -> None:
        if len(competing) < 2:
            raise ValueError("an interference set needs at least two competing demands")
        _set_is_link(self, link)
        _set_is_state(self, state)
        _set_is_competing(self, competing)

    @property
    def resource(self) -> ResourceRef:
        return (self.link, self.state)


_set_rs_link, _set_rs_states = slot_setters(ResourceSet)
_set_is_link, _set_is_state, _set_is_competing = slot_setters(InterferenceSet)


@dataclass(frozen=True)
class AssignmentInstance:
    network: OverlayNetwork
    graph: BaseGraph
    adapted: AdaptedLinkSet
    demands: tuple[Demand, ...]
    resource_sets: Mapping[LinkId, ResourceSet]
    interference: tuple[InterferenceSet, ...] = ()

    def demand(self, qid: DemandId) -> Demand:
        if not 0 <= qid < len(self.demands):
            raise NotFoundError(f"no demand with id {qid}")
        return self.demands[qid]

    @cached_property
    def _by_user(self) -> dict[UserId, DemandId]:
        return {d.user: qid for qid, d in reversed(list(enumerate(self.demands)))}

    def demand_of_user(self, user: UserId) -> tuple[DemandId, Demand]:
        """The user's first demand, with its id."""
        try:
            qid = self._by_user[user]
        except KeyError:
            raise NotFoundError(f"no demand for user {user}") from None
        return qid, self.demands[qid]

    @cached_property
    def rivals(self) -> dict[tuple[DemandId, ResourceRef], tuple[DemandId, ...]]:
        """For each demand and resource state an interference set names it
        on, the other demands of those sets in id order: the demands that
        may not hold that state alongside it. Two sets on one state make no
        rivals of each other's demands. The index lives as long as the
        instance, so its values are tuples: under half the memory of sets."""
        rivals: dict[tuple[DemandId, ResourceRef], set[DemandId]] = {}
        for iset in self.interference:
            ref, competitors = iset.resource, {q for _, q in iset.competing}
            for qid in competitors:
                rivals.setdefault((qid, ref), set()).update(competitors - {qid})
        return {key: tuple(sorted(qids)) for key, qids in rivals.items() if qids}

    def states_of(self, link: LinkId) -> tuple[StateId, ...]:
        rs = self.resource_sets.get(link)
        return rs.states if rs is not None else ()

    def n_variables(self) -> int:
        """Total count of binary assignment variables (demands times states)."""
        return len(self.demands) * sum(len(rs.states) for rs in self.resource_sets.values())


def validate_instance(instance: AssignmentInstance) -> list[Violation]:
    """Structural checks: link membership, state sizes, user uniqueness,
    demands named once per interference record. Each message starts with
    the field path of its record in an instance file."""
    violations: list[Violation] = []

    def report(code: str, subject: object, path: str, message: str) -> None:
        violations.append(Violation(code, subject, f"instance{path}: {message}"))

    placement, adapted = instance.graph.placement, instance.adapted.links
    users: set[UserId] = set()
    for qid, d in enumerate(instance.demands):
        if d.user in users:
            report("duplicate-user", [e.user for e in instance.demands],
                   f".demands[{qid}].user", f"user {d.user} already has a demand")
        users.add(d.user)
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
        listed: set[tuple[UserId, DemandId]] = set()
        for j, entry in enumerate(iset.competing):
            if entry not in known:
                report("unknown-demand", entry, f".interference[{i}].competing[{j}]",
                       f"user {entry[0]} has no demand {entry[1]}")
            if entry in listed:
                report("repeated-demand", entry, f".interference[{i}].competing[{j}]",
                       f"demand {entry[1]} of user {entry[0]} is already listed")
            listed.add(entry)
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
    """No resource state assigned or granted to two demands that are
    rivals for it; one violation per such state, naming the demands that
    hold it alongside a rival."""
    _check_refs(instance, solution)
    holders: dict[ResourceRef, set[DemandId]] = {}
    for user, link, state in solution.C:
        holders.setdefault((link, state), set()).add(instance._by_user[user])
    for _, qid, ref in solution.K:
        holders.setdefault(ref, set()).add(qid)
    violations = []
    for ref, held in sorted(holders.items()):
        granted = sorted(q for q in held if not held.isdisjoint(instance.rivals.get((q, ref), ())))
        if granted:
            violations.append(Violation("interference", ref, f"state {ref} granted to "
                                        f"{len(granted)} competing demands {granted}"))
    return violations


def _walk_end(
    instance: AssignmentInstance, source: NodeId, links: Sequence[LinkId]
) -> Optional[NodeId]:
    """The far end of the simple path that links form from source, or None
    when there is no link, a link comes twice, or the walk meets a branch
    or a gap. The walk needs no test for a revisited node: it could come
    back to one only over a link that met that node when it left, a branch."""
    unused = {lid: instance.network.link_by_id(lid) for lid in links}
    if not unused or len(unused) != len(links):
        return None
    current = source
    while unused:
        incident = [lid for lid, link in unused.items() if current in link.endpoints]
        if len(incident) != 1:
            return None
        current = unused.pop(incident[0]).other(current)
    return current


def flow_imbalance(
    instance: AssignmentInstance,
    solution: AssignmentSolution,
    node: NodeId,
    user: UserId,
) -> int:
    """Net assigned flow of one user at a node: links out minus links onto it.

    When the user's links form a simple path from the demand's source, that
    is +1 at the source, -1 at the path's far end and 0 elsewhere; other
    assignments read each link from its stored endpoint a to b.
    """
    _check_refs(instance, solution)
    if node not in instance.graph.placement:
        raise NotFoundError(f"node {node} is not mapped")
    _, demand = instance.demand_of_user(user)
    links = [link for u, link, _ in solution.C if u == user]
    end = _walk_end(instance, demand.source, links)
    if end is not None:
        return (node == demand.source) - (node == end)
    return sum((link.a == node) - (link.b == node)
               for link in map(instance.network.link_by_id, links))


class SolveStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome; on infeasibility the solution covers served demands
    only. A result is feasible exactly when no demand is rejected."""

    solution: AssignmentSolution
    objective: Optional[float]
    served: tuple[DemandId, ...] = ()
    rejected: tuple[DemandId, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.rejected

    @property
    def status(self) -> SolveStatus:
        return SolveStatus.INFEASIBLE if self.rejected else SolveStatus.FEASIBLE


class _Option(NamedTuple):
    """One way to serve a demand: a path with one chosen state per link."""

    cost: float
    entries: tuple[tuple[LinkId, StateId], ...]


def enumerate_simple_paths(
    instance: AssignmentInstance, source: NodeId, target: NodeId
) -> list[tuple[LinkId, ...]]:
    """The links of every node-simple path over adapted links that hold
    states, in no set order.

    Each path gives solve_exact one option per choice of a state on each of
    its links. The walk raises TooLargeError as soon as the paths it has
    found give more than OPTION_CAP options."""
    results: list[tuple[LinkId, ...]] = []
    adjacency = instance.adapted.adjacency_on(instance.graph)
    # A path over a link without states gives no option, so it is not walked.
    stored = {lid: len(rs.states) for lid, rs in instance.resource_sets.items() if rs.states}
    walked, links = {source}, []
    total = 0

    def extend(current: NodeId, options: int) -> None:
        nonlocal total
        if current == target:
            total += options
            if total > OPTION_CAP:
                raise TooLargeError(f"more than {OPTION_CAP} options serve "
                                    f"node {source} to node {target}")
            results.append(tuple(links))
            return
        for nbr, lid, _ in adjacency.get(current, ()):
            if nbr in walked or lid not in stored:
                continue
            walked.add(nbr)
            links.append(lid)
            extend(nbr, options * stored[lid])
            walked.discard(nbr)
            links.pop()

    try:
        extend(source, 1)
    finally:
        extend = None  # the closure refers to itself: free it by refcount
    return results


def _demand_options(
    instance: AssignmentInstance,
    qid: DemandId,
    usable: Mapping[LinkId, list[ResourceRef]],
) -> list[_Option]:
    """The demand's options in (cost, entries) order, each link of a path
    taking one of its usable (link, state) entries. No two options have
    equal entries, so the order does not depend on how paths are listed."""
    demand = instance.demand(qid)
    options: list[_Option] = []
    for links in enumerate_simple_paths(instance, demand.source, demand.target):
        cost = sum(1.0 - instance.adapted.link_p_star(lid) for lid in links)
        combos = itertools.product(*(usable.get(lid, ()) for lid in links))
        options.extend(_Option(cost, combo) for combo in combos)
    options.sort()
    return options


def _result(
    instance: AssignmentInstance,
    C: frozenset[CTriple],
    rejected: Collection[DemandId] = (),
) -> SolveResult:
    """The result that serves every demand outside rejected by the
    assignment C; only a result that rejects none has an objective."""
    solution = AssignmentSolution.from_C(instance, C)
    demands = range(len(instance.demands))
    return SolveResult(
        solution=solution,
        objective=None if rejected else objective(instance, solution),
        served=tuple(q for q in demands if q not in rejected),
        rejected=tuple(q for q in demands if q in rejected),
    )


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
    n_demands = len(instance.demands)
    rate = [d.rate for d in instance.demands]
    capacity = {link.id: link.throughput for link in instance.network.links}
    rivals = instance.rivals
    # States of a link with the same rivals for every demand can be swapped
    # in any assignment at no change in cost or feasibility, and putting the
    # smaller state first gives smaller entries: the rule's optimum opens
    # such twins in increasing order, so no other order is searched. A
    # state no interference set names has no rivals: its key is None.
    named = {ref for _, ref in rivals}
    earlier: dict[ResourceRef, tuple[StateId, ...]] = {}
    for link in instance.resource_sets:
        twins: dict[Optional[tuple], list[StateId]] = {}
        for state in sorted(instance.states_of(link)):
            ref = (link, state)
            key = (tuple(rivals.get((qid, ref)) for qid in range(n_demands))
                   if ref in named else None)
            earlier[ref] = tuple(twins.setdefault(key, []))
            twins[key].append(state)
    # Demand qid follows qid others, which hold at most qid states of a
    # link: a state with more smaller twins than that never opens in order.
    refs = sorted(earlier)
    options: list[list[_Option]] = []
    for qid in range(n_demands):
        usable: dict[LinkId, list[ResourceRef]] = {}
        for ref in refs:
            if len(earlier[ref]) <= qid:
                usable.setdefault(ref[0], []).append(ref)
        options.append(_demand_options(instance, qid, usable))

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

    def open_tail(first: DemandId) -> Optional[float]:
        # The cheapest option that still fits, summed over the demands from
        # first on; None when one has none left. Load and grants only grow
        # deeper in the search, so this bounds every completion from below.
        tail = 0.0
        for qid in reversed(range(first, n_demands)):
            cheapest = next((opt.cost for opt in options[qid] if fits(qid, opt)), None)
            if cheapest is None:
                return None
            tail += cheapest
        return tail

    def descend(qid: DemandId, cost: float) -> None:
        nonlocal best, best_cost
        if qid == n_demands:
            C = frozenset(
                (instance.demand(q).user, link, state)
                for q, opt in chosen.items()
                for link, state in opt.entries
            )
            best, best_cost = C, cost
            return
        rest = open_tail(qid + 1)
        if rest is None:
            return
        for opt in options[qid]:
            if cost + opt.cost + rest >= best_cost:
                break  # options are cost-sorted
            if not opens_in_order(opt) or not fits(qid, opt):
                continue
            chosen[qid] = opt
            for link, state in opt.entries:
                load[link] = load.get(link, 0.0) + rate[qid]
                granted.setdefault((link, state), set()).add(qid)
            descend(qid + 1, cost + opt.cost)
            for link, state in opt.entries:
                load[link] -= rate[qid]
                granted[(link, state)].discard(qid)
            del chosen[qid]

    try:
        descend(0, 0.0)
    finally:
        descend = None  # the closure refers to itself: free it by refcount
    if best is None:
        return _result(instance, frozenset(), rejected=range(n_demands))
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
    the spill re-routes: the solver reads outcomes from it and adds the
    walks it runs to the end. route() depends only on the graph, the
    adapted set and the pair, so the memo changes no result. The caller
    owns it and must fill it from this instance's graph and adapted set
    only (run_scenario hands in the routes of the trial that built the
    instance). Without one, the solver keeps its own for the length of the
    call.

    A spill re-route is refused when its path crosses the demand's walk so
    far. So the solver passes route() the plan (the walk, then the rest of
    the route it follows), and the spill walk stops, BLOCKED, once its
    path is sure to cross the walk; route() documents why that is sound.
    A BLOCKED walk is refused like the full one, and is not memoized.
    """
    if routes is None:
        routes = {}
    adjacency = instance.adapted.adjacency_on(instance.graph)
    capacity = {link.id: link.throughput for link in instance.network.links}
    # States stored per link; a link without a resource set stores none.
    stored = {link: len(rs.states) for link, rs in instance.resource_sets.items()}
    # States taken and rate carried per link, by served demands only. A
    # demand's walk is node-simple and every link it asks for leads off
    # the walk, so it never asks twice for one link or for one it holds.
    used: dict[LinkId, int] = {}
    load: dict[LinkId, float] = {}
    C: set[CTriple] = set()
    rejected: set[DemandId] = set()
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
            rejected.add(qid)
            continue
        nodes, links = outcome.path.nodes, outcome.path.links
        current = demand.source
        # The walk's nodes, by their position along it.
        walked = {current: 0}
        hops: list[LinkId] = []
        i = 0
        while i < len(links):
            link = links[i]
            if (used.get(link, 0) < stored.get(link, 0)
                    and load.get(link, 0.0) + rate <= capacity[link]):
                hops.append(link)
                current = nodes[i + 1]
                walked[current] = len(walked)
                i += 1
                continue
            # The link has no state or capacity left here: spill onto another
            # link of this intermediate node and route onward from its far
            # endpoint. The full link fails the test below again, and the
            # link just walked leads back onto the walk. The plan, built at
            # the first memo miss, is the walk then the rest of its route.
            plan = None
            for nbr, alt, _ in adjacency.get(current, ()):
                if (nbr in walked or used.get(alt, 0) >= stored.get(alt, 0)
                        or load.get(alt, 0.0) + rate > capacity[alt]):
                    continue
                pair = (nbr, demand.target)
                onward = routes.get(pair)
                if onward is None:
                    if plan is None:
                        position = dict(walked)
                        position.update(zip(nodes[i + 1:], itertools.count(len(walked))))
                        plan = Plan(position, walked.keys())
                    onward = route(instance.graph, instance.adapted, *pair, plan=plan)
                    if onward.status is not RouteStatus.BLOCKED:
                        routes[pair] = onward
                if onward.found and walked.keys().isdisjoint(onward.path.nodes):
                    hops.append(alt)
                    current = nbr
                    walked[current] = len(walked)
                    nodes, links, i = onward.path.nodes, onward.path.links, 0
                    break
            else:
                break  # no link leads on
        if i < len(links):
            rejected.add(qid)
            continue
        for link in hops:
            n = used.get(link, 0)
            C.add((demand.user, link, sorted(instance.states_of(link))[n]))
            used[link] = n + 1
            load[link] = load.get(link, 0.0) + rate

    return _result(instance, frozenset(C), rejected)
