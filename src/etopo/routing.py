"""Decentralized greedy routing over the adapted link set.

Forwarding is greedy on L1 distance in the base-graph with visited-set
backtracking, so any target reachable through the adapted set is found.
A breadth-first oracle computes true shortest paths for validation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import sub
from typing import AbstractSet, Mapping, NamedTuple, Optional

from .adaption import AdaptedLinkSet
from .basegraph import BaseGraph
from .errors import NotFoundError
from .overlay import LinkId, NodeId, frozen_record, slot_setters


class RouteStatus(str, Enum):
    FOUND = "found"
    UNREACHABLE = "unreachable"
    # The walk stopped once its path was sure to cross Plan.walked.
    BLOCKED = "blocked"


class Plan(NamedTuple):
    """A simple path of adapted links that ends at the route's target.

    position gives each plan node's index along the path; walked is the
    set of plan nodes on which the caller refuses a returned path.
    """

    position: Mapping[NodeId, int]
    walked: AbstractSet[NodeId]


@frozen_record
@dataclass(frozen=True, slots=True, init=False)
class Path:
    """A simple path: node sequence plus the link taken at each hop."""

    nodes: tuple[NodeId, ...]
    links: tuple[LinkId, ...]

    def __init__(self, nodes: tuple[NodeId, ...], links: tuple[LinkId, ...]) -> None:
        if nodes and len(links) != len(nodes) - 1:
            raise ValueError("path must carry exactly one link per hop")
        _set_path_nodes(self, nodes)
        _set_path_links(self, links)


@frozen_record
@dataclass(frozen=True, slots=True, init=False)
class RoutingOutcome:
    """Result of one routing query.

    steps_taken counts every forwarding decision made, including dead-end
    backtracks, so it can exceed the diameter.
    """

    status: RouteStatus
    path: Optional[Path]
    steps_taken: int

    def __init__(self, status: RouteStatus, path: Optional[Path], steps_taken: int) -> None:
        _set_status(self, status)
        _set_path(self, path)
        _set_steps_taken(self, steps_taken)

    @property
    def found(self) -> bool:
        return self.status is RouteStatus.FOUND

    @property
    def diameter(self) -> int:
        """The edge count of the returned path; 0 without one."""
        return len(self.path.links) if self.path is not None else 0


_set_path_nodes, _set_path_links = slot_setters(Path)
_set_status, _set_path, _set_steps_taken = slot_setters(RoutingOutcome)


@lru_cache(maxsize=8)
def _gaps(n: int) -> tuple[int, ...]:
    """abs(i - (n - 1)) for i in [0, 2n - 1), one lattice side's gap table.

    Its slice [n - 1 - t, 2n - 1 - t) holds abs(c - t) at index c, for
    each cell coordinate c in [0, n) and target coordinate t in [0, n).
    """
    return tuple(abs(i - (n - 1)) for i in range(2 * n - 1))


def route(
    graph: BaseGraph,
    adapted: AdaptedLinkSet,
    source: NodeId,
    target: NodeId,
    *,
    plan: Optional[Plan] = None,
) -> RoutingOutcome:
    """Greedy L1 forwarding with backtracking over the adapted set.

    At each node the contact closest to the target is tried first (ties by
    lowest node id, then lowest link id); exhausted nodes are popped and
    never revisited, bounding the walk to one visit per node. The returned
    path is the final stack, which is simple by construction. Raises
    ValueError when adapted was built on another base-graph, and
    NotFoundError when the walk scans a contact whose neighbor the
    placement lacks.

    The distance to the target is the L1 distance of the cells, each
    contact's cell read from its adjacency row. The scan reads a contact's
    cell first, and its neighbor and link only for a contact it keeps. On
    a planar graph (k == 2) it is dxs[x] + dys[y], read from two per-call
    gap tables, abs(c - tx) and abs(c - ty) at index c, sliced from one
    cached tuple per side length; the slices cost O(n) per call. For any
    other k the distance is summed over the coordinates. Both give the same
    integer, so outcomes are the same for every k. steps_taken is the
    walk's pushes plus its pops.

    With a plan, the walk returns BLOCKED (no path, the steps so far) as
    soon as the path it would return is sure to hold a node of
    plan.walked. That is when it pushes a plan node x after no later plan
    node has been visited, and the stack then holds a walked node. The
    plan's rest from x to the target is then all unvisited, so the search
    reaches the target before it could pop x: x and the stack under it
    are a prefix of the returned path. A walk that ends early scans fewer
    contacts, so it raises NotFoundError only for the ones it scanned.
    Otherwise the plan changes nothing, FOUND and UNREACHABLE outcomes
    included.
    """
    adjacency = adapted.adjacency_on(graph)
    target_coord = graph.coord(target)
    graph.coord(source)
    if source == target:
        return RoutingOutcome(RouteStatus.FOUND, Path((source,), ()), 0)

    n = graph.n
    planar = graph.k == 2
    if planar:
        tx, ty = target_coord
        gaps = _gaps(n)
        dxs = gaps[n - 1 - tx:2 * n - 1 - tx]
        dys = gaps[n - 1 - ty:2 * n - 1 - ty]
    # Above every L1 distance on the lattice, as each coordinate is in [0, n).
    beyond = graph.k * n
    if plan is not None:
        position, walked = plan
        # The furthest plan position among the visited nodes.
        furthest = position.get(source, -1)
    row_of = adjacency.get
    visited = {source}
    stack: list[NodeId] = [source]
    link_stack: list[LinkId] = []
    current = source
    pops = 0
    while True:
        # Rows are sorted by (node, link), so keeping the first strictly
        # closer unvisited contact breaks distance ties by lowest node, then
        # link. A contact's distance is read off its cell alone; visited is
        # tested only for a contact that would be kept, and the neighbor and
        # link are read only from the one kept.
        best_dist, best = beyond, None
        try:
            if planar:
                for contact in row_of(current, ()):
                    x, y = contact[2]
                    dist = dxs[x] + dys[y]
                    if dist < best_dist and contact[0] not in visited:
                        best_dist, best = dist, contact
            else:
                for contact in row_of(current, ()):
                    dist = sum(map(abs, map(sub, contact[2], target_coord)))
                    if dist < best_dist and contact[0] not in visited:
                        best_dist, best = dist, contact
        except TypeError:
            # Only an unmapped neighbor's cell, None, fails to unpack.
            raise NotFoundError(
                f"node {contact[0]} is not mapped in the base-graph"
            ) from None
        # Each step pushes one node or pops one, and every push visits a
        # new node, so the steps so far are len(visited) - 1 + pops.
        if best_dist == beyond:
            pops += 1
            stack.pop()
            if not stack:
                return RoutingOutcome(RouteStatus.UNREACHABLE, None, len(visited) - 1 + pops)
            link_stack.pop()
            current = stack[-1]
            continue
        current, best_lid, _ = best
        visited.add(current)
        stack.append(current)
        link_stack.append(best_lid)
        if current == target:
            return RoutingOutcome(
                RouteStatus.FOUND, Path(tuple(stack), tuple(link_stack)),
                len(visited) - 1 + pops,
            )
        if plan is not None:
            at = position.get(current, -1)
            if at > furthest:
                furthest = at
                if not walked.isdisjoint(stack):
                    return RoutingOutcome(
                        RouteStatus.BLOCKED, None, len(visited) - 1 + pops
                    )


def shortest_path_oracle(
    graph: BaseGraph,
    adapted: AdaptedLinkSet,
    source: NodeId,
    target: NodeId,
) -> RoutingOutcome:
    """Exact minimum-edge-count path via breadth-first search over the adapted set."""
    adjacency = adapted.adjacency_on(graph)
    graph.coord(source)
    graph.coord(target)
    if source == target:
        return RoutingOutcome(RouteStatus.FOUND, Path((source,), ()), 0)
    parent: dict[NodeId, tuple[NodeId, LinkId]] = {}
    seen = {source}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for nbr, lid, _ in adjacency.get(current, ()):
            if nbr in seen:
                continue
            seen.add(nbr)
            parent[nbr] = (current, lid)
            if nbr == target:
                nodes = [target]
                links = []
                while nodes[-1] != source:
                    prev, plid = parent[nodes[-1]]
                    nodes.append(prev)
                    links.append(plid)
                nodes.reverse()
                links.reverse()
                return RoutingOutcome(
                    RouteStatus.FOUND, Path(tuple(nodes), tuple(links)), len(links)
                )
            queue.append(nbr)
    return RoutingOutcome(RouteStatus.UNREACHABLE, None, 0)
