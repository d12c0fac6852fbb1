"""Decentralized greedy routing over the adapted link set.

Forwarding is greedy on L1 distance in the base-graph with visited-set
backtracking, so any target reachable through the adapted set is found.
A breadth-first oracle computes true shortest paths for validation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import inf
from operator import sub
from typing import Optional

from .adaption import AdaptedLinkSet
from .basegraph import BaseGraph
from .errors import NotFoundError
from .overlay import LinkId, NodeId


class RouteStatus(str, Enum):
    FOUND = "found"
    UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class Path:
    """A simple path: node sequence plus the link taken at each hop."""

    nodes: tuple[NodeId, ...]
    links: tuple[LinkId, ...]

    def __post_init__(self) -> None:
        if self.nodes and len(self.links) != len(self.nodes) - 1:
            raise ValueError("path must carry exactly one link per hop")


@dataclass(frozen=True)
class RoutingOutcome:
    """Result of one routing query.

    diameter is the edge count of the returned path; steps_taken counts
    every forwarding decision made, including dead-end backtracks, so it
    can exceed the diameter.
    """

    status: RouteStatus
    path: Optional[Path]
    diameter: int
    steps_taken: int

    @property
    def found(self) -> bool:
        return self.status is RouteStatus.FOUND


def route(
    graph: BaseGraph,
    adapted: AdaptedLinkSet,
    source: NodeId,
    target: NodeId,
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
    contact's cell read from its adjacency row. On a planar graph (k == 2)
    it is computed as abs(x - tx) + abs(y - ty) from the unpacked cells;
    for any other k it is summed over the coordinates. Both give the same
    integer, so outcomes are the same for every k.
    """
    adjacency = adapted.adjacency_on(graph)
    target_coord = graph.coord(target)
    graph.coord(source)
    if source == target:
        return RoutingOutcome(RouteStatus.FOUND, Path((source,), ()), 0, 0)

    planar = graph.k == 2
    if planar:
        tx, ty = target_coord
    visited = {source}
    stack: list[NodeId] = [source]
    link_stack: list[LinkId] = []
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
                RouteStatus.FOUND,
                Path(tuple(stack), tuple(link_stack)),
                len(link_stack),
                steps,
            )
    return RoutingOutcome(RouteStatus.UNREACHABLE, None, 0, steps)


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
        return RoutingOutcome(RouteStatus.FOUND, Path((source,), ()), 0, 0)
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
                    RouteStatus.FOUND,
                    Path(tuple(nodes), tuple(links)),
                    len(links),
                    len(links),
                )
            queue.append(nbr)
    return RoutingOutcome(RouteStatus.UNREACHABLE, None, 0, 0)
