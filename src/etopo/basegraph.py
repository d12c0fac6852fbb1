"""Lattice base-graph embedding of the overlay network.

The overlay is mapped onto a k-dimensional lattice of side n via an
injective placement. Pair connection probabilities decompose into a
distance term d**(-k) / H plus a per-pair correction chosen so that the
total equals the overlay link existence probability.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    LatticeCapacityError,
    NoContactsError,
    NotConnectedError,
    NotFoundError,
    PlacementError,
)
from .overlay import (
    EntangledLink,
    LinkId,
    NodeId,
    OverlayNetwork,
    link_existence_probability,
)

LatticeCoord = tuple[int, ...]
# One row entry of BaseGraph.contacts: (neighbor, link id, neighbor cell).
Contact = tuple[NodeId, LinkId, Optional[LatticeCoord]]


def l1_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Manhattan distance between two lattice coordinates (no wraparound)."""
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"coordinate dimensions differ: {len(a)} vs {len(b)}"
        )
    return sum(abs(x - y) for x, y in zip(a, b))


@dataclass(frozen=True)
class BaseGraph:
    """An n-size, k-dimensional lattice holding the placed overlay.

    placement maps every overlay node to a distinct lattice cell; contacts
    lists, per node, the (neighbor, link id, neighbor cell) entangled
    contacts inherited from the overlay, sorted by neighbor then link id
    (greedy routing's tie-break relies on that order). The cell is the very
    tuple placement holds for the neighbor, or None when placement lacks
    it, so a walk reads a contact's cell from its row without a placement
    lookup. contacts_of gives a node's (neighbor, link id) pairs. Treat
    instances as immutable after construction.
    """

    k: int
    n: int
    placement: Mapping[NodeId, LatticeCoord]
    contacts: Mapping[NodeId, tuple[Contact, ...]]

    def coord(self, node: NodeId) -> LatticeCoord:
        try:
            return self.placement[node]
        except KeyError:
            raise NotFoundError(f"node {node} is not mapped in the base-graph") from None

    def contacts_of(self, node: NodeId) -> tuple[tuple[NodeId, LinkId], ...]:
        return tuple((nbr, lid) for nbr, lid, _ in self.contacts.get(node, ()))


@dataclass(frozen=True)
class ConnectionProbability:
    """Decomposed pair connection probability: p = lattice_term + correction."""

    pair: tuple[NodeId, NodeId]
    p: float
    lattice_term: float
    correction: float


def _unrank(index: int, k: int, n: int) -> LatticeCoord:
    coords = []
    for _ in range(k):
        coords.append(index % n)
        index //= n
    return tuple(coords)


def map_overlay(
    network: OverlayNetwork,
    k: int,
    n: int,
    placement: Optional[Mapping[NodeId, Sequence[int]]] = None,
    seed: Optional[int] = None,
) -> BaseGraph:
    """Place the overlay onto the lattice and mirror its links as contacts.

    With an explicit placement the map is used verbatim after validation;
    otherwise nodes are placed injectively and uniformly at random from a
    RNG seeded with `seed` (deterministic for a fixed seed).
    """
    if k < 1 or n < 2:
        raise ValueError(f"base-graph requires k >= 1 and n >= 2, got k={k}, n={n}")
    nodes = sorted(network.nodes)
    capacity = n**k
    if capacity < len(nodes):
        raise LatticeCapacityError(
            f"lattice with {capacity} cells cannot hold {len(nodes)} nodes"
        )
    placed: dict[NodeId, LatticeCoord]
    if placement is not None:
        placed = _checked_placement(nodes, placement, k, n)
    else:
        rng = random.Random(seed)
        cells = rng.sample(range(capacity), len(nodes))
        placed = {node: _unrank(cell, k, n) for node, cell in zip(nodes, cells)}

    rows: defaultdict[NodeId, list[Contact]] = defaultdict(list)
    cell = placed.get
    for link in network.links:
        a, b, link_id = link.a, link.b, link.id
        rows[a].append((b, link_id, cell(b)))
        rows[b].append((a, link_id, cell(a)))
    for row in rows.values():
        row.sort()
    return BaseGraph(
        k=k,
        n=n,
        placement=placed,
        contacts=dict(zip(rows, map(tuple, rows.values()))),
    )


def _checked_placement(
    nodes: list[NodeId], placement: Mapping[NodeId, Sequence[int]], k: int, n: int
) -> dict[NodeId, LatticeCoord]:
    """placement restricted to nodes, with each coordinate as a tuple.

    Raises PlacementError for the first node, in the order of nodes, that is
    missing, has a coordinate of dimension other than k or outside [0, n),
    or shares its cell with an earlier node. A placement of integer
    coordinates is checked in bulk, over all of them at once; the per-node
    loop runs only when that check fails, to name the first fault.
    """
    try:
        placed = dict(zip(nodes, map(tuple, map(placement.get, nodes))))
    except TypeError:
        pass  # a missing node (tuple(None)) or a coordinate that is no sequence
    else:
        coords = placed.values()
        values = list(chain.from_iterable(coords))
        # Plain ints only: they are totally ordered, so min and max bound
        # them all (a NaN would slip past both).
        if (set(map(len, coords)) == {k} and set(map(type, values)) == {int}
                and min(values) >= 0 and max(values) < n
                and len(set(coords)) == len(placed)):
            return placed

    placed = {}
    used: dict[LatticeCoord, NodeId] = {}
    for node in nodes:
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
            raise PlacementError(
                f"nodes {used[coord]} and {node} collide at {coord}"
            )
        used[coord] = node
        placed[node] = coord
    return placed


def normalizing_term(graph: BaseGraph, node: NodeId) -> float:
    """Sum of L1 distances from the node's cell to each entangled contact's cell."""
    contacts = graph.contacts.get(node)
    if not contacts:
        raise NoContactsError(f"node {node} has no entangled contacts")
    origin = graph.coord(node)
    total = 0
    for z, _, cell in contacts:
        if cell is None:
            raise NotFoundError(f"node {z} is not mapped in the base-graph")
        total += l1_distance(origin, cell)
    return float(total)


def best_link(network: OverlayNetwork, x: NodeId, y: NodeId) -> EntangledLink:
    """The highest-existence-probability link joining x and y.

    Pairs may carry parallel links at different levels; probability
    queries resolve to the strongest one (ties broken by link id).
    """
    links = network.links_between(x, y)
    if not links:
        raise NotConnectedError(f"no entangled link between nodes {x} and {y}")
    return max(links, key=lambda l: (link_existence_probability(l), -l.id))


def connection_probability(
    graph: BaseGraph,
    network: OverlayNetwork,
    x: NodeId,
    y: NodeId,
    link_id: Optional[LinkId] = None,
) -> ConnectionProbability:
    """Connection probability of a placed pair, decomposed into its two terms.

    The lattice term is d**(-k) / H with H normalized at x; the correction
    is exactly the overlay probability minus the lattice term, so p always
    equals the link existence probability.
    """
    if link_id is not None:
        link = network.link_by_id(link_id)
        if {link.a, link.b} != {x, y}:
            raise NotConnectedError(f"link {link_id} does not join nodes {x} and {y}")
    else:
        link = best_link(network, x, y)
    d = l1_distance(graph.coord(x), graph.coord(y))
    h = normalizing_term(graph, x)
    lattice_term = d ** (-graph.k) / h
    pr = link_existence_probability(link)
    correction = pr - lattice_term
    return ConnectionProbability(
        pair=(x, y), p=lattice_term + correction, lattice_term=lattice_term,
        correction=correction,
    )
