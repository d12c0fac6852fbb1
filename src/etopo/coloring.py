"""Conflict graphs, vertex coloring, and the coloring-to-assignment reduction.

Interfering entangled states form a graph of conflicts; its k-coloring
feasibility is equivalent to feasibility of a constructed assignment
instance, which is the executable direction of the hardness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

from .adaption import ThresholdPolicy, adapt
from .assignment import AssignmentInstance, Demand, InterferenceSet, ResourceSet
from .basegraph import map_overlay
from .overlay import EntangledLink, make_network

Vertex = int
Edge = tuple[Vertex, Vertex]


def _normalize_edge(u: Vertex, v: Vertex) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ConflictGraph:
    """Graph of conflicting entangled states; k_star colors are required."""

    vertices: frozenset[Vertex]
    edges: frozenset[Edge]
    k_star: int

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        return frozenset(
            b if a == v else a for a, b in self.edges if v in (a, b)
        )


def make_conflict_graph(
    vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]],
    k_star: Optional[int] = None,
) -> ConflictGraph:
    vs = frozenset(vertices)
    es = frozenset(_normalize_edge(u, v) for u, v in edges)
    return ConflictGraph(vs, es, k_star if k_star is not None else len(vs))


def build_conflict_graph(instance: AssignmentInstance) -> ConflictGraph:
    """Conflict graph of an instance's interfering entangled states.

    Each demand with a rival contributes one vertex (its held entangled
    state), and an edge joins it to each of its rivals. k_star is the
    vertex count, not the number of distinct interfering states.
    """
    vertices = frozenset(qid for qid, _ in instance.rivals)
    edges = frozenset(
        (qid, rival) for (qid, _), rivals in instance.rivals.items()
        for rival in rivals if qid < rival
    )
    return ConflictGraph(vertices, edges, k_star=len(vertices))


class ColoringStatus(str, Enum):
    COLORED = "colored"
    INFEASIBLE = "infeasible"
    UNKNOWN_INFEASIBLE = "unknown-infeasible"


@dataclass(frozen=True)
class Coloring:
    color: Mapping[Vertex, int]


@dataclass(frozen=True)
class ColoringResult:
    status: ColoringStatus
    coloring: Optional[Coloring] = None


def is_proper(graph: ConflictGraph, coloring: Coloring) -> bool:
    if set(coloring.color) != set(graph.vertices):
        return False
    return all(coloring.color[u] != coloring.color[v] for u, v in graph.edges)


EXACT_COLORING_CAP = 20


def color_graph(graph: ConflictGraph, colors: int) -> ColoringResult:
    """Proper coloring with at most `colors` colors.

    Exact backtracking up to EXACT_COLORING_CAP vertices proves
    infeasibility; beyond the cap a largest-degree-first greedy pass is
    used and its failure is reported as unknown-infeasible.
    """
    if colors < 0:
        raise ValueError("color count must be nonnegative")
    # Every vertex's neighbours in one pass over the edges; the graph
    # checked that each edge joins two distinct vertices of its own.
    adjacency: dict[Vertex, set[Vertex]] = {v: set() for v in graph.vertices}
    for u, v in graph.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    vertices = sorted(graph.vertices, key=lambda v: (-len(adjacency[v]), v))
    if not vertices:
        return ColoringResult(ColoringStatus.COLORED, Coloring({}))
    if colors == 0:
        return ColoringResult(ColoringStatus.INFEASIBLE)

    if len(vertices) <= EXACT_COLORING_CAP:
        assigned: dict[Vertex, int] = {}

        def backtrack(pos: int, used: int) -> bool:
            if pos == len(vertices):
                return True
            v = vertices[pos]
            blocked = {assigned[u] for u in adjacency[v] if u in assigned}
            # New colors are interchangeable: trying one fresh color suffices.
            for c in range(min(used + 1, colors)):
                if c in blocked:
                    continue
                assigned[v] = c
                if backtrack(pos + 1, max(used, c + 1)):
                    return True
                del assigned[v]
            return False

        if backtrack(0, 0):
            return ColoringResult(ColoringStatus.COLORED, Coloring(dict(assigned)))
        return ColoringResult(ColoringStatus.INFEASIBLE)

    assigned = {}
    for v in vertices:
        blocked = {assigned[u] for u in adjacency[v] if u in assigned}
        for c in range(colors):
            if c not in blocked:
                assigned[v] = c
                break
        else:
            return ColoringResult(ColoringStatus.UNKNOWN_INFEASIBLE)
    return ColoringResult(ColoringStatus.COLORED, Coloring(assigned))


def reduction_from_coloring(graph: ConflictGraph, colors: int) -> AssignmentInstance:
    """Assignment instance feasible exactly when the graph is `colors`-colorable.

    One shared link carries `colors` resource states (the palette); every
    vertex becomes a demand across that link whose state choice is its
    color; every conflict edge forbids the two demands from sharing any
    state, via one interference set per palette state.
    """
    if colors < 1:
        raise ValueError("the reduction needs at least one color")
    vertices = sorted(graph.vertices)
    link = EntangledLink(
        id=0, a=0, b=1, level=1,
        swap_success=1.0, photon_loss=0.0, fidelity=1.0,
        throughput=float(len(vertices)) + 1.0,
        resource_count=colors,
    )
    network = make_network([0, 1], [link])
    base = map_overlay(network, k=1, n=2, placement={0: (0,), 1: (1,)})
    adapted = adapt(base, network, ThresholdPolicy(default=0.0))
    demand_of_vertex = {v: qid for qid, v in enumerate(vertices)}
    demands = tuple(Demand(user=qid, source=0, target=1, rate=0.0) for qid in range(len(vertices)))
    resource_sets = {0: ResourceSet(link=0, states=tuple(range(colors)))}
    interference = tuple(
        InterferenceSet(
            link=0,
            state=state,
            competing=((demand_of_vertex[u], demand_of_vertex[u]),
                       (demand_of_vertex[v], demand_of_vertex[v])),
        )
        for u, v in sorted(graph.edges)
        for state in range(colors)
    )
    return AssignmentInstance(
        network=network,
        graph=base,
        adapted=adapted,
        demands=demands,
        resource_sets=resource_sets,
        interference=interference,
    )
