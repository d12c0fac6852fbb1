"""Conflict graphs and the coloring-to-assignment reduction.

Interfering entangled states form a graph of conflicts; its k-coloring
feasibility is equivalent to feasibility of a constructed assignment
instance, which is the executable direction of the hardness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    """Graph of conflicting entangled states; adjacent vertices must not
    share a state."""

    vertices: frozenset[Vertex]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")


def make_conflict_graph(
    vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]],
) -> ConflictGraph:
    es = frozenset(_normalize_edge(u, v) for u, v in edges)
    return ConflictGraph(frozenset(vertices), es)


def build_conflict_graph(instance: AssignmentInstance) -> ConflictGraph:
    """Conflict graph of an instance's interfering entangled states.

    Each demand with a rival contributes one vertex (its held entangled
    state), and an edge joins it to each of its rivals.
    """
    vertices = frozenset(qid for qid, _ in instance.rivals)
    edges = frozenset(
        (qid, rival) for (qid, _), rivals in instance.rivals.items()
        for rival in rivals if qid < rival
    )
    return ConflictGraph(vertices, edges)


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
