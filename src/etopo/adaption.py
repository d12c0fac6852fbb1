"""Threshold-based topology adaption.

Every link is tested against the probability threshold of its level; the
survivors form the adapted link set S-star together with the updated
per-link probability p-star (zero on excluded links, which are not stored).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Iterable, KeysView, Mapping

from .basegraph import BaseGraph, Contact
from .errors import NotConnectedError
from .overlay import EntangledLink, LinkId, NodeId, OverlayNetwork


class PStarMode(str, Enum):
    """How a retained link's updated probability is read.

    MEASURED keeps the link's measured overlay probability; THRESHOLD pins
    retained links to their level's threshold constant instead. Both
    readings of the update rule are supported; MEASURED is the default.
    """

    MEASURED = "measured"
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class ThresholdPolicy:
    """The adaption rule: per-level probability thresholds, a default for
    unlisted levels, and how a retained link's updated probability is read."""

    default: float = 0.0
    per_level: Mapping[int, float] = field(default_factory=dict)
    mode: PStarMode = PStarMode.MEASURED

    def __post_init__(self) -> None:
        """A ValueError names the threshold as a thresholds file does,
        "default" or "levels.<level>", so a reader can put its path first."""
        if not 0.0 <= self.default <= 1.0:
            raise ValueError(f"default: threshold {self.default} is outside [0, 1]")
        for level, value in self.per_level.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"levels.{level}: threshold {value} is outside [0, 1]")

    def threshold_for(self, level: int) -> float:
        return self.per_level.get(level, self.default)


@dataclass(frozen=True)
class AdaptedLinkSet:
    """The filtered link set S-star and the updated probability field.

    p_star_by_link maps each retained link to its updated probability and
    holds retained links only; links is its read-only key view, the set
    S-star. link_p_star reads the field, zero for links below threshold.
    updated_probability gives the per-pair value, the best over a pair's
    parallel links.

    The set belongs to the base-graph it was adapted on: adjacency holds,
    per node of that graph, its (neighbor, link id, neighbor cell) contacts
    over retained links, the graph's own contact triples in its order
    (a row with no pruned link is the graph's row itself), and every graph
    walk reads it through adjacency_on.
    """

    p_star_by_link: Mapping[LinkId, float]
    graph: BaseGraph = field(compare=False, repr=False)
    adjacency: Mapping[NodeId, tuple[Contact, ...]] = field(
        compare=False, repr=False
    )

    @property
    def links(self) -> KeysView[LinkId]:
        return self.p_star_by_link.keys()

    def link_p_star(self, link_id: LinkId) -> float:
        return self.p_star_by_link.get(link_id, 0.0)

    def adjacency_on(self, graph: BaseGraph) -> Mapping[NodeId, tuple[Contact, ...]]:
        """The retained contacts per node; nodes without any may be absent.

        Raises ValueError when graph is not the very base-graph object this
        set was adapted on, since the rows mirror that graph's contacts.
        """
        if graph is not self.graph:
            raise ValueError("adapted link set was built on a different base-graph")
        return self.adjacency


def _p_star(links: Iterable[EntangledLink], policy: ThresholdPolicy) -> dict[LinkId, float]:
    """The threshold rule: the updated probability of each link of links that
    meets its level's threshold, by link id. A link below threshold updates
    to zero and is left out; a retained link keeps its existence probability
    when policy.mode is MEASURED and takes the threshold under THRESHOLD."""
    per_level = policy.per_level
    default = policy.default
    measured = policy.mode is PStarMode.MEASURED
    retained: dict[LinkId, float] = {}
    for link in links:
        # link_existence_probability and policy.threshold_for, inlined: this
        # loop runs once per link of the overlay.
        pr = link.swap_success * (1.0 - link.photon_loss) * link.fidelity
        threshold = per_level.get(link.level, default)
        if not pr < threshold:
            # A measured 1.0, every lattice link's, is stored as the one
            # constant 1.0 rather than as a new float per link.
            retained[link.id] = (pr if pr != 1.0 else 1.0) if measured else threshold
    return retained


def updated_probability(
    network: OverlayNetwork, x: NodeId, y: NodeId, policy: ThresholdPolicy
) -> float:
    """Updated pair probability under the threshold rule.

    Links meeting their level threshold keep their probability (the
    distance term and its correction cancel algebraically); links below
    threshold update to zero. Pairs with parallel links report the best
    surviving link.
    """
    links = network.links_between(x, y)
    if not links:
        raise NotConnectedError(f"no entangled link between nodes {x} and {y}")
    p_star = _p_star(links, policy)
    return max(p_star.get(l.id, 0.0) for l in links)


def _retained_adjacency(
    graph: BaseGraph, network: OverlayNetwork, retained: Mapping[LinkId, float]
) -> Mapping[NodeId, tuple[Contact, ...]]:
    """graph's contacts restricted to retained, the links of network that
    adapt keeps, sharing every unpruned row.

    When graph mirrors the very network.links tuple and retained holds as
    many ids as it has links, every link of the graph is kept, and its
    contacts are returned without a scan. Any other input is scanned.
    """
    contacts = graph.contacts
    if graph.mirrored_links is network.links and len(retained) == len(network.links):
        return contacts
    link_of = itemgetter(1)
    kept = retained.__contains__
    if all(map(kept, map(link_of, chain.from_iterable(contacts.values())))):
        return contacts
    adjacency = {}
    for node, row in contacts.items():
        if not all(map(kept, map(link_of, row))):
            row = tuple(c for c in row if kept(c[1]))
        adjacency[node] = row
    return adjacency


def adapt(
    graph: BaseGraph, network: OverlayNetwork, policy: ThresholdPolicy
) -> AdaptedLinkSet:
    """Filter every link against its level threshold, for all contacts of all
    nodes, and index the survivors by node of graph for routing."""
    retained = _p_star(network.links, policy)
    return AdaptedLinkSet(
        p_star_by_link=retained, graph=graph,
        adjacency=_retained_adjacency(graph, network, retained),
    )

