"""Seeded random network generation.

Covers two shapes: fully random overlays (nodes, link count, level and
attribute distributions) and the lattice regime used for routing scaling
studies, where every cell holds a node with nearest-neighbor links plus
one long-range link sampled with probability proportional to d**(-k).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .basegraph import BaseGraph, map_overlay
from .errors import ConfigError
from .overlay import EntangledLink, OverlayNetwork, make_network


def derive_seed(root: int, *labels: object) -> int:
    """Stable sub-seed derivation so independent streams never interact."""
    text = "|".join([str(root), *map(str, labels)])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


@dataclass(frozen=True)
class GeneratorParams:
    """Parameters for random overlay generation; ranges are inclusive uniforms."""

    num_nodes: int = 10
    num_links: int = 15
    levels: tuple[int, ...] = (1,)
    swap_range: tuple[float, float] = (0.5, 1.0)
    loss_range: tuple[float, float] = (0.0, 0.5)
    fidelity_range: tuple[float, float] = (0.5, 1.0)
    throughput_range: tuple[float, float] = (1.0, 10.0)
    resource_range: tuple[int, int] = (1, 1)

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigError("num_nodes must be >= 2")
        if self.num_links < 0:
            raise ConfigError("num_links must be >= 0")
        if not self.levels or any(l < 1 for l in self.levels):
            raise ConfigError("levels must be a nonempty list of integers >= 1")


def generate_network(params: GeneratorParams, seed: int) -> OverlayNetwork:
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


def _distance_cum_weights(n: int) -> list[float]:
    """Cumulative radial weights 1/d for d = 1 .. 2(n-1), as _sample_long_range
    draws them; computed once per lattice."""
    return list(itertools.accumulate(1.0 / d for d in range(1, 2 * (n - 1) + 1)))


def _sample_long_range(
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


def kleinberg_lattice(n: int, seed: int) -> tuple[OverlayNetwork, BaseGraph]:
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
    cum_weights = _distance_cum_weights(n)
    for x in range(n):
        for y in range(n):
            cell = _sample_long_range(rng, (x, y), n, cum_weights)
            if cell is not None:
                add_link(node_at(x, y), node_at(*cell))

    network = make_network(range(n * n), links)
    placement = {node_at(x, y): (x, y) for x in range(n) for y in range(n)}
    graph = map_overlay(network, k=2, n=n, placement=placement)
    return network, graph
