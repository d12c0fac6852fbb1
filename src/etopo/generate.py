"""Seeded random network generation.

Covers two shapes: fully random overlays (nodes, link count, level and
attribute distributions) and the lattice regime used for routing scaling
studies, where every cell holds a node with nearest-neighbor links plus
at most one long-range link drawn by an approximation of the d**(-2) law
(see _sample_long_range for how it departs from that law).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .basegraph import BaseGraph, map_overlay
from .errors import ConfigError
from .overlay import EntangledLink, OverlayNetwork, links_from_columns, make_network


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
        """Check every field against what generate_network and EntangledLink
        accept; a ConfigError names the field first ("swap_range: ...")."""
        for name, minimum in (("num_nodes", 2), ("num_links", 0)):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass, and no count
                raise ConfigError(f"{name}: expected an integer, got {value!r}")
            if value < minimum:
                raise ConfigError(f"{name}: must be >= {minimum}, got {value}")
        if (not isinstance(self.levels, (tuple, list)) or not self.levels
                or any(type(l) is not int or l < 1 for l in self.levels)
                or len(set(self.levels)) != len(self.levels)):  # one link per pair and level
            raise ConfigError(
                f"levels: expected a nonempty list of distinct integers >= 1, got {self.levels!r}"
            )
        slots = self.num_nodes * (self.num_nodes - 1) // 2 * len(self.levels)
        if self.num_links > slots:
            raise ConfigError(
                f"num_links: cannot place {self.num_links} links: only {slots} "
                f"distinct (pair, level) slots exist"
            )
        for name in ("swap_range", "loss_range", "fidelity_range"):
            _check_range(name, getattr(self, name), (int, float), 1)
        _check_range("throughput_range", self.throughput_range, (int, float), math.inf)
        _check_range("resource_range", self.resource_range, (int,), math.inf)
        if self.resource_range[0] > self.resource_range[1]:
            raise ConfigError(
                f"resource_range: low {self.resource_range[0]} is above "
                f"high {self.resource_range[1]}"
            )


def _check_range(name: str, value: object, types: tuple[type, ...], high: float) -> None:
    """value must be two finite numbers of the given types, in [0, high]."""
    kind = "integers" if types == (int,) else "numbers"
    # type() rather than isinstance: bool is an int subclass, and no number.
    if (not isinstance(value, (tuple, list)) or len(value) != 2
            or any(type(v) not in types or (type(v) is float and not math.isfinite(v))
                   for v in value)):
        raise ConfigError(f"{name}: expected two finite {kind}, got {value!r}")
    if min(value) < 0 or max(value) > high:
        raise ConfigError(f"{name}: {list(value)} is outside [0, {high}]")


def generate_network(params: GeneratorParams, seed: int) -> OverlayNetwork:
    """Random overlay with the requested link count; deterministic in (params, seed)."""
    rng = random.Random(seed)
    n = params.num_nodes
    nodes = list(range(n))
    levels = params.levels
    # Slot i is the (a, b, level) tuple at index i of the list
    # [(a, b, level) for (a, b) in combinations(nodes, 2) for level in levels],
    # which is never built: rng.sample reads only the population's length
    # and items, so sampling the indices draws the same slots. GeneratorParams
    # holds num_links to at most slots.
    slots = n * (n - 1) // 2 * len(levels)
    # row_starts[a] is the index in combinations order of the pair (a, a + 1).
    row_starts = list(itertools.accumulate(range(n - 1, 0, -1), initial=0))
    chosen = []
    for i in rng.sample(range(slots), params.num_links):
        pair, j = divmod(i, len(levels))
        a = bisect.bisect_right(row_starts, pair) - 1
        chosen.append((a, a + 1 + pair - row_starts[a], levels[j]))
    # Each link draws, in this order, swap_success, photon_loss, fidelity
    # and throughput as rng.uniform(lo, hi) and resource_count as
    # rng.randint(lo, hi), without those helpers' frames. On CPython 3.10
    # to 3.13 uniform returns lo + (hi - lo) * random(), the expression
    # below with hi - lo taken once (the same float), for lo > hi too; and
    # randint(lo, hi) returns lo plus randrange's rejection loop over
    # getrandbits for the width hi - lo + 1, as _sample_long_range draws
    # dx. So the random stream is consumed, and each value made, exactly
    # as those calls do.
    random_ = rng.random
    getrandbits = rng.getrandbits
    swap_lo, swap_hi = params.swap_range
    loss_lo, loss_hi = params.loss_range
    fid_lo, fid_hi = params.fidelity_range
    thr_lo, thr_hi = params.throughput_range
    res_lo, res_hi = params.resource_range
    swap_span, loss_span = swap_hi - swap_lo, loss_hi - loss_lo
    fid_span, thr_span = fid_hi - fid_lo, thr_hi - thr_lo
    res_width = res_hi - res_lo + 1
    res_bits = res_width.bit_length()
    links = []
    append = links.append
    for link_id, (a, b, level) in enumerate(sorted(chosen)):
        swap = swap_lo + swap_span * random_()
        loss = loss_lo + loss_span * random_()
        fidelity = fid_lo + fid_span * random_()
        throughput = thr_lo + thr_span * random_()
        r = getrandbits(res_bits)
        while r >= res_width:
            r = getrandbits(res_bits)
        append(EntangledLink(link_id, a, b, level, swap, loss, fidelity, throughput,
                             res_lo + r))
    return make_network(nodes, links)


def _sample_long_range(rng: random.Random, n: int) -> Iterator[Optional[int]]:
    """Draw a long-range contact cell for every node of the n-by-n lattice,
    in node order, in one pass over one random stream: for node x * n + y,
    yield the index cx * n + cy of its contact's cell (cx, cy), or None
    when the node gets no long-range contact.

    Each try draws a distance d with weight 1/d, then dx uniformly from
    [-d, d] and the sign of dy = +-(d - |dx|) by a coin, and tries again
    while the cell is off the lattice. A cell at distance d thus gets mass
    proportional to 1 / (2d (2d + 1)): close to the d**-2 law the lattice
    model calls for, but not exactly it. dx = -d and dx = d give dy = 0
    under either coin, so at every distance the two x-axis cells get twice
    the mass of the other cells on the ring. After 64 off-lattice tries
    the node gets no long-range contact at all. The ROADMAP item "An exact
    Kleinberg sampler" tracks the exact law, which changes every lattice.

    The cumulative radial weights 1/d for d = 1 .. 2(n-1) are summed once
    per lattice. The distance draw is the one
    `rng.choices(range(1, len(cum_weights) + 1), cum_weights=cum_weights)`
    makes, and the dx draw is the one `rng.randint(-d, d)` makes on
    CPython 3.10 to 3.13 (randrange's rejection loop over getrandbits,
    without its three Python frames), so the random stream is consumed
    exactly as those calls do, one node after another.
    """
    cum_weights = list(itertools.accumulate(1.0 / d for d in range(1, 2 * (n - 1) + 1)))
    hi = len(cum_weights) - 1
    total = cum_weights[-1]
    random_ = rng.random
    getrandbits = rng.getrandbits
    for x in range(n):
        for y in range(n):
            for _ in range(64):
                d = bisect.bisect(cum_weights, random_() * total, 0, hi) + 1
                width = 2 * d + 1
                bits = width.bit_length()
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                dx = r - d
                dy_mag = d - abs(dx)
                cx = x + dx
                cy = y + dy_mag if random_() < 0.5 else y - dy_mag
                if 0 <= cx < n and 0 <= cy < n:
                    yield cx * n + cy
                    break
            else:
                yield None


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Disable the cyclic garbage collector, then re-enable it only if it
    was enabled before.

    A 256 x 256 lattice allocates about 850k tracked containers (links,
    contact tuples, rows and cells), none of them in a reference cycle.
    CPython runs a collection each time the tracked heap grows by a
    quarter, so with the collector on the build walks its own growing heap
    about a dozen times, a quarter to a third of its cost, to free nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def kleinberg_lattice(n: int, seed: int) -> tuple[OverlayNetwork, BaseGraph]:
    """n-by-n lattice overlay with identity placement, all link probabilities 1.

    Node x * n + y sits at cell (x, y). Links are numbered in this order:
    the nearest-neighbour grid links, by node then (x + 1, y) before
    (x, y + 1); then at most one long-range link per node, by node, drawn
    by _sample_long_range (see there for how its law departs from d**-2).
    A long-range draw that repeats a grid link or an earlier long-range
    pair is skipped, and a node whose 64 tries all fall off the lattice
    has none, so a lattice holds at most n * n long-range links.

    The links are made by overlay.links_from_columns, which checks them as
    EntangledLink does: first the grid links of each lattice row x, from
    its endpoint columns, then the long-range links of each row. Columns
    of one row at a time stay small, so they add nothing to the build's
    peak memory.

    The cyclic garbage collector is paused process-wide for the whole
    build, map_overlay included, and restored to its prior state after
    it, also when the build raises.
    """
    if n < 2:
        raise ConfigError("lattice side must be >= 2")
    with _collector_paused():
        size = n * n
        # One int object per node id, shared by the node set, the placement and
        # every link endpoint: on 256 x 256 that is 65k ids instead of about 365k.
        ids = list(range(size))
        # cells[u] is node u's cell, divmod(u, n): the placement's coordinates.
        cells = list(itertools.product(range(n), repeat=2))
        links: list[EntangledLink] = []
        extend = links.extend
        # Row x holds the nodes start .. start + n - 1, start = x * n. Each
        # links to u + n and then to u + 1, so the row's a column repeats
        # every node but the last, and its b column interleaves the next
        # row with the row shifted by one. The last row has no next row.
        for start in range(0, size - n, n):
            row = ids[start:start + n]
            a_column = [0] * (2 * n - 1)
            a_column[::2] = row
            a_column[1::2] = row[:-1]
            b_column = [0] * (2 * n - 1)
            b_column[::2] = ids[start + n:start + 2 * n]
            b_column[1::2] = row[1:]
            extend(links_from_columns(len(links), a_column, b_column))
        row = ids[size - n:]
        extend(links_from_columns(len(links), row[:-1], row[1:]))

        # Grid pairs are distinct by construction. A long-range pair (a, b),
        # a < b, repeats one exactly when b - a == n, or b - a == 1 within a
        # row, so only long-range pairs enter the dedupe set, keyed a*size + b.
        long_pairs: set[int] = set()
        draws = _sample_long_range(random.Random(seed), n)
        for start in range(0, size, n):
            a_column, b_column = [], []
            for u, cell in zip(ids[start:start + n], itertools.islice(draws, n)):
                if cell is None:
                    continue
                v = ids[cell]
                a, b = (u, v) if u < v else (v, u)
                gap = b - a
                key = a * size + b
                if gap == n or (gap == 1 and b % n) or key in long_pairs:
                    continue
                long_pairs.add(key)
                a_column.append(a)
                b_column.append(b)
            extend(links_from_columns(len(links), a_column, b_column))
        # Freed before the network and the contact rows are built, so the
        # set and its keys (about 4 MB on 256 x 256) add nothing to
        # set-up's peak memory.
        del long_pairs

        network = make_network(ids, links)
        graph = map_overlay(network, k=2, n=n, placement=dict(zip(ids, cells)))
        return network, graph
