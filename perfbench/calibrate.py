"""Host-speed calibration for the untraced run.

The benchmark shares a few cores of a host with other tenants, and their
load makes the same pure-Python work run 15-40% faster or slower over
spans of seconds to minutes. That drift is common to all interpreter
work, so the runner measures it with a fixed kernel between batches and
scales each batch's times by REFERENCE_UNIT_S over the kernel's unit time
around that batch. A timing metric then reads as "on this host running at
its reference speed". The kernel uses only the standard library and never
imports etopo, so a change to the package cannot change it.
"""

from __future__ import annotations

import gc
import json
import random
from time import perf_counter

# One kernel unit's median time during runs on the 2-vCPU Xeon (2.1 GHz,
# CPython 3.11) the benchmark was tuned on. Fixed, so that scaled times
# from different runs and commits are comparable; it sets only the ratio
# of scaled to unscaled times, which every run prints.
REFERENCE_UNIT_S = 0.0027


class Calibrator:
    """One unit is a breadth-first search over a fixed random graph of
    dicts and lists, then a JSON parse and an indented, sorted dump of a
    fixed document shaped like an instance file: the dict, list and
    loop work of routing and solving, and the JSON work of the I/O layer.
    Both halves are needed; neither alone follows all three workloads."""

    nodes = 2048
    degree = 6

    def __init__(self) -> None:
        rng = random.Random(20000)
        self.adj = {v: [rng.randrange(self.nodes) for _ in range(self.degree)]
                    for v in range(self.nodes)}
        self.text = json.dumps({
            "links": [{"id": i, "a": rng.randrange(50), "b": rng.randrange(50),
                       "fidelity": rng.random(), "throughput": float(rng.randint(1, 8)),
                       "states": list(range(rng.randrange(1, 4)))} for i in range(40)],
            "demands": [{"user": u, "source": u, "target": u + 1, "rate": 0.5 * u}
                        for u in range(12)],
            "thresholds": {"default": 0.0},
        })
        self.measure(0.05)  # warm up

    def unit(self) -> int:
        adj = self.adj
        seen = {0: None}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen[w] = u
                        nxt.append(w)
            frontier = nxt
        for _ in range(2):
            text = json.dumps(json.loads(self.text), indent=2, sort_keys=True)
        return len(seen) + len(text)

    def measure(self, seconds: float, min_units: int = 3) -> float:
        """Seconds per unit, over at least `seconds` and `min_units` units.
        The measure should not depend on the program's heap: the cyclic
        collector, which would walk every object the workload holds, is off
        while it runs, and an untimed unit first brings the kernel's data
        back into the caches."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.unit()
            units = 0
            start = perf_counter()
            while True:
                self.unit()
                units += 1
                elapsed = perf_counter() - start
                if units >= min_units and elapsed >= seconds:
                    return elapsed / units
        finally:
            if enabled:
                gc.enable()

