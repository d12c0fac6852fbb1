"""The benchmark's three workloads.

Each workload owns its set-up, a deterministic stream of operation inputs
drawn from the seed, one operation (a closed-loop request into the
library) and the checks on that operation's output. Operations call the
library through an `api` namespace, which holds either the plain library
functions or the Tracer's wrappers of them, so the same code serves the
untraced and the traced run. Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator

import etopo.assignment
import etopo.generate
import etopo.io
import etopo.scenario
from etopo import (
    AssignmentInstance,
    Demand,
    EntangledLink,
    InterferenceSet,
    ResourceSet,
    ThresholdPolicy,
    adapt,
    check_capacity,
    check_interference,
    kleinberg_lattice,
    make_conflict_graph,
    make_network,
    map_overlay,
    objective,
    reduction_from_coloring,
    route,
    run_scenario,
    scenario_from_dict,
    shortest_path_oracle,
    solve_exact,
    solve_greedy,
    validate_instance,
)
from etopo.errors import ConfigError, TooLargeError
from etopo.io import load_instance, save_instance, save_solve_result
from etopo.scenario import BNB_VARIABLE_CAP, records_to_csv, records_to_solutions

from spans import Tracer


def sub_seed(seed: int, *labels: object) -> int:
    """Independent input stream per label. Kept here, not taken from the
    package, so that the inputs do not change when the package does."""
    text = "|".join(map(str, (seed, *labels)))
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


def export(scenario, records, out_dir: Path) -> tuple[str, str]:
    """What `etopo run` does after run_scenario: render and write both files."""
    csv_text = records_to_csv(records)
    json_text = json.dumps(
        records_to_solutions(scenario, records), indent=2, sort_keys=True
    ) + "\n"
    (out_dir / "metrics.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / "solutions.json").write_text(json_text, encoding="utf-8")
    return csv_text, json_text


PLAIN = SimpleNamespace(
    kleinberg_lattice=kleinberg_lattice, adapt=adapt, route=route,
    scenario_from_dict=scenario_from_dict, run_scenario=run_scenario, export=export,
    load_instance=load_instance, validate_instance=validate_instance,
    solve_exact=solve_exact, solve_greedy=solve_greedy,
    save_solve_result=save_solve_result,
)


# Counting hooks: what a span keeps of its call's arguments and result.
def _route_note(args, outcome):
    return (outcome.found, outcome.steps_taken, outcome.diameter)


def _adapt_note(args, adapted):
    return (len(adapted.links), len(args[1].links))


def _solve_note(args, result):
    return (result.feasible, len(result.served), len(result.rejected), len(args[0].demands))


NOTES = {"route": _route_note, "adapt": _adapt_note,
         "solve_exact": _solve_note, "solve_greedy": _solve_note}

# Module attributes the pipeline looks up at call time, rebound while a
# traced operation runs. Which ones fire depends on the workload.
PATCHES = (
    (etopo.generate, "map_overlay"),
    (etopo.scenario, "generate_network"),
    (etopo.scenario, "apply_failures"),
    (etopo.scenario, "map_overlay"),
    (etopo.scenario, "adapt"),
    (etopo.scenario, "route"),
    (etopo.scenario, "build_trial_instance"),
    (etopo.scenario, "solve_exact"),
    (etopo.scenario, "solve_greedy"),
    (etopo.assignment, "route"),
    (etopo.assignment, "enumerate_simple_paths"),
    (etopo.io, "map_overlay"),
    (etopo.io, "adapt"),
)


def traced_api(tracer: Tracer) -> SimpleNamespace:
    """PLAIN with every function wrapped, and the pipeline's lookups registered."""
    for module, attr in PATCHES:
        tracer.patch(module, attr, attr, NOTES.get(attr))
    return SimpleNamespace(**{
        name: tracer.wrap(name, fn, NOTES.get(name)) for name, fn in vars(PLAIN).items()
    })


class Workload:
    name = ""
    batch = 1       # operations timed back to back before their checks run
    ref_ops = 1     # operations in the reference pass
    cycle = None    # when set, inputs repeat with this period; the loop ends on a whole cycle

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, api) -> None:
        """Build everything the operations need; timed as setup_s."""

    def inputs(self) -> Iterator[tuple[Any, Any]]:
        """(key, input) per operation, the same for the same seed; equal keys
        must give byte-identical outputs."""
        raise NotImplementedError

    def run(self, api, inp) -> Any:
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Problems with one operation's output; empty when it is correct."""
        raise NotImplementedError

    def output_bytes(self, out) -> bytes:
        """The output stream that the reference digest covers."""
        raise NotImplementedError

    def reference_checks(self, results: list) -> list[str]:
        """Costlier checks, run on the reference pass only."""
        return []

    def bytes_written(self, out) -> int:
        return 0

    def close(self) -> None:
        """Undo anything set-up changed outside this object."""


# -- lattice_routing ----------------------------------------------------------

class LatticeRouting(Workload):
    """Greedy routing on a 256 x 256 Kleinberg lattice.

    Set-up builds the lattice and adapts it at threshold 0; one operation is
    one route() between random distinct cells. n = 256 keeps set-up under
    ten seconds while the walk is long enough (about 29 steps) for routing
    to be nearly all of the operation.
    """

    name = "lattice_routing"
    side = 256
    batch = 200
    ref_ops = 2000
    oracle_checks = 12

    def setup(self, api) -> None:
        self.network, self.graph = api.kleinberg_lattice(
            self.side, sub_seed(self.seed, "lattice")
        )
        self.adapted = api.adapt(self.graph, self.network, ThresholdPolicy(default=0.0))

    def inputs(self):
        rng = random.Random(sub_seed(self.seed, "pairs"))
        cells = self.side * self.side
        for i in itertools.count():
            source, target = rng.sample(range(cells), 2)
            yield i, (source, target)

    def run(self, api, inp):
        return api.route(self.graph, self.adapted, *inp)

    def check(self, inp, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"route{inp} raised {out!r}"]
        source, target = inp
        if not out.found:
            return [f"route{inp}: not found on a connected lattice"]
        nodes, links = out.path.nodes, out.path.links
        problems = []
        if nodes[0] != source or nodes[-1] != target:
            problems.append(f"route{inp}: path runs {nodes[0]} -> {nodes[-1]}")
        if len(set(nodes)) != len(nodes):
            problems.append(f"route{inp}: path revisits a node")
        if out.diameter != len(links) or out.steps_taken < out.diameter:
            problems.append(f"route{inp}: diameter {out.diameter}, steps {out.steps_taken}, "
                            f"{len(links)} links")
        for u, v, lid in zip(nodes, nodes[1:], links):
            if lid not in self.adapted.links or (v, lid) not in self.graph.contacts_of(u):
                problems.append(f"route{inp}: hop {u}->{v} over link {lid} is not an adapted link")
                break
        return problems

    def output_bytes(self, out) -> bytes:
        path = out.path
        return (f"{out.status.value} {out.diameter} {out.steps_taken} "
                f"{path.nodes if path else ()} {path.links if path else ()}\n").encode()

    def reference_checks(self, results) -> list[str]:
        problems = []
        rng = random.Random(sub_seed(self.seed, "oracle"))
        for inp, out in rng.sample(results, min(self.oracle_checks, len(results))):
            best = shortest_path_oracle(self.graph, self.adapted, *inp)
            if not best.found or out.diameter < best.diameter:
                problems.append(f"route{inp}: diameter {out.diameter} below BFS {best.diameter}")
        return problems


# -- scenario_greedy ------------------------------------------------------------

SCENARIO_NODES = 120
SCENARIO_LINKS = 480
SCENARIO_DEMANDS = 24
FAILURE_KINDS = ("remove-link", "degrade-swap", "degrade-loss", "degrade-fidelity")


def scenario_input(seed: int) -> dict:
    """One `etopo run` scenario file, as its parsed JSON.

    120 nodes and 480 links (mean degree 8) at levels 1-2 with 1-2 states
    per link, 24 demands at rates 1-4 against throughputs 1-10, so that
    states run out and capacity binds: about half the demands are served
    and greedy re-routes several times per demand. 24 demands times
    hundreds of states is far above the branch-and-bound cap, so every
    trial is solved greedily.
    """
    rng = random.Random(seed)
    demands = []
    for user in range(SCENARIO_DEMANDS):
        source, target = rng.sample(range(SCENARIO_NODES), 2)
        demands.append({"user": user, "source": source, "target": target,
                        "rate": rng.randint(4, 16) / 4})
    failures = [
        {"target": rng.randrange(SCENARIO_LINKS), "kind": kind,
         "magnitude": rng.randint(1, 3) / 4, "time": rng.randrange(2)}
        for kind in FAILURE_KINDS
    ]
    return {
        "seed": rng.randrange(2**31),
        "trials": 2,
        "generator": {"num_nodes": SCENARIO_NODES, "num_links": SCENARIO_LINKS,
                      "levels": [1, 2], "resource_range": [1, 2]},
        "base_graph": {"k": 2, "n": 16},
        "thresholds": {"default": 0.15, "levels": {"2": 0.25}},
        "demands": demands,
        "failures": failures,
    }


@dataclass
class ScenarioOutput:
    records: list
    csv_text: str
    json_text: str
    instances: tuple


class ScenarioGreedy(Workload):
    """One `etopo run` in-process per operation, on a fresh seeded scenario."""

    name = "scenario_greedy"
    batch = 2
    ref_ops = 4
    setup_scenarios = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # The checks need each trial's assignment instance, which
        # run_scenario does not return: keep what build_trial_instance built.
        # Installed before any Tracer, so a traced run wraps this capture.
        self._build = etopo.scenario.build_trial_instance
        self._built: list = []

        def keep(*args, **kwargs):
            built = self._build(*args, **kwargs)
            self._built.append(built)
            return built

        etopo.scenario.build_trial_instance = keep

    def setup(self, api) -> None:
        self.out_dir = self.workdir / "run"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # Determinism gate: each of the first scenarios, run twice, must give
        # the same bytes. Three rather than one, so that set-up time depends
        # less on how hard one seed's first scenario happens to be.
        for i in range(self.setup_scenarios):
            scenario = scenario_input(sub_seed(self.seed, "scenario", i))
            once, again = (self.output_bytes(self.run(api, scenario)) for _ in range(2))
            if once != again:
                raise RuntimeError(f"scenario {i} gave different bytes on a second run")

    def close(self) -> None:
        etopo.scenario.build_trial_instance = self._build

    def inputs(self):
        for i in itertools.count():
            yield i, scenario_input(sub_seed(self.seed, "scenario", i))

    def run(self, api, inp):
        self._built = []
        scenario = api.scenario_from_dict(inp)
        records = api.run_scenario(scenario)
        csv_text, json_text = api.export(scenario, records, self.out_dir)
        return ScenarioOutput(records, csv_text, json_text, tuple(self._built))

    def check(self, inp, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"scenario seed {inp['seed']} raised {out!r}"]
        problems = []
        if len(out.records) != inp["trials"] or len(out.instances) != inp["trials"]:
            problems.append(f"scenario seed {inp['seed']}: {len(out.records)} records")
        every = set(range(len(inp["demands"])))
        for rec, (instance, _) in zip(out.records, out.instances):
            where = f"scenario seed {inp['seed']} trial {rec.trial}"
            served, rejected = set(rec.served), set(rec.rejected)
            if served & rejected or served | rejected != every:
                problems.append(f"{where}: served and rejected do not split the demands")
            if rec.result is not None:
                for violation in (check_capacity(instance, rec.result.solution)
                                  + check_interference(instance, rec.result.solution)):
                    problems.append(f"{where}: {violation.message}")
        return problems

    def output_bytes(self, out) -> bytes:
        return out.csv_text.encode() + out.json_text.encode()

    def bytes_written(self, out) -> int:
        return len(self.output_bytes(out))


# -- assign_exact -----------------------------------------------------------------

DENOM = 64


def dyadic(rng: random.Random, lo: float, hi: float) -> float:
    """Multiples of 1/64, so that objective sums are exact in floating point."""
    return rng.randint(int(lo * DENOM), int(hi * DENOM)) / DENOM


def routed_instance(rng: random.Random):
    """A small overlay with 1-3 demands that route, 1-3 states per link and
    random interference sets; None when a demand has no route."""
    num_nodes = rng.randint(4, 6)
    pairs = list(itertools.combinations(range(num_nodes), 2))
    chosen = sorted(rng.sample(pairs, rng.randint(num_nodes - 1, min(num_nodes + 3, len(pairs)))))
    links = [
        EntangledLink(
            id=i, a=a, b=b, level=1,
            swap_success=dyadic(rng, 0.25, 1.0), photon_loss=dyadic(rng, 0.0, 0.5),
            fidelity=dyadic(rng, 0.5, 1.0), throughput=float(rng.randint(1, 8)),
            resource_count=rng.randint(1, 3),
        )
        for i, (a, b) in enumerate(chosen)
    ]
    network = make_network(range(num_nodes), links)
    cells = rng.sample(range(16), num_nodes)
    graph = map_overlay(network, k=2, n=4,
                        placement={v: (c % 4, c // 4) for v, c in enumerate(cells)})
    adapted = adapt(graph, network, ThresholdPolicy(default=0.0))
    demands = []
    for user in range(rng.randint(1, 3)):
        source, target = rng.sample(range(num_nodes), 2)
        if not route(graph, adapted, source, target).found:
            return None
        demands.append(Demand(user=user, source=source, target=target,
                              rate=dyadic(rng, 0.25, 3.0)))
    resource_sets = {
        l.id: ResourceSet(link=l.id, states=tuple(range(l.resource_count))) for l in links
    }
    interference = []
    if len(demands) >= 2:
        for _ in range(rng.randint(0, 3)):
            link = rng.choice(links)
            qids = sorted(rng.sample(range(len(demands)), rng.randint(2, len(demands))))
            interference.append(InterferenceSet(
                link=link.id, state=rng.randrange(link.resource_count),
                competing=tuple((demands[q].user, q) for q in qids),
            ))
    return AssignmentInstance(
        network=network, graph=graph, adapted=adapted, demands=tuple(demands),
        resource_sets=resource_sets, interference=tuple(interference),
    )


def coloring_instance(rng: random.Random, vertices: int, colors: int) -> AssignmentInstance:
    edges = [e for e in itertools.combinations(range(vertices), 2) if rng.random() < 0.5]
    return reduction_from_coloring(make_conflict_graph(range(vertices), edges), colors)


def _routed_bucket(instance):
    n_vars = instance.n_variables()
    if n_vars <= 12:
        return n_vars
    if n_vars <= BNB_VARIABLE_CAP:
        return ("13-40", len(instance.demands))
    return None


# Pool make-up, fixed so that every seed times the same mix. Solve time grows
# about twofold per binary variable up to 12, where solve_exact switches from
# exhaustive search to branch-and-bound, so each size up to 12 has its own
# quota; above 12, each number of demands has its own. Left to chance, these
# shares moved the median latency by about 10% from seed to seed, because it
# falls among 6-7 variable exhaustive solves and 1-2 demand branch-and-bound
# solves. Coloring reductions are (vertices, colors) with vertices * colors
# variables, 6-12 on the exhaustive side and 15-40 on the other.
ROUTED_QUOTA = {3: 2, 4: 8, 5: 20, 6: 46, 7: 56, 8: 60, 9: 48, 10: 48, 11: 48, 12: 48,
                ("13-40", 1): 80, ("13-40", 2): 152, ("13-40", 3): 120}
COLORING_SHAPES = ((3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3), (6, 4), (8, 4), (10, 4))
COLORING_PER_SHAPE = 8


def instance_pool(seed: int) -> list[AssignmentInstance]:
    rng = random.Random(seed)
    pool = []
    left = dict(ROUTED_QUOTA)
    for _ in range(200_000):
        if not any(left.values()):
            break
        instance = routed_instance(rng)
        if instance is None:
            continue
        bucket = _routed_bucket(instance)
        if left.get(bucket):
            left[bucket] -= 1
            pool.append(instance)
    else:
        raise RuntimeError(f"instance pool quotas not met: {left}")
    for vertices, colors in COLORING_SHAPES:
        pool.extend(coloring_instance(rng, vertices, colors) for _ in range(COLORING_PER_SHAPE))
    rng.shuffle(pool)
    return pool


@dataclass
class AssignOutput:
    instance: AssignmentInstance
    result: Any
    path: Path
    saved: bytes = b""


class AssignExact(Workload):
    """`etopo assign --solver auto` as library calls, over a fixed-mix pool."""

    name = "assign_exact"
    batch = 40

    def setup(self, api) -> None:
        in_dir, out_dir = self.workdir / "instances", self.workdir / "results"
        in_dir.mkdir(parents=True, exist_ok=True)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for i, instance in enumerate(instance_pool(sub_seed(self.seed, "pool"))):
            save_instance(instance, ThresholdPolicy(default=0.0), in_dir / f"{i}.json")
            self.files.append(in_dir / f"{i}.json")
        self.ref_ops = self.cycle = len(self.files)
        self.out_dir = out_dir
        self.saves = itertools.count()

    def inputs(self):
        """(instance file, result file). Every input saves to its own result
        file, created empty here, before the batch's clock starts, as when
        a result is written over. Creating the file inside the timed
        operation made the median latency vary threefold between runs on
        ext4, and rewriting one file over and over made the write noisier
        still. Result files two batches old, long checked, are removed."""
        for i in itertools.count():
            key = i % len(self.files)
            save = next(self.saves)
            out_path = self.out_dir / f"{save}.json"
            out_path.touch()
            (self.out_dir / f"{save - 2 * self.batch}.json").unlink(missing_ok=True)
            yield key, (self.files[key], out_path)

    def run(self, api, inp):
        in_path, out_path = inp
        instance = api.load_instance(in_path)
        violations = api.validate_instance(instance)
        if violations:
            raise ConfigError("; ".join(f"{v.code}: {v.message}" for v in violations))
        try:
            result = api.solve_exact(instance, bnb_cap=BNB_VARIABLE_CAP)
        except TooLargeError:
            result = api.solve_greedy(instance)
        api.save_solve_result(result, out_path)
        return AssignOutput(instance, result, out_path)

    def check(self, inp, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"{inp[0].name} raised {out!r}"]
        where = f"instance {inp[0].name}"
        instance, result = out.instance, out.result
        out.saved = out.path.read_bytes()
        saved = json.loads(out.saved)
        if saved["objective"] != result.objective or saved["status"] != result.status.value:
            return [f"{where}: saved result differs from the returned one"]
        if not result.feasible:
            return [] if result.objective is None else [f"{where}: infeasible with an objective"]
        problems = [f"{where}: {v.message}" for v in
                    check_capacity(instance, result.solution)
                    + check_interference(instance, result.solution)]
        if result.objective != objective(instance, result.solution):
            problems.append(f"{where}: objective {result.objective} is not recomputed")
        return problems

    def output_bytes(self, out) -> bytes:
        return out.saved

    def bytes_written(self, out) -> int:
        return len(out.saved)

    def reference_checks(self, results) -> list[str]:
        problems = []
        for inp, out in results:
            greedy = solve_greedy(out.instance)
            if greedy.feasible and not out.result.feasible:
                problems.append(f"instance {inp[0].name}: greedy serves all, exact finds none")
            elif greedy.feasible and out.result.objective > greedy.objective:
                problems.append(f"instance {inp[0].name}: exact {out.result.objective} "
                                f"above greedy {greedy.objective}")
        return problems


WORKLOADS = {w.name: w for w in (LatticeRouting, ScenarioGreedy, AssignExact)}
