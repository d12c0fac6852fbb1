"""Scenario runner: config ingestion, trial orchestration, metrics export.

A scenario describes a network source, base-graph parameters, a threshold
policy, user demands, and a failure schedule. Each trial applies the
failures due at or before its tick, adapts the topology, routes every
demand, and solves the resulting assignment instance. All randomness is
drawn from streams derived from the scenario seed, so identical scenarios
produce byte-identical outputs; timing diagnostics go to the log only.
"""

from __future__ import annotations

import csv
import io as _io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from .adaption import ThresholdPolicy, adapt
from .assignment import (
    BNB_VARIABLE_CAP,  # re-exported for callers that size instances by it
    AssignmentInstance,
    Demand,
    InterferenceSet,
    ResourceSet,
    RouteMemo,
    SolveResult,
    SolveStatus,
    solve_exact,
    solve_greedy,
)
from .basegraph import map_overlay
from .errors import ConfigError, NotFoundError, TooLargeError
from .generate import (
    GeneratorParams,
    derive_seed,
    generate_network,
    kleinberg_lattice,
)
from .io import (
    BASE_GRAPH_FAULTS,
    _integer,
    _list,
    _require,
    base_graph_fault,
    base_graph_from_dict,
    base_graph_to_dict,
    demand_to_dict,
    demands_from_list,
    failure_from_dict,
    failure_to_dict,
    generator_from_dict,
    generator_to_dict,
    load_network,
    network_file_from_dict,
    network_from_dict,
    network_to_dict,
    pstar_mode_from_dict,
    solution_to_dict,
    thresholds_to_dict,
)
from .overlay import FailureEvent, LinkId, OverlayNetwork, apply_failures
from .routing import RoutingOutcome, route


def _log():
    # Imported on the first message: programs that only solve or load
    # instances do not carry logging (about 0.6 MB resident).
    import logging

    return logging.getLogger(__name__)


@dataclass(frozen=True)
class Scenario:
    seed: int
    trials: int
    network_file: Optional[str] = None
    network_inline: Optional[OverlayNetwork] = None
    generator: Optional[GeneratorParams] = None
    k: int = 2
    n: int = 8
    placement: Optional[Mapping[int, tuple[int, ...]]] = None
    thresholds: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    demands: tuple[Demand, ...] = ()
    failures: tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        sources = [
            s for s in (self.network_file, self.network_inline, self.generator)
            if s is not None
        ]
        if len(sources) != 1:
            raise ConfigError(
                "scenario: provide exactly one of network, network_file, generator"
            )
        users: set[int] = set()
        for i, d in enumerate(self.demands):
            if d.user in users:
                raise ConfigError(
                    f"scenario.demands[{i}].user: user {d.user} already has a demand;"
                    " scenario demands must use distinct user indices"
                )
            users.add(d.user)


def scenario_from_dict(data: Mapping[str, Any], base_dir: Optional[Path] = None) -> Scenario:
    _require(
        data,
        {"seed", "trials", "base_graph", "demands"},
        "scenario",
        optional={"network", "network_file", "generator", "thresholds",
                  "pstar_mode", "failures"},
    )
    k, n, placement, _ = base_graph_from_dict(
        data["base_graph"], "scenario.base_graph", seeded=False)
    return Scenario(
        seed=_integer(data["seed"], "scenario", "seed"),
        trials=_integer(data["trials"], "scenario", "trials", minimum=1),
        network_file=network_file_from_dict(data, "scenario", base_dir),
        network_inline=(network_from_dict(data["network"], "scenario.network")
                        if "network" in data else None),
        generator=(generator_from_dict(data["generator"], "scenario.generator")
                   if "generator" in data else None),
        k=k,
        n=n,
        placement=placement,
        thresholds=pstar_mode_from_dict(data, "scenario"),
        demands=demands_from_list(data["demands"], "scenario.demands"),
        failures=tuple(
            failure_from_dict(f, f"scenario.failures[{i}]")
            for i, f in enumerate(_list(data.get("failures", []), "scenario.failures"))
        ),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    data: dict[str, Any] = {
        "seed": scenario.seed,
        "trials": scenario.trials,
        "base_graph": base_graph_to_dict(scenario.k, scenario.n, scenario.placement),
        "thresholds": thresholds_to_dict(scenario.thresholds),
        "pstar_mode": scenario.thresholds.mode.value,
        "demands": [demand_to_dict(d) for d in scenario.demands],
        "failures": [failure_to_dict(f) for f in scenario.failures],
    }
    if scenario.network_file is not None:
        data["network_file"] = scenario.network_file
    if scenario.network_inline is not None:
        data["network"] = network_to_dict(scenario.network_inline)
    if scenario.generator is not None:
        data["generator"] = generator_to_dict(scenario.generator)
    return data


@dataclass(frozen=True)
class MetricsRecord:
    """One trial's outcome. routing holds one outcome per scenario demand,
    and served and rejected split the demands; result is the solver's, None
    when no demand could be routed."""

    trial: int
    routing: tuple[tuple[int, RoutingOutcome], ...]
    links_total: int
    links_adapted: int
    served: tuple[int, ...]
    rejected: tuple[int, ...]
    result: Optional[SolveResult]

    @property
    def assign_status(self) -> Optional[SolveStatus]:
        """None when the trial has no demands; infeasible when any demand
        is rejected, unroutable ones included."""
        if not self.routing:
            return None
        return SolveStatus.INFEASIBLE if self.rejected else SolveStatus.FEASIBLE

    @property
    def objective(self) -> Optional[float]:
        """The solver's objective, kept when only unroutable demands are rejected."""
        return self.result.objective if self.result is not None else None


def _base_network(scenario: Scenario) -> OverlayNetwork:
    if scenario.network_inline is not None:
        return scenario.network_inline
    if scenario.network_file is not None:
        return load_network(scenario.network_file)
    assert scenario.generator is not None
    return generate_network(scenario.generator, derive_seed(scenario.seed, "network"))


def link_resource_sets(network: OverlayNetwork) -> dict[LinkId, ResourceSet]:
    """One ResourceSet per link, holding states 0 .. resource_count - 1."""
    return {
        link.id: ResourceSet(link=link.id, states=tuple(range(link.resource_count)))
        for link in network.links
    }


def build_trial_instance(
    network: OverlayNetwork,
    graph,
    adapted,
    demands: tuple[Demand, ...],
    outcomes: Mapping[int, RoutingOutcome],
    resource_sets: Mapping[LinkId, ResourceSet],
) -> tuple[AssignmentInstance, tuple[int, ...]]:
    """Assignment instance over the routable demands.

    Resource sets mirror each adapted link's stored state count; contention
    is declared on every state of a link crossed by two or more routed
    demand paths. Returns the instance plus the scenario demand id of each
    instance demand, in instance order.

    resource_sets is link_resource_sets of a network that holds every
    link of this one with the same resource_count, such as the base
    network the trial's failures were applied to (failures never change
    resource_count); the instance takes the sets of the adapted links from
    it, in the adapted set's order, which is network.links order when
    adapted was built from network. The instance holds no route memo:
    run_scenario owns the trial's routes and hands them to solve_greedy.
    """
    routable = [qid for qid in sorted(outcomes) if outcomes[qid].found]
    local_of = {qid: i for i, qid in enumerate(routable)}
    instance_demands = tuple(demands[qid] for qid in routable)
    retained_sets = {lid: resource_sets[lid] for lid in adapted.links}
    users_on_link: dict[int, list[int]] = {}
    for qid in routable:
        path = outcomes[qid].path
        for lid in path.links:
            users_on_link.setdefault(lid, []).append(qid)
    interference = []
    for lid in sorted(users_on_link):
        contenders = users_on_link[lid]
        if len(contenders) < 2:
            continue
        competing = tuple(
            (demands[qid].user, local_of[qid]) for qid in contenders
        )
        for state in retained_sets[lid].states:
            interference.append(InterferenceSet(link=lid, state=state, competing=competing))
    instance = AssignmentInstance(
        network=network,
        graph=graph,
        adapted=adapted,
        demands=instance_demands,
        resource_sets=retained_sets,
        interference=tuple(interference),
    )
    return instance, tuple(routable)


def run_scenario(scenario: Scenario) -> list[MetricsRecord]:
    """Run every trial; failure events naming no link of the base network
    are skipped with a warning, one per event. A demand endpoint that is
    not a node of the base network raises ConfigError before any trial.

    Each trial routes each distinct (source, target) pair of its demands
    once, into a route memo that this function owns and drops when the
    trial ends; the greedy solver reads it and adds the spill re-routes
    it walks to the end. A spill walk that stops early, sure to cross the
    demand's own walk, is refused without being kept, so the memo and the
    records hold only FOUND and UNREACHABLE outcomes.
    The resource sets are built once, from the base network.
    """
    base = _base_network(scenario)
    for i, demand in enumerate(scenario.demands):  # failures never remove nodes
        for end, node in (("source", demand.source), ("target", demand.target)):
            if node not in base.nodes:
                raise ConfigError(f"scenario.demands[{i}].{end}: node {node} "
                                  f"is not a network node")
    resource_sets = link_resource_sets(base)
    for event in scenario.failures:
        try:
            base.link_by_id(event.target)
        except NotFoundError:
            _log().warning(
                "failure event %s at time %r targets link %r, which the base "
                "network does not have; skipped",
                event.kind.value, event.time, event.target,
            )
    records: list[MetricsRecord] = []
    for trial in range(scenario.trials):
        t0 = time.perf_counter()
        network = apply_failures(base, scenario.failures, until=trial)
        placement_seed = derive_seed(scenario.seed, "placement", trial)
        try:
            graph = map_overlay(network, scenario.k, scenario.n,
                                placement=scenario.placement, seed=placement_seed)
        except BASE_GRAPH_FAULTS as exc:
            raise base_graph_fault(exc, "scenario.base_graph") from None
        adapted = adapt(graph, network, scenario.thresholds)
        t1 = time.perf_counter()

        routes: RouteMemo = {}
        outcomes: dict[int, RoutingOutcome] = {}
        for qid, demand in enumerate(scenario.demands):
            pair = (demand.source, demand.target)
            if pair not in routes:
                routes[pair] = route(graph, adapted, *pair)
            outcomes[qid] = routes[pair]
        t2 = time.perf_counter()

        instance, routable = build_trial_instance(
            network, graph, adapted, scenario.demands, outcomes, resource_sets
        )
        result = None
        if instance.demands:
            try:
                result = solve_exact(instance)
            except TooLargeError:
                result = solve_greedy(instance, routes)
        served = () if result is None else tuple(routable[i] for i in result.served)
        t3 = time.perf_counter()
        _log().info(
            "trial %d timings: adapt=%.4fs route=%.4fs assign=%.4fs",
            trial, t1 - t0, t2 - t1, t3 - t2,
        )
        records.append(
            MetricsRecord(
                trial=trial,
                routing=tuple(sorted(outcomes.items())),
                links_total=len(network.links),
                links_adapted=len(adapted.links),
                served=served,
                rejected=tuple(q for q in outcomes if q not in served),
                result=result,
            )
        )
    return records


def _routing_cell(records: tuple[tuple[int, RoutingOutcome], ...]) -> str:
    parts = []
    for qid, outcome in records:
        parts.append(
            f"q{qid}:{outcome.status.value}:{outcome.diameter}:{outcome.steps_taken}"
        )
    return ";".join(parts)


CSV_COLUMNS = (
    "trial", "links_total", "links_adapted", "demands", "served", "rejected",
    "assign_status", "objective", "routing",
)


def records_to_csv(records: list[MetricsRecord]) -> str:
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([
            rec.trial,
            rec.links_total,
            rec.links_adapted,
            len(rec.routing),
            len(rec.served),
            len(rec.rejected),
            rec.assign_status.value if rec.assign_status is not None else "",
            repr(rec.objective) if rec.objective is not None else "",
            _routing_cell(rec.routing),
        ])
    return buffer.getvalue()


def records_to_solutions(scenario: Scenario, records: list[MetricsRecord]) -> dict:
    """The solutions.json document. Each K grant names its demand by its
    scenario id, like served and rejected; the solver's K uses its
    instance's ids, so the demand is looked up by the grant's user, who has
    one demand in a scenario."""
    qid_of_user = {d.user: qid for qid, d in enumerate(scenario.demands)}
    trials = []
    for rec in records:
        entry: dict[str, Any] = {
            "trial": rec.trial,
            "assign_status": rec.assign_status.value if rec.assign_status else None,
            "objective": rec.objective,
            "served": list(rec.served),
            "rejected": list(rec.rejected),
            "routing": [
                {"demand": qid, "status": o.status.value,
                 "diameter": o.diameter, "steps": o.steps_taken}
                for qid, o in rec.routing
            ],
        }
        if rec.result is not None:
            entry.update(solution_to_dict(rec.result.solution))
            entry["K"] = [[u, qid_of_user[u], ref] for u, _, ref in entry["K"]]
        trials.append(entry)
    return {"seed": scenario.seed, "trials": trials}


@dataclass(frozen=True)
class BenchRow:
    n: int
    trials: int
    mean_steps: float
    log2n_squared: float

    @property
    def normalized(self) -> float:
        return self.mean_steps / self.log2n_squared


def bench_routing(sizes: list[int], trials: int, seed: int) -> list[BenchRow]:
    """Mean greedy step counts on lattices with long-range links, per size.

    Per size, the log line gives mean_steps and the seconds spent building
    the lattice, adapting it and routing the trials; the rows do not.
    """
    rows = []
    for n in sizes:
        t0 = time.perf_counter()
        network, graph = kleinberg_lattice(n, derive_seed(seed, "lattice", n))
        t1 = time.perf_counter()
        adapted = adapt(graph, network, ThresholdPolicy(default=0.0))
        t2 = time.perf_counter()
        rng = random.Random(derive_seed(seed, "pairs", n))
        total_steps = 0
        node_count = n * n
        for _ in range(trials):
            source = rng.randrange(node_count)
            target = rng.randrange(node_count)
            while target == source:
                target = rng.randrange(node_count)
            total_steps += route(graph, adapted, source, target).steps_taken
        t3 = time.perf_counter()
        rows.append(
            BenchRow(
                n=n,
                trials=trials,
                mean_steps=total_steps / trials,
                log2n_squared=math.log2(n) ** 2,
            )
        )
        _log().info(
            "bench n=%d mean_steps=%.2f build=%.4fs adapt=%.4fs route=%.4fs",
            n, rows[-1].mean_steps, t1 - t0, t2 - t1, t3 - t2,
        )
    return rows
