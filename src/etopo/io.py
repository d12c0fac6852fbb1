"""JSON serialization of every file block, with one reader and one writer each.

Schemas are strict: missing or unknown fields raise ConfigError with the
offending field path so configuration mistakes surface immediately.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import AbstractSet, Any, Mapping, Optional, Union

from .adaption import PStarMode, ThresholdPolicy, adapt
from .assignment import (
    AssignmentInstance,
    AssignmentSolution,
    Demand,
    InterferenceSet,
    ResourceSet,
    SolveResult,
    validate_instance,
)
from .basegraph import map_overlay
from .coloring import ConflictGraph, make_conflict_graph
from .errors import ConfigError, InvalidLevelError, LatticeCapacityError, PlacementError
from .generate import GeneratorParams
from .overlay import (
    EntangledLink,
    FailureEvent,
    FailureKind,
    OverlayNetwork,
    make_network,
    validate,
)

PathLike = Union[str, Path]

_LINK_FIELDS = (
    "id", "a", "b", "level", "swap_success", "photon_loss", "fidelity",
    "throughput", "resource_count",
)
_LINK_INTEGERS = ("id", "a", "b", "level", "resource_count")
_LINK_NUMBERS = ("swap_success", "photon_loss", "fidelity", "throughput")
_INF = float("inf")

# The key sets of the records a file holds many of, built once.
_LINK_KEYS = frozenset(_LINK_FIELDS)
_PLACEMENT_KEYS = frozenset({"node", "coords"})
_FAILURE_KEYS = frozenset({"target", "kind"})
_FAILURE_OPTIONAL = frozenset({"magnitude", "time"})
_DEMAND_KEYS = frozenset({"user", "source", "target"})
_DEMAND_OPTIONAL = frozenset({"rate"})
_RESOURCE_SET_KEYS = frozenset({"link", "states"})
_INTERFERENCE_KEYS = frozenset({"link", "state", "competing"})


def _require(record: Mapping[str, Any], fields: AbstractSet[str], context: str,
             optional: AbstractSet[str] = frozenset()) -> None:
    """record must be an object with every key of fields and no key outside
    fields and optional. A valid record costs one key-set comparison, plus
    a subset test when it holds optional keys; the set arithmetic below
    runs only to name the fault."""
    if type(record) is dict:
        keys = record.keys()
        if keys == fields or (optional and fields <= keys <= fields | optional):
            return
    if not isinstance(record, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = record.keys() - fields - optional
    if unknown:
        raise ConfigError(f"{context}: unknown fields {sorted(unknown)}")
    missing = fields - record.keys()
    if missing:
        raise ConfigError(f"{context}: missing fields {sorted(missing)}")


# Typed field readers. The field path is context plus key (".key", or
# "[key]" for a list index) and is formatted only for the error, so that
# reading valid files costs one call per field.

def _path(context: str, key: Union[str, int]) -> str:
    return f"{context}[{key}]" if type(key) is int else f"{context}.{key}"


def _integer(value: Any, context: str, key: Union[str, int],
             minimum: Optional[int] = None) -> int:
    if type(value) is not int:  # bool is an int subclass, and no count or id
        raise ConfigError(f"{_path(context, key)}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{_path(context, key)}: must be >= {minimum}, got {value}")
    return value


def _number(value: Any, context: str, key: Union[str, int]) -> Union[int, float]:
    if type(value) not in (int, float):  # bool is an int subclass, and no number
        raise ConfigError(f"{_path(context, key)}: expected a number, got {value!r}")
    if not -_INF < value < _INF:  # NaN fails both comparisons
        raise ConfigError(f"{_path(context, key)}: expected a finite number, got {value!r}")
    return value


def _list(value: Any, context: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list")
    return value


def _integer_list(value: Any, context: str, key: Union[str, int]) -> list:
    if type(value) is not list or any(type(v) is not int for v in value):
        raise ConfigError(f"{_path(context, key)}: expected a list of integers, got {value!r}")
    return value


def _integer_pairs(value: Any, context: str, key: Union[str, int]) -> tuple:
    """value, a list of [int, int] lists, as a tuple of pairs."""
    if type(value) is not list or any(
        type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int
        for p in value
    ):
        raise ConfigError(
            f"{_path(context, key)}: expected a list of integer pairs, got {value!r}"
        )
    return tuple((u, v) for u, v in value)


def _load_json(path: PathLike) -> Any:
    # ValueError covers malformed JSON, bytes that do not decode and integer
    # literals over the int-string limit; RecursionError too deep a nesting.
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _json_text(payload: Any) -> str:
    """The one JSON layout of every file and stdout document written."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_file(text: str, path: PathLike) -> None:
    # No O_TRUNC: on ext4 a truncate at open is a journalled inode update
    # even for an empty file, slower and far less steady than the write.
    # The file is cut to length only when it held more than the payload.
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# -- network -----------------------------------------------------------------

def network_to_dict(network: OverlayNetwork) -> dict:
    return {
        "nodes": sorted(network.nodes),
        "links": [
            {f: getattr(link, f) for f in _LINK_FIELDS}
            for link in sorted(network.links, key=lambda l: l.id)
        ],
    }


def network_from_dict(data: Mapping[str, Any], context: str = "network") -> OverlayNetwork:
    """The network block at field path context ("scenario.network" inline)."""
    _require(data, {"nodes", "links"}, context)
    nodes: set[int] = set()
    for i, node in enumerate(_list(data["nodes"], f"{context}.nodes")):
        nodes.add(_integer(node, f"{context}.nodes", i))
        if len(nodes) == i:  # the node was listed before
            raise ConfigError(f"{context}.nodes[{i}]: node {node} appears more than once")
    links = []
    for i, record in enumerate(_list(data["links"], f"{context}.links")):
        where = f"{context}.links[{i}]"
        _require(record, _LINK_KEYS, where)
        for key in _LINK_INTEGERS:
            _integer(record[key], where, key)
        for key in _LINK_NUMBERS:
            _number(record[key], where, key)
        try:
            link = EntangledLink(**record)
        except (ValueError, InvalidLevelError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        links.append(link)
    network = make_network(nodes, links)
    violations = validate(network, context)
    if violations:
        raise ConfigError("; ".join(v.message for v in violations))
    return network


def load_network(path: PathLike) -> OverlayNetwork:
    return network_from_dict(_load_json(path))


def network_file_from_dict(data: Mapping[str, Any], context: str,
                           base_dir: Optional[Path]) -> Optional[str]:
    """data's network_file, resolved against base_dir; None when absent."""
    if "network_file" not in data:
        return None
    ref = data["network_file"]
    if type(ref) is not str:
        raise ConfigError(f"{context}.network_file: expected a string, got {ref!r}")
    return ref if base_dir is None or Path(ref).is_absolute() else str(base_dir / ref)


def save_network(network: OverlayNetwork, path: PathLike) -> None:
    _write_file(_json_text(network_to_dict(network)), path)


# -- base graph and placement -----------------------------------------------

def placement_from_list(data: Any,
                        context: str = "placement") -> dict[int, tuple[int, ...]]:
    """The placement list at field path context."""
    placement: dict[int, tuple[int, ...]] = {}
    for i, record in enumerate(_list(data, context)):
        where = f"{context}[{i}]"
        _require(record, _PLACEMENT_KEYS, where)
        node = _integer(record["node"], where, "node")
        placement[node] = tuple(_integer_list(record["coords"], where, "coords"))
        if len(placement) == i:  # the record replaced an earlier one
            raise ConfigError(f"{where}.node: node {node} is placed more than once")
    return placement


def load_placement(path: PathLike) -> dict[int, tuple[int, ...]]:
    return placement_from_list(_load_json(path))


def base_graph_from_dict(
    data: Mapping[str, Any], context: str, seeded: bool = True
) -> tuple[int, int, Optional[dict[int, tuple[int, ...]]], Optional[int]]:
    """The k, n, placement and seed (None when absent) of a base_graph
    record; map_overlay needs k >= 1, n >= 2. Only a seeded record has a seed."""
    _require(data, {"k", "n"}, context,
             optional={"placement", "seed"} if seeded else {"placement"})
    return (
        _integer(data["k"], context, "k", minimum=1),
        _integer(data["n"], context, "n", minimum=2),
        (placement_from_list(data["placement"], f"{context}.placement")
         if "placement" in data else None),
        _integer(data["seed"], context, "seed") if "seed" in data else None,
    )


# What map_overlay raises for a base_graph block that it cannot place.
BASE_GRAPH_FAULTS = (PlacementError, LatticeCapacityError)


def base_graph_fault(exc: Exception, context: str) -> Exception:
    """exc, one of BASE_GRAPH_FAULTS raised for the base_graph block at field
    path context, of the same type with the path of the field at fault first."""
    where = f"{context}.placement" if isinstance(exc, PlacementError) else context
    return type(exc)(f"{where}: {exc}")


def base_graph_to_dict(k: int, n: int,
                       placement: Optional[Mapping[int, tuple[int, ...]]]) -> dict:
    data: dict[str, Any] = {"k": k, "n": n}
    if placement is not None:
        data["placement"] = [
            {"node": node, "coords": list(coords)}
            for node, coords in sorted(placement.items())
        ]
    return data


# -- thresholds --------------------------------------------------------------

def thresholds_from_dict(data: Mapping[str, Any],
                         context: str = "thresholds") -> ThresholdPolicy:
    """The thresholds block at field path context. Each levels key is a
    level, an integer >= 1 in decimal digits without leading zeros, so no
    two keys name one level."""
    _require(data, set(), context, optional={"default", "levels"})
    levels = data.get("levels", {})
    where = f"{context}.levels"
    if not isinstance(levels, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in levels:
        if not (key.isascii() and key.isdigit() and key[0] != "0"):
            raise ConfigError(f"{where}.{key}: expected an integer level >= 1 "
                              f"without leading zeros")
    try:
        return ThresholdPolicy(
            default=float(_number(data.get("default", 0.0), context, "default")),
            per_level={int(l): float(_number(t, where, l)) for l, t in levels.items()},
        )
    except ValueError as exc:  # the policy's range check names the key first
        raise ConfigError(f"{context}.{exc}") from exc


def thresholds_to_dict(policy: ThresholdPolicy) -> dict:
    return {
        "default": policy.default,
        "levels": {str(l): t for l, t in sorted(policy.per_level.items())},
    }


def pstar_mode_from_dict(data: Mapping[str, Any], context: str) -> ThresholdPolicy:
    """The adaption rule of the scenario or instance record at field path
    context: its thresholds block, with its pstar_mode key as the mode."""
    policy = thresholds_from_dict(data.get("thresholds", {}), f"{context}.thresholds")
    try:
        return replace(policy, mode=PStarMode(data.get("pstar_mode", "measured")))
    except ValueError as exc:
        raise ConfigError(f"{context}.pstar_mode: {exc}") from exc


# -- generator, failures and demands -----------------------------------------

def generator_from_dict(data: Mapping[str, Any], context: str) -> GeneratorParams:
    _require(data, set(), context, optional={f.name for f in fields(GeneratorParams)})
    try:
        return GeneratorParams(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        })
    except ConfigError as exc:
        # GeneratorParams names the field first: "swap_range: ...".
        raise ConfigError(f"{context}.{exc}") from exc


def generator_to_dict(params: GeneratorParams) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(params).items()}


def failure_from_dict(data: Mapping[str, Any], context: str) -> FailureEvent:
    _require(data, _FAILURE_KEYS, context, optional=_FAILURE_OPTIONAL)
    try:
        return FailureEvent(
            target=_integer(data["target"], context, "target"),
            kind=FailureKind(data["kind"]),
            magnitude=_number(data.get("magnitude", 0.0), context, "magnitude"),
            time=_integer(data.get("time", 0), context, "time"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def failure_to_dict(event: FailureEvent) -> dict:
    return {"target": event.target, "kind": event.kind.value,
            "magnitude": event.magnitude, "time": event.time}


def demand_from_dict(data: Mapping[str, Any], context: str) -> Demand:
    _require(data, _DEMAND_KEYS, context, optional=_DEMAND_OPTIONAL)
    try:
        return Demand(
            user=_integer(data["user"], context, "user"),
            source=_integer(data["source"], context, "source"),
            target=_integer(data["target"], context, "target"),
            rate=_number(data.get("rate", 0.0), context, "rate"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def demands_from_list(data: Any, context: str) -> tuple[Demand, ...]:
    return tuple(
        demand_from_dict(d, f"{context}[{i}]") for i, d in enumerate(_list(data, context))
    )


def demand_to_dict(demand: Demand) -> dict:
    return {
        "user": demand.user, "source": demand.source,
        "target": demand.target, "rate": demand.rate,
    }


# -- assignment instances ----------------------------------------------------

def instance_from_dict(
    data: Mapping[str, Any], base_dir: Optional[Path] = None
) -> AssignmentInstance:
    _require(
        data,
        {"base_graph", "demands", "resource_sets"},
        "instance",
        optional={"network", "network_file", "thresholds", "pstar_mode", "interference"},
    )
    if ("network" in data) == ("network_file" in data):
        raise ConfigError("instance: provide exactly one of network, network_file")
    network_file = network_file_from_dict(data, "instance", base_dir)
    network = (network_from_dict(data["network"], "instance.network")
               if network_file is None else load_network(network_file))
    k, n, placement, seed = base_graph_from_dict(data["base_graph"], "instance.base_graph")
    if placement is None and seed is None:  # else each load would place anew
        raise ConfigError("instance.base_graph: provide placement or seed")
    try:
        graph = map_overlay(network, k, n, placement=placement, seed=seed)
    except BASE_GRAPH_FAULTS as exc:
        raise base_graph_fault(exc, "instance.base_graph") from None
    adapted = adapt(graph, network, pstar_mode_from_dict(data, "instance"))
    demands = demands_from_list(data["demands"], "instance.demands")
    resource_sets = {}
    for i, record in enumerate(_list(data["resource_sets"], "instance.resource_sets")):
        where = f"instance.resource_sets[{i}]"
        _require(record, _RESOURCE_SET_KEYS, where)
        link = _integer(record["link"], where, "link")
        states = _integer_list(record["states"], where, "states")
        try:
            resource_sets[link] = ResourceSet(link=link, states=tuple(states))
        except ValueError as exc:
            raise ConfigError(f"{where}.states: {exc}") from exc
        if len(resource_sets) == i:  # the record replaced an earlier one
            raise ConfigError(f"{where}.link: link {link} has more than one resource set")
    interference = []
    for i, record in enumerate(_list(data.get("interference", []), "instance.interference")):
        where = f"instance.interference[{i}]"
        _require(record, _INTERFERENCE_KEYS, where)
        try:
            interference.append(InterferenceSet(
                link=_integer(record["link"], where, "link"),
                state=_integer(record["state"], where, "state"),
                competing=_integer_pairs(record["competing"], where, "competing"),
            ))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    instance = AssignmentInstance(
        network=network,
        graph=graph,
        adapted=adapted,
        demands=demands,
        resource_sets=resource_sets,
        interference=tuple(interference),
    )
    violations = validate_instance(instance)
    if violations:
        raise ConfigError("; ".join(v.message for v in violations))
    return instance


def load_instance(path: PathLike) -> AssignmentInstance:
    path = Path(path)
    return instance_from_dict(_load_json(path), base_dir=path.parent)


def instance_to_dict(instance: AssignmentInstance, policy: ThresholdPolicy) -> dict:
    return {
        "network": network_to_dict(instance.network),
        "base_graph": base_graph_to_dict(
            instance.graph.k, instance.graph.n, instance.graph.placement),
        "thresholds": thresholds_to_dict(policy),
        "pstar_mode": policy.mode.value,
        "demands": [demand_to_dict(d) for d in instance.demands],
        "resource_sets": [
            {"link": link, "states": list(rs.states)}
            for link, rs in sorted(instance.resource_sets.items())
        ],
        "interference": [
            {"link": s.link, "state": s.state,
             "competing": [list(entry) for entry in s.competing]}
            for s in instance.interference
        ],
    }


def save_instance(instance: AssignmentInstance, policy: ThresholdPolicy,
                  path: PathLike) -> None:
    _write_file(_json_text(instance_to_dict(instance, policy)), path)


# -- solutions ---------------------------------------------------------------

def solution_to_dict(solution: AssignmentSolution) -> dict:
    return {
        "C": [list(t) for t in sorted(solution.C)],
        "K": [[u, q, list(ref)] for u, q, ref in sorted(solution.K)],
    }


def solve_result_to_dict(result: SolveResult) -> dict:
    return {
        "status": result.status.value,
        "objective": result.objective,
        **solution_to_dict(result.solution),
        "served": list(result.served),
        "rejected": list(result.rejected),
    }


def save_solve_result(result: SolveResult, path: PathLike) -> None:
    _write_file(_json_text(solve_result_to_dict(result)), path)


# -- conflict graphs ----------------------------------------------------------

def conflict_graph_from_dict(data: Mapping[str, Any]) -> ConflictGraph:
    _require(data, {"vertices", "edges"}, "graph", optional={"k_star"})
    vertices: set[int] = set()
    for i, vertex in enumerate(_integer_list(data["vertices"], "graph", "vertices")):
        vertices.add(vertex)
        if len(vertices) == i:  # the vertex was listed before
            raise ConfigError(f"graph.vertices[{i}]: vertex {vertex} appears more than once")
    try:
        return make_conflict_graph(
            vertices,
            _integer_pairs(data["edges"], "graph", "edges"),
            k_star=(_integer(data["k_star"], "graph", "k_star", minimum=0)
                    if "k_star" in data else None),
        )
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from exc


def load_conflict_graph(path: PathLike) -> ConflictGraph:
    return conflict_graph_from_dict(_load_json(path))
