"""JSON serialization of networks, placements, instances, and solutions.

Schemas are strict: missing or unknown fields raise ConfigError with the
offending field path so configuration mistakes surface immediately.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from .adaption import PStarMode, ThresholdPolicy, adapt
from .assignment import (
    AssignmentInstance,
    Demand,
    InterferenceSet,
    ResourceSet,
    SolveResult,
)
from .basegraph import map_overlay
from .coloring import ConflictGraph, make_conflict_graph
from .errors import ConfigError
from .overlay import (
    EntangledLink,
    FailureEvent,
    FailureKind,
    OverlayNetwork,
    make_network,
)

PathLike = Union[str, Path]

_LINK_FIELDS = (
    "id", "a", "b", "level", "swap_success", "photon_loss", "fidelity",
    "throughput", "resource_count",
)


def _require(record: Mapping[str, Any], fields: tuple[str, ...], context: str,
             optional: tuple[str, ...] = ()) -> None:
    if not isinstance(record, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(record) - set(fields) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown fields {sorted(unknown)}")
    missing = set(fields) - set(record)
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
    return value


def _list(value: Any, context: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list")
    return value


def _base_graph_shape(record: Mapping[str, Any], context: str) -> tuple[int, int]:
    """The (k, n) of a base_graph record; map_overlay needs k >= 1, n >= 2."""
    return (_integer(record["k"], context, "k", minimum=1),
            _integer(record["n"], context, "n", minimum=2))


def _load_json(path: PathLike) -> Any:
    try:
        return json.loads(Path(path).read_bytes())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _dump_json(payload: Any, path: PathLike) -> None:
    # No O_TRUNC: on ext4 a truncate at open is a journalled inode update
    # even for an empty file, slower and far less steady than the write.
    # The file is cut to length only when it held more than the payload.
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
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


def network_from_dict(data: Mapping[str, Any]) -> OverlayNetwork:
    _require(data, ("nodes", "links"), "network")
    for i, node in enumerate(_list(data["nodes"], "network.nodes")):
        if type(node) is not int:  # bool is an int subclass, and no node id
            raise ConfigError(f"network.nodes[{i}]: expected an integer, got {node!r}")
    nodes = frozenset(data["nodes"])
    links = []
    for i, record in enumerate(_list(data["links"], "network.links")):
        _require(record, _LINK_FIELDS, f"network.links[{i}]")
        try:
            link = EntangledLink(**record)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"network.links[{i}]: {exc}") from exc
        for endpoint in link.endpoints:
            if endpoint not in nodes:
                raise ConfigError(
                    f"network.links[{i}]: endpoint {endpoint} is not in network.nodes"
                )
        links.append(link)
    return make_network(nodes, links)


def load_network(path: PathLike) -> OverlayNetwork:
    return network_from_dict(_load_json(path))


def save_network(network: OverlayNetwork, path: PathLike) -> None:
    _dump_json(network_to_dict(network), path)


# -- placement ---------------------------------------------------------------

def placement_from_list(data: Any) -> dict[int, tuple[int, ...]]:
    placement: dict[int, tuple[int, ...]] = {}
    for i, record in enumerate(_list(data, "placement")):
        _require(record, ("node", "coords"), f"placement[{i}]")
        node, coords = record["node"], record["coords"]
        if type(node) is not int:  # bool is an int subclass, and no node id
            raise ConfigError(f"placement[{i}].node: expected an integer, got {node!r}")
        if not isinstance(coords, list) or any(type(c) is not int for c in coords):
            raise ConfigError(
                f"placement[{i}].coords: expected a list of integers, got {coords!r}"
            )
        placement[node] = tuple(coords)
    return placement


def load_placement(path: PathLike) -> dict[int, tuple[int, ...]]:
    return placement_from_list(_load_json(path))


# -- thresholds --------------------------------------------------------------

def thresholds_from_dict(data: Mapping[str, Any]) -> ThresholdPolicy:
    _require(data, (), "thresholds", optional=("default", "levels"))
    levels = data.get("levels", {})
    if not isinstance(levels, dict):
        raise ConfigError("thresholds.levels: expected an object")
    try:
        return ThresholdPolicy(
            default=float(_number(data.get("default", 0.0), "thresholds", "default")),
            per_level={int(l): float(_number(t, "thresholds.levels", l))
                       for l, t in levels.items()},
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"thresholds: {exc}") from exc


def thresholds_to_dict(policy: ThresholdPolicy) -> dict:
    return {
        "default": policy.default,
        "levels": {str(l): t for l, t in sorted(policy.per_level.items())},
    }


# -- failures and demands ----------------------------------------------------

def failure_from_dict(data: Mapping[str, Any], context: str) -> FailureEvent:
    _require(data, ("target", "kind"), context, optional=("magnitude", "time"))
    try:
        return FailureEvent(
            target=_integer(data["target"], context, "target"),
            kind=FailureKind(data["kind"]),
            magnitude=_number(data.get("magnitude", 0.0), context, "magnitude"),
            time=_integer(data.get("time", 0), context, "time"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def demand_from_dict(data: Mapping[str, Any], context: str) -> Demand:
    _require(data, ("user", "source", "target"), context, optional=("rate",))
    try:
        return Demand(
            user=_integer(data["user"], context, "user"),
            source=_integer(data["source"], context, "source"),
            target=_integer(data["target"], context, "target"),
            rate=_number(data.get("rate", 0.0), context, "rate"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


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
        ("base_graph", "demands", "resource_sets"),
        "instance",
        optional=("network", "network_file", "thresholds", "pstar_mode", "interference"),
    )
    if ("network" in data) == ("network_file" in data):
        raise ConfigError("instance: provide exactly one of network, network_file")
    if "network" in data:
        network = network_from_dict(data["network"])
    else:
        ref = Path(data["network_file"])
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        network = load_network(ref)

    bg = data["base_graph"]
    _require(bg, ("k", "n"), "instance.base_graph", optional=("placement", "seed"))
    placement = placement_from_list(bg["placement"]) if "placement" in bg else None
    k, n = _base_graph_shape(bg, "instance.base_graph")
    graph = map_overlay(network, k, n, placement=placement, seed=bg.get("seed"))

    policy = thresholds_from_dict(data.get("thresholds", {}))
    try:
        mode = PStarMode(data.get("pstar_mode", "measured"))
    except ValueError as exc:
        raise ConfigError(f"instance.pstar_mode: {exc}") from exc
    adapted = adapt(graph, network, policy, mode)

    demands = tuple(
        demand_from_dict(d, f"instance.demands[{i}]")
        for i, d in enumerate(data["demands"])
    )
    resource_sets = {}
    for i, record in enumerate(data["resource_sets"]):
        _require(record, ("link", "states"), f"instance.resource_sets[{i}]")
        resource_sets[record["link"]] = ResourceSet(
            link=record["link"], states=tuple(record["states"])
        )
    interference = []
    for i, record in enumerate(data.get("interference", [])):
        _require(record, ("link", "state", "competing"), f"instance.interference[{i}]")
        try:
            interference.append(
                InterferenceSet(
                    link=record["link"],
                    state=record["state"],
                    competing=tuple((u, q) for u, q in record["competing"]),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"instance.interference[{i}]: {exc}") from exc
    return AssignmentInstance(
        network=network,
        graph=graph,
        adapted=adapted,
        demands=demands,
        resource_sets=resource_sets,
        interference=tuple(interference),
    )


def load_instance(path: PathLike) -> AssignmentInstance:
    return instance_from_dict(_load_json(path), base_dir=Path(path).parent)


def instance_to_dict(instance: AssignmentInstance, policy: ThresholdPolicy,
                     mode: PStarMode = PStarMode.MEASURED) -> dict:
    return {
        "network": network_to_dict(instance.network),
        "base_graph": {
            "k": instance.graph.k,
            "n": instance.graph.n,
            "placement": [
                {"node": node, "coords": list(coords)}
                for node, coords in sorted(instance.graph.placement.items())
            ],
        },
        "thresholds": thresholds_to_dict(policy),
        "pstar_mode": mode.value,
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
                  path: PathLike, mode: PStarMode = PStarMode.MEASURED) -> None:
    _dump_json(instance_to_dict(instance, policy, mode), path)


# -- solutions ---------------------------------------------------------------

def solve_result_to_dict(result: SolveResult) -> dict:
    return {
        "status": result.status.value,
        "objective": result.objective,
        "C": [list(t) for t in sorted(result.solution.C)],
        "K": [[u, q, list(ref)] for u, q, ref in sorted(result.solution.K)],
        "served": list(result.served),
        "rejected": list(result.rejected),
    }


def save_solve_result(result: SolveResult, path: PathLike) -> None:
    _dump_json(solve_result_to_dict(result), path)


# -- conflict graphs ----------------------------------------------------------

def conflict_graph_from_dict(data: Mapping[str, Any]) -> ConflictGraph:
    _require(data, ("vertices", "edges"), "graph", optional=("k_star",))
    try:
        return make_conflict_graph(
            data["vertices"],
            [(u, v) for u, v in data["edges"]],
            k_star=data.get("k_star"),
        )
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from exc


def load_conflict_graph(path: PathLike) -> ConflictGraph:
    return conflict_graph_from_dict(_load_json(path))
