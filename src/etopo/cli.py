"""Command-line interface.

Subcommands: generate, adapt, route, assign, run, reduce-coloring,
bench-routing. Exit codes: 0 success, 1 configuration error (a malformed
command line too), 2 only infeasible results, 3 internal error. The
ETOPO_SEED environment variable overrides any configured or flagged seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io as _io
import logging
import os
import sys
from pathlib import Path
from typing import NoReturn, Optional

from .adaption import PStarMode, ThresholdPolicy, adapt
from .assignment import SolveStatus, solve_exact, solve_greedy
from .basegraph import map_overlay
from .coloring import reduction_from_coloring
from .errors import (
    ConfigError,
    EtopoError,
    LatticeCapacityError,
    NotFoundError,
    PlacementError,
)
from .generate import GeneratorParams, generate_network
from .io import (
    PathLike,
    _json_text,
    _load_json,
    _write_file,
    load_conflict_graph,
    load_instance,
    load_network,
    load_placement,
    save_instance,
    save_network,
    solve_result_to_dict,
    thresholds_from_dict,
)
from .overlay import link_existence_probability
from .routing import route
from .scenario import (
    bench_routing,
    records_to_csv,
    records_to_solutions,
    run_scenario,
    scenario_from_dict,
    solve,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3

log = logging.getLogger("etopo")


def _effective_seed(flag_seed: Optional[int], config_seed: Optional[int] = None) -> int:
    env = os.environ.get("ETOPO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"ETOPO_SEED must be an integer, got {env!r}") from exc
    if flag_seed is not None:
        return flag_seed
    if config_seed is not None:
        return config_seed
    return 0


def _write_text(text: str, out: Optional[PathLike]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(text, out)


def _dump(payload, out: Optional[PathLike]) -> None:
    _write_text(_json_text(payload), out)


def _dump_csv(rows: list[dict], columns: list[str], out: Optional[PathLike]) -> None:
    buffer = _io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(buffer.getvalue(), out)


# The flag that sets each GeneratorParams field etopo generate takes.
_GENERATOR_FLAGS = {"num_nodes": "--nodes", "num_links": "--links", "levels": "--levels"}


def _cmd_generate(args) -> int:
    try:
        params = GeneratorParams(
            num_nodes=args.nodes,
            num_links=args.links,
            levels=tuple(args.levels),
        )
    except ConfigError as exc:  # GeneratorParams names the field first
        field, _, reason = str(exc).partition(": ")
        raise ConfigError(f"{_GENERATOR_FLAGS[field]}: {reason}") from exc
    network = generate_network(params, _effective_seed(args.seed))
    save_network(network, args.out)
    return EXIT_OK


def _adapted_from_args(args):
    """The network of adapt and route, and its links adapted on the lattice of
    --k, --n, --placement and --seed (the set's graph) by the threshold flags."""
    network = load_network(args.network)
    k, n = args.k, args.n
    for flag, value, minimum in (("--k", k, 1), ("--n", n, 2)):
        if value < minimum:
            raise ConfigError(f"{flag}: must be >= {minimum}, got {value}")
    if args.thresholds is None and not 0.0 <= args.threshold <= 1.0:  # NaN fails too
        raise ConfigError(f"--threshold: must be in [0, 1], got {args.threshold}")
    placement = load_placement(args.placement) if args.placement else None
    try:
        graph = map_overlay(network, k, n, placement=placement,
                            seed=_effective_seed(args.seed))
    except PlacementError as exc:
        raise PlacementError(f"--placement {args.placement}: {exc}") from exc
    except LatticeCapacityError as exc:
        raise LatticeCapacityError(f"--k {k} --n {n}: {exc}") from exc
    policy = thresholds_from_dict({"default": args.threshold} if args.thresholds is None
                                  else _load_json(args.thresholds))
    return network, adapt(graph, network,
                          dataclasses.replace(policy, mode=PStarMode(args.pstar_mode)))


def _cmd_adapt(args) -> int:
    network, adapted = _adapted_from_args(args)
    rows = [
        {
            "link": link.id, "a": link.a, "b": link.b, "level": link.level,
            "probability": link_existence_probability(link),
            "retained": link.id in adapted.links,
            "p_star": adapted.link_p_star(link.id),
        }
        for link in sorted(network.links, key=lambda l: l.id)
    ]
    if args.format == "json":
        _dump({"total": len(network.links), "retained": len(adapted.links),
               "links": rows}, args.out)
    else:
        _dump_csv(rows, ["link", "a", "b", "level", "probability", "retained", "p_star"],
                  args.out)
    return EXIT_OK


def _cmd_route(args) -> int:
    _, adapted = _adapted_from_args(args)
    for flag, node in (("--source", args.source), ("--target", args.target)):
        if node not in adapted.graph.placement:
            raise NotFoundError(f"{flag}: node {node} is not mapped in the base-graph")
    outcome = route(adapted.graph, adapted, args.source, args.target)
    _dump(
        {
            "status": outcome.status.value,
            "diameter": outcome.diameter,
            "steps_taken": outcome.steps_taken,
            "path": {
                "nodes": list(outcome.path.nodes),
                "links": list(outcome.path.links),
            } if outcome.path is not None else None,
        },
        args.out,
    )
    return EXIT_OK if outcome.found else EXIT_INFEASIBLE


def _cmd_assign(args) -> int:
    instance = load_instance(args.instance)
    solver = {"auto": solve, "exact": solve_exact, "greedy": solve_greedy}[args.solver]
    result = solver(instance)
    _dump(solve_result_to_dict(result), args.out)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_run(args) -> int:
    data = _load_json(args.scenario)
    seeded = os.environ.get("ETOPO_SEED") is not None or args.seed is not None
    if seeded and isinstance(data, dict):
        data = dict(data)
        data["seed"] = _effective_seed(args.seed, data.get("seed"))
    scenario = scenario_from_dict(data, base_dir=Path(args.scenario).parent)
    records = run_scenario(scenario)
    out_dir = Path(args.out) if args.out else Path(".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: {exc}") from exc
    _write_text(records_to_csv(records), out_dir / "metrics.csv")
    _dump(records_to_solutions(scenario, records), out_dir / "solutions.json")
    feasible = [r for r in records if r.assign_status is SolveStatus.FEASIBLE]
    if records and any(r.assign_status is not None for r in records) and not feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_reduce_coloring(args) -> int:
    graph = load_conflict_graph(args.graph)
    try:
        instance = reduction_from_coloring(graph, args.colors)
    except ValueError as exc:
        raise ConfigError(f"--colors: {exc}") from exc
    save_instance(instance, ThresholdPolicy(default=0.0), args.out)
    return EXIT_OK


def _cmd_bench_routing(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ConfigError(
            f"--sizes: expected comma-separated integers, got {args.sizes!r}"
        ) from None
    for n in sizes:  # every size, before any lattice is built
        if n < 2:
            raise ConfigError(f"--sizes: lattice side must be >= 2, got {n}")
    if args.trials < 1:
        raise ConfigError(f"--trials: must be >= 1, got {args.trials}")
    rows = [dataclasses.asdict(r) | {"normalized": r.normalized}
            for r in bench_routing(sizes, args.trials, _effective_seed(args.seed))]
    if args.format == "json":
        _dump(rows, args.out)
    else:
        _dump_csv(rows, ["n", "trials", "mean_steps", "log2n_squared", "normalized"],
                  args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, exiting 1 instead of 2 on a malformed command line,
    since 2 means an infeasible result. Subparsers are built from it too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="etopo",
        description="Entangled-network topology adaption, routing, and assignment.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log timings")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, fmt=False):
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("generate", help="write a random network file")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--links", type=int, default=15)
    p.add_argument("--levels", type=int, nargs="+", default=[1])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_generate)

    def add_graph_args(p):
        p.add_argument("network", help="network description file")
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--n", type=int, default=8)
        p.add_argument("--placement", default=None, help="placement file")
        p.add_argument("--thresholds", default=None, help="threshold policy file")
        p.add_argument("--threshold", type=float, default=0.0,
                       help="uniform default threshold when no file is given")
        p.add_argument("--pstar-mode", choices=[m.value for m in PStarMode],
                       default="measured")

    p = sub.add_parser("adapt", help="report the adapted link set")
    add_graph_args(p)
    add_common(p, fmt=True)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("route", help="route one source/target query")
    add_graph_args(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("assign", help="solve an assignment instance file")
    p.add_argument("instance")
    p.add_argument("--solver", choices=("auto", "exact", "greedy"), default="auto")
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("reduce-coloring", help="build an assignment instance "
                       "from a conflict graph")
    p.add_argument("graph")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce_coloring)

    p = sub.add_parser("bench-routing", help="routing scaling experiment")
    p.add_argument("--sizes", default="64,128,256,512")
    p.add_argument("--trials", type=int, default=1000)
    add_common(p, fmt=True)
    p.set_defaults(func=_cmd_bench_routing)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except EtopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
