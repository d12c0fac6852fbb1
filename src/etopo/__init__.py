"""Entangled-network topology adaption, routing, and assignment toolkit."""

from .adaption import (
    AdaptedLinkSet,
    PStarMode,
    ThresholdPolicy,
    adapt,
    updated_probability,
)
from .assignment import (
    AssignmentInstance,
    AssignmentSolution,
    Demand,
    InterferenceSet,
    ResourceSet,
    SolveResult,
    SolveStatus,
    check_capacity,
    check_interference,
    flow_imbalance,
    objective,
    solve_exact,
    solve_greedy,
    validate_instance,
)
from .basegraph import (
    BaseGraph,
    ConnectionProbability,
    connection_probability,
    l1_distance,
    map_overlay,
    normalizing_term,
)
from .coloring import (
    ConflictGraph,
    build_conflict_graph,
    make_conflict_graph,
    reduction_from_coloring,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EtopoError,
    InvalidLevelError,
    LatticeCapacityError,
    NoContactsError,
    NotConnectedError,
    NotFoundError,
    PlacementError,
    TooLargeError,
    Violation,
)
from .generate import GeneratorParams, derive_seed, generate_network, kleinberg_lattice
from .overlay import (
    EntangledLink,
    FailureEvent,
    FailureKind,
    OverlayNetwork,
    apply_failures,
    hop_distance,
    link_existence_probability,
    make_network,
    validate,
)
from .routing import Path, RouteStatus, RoutingOutcome, route, shortest_path_oracle
from .scenario import (
    BenchRow,
    MetricsRecord,
    Scenario,
    bench_routing,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"
