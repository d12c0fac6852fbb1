"""The solvers, the file readers and writers and the scenario runner leave
no reference cycles: what a call allocates is freed by reference counting
as it returns, without waiting for the cyclic collector."""

import gc
import random

import pytest

import etopo.assignment
from etopo import (
    Demand,
    EntangledLink,
    InterferenceSet,
    ThresholdPolicy,
    TooLargeError,
    make_conflict_graph,
    reduction_from_coloring,
    run_scenario,
    scenario_from_dict,
    solve_exact,
)
from etopo.assignment import BNB_VARIABLE_CAP
from etopo.io import (
    _json_text,
    instance_to_dict,
    load_instance,
    network_to_dict,
    save_instance,
    save_solve_result,
    solve_result_to_dict,
)
from etopo.scenario import records_to_solutions
from test_assignment import build_instance
from util import (
    greedy_scenario_payload,
    parallel_chain,
    small_scenario_payload,
    trial_instances,
)


def cyclic_garbage(call) -> int:
    """The objects call leaves for the cyclic collector, counted on a
    second call, once the first has run first-use imports and caches."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def feasible_instance():
    links = [
        EntangledLink(id=0, a=0, b=1, swap_success=0.75, throughput=5.0),
        EntangledLink(id=1, a=1, b=2, swap_success=0.5, throughput=5.0, resource_count=2),
        EntangledLink(id=2, a=0, b=2, throughput=5.0),
    ]
    return build_instance(links, [Demand(user=0, source=0, target=2, rate=1.0),
                                  Demand(user=1, source=1, target=2, rate=1.0)])


def infeasible_instance():
    # Three demands contend for the two states of the last link.
    links = [
        EntangledLink(id=0, a=0, b=3, throughput=9.0),
        EntangledLink(id=1, a=1, b=3, throughput=9.0),
        EntangledLink(id=2, a=2, b=3, throughput=9.0),
        EntangledLink(id=3, a=3, b=4, throughput=9.0, resource_count=2),
    ]
    demands = [Demand(user=u, source=u, target=4, rate=1.0) for u in range(3)]
    interference = [InterferenceSet(link=3, state=s, competing=((0, 0), (1, 1), (2, 2)))
                    for s in (0, 1)]
    return build_instance(links, demands, interference=interference)


def coloring_instance():
    # An odd cycle: not 2-colorable, so every branch is searched.
    graph = make_conflict_graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    return reduction_from_coloring(graph, 2)


@pytest.mark.parametrize("make, feasible", [
    (feasible_instance, True), (infeasible_instance, False), (coloring_instance, False),
], ids=["feasible", "infeasible", "coloring-reduction"])
def test_solve_exact(make, feasible):
    instance = make()
    assert solve_exact(instance).feasible is feasible
    assert cyclic_garbage(lambda: solve_exact(instance)) == 0


def test_solve_exact_that_stops_at_the_option_cap(monkeypatch):
    # 2**12 one-option paths: the path listing raises inside its walk.
    # The error is caught without pytest.raises, whose excinfo would hold
    # the traceback from this frame, itself a cycle.
    hops = 12
    monkeypatch.setattr(etopo.assignment, "OPTION_CAP", 10)
    instance = build_instance(parallel_chain(hops).links,
                              [Demand(user=0, source=0, target=hops, rate=1.0)],
                              n=hops + 1)
    raised = []

    def solve():
        try:
            solve_exact(instance)
        except TooLargeError:
            raised.append(True)

    assert cyclic_garbage(solve) == 0
    assert raised == [True, True]


def test_assign_request(tmp_path):
    # What `etopo assign` does: load an instance file, solve, write the result.
    path, out = tmp_path / "instance.json", tmp_path / "result.json"
    save_instance(coloring_instance(), ThresholdPolicy(default=0.0), path)

    def assign():
        save_solve_result(solve_exact(load_instance(path)), out)

    assert cyclic_garbage(assign) == 0


def exact_scenario_payload():
    payload = small_scenario_payload(random.Random(7))
    instances = trial_instances(payload)
    assert instances and all(
        0 < inst.n_variables() <= BNB_VARIABLE_CAP for inst in instances)
    return payload


@pytest.mark.parametrize("make", [exact_scenario_payload, greedy_scenario_payload],
                         ids=["exact", "greedy"])
def test_run_scenario(make):
    scenario = scenario_from_dict(make())

    def run():
        _json_text(records_to_solutions(scenario, run_scenario(scenario)))

    assert cyclic_garbage(run) == 0


def test_json_text_of_each_document():
    instance = feasible_instance()
    scenario = scenario_from_dict(greedy_scenario_payload())
    documents = [
        network_to_dict(instance.network),
        instance_to_dict(instance, ThresholdPolicy()),
        solve_result_to_dict(solve_exact(instance)),
        records_to_solutions(scenario, run_scenario(scenario)),
        [{"n": 4, "mean_steps": 1.5, "normalized": float("nan")}],
    ]
    for document in documents:
        assert cyclic_garbage(lambda: _json_text(document)) == 0
