"""Invariants of the trials that run_scenario builds and solves.

The solver checks elsewhere run on random_instance pools; these run on the
instances that build_trial_instance makes, over greedy_scenario_payload()
and small random scenarios: some with a failure of each kind and a second
removal of an already removed link, some with links that a few demands
fill. At or below the exact cap a trial must match the brute-force oracle;
every feasible result, exact or greedy, must meet the capacity and
interference constraints; each served user's links must be adapted links,
each held once, that form one simple path from its source to its target,
with no net flow at the path's interior nodes; served and rejected must
split the demands; each result must be what etopo.scenario.solve, the one
rule that `etopo assign --solver auto` also follows, gives on the trial's
instance; and a scenario must give the same output bytes when run again,
and after a round trip through its dict form.

Not checked here: that no resource state is held by two users. The exact
solver can share a state of a link that no two greedy routes crossed,
because build_trial_instance declares contention only there.
"""

import json
import math
import random

import pytest

from etopo import (
    check_capacity,
    check_interference,
    flow_imbalance,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    solve_exact,
)
from etopo.assignment import BNB_VARIABLE_CAP
from etopo.cli import EXIT_INFEASIBLE, EXIT_OK, main
from etopo.io import _json_text, save_instance, solve_result_to_dict
from etopo.scenario import records_to_csv, records_to_solutions, solve
from util import (
    greedy_scenario_payload,
    oracle_solve,
    scenario_trials,
    small_scenario_payload,
)

FAILURE_KINDS = ("remove-link", "degrade-swap", "degrade-loss", "degrade-fidelity")


def with_failures(payload, rng):
    """payload with one failure of each kind on its generated links, and the
    first removal's link removed once more a tick later."""
    links = payload["generator"]["num_links"]
    failures = [
        {"target": rng.randrange(links), "kind": kind,
         "magnitude": rng.randint(1, 3) / 4, "time": rng.randrange(2)}
        for kind in FAILURE_KINDS
    ]
    failures.append({**failures[0], "time": failures[0]["time"] + 1})
    return {**payload, "failures": failures}


def with_tight_links(payload):
    """payload with link throughputs of 1 to 2, so that a few demands' rates
    fill a link."""
    return {**payload, "generator": {**payload["generator"], "throughput_range": [1, 2]}}


def payloads(count=60, seed=59):
    """greedy_scenario_payload() and count small scenarios: a third as
    drawn, a third with failures, a third with tight links."""
    rng = random.Random(seed)
    variants = (lambda p: p, lambda p: with_failures(p, rng), with_tight_links)
    return [greedy_scenario_payload()] + [
        variants[i % 3](small_scenario_payload(rng)) for i in range(count)
    ]


@pytest.fixture(scope="module")
def runs():
    """(payload, records, [(instance, routable) per trial]) per scenario."""
    return [(payload, *scenario_trials(payload)) for payload in payloads()]


def solved_trials(runs):
    """(record, instance, routable) for each trial that had a routable demand."""
    for _, records, built in runs:
        for record, (instance, routable) in zip(records, built):
            if instance.demands:
                yield record, instance, routable


def test_exact_trials_match_the_oracle(runs):
    feasible = infeasible = 0
    for record, instance, _ in solved_trials(runs):
        if instance.n_variables() > BNB_VARIABLE_CAP:
            continue
        result = solve_exact(instance)
        assert record.result == result
        ok, cost, best_C = oracle_solve(instance)
        assert result.feasible == ok
        if ok:
            # Generated p* values are not dyadic: the two sums may differ
            # in the last place.
            assert math.isclose(result.objective, cost)
            assert result.solution.C == best_C
        feasible += ok
        infeasible += not ok
    assert feasible >= 10 and infeasible >= 2


def test_feasible_results_meet_the_constraints(runs):
    exact = greedy = 0
    for record, instance, _ in solved_trials(runs):
        if not record.result.feasible:
            continue
        assert check_capacity(instance, record.result.solution) == []
        assert check_interference(instance, record.result.solution) == []
        below_cap = instance.n_variables() <= BNB_VARIABLE_CAP
        exact += below_cap
        greedy += not below_cap
    assert exact and greedy


def user_path(instance, solution, demand):
    """The nodes, from the source, of the one simple path that demand's
    user's links in C form; fails unless they are adapted links, each held
    once, leading from the demand's source to its target."""
    links = [link for user, link, _ in solution.C if user == demand.user]
    assert len(set(links)) == len(links)
    assert set(links) <= instance.adapted.links
    unused = set(map(instance.network.link_by_id, links))
    path = [demand.source]
    while unused:
        steps = [link for link in unused if path[-1] in link.endpoints]
        assert len(steps) == 1, f"user {demand.user}: {len(steps)} links go on from {path[-1]}"
        step = steps[0]
        unused.remove(step)
        path.append(step.other(path[-1]))
    assert path[-1] == demand.target
    assert len(set(path)) == len(path)
    return path


def test_served_users_flow_from_source_to_target(runs):
    # flow_imbalance is asked only at path nodes: each call checks every
    # reference of C.
    served = interior = 0
    for record, instance, _ in solved_trials(runs):
        solution = record.result.solution
        for qid in record.result.served:
            demand = instance.demands[qid]
            path = user_path(instance, solution, demand)
            assert flow_imbalance(instance, solution, demand.source, demand.user) == 1
            assert flow_imbalance(instance, solution, demand.target, demand.user) == -1
            for node in path[1:-1]:
                assert flow_imbalance(instance, solution, node, demand.user) == 0
            served += 1
            interior += len(path) - 2
    assert served and interior


def test_served_and_rejected_split_the_demands(runs):
    for payload, records, built in runs:
        assert len(records) == len(built) == payload["trials"]
        demands = range(len(payload["demands"]))
        for record, (_, routable) in zip(records, built):
            assert not set(record.served) & set(record.rejected)
            assert sorted(record.served + record.rejected) == list(demands)
            assert set(record.served) <= set(routable)
            assert [qid for qid, _ in record.routing] == list(demands)


def test_trials_follow_the_one_solve_rule(runs):
    exact = greedy = 0
    for record, instance, _ in solved_trials(runs):
        assert solve_result_to_dict(record.result) == solve_result_to_dict(solve(instance))
        below_cap = instance.n_variables() <= BNB_VARIABLE_CAP
        exact += below_cap
        greedy += not below_cap
    assert exact and greedy


def test_assign_auto_writes_the_trial_result(runs, tmp_path):
    """`etopo assign --solver auto` on a trial's saved instance writes the
    trial's result, for the first trial of each size."""
    firsts = {}
    for payload, records, built in runs:
        for record, (instance, _) in zip(records, built):
            if instance.demands:
                below_cap = instance.n_variables() <= BNB_VARIABLE_CAP
                firsts.setdefault(below_cap, (payload, record, instance))
    assert sorted(firsts) == [False, True]
    for below_cap, (payload, record, instance) in firsts.items():
        path = tmp_path / f"instance-{below_cap}.json"
        out = tmp_path / f"result-{below_cap}.json"
        save_instance(instance, scenario_from_dict(payload).thresholds, path)
        code = main(["assign", str(path), "--solver", "auto", "--out", str(out)])
        assert code == (EXIT_OK if record.result.feasible else EXIT_INFEASIBLE)
        expected = _json_text(solve_result_to_dict(record.result)).encode("utf-8")
        assert out.read_bytes() == expected


def run_outputs(payload):
    """The metrics.csv and solutions.json text `etopo run` writes for payload."""
    scenario = scenario_from_dict(payload)
    records = run_scenario(scenario)
    return records_to_csv(records), _json_text(records_to_solutions(scenario, records))


def test_outputs_are_deterministic():
    for payload in payloads():
        first = run_outputs(payload)
        assert run_outputs(payload) == first
        round_trip = json.loads(json.dumps(scenario_to_dict(scenario_from_dict(payload))))
        assert run_outputs(round_trip) == first
