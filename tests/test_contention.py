"""The instance's one reading of interference against the old three.

AssignmentInstance.rivals, check_interference and build_conflict_graph
must agree with the references in util, which walk the interference sets
as the code did before the instance kept one rivalry index, on three kinds
of instance: random_instance pools, coloring reductions and the trial
instances that run_scenario builds.
"""

import itertools
import random

import pytest

from etopo import (
    AssignmentSolution,
    NotFoundError,
    build_conflict_graph,
    check_interference,
    make_conflict_graph,
    reduction_from_coloring,
)
from util import (
    builder_pool,
    random_instance,
    reference_build_conflict_graph,
    reference_check_interference,
    reference_rivals,
)


def random_pool(count=150, seed=41):
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        inst = random_instance(rng, max_users=4)
        if inst is not None:
            pool.append(inst)
    return pool


def random_graph(rng, max_vertices=7):
    n = rng.randint(1, max_vertices)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
    return make_conflict_graph(range(n), edges)


def reduction_pool(count=40, seed=43):
    rng = random.Random(seed)
    return [reduction_from_coloring(random_graph(rng), rng.randint(1, 3)) for _ in range(count)]


POOLS = {"random": random_pool, "reduction": reduction_pool, "builder": builder_pool}


def random_solutions(rng, instance, count=8):
    """Solutions that mostly take contested states, some of them twice,
    and now and then a state for a user with no demand."""
    contested = sorted({iset.resource for iset in instance.interference})
    stored = sorted((lid, s) for lid, rs in instance.resource_sets.items() for s in rs.states)
    stray = 1 + max((d.user for d in instance.demands), default=0)
    for _ in range(count):
        C = set()
        for demand in instance.demands:
            pool = contested if contested and rng.random() < 0.8 else stored
            for link, state in rng.sample(pool, min(len(pool), rng.randint(0, 3))):
                C.add((demand.user, link, state))
        if stored and rng.random() < 0.2:
            C.add((stray, *rng.choice(stored)))
        yield AssignmentSolution.from_C(instance, frozenset(C))


@pytest.fixture(scope="module", params=sorted(POOLS))
def pool(request):
    instances = POOLS[request.param]()
    assert any(inst.interference for inst in instances)
    return instances


def test_rivals_match_reference(pool):
    for inst in pool:
        expected = reference_rivals(inst)
        assert inst.rivals == {key: tuple(sorted(qids)) for key, qids in expected.items()}


def test_conflict_graph_matches_reference(pool):
    for inst in pool:
        assert build_conflict_graph(inst) == reference_build_conflict_graph(inst)


def test_interference_violations_match_reference(pool):
    rng = random.Random(53)
    found = clean = strays = 0
    for inst in pool:
        users = {d.user for d in inst.demands}
        for solution in random_solutions(rng, inst):
            if not users.issuperset(user for user, _, _ in solution.C):
                # A state for a user with no demand is a bad reference, as
                # objective and check_capacity find it.
                with pytest.raises(NotFoundError, match="no demand for user"):
                    check_interference(inst, solution)
                strays += 1
                continue
            got = check_interference(inst, solution)
            expected = reference_check_interference(inst, solution)
            # The reference reports each broken set and the reader each
            # broken state: the same states, and so a violation exactly
            # when the reference finds one.
            assert {v.subject for v in got} == {v.subject for v in expected}
            found += bool(got)
            clean += not got
    assert found and clean and strays


def test_random_pool_stacks_sets_on_one_state():
    # Two sets on one state must not make rivals of each other's demands;
    # the random pool reaches that case, so the checks above cover it.
    stacked = 0
    for inst in random_pool():
        resources = [iset.resource for iset in inst.interference]
        stacked += len(resources) != len(set(resources))
    assert stacked > 0
