import random

import pytest

from etopo import (
    EntangledLink,
    NotConnectedError,
    PStarMode,
    RouteStatus,
    ThresholdPolicy,
    adapt,
    adapt_and_route,
    link_existence_probability,
    make_network,
    map_overlay,
    updated_probability,
)
from util import random_overlay, reference_link_update


def three_link_setup():
    # existence probabilities 0.95, 0.80, 0.99
    links = [
        EntangledLink(id=0, a=0, b=1, swap_success=0.95),
        EntangledLink(id=1, a=1, b=2, swap_success=0.80),
        EntangledLink(id=2, a=2, b=3, swap_success=0.99),
    ]
    net = make_network(range(4), links)
    graph = map_overlay(net, k=1, n=4,
                        placement={0: (0,), 1: (1,), 2: (2,), 3: (3,)})
    return net, graph


class TestUpdatedProbability:
    def test_below_threshold_zeroes(self):
        from etopo import updated_probability

        net, _ = three_link_setup()
        policy = ThresholdPolicy(default=0.9)
        assert updated_probability(net, 1, 2, policy) == 0.0

    def test_above_threshold_keeps_measured(self):
        from etopo import updated_probability

        net, _ = three_link_setup()
        policy = ThresholdPolicy(default=0.9)
        assert updated_probability(net, 0, 1, policy) == pytest.approx(0.95)

    def test_zero_threshold_is_identity(self):
        from etopo import updated_probability

        net, _ = three_link_setup()
        policy = ThresholdPolicy(default=0.0)
        for link in net.links:
            assert updated_probability(net, link.a, link.b, policy) == \
                pytest.approx(link_existence_probability(link))

    def test_threshold_mode_pins_to_threshold(self):
        from etopo import updated_probability

        net, _ = three_link_setup()
        policy = ThresholdPolicy(default=0.9, mode=PStarMode.THRESHOLD)
        assert updated_probability(net, 0, 1, policy) == pytest.approx(0.9)

    def test_unconnected_pair(self):
        from etopo import updated_probability

        net, _ = three_link_setup()
        with pytest.raises(NotConnectedError):
            updated_probability(net, 0, 3, ThresholdPolicy())


class TestAdapt:
    def test_zero_threshold_keeps_everything(self):
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        assert adapted.links == {l.id for l in net.links}

    def test_zero_threshold_shares_the_graph_rows(self):
        # Nothing is pruned, so the adjacency is the graph's own contact
        # map: adapt copies no row of a lattice it keeps whole.
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        assert adapted.adjacency is graph.contacts

    def test_filtered_rows_keep_the_contact_triples(self):
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.9))
        assert adapted.adjacency[0] is graph.contacts[0]
        assert adapted.adjacency[1] == ((0, 0, graph.placement[0]),)
        assert adapted.adjacency[1][0] is graph.contacts[1][0]
        assert adapted.adjacency[2] == ((3, 2, graph.placement[3]),)
        assert adapted.adjacency[2][0][2] is graph.placement[3]

    def test_impossible_threshold_empties(self):
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=1.0))
        assert adapted.links == frozenset()
        assert all(adapted.link_p_star(l.id) == 0.0 for l in net.links)

    def test_hand_enumerated_filter(self):
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.9))
        assert adapted.links == {0, 2}
        assert adapted.link_p_star(1) == 0.0
        assert adapted.link_p_star(0) == pytest.approx(0.95)

    def test_links_is_a_read_only_set_view(self):
        net, graph = three_link_setup()
        kept = adapt(graph, net, ThresholdPolicy(default=0.9))
        every = adapt(graph, net, ThresholdPolicy(default=0.0))
        assert 0 in kept.links and 1 not in kept.links
        assert len(kept.links) == 2 and len(every.links) == 3
        assert kept.links == frozenset({0, 2}) and every.links != frozenset({0, 2})
        assert kept.links <= every.links and not every.links <= kept.links
        assert not hasattr(kept.links, "add") and not hasattr(kept.links, "discard")
        # excluded links are not stored; link_p_star reads them as zero
        assert sorted(kept.p_star_by_link) == [0, 2]
        assert kept.link_p_star(1) == 0.0

    def test_retained_at_zero_p_star_stays_in_links(self):
        net, graph = three_link_setup()
        pinned = adapt(graph, net, ThresholdPolicy(default=0.0, mode=PStarMode.THRESHOLD))
        assert pinned.links == {0, 1, 2}
        assert all(pinned.link_p_star(l.id) == 0.0 for l in net.links)

    def test_per_level_thresholds(self):
        links = [
            EntangledLink(id=0, a=0, b=1, level=1, swap_success=0.7),
            EntangledLink(id=1, a=1, b=2, level=2, swap_success=0.7),
        ]
        net = make_network(range(3), links)
        graph = map_overlay(net, k=1, n=4, seed=0)
        policy = ThresholdPolicy(default=0.0, per_level={2: 0.8})
        adapted = adapt(graph, net, policy)
        assert adapted.links == {0}

    def test_soundness_completeness_random(self):
        rng = random.Random(23)
        for _ in range(50):
            net = random_overlay(rng, 7, 10)
            graph = map_overlay(net, k=2, n=8, seed=rng.randrange(2**32))
            policy = ThresholdPolicy(
                default=rng.random(),
                per_level={l: rng.random() for l in (1, 2)},
            )
            adapted = adapt(graph, net, policy)
            for link in net.links:
                meets = (link_existence_probability(link)
                         >= policy.threshold_for(link.level))
                assert (link.id in adapted.links) == meets

    def test_monotonic_under_raised_policy(self):
        rng = random.Random(31)
        for _ in range(30):
            net = random_overlay(rng, 7, 10)
            graph = map_overlay(net, k=2, n=8, seed=rng.randrange(2**32))
            lo = rng.uniform(0, 0.6)
            hi = lo + rng.uniform(0, 1 - lo)
            s_lo = adapt(graph, net, ThresholdPolicy(default=lo)).links
            s_hi = adapt(graph, net, ThresholdPolicy(default=hi)).links
            assert s_hi <= s_lo

    def test_idempotent(self):
        from etopo.overlay import OverlayNetwork

        net, graph = three_link_setup()
        policy = ThresholdPolicy(default=0.9)
        first = adapt(graph, net, policy)
        survivors = OverlayNetwork(
            nodes=net.nodes,
            links=tuple(l for l in net.links if l.id in first.links),
        )
        graph2 = map_overlay(survivors, k=1, n=4, placement=dict(graph.placement))
        second = adapt(graph2, survivors, policy)
        assert second.links == first.links


class TestThresholdRule:
    """adapt and updated_probability apply the rule of reference_link_update,
    link by link, over random overlays with per-level thresholds."""

    @pytest.mark.parametrize("mode", list(PStarMode))
    def test_matches_per_link_rule(self, mode):
        rng = random.Random(47)
        at_threshold = 0
        for _ in range(60):
            net = random_overlay(rng, 7, 12)
            graph = map_overlay(net, k=2, n=8, seed=rng.randrange(2**32))
            # Thresholds drawn from the links' own probabilities put some
            # links exactly at their level's threshold; those are retained.
            probs = [link_existence_probability(l) for l in net.links]
            policy = ThresholdPolicy(
                default=rng.choice(probs),
                per_level={l: rng.choice([*probs, rng.random()]) for l in (1, 2)},
                mode=mode,
            )
            adapted = adapt(graph, net, policy)
            expected = {}
            for link in net.links:
                meets, p_star = reference_link_update(link, policy, mode)
                if meets:
                    expected[link.id] = p_star
            assert list(adapted.p_star_by_link.items()) == list(expected.items())
            for link in net.links:
                if link_existence_probability(link) == policy.threshold_for(link.level):
                    at_threshold += 1
                    assert link.id in adapted.links
                assert updated_probability(net, link.a, link.b, policy) == max(
                    reference_link_update(l, policy, mode)[1]
                    for l in net.links_between(link.a, link.b)
                )
        assert at_threshold > 0


class TestAdaptAndRoute:
    def test_zero_threshold_matches_plain_routing(self):
        from etopo import route

        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        direct = route(graph, adapted, 0, 3)
        combined = adapt_and_route(graph, net, ThresholdPolicy(default=0.0), 0, 3)
        assert combined == direct

    def test_removed_bridge_is_unreachable(self):
        net, graph = three_link_setup()
        outcome = adapt_and_route(graph, net, ThresholdPolicy(default=0.9), 0, 2)
        assert outcome.status is RouteStatus.UNREACHABLE

    def test_source_equals_target(self):
        net, graph = three_link_setup()
        outcome = adapt_and_route(graph, net, ThresholdPolicy(default=0.9), 1, 1)
        assert outcome.found and outcome.diameter == 0 and outcome.path.links == ()
