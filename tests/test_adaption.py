import random
from dataclasses import replace

import pytest

from etopo import (
    EntangledLink,
    NotConnectedError,
    PStarMode,
    RouteStatus,
    ThresholdPolicy,
    adapt,
    kleinberg_lattice,
    link_existence_probability,
    make_network,
    map_overlay,
    route,
    updated_probability,
)
from util import random_overlay, reference_link_update, reference_route


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
        assert graph.mirrored_links is net.links
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        assert adapted.adjacency is graph.contacts
        assert_rows_as_scanned(adapted, graph)

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


def scanned_adjacency(graph, retained):
    """graph's contacts restricted to the link ids in retained, by a scan of
    every row: a row with nothing pruned stays the graph's own tuple."""
    adjacency = {}
    for node, row in graph.contacts.items():
        if not all(lid in retained for _, lid, _ in row):
            row = tuple(c for c in row if c[1] in retained)
        adjacency[node] = row
    return adjacency


def assert_rows_as_scanned(adapted, graph):
    """adapt's rows are those of a full scan: the same tuples, shared where
    the scan shares the graph's row, in the same key order."""
    expected = scanned_adjacency(graph, adapted.p_star_by_link)
    got = adapted.adjacency_on(graph)
    assert list(got.items()) == list(expected.items())
    assert [got[node] is row for node, row in graph.contacts.items()] == \
        [expected[node] is row for node, row in graph.contacts.items()]


class TestAdjacencySharing:
    """adapt shares graph.contacts without a scan only when the graph
    mirrors the very links it filters and it keeps all of them."""

    def test_nothing_pruned_on_a_lattice_shares_the_contacts(self):
        net, graph = kleinberg_lattice(8, 3)
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        assert adapted.adjacency is graph.contacts

    def test_graph_of_another_network_with_the_same_link_count(self):
        net, graph = three_link_setup()
        # Three links, all kept at threshold 0, but link 2 is not among them.
        other = make_network(range(5), [*net.links[:2], EntangledLink(5, 3, 4)])
        adapted = adapt(graph, other, ThresholdPolicy(default=0.0))
        assert len(adapted.links) == len(other.links) == len(net.links)
        assert adapted.adjacency is not graph.contacts
        assert adapted.adjacency[3] == ()
        assert_rows_as_scanned(adapted, graph)

    def test_equal_network_that_is_another_object_is_scanned(self):
        net, graph = three_link_setup()
        twin = make_network(net.nodes, list(net.links))
        assert twin == net and twin.links is not net.links
        adapted = adapt(graph, twin, ThresholdPolicy(default=0.0))
        assert_rows_as_scanned(adapted, graph)

    @pytest.mark.parametrize("threshold", [0.0, 0.9, 1.0])
    def test_network_repeating_a_link_id(self, threshold):
        links = [EntangledLink(0, 0, 1), EntangledLink(1, 1, 2, swap_success=0.5),
                 EntangledLink(1, 2, 3), EntangledLink(2, 3, 0, swap_success=0.95)]
        net = make_network(range(4), links)
        graph = map_overlay(net, k=1, n=4, placement={i: (i,) for i in range(4)})
        adapted = adapt(graph, net, ThresholdPolicy(default=threshold))
        assert_rows_as_scanned(adapted, graph)

    def test_one_pruned_link(self):
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.9))
        assert sorted(adapted.links) == [0, 2]
        assert adapted.adjacency is not graph.contacts
        assert_rows_as_scanned(adapted, graph)

    def test_one_pruned_link_on_a_lattice(self):
        net, graph = kleinberg_lattice(6, 1)
        weak = replace(net.links[7], fidelity=0.5)
        pruned = make_network(net.nodes, [*net.links[:7], weak, *net.links[8:]])
        graph = map_overlay(pruned, k=2, n=6, placement=graph.placement)
        adapted = adapt(graph, pruned, ThresholdPolicy(default=0.9))
        assert len(adapted.links) == len(pruned.links) - 1
        assert_rows_as_scanned(adapted, graph)

    def test_random_graphs_and_networks(self):
        rng = random.Random(41)
        for _ in range(200):
            nets = [random_overlay(rng, 6, rng.randint(0, 8), levels=(1, 2))
                    for _ in range(2)]
            graph = map_overlay(nets[0], k=2, n=4, seed=rng.randrange(2**32))
            net = rng.choice(nets)
            policy = ThresholdPolicy(default=rng.choice([0.0, rng.random()]))
            assert_rows_as_scanned(adapt(graph, net, policy), graph)


class TestThresholdPolicyRange:
    @pytest.mark.parametrize("default, per_level, message", [
        (1.5, {}, "default: threshold 1.5 is outside [0, 1]"),
        (-0.0001, {2: 2.0}, "default: threshold -0.0001 is outside [0, 1]"),
        (float("nan"), {}, "default: threshold nan is outside [0, 1]"),
        (0.5, {1: 0.2, 3: -1, 2: 7.0}, "levels.3: threshold -1 is outside [0, 1]"),
        (0.0, {4: float("inf")}, "levels.4: threshold inf is outside [0, 1]"),
    ])
    def test_first_threshold_out_of_range_is_named(self, default, per_level, message):
        # default first, then the levels in their order
        with pytest.raises(ValueError) as exc:
            ThresholdPolicy(default=default, per_level=per_level)
        assert str(exc.value) == message

    def test_bounds_are_in_range(self):
        policy = ThresholdPolicy(default=1.0, per_level={1: 0.0, 2: 1})
        assert policy.threshold_for(2) == 1 and policy.threshold_for(5) == 1.0


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
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.0))
        direct = reference_route(graph, adapted, 0, 3)
        combined = route(graph, adapted, 0, 3)
        assert combined == direct and combined.path.links == (0, 1, 2)

    def test_removed_bridge_is_unreachable(self):
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.9))
        outcome = route(graph, adapted, 0, 2)
        assert outcome.status is RouteStatus.UNREACHABLE

    def test_source_equals_target(self):
        net, graph = three_link_setup()
        adapted = adapt(graph, net, ThresholdPolicy(default=0.9))
        outcome = route(graph, adapted, 1, 1)
        assert outcome.found and outcome.diameter == 0 and outcome.path.links == ()
