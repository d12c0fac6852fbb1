import dataclasses
import random
from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from etopo import (
    DimensionMismatchError,
    EntangledLink,
    LatticeCapacityError,
    NoContactsError,
    NotConnectedError,
    NotFoundError,
    PlacementError,
    connection_probability,
    kleinberg_lattice,
    l1_distance,
    link_existence_probability,
    make_network,
    map_overlay,
    normalizing_term,
)
from util import random_overlay, reference_contacts, reference_placement

coords = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


class TestL1Distance:
    def test_table_example(self):
        assert l1_distance((0, 0), (3, 4)) == 7

    def test_identity(self):
        assert l1_distance((2, 5), (2, 5)) == 0

    def test_one_dimensional(self):
        assert l1_distance((1,), (7,)) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            l1_distance((1, 2), (1,))

    @given(a=coords, b=coords, c=coords)
    def test_metric_axioms(self, a, b, c):
        assert l1_distance(a, b) >= 0
        assert (l1_distance(a, b) == 0) == (a == b)
        assert l1_distance(a, b) == l1_distance(b, a)
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c)


def line_network(length=3):
    links = [
        EntangledLink(id=i, a=i, b=i + 1, fidelity=0.9)
        for i in range(length - 1)
    ]
    return make_network(range(length), links)


class TestMapOverlay:
    def test_explicit_placement_full_lattice(self):
        net = make_network(range(4), [])
        placement = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
        graph = map_overlay(net, k=2, n=2, placement=placement)
        assert dict(graph.placement) == placement

    def test_capacity_exceeded(self):
        net = make_network(range(5), [])
        with pytest.raises(LatticeCapacityError):
            map_overlay(net, k=1, n=4)

    def test_seeded_placement_is_deterministic(self):
        net = make_network(range(3), [])
        g1 = map_overlay(net, k=2, n=8, seed=11)
        g2 = map_overlay(net, k=2, n=8, seed=11)
        assert g1.placement == g2.placement

    def test_placement_collision_rejected(self):
        net = make_network(range(2), [])
        with pytest.raises(PlacementError):
            map_overlay(net, k=1, n=4, placement={0: (1,), 1: (1,)})

    def test_out_of_range_placement_rejected(self):
        net = make_network(range(1), [])
        with pytest.raises(PlacementError):
            map_overlay(net, k=1, n=4, placement={0: (4,)})

    def test_contacts_mirror_links(self):
        net = line_network()
        graph = map_overlay(net, k=1, n=4, placement={0: (0,), 1: (1,), 2: (2,)})
        assert graph.contacts_of(1) == ((0, 0), (2, 1))

    def test_graph_records_the_links_it_mirrored(self):
        net = line_network()
        graph = map_overlay(net, k=1, n=4, placement={0: (0,), 1: (1,), 2: (2,)})
        assert graph.mirrored_links is net.links
        # No constructor argument, and no part in == or repr.
        copy = dataclasses.replace(graph)
        assert copy.mirrored_links is None
        assert copy == graph and repr(copy) == repr(graph)
        assert "mirrored_links" not in repr(graph)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(graph, mirrored_links=net.links)


class TestContactRows:
    """Each row holds (neighbor, link id, neighbor cell) triples sorted by
    neighbor then link id; the cell is the placement's own tuple."""

    @pytest.mark.parametrize("k, n", [(1, 40), (2, 8), (3, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cells_are_the_placement_tuples(self, k, n, seed):
        rng = random.Random(seed)
        net = random_overlay(rng, num_nodes=12, num_links=30)
        graph = map_overlay(net, k=k, n=n, seed=seed)
        assert graph.contacts
        for row in graph.contacts.values():
            for nbr, _, cell in row:
                assert cell is graph.placement[nbr]

    def test_lattice_cells_are_the_placement_tuples(self):
        _, graph = kleinberg_lattice(16, 3)
        for row in graph.contacts.values():
            for nbr, _, cell in row:
                assert cell is graph.placement[nbr]

    def test_unplaced_neighbor_has_no_cell(self):
        # make_network does not check endpoints, so a contact can name a
        # node the placement never saw.
        links = [EntangledLink(id=0, a=0, b=1), EntangledLink(id=1, a=0, b=5)]
        graph = map_overlay(make_network(range(2), links), k=1, n=2,
                            placement={0: (0,), 1: (1,)})
        assert graph.contacts[0] == ((1, 0, (1,)), (5, 1, None))
        assert graph.contacts[5] == ((0, 1, (0,)),)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_contacts_of_gives_sorted_pairs(self, seed):
        rng = random.Random(seed)
        net = random_overlay(rng, num_nodes=12, num_links=30)
        graph = map_overlay(net, k=2, n=8, seed=seed)
        pairs = defaultdict(list)
        for link in net.links:
            pairs[link.a].append((link.b, link.id))
            pairs[link.b].append((link.a, link.id))
        for node in range(12):
            assert graph.contacts_of(node) == tuple(sorted(pairs[node]))
            assert [c[:2] for c in graph.contacts.get(node, ())] == sorted(pairs[node])
        assert graph.contacts_of(99) == ()

    @pytest.mark.parametrize("k, n", [(1, 40), (2, 8), (3, 4)])
    def test_rows_match_the_link_order_build(self, k, n):
        # Shuffled links, parallel links at two levels, nodes without links
        # and links to nodes the placement never saw (cell None). Every
        # other network numbers its nodes from 1000, each endpoint a new int
        # object, as a file reader gives them: equal ids, not the same object.
        rng = random.Random(k)
        parallel = isolated = unplaced = 0
        for seed in range(40):
            num_nodes = rng.randint(2, 16)
            net = random_overlay(rng, num_nodes, rng.randint(0, 30), levels=(1, 2))
            strays = [EntangledLink(id=len(net.links) + i, a=rng.randrange(num_nodes),
                                    b=num_nodes + i) for i in range(rng.randint(0, 2))]
            links = [*net.links, *strays]
            rng.shuffle(links)
            nodes = net.nodes
            if seed % 2:
                links = [dataclasses.replace(l, a=int(str(1000 + l.a)), b=int(str(1000 + l.b)))
                         for l in links]
                nodes = [int(str(1000 + v)) for v in nodes]
            net = make_network(nodes, links)
            graph = map_overlay(net, k=k, n=n, seed=seed)
            expected = reference_contacts(net, graph.placement)
            assert graph.contacts == expected
            assert list(graph.contacts) == list(expected)
            rows = graph.contacts.values()
            parallel += any(len({c[0] for c in row}) < len(row) for row in rows)
            isolated += not net.nodes <= graph.contacts.keys()
            unplaced += any(c[2] is None for row in rows for c in row)
        assert parallel and isolated and unplaced

    @pytest.mark.parametrize("n", [2, 5, 33])
    def test_lattice_rows_match_the_link_order_build(self, n):
        net, graph = kleinberg_lattice(n, n)
        expected = reference_contacts(net, graph.placement)
        assert graph.contacts == expected
        assert list(graph.contacts) == list(expected)


def _outcome(place, *args):
    """What place(*args) returns, or the type and message it raises."""
    try:
        return place(*args)
    except (PlacementError, TypeError) as exc:
        return type(exc), str(exc)


class TestPlacementChecks:
    """map_overlay checks an explicit placement in bulk; each fault must
    still raise the message of the node-by-node check, for the same first
    node in sorted order."""

    NODES = range(6)
    NET = make_network(NODES, [EntangledLink(id=i, a=i, b=i + 1) for i in range(5)])
    GOOD = {i: (i % 3, i // 3) for i in NODES}

    @pytest.mark.parametrize("edit,message", [
        ({4: None}, "placement missing node 4"),
        ({2: (1,)}, "node 2: coordinate (1,) has dimension 1, expected 2"),
        ({3: (0, -1)}, "node 3: coordinate (0, -1) outside [0, 3)"),
        ({1: (3, 0)}, "node 1: coordinate (3, 0) outside [0, 3)"),
        ({5: (1, 0)}, "nodes 1 and 5 collide at (1, 0)"),
        # several faults: the lowest faulty node is named
        ({5: None, 2: (0, 5), 4: (1,)}, "node 2: coordinate (0, 5) outside [0, 3)"),
        ({4: (0, 0)}, "nodes 0 and 4 collide at (0, 0)"),
    ])
    def test_fault_names_first_node(self, edit, message):
        placement = {**self.GOOD, **edit}
        placement = {node: c for node, c in placement.items() if c is not None}
        with pytest.raises(PlacementError) as info:
            map_overlay(self.NET, k=2, n=3, placement=placement)
        assert str(info.value) == message
        assert _outcome(reference_placement, self.NODES, placement, 2, 3) == \
            (PlacementError, message)

    def test_missing_node_is_not_looked_up_into_being(self):
        placement = defaultdict(lambda: (2, 2), {i: self.GOOD[i] for i in range(5)})
        with pytest.raises(PlacementError, match="^placement missing node 5$"):
            map_overlay(self.NET, k=2, n=3, placement=placement)
        assert 5 not in placement

    @pytest.mark.parametrize("edit", [
        {}, {0: [2, 2]}, {2: (2, 1), 5: (2, 0)}, {3: "x"}, {3: 7},
    ])
    def test_matches_node_by_node_check(self, edit):
        placement = {**self.GOOD, **edit, 9: (2, 2)}  # extra entries are ignored
        expected = _outcome(reference_placement, self.NODES, placement, 2, 3)
        got = _outcome(
            lambda: map_overlay(self.NET, k=2, n=3, placement=placement).placement)
        assert got == expected

    # A coordinate entry must be a plain int on the per-node path too, as
    # the bulk check and the file readers require; that fault is named
    # before a range or collision fault of the same node.
    @pytest.mark.parametrize("edit,node", [
        ({0: (0.5, 2)}, 0),
        ({3: (float("nan"), 0)}, 3),
        ({0: (True, 0)}, 0),  # equal to node 1's cell (1, 0)
        ({4: (1.0, 1)}, 4),  # equal to its own cell (1, 1)
        ({4: (1.0, 0)}, 4),  # equal to node 1's cell (1, 0)
        ({2: (1.5, 0), 4: (1,)}, 2),  # the lowest faulty node is named
    ])
    def test_non_integer_entry_rejected(self, edit, node):
        placement = {**self.GOOD, **edit}
        with pytest.raises(PlacementError) as info:
            map_overlay(self.NET, k=2, n=3, placement=placement)
        assert str(info.value) == (
            f"node {node}: coordinate {placement[node]} has an entry that is not an integer")


class TestNormalizingTerm:
    def test_sums_contact_distances(self):
        net = make_network(
            range(4),
            [EntangledLink(id=i, a=0, b=i + 1) for i in range(3)],
        )
        placement = {0: (0,), 1: (1,), 2: (2,), 3: (4,)}
        graph = map_overlay(net, k=1, n=8, placement=placement)
        assert normalizing_term(graph, 0) == 7.0

    def test_single_contact(self):
        net = make_network([0, 1], [EntangledLink(id=0, a=0, b=1)])
        graph = map_overlay(net, k=1, n=4, placement={0: (0,), 1: (3,)})
        assert normalizing_term(graph, 0) == 3.0

    def test_isolated_node(self):
        net = make_network([0, 1], [])
        graph = map_overlay(net, k=1, n=4, seed=0)
        with pytest.raises(NoContactsError):
            normalizing_term(graph, 0)

    def test_unplaced_contact_raises(self):
        links = [EntangledLink(id=0, a=0, b=1), EntangledLink(id=1, a=0, b=5)]
        graph = map_overlay(make_network(range(2), links), k=1, n=2,
                            placement={0: (0,), 1: (1,)})
        with pytest.raises(NotFoundError, match="node 5 is not mapped"):
            normalizing_term(graph, 0)

    def test_strictly_positive(self):
        rng = random.Random(5)
        for _ in range(25):
            net = random_overlay(rng, 6, 8)
            graph = map_overlay(net, k=2, n=6, seed=rng.randrange(2**32))
            for node in sorted(net.nodes):
                if graph.contacts_of(node):
                    assert normalizing_term(graph, node) > 0.0


class TestConnectionProbability:
    def test_correction_cancels_lattice_term(self):
        link = EntangledLink(id=0, a=0, b=1, swap_success=0.9)
        net = make_network([0, 1], [link])
        graph = map_overlay(net, k=2, n=4, placement={0: (0, 0), 1: (1, 1)})
        cp = connection_probability(graph, net, 0, 1)
        assert cp.lattice_term == pytest.approx((2 ** -2) / 2)
        assert cp.p == pytest.approx(0.9, abs=1e-15)
        assert cp.p == cp.lattice_term + cp.correction

    def test_zero_existence_gives_zero(self):
        link = EntangledLink(id=0, a=0, b=1, swap_success=0.0)
        net = make_network([0, 1], [link])
        graph = map_overlay(net, k=1, n=4, seed=3)
        assert connection_probability(graph, net, 0, 1).p == pytest.approx(0.0, abs=1e-15)

    def test_unconnected_pair(self):
        net = line_network()
        graph = map_overlay(net, k=1, n=4, seed=1)
        with pytest.raises(NotConnectedError):
            connection_probability(graph, net, 0, 2)

    def test_identity_with_overlay_probability(self):
        rng = random.Random(17)
        for _ in range(50):
            net = random_overlay(rng, 7, 10)
            graph = map_overlay(net, k=2, n=8, seed=rng.randrange(2**32))
            for link in net.links:
                cp = connection_probability(graph, net, link.a, link.b, link_id=link.id)
                assert abs(cp.p - link_existence_probability(link)) <= 1e-12
