import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

from etopo import (
    EntangledLink,
    FailureEvent,
    FailureKind,
    InvalidLevelError,
    NotFoundError,
    apply_failures,
    hop_distance,
    link_existence_probability,
    make_network,
    validate,
)
from etopo.overlay import links_from_columns
from util import ReferenceLink, dyadic, random_overlay, reference_apply_failures


def make_link(**kwargs):
    base = dict(id=0, a=0, b=1, level=1, swap_success=1.0, photon_loss=0.0,
                fidelity=1.0, throughput=1.0)
    base.update(kwargs)
    return EntangledLink(**base)


class TestExistenceProbability:
    def test_identity_case(self):
        assert link_existence_probability(make_link()) == 1.0

    def test_zero_swap_annihilates(self):
        link = make_link(swap_success=0.0, photon_loss=0.3, fidelity=0.9)
        assert link_existence_probability(link) == 0.0

    def test_direct_substitution(self):
        link = make_link(swap_success=0.8, photon_loss=0.1, fidelity=0.98)
        assert link_existence_probability(link) == pytest.approx(0.7056, abs=1e-15)

    @given(
        swap=st.floats(0, 1), loss=st.floats(0, 1), fid=st.floats(0, 1),
        bump=st.floats(0.01, 0.5),
    )
    def test_monotonicity(self, swap, loss, fid, bump):
        base = link_existence_probability(make_link(swap_success=swap, photon_loss=loss, fidelity=fid))
        assert 0.0 <= base <= 1.0
        more_swap = link_existence_probability(
            make_link(swap_success=min(1.0, swap + bump), photon_loss=loss, fidelity=fid))
        more_loss = link_existence_probability(
            make_link(swap_success=swap, photon_loss=min(1.0, loss + bump), fidelity=fid))
        more_fid = link_existence_probability(
            make_link(swap_success=swap, photon_loss=loss, fidelity=min(1.0, fid + bump)))
        assert more_swap >= base
        assert more_loss <= base
        assert more_fid >= base


class TestHopDistance:
    @pytest.mark.parametrize("level,expected", [(1, 1), (2, 2), (3, 4)])
    def test_doubling_architecture(self, level, expected):
        assert hop_distance(level) == expected

    @given(st.integers(1, 30))
    def test_doubles_per_level(self, level):
        assert hop_distance(level + 1) == 2 * hop_distance(level)

    def test_invalid_level(self):
        with pytest.raises(InvalidLevelError):
            hop_distance(0)


class TestInvariants:
    def test_distinct_endpoints_required(self):
        with pytest.raises(ValueError):
            make_link(a=3, b=3)

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_link(swap_success=1.2)
        with pytest.raises(ValueError):
            make_link(photon_loss=-0.1)


VALID = dict(id=7, a=2, b=5, level=2, swap_success=0.5, photon_loss=0.25,
             fidelity=0.75, throughput=3.0, resource_count=4)

# (field, bad value) for every check, with TypeError cases for values that
# do not compare with numbers; EntangledLink must raise what ReferenceLink
# raises, type and message.
BAD_FIELDS = [
    ("b", 2), ("level", 0), ("level", -3), ("level", "x"), ("level", None),
    *((name, value)
      for name in ("swap_success", "photon_loss", "fidelity")
      for value in (1.5, -0.25, math.nan, math.inf, "x", None)),
    ("throughput", -1.0), ("throughput", -math.inf), ("throughput", "x"),
    ("throughput", None), ("resource_count", -1), ("resource_count", "x"),
]


def _raised(build, *args, **kwargs):
    with pytest.raises(Exception) as info:
        build(*args, **kwargs)
    return type(info.value), str(info.value)


class TestEntangledLinkContract:
    @pytest.mark.parametrize("name,value", BAD_FIELDS)
    def test_bad_field_raises_as_reference(self, name, value):
        bad = {**VALID, name: value}
        assert _raised(EntangledLink, **bad) == _raised(ReferenceLink, **bad)

    @pytest.mark.parametrize("faults", [
        {"b": 2, "level": 0},
        {"level": 0, "swap_success": 2.0},
        {"swap_success": 2.0, "fidelity": "x"},
        {"photon_loss": "x", "fidelity": 2.0},
        {"fidelity": -1.0, "throughput": -1.0},
        {"throughput": -1.0, "resource_count": -1},
    ])
    def test_first_fault_is_named_as_reference(self, faults):
        bad = {**VALID, **faults}
        assert _raised(EntangledLink, **bad) == _raised(ReferenceLink, **bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_throughput_rejected(self, value):
        with pytest.raises(ValueError, match=f"link 7: throughput={value} is not finite"):
            EntangledLink(**{**VALID, "throughput": value})

    def test_positional_and_keyword_agree(self):
        assert EntangledLink(*VALID.values()) == EntangledLink(**VALID)
        assert EntangledLink(1, 0, 3) == EntangledLink(id=1, a=0, b=3)

    def test_fields_and_defaults_match_reference(self):
        def shape(cls):
            return [(f.name, f.default, f.init, f.compare, f.hash) for f in fields(cls)]

        assert shape(EntangledLink) == shape(ReferenceLink)
        link = EntangledLink(1, 0, 3)
        assert {f.name: getattr(link, f.name) for f in fields(link)} == {
            f.name: getattr(ReferenceLink(1, 0, 3), f.name) for f in fields(ReferenceLink)
        }

    def test_values_eq_hash_repr(self):
        link = EntangledLink(**VALID)
        assert {f.name: getattr(link, f.name) for f in fields(link)} == VALID
        twin = EntangledLink(**VALID)
        assert link == twin and hash(link) == hash(twin)
        assert hash(link) == hash(ReferenceLink(**VALID))
        assert link != EntangledLink(**{**VALID, "resource_count": 5})
        assert repr(link) == repr(ReferenceLink(**VALID)).replace(
            "ReferenceLink", "EntangledLink")
        assert repr(link) == (
            "EntangledLink(id=7, a=2, b=5, level=2, swap_success=0.5, photon_loss=0.25, "
            "fidelity=0.75, throughput=3.0, resource_count=4)"
        )

    def test_replace_builds_a_checked_link(self):
        link = EntangledLink(**VALID)
        assert replace(link, fidelity=0.5) == EntangledLink(**{**VALID, "fidelity": 0.5})
        assert replace(link) == link
        for name, value in BAD_FIELDS:
            assert _raised(replace, link, **{name: value}) == \
                _raised(ReferenceLink, **{**VALID, name: value})

    def test_frozen_and_slotted(self):
        link = EntangledLink(**VALID)
        with pytest.raises(FrozenInstanceError):
            link.a = 0
        with pytest.raises(FrozenInstanceError):
            del link.fidelity
        assert not hasattr(link, "__dict__")
        assert pickle.loads(pickle.dumps(link)) == link


# Endpoint columns with small node ids, so that equal endpoints are common.
_COLUMNS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=25)


class TestLinksFromColumns:
    """links_from_columns makes, in bulk, what EntangledLink makes per record."""

    @given(first_id=st.integers(0, 10**6), pairs=_COLUMNS)
    def test_matches_entangled_link_or_raises_its_first_error(self, first_id, pairs):
        a_column = [a for a, _ in pairs]
        b_column = [b for _, b in pairs]
        expected = []
        error = None
        for i, (a, b) in enumerate(pairs):
            try:
                expected.append(EntangledLink(first_id + i, a, b))
            except ValueError as exc:
                error = str(exc)
                break
        if error is not None:
            with pytest.raises(ValueError) as raised:
                links_from_columns(first_id, a_column, b_column)
            assert str(raised.value) == error
            return
        got = links_from_columns(first_id, a_column, b_column)
        assert [type(link) for link in got] == [EntangledLink] * len(pairs)
        names = [f.name for f in fields(EntangledLink)]
        assert [[getattr(link, n) for n in names] for link in got] == \
            [[getattr(link, n) for n in names] for link in expected]
        assert repr(got) == repr(expected)  # 1 == 1.0, but not in repr
        assert got == expected
        assert list(map(hash, got)) == list(map(hash, expected))
        assert pickle.loads(pickle.dumps(got)) == expected
        assert [replace(link) for link in got] == expected
        assert [replace(link, level=2) for link in got] == \
            [replace(link, level=2) for link in expected]

    def test_first_bad_link_is_named(self):
        with pytest.raises(ValueError, match=r"^link 12: endpoints must be distinct$"):
            links_from_columns(10, [0, 1, 3, 4], [1, 2, 3, 4])

    def test_records_are_frozen_and_slotted(self):
        link, = links_from_columns(5, [0], [1])
        with pytest.raises(FrozenInstanceError):
            link.a = 2
        with pytest.raises(FrozenInstanceError):
            link.extra = 2
        assert not hasattr(link, "__dict__")

    def test_empty_columns(self):
        assert links_from_columns(3, [], []) == []

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="endpoint columns differ in length: 2 and 1"):
            links_from_columns(0, [0, 1], [2])


@pytest.fixture
def small_network():
    return make_network(
        [0, 1, 2],
        [make_link(id=0, a=0, b=1), make_link(id=1, a=1, b=2, fidelity=0.9)],
    )


class TestValidate:
    def test_well_formed(self, small_network):
        assert validate(small_network) == []

    def test_unknown_endpoint(self):
        net = make_network([0, 1], [make_link(id=0, a=0, b=5)])
        violations = validate(net)
        assert any(v.code == "unknown-endpoint" and v.subject == 0 for v in violations)

    def test_duplicate_pair_level(self):
        net = make_network(
            [0, 1],
            [make_link(id=0, a=0, b=1, level=2), make_link(id=1, a=1, b=0, level=2)],
        )
        violations = validate(net)
        assert any(v.code == "duplicate-pair-level" and v.subject == (0, 1)
                   for v in violations)

    def test_parallel_links_at_different_levels_allowed(self):
        net = make_network(
            [0, 1],
            [make_link(id=0, a=0, b=1, level=1), make_link(id=1, a=0, b=1, level=2)],
        )
        assert validate(net) == []


class TestApplyFailure:
    def test_zero_magnitude_is_identity(self, small_network):
        event = FailureEvent(target=0, kind=FailureKind.DEGRADE_SWAP, magnitude=0.0)
        assert apply_failures(small_network, [event]) == small_network

    def test_remove_link(self, small_network):
        event = FailureEvent(target=0, kind=FailureKind.REMOVE_LINK)
        after = apply_failures(small_network, [event])
        assert len(after.links) == len(small_network.links) - 1
        with pytest.raises(NotFoundError):
            after.link_by_id(0)
        assert validate(after) == []

    def test_full_fidelity_degradation_kills_existence(self, small_network):
        event = FailureEvent(target=1, kind=FailureKind.DEGRADE_FIDELITY, magnitude=1.0)
        after = apply_failures(small_network, [event])
        assert after.link_by_id(1).fidelity == 0.0
        assert link_existence_probability(after.link_by_id(1)) == 0.0

    def test_degradations_compose_multiplicatively(self, small_network):
        e1 = FailureEvent(target=0, kind=FailureKind.DEGRADE_SWAP, magnitude=0.5)
        e2 = FailureEvent(target=0, kind=FailureKind.DEGRADE_SWAP, magnitude=0.5)
        after = apply_failures(apply_failures(small_network, [e1]), [e2])
        assert after.link_by_id(0).swap_success == pytest.approx(0.25)

    def test_loss_degradation_scales_survival(self, small_network):
        event = FailureEvent(target=1, kind=FailureKind.DEGRADE_LOSS, magnitude=0.5)
        after = apply_failures(small_network, [event])
        assert after.link_by_id(1).photon_loss == pytest.approx(0.5)

    def test_missing_target(self, small_network):
        event = FailureEvent(target=99, kind=FailureKind.REMOVE_LINK)
        assert apply_failures(small_network, [event]) == small_network

    def test_remove_is_idempotent_via_schedule(self, small_network):
        events = [
            FailureEvent(target=0, kind=FailureKind.REMOVE_LINK, time=0),
            FailureEvent(target=0, kind=FailureKind.REMOVE_LINK, time=1),
        ]
        after = apply_failures(small_network, events)
        assert len(after.links) == 1


KINDS = list(FailureKind)


def _random_schedule(rng, num_links):
    """Events on known and unknown links, magnitudes 0 and 1 among them, and
    some repeated (time, target, kind) keys with other magnitudes."""
    events = []
    for _ in range(rng.randint(0, 10)):
        if events and rng.random() < 0.2:
            twin = rng.choice(events)
            time, target, kind = twin.time, twin.target, twin.kind
        else:
            time = rng.randint(0, 4)
            target = rng.randint(-1, num_links + 1)
            kind = rng.choice(KINDS)
        magnitude = rng.choice((0.0, 1.0, dyadic(rng), rng.random()))
        events.append(FailureEvent(target=target, kind=kind, magnitude=magnitude, time=time))
    return events


class TestApplyFailuresMatchesReference:
    """apply_failures against the event-at-a-time reference: equal networks,
    links in the same order."""

    @staticmethod
    def _check(network, events, until):
        got = apply_failures(network, events, until=until)
        expected = reference_apply_failures(network, events, until=until)
        assert got == expected
        assert [link.id for link in got.links] == [link.id for link in expected.links]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_schedules(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            network = random_overlay(rng, num_nodes=6, num_links=rng.randint(0, 10))
            events = _random_schedule(rng, len(network.links))
            for until in (None, *range(-1, 6)):
                self._check(network, events, until)

    def test_removal_then_degradation_is_skipped(self, small_network):
        events = [
            FailureEvent(target=0, kind=FailureKind.DEGRADE_FIDELITY, magnitude=0.5, time=2),
            FailureEvent(target=0, kind=FailureKind.REMOVE_LINK, time=1),
            FailureEvent(target=1, kind=FailureKind.DEGRADE_SWAP, magnitude=0.25, time=2),
        ]
        after = apply_failures(small_network, events)
        assert [link.id for link in after.links] == [1]
        assert after.link_by_id(1).swap_success == 0.75
        self._check(small_network, events, None)

    def test_degradation_keeps_link_order(self, small_network):
        event = FailureEvent(target=0, kind=FailureKind.DEGRADE_LOSS, magnitude=1.0)
        after = apply_failures(small_network, [event])
        assert [link.id for link in after.links] == [0, 1]
        assert after.link_by_id(0).photon_loss == 1.0
        self._check(small_network, [event], None)
