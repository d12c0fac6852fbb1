"""Entangled overlay network model.

Nodes, multi-level entangled links with their stability attributes, the
per-link existence probability, and a small stochastic failure model.
All values are immutable; mutating operations return new networks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from enum import Enum
from functools import cached_property
from itertools import compress, count, repeat
from operator import eq
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .errors import InvalidLevelError, NotFoundError, Violation

NodeId = int
LinkId = int

_INF = float("inf")

_Record = TypeVar("_Record", bound=type)


def hop_distance(level: int) -> int:
    """Physical hop distance spanned by a level-l entangled link: 2**(l-1)."""
    if level < 1:
        raise InvalidLevelError(f"entanglement level must be >= 1, got {level}")
    return 2 ** (level - 1)


def slot_setters(cls: type) -> tuple[Callable[[object, object], None], ...]:
    """The slot descriptors' setters of a frozen, slotted dataclass, bound
    once, in field order.

    A record whose checked __init__ is hand-written (init=False) stores
    each field through them, since the frozen class's own __setattr__
    raises. That skips the object.__setattr__ lookup and call per field
    that a generated frozen __init__ makes.
    """
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


def _refuse_set(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_record(cls: _Record) -> _Record:
    """cls, a frozen slotted dataclass, refusing assignment and deletion of
    every name with FrozenInstanceError, as a frozen dataclass without
    slots does.

    On CPython 3.10 to 3.13 the __setattr__ and __delattr__ that
    dataclass(frozen=True, slots=True) generates raise FrozenInstanceError
    for field names only. For any other name they call super() on the class
    that slots=True replaced, which raises TypeError. No constructor goes
    through these methods: a generated __init__ and the pickle __setstate__
    store fields through object.__setattr__, and a hand-written __init__
    through slot_setters.
    """
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


@frozen_record
@dataclass(frozen=True, slots=True, init=False)
class EntangledLink:
    """A level-l entangled link between two overlay nodes.

    swap_success, photon_loss, and fidelity are scalars in [0, 1] supplied
    by configuration or a generator; they are not derived from a physical
    model. throughput is measured in maximally entangled states per second
    at fidelity `fidelity`, a finite number >= 0. resource_count is the
    number of entangled states stored on the link (defaults to the minimal
    usable value, 1).
    """

    id: LinkId
    a: NodeId
    b: NodeId
    level: int = 1
    swap_success: float = 1.0
    photon_loss: float = 0.0
    fidelity: float = 1.0
    throughput: float = 0.0
    resource_count: int = 1

    def __init__(
        self,
        id: LinkId,
        a: NodeId,
        b: NodeId,
        level: int = 1,
        swap_success: float = 1.0,
        photon_loss: float = 0.0,
        fidelity: float = 1.0,
        throughput: float = 0.0,
        resource_count: int = 1,
    ) -> None:
        # Every builder constructs links through here or through
        # links_from_columns, which holds its links to these checks, so
        # every link is checked. Valid links take one test per check; the
        # loop below runs only to name a bad [0, 1] field. The fields are
        # stored through the slot descriptors, since the frozen class's own
        # __setattr__ raises.
        if a == b:
            raise ValueError(f"link {id}: endpoints must be distinct")
        if level < 1:
            raise InvalidLevelError(f"link {id}: level must be >= 1, got {level}")
        if not (0.0 <= swap_success <= 1.0 and 0.0 <= photon_loss <= 1.0
                and 0.0 <= fidelity <= 1.0):
            for name, value in (("swap_success", swap_success),
                                ("photon_loss", photon_loss), ("fidelity", fidelity)):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"link {id}: {name}={value} outside [0, 1]")
        if throughput < 0:
            raise ValueError(f"link {id}: throughput must be >= 0")
        if not throughput < _INF:  # NaN fails this comparison too
            raise ValueError(f"link {id}: throughput={throughput} is not finite")
        if resource_count < 0:
            raise ValueError(f"link {id}: resource_count must be >= 0")
        _set_id(self, id)
        _set_a(self, a)
        _set_b(self, b)
        _set_level(self, level)
        _set_swap_success(self, swap_success)
        _set_photon_loss(self, photon_loss)
        _set_fidelity(self, fidelity)
        _set_throughput(self, throughput)
        _set_resource_count(self, resource_count)

    @property
    def endpoints(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b)

    @property
    def pair(self) -> tuple[NodeId, NodeId]:
        """Unordered endpoint pair in canonical (low, high) order."""
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)

    def other(self, node: NodeId) -> NodeId:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise NotFoundError(f"node {node} is not an endpoint of link {self.id}")


_LINK_SETTERS = slot_setters(EntangledLink)
(_set_id, _set_a, _set_b, _set_level, _set_swap_success, _set_photon_loss,
 _set_fidelity, _set_throughput, _set_resource_count) = _LINK_SETTERS

# The setter and default value of each field after id, a and b. The values
# are read from a link that EntangledLink made, so they have passed its
# checks; links_from_columns stores them without checking them again.
_CHECKED_DEFAULTS = EntangledLink(0, 0, 1)
_DEFAULT_FIELDS = tuple(
    (setter, getattr(_CHECKED_DEFAULTS, f.name))
    for setter, f in zip(_LINK_SETTERS[3:], fields(EntangledLink)[3:])
)
# Consumes an iterator, keeping nothing.
_drain = deque(maxlen=0).extend


def links_from_columns(
    first_id: LinkId, a_column: Sequence[NodeId], b_column: Sequence[NodeId]
) -> list[EntangledLink]:
    """The links EntangledLink(first_id + i, a_column[i], b_column[i]), in
    order of i, with every other field at its default, made in bulk.

    Equal to what EntangledLink builds, under ==, hash, repr, pickle and
    dataclasses.replace, and checked as it checks: the default fields
    passed its checks once, and the endpoint test `a == b` runs over the
    columns. When it finds equal endpoints, EntangledLink itself raises
    its ValueError for the first such link. Each field is then stored
    through its slot setter, one column at a time, which skips the
    per-record frame of EntangledLink.__init__.
    """
    size = len(a_column)
    if len(b_column) != size:
        raise ValueError(
            f"endpoint columns differ in length: {size} and {len(b_column)}"
        )
    bad = next(compress(count(), map(eq, a_column, b_column)), None)
    if bad is not None:
        EntangledLink(first_id + bad, a_column[bad], b_column[bad])  # raises
    links = list(map(object.__new__, repeat(EntangledLink, size)))
    _drain(map(_set_id, links, range(first_id, first_id + size)))
    _drain(map(_set_a, links, a_column))
    _drain(map(_set_b, links, b_column))
    for setter, value in _DEFAULT_FIELDS:
        _drain(map(setter, links, repeat(value, size)))
    return links


def link_existence_probability(link: EntangledLink) -> float:
    """Probability that the link exists: swap success times survival times fidelity."""
    return link.swap_success * (1.0 - link.photon_loss) * link.fidelity


class FailureKind(str, Enum):
    REMOVE_LINK = "remove-link"
    DEGRADE_SWAP = "degrade-swap"
    DEGRADE_LOSS = "degrade-loss"
    DEGRADE_FIDELITY = "degrade-fidelity"


@frozen_record
@dataclass(frozen=True, slots=True)
class FailureEvent:
    """A scheduled random failure hitting one link.

    Degrade events multiply the named attribute by (1 - magnitude), which
    keeps probabilities in range without clamping. For photon loss the
    degradation raises the loss toward 1 by the same multiplicative rule
    on the survival probability.
    """

    target: LinkId
    kind: FailureKind
    magnitude: float = 0.0
    time: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError(f"magnitude {self.magnitude} outside [0, 1]")
        if self.time < 0:
            raise ValueError(f"time must be a nonnegative tick, got {self.time}")


@dataclass(frozen=True)
class OverlayNetwork:
    """The overlay quantum network: a node set and a set of entangled links."""

    nodes: frozenset[NodeId]
    links: tuple[EntangledLink, ...]

    @cached_property
    def _by_id(self) -> dict[LinkId, EntangledLink]:
        return {link.id: link for link in self.links}

    @cached_property
    def _by_pair(self) -> dict[tuple[NodeId, NodeId], tuple[EntangledLink, ...]]:
        index: dict[tuple[NodeId, NodeId], list[EntangledLink]] = {}
        for link in self.links:
            index.setdefault(link.pair, []).append(link)
        return {pair: tuple(ls) for pair, ls in index.items()}

    def link_by_id(self, link_id: LinkId) -> EntangledLink:
        try:
            return self._by_id[link_id]
        except KeyError:
            raise NotFoundError(f"no link with id {link_id}") from None

    def links_between(self, x: NodeId, y: NodeId) -> tuple[EntangledLink, ...]:
        pair = (x, y) if x < y else (y, x)
        return self._by_pair.get(pair, ())


def make_network(nodes: Iterable[NodeId], links: Iterable[EntangledLink]) -> OverlayNetwork:
    return OverlayNetwork(nodes=frozenset(nodes), links=tuple(links))


def validate(network: OverlayNetwork, context: str = "network") -> list[Violation]:
    """Check network invariants; returns every violation found (empty list means ok).
    Each message starts with the field path of network.links[i] below context."""
    violations: list[Violation] = []
    seen_ids: dict[LinkId, EntangledLink] = {}
    seen_keys: dict[tuple[tuple[NodeId, NodeId], int], LinkId] = {}
    for i, link in enumerate(network.links):
        if link.id in seen_ids:
            violations.append(
                Violation("duplicate-link-id", link.id,
                          f"{context}.links[{i}].id: link id {link.id} appears more than once")
            )
        seen_ids[link.id] = link
        for endpoint in (link.a, link.b):
            if endpoint not in network.nodes:
                violations.append(
                    Violation(
                        "unknown-endpoint",
                        link.id,
                        f"{context}.links[{i}]: endpoint {endpoint} is not in {context}.nodes",
                    )
                )
        key = (link.pair, link.level)
        if key in seen_keys:
            violations.append(
                Violation(
                    "duplicate-pair-level",
                    (seen_keys[key], link.id),
                    f"{context}.links[{i}]: links {seen_keys[key]} and {link.id} both join "
                    f"pair {link.pair} at level {link.level}",
                )
            )
        else:
            seen_keys[key] = link.id
    return violations


def apply_failures(
    network: OverlayNetwork,
    events: Iterable[FailureEvent],
    until: Optional[int] = None,
) -> OverlayNetwork:
    """Apply every event with time <= until (all events when until is None),
    in (time, target, kind) order, returning the resulting network.

    An event whose target is absent is skipped: a link the network never
    had, or one that an earlier event removed. A degraded link keeps its
    place in link order. Link ids are taken to be unique, as validate
    requires.
    """
    links = {link.id: link for link in network.links}
    for event in sorted(events, key=lambda e: (e.time, e.target, e.kind.value)):
        if until is not None and event.time > until:
            break
        link = links.get(event.target)
        if link is None:
            continue
        if event.kind is FailureKind.REMOVE_LINK:
            del links[event.target]
            continue
        keep = 1.0 - event.magnitude
        if event.kind is FailureKind.DEGRADE_SWAP:
            link = replace(link, swap_success=link.swap_success * keep)
        elif event.kind is FailureKind.DEGRADE_FIDELITY:
            link = replace(link, fidelity=link.fidelity * keep)
        elif event.kind is FailureKind.DEGRADE_LOSS:
            # Degrading the channel scales the survival probability (1 - loss).
            link = replace(link, photon_loss=1.0 - (1.0 - link.photon_loss) * keep)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown failure kind {event.kind}")
        links[event.target] = link
    return replace(network, links=tuple(links.values()))
