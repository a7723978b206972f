"""Core domain types: claims, the indexed claim store, and the fusion config.

A claim is one (source, object, value) assertion. The Dataset holds each
claim once, in the two inverted indexes every other module works from:
per-object voter maps (object -> value -> voting sources) and per-source
claim maps (source -> object -> value). Datasets are immutable after
construction; the one pair index copy detection and voting read
(``pair_agreements``: the eligible pairs, their agreement classes, the
only place a pair's shared objects are classified, and the linked voters
of each voter group holding an eligible pair), the values' similarity
weights (``similarity_weights``) and the claim slots the accuracy update
reads (``source_slots``: each source's (object, value) slots, numbered
in ``voters`` order) are built on first use and cached.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConflictingClaim, InvalidConfig, InvalidParameter
from .similarity import similarity_weights

# Identifiers are opaque non-empty strings; values compare by exact
# string equality (categorical semantics).
SourceId = str
ObjectId = str
Value = str


@dataclass(frozen=True)
class Claim:
    """One source's asserted value for one object."""

    source: SourceId
    object: ObjectId
    value: Value

    def __post_init__(self) -> None:
        if not self.source:
            raise InvalidParameter("claim with empty source id")
        if not self.object:
            raise InvalidParameter("claim with empty object id")
        if not self.value:
            raise InvalidParameter(
                f"claim ({self.source}, {self.object}) with empty value"
            )


class Dataset:
    """Immutable indexed claim store: each claim held once, in two indexes.

    Attributes:
        voters: object -> value -> frozenset of voting sources, objects
            and each object's values in sorted order.
        by_source: source -> object -> asserted value, sources and each
            source's objects in sorted order.
    """

    __slots__ = ("voters", "by_source", "_agreements", "_weights", "_slots")

    def __init__(
        self,
        voters: dict[ObjectId, dict[Value, frozenset[SourceId]]],
        by_source: dict[SourceId, dict[ObjectId, Value]],
    ):
        self.voters = voters
        self.by_source = by_source
        self._agreements: dict[int, PairAgreements] = {}
        self._weights: dict[ObjectId, array] | None = None
        self._slots: dict[SourceId, array] | None = None

    def sources(self) -> tuple[SourceId, ...]:
        return tuple(self.by_source)

    def objects(self) -> tuple[ObjectId, ...]:
        return tuple(self.voters)

    @property
    def claims(self) -> tuple[Claim, ...]:
        """Every claim, sorted by (source, object); built from ``by_source`` on each read."""
        return tuple(
            Claim(source, obj, value)
            for source, claims in self.by_source.items()
            for obj, value in claims.items()
        )

    def __len__(self) -> int:
        return sum(map(len, self.by_source.values()))

    def pair_agreements(self, min_overlap: int) -> PairAgreements:
        """The pair index over every pair sharing at least ``min_overlap`` objects.

        Pairs sharing no object are never listed, whatever ``min_overlap``.
        Neither agreement nor which voters a pair links depends on the
        truths, so each pair is classified once per dataset and
        ``min_overlap`` and the result is cached. One sweep over each
        source a counts the objects it shares with every later source b
        and sets an object's bit in the pair's agreed mask where both
        assert the same value; the counts and masks of ineligible pairs
        are dropped. Then ``link_groups`` indexes the voter groups the
        eligible pairs link, for voting.
        """
        agreements = self._agreements.get(min_overlap)
        if agreements is None:
            bits = {obj: 1 << i for i, obj in enumerate(self.voters)}
            # each object's sources, sorted: a pair (a, b) is counted at a < b
            providers = {
                obj: sorted(s for group in votemap.values() for s in group)
                for obj, votemap in self.voters.items()
            }
            pairs, masks, agreed_counts, different = [], [], [], []
            # build_dataset sorts the sources, so the pairs come out ascending
            for a, claims in self.by_source.items():
                shared: dict[SourceId, int] = {}
                agreed: dict[SourceId, int] = {}
                for obj, value in claims.items():
                    later = providers[obj]
                    bit, same = bits[obj], self.voters[obj][value]
                    for b in later[bisect_right(later, a):]:
                        shared[b] = shared.get(b, 0) + 1
                        if b in same:
                            agreed[b] = agreed.get(b, 0) | bit
                for b in sorted(shared):
                    if shared[b] < min_overlap:
                        continue
                    mask = agreed.get(b, 0)
                    pairs.append((a, b))
                    masks.append(mask)
                    agreed_counts.append(mask.bit_count())
                    different.append(shared[b] - agreed_counts[-1])
            pairs = tuple(pairs)
            groups = link_groups(self.voters, pairs)
            agreements = PairAgreements(
                pairs, tuple(masks), tuple(agreed_counts), tuple(different), groups
            )
            self._agreements[min_overlap] = agreements
        return agreements

    def similarity_weights(self) -> dict[ObjectId, array]:
        """``similarity_weights`` of each object's sorted values, for objects with two or more.

        Similarity does not depend on the truths or on ``min_overlap``,
        so the weights are measured on first use and cached once per
        dataset.
        """
        if self._weights is None:
            self._weights = {
                obj: similarity_weights(sorted(votemap))
                for obj, votemap in self.voters.items()
                if len(votemap) >= 2
            }
        return self._weights

    def source_slots(self) -> dict[SourceId, array]:
        """Each source's claims as slot numbers, in ``by_source`` order.

        Slot i is the i-th (object, value) pair of ``voters`` in iteration
        order, so one round's value probabilities fit one flat list, and
        a source's slots ascend in its objects' order. Built on first use
        and cached.
        """
        if self._slots is None:
            slots: dict[SourceId, list[int]] = {source: [] for source in self.by_source}
            slot = 0
            for votemap in self.voters.values():
                for group in votemap.values():
                    for source in group:
                        slots[source].append(slot)
                    slot += 1
            self._slots = {source: array("i", mine) for source, mine in slots.items()}
        return self._slots


@dataclass(frozen=True)
class PairAgreements:
    """Per eligible pair, how its shared objects split into agreed and differing.

    Every round of copy detection, round zero included, reads this one
    classification. The four tuples run in parallel, in ascending pair
    order. ``pairs`` holds (a, b) with a < b; copy matrices reuse these
    tuples as their keys. ``agreed[k]`` is the bitmask of the objects
    where both sources of pair k assert the same value (bit i stands for
    the i-th object of ``Dataset.objects()``, which is sorted);
    ``agreed_counts[k]`` is its number of set bits and ``different[k]``
    the number of shared objects where the two differ. Every round of
    voting reads ``groups``: ``link_groups`` over ``pairs``, a
    ``LinkedGroup`` per voter group holding an eligible pair.
    """

    pairs: tuple[tuple[SourceId, SourceId], ...]
    agreed: tuple[int, ...]
    agreed_counts: tuple[int, ...]
    different: tuple[int, ...]
    groups: dict[frozenset[SourceId], LinkedGroup]


class LinkedGroup(NamedTuple):
    """One voter group as voting places it.

    ``linked`` holds, in sorted order, the k' voters that form an eligible
    pair with another voter of the group, and ``unlinked`` the others,
    sorted too. For linked voters i and j, ``table[i * k' + j]`` is the
    number of their pair, or the sentinel len(pairs) where the two are no
    pair; the diagonal holds the sentinel.
    """

    linked: tuple[SourceId, ...]
    unlinked: tuple[SourceId, ...]
    table: array


def link_groups(
    voters: Mapping[ObjectId, Mapping[Value, frozenset[SourceId]]],
    pairs: Sequence[tuple[SourceId, SourceId]],
) -> dict[frozenset[SourceId], LinkedGroup]:
    """The ``LinkedGroup`` of every voter group holding a pair of ``pairs``.

    Keyed by the group's voters; groups with the same voters share one
    entry, and a group with no such pair has none. ``pairs`` holds
    (a, b) with a < b, and a pair's number is its position. A table is
    an unsigned 16-bit array when the sentinel fits, a 32-bit one
    otherwise.
    """
    sentinel = len(pairs)
    typecode = "H" if sentinel <= 0xFFFF else "i"
    partners: dict[SourceId, dict[SourceId, int]] = {}
    for number, (a, b) in enumerate(pairs):
        partners.setdefault(a, {})[b] = number
        partners.setdefault(b, {})[a] = number
    groups: dict[frozenset[SourceId], LinkedGroup] = {}
    for votemap in voters.values():
        for group in votemap.values():
            if group in groups:
                continue
            members = sorted(group)
            found: list[tuple[int, int, int]] = []
            for i, source in enumerate(members):
                mine = partners.get(source)
                if not mine:
                    continue
                for j in range(i + 1, len(members)):
                    number = mine.get(members[j])
                    if number is not None:
                        found.append((i, j, number))
            if not found:
                continue
            linked = sorted({i for i, _, _ in found} | {j for _, j, _ in found})
            # the linked voters keep their id order in the table
            position = {i: p for p, i in enumerate(linked)}
            k = len(linked)
            table = array(typecode, [sentinel]) * (k * k)
            for i, j, number in found:
                p, q = position[i], position[j]
                table[p * k + q] = table[q * k + p] = number
            groups[group] = LinkedGroup(
                tuple(members[i] for i in linked),
                tuple(source for i, source in enumerate(members) if i not in position),
                table,
            )
    return groups


def build_dataset(claims: Iterable[Claim], keep_first: bool = False) -> Dataset:
    """Index a claim sequence into a Dataset.

    Duplicate (source, object) pairs asserting the same value are
    deduplicated. A source asserting two different values for one object
    raises ConflictingClaim unless ``keep_first`` is set, in which case
    the first asserted value wins.
    """
    by_source: dict[SourceId, dict[ObjectId, Value]] = {}
    for claim in claims:
        per_source = by_source.setdefault(claim.source, {})
        existing = per_source.get(claim.object)
        if existing is None:
            per_source[claim.object] = claim.value
        elif existing != claim.value:
            if not keep_first:
                raise ConflictingClaim(
                    f"source {claim.source!r} asserts both {existing!r} and "
                    f"{claim.value!r} for object {claim.object!r}"
                )
            # keep_first: later conflicting assertion dropped

    by_source = {
        source: dict(sorted(by_source[source].items())) for source in sorted(by_source)
    }
    groups: dict[ObjectId, dict[Value, list[SourceId]]] = {}
    for source, per_source in by_source.items():
        for obj, value in per_source.items():
            groups.setdefault(obj, {}).setdefault(value, []).append(source)
    voters = {
        obj: {value: frozenset(group) for value, group in sorted(groups[obj].items())}
        for obj in sorted(groups)
    }
    return Dataset(voters, by_source)


@dataclass(frozen=True)
class FusionConfig:
    """Global fusion parameters, applied alike to every object and pair.

    n: number of false values in each object's domain; the value
        posterior, accuracy scores and copy conditionals all use it.
    alpha: a-priori probability that a source pair is independent.
    c: probability that a copier's individual value is copied.
    eps: initial error rate; every source starts with accuracy 1 - eps.
    rho: similarity-propagation weight for the Sim variants.
    direction_threshold: fraction of the total copy probability one
        direction must exceed to call the pair directed.
    accuracy_clamp: bound keeping estimated accuracies inside
        [clamp, 1 - clamp] so accuracy scores stay finite.
    max_rounds: cap on the number of rounds a run executes.
    stability_tol: largest per-source accuracy change that counts as
        converged.
    min_overlap: smallest number of commonly asserted objects for which
        a pair copy estimate is computed at all.
    """

    n: int = 100
    alpha: float = 0.2
    c: float = 0.8
    eps: float = 0.2
    rho: float = 0.5
    direction_threshold: float = 2.0 / 3.0
    accuracy_clamp: float = 0.01
    max_rounds: int = 100
    stability_tol: float = 1e-6
    min_overlap: int = 10

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        problems = []
        if not (isinstance(self.n, int) and self.n >= 1):
            problems.append(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 < self.alpha < 1.0:
            problems.append(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.c <= 1.0:
            problems.append(f"c must be in (0, 1], got {self.c!r}")
        if not 0.0 < self.eps < 1.0:
            problems.append(f"eps must be in (0, 1), got {self.eps!r}")
        if not 0.0 <= self.rho < 1.0:
            problems.append(f"rho must be in [0, 1), got {self.rho!r}")
        if not 0.5 < self.direction_threshold <= 1.0:
            problems.append(
                f"direction_threshold must be in (0.5, 1], got {self.direction_threshold!r}"
            )
        if not 0.0 < self.accuracy_clamp < 0.5:
            problems.append(
                f"accuracy_clamp must be in (0, 0.5), got {self.accuracy_clamp!r}"
            )
        if not (isinstance(self.max_rounds, int) and self.max_rounds >= 1):
            problems.append(f"max_rounds must be a positive integer, got {self.max_rounds!r}")
        if not self.stability_tol >= 0.0:
            problems.append(f"stability_tol must be nonnegative, got {self.stability_tol!r}")
        if not (isinstance(self.min_overlap, int) and self.min_overlap >= 0):
            problems.append(f"min_overlap must be a nonnegative integer, got {self.min_overlap!r}")
        if problems:
            raise InvalidConfig("; ".join(problems))

    @property
    def initial_accuracy(self) -> float:
        return 1.0 - self.eps
