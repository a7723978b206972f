"""Core domain types: claims, the indexed claim store, and the fusion config.

A claim is one (source, object, value) assertion. The Dataset holds each
claim once, in the two inverted indexes every other module works from:
per-object voter maps (object -> value -> voting sources) and per-source
claim maps (source -> object -> value). Datasets are immutable after
construction; the one pair index copy detection reads
(``pair_agreements``: the eligible pairs and their agreement classes),
the one voter index voting reads (``voter_index``: the linked voters of
each voter group holding an eligible pair, and the values' similarity
weights) and the claim slots the accuracy update reads
(``source_slots``: each source's (object, value) slots, numbered in
``voters`` order) are built on first use and cached.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConflictingClaim, InvalidConfig, InvalidParameter

if TYPE_CHECKING:
    from .vote import VoterIndex

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

    __slots__ = ("voters", "by_source", "_agreements", "_voter_indexes", "_slots")

    def __init__(
        self,
        voters: dict[ObjectId, dict[Value, frozenset[SourceId]]],
        by_source: dict[SourceId, dict[ObjectId, Value]],
    ):
        self.voters = voters
        self.by_source = by_source
        self._agreements: dict[int, PairAgreements] = {}
        self._voter_indexes: dict[int, VoterIndex] = {}
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

    def shared_values(
        self, s1: SourceId, s2: SourceId
    ) -> Iterator[tuple[ObjectId, Value | None]]:
        """Each object both sources assert, in sorted object order.

        Yields (object, value) where the two assert the same value and
        (object, None) where they differ: the one rule by which copy
        detection classifies a pair's shared objects.
        """
        claims1 = self.by_source.get(s1, {})
        claims2 = self.by_source.get(s2, {})
        if len(claims2) < len(claims1):
            claims1, claims2 = claims2, claims1
        # build_dataset sorts each source's claims by object
        for obj, v1 in claims1.items():
            v2 = claims2.get(obj)
            if v2 is not None:
                yield obj, (v1 if v1 == v2 else None)

    def pair_agreements(self, min_overlap: int) -> PairAgreements:
        """Agreement classes of every pair sharing at least ``min_overlap`` objects.

        Pairs sharing no object are never listed, whatever ``min_overlap``.
        Agreement does not depend on the truths, so each pair is
        classified once per dataset and ``min_overlap`` and the result is
        cached; the overlap of ineligible pairs is counted and dropped.
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
                for obj in claims:
                    later = providers[obj]
                    for b in later[bisect_right(later, a):]:
                        shared[b] = shared.get(b, 0) + 1
                for b in sorted(shared):
                    if shared[b] < min_overlap:
                        continue
                    agreed = 0
                    for obj, value in self.shared_values(a, b):
                        if value is not None:
                            agreed |= bits[obj]
                    pairs.append((a, b))
                    masks.append(agreed)
                    agreed_counts.append(agreed.bit_count())
                    different.append(shared[b] - agreed_counts[-1])
            agreements = PairAgreements(
                tuple(pairs), tuple(masks), tuple(agreed_counts), tuple(different)
            )
            self._agreements[min_overlap] = agreements
        return agreements

    def voter_index(self, min_overlap: int) -> VoterIndex:
        """The voting index (``vote.VoterIndex``) over ``pair_agreements(min_overlap)``.

        Cached per ``min_overlap`` like ``pair_agreements``; its parts are
        built on first use.
        """
        index = self._voter_indexes.get(min_overlap)
        if index is None:
            from .vote import VoterIndex  # vote imports this module

            index = self._voter_indexes[min_overlap] = VoterIndex(self, min_overlap)
        return index

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

    The four tuples run in parallel, in ascending pair order. ``pairs``
    holds (a, b) with a < b; copy matrices reuse these tuples as their
    keys. ``agreed[k]`` is the bitmask of the objects where both sources
    of pair k assert the same value (bit i stands for the i-th object of
    ``Dataset.objects()``, which is sorted); ``agreed_counts[k]`` is its
    number of set bits and ``different[k]`` the number of shared objects
    where the two differ.
    """

    pairs: tuple[tuple[SourceId, SourceId], ...]
    agreed: tuple[int, ...]
    agreed_counts: tuple[int, ...]
    different: tuple[int, ...]


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
