"""Core domain types: claims, the indexed claim store, and the fusion config.

A claim is one (source, object, value) assertion. The Dataset holds each
claim once, in the two inverted indexes every other module works from:
per-object voter maps (object -> value -> voting sources) and per-source
claim maps (source -> object -> value). Datasets are immutable after
construction; the one pair index copy detection and voting read
(``pair_agreements``: each source's object mask, the eligible pairs
found by ANDing those masks, and their agreement classes and the linked
voters of each voter group holding one, both from one walk of the
distinct voter groups), the values' similarity weights
(``similarity_weights``) and the claim slots the accuracy update reads
(``source_slots``: each source's (object, value) slots, numbered in
``voters`` order) are built on first use and cached.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations
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
        ``min_overlap`` and the result is cached. One walk over the
        voters builds each source's object mask; a pair's shared objects
        are the AND of its two masks, and the pairs with enough of them
        are kept. That is W(W-1)/2 ANDs for the W sources asserting
        enough objects, however few objects they share. ``link_groups``
        then decides agreement: it indexes the voter groups the eligible
        pairs link, for voting, and returns each pair's agreed mask. A
        pair's shared objects it does not agree on are its differing
        ones.
        """
        agreements = self._agreements.get(min_overlap)
        if agreements is None:
            provided = dict.fromkeys(self.by_source, 0)
            for i, votemap in enumerate(self.voters.values()):
                for group in votemap.values():
                    for source in group:
                        provided[source] |= 1 << i
            least = max(min_overlap, 1)
            # a source asserting fewer objects than that is in no pair
            wide = [(s, mask) for s, mask in provided.items() if mask.bit_count() >= least]
            pairs, shared_counts = [], []
            # build_dataset sorts the sources, so the pairs come out ascending
            for (a, mine), (b, theirs) in combinations(wide, 2):
                shared = (mine & theirs).bit_count()
                if shared >= least:
                    pairs.append((a, b))
                    shared_counts.append(shared)
            pairs = tuple(pairs)
            groups, agreed = link_groups(self.voters, pairs)
            agreed_counts = tuple(mask.bit_count() for mask in agreed)
            different = tuple(n - k for n, k in zip(shared_counts, agreed_counts))
            agreements = PairAgreements(pairs, agreed, agreed_counts, different, groups, provided)
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
    the number of the pair's other shared objects. ``link_groups`` over
    ``pairs`` decides ``agreed`` and builds ``groups``, which every round
    of voting reads: a ``LinkedGroup`` per voter group holding a pair.
    ``provided`` maps every source to the mask of the objects it asserts,
    bits as in ``agreed``; a pair's shared objects are the AND of its two.
    """

    pairs: tuple[tuple[SourceId, SourceId], ...]
    agreed: tuple[int, ...]
    agreed_counts: tuple[int, ...]
    different: tuple[int, ...]
    groups: dict[frozenset[SourceId], LinkedGroup]
    provided: dict[SourceId, int]


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
) -> tuple[dict[frozenset[SourceId], LinkedGroup], tuple[int, ...]]:
    """Each voter group's ``LinkedGroup`` and each pair's agreed mask.

    The one place agreement is decided: the walk visits each distinct
    voter group once, and a pair's mask ORs the object masks (bit i for
    the i-th object) of the groups holding both its sources. A group's
    linked voters are those with a partner in it; one pass over their
    pairs fills both halves of its table and gives each pair found the
    group's mask. Groups are keyed by their voters, and only those
    holding a pair are kept; masks run in pair order. ``pairs`` holds
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
    bits: dict[frozenset[SourceId], int] = {}
    for i, votemap in enumerate(voters.values()):
        for group in votemap.values():
            bits[group] = bits.get(group, 0) | 1 << i
    # a source votes once per object, so a pair's group masks never overlap and
    # their sum is their OR; one sum per pair frees fewer part-built masks
    masks: list[list[int]] = [[] for _ in pairs]
    groups: dict[frozenset[SourceId], LinkedGroup] = {}
    for group, mask in bits.items():
        # the linked voters keep their id order in the table
        linked = [s for s in sorted(group) if not partners.get(s, {}).keys().isdisjoint(group)]
        if not linked:
            continue
        k = len(linked)
        table = array(typecode, [sentinel]) * (k * k)
        for p, a in enumerate(linked):
            mine = partners[a]
            for q in range(p + 1, k):
                number = mine.get(linked[q])
                if number is not None:
                    table[p * k + q] = table[q * k + p] = number
                    masks[number].append(mask)
        groups[group] = LinkedGroup(tuple(linked), tuple(sorted(group.difference(linked))), table)
    return groups, tuple(map(sum, masks))


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
