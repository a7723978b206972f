"""Core domain types: claims, the indexed claim store, and the fusion config.

A claim is one (source, object, value) assertion. The Dataset holds the
claims together with the two inverted indexes every other module works
from: per-object voter maps (object -> value -> voting sources) and
per-source claim maps (source -> object -> value). Datasets are
immutable after construction; the per-pair overlap counts and agreement
classes that copy detection reads are built on first use and cached.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .errors import ConflictingClaim, InvalidConfig, InvalidParameter

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
    """Immutable indexed claim store.

    Attributes:
        claims: canonical claim tuple, sorted by (source, object).
        voters: object -> value -> frozenset of voting sources.
        by_source: source -> object -> asserted value.
    """

    __slots__ = ("claims", "voters", "by_source", "_overlap_counts", "_agreements")

    def __init__(
        self,
        claims: tuple[Claim, ...],
        voters: dict[ObjectId, dict[Value, frozenset[SourceId]]],
        by_source: dict[SourceId, dict[ObjectId, Value]],
    ):
        self.claims = claims
        self.voters = voters
        self.by_source = by_source
        self._overlap_counts: dict[tuple[SourceId, SourceId], int] | None = None
        self._agreements: dict[int, PairAgreements] = {}

    def sources(self) -> tuple[SourceId, ...]:
        return tuple(self.by_source)

    def objects(self) -> tuple[ObjectId, ...]:
        return tuple(self.voters)

    def __len__(self) -> int:
        return len(self.claims)

    def pair_overlap_counts(self) -> Mapping[tuple[SourceId, SourceId], int]:
        """Number of commonly asserted objects per unordered source pair.

        Keys are (a, b) with a < b; pairs sharing no object are absent.
        Built on first use from the voter index and cached; the dataset
        never mutates, so the counts never go stale.
        """
        if self._overlap_counts is None:
            counts: dict[tuple[SourceId, SourceId], int] = {}
            for votemap in self.voters.values():
                providers = sorted(s for group in votemap.values() for s in group)
                for i, a in enumerate(providers):
                    for b in providers[i + 1 :]:
                        key = (a, b)
                        counts[key] = counts.get(key, 0) + 1
            self._overlap_counts = counts
        return self._overlap_counts

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

        Agreement does not depend on the truths, so each pair is
        classified once per dataset and ``min_overlap`` and the result is
        cached.
        """
        agreements = self._agreements.get(min_overlap)
        if agreements is None:
            counts = self.pair_overlap_counts()
            pairs = tuple(sorted(p for p, count in counts.items() if count >= min_overlap))
            bits = {obj: 1 << i for i, obj in enumerate(self.voters)}
            masks = []
            for pair in pairs:
                agreed = 0
                for obj, value in self.shared_values(*pair):
                    if value is not None:
                        agreed |= bits[obj]
                masks.append(agreed)
            agreed_counts = tuple(mask.bit_count() for mask in masks)
            agreements = PairAgreements(
                pairs,
                tuple(masks),
                agreed_counts,
                tuple(counts[pair] - n for pair, n in zip(pairs, agreed_counts)),
            )
            self._agreements[min_overlap] = agreements
        return agreements


@dataclass(frozen=True)
class PairAgreements:
    """Per eligible pair, how its shared objects split into agreed and differing.

    The four tuples run in parallel, in ascending pair order. ``pairs``
    holds the keys of ``Dataset.pair_overlap_counts``. ``agreed[k]`` is
    the bitmask of the objects where both sources of pair k assert the
    same value (bit i stands for the i-th object of ``Dataset.objects()``,
    which is sorted); ``agreed_counts[k]`` is its number of set bits and
    ``different[k]`` the number of shared objects where the two differ.
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

    voters_mut: dict[ObjectId, dict[Value, set[SourceId]]] = {}
    for source in sorted(by_source):
        for obj, value in by_source[source].items():
            voters_mut.setdefault(obj, {}).setdefault(value, set()).add(source)

    voters = {
        obj: {
            value: frozenset(group)
            for value, group in sorted(voters_mut[obj].items())
        }
        for obj in sorted(voters_mut)
    }
    canonical_by_source = {
        source: dict(sorted(by_source[source].items()))
        for source in sorted(by_source)
    }
    canonical_claims = tuple(
        Claim(source, obj, value)
        for source in sorted(canonical_by_source)
        for obj, value in canonical_by_source[source].items()
    )
    return Dataset(canonical_claims, voters, canonical_by_source)


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
