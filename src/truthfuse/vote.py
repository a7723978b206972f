"""Copy-aware voting: discounted value confidence.

Even a copier contributes some independent values, so instead of
dropping suspected copiers we count only the independent fraction of
each vote. The sources voting for one value are placed in a greedy
order (originals before their copiers, strongest dependencies first);
each source's vote is then discounted by the probability that it copied
from some earlier source of the same group. A vote is never discounted
against sources asserting a different value.

Which pairs of a voter group the copy matrix holds never changes: the
engine's matrix always holds exactly the dataset's eligible pairs
(``Dataset.pair_agreements``), and only their totals and directions
move from round to round. So the groups are indexed once per dataset,
as copy detection indexes the pairs' agreements (after Li, Dong, Lyons,
Meng & Srivastava, "Scaling up copy detection", ICDE 2015):
``VoterIndex`` keeps, for each group of k voters holding an eligible
pair, one flat k x k table of pair numbers, and each round reads the
matrix once into per-pair totals and directions (``read_links``). A
group is then ordered and discounted in O(k^2) on integer indices; a
group with no eligible pair skips ordering, and its confidence is the
sum of its voters' scores. The same index keeps each object's
similarity weights, which never change either.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Mapping, Sequence, Set
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .copydetect import CopyEstimate, CopyMatrix
from .errors import InvalidParameter, MissingInput
from .model import Dataset, ObjectId, SourceId, Value
from .similarity import similarity_weights

# how read_links records a pair (a, b): undirected, a copies b, b copies a
UNDIRECTED, FIRST_COPIES, SECOND_COPIES = 0, 1, 2


def classify_direction(
    s1: SourceId,
    s2: SourceId,
    estimate: CopyEstimate,
    threshold: float = 2.0 / 3.0,
) -> tuple[SourceId, SourceId] | None:
    """Resolve a pair's copy direction when one direction dominates.

    Returns ``(original, copier)`` when one direction holds more than
    ``threshold`` of the total copy probability; None when both
    directions stay equally possible.
    """
    total = estimate.total_copy_probability
    if estimate.first_copies_second > threshold * total:
        return s2, s1
    if estimate.second_copies_first > threshold * total:
        return s1, s2
    return None


def link_groups(
    voters: Mapping[ObjectId, Mapping[Value, frozenset[SourceId]]],
    pairs: Sequence[tuple[SourceId, SourceId]],
) -> dict[frozenset[SourceId], array]:
    """The pair table of every voter group holding a pair of ``pairs``.

    Keyed by the group's voters; groups with the same voters share one
    entry, and a group with no such pair has none. ``pairs`` holds
    (a, b) with a < b, and a pair's number is its position. For the k
    voters in sorted order, the table holds at [i * k + j] the number of
    the pair of voters i and j, or the sentinel len(pairs) where the two
    are no pair. It is an unsigned 16-bit array when the sentinel fits,
    a 32-bit one otherwise.
    """
    sentinel = len(pairs)
    typecode = "H" if sentinel <= 0xFFFF else "i"
    partners: dict[SourceId, dict[SourceId, int]] = {}
    for number, (a, b) in enumerate(pairs):
        partners.setdefault(a, {})[b] = number
        partners.setdefault(b, {})[a] = number
    groups: dict[frozenset[SourceId], array] = {}
    for votemap in voters.values():
        for group in votemap.values():
            if group in groups:
                continue
            members = sorted(group)
            k = len(members)
            table = None
            for i, source in enumerate(members):
                mine = partners.get(source)
                if not mine:
                    continue
                for j in range(i + 1, k):
                    number = mine.get(members[j])
                    if number is not None:
                        if table is None:
                            table = array(typecode, [sentinel]) * (k * k)
                        table[i * k + j] = table[j * k + i] = number
            if table is not None:
                groups[group] = table
    return groups


class VoterIndex:
    """One dataset's voting structure, built on first use and cached.

    ``Dataset.voter_index`` keeps one per ``min_overlap``. ``groups`` is
    ``link_groups`` over the dataset's eligible pairs; ``weights`` maps
    each object with two or more values to ``similarity_weights`` of its
    sorted values (character 2-gram Jaccard). Each is built the first time a
    round asks for it, so a variant without copy detection never builds
    the pair index, and one without similarity never measures a value.
    """

    def __init__(self, dataset: Dataset, min_overlap: int):
        self._dataset = dataset
        self._min_overlap = min_overlap

    @property
    def pairs(self) -> tuple[tuple[SourceId, SourceId], ...]:
        return self._dataset.pair_agreements(self._min_overlap).pairs

    @cached_property
    def groups(self) -> dict[frozenset[SourceId], array]:
        return link_groups(self._dataset.voters, self.pairs)

    @cached_property
    def weights(self) -> dict[ObjectId, array]:
        weights = {}
        for obj, votemap in self._dataset.voters.items():
            if len(votemap) >= 2:
                weights[obj] = similarity_weights(sorted(votemap))
        return weights


class RoundLinks(NamedTuple):
    """One round's copy matrix in pair order, the sentinel slot last.

    Pair n has total copy probability ``totals[n]`` and
    ``classify_direction`` verdict ``directions[n]`` (UNDIRECTED,
    FIRST_COPIES or SECOND_COPIES). The sentinel is undirected with
    total 0.0: it never raises a score, and its term 1 - c * 0.0 leaves
    a factor exactly as it is.
    """

    totals: list[float]
    directions: bytearray


def read_links(
    matrix: CopyMatrix,
    pairs: Sequence[tuple[SourceId, SourceId]],
    threshold: float,
) -> RoundLinks:
    """Read ``matrix``, which must hold exactly ``pairs``, in pair order."""
    if len(matrix) != len(pairs):
        raise InvalidParameter(
            f"copy matrix holds {len(matrix)} pairs, the index {len(pairs)}"
        )
    totals: list[float] = []
    directions = bytearray()
    for ((a, b), estimate), pair in zip(matrix.items(), pairs):
        if (a, b) != pair:
            raise InvalidParameter(f"copy matrix pair {(a, b)!r} is not index pair {pair!r}")
        totals.append(estimate.total_copy_probability)
        direction = classify_direction(a, b, estimate, threshold)
        if direction is None:
            directions.append(UNDIRECTED)
        else:
            directions.append(FIRST_COPIES if direction[1] == a else SECOND_COPIES)
    totals.append(0.0)
    directions.append(UNDIRECTED)
    return RoundLinks(totals, directions)


def _place(
    table: array,
    k: int,
    totals: Sequence[float],
    c: float,
    edges: Iterable[tuple[int, int]],
) -> tuple[list[int], list[float]] | None:
    """One greedy placement under the directed ``edges``; None if cyclic.

    Returns the placement order and every voter's independence factor.
    Each voter waits on a count of unplaced originals (Kahn's algorithm)
    and keeps its score as a running maximum over its placed partners,
    so the placement costs O(k^2) for k voters. The next pick is found
    in the same pass over the placed voter's row: the first strict
    maximum is the smallest index, as the id order breaks ties. A
    voter's factor is taken as it is placed: one term per earlier
    source, in ascending order.
    """
    waiting = [0] * k
    copiers: dict[int, list[int]] = {}
    for original, copier in edges:
        copiers.setdefault(original, []).append(copier)
        waiting[copier] += 1
    # the first pick is the ready voter in the strongest undirected pair;
    # a ready voter has no original, so its directed partners are its copiers
    top, pick = -1.0, -1
    for i in range(k):
        if not waiting[i]:
            own = copiers.get(i, ())
            for j, number in enumerate(table[i * k : (i + 1) * k]):
                total = totals[number]
                if total > top and j not in own:
                    top, pick = total, i
    if pick < 0:
        return None
    best = [0.0] * k
    placed = [False] * k
    order: list[int] = []
    factors = [1.0] * k
    while True:
        # placed first: its own (sentinel) term multiplies the factor by 1.0
        placed[pick] = True
        order.append(pick)
        factor = 1.0
        top, following = -1.0, -1
        for j, number in enumerate(table[pick * k : (pick + 1) * k]):
            if placed[j]:
                factor *= 1.0 - c * totals[number]
            else:
                score = best[j]
                if totals[number] > score:
                    best[j] = score = totals[number]
                if score > top and not waiting[j]:
                    top, following = score, j
        factors[pick] = factor
        for copier in copiers.get(pick, ()):
            waiting[copier] -= 1
            if not waiting[copier]:
                score = best[copier]
                if score > top or (score == top and copier < following):
                    top, following = score, copier
        if following < 0:
            return (order, factors) if len(order) == k else None
        pick = following


def placement(
    table: array, k: int, links: RoundLinks, c: float
) -> tuple[list[int], list[float]]:
    """Greedy order of a group's k sorted voters and their independence factors.

    ``table`` is the group's table of pair numbers. Returns the placement
    order and the factors by voter index. Directed pairs place the
    original before the copier. The first pick is the source in the
    strongest undirected pair; each later pick has the highest copy
    probability to some already placed source; ties go to the smallest
    source id. If the directed pairs are cyclic, the weakest ones (by
    probability, then pair) are demoted to undirected, as few as break
    every cycle; a binary search over the weakest-first edge list finds
    how many.
    """
    totals, directions = links
    edges: list[tuple[int, int]] = []
    for i in range(k - 1):
        # voters i < j are the pair's first and second source
        for j, number in enumerate(table[i * k + i + 1 : (i + 1) * k], i + 1):
            direction = directions[number]
            if direction:
                edges.append((j, i) if direction == FIRST_COPIES else (i, j))
    placed = _place(table, k, totals, c, edges)
    if placed is not None:
        return placed
    edges.sort(key=lambda edge: (totals[table[edge[0] * k + edge[1]]], edge))
    low, high = 0, len(edges)  # dropping `low` edges is cyclic, `high` is not
    while high - low > 1:
        middle = (low + high) // 2
        if _place(table, k, totals, c, edges[middle:]) is None:
            low = middle
        else:
            high = middle
    return _place(table, k, totals, c, edges[high:])


def value_confidence(
    voters: Set[SourceId] | Iterable[SourceId],
    scores: Mapping[SourceId, float],
    factors: Mapping[SourceId, float],
) -> float:
    """Sum of accuracy scores weighted by independence factors."""
    terms = []
    for source in sorted(set(voters)):
        try:
            terms.append(scores[source] * factors[source])
        except KeyError as exc:
            raise MissingInput(f"no score or factor for source {source!r}") from exc
    return math.fsum(terms)


def discounted_confidences(
    votemap: Mapping[Value, frozenset[SourceId]],
    scores: Mapping[SourceId, float],
    groups: Mapping[frozenset[SourceId], array],
    links: RoundLinks,
    c: float,
) -> dict[Value, float]:
    """Copy-discounted confidence of every value of one object.

    Each value's voter group is ordered on its own, so a vote is only
    discounted against sources asserting the same value; disagreeing
    sources cannot erode it. ``groups`` is ``VoterIndex.groups``; a group
    it does not hold has every factor exactly 1.0, so its confidence is
    the sum of its scores (``fsum`` is exact, so the order of the terms
    does not matter).
    """
    confidences: dict[Value, float] = {}
    for value in sorted(votemap):
        voters = votemap[value]
        table = groups.get(voters)
        try:
            if table is None:
                terms = map(scores.__getitem__, voters)
            else:
                members = sorted(voters)
                _, factors = placement(table, len(members), links, c)
                terms = map(mul, map(scores.__getitem__, members), factors)
            confidences[value] = math.fsum(terms)
        except KeyError as exc:
            raise MissingInput(f"no score for source {exc.args[0]!r}") from exc
    return confidences
