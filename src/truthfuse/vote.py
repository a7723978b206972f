"""Copy-aware voting: discounted value confidence.

Even a copier contributes some independent values, so instead of
dropping suspected copiers we count only the independent fraction of
each vote. The sources voting for one value are placed in a greedy
order (originals before their copiers, strongest dependencies first);
each source's vote is then discounted by the probability that it copied
from some earlier source of the same group. A vote is never discounted
against sources asserting a different value.

Which pairs of a voter group the copy matrix holds never changes: the
engine's matrix always holds one estimate per eligible pair of the
dataset, by position in ``Dataset.pair_agreements``, and only their
totals and directions move from round to round. So the groups are
indexed once per dataset, in the pair index that holds the pairs'
agreements for copy detection (after Li, Dong, Lyons, Meng & Srivastava,
"Scaling up copy detection", ICDE 2015), and each round reads the matrix
once into per-pair totals and directions (``read_links``).

Only a group's linked voters, those forming an eligible pair with
another voter of the group, are placed. An unlinked voter's factor is
exactly 1.0, and it changes no other voter's factor or relative order;
its only effect on a placement is terms of 1.0 and ties at score 0.0.
So the pair index's ``groups`` (``PairAgreements.groups``) keep, for
each group holding an eligible pair, its k' linked voters with one flat
k' x k' table of pair numbers, and its unlinked voters apart. A group is
ordered and discounted in O(k'^2) on integer indices, and its unlinked
voters' scores are summed in full; a group with no eligible pair skips
ordering, and its confidence is the sum of its voters' scores.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping, Sequence
from itertools import chain
from operator import mul
from typing import NamedTuple

from .copydetect import CopyEstimate, CopyMatrix
from .errors import InvalidParameter, MissingInput
from .model import FusionConfig, LinkedGroup, SourceId, Value

# how read_links records a pair (a, b): undirected, a copies b, b copies a
UNDIRECTED, FIRST_COPIES, SECOND_COPIES = 0, 1, 2


def classify_direction(
    s1: SourceId,
    s2: SourceId,
    estimate: CopyEstimate,
    threshold: float = FusionConfig.direction_threshold,
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


def read_directions(matrix: CopyMatrix, threshold: float) -> bytearray:
    """Each pair's ``classify_direction`` verdict in pair order, as a ``RoundLinks`` code."""
    directions = bytearray()
    for (a, b), estimate in matrix.items():
        direction = classify_direction(a, b, estimate, threshold)
        if direction is None:
            directions.append(UNDIRECTED)
        else:
            directions.append(FIRST_COPIES if direction[1] == a else SECOND_COPIES)
    return directions


def read_links(
    matrix: CopyMatrix,
    pairs: tuple[tuple[SourceId, SourceId], ...],
    threshold: float,
) -> RoundLinks:
    """Read ``matrix`` in pair order; it must hold exactly ``pairs``.

    The engine's matrix holds the index's own pair tuple, so one
    comparison checks every pair.
    """
    if matrix.pairs != pairs:
        raise InvalidParameter(
            f"copy matrix pairs differ from the index's {len(pairs)} pairs"
        )
    totals = [estimate.total_copy_probability for estimate in matrix.estimates]
    directions = read_directions(matrix, threshold)
    totals.append(0.0)
    directions.append(UNDIRECTED)
    return RoundLinks(totals, directions)


def _place(
    table: array,
    k: int,
    totals: Sequence[float],
    directions: Sequence[int],
    c: float,
) -> tuple[list[int], list[float]] | None:
    """One greedy placement under the directed pairs of ``directions``; None if cyclic.

    Returns the placement order and every voter's independence factor.
    One scan of the upper triangle finds each voter's unplaced originals
    (Kahn's algorithm) and strongest undirected total. Each voter keeps
    its score as a running maximum over its placed partners, so the
    placement costs O(k^2) for k voters. The next pick is found in the
    same pass over the placed voter's row: the first strict maximum is
    the smallest index, as the id order breaks ties. A voter's factor is
    taken as it is placed: one term per earlier source, in ascending order.
    """
    waiting = [0] * k
    copiers: dict[int, list[int]] = {}
    strongest = [0.0] * k
    for i in range(k - 1):
        # voters i < j are the pair's first and second source
        for j, number in enumerate(table[i * k + i + 1 : (i + 1) * k], i + 1):
            direction = directions[number]
            if direction == UNDIRECTED:
                total = totals[number]
                if total > strongest[i]:
                    strongest[i] = total
                if total > strongest[j]:
                    strongest[j] = total
            elif direction == FIRST_COPIES:
                copiers.setdefault(j, []).append(i)
                waiting[i] += 1
            else:
                copiers.setdefault(i, []).append(j)
                waiting[j] += 1
    # the first pick is the smallest ready voter in the strongest undirected pair
    top, pick = -1.0, -1
    for i, total in enumerate(strongest):
        if total > top and not waiting[i]:
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
    """Greedy order of k sorted voters and their independence factors.

    ``table`` is the voters' k x k table of pair numbers, as a
    ``LinkedGroup`` holds for its linked voters. Returns the placement
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
    placed = _place(table, k, totals, directions, c)
    if placed is not None:
        return placed
    # (original, copier) of each directed pair, weakest first
    edges: list[tuple[int, int]] = []
    for i in range(k - 1):
        for j, number in enumerate(table[i * k + i + 1 : (i + 1) * k], i + 1):
            direction = directions[number]
            if direction:
                edges.append((j, i) if direction == FIRST_COPIES else (i, j))
    edges.sort(key=lambda edge: (totals[table[edge[0] * k + edge[1]]], edge))

    def demoting(weakest: int) -> tuple[list[int], list[float]] | None:
        demoted = bytearray(directions)
        for original, copier in edges[:weakest]:
            demoted[table[original * k + copier]] = UNDIRECTED
        return _place(table, k, totals, demoted, c)

    low, high = 0, len(edges)  # demoting `low` edges is cyclic, `high` is not
    while high - low > 1:
        middle = (low + high) // 2
        if demoting(middle) is None:
            low = middle
        else:
            high = middle
    return demoting(high)


def discount_votes(
    votemap: Mapping[Value, frozenset[SourceId]],
    scores: Mapping[SourceId, float],
    groups: Mapping[frozenset[SourceId], LinkedGroup],
    links: RoundLinks,
    c: float,
) -> list[float]:
    """Copy-discounted confidence of every value of one object, in ``votemap`` order.

    Each value's voter group is ordered on its own, so a vote is only
    discounted against sources asserting the same value; disagreeing
    sources cannot erode it. ``groups`` is ``PairAgreements.groups``. Only a
    group's linked voters are placed; every other voter, and every voter
    of a group it does not hold, has factor exactly 1.0, so its score
    enters the sum in full (``fsum`` is exact, so the order of the terms
    does not matter).
    """
    confidences: list[float] = []
    score = scores.__getitem__
    for voters in votemap.values():
        group = groups.get(voters)
        try:
            if group is None:
                terms = map(score, voters)
            else:
                linked, unlinked, table = group
                _, factors = placement(table, len(linked), links, c)
                terms = chain(map(mul, map(score, linked), factors), map(score, unlinked))
            confidences.append(math.fsum(terms))
        except KeyError as exc:
            raise MissingInput(f"no score for source {exc.args[0]!r}") from exc
    return confidences
