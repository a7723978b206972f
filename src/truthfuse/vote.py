"""Copy-aware voting: discounted value confidence.

Even a copier contributes some independent values, so instead of
dropping suspected copiers we count only the independent fraction of
each vote. The sources voting for one value are placed in a greedy
order (originals before their copiers, strongest dependencies first);
each source's vote is then discounted by the probability that it copied
from some earlier source of the same group. A vote is never discounted
against sources asserting a different value.

The engine indexes each round's copy matrix once (``CopyLinks``), so a
voter group of k sources is ordered and discounted in O(k^2), and a
group with no pair in the matrix skips ordering: every factor is 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Set

from .copydetect import CopyEstimate, CopyMatrix
from .errors import MissingInput
from .model import SourceId, Value


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


class CopyLinks:
    """A copy matrix indexed for voting, built once per round.

    ``partners[s]`` maps every source paired with ``s`` in the matrix to
    the pair's total copy probability, in ascending source id order.
    ``originals[s]`` maps every source that ``s`` is resolved to copy
    from (``classify_direction`` at ``threshold``) to that probability.
    """

    __slots__ = ("partners", "originals")

    def __init__(self, matrix: CopyMatrix, threshold: float):
        partners: dict[SourceId, dict[SourceId, float]] = {}
        originals: dict[SourceId, dict[SourceId, float]] = {}
        # CopyMatrix yields (a, b) with a < b in ascending order, so every
        # partner map fills in ascending id order
        for (a, b), est in matrix.items():
            total = est.total_copy_probability
            partners.setdefault(a, {})[b] = total
            partners.setdefault(b, {})[a] = total
            direction = classify_direction(a, b, est, threshold)
            if direction is not None:
                original, copier = direction
                originals.setdefault(copier, {})[original] = total
        self.partners = partners
        self.originals = originals

    def within(
        self, voters: list[SourceId], members: Set[SourceId]
    ) -> dict[SourceId, dict[SourceId, float]]:
        """Each voter's partners among ``members``, in ascending id order.

        ``voters`` is ``members`` sorted; each voter costs the smaller of
        its partner count and the group size.
        """
        linked: dict[SourceId, dict[SourceId, float]] = {}
        for s in voters:
            partners = self.partners.get(s)
            if not partners:
                linked[s] = {}
            elif len(partners) <= len(voters):
                linked[s] = {q: p for q, p in partners.items() if q in members}
            else:
                linked[s] = {q: partners[q] for q in voters if q in partners}
        return linked


def _place(
    voters: list[SourceId],
    linked: Mapping[SourceId, Mapping[SourceId, float]],
    edges: Iterable[tuple[SourceId, SourceId]],
    c: float,
) -> dict[SourceId, float] | None:
    """One greedy placement under the directed ``edges``; None if cyclic.

    Returns every voter's independence factor, keyed in placement order.
    Each voter waits on a count of unplaced originals (Kahn's algorithm)
    and keeps its score as a running maximum over its placed partners,
    so the placement costs O(k^2) for k voters. A voter's factor is
    taken as it is placed: one term per earlier linked source, in
    ascending id order.
    """
    waiting = dict.fromkeys(voters, 0)
    copiers: dict[SourceId, list[SourceId]] = {}
    for original, copier in edges:
        copiers.setdefault(original, []).append(copier)
        waiting[copier] += 1
    ready = {s for s in voters if not waiting[s]}
    if not ready:
        return None

    def undirected_score(s: SourceId) -> float:
        # a ready voter has no original, so its directed partners are its copiers
        directed = set(copiers.get(s, ()))
        return max(
            (p for q, p in linked[s].items() if q not in directed), default=0.0
        )

    pick = min(ready, key=lambda s: (-undirected_score(s), s))
    best = dict.fromkeys(voters, 0.0)
    factors: dict[SourceId, float] = {}
    while True:
        factor = 1.0
        for q, p in linked[pick].items():
            if q in factors:
                factor *= 1.0 - c * p
            elif p > best[q]:
                best[q] = p
        factors[pick] = factor
        ready.remove(pick)
        for copier in copiers.get(pick, ()):
            waiting[copier] -= 1
            if not waiting[copier]:
                ready.add(copier)
        if not ready:
            return factors if len(factors) == len(voters) else None
        pick = min(ready, key=lambda s: (-best[s], s))


def _ordered_factors(
    voters: list[SourceId],
    linked: Mapping[SourceId, Mapping[SourceId, float]],
    links: CopyLinks,
    c: float,
) -> dict[SourceId, float]:
    """Greedy order of the sorted ``voters`` and their independence factors.

    Directed pairs place the original before the copier. The first pick
    is the source in the strongest undirected pair; each later pick has
    the highest copy probability to some already placed source; ties go
    to the smallest source id. If the directed pairs are cyclic, the
    weakest ones (by probability, then pair) are demoted to undirected,
    as few as break every cycle; a binary search over the weakest-first
    edge list finds how many.
    """
    edges = [(o, s) for s in voters for o in links.originals.get(s, ()) if o in linked]
    factors = _place(voters, linked, edges, c)
    if factors is not None:
        return factors
    edges.sort(key=lambda edge: (links.originals[edge[1]][edge[0]], edge))
    low, high = 0, len(edges)  # dropping `low` edges is cyclic, `high` is not
    while high - low > 1:
        middle = (low + high) // 2
        if _place(voters, linked, edges[middle:], c) is None:
            low = middle
        else:
            high = middle
    return _place(voters, linked, edges[high:], c)


def _group_factors(
    voters: Set[SourceId], links: CopyLinks, c: float
) -> dict[SourceId, float]:
    """Independence factor of every voter of one group, in placement order.

    A voter's factor is the product of 1 - c * (total copy probability)
    over the sources placed before it; unlinked sources contribute
    exactly 1.0, so only linked ones are multiplied in. A group with no
    pair in the matrix skips ordering: every factor is exactly 1.0, in
    ascending id order.
    """
    voter_list = sorted(voters)
    linked = links.within(voter_list, voters)
    if not any(linked.values()):
        return dict.fromkeys(voter_list, 1.0)
    return _ordered_factors(voter_list, linked, links, c)


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
    votemap: Mapping[Value, Set[SourceId]],
    scores: Mapping[SourceId, float],
    links: CopyLinks,
    c: float,
) -> dict[Value, float]:
    """Copy-discounted confidence of every value of one object.

    Each value's voter group is ordered on its own, so a vote is only
    discounted against sources asserting the same value; disagreeing
    sources cannot erode it. ``links`` is the round's copy matrix,
    indexed once by the engine.
    """
    return {
        value: value_confidence(
            votemap[value], scores, _group_factors(votemap[value], links, c)
        )
        for value in sorted(votemap)
    }
