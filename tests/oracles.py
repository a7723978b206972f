"""Reference implementations the optimised code is checked against.

These are the straightforward versions of the voter ordering, the
independence factor, copy-discounted voting and the oscillation pick
that ``truthfuse.vote`` and ``truthfuse.engine`` once shipped, before
voting became one routine (``truthfuse.vote._group_factors``): the
ordering rescans every candidate against every placed source (O(k^3)
per voter group), each factor is looked up pair by pair in the copy
matrix, and the pick keeps every round's state. Tests assert that the
shipped code returns identical results (``==``, not approx).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass

from truthfuse.copydetect import CopyMatrix
from truthfuse.engine import FusionState
from truthfuse.model import SourceId, Value
from truthfuse.vote import classify_direction, value_confidence


@dataclass(frozen=True)
class SourceOrdering:
    """A voter order with, per source, the set of sources placed before it."""

    order: tuple[SourceId, ...]
    pre_sets: Mapping[SourceId, frozenset[SourceId]]


def greedy_order(
    voters: list[SourceId],
    directed: dict[tuple[SourceId, SourceId], float],
    copy_prob: dict[tuple[SourceId, SourceId], float],
) -> list[SourceId] | None:
    """Kahn-style placement; None when the directed edges are cyclic.

    Ties are broken by ascending source id everywhere, so the order is
    a deterministic function of its inputs.
    """
    blockers: dict[SourceId, set[SourceId]] = {s: set() for s in voters}
    for original, copier in directed:
        blockers[copier].add(original)
    placed: list[SourceId] = []
    placed_set: set[SourceId] = set()
    remaining = set(voters)
    while remaining:
        candidates = sorted(
            s for s in remaining if blockers[s] <= placed_set
        )
        if not candidates:
            return None
        if placed:
            # strongest dependency with an already placed source first
            def score(s: SourceId) -> float:
                return max(
                    (
                        copy_prob.get((min(s, p), max(s, p)), 0.0)
                        for p in placed
                    ),
                    default=0.0,
                )
        else:
            # start from the strongest undirected dependency overall
            def score(s: SourceId) -> float:
                return max(
                    (
                        prob
                        for (a, b), prob in copy_prob.items()
                        if (a == s or b == s) and (a, b) not in directed
                        and (b, a) not in directed
                    ),
                    default=0.0,
                )
        best = min(candidates, key=lambda s: (-score(s), s))
        placed.append(best)
        placed_set.add(best)
        remaining.remove(best)
    return placed


def order_sources(
    voters: Set[SourceId] | Iterable[SourceId],
    matrix: CopyMatrix,
    threshold: float = 2.0 / 3.0,
) -> SourceOrdering:
    """Greedy voter ordering honoring resolved copy directions.

    Directed pairs place the original before the copier. Among the
    remaining freedom the first pick is the source in the strongest
    undirected pair, and each later pick maximizes the copy probability
    to some already placed source. If the directed constraints are
    cyclic, the weakest directed edge is demoted to undirected and
    placement retries; demotion removes one edge per attempt, so the
    loop always terminates.
    """
    voter_list = sorted(set(voters))
    directed: dict[tuple[SourceId, SourceId], float] = {}
    copy_prob: dict[tuple[SourceId, SourceId], float] = {}
    for i, a in enumerate(voter_list):
        for b in voter_list[i + 1 :]:
            est = matrix.get(a, b)
            if est is None:
                continue
            copy_prob[(a, b)] = est.total_copy_probability
            direction = classify_direction(a, b, est, threshold)
            if direction is not None:
                directed[direction] = est.total_copy_probability

    for _ in range(len(directed) + 1):
        order = greedy_order(voter_list, directed, copy_prob)
        if order is not None:
            pre_sets = {
                s: frozenset(order[:i]) for i, s in enumerate(order)
            }
            return SourceOrdering(tuple(order), pre_sets)
        weakest = min(directed.items(), key=lambda kv: (kv[1], kv[0]))[0]
        del directed[weakest]
    # unreachable: with every directed edge demoted, placement cannot fail
    raise AssertionError(f"could not break direction cycle among {voter_list!r}")


def independence_factor(
    source: SourceId,
    pre: Set[SourceId] | Iterable[SourceId],
    matrix: CopyMatrix,
    c: float,
) -> float:
    """Probability that ``source`` voted independently of all earlier sources.

    Each earlier source contributes the factor
    1 - c * (total copy probability of the pair); pairs absent from the
    matrix contribute 1.
    """
    factor = 1.0
    for earlier in sorted(set(pre)):
        factor *= 1.0 - c * matrix.total_copy_probability(source, earlier)
    return factor


def discounted_confidences(
    votemap: Mapping[Value, Set[SourceId]],
    scores: Mapping[SourceId, float],
    matrix: CopyMatrix,
    c: float,
    threshold: float,
) -> dict[Value, float]:
    """Copy-discounted confidence of every value of one object.

    Each value's voter group is ordered on its own, so a vote is only
    discounted against sources asserting the same value.
    """
    confidences: dict[Value, float] = {}
    for value in sorted(votemap):
        group = votemap[value]
        ordering = order_sources(group, matrix, threshold)
        factors = {
            s: independence_factor(s, ordering.pre_sets[s], matrix, c)
            for s in ordering.order
        }
        confidences[value] = value_confidence(group, scores, factors)
    return confidences


def total_truth_confidence(state: FusionState) -> float:
    return math.fsum(
        state.posteriors[obj].confidence(value)
        for obj, value in sorted(state.truths.items())
    )


def best_cycle_state(states: list[FusionState]) -> FusionState:
    """The cycle member with the highest total truth confidence.

    Called when the latest state's truths revisit an earlier round's;
    the cycle spans that earlier round through the round before the
    revisit. Confidence ties go to the later round, whose accuracy
    estimates have seen more rounds of refinement.
    """
    last = states[-1]
    start = max(
        i for i in range(len(states) - 1) if states[i].fingerprint == last.fingerprint
    )
    cycle = states[start : len(states) - 1]
    best = cycle[0]
    best_score = total_truth_confidence(best)
    for candidate in cycle[1:]:
        score = total_truth_confidence(candidate)
        if score >= best_score:
            best, best_score = candidate, score
    return best
