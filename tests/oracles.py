"""Reference implementations the optimised code is checked against.

These are the straightforward versions of the voter ordering, the
independence factor, copy-discounted voting and the oscillation pick
that ``truthfuse.vote`` and ``truthfuse.engine`` once shipped, before
voting became one routine (``truthfuse.vote._group_factors``): the
ordering rescans every candidate against every placed source (O(k^3)
per voter group), each factor is looked up pair by pair in the copy
matrix, and the pick keeps every round's state. The pair classifiers
are the ones ``truthfuse.copydetect`` shipped before copy detection
read the dataset's agreement index: they walk a pair's shared objects
on every call. Tests assert that the shipped code returns identical
results (``==``, not approx).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass

from truthfuse.accuracy import ValuePosterior, clamp_accuracy
from truthfuse.copydetect import (
    CopyEstimate,
    CopyMatrix,
    PairObservation,
    _posterior_from_log_likelihoods,
    _prior_estimate,
    conditional_pair_probs,
)
from truthfuse.engine import FusionState
from truthfuse.errors import MissingTruth
from truthfuse.logspace import safe_log
from truthfuse.model import Dataset, FusionConfig, ObjectId, SourceId, Value
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


def pair_observation(
    dataset: Dataset,
    truths: Mapping[ObjectId, Value],
    s1: SourceId,
    s2: SourceId,
) -> PairObservation:
    """Classify every commonly asserted object of a pair against the truths."""
    claims1 = dataset.by_source.get(s1, {})
    claims2 = dataset.by_source.get(s2, {})
    if len(claims2) < len(claims1):
        claims1, claims2 = claims2, claims1
    same_true = same_false = different = 0
    for obj, v1 in claims1.items():
        v2 = claims2.get(obj)
        if v2 is None:
            continue
        if v1 != v2:
            different += 1
            continue
        truth = truths.get(obj)
        if truth is None:
            raise MissingTruth(f"no truth for commonly asserted object {obj!r}")
        if v1 == truth:
            same_true += 1
        else:
            same_false += 1
    return PairObservation(same_true, same_false, different)


def initial_copy_posterior(
    dataset: Dataset,
    posteriors: Mapping[ObjectId, ValuePosterior],
    s1: SourceId,
    s2: SourceId,
    config: FusionConfig,
) -> CopyEstimate:
    """Round-zero dependence posterior, before any truth is selected.

    With no decided truths yet, a shared value v is true with its
    current posterior probability, so each same-value object contributes
    the mixture P(v) * Pr(same-true | H) + (1 - P(v)) * Pr(same-false | H)
    to every hypothesis H; differing objects contribute their
    different-value probability as usual. Accuracies are the uniform
    starting value 1 - eps.
    """
    a = clamp_accuracy(config.initial_accuracy, config.accuracy_clamp)
    cond = conditional_pair_probs(a, a, config.n, config.c)
    claims1 = dataset.by_source.get(s1, {})
    claims2 = dataset.by_source.get(s2, {})
    if len(claims2) < len(claims1):
        claims1, claims2 = claims2, claims1
    log_indep = log_copy = 0.0
    shared = 0
    for obj in sorted(claims1):
        v2 = claims2.get(obj)
        if v2 is None:
            continue
        shared += 1
        v1 = claims1[obj]
        if v1 != v2:
            log_indep += safe_log(cond.different_indep)
            log_copy += safe_log(cond.different_copied)
            continue
        posterior = posteriors.get(obj)
        if posterior is None or v1 not in posterior.probabilities:
            raise MissingTruth(f"no round-zero posterior for {v1!r} of {obj!r}")
        p_true = posterior.probability(v1)
        log_indep += safe_log(
            p_true * cond.same_true_indep + (1.0 - p_true) * cond.same_false_indep
        )
        log_copy += safe_log(
            p_true * cond.same_true_copied + (1.0 - p_true) * cond.same_false_copied
        )
    if shared == 0:
        return _prior_estimate(config.alpha)
    # uniform starting accuracies make both copy directions equally likely
    return _posterior_from_log_likelihoods(
        log_indep, log_copy, log_copy, config.alpha
    )
