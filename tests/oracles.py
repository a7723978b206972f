"""Reference implementations the optimised code is checked against.

These are the straightforward versions of the voter ordering, the
independence factor, copy-discounted voting and the oscillation pick
that ``truthfuse.vote`` and ``truthfuse.engine`` once shipped, before
voting placed each group on integer indices (``truthfuse.vote.placement``
over a ``LinkedGroup`` table): the ordering rescans every candidate
against every placed source (O(k^3) per voter group), each factor is
looked up pair by pair in a dict of the round's estimates keyed by
(a, b), a < b (``dict(matrix.items())``), each group's confidence is
summed by ``value_confidence``, and the pick keeps every round's
state. The one-pair copy
classifiers ``pair_observation`` and ``initial_copy_posterior`` are the
ones ``truthfuse.copydetect`` shipped before copy detection read the
dataset's agreement index: they walk a pair's shared objects on every
call, and are the reference for ``detect_all`` and
``initial_copy_matrix``, which no longer have one-pair entry points.
``copy_posterior`` is the dependence posterior as ``truthfuse.copydetect``
shipped it before it shared one arithmetic path with ``detect_all``: it
writes out the per-object class probabilities (``class_probabilities``,
not the shipped formulas) for both directions and sums
``scaled_exponent`` terms.
``full_tables`` indexes every voter of a group, as ``link_groups`` did
before it kept only a group's linked voters. ``plain_run`` is
``truthfuse.engine.run`` as shipped before it jumped accuracies with
Aitken's process: every round starts from the previous round's output,
and every state is kept for the oscillation pick.
``posterior_from_confidences``, ``select_truth`` and
``source_accuracy`` are the per-object posterior,
truth pick and per-source accuracy update as ``truthfuse.accuracy``
shipped them before a round laid its probabilities out in claim slots
(``Dataset.source_slots``): the posterior sorts its confidences, the pick
compares (-confidence, value) keys, and the update re-sorts a source's
claims and looks each posterior up by name.
The package no longer has dict-form twins of its list helpers, so these
dict forms are the references for them: ``posterior_from_confidences``
for ``truthfuse.accuracy.normalize_confidences``, ``select_truth`` for
``truthfuse.accuracy.truth_index`` over sorted values, and
``discounted_confidences`` for ``truthfuse.vote.discount_votes``.
``normalize_author_list`` is ``truthfuse.ingest``'s author-list
normalizer as shipped before it took fast paths: it composes every
value (NFC), runs the "and" split on every segment and lower-cases and
trims every token of a name, middle ones included. ``copy_direction``
decides a pair's copy direction by name, as ``truthfuse.vote`` once
did, and is the reference for ``CopyMatrix.links``' direction codes.
Tests assert that the shipped code returns identical results (``==``,
not approx).
"""

from __future__ import annotations

import math
import re
import unicodedata
from array import array
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass

from truthfuse.accuracy import DEFAULT_ACCURACY_CLAMP, ValuePosterior, clamp_accuracy
from truthfuse.copydetect import CopyEstimate, _posterior_from_log_likelihoods, safe_log
from truthfuse.engine import (
    FusionReport,
    FusionState,
    ModelVariant,
    Termination,
    _cycle_start,
    _largest_change,
    _round_ops,
    check_termination,
    initial_state,
    step_round,
)
from truthfuse.errors import DomainOverflow, EmptySource, MissingInput, MissingTruth, NoValues
from truthfuse.model import Dataset, FusionConfig, ObjectId, SourceId, Value

# one round's copy estimates by name: dict(matrix.items()), keys (a, b) with a < b
Estimates = Mapping[tuple[SourceId, SourceId], CopyEstimate]


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


def copy_direction(
    a: SourceId, b: SourceId, est: CopyEstimate, threshold: float
) -> tuple[SourceId, SourceId] | None:
    """(original, copier) of pair (a, b) when one direction holds more than
    ``threshold`` of its total copy probability, else None."""
    total = est.first_copies_second + est.second_copies_first
    if est.first_copies_second > threshold * total:
        return b, a
    if est.second_copies_first > threshold * total:
        return a, b
    return None


def order_sources(
    voters: Set[SourceId] | Iterable[SourceId],
    estimates: Estimates,
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
            est = estimates.get((a, b))
            if est is None:
                continue
            copy_prob[(a, b)] = est.total_copy_probability
            direction = copy_direction(a, b, est, threshold)
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
    estimates: Estimates,
    c: float,
) -> float:
    """Probability that ``source`` voted independently of all earlier sources.

    Each earlier source contributes the factor
    1 - c * (total copy probability of the pair); pairs absent from
    ``estimates`` count as independent and contribute 1.
    """
    factor = 1.0
    for earlier in sorted(set(pre)):
        est = estimates.get((source, earlier) if source < earlier else (earlier, source))
        total = est.total_copy_probability if est is not None else 0.0
        factor *= 1.0 - c * total
    return factor


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
    estimates: Estimates,
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
        ordering = order_sources(group, estimates, threshold)
        factors = {
            s: independence_factor(s, ordering.pre_sets[s], estimates, c)
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
    start = max(i for i in range(len(states) - 1) if states[i].truths == last.truths)
    cycle = states[start : len(states) - 1]
    best = cycle[0]
    best_score = total_truth_confidence(best)
    for candidate in cycle[1:]:
        score = total_truth_confidence(candidate)
        if score >= best_score:
            best, best_score = candidate, score
    return best


def plain_run(dataset: Dataset, variant: ModelVariant, config: FusionConfig) -> FusionReport:
    """The plain ``step_round`` loop, ended by ``check_termination``.

    An oscillation reports the cycle member (from ``_cycle_start`` up to
    the round before the latest) with the highest total truth
    confidence, ties to the later round.
    """
    # round 0's state, then every round's output
    states = [initial_state(dataset, config)]
    history: list[tuple[tuple[Value, ...], float]] = []
    trajectory: list[float] = []
    while True:
        state = states[-1]
        current = step_round(state, dataset, variant, config)
        delta = _largest_change(current.accuracies, state.accuracies)
        trajectory.append(delta)
        cycle_delta = math.inf
        if variant.updates_accuracy:
            stability = delta
            if len(states) >= 2:
                cycle_delta = _largest_change(current.accuracies, states[-2].accuracies)
        else:
            stability = 0.0 if current.truths == state.truths else 1.0
        history.append((tuple(current.truths.values()), stability))
        states.append(current)
        verdict = (
            Termination.CONVERGED
            if variant in (ModelVariant.VOTE, ModelVariant.SIM)
            else check_termination(history, config, cycle_delta)
        )
        if verdict is not Termination.CONTINUE:
            break
    reported = current
    if verdict is Termination.OSCILLATION:
        # history index i is the output of round i + 1, states[i + 1]
        cycle = states[_cycle_start(history, config, cycle_delta) + 1 : -1]
        reported = cycle[0]
        for candidate in cycle[1:]:
            if total_truth_confidence(candidate) >= total_truth_confidence(reported):
                reported = candidate
    return FusionReport(
        state=reported,
        rounds_run=len(history),
        termination=verdict,
        accuracy_trajectory=tuple(trajectory),
        ops_count=_round_ops(dataset, config, variant) * len(history),
    )


def pair_observation(
    dataset: Dataset,
    truths: Mapping[ObjectId, Value],
    s1: SourceId,
    s2: SourceId,
) -> tuple[int, int, int]:
    """A pair's (same true, same false, different) counts against the truths."""
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
    return same_true, same_false, different


def scaled_exponent(count: float, probability: float) -> float:
    """count * log(probability) with the 0 * log(0) = 0 convention."""
    if count == 0.0:
        return 0.0
    return count * safe_log(probability)


def class_probabilities(
    original: float, copier: float, n: int, c: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Pr(same true), Pr(same false), Pr(different) on one shared object.

    The first triple is for independent sources, the second for
    ``copier`` copying from ``original``. Independent sources agree on
    the truth with probability A1*A2 and on any one of the n false values
    with probability (1-A1)(1-A2)/n. A copier repeats its original's
    value with probability c and otherwise behaves independently.
    """
    true_indep = original * copier
    false_indep = (1.0 - original) * (1.0 - copier) / n
    different_indep = 1.0 - true_indep - false_indep
    copied = (
        original * c + true_indep * (1.0 - c),
        (1.0 - original) * c + false_indep * (1.0 - c),
        different_indep * (1.0 - c),
    )
    return (true_indep, false_indep, different_indep), copied


def copy_posterior(
    counts: tuple[float, float, float], a1: float, a2: float, config: FusionConfig
) -> CopyEstimate:
    """Posterior dependence probabilities from (same true, same false, different) counts."""
    if counts == (0, 0, 0):
        half = (1.0 - config.alpha) / 2.0
        return CopyEstimate(config.alpha, half, half)
    indep, second_copies = class_probabilities(a1, a2, config.n, config.c)
    # first copies from second: the second source is the original
    _, first_copies = class_probabilities(a2, a1, config.n, config.c)

    def log_likelihood(classes: tuple[float, float, float]) -> float:
        return (
            scaled_exponent(counts[0], classes[0])
            + scaled_exponent(counts[1], classes[1])
            + scaled_exponent(counts[2], classes[2])
        )

    return _posterior_from_log_likelihoods(
        log_likelihood(indep),
        log_likelihood(first_copies),
        log_likelihood(second_copies),
        config.alpha,
    )


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
    to every hypothesis H, in sorted object order; then the differing
    objects contribute their count times the log of their different-value
    probability, when there are any. Accuracies are the uniform starting
    value 1 - eps.
    """
    a = clamp_accuracy(config.initial_accuracy, config.accuracy_clamp)
    (true_indep, false_indep, different_indep), (true_copied, false_copied, different_copied) = (
        class_probabilities(a, a, config.n, config.c)
    )
    claims1 = dataset.by_source.get(s1, {})
    claims2 = dataset.by_source.get(s2, {})
    if len(claims2) < len(claims1):
        claims1, claims2 = claims2, claims1
    log_indep = log_copy = 0.0
    shared = different = 0
    for obj in sorted(claims1):
        v2 = claims2.get(obj)
        if v2 is None:
            continue
        shared += 1
        v1 = claims1[obj]
        if v1 != v2:
            different += 1
            continue
        posterior = posteriors.get(obj)
        if posterior is None or v1 not in posterior.probabilities:
            raise MissingTruth(f"no round-zero posterior for {v1!r} of {obj!r}")
        p_true = posterior.probability(v1)
        log_indep += safe_log(p_true * true_indep + (1.0 - p_true) * false_indep)
        log_copy += safe_log(p_true * true_copied + (1.0 - p_true) * false_copied)
    if shared == 0:
        half = (1.0 - config.alpha) / 2.0
        return CopyEstimate(config.alpha, half, half)
    if different:
        log_indep += different * safe_log(different_indep)
        log_copy += different * safe_log(different_copied)
    # uniform starting accuracies make both copy directions equally likely
    return _posterior_from_log_likelihoods(
        log_indep, log_copy, log_copy, config.alpha
    )


def full_tables(
    voters: Mapping[ObjectId, Mapping[Value, frozenset[SourceId]]],
    pairs: Sequence[tuple[SourceId, SourceId]],
) -> dict[frozenset[SourceId], array]:
    """The k x k table of pair numbers of every voter group holding a pair.

    For a group's k voters in sorted order, [i * k + j] holds the number
    (position in ``pairs``) of the pair of voters i and j, or the
    sentinel len(pairs) where the two are no pair.
    """
    sentinel = len(pairs)
    number = {pair: n for n, pair in enumerate(pairs)}
    tables: dict[frozenset[SourceId], array] = {}
    for votemap in voters.values():
        for group in votemap.values():
            members = sorted(group)
            cells = [number.get((min(a, b), max(a, b)), sentinel) for a in members for b in members]
            if any(cell != sentinel for cell in cells):
                tables[group] = array("i", cells)
    return tables


def domain_posteriors(
    confidences: Mapping[str, float], n: int
) -> tuple[dict[str, float], float]:
    """Posterior over the n+1-value domain, computed over the sorted confidences."""
    k = len(confidences)
    free = (n + 1) - k
    if free < 0:
        raise ValueError(f"{k} asserted values exceed domain size {n + 1}")
    items = sorted(confidences.items())
    m = max((c for _, c in items), default=0.0)
    if free > 0:
        m = max(m, 0.0)
    exps = [(v, math.exp(c - m)) for v, c in items]
    unasserted = math.exp(-m) if free > 0 else 0.0
    total = math.fsum(e for _, e in exps) + free * unasserted
    probs = {v: e / total for v, e in exps}
    return probs, (unasserted / total if free > 0 else 0.0)


def posterior_from_confidences(
    confidences: Mapping[Value, float], n: int, obj: ObjectId | None = None
) -> ValuePosterior:
    """Normalize value confidences over the n+1-value domain, in sorted value order."""
    if len(confidences) > n + 1:
        raise DomainOverflow(f"{len(confidences)} distinct values asserted for {obj!r}")
    probs, unasserted = domain_posteriors(confidences, n)
    return ValuePosterior(dict(sorted(confidences.items())), probs, unasserted, n)


def select_truth(posterior: ValuePosterior) -> Value:
    """The asserted value with the highest confidence, ties to the smallest value."""
    if not posterior.confidences:
        raise NoValues("no asserted values to select from")
    return min(posterior.confidences.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def source_accuracy(
    source: SourceId,
    dataset: Dataset,
    posteriors: Mapping[ObjectId, ValuePosterior],
    clamp: float = DEFAULT_ACCURACY_CLAMP,
) -> float:
    """Mean truth probability of the source's values, clamped."""
    claims = dataset.by_source.get(source)
    if not claims:
        raise EmptySource(f"source {source!r} provides no values")
    total = []
    for obj, value in sorted(claims.items()):
        posterior = posteriors.get(obj)
        if posterior is None:
            raise MissingInput(f"no posterior for object {obj!r}")
        total.append(posterior.probability(value))
    return clamp_accuracy(math.fsum(total) / len(total), clamp)


_AND_SPLIT = re.compile(r"\s*\band\b\s*", re.IGNORECASE)
# what str.isalnum rejects, of any script
_EDGE_PUNCT = re.compile(r"^[\W_]+|[\W_]+$")


def _clean_token(token: str) -> str:
    return _EDGE_PUNCT.sub("", token.lower())


def _comma_groups(part: str) -> list[str]:
    if "," not in part:
        return [part]
    pieces = [p.strip() for p in part.split(",") if p.strip()]
    if len(pieces) == 2 and len(pieces[0].split()) == 1:
        return [f"{pieces[1]} {pieces[0]}"]
    return pieces


def _normalize_author(group: str) -> str:
    tokens = [t for t in (_clean_token(tok) for tok in group.split()) if t]
    if not tokens:
        return ""
    if len(tokens) == 1:
        return tokens[0]
    return f"{tokens[0]} {tokens[-1]}"


def normalize_author_list(raw: str) -> Value:
    """Canonical ``first last; first last; ...`` form of an author list."""
    text = " ".join(unicodedata.normalize("NFC", raw).split())
    if not text:
        return ""
    groups: list[str] = []
    for segment in text.split(";"):
        for part in _AND_SPLIT.split(segment):
            part = part.strip().strip(",").strip()
            if part:
                groups.extend(_comma_groups(part))
    authors = [a for a in (_normalize_author(g) for g in groups) if a]
    return "; ".join(authors)
