"""Bayesian pairwise copy detection.

Two sources sharing a false value is a low-probability event when they
are independent, so the balance of shared-true / shared-false /
differing objects carries evidence about copying. For each unordered
pair this module computes the posterior over three hypotheses
(independent, first-copies-second, second-copies-first) from the
per-object conditional probabilities of those three observation
classes. Likelihoods are products over objects, evaluated as sums of
logs. Round zero has no selected truths yet and weighs each shared
value by its posterior probability (``initial_copy_matrix``); later
rounds classify shared values against the truths (``detect_all``).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from .accuracy import SourceAccuracy, ValuePosterior, clamp_accuracy
from .errors import InvalidParameter, MissingTruth
from .logspace import normalize_log_weights, safe_log, scaled_exponent
from .model import Dataset, FusionConfig, ObjectId, SourceId, Value


@dataclass(frozen=True)
class PairObservation:
    """Counts of commonly asserted objects, split by agreement class.

    same_true: both sources assert the selected truth.
    same_false: both assert an identical value that is not the truth.
    different: the two assert different values.

    Counts are reals, so expected (fractional) counts are accepted.
    """

    same_true: float
    same_false: float
    different: float

    def __post_init__(self) -> None:
        if self.same_true < 0 or self.same_false < 0 or self.different < 0:
            raise InvalidParameter(f"negative observation counts: {self}")

    @property
    def is_empty(self) -> bool:
        return self.same_true == 0 and self.same_false == 0 and self.different == 0


@dataclass(frozen=True)
class CopyEstimate:
    """Posterior over the three dependence hypotheses of one pair.

    ``first_copies_second`` is the probability that the first source of
    the pair copies from the second; the three components sum to one.
    """

    independent: float
    first_copies_second: float
    second_copies_first: float

    @property
    def total_copy_probability(self) -> float:
        return self.first_copies_second + self.second_copies_first

    def swapped(self) -> "CopyEstimate":
        return CopyEstimate(
            self.independent, self.second_copies_first, self.first_copies_second
        )


class CopyMatrix:
    """Copy estimates for every eligible unordered source pair.

    Internally keyed by (a, b) with a < b and oriented so that
    ``first_copies_second`` means "a copies from b"; lookups with the
    arguments swapped return the direction-swapped record.
    """

    __slots__ = ("_estimates",)

    def __init__(self, estimates: Mapping[tuple[SourceId, SourceId], CopyEstimate]):
        self._estimates = dict(sorted(estimates.items()))

    def __len__(self) -> int:
        return len(self._estimates)

    def __contains__(self, pair: tuple[SourceId, SourceId]) -> bool:
        a, b = pair
        return (a, b) in self._estimates or (b, a) in self._estimates

    def get(self, s1: SourceId, s2: SourceId) -> CopyEstimate | None:
        est = self._estimates.get((s1, s2))
        if est is not None:
            return est
        est = self._estimates.get((s2, s1))
        return est.swapped() if est is not None else None

    def total_copy_probability(self, s1: SourceId, s2: SourceId) -> float:
        """Total copy probability of a pair; absent pairs count as independent."""
        est = self._estimates.get((s1, s2)) or self._estimates.get((s2, s1))
        return est.total_copy_probability if est is not None else 0.0

    def pairs(self) -> tuple[tuple[SourceId, SourceId], ...]:
        return tuple(self._estimates)

    def items(self):
        return self._estimates.items()


EMPTY_COPY_MATRIX = CopyMatrix({})


@dataclass(frozen=True)
class PairConditionals:
    """Per-object probabilities of the three observation classes.

    The ``*_indep`` fields condition on independence; the ``*_copied``
    fields condition on the second source copying from the first, so
    the first argument of conditional_pair_probs plays the original.
    Swapping the accuracy arguments yields the opposite direction.
    """

    same_true_indep: float
    same_false_indep: float
    different_indep: float
    same_true_copied: float
    same_false_copied: float
    different_copied: float


def conditional_pair_probs(a1: float, a2: float, n: int, c: float) -> PairConditionals:
    """Observation-class probabilities under independence and copying.

    Independent sources agree on the truth with probability A1*A2 and on
    any one of the n false values with probability (1-A1)(1-A2)/n. A
    copier repeats the original's value with probability c, in which
    case agreement is certain and the shared value is true exactly when
    the original is right; with probability 1-c it behaves
    independently.
    """
    if not 0.0 < a1 < 1.0 or not 0.0 < a2 < 1.0:
        raise InvalidParameter(f"accuracies must be in (0, 1), got {a1!r}, {a2!r}")
    if not 0.0 < c <= 1.0:
        raise InvalidParameter(f"c must be in (0, 1], got {c!r}")
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n!r}")
    same_true_indep = a1 * a2
    same_false_indep = (1.0 - a1) * (1.0 - a2) / n
    different_indep = 1.0 - same_true_indep - same_false_indep
    return PairConditionals(
        same_true_indep=same_true_indep,
        same_false_indep=same_false_indep,
        different_indep=different_indep,
        same_true_copied=a1 * c + same_true_indep * (1.0 - c),
        same_false_copied=(1.0 - a1) * c + same_false_indep * (1.0 - c),
        different_copied=different_indep * (1.0 - c),
    )


def _prior_estimate(alpha: float) -> CopyEstimate:
    half = (1.0 - alpha) / 2.0
    return CopyEstimate(alpha, half, half)


def _posterior_from_log_likelihoods(
    log_indep: float, log_first: float, log_second: float, alpha: float
) -> CopyEstimate:
    weights = normalize_log_weights(
        [
            safe_log(alpha) + log_indep,
            safe_log((1.0 - alpha) / 2.0) + log_first,
            safe_log((1.0 - alpha) / 2.0) + log_second,
        ]
    )
    return CopyEstimate(weights[0], weights[1], weights[2])


def copy_posterior(
    obs: PairObservation, a1: float, a2: float, config: FusionConfig
) -> CopyEstimate:
    """Posterior dependence probabilities from hard-classified counts.

    An empty observation carries no evidence and returns the prior
    triple (alpha, (1-alpha)/2, (1-alpha)/2) rather than erroring, which
    keeps bulk detection total.
    """
    if obs.is_empty:
        return _prior_estimate(config.alpha)
    cond = conditional_pair_probs(a1, a2, config.n, config.c)
    cond_rev = conditional_pair_probs(a2, a1, config.n, config.c)

    def log_likelihood(t: float, f: float, d: float) -> float:
        return (
            scaled_exponent(obs.same_true, t)
            + scaled_exponent(obs.same_false, f)
            + scaled_exponent(obs.different, d)
        )

    log_indep = log_likelihood(
        cond.same_true_indep, cond.same_false_indep, cond.different_indep
    )
    # first copies from second: the second source is the original
    log_first = log_likelihood(
        cond_rev.same_true_copied, cond_rev.same_false_copied, cond_rev.different_copied
    )
    log_second = log_likelihood(
        cond.same_true_copied, cond.same_false_copied, cond.different_copied
    )
    return _posterior_from_log_likelihoods(
        log_indep, log_first, log_second, config.alpha
    )


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


def _estimate_eligible_pairs(
    dataset: Dataset,
    config: FusionConfig,
    min_overlap: int | None,
    estimate: Callable[[SourceId, SourceId], CopyEstimate],
) -> CopyMatrix:
    """Estimate every unordered pair sharing at least ``min_overlap`` objects.

    Pairs below the overlap are absent from the matrix and treated as
    independent downstream; ``None`` takes ``config.min_overlap``.
    """
    if min_overlap is None:
        min_overlap = config.min_overlap
    eligible = sorted(
        pair
        for pair, count in dataset.pair_overlap_counts().items()
        if count >= min_overlap
    )
    # keyed by the cached overlap tuples: a matrix kept per round adds no keys
    return CopyMatrix({pair: estimate(*pair) for pair in eligible})


def initial_copy_matrix(
    dataset: Dataset,
    posteriors: Mapping[ObjectId, ValuePosterior],
    config: FusionConfig,
    min_overlap: int | None = None,
) -> CopyMatrix:
    """Copy estimates for every eligible pair in round zero.

    No truth is selected yet, so each pair is weighed by
    ``initial_copy_posterior`` against the starting posteriors.
    """
    return _estimate_eligible_pairs(
        dataset,
        config,
        min_overlap,
        lambda s1, s2: initial_copy_posterior(dataset, posteriors, s1, s2, config),
    )


def detect_all(
    dataset: Dataset,
    truths: Mapping[ObjectId, Value],
    accuracies: Mapping[SourceId, SourceAccuracy],
    config: FusionConfig,
    min_overlap: int | None = None,
) -> CopyMatrix:
    """Copy estimates for every eligible pair after round zero.

    Each pair's shared values are classified hard against the selected
    truths (``pair_observation``) and weighed by ``copy_posterior``.
    """

    def estimate(s1: SourceId, s2: SourceId) -> CopyEstimate:
        obs = pair_observation(dataset, truths, s1, s2)
        return copy_posterior(obs, accuracies[s1].accuracy, accuracies[s2].accuracy, config)

    return _estimate_eligible_pairs(dataset, config, min_overlap, estimate)
