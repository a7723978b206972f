"""Bayesian pairwise copy detection.

Two sources sharing a false value is a low-probability event when they
are independent, so the balance of shared-true / shared-false /
differing objects carries evidence about copying. For each unordered
pair this module computes the posterior over three hypotheses
(independent, first-copies-second, second-copies-first) from the
per-object conditional probabilities of those three observation
classes. Likelihoods are products over objects, evaluated as sums of
logs (``safe_log``) and normalized with a max shift. Round zero has no
selected truths yet and weighs each shared value by its 1/k start, k
the number of values asserted for its object (``initial_copy_matrix``);
later rounds classify shared values against the truths (``detect_all``,
which shares ``copy_posterior``'s arithmetic, ``_copy_estimate``).

Which shared objects a pair agrees on never changes; only the truths
do. So both read ``Dataset.pair_agreements``, the one pair index, built
once per dataset and ``config.min_overlap`` (after Li, Dong, Lyons, Meng
& Srivastava, "Scaling up copy detection", ICDE 2015): the eligible
pairs, each with the bitmask of its agreed objects and its agreed and
differing counts, and each source's object mask. ``detect_all`` splits
the agreed objects into shared true and false values with one bitmask
per source of the objects where it asserts the truth. Round zero
computes each object's shared-value log terms once and adds them per
pair over its shared objects, the AND of the index's two source masks,
in sorted object order, reading agreement from the agreed mask. The
index is the one place a pair's shared objects are classified; pairs
outside it are independent downstream. A round's ``CopyMatrix`` keeps
the index's own pair tuple and one estimate per pair, by position.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

from .accuracy import SourceAccuracy, clamp_accuracy
from .errors import InvalidParameter, MissingTruth
from .model import Dataset, FusionConfig, ObjectId, SourceId, Value

NEG_INF = float("-inf")


def safe_log(x: float) -> float:
    """Natural log extended with log(0) = -inf; negative input is a caller bug."""
    if x < 0.0:
        raise ValueError(f"log of negative value: {x!r}")
    if x == 0.0:
        return NEG_INF
    return math.log(x)


@dataclass(frozen=True)
class PairObservation:
    """Counts of commonly asserted objects, split by agreement class.

    same_true: both sources assert the selected truth.
    same_false: both assert an identical value that is not the truth.
    different: the two assert different values.

    ``detect_all`` classifies whole objects and passes integer counts;
    reals stay accepted for library callers of ``copy_posterior``.
    """

    same_true: float
    same_false: float
    different: float

    def __post_init__(self) -> None:
        if self.same_true < 0 or self.same_false < 0 or self.different < 0:
            raise InvalidParameter(f"negative observation counts: {self}")


@dataclass(frozen=True, slots=True)
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


class CopyMatrix:
    """One round's copy estimates, by position in the pair index.

    ``pairs`` is the ``pairs`` tuple of ``Dataset.pair_agreements``
    itself: (a, b) with a < b, in ascending order. ``estimates[k]`` is
    the estimate of ``pairs[k]``, its ``first_copies_second`` meaning
    "a copies from b". Pairs outside the index are independent.
    """

    __slots__ = ("pairs", "estimates")

    def __init__(
        self,
        pairs: tuple[tuple[SourceId, SourceId], ...],
        estimates: Sequence[CopyEstimate],
    ):
        if len(estimates) != len(pairs):
            raise InvalidParameter(f"{len(estimates)} copy estimates for {len(pairs)} pairs")
        self.pairs = pairs
        self.estimates = estimates

    def __len__(self) -> int:
        return len(self.pairs)

    def items(self) -> Iterator[tuple[tuple[SourceId, SourceId], CopyEstimate]]:
        """Each pair with its estimate, in pair order."""
        return zip(self.pairs, self.estimates)


EMPTY_COPY_MATRIX = CopyMatrix((), ())


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


def _class_probabilities(
    a1: float, a2: float, n: int, c: float
) -> tuple[float, float, float, float, float, float]:
    """The six class probabilities of ``PairConditionals``, in its field order.

    The copied ones condition on the second source copying from the
    first. Swapping the accuracy arguments gives the opposite direction
    and the same independent terms, bit for bit (products commute).
    """
    same_true_indep = a1 * a2
    same_false_indep = (1.0 - a1) * (1.0 - a2) / n
    different_indep = 1.0 - same_true_indep - same_false_indep
    return (
        same_true_indep,
        same_false_indep,
        different_indep,
        a1 * c + same_true_indep * (1.0 - c),
        (1.0 - a1) * c + same_false_indep * (1.0 - c),
        different_indep * (1.0 - c),
    )


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
    return PairConditionals(*_class_probabilities(a1, a2, n, c))


def _posterior_from_log_likelihoods(
    log_indep: float, log_first: float, log_second: float, alpha: float
) -> CopyEstimate:
    """Normalize the three hypotheses' log posteriors with a max shift."""
    log_weights = (
        safe_log(alpha) + log_indep,
        safe_log((1.0 - alpha) / 2.0) + log_first,
        safe_log((1.0 - alpha) / 2.0) + log_second,
    )
    m = max(log_weights)
    if m == NEG_INF:
        raise ValueError("all log weights are zero probability")
    exps = [math.exp(w - m) for w in log_weights]
    total = math.fsum(exps)
    return CopyEstimate(exps[0] / total, exps[1] / total, exps[2] / total)


def _copy_estimate(
    same_true: float,
    same_false: float,
    different: float,
    a1: float,
    a2: float,
    config: FusionConfig,
) -> CopyEstimate:
    """The dependence posterior of a pair's three counts and two accuracies.

    The one arithmetic path of ``copy_posterior`` and ``detect_all``. A
    hypothesis' log likelihood is the sum, in the order same-true,
    same-false, different, of count * log(probability) over the classes
    (``_class_probabilities``; the copy directions swap the accuracy
    arguments). A zero count adds nothing (0 * log 0 = 0): with
    ``c = 1`` a copier never differs from its original, and a pair with
    no differing object must score 0 there, not 0 * -inf = NaN. An
    observed class of probability 0 adds -inf.
    """
    if same_true == 0 and same_false == 0 and different == 0:
        half = (1.0 - config.alpha) / 2.0
        return CopyEstimate(config.alpha, half, half)
    if not 0.0 < a1 < 1.0 or not 0.0 < a2 < 1.0:
        raise InvalidParameter(f"accuracies must be in (0, 1), got {a1!r}, {a2!r}")
    # "first" copies from the second source, "second" from the first
    true_indep, false_indep, different_indep, true_second, false_second, different_copied = (
        _class_probabilities(a1, a2, config.n, config.c)
    )
    _, _, _, true_first, false_first, _ = _class_probabilities(a2, a1, config.n, config.c)
    log_indep = log_first = log_second = 0.0
    if same_true:
        log_indep = same_true * safe_log(true_indep)
        log_first = same_true * safe_log(true_first)
        log_second = same_true * safe_log(true_second)
    if same_false:
        log_indep += same_false * safe_log(false_indep)
        log_first += same_false * safe_log(false_first)
        log_second += same_false * safe_log(false_second)
    if different:
        log_indep += different * safe_log(different_indep)
        log_copied = different * safe_log(different_copied)
        log_first += log_copied
        log_second += log_copied
    return _posterior_from_log_likelihoods(log_indep, log_first, log_second, config.alpha)


def copy_posterior(
    obs: PairObservation, a1: float, a2: float, config: FusionConfig
) -> CopyEstimate:
    """Posterior dependence probabilities from hard-classified counts.

    An empty observation carries no evidence and returns the prior
    triple (alpha, (1-alpha)/2, (1-alpha)/2) rather than erroring, which
    keeps bulk detection total.
    """
    return _copy_estimate(obs.same_true, obs.same_false, obs.different, a1, a2, config)


def initial_copy_matrix(dataset: Dataset, config: FusionConfig) -> CopyMatrix:
    """Round-zero copy estimates, before any truth is selected.

    With no decided truths yet, each of an object's k asserted values
    starts true with probability 1/k (after Dong, Berti-Equille &
    Srivastava, VLDB 2009), so a shared value v contributes the mixture
    P(v) * Pr(same-true | H) + (1 - P(v)) * Pr(same-false | H) to every
    hypothesis H; differing objects contribute their different-value
    probability as usual. Accuracies are the uniform starting value
    1 - eps. Pairs sharing fewer than ``config.min_overlap`` objects are
    absent.

    A differing object adds the same two log terms to every pair, and
    every shared value of an object the same two terms, so each term is
    computed once, by object bit. A pair's shared objects are the bits
    of its two sources' object masks in the index (``provided``); each
    adds its term, lowest bit (first object in sorted order) first, the
    same-value one where the index marks the object agreed.
    """
    a = clamp_accuracy(config.initial_accuracy, config.accuracy_clamp)
    true_indep, false_indep, different_indep, true_copied, false_copied, different_copied = (
        _class_probabilities(a, a, config.n, config.c)
    )
    different_terms = (safe_log(different_indep), safe_log(different_copied))
    same_terms: list[tuple[float, float]] = []
    for votemap in dataset.voters.values():
        p_true = 1.0 / len(votemap)
        same_terms.append((
            safe_log(p_true * true_indep + (1.0 - p_true) * false_indep),
            safe_log(p_true * true_copied + (1.0 - p_true) * false_copied),
        ))

    index = dataset.pair_agreements(config.min_overlap)
    estimates: list[CopyEstimate] = []
    for (s1, s2), agreed in zip(index.pairs, index.agreed):
        log_indep = log_copy = 0.0
        common = index.provided[s1] & index.provided[s2]
        while common:
            bit = common & -common
            common ^= bit
            terms = same_terms[bit.bit_length() - 1] if agreed & bit else different_terms
            log_indep += terms[0]
            log_copy += terms[1]
        # uniform starting accuracies make both copy directions equally likely
        estimates.append(
            _posterior_from_log_likelihoods(log_indep, log_copy, log_copy, config.alpha)
        )
    return CopyMatrix(index.pairs, estimates)


def _truth_masks(
    dataset: Dataset, truths: Mapping[ObjectId, Value]
) -> tuple[dict[SourceId, int], int]:
    """Per source, the bitmask of the objects where it asserts the truth.

    Bits follow ``Dataset.pair_agreements``. The second element masks
    the objects that have no truth.
    """
    masks: dict[SourceId, int] = {}
    missing = 0
    for i, (obj, votemap) in enumerate(dataset.voters.items()):
        truth = truths.get(obj)
        if truth is None:
            missing |= 1 << i
            continue
        bit = 1 << i
        for source in votemap.get(truth, ()):
            masks[source] = masks.get(source, 0) | bit
    return masks, missing


def detect_all(
    dataset: Dataset,
    truths: Mapping[ObjectId, Value],
    accuracies: Mapping[SourceId, SourceAccuracy],
    config: FusionConfig,
) -> CopyMatrix:
    """Copy estimates for every eligible pair after round zero.

    Each pair's shared values are classified hard against the selected
    truths and weighed as ``copy_posterior`` weighs them. The agreed
    objects come from the dataset's agreement index; of those, the ones
    where the first source asserts the truth are shared true values, the
    rest shared false ones. Pairs sharing fewer than ``config.min_overlap``
    objects are absent. An agreed object without a truth raises
    ``MissingTruth`` naming the first such object in sorted order.
    """
    index = dataset.pair_agreements(config.min_overlap)
    truth_masks, missing = _truth_masks(dataset, truths)
    estimates: list[CopyEstimate] = []
    for pair, agreed, agreed_count, different in zip(
        index.pairs, index.agreed, index.agreed_counts, index.different
    ):
        unknown = agreed & missing
        if unknown:
            # the lowest set bit is the first such object in sorted order
            obj = dataset.objects()[(unknown & -unknown).bit_length() - 1]
            raise MissingTruth(f"no truth for commonly asserted object {obj!r}")
        s1, s2 = pair
        same_true = (agreed & truth_masks.get(s1, 0)).bit_count()
        estimates.append(_copy_estimate(
            same_true, agreed_count - same_true, different,
            accuracies[s1].accuracy, accuracies[s2].accuracy, config,
        ))
    return CopyMatrix(index.pairs, estimates)
