"""Bayesian pairwise copy detection.

Two sources sharing a false value is a low-probability event when they
are independent, so the balance of shared-true / shared-false /
differing objects carries evidence about copying. For each unordered
pair this module computes the posterior over three hypotheses
(independent, first-copies-second, second-copies-first) from the
per-object conditional probabilities of those three observation
classes. Likelihoods are products over objects, evaluated as sums of
logs (``safe_log``) and normalized with a max shift. Round zero has no
selected truths yet and weighs each shared value by its start: its
share V_v / N_o of its object's N_o votes, counted as one source's
evidence (``initial_copy_matrix``); later rounds classify shared values
against the truths (``detect_all``) and weigh each pair's counts with
``copy_posterior``.

Which shared objects a pair agrees on never changes; only the truths
do. So both read ``Dataset.pair_agreements``, the one pair index, built
once per dataset and ``config.min_overlap`` (after Li, Dong, Lyons, Meng
& Srivastava, "Scaling up copy detection", ICDE 2015): the eligible
pairs, each with the bitmask of its agreed objects, its agreed and
differing counts and the voter groups linking it. ``detect_all`` splits
the agreed objects into shared true and false values with one bitmask
per source of the objects where it asserts the truth. Round zero
computes each shared value's log terms once and adds them to the pairs
of its voter group, the index's ``groups`` table, objects in sorted
order, then each pair's differing count times the differing term. The
index is the one place a pair's shared objects are classified; pairs
outside it are independent downstream. A round's ``CopyMatrix`` keeps
the index's own pair tuple and one estimate per pair, by position.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .accuracy import SourceAccuracy, accuracy_score, clamp_accuracy, normalize_confidences
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


# how ``CopyMatrix.links`` records a pair (a, b): undirected, a copies b, b copies a
UNDIRECTED, FIRST_COPIES, SECOND_COPIES = 0, 1, 2


class RoundLinks(NamedTuple):
    """A copy matrix's totals and direction codes in pair order, the sentinel slot last.

    The sentinel is undirected with total 0.0: it never raises a score,
    and its term 1 - c * 0.0 leaves a factor exactly as it is.
    """

    totals: tuple[float, ...]
    directions: bytes


class CopyMatrix:
    """One round's copy estimates, by position in the pair index.

    ``pairs`` is the ``pairs`` tuple of ``Dataset.pair_agreements``
    itself: (a, b) with a < b, in ascending order. ``estimates[k]`` is
    the estimate of ``pairs[k]``, its ``first_copies_second`` meaning
    "a copies from b". Pairs outside the index are independent.
    """

    __slots__ = ("pairs", "estimates", "_links")

    def __init__(
        self,
        pairs: tuple[tuple[SourceId, SourceId], ...],
        estimates: Sequence[CopyEstimate],
    ):
        if len(estimates) != len(pairs):
            raise InvalidParameter(f"{len(estimates)} copy estimates for {len(pairs)} pairs")
        self.pairs = pairs
        self.estimates = estimates
        self._links: dict[float, RoundLinks] = {}

    def __len__(self) -> int:
        return len(self.pairs)

    def items(self) -> Iterator[tuple[tuple[SourceId, SourceId], CopyEstimate]]:
        """Each pair with its estimate, in pair order."""
        return zip(self.pairs, self.estimates)

    def links(self, threshold: float) -> RoundLinks:
        """Each pair's total copy probability and direction, decided in one pass.

        A direction holding more than ``threshold`` of the total directs
        the pair. The result is kept per threshold (``EMPTY_COPY_MATRIX``
        is shared by every run), so a matrix is classified once per run.
        """
        links = self._links.get(threshold)
        if links is None:
            totals: list[float] = []
            directions = bytearray()
            for estimate in self.estimates:
                total = estimate.total_copy_probability
                bar = threshold * total
                totals.append(total)
                directions.append(
                    FIRST_COPIES if estimate.first_copies_second > bar
                    else SECOND_COPIES if estimate.second_copies_first > bar else UNDIRECTED
                )
            totals.append(0.0)
            directions.append(UNDIRECTED)
            links = self._links[threshold] = RoundLinks(tuple(totals), bytes(directions))
        return links


EMPTY_COPY_MATRIX = CopyMatrix((), ())


def _class_probabilities(
    a1: float, a2: float, n: int, c: float
) -> tuple[float, float, float, float, float, float]:
    """Per-object probabilities of the three observation classes.

    Same true, same false and different, first under independence, then
    under the second source copying from the first. Independent sources
    agree on the truth with probability A1*A2 and on any one of the n
    false values with probability (1-A1)(1-A2)/n. A copier repeats the
    original's value with probability c, in which case agreement is
    certain and the shared value is true exactly when the original is
    right; with probability 1-c it behaves independently. Swapping the
    accuracy arguments gives the opposite direction and the same
    independent terms, bit for bit (products commute).
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


def copy_posterior(
    same_true: float,
    same_false: float,
    different: float,
    a1: float,
    a2: float,
    config: FusionConfig,
) -> CopyEstimate:
    """The dependence posterior of a pair's three counts and two accuracies.

    The counts are the pair's shared objects with the same true value,
    the same false value and different values; ``detect_all`` passes
    integers, and fractional counts are accepted. A negative count
    raises ``InvalidParameter``. Three zero counts carry no evidence and
    return the prior triple (alpha, (1-alpha)/2, (1-alpha)/2), which
    keeps bulk detection total.

    A hypothesis' log likelihood is the sum, in the order same-true,
    same-false, different, of count * log(probability) over the classes
    (``_class_probabilities``; the copy directions swap the accuracy
    arguments). A zero count adds nothing (0 * log 0 = 0): with
    ``c = 1`` a copier never differs from its original, and a pair with
    no differing object must score 0 there, not 0 * -inf = NaN. An
    observed class of probability 0 adds -inf.
    """
    if same_true < 0 or same_false < 0 or different < 0:
        raise InvalidParameter(
            f"negative observation counts: {(same_true, same_false, different)}"
        )
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


def initial_copy_matrix(dataset: Dataset, config: FusionConfig) -> CopyMatrix:
    """Round-zero copy estimates, before any truth is selected.

    With no decided truths and no copy estimates yet, an object's N_o
    voters together carry one source's evidence: the discounted vote
    count of Dong, Berti-Equille & Srivastava (VLDB 2009), each voter's
    accuracy score times its probability of voting independently, with
    every independence at 1/N_o. A value v asserted by V_v of them starts
    at the confidence score(1 - eps) * (V_v / N_o), normalized over the
    object's n + 1 values (``normalize_confidences``); a unanimous value
    starts at 1 - eps, one source's accuracy. A shared value v then
    contributes the mixture P(v) * Pr(same-true | H) +
    (1 - P(v)) * Pr(same-false | H) to every hypothesis H; differing
    objects contribute their different-value probability as usual.
    Accuracies are the uniform starting value 1 - eps. Pairs sharing
    fewer than ``config.min_overlap`` objects are absent. An object with
    more values than its domain holds raises ``DomainOverflow`` naming it.

    Only the two log terms of a shared value depend on the pair, so each
    is computed once per voter group holding an eligible pair
    (``PairAgreements.groups``) and added to each pair of its table.
    Objects are walked in sorted order, so a pair's agreed objects add
    their terms in that order; its differing objects then add their
    count times the differing term, when there are any.
    """
    a = clamp_accuracy(config.initial_accuracy, config.accuracy_clamp)
    score = accuracy_score(a, config.n, config.accuracy_clamp)
    true_indep, false_indep, different_indep, true_copied, false_copied, different_copied = (
        _class_probabilities(a, a, config.n, config.c)
    )
    index = dataset.pair_agreements(config.min_overlap)
    # one running sum per pair, the last one for the sentinel the tables hold
    # where two voters are no pair
    log_indep = [0.0] * (len(index.pairs) + 1)
    log_copy = [0.0] * (len(index.pairs) + 1)
    for obj, votemap in dataset.voters.items():
        voters = sum(map(len, votemap.values()))
        starts, _ = normalize_confidences(
            [score * (len(group) / voters) for group in votemap.values()], config.n, obj
        )
        for group, p_true in zip(votemap.values(), starts):
            linked = index.groups.get(group)
            if linked is None:
                continue
            same_indep = safe_log(p_true * true_indep + (1.0 - p_true) * false_indep)
            same_copied = safe_log(p_true * true_copied + (1.0 - p_true) * false_copied)
            k, table = len(linked.linked), linked.table
            for i in range(k - 1):
                # each pair once: voters i < j, the upper triangle
                for number in table[i * k + i + 1 : (i + 1) * k]:
                    log_indep[number] += same_indep
                    log_copy[number] += same_copied

    different_terms = (safe_log(different_indep), safe_log(different_copied))
    estimates: list[CopyEstimate] = []
    for number, different in enumerate(index.different):
        if different:
            # a zero count adds nothing: at c = 1 the copied term is -inf
            log_indep[number] += different * different_terms[0]
            log_copy[number] += different * different_terms[1]
        # uniform starting accuracies make both copy directions equally likely
        estimates.append(_posterior_from_log_likelihoods(
            log_indep[number], log_copy[number], log_copy[number], config.alpha
        ))
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
    truths and weighed by ``copy_posterior``. The agreed objects come
    from the dataset's agreement index; of those, the ones where the
    first source asserts the truth are shared true values, the rest
    shared false ones. Pairs sharing fewer than ``config.min_overlap``
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
        estimates.append(copy_posterior(
            same_true, agreed_count - same_true, different,
            accuracies[s1].accuracy, accuracies[s2].accuracy, config,
        ))
    return CopyMatrix(index.pairs, estimates)
