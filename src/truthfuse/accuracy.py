"""Accuracy-weighted Bayesian value posteriors and truth selection.

A source with accuracy A contributes the weight w = n*A / (1 - A) to
every value it votes for; the posterior probability of a value is its
voters' weight product normalized over the whole domain of n+1 values
(unasserted values contribute an empty product of 1). All arithmetic
runs in the log domain: the accuracy score ln(w) of a source adds, and
value confidences normalize through the max-shifted softmax of
``normalize_confidences``, the package's one domain normalization; the
truth is the first highest confidence (``truth_index``). The engine
calls both on each object's float list, its values in sorted order, and
builds a ``ValuePosterior`` only when a state's posteriors are read.

Between rounds a source's accuracy is the mean posterior probability of
the values it provides. The engine reads those probabilities from one
flat list per round, in the slot order of ``Dataset.source_slots``, so
each source's mean is one exact sum over its slots.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DomainOverflow, EmptySource, InvalidParameter, NoValues
from .model import FusionConfig, ObjectId, SourceId, Value

DEFAULT_ACCURACY_CLAMP = FusionConfig.accuracy_clamp


def clamp_accuracy(accuracy: float, clamp: float = DEFAULT_ACCURACY_CLAMP) -> float:
    """Clamp an accuracy estimate into [clamp, 1 - clamp]."""
    if not 0.0 < clamp < 0.5:
        raise InvalidParameter(f"clamp must be in (0, 0.5), got {clamp!r}")
    return min(max(accuracy, clamp), 1.0 - clamp)


def accuracy_score(
    accuracy: float, n: int, clamp: float = DEFAULT_ACCURACY_CLAMP
) -> float:
    """ln(n * A / (1 - A)) after clamping A into [clamp, 1 - clamp].

    Positive exactly when the (clamped) source is good, i.e. more likely
    to provide the true value than any particular false one
    (A > 1 / (1 + n)); zero at that boundary.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n!r}")
    a = clamp_accuracy(accuracy, clamp)
    return math.log(n * a / (1.0 - a))


@dataclass(frozen=True)
class SourceAccuracy:
    """A source's estimated accuracy and its additive log weight."""

    accuracy: float
    score: float

    @classmethod
    def from_accuracy(
        cls, accuracy: float, n: int, clamp: float = DEFAULT_ACCURACY_CLAMP
    ) -> "SourceAccuracy":
        a = clamp_accuracy(accuracy, clamp)
        return cls(a, accuracy_score(a, n, clamp))


@dataclass(frozen=True)
class ValuePosterior:
    """Per-value confidences and probabilities for one object.

    ``unasserted_probability`` is the shared posterior mass of each of
    the n+1-k domain values nobody asserted, so the full-domain
    probabilities sum to one.
    """

    confidences: Mapping[Value, float]
    probabilities: Mapping[Value, float]
    unasserted_probability: float
    n: int

    def confidence(self, value: Value) -> float:
        return self.confidences[value]

    def probability(self, value: Value) -> float:
        return self.probabilities[value]

    def total_probability(self) -> float:
        k = len(self.probabilities)
        unasserted = (self.n + 1 - k) * self.unasserted_probability
        return math.fsum(self.probabilities.values()) + unasserted


def normalize_confidences(
    confidences: Sequence[float], n: int, obj: ObjectId | None = None
) -> tuple[list[float], float]:
    """Value probabilities, in order, and each unasserted value's share.

    Exponents shift by the largest confidence, the unasserted values' 0
    included, so none overflows.
    """
    k = len(confidences)
    free = (n + 1) - k
    if free < 0:
        where = f" for object {obj!r}" if obj is not None else ""
        raise DomainOverflow(
            f"{k} distinct values asserted{where} but the domain holds only {n + 1}"
        )
    m = max(confidences) if k else 0.0
    if free > 0 and m < 0.0:
        m = 0.0
    exps = [math.exp(c - m) for c in confidences]
    unasserted = math.exp(-m) if free > 0 else 0.0
    total = math.fsum(exps) + free * unasserted
    share = unasserted / total if free > 0 else 0.0
    return [e / total for e in exps], share


def source_accuracies(
    slots: Mapping[SourceId, Sequence[int]],
    probabilities: Sequence[float],
    n: int,
    clamp: float = DEFAULT_ACCURACY_CLAMP,
) -> dict[SourceId, SourceAccuracy]:
    """Each source's mean truth probability of its values, clamped.

    This is the estimator used between rounds: the fraction of true
    values a source provides, approximated by averaging the current
    posterior probability of each of its asserted values. ``slots`` is
    ``Dataset.source_slots()`` and ``probabilities[i]`` the posterior
    probability of slot i's value. ``fsum`` is exact, so the mean does
    not depend on the order of a source's slots.
    """
    accuracies: dict[SourceId, SourceAccuracy] = {}
    for source, mine in slots.items():
        if not mine:
            raise EmptySource(f"source {source!r} provides no values")
        mean = math.fsum(map(probabilities.__getitem__, mine)) / len(mine)
        accuracies[source] = SourceAccuracy.from_accuracy(mean, n, clamp)
    return accuracies


def truth_index(confidences: Sequence[float]) -> int:
    """Position of the first highest confidence: over sorted values, the smallest tied one."""
    if not confidences:
        raise NoValues("no asserted values to select from")
    return confidences.index(max(confidences))
