"""Log-domain helpers for the posterior computations.

All posterior math in this package runs on natural-log weights with a
max shift before exponentiation, so confidences of any magnitude
normalize without overflow.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

NEG_INF = float("-inf")


def safe_log(x: float) -> float:
    """Natural log extended with log(0) = -inf; negative input is a caller bug."""
    if x < 0.0:
        raise ValueError(f"log of negative value: {x!r}")
    if x == 0.0:
        return NEG_INF
    return math.log(x)


def scaled_exponent(count: float, probability: float) -> float:
    """count * log(probability) with the 0 * log(0) = 0 convention.

    Counts may be fractional (expected counts), so the guard on zero
    counts matters: a hypothesis with probability 0 for an event class
    is only ruled out when the class was actually observed.
    """
    if count == 0.0:
        return 0.0
    return count * safe_log(probability)


def normalize_log_weights(log_weights: Sequence[float]) -> list[float]:
    """Exponentiate and normalize log weights with a max shift."""
    m = max(log_weights)
    if m == NEG_INF:
        raise ValueError("all log weights are zero probability")
    exps = [math.exp(w - m) for w in log_weights]
    total = math.fsum(exps)
    return [e / total for e in exps]


def domain_posteriors(
    confidences: Mapping[str, float], n: int
) -> tuple[dict[str, float], float]:
    """Posterior over a value domain of n+1 values from log confidences.

    The asserted values carry the given confidences; each of the
    ``n + 1 - k`` unasserted domain values carries confidence 0 and
    shares one common probability, returned as the second element. The
    probabilities keep the order of ``confidences``; ``fsum`` is exact,
    so no order changes them.
    """
    k = len(confidences)
    free = (n + 1) - k
    if free < 0:
        raise ValueError(f"{k} asserted values exceed domain size {n + 1}")
    m = max(confidences.values()) if k else 0.0
    if free > 0 and m < 0.0:
        m = 0.0
    exps = [math.exp(c - m) for c in confidences.values()]
    unasserted = math.exp(-m) if free > 0 else 0.0
    total = math.fsum(exps) + free * unasserted
    probs = {value: e / total for value, e in zip(confidences, exps)}
    return probs, (unasserted / total if free > 0 else 0.0)
