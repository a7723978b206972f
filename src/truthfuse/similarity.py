"""String similarity between values and similarity-weighted confidence.

The similarity of two values never changes between rounds, so each
object's weights are measured once (``similarity_weights``, kept by
``vote.VoterIndex``) and a round only sums weights times confidences.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping, Sequence
from operator import mul

from .errors import InvalidParameter
from .model import Value


def _char_ngrams(text: str, n: int) -> frozenset[str]:
    # strings shorter than n (including "") are their own single gram
    if len(text) < n:
        return frozenset((text,))
    return frozenset(text[i : i + n] for i in range(len(text) - n + 1))


def _jaccard(grams_a: frozenset[str], grams_b: frozenset[str]) -> float:
    union = len(grams_a | grams_b)
    if union == 0:
        return 1.0
    return len(grams_a & grams_b) / union


def ngram_jaccard(a: str, b: str, n: int = 2) -> float:
    """Jaccard overlap of the character n-gram sets of two strings."""
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n!r}")
    return _jaccard(_char_ngrams(a, n), _char_ngrams(b, n))


def similarity_weights(values: Sequence[Value], n: int = 2) -> array:
    """``ngram_jaccard`` of each of an object's values to each of the others.

    One flat array of m * (m - 1) floats for m values: row i holds the
    similarity of values[i] to every values[j], j != i, in order. The
    similarity is symmetric, so each pair is measured once, from n-gram
    sets taken once per value.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n!r}")
    grams = [_char_ngrams(value, n) for value in values]
    m = len(values)
    weights = array("d", [0.0]) * (m * (m - 1))
    for i in range(m):
        for j in range(i + 1, m):
            weights[i * (m - 1) + j - 1] = weights[j * (m - 1) + i] = _jaccard(
                grams[i], grams[j]
            )
    return weights


def adjust_confidences(
    confidences: Mapping[Value, float],
    weights: Sequence[float] | None,
    rho: float,
) -> dict[Value, float]:
    """Let similar values reinforce each other.

    Each value receives rho times the similarity-weighted confidences of
    the other values of the same object:
    C*(v) = C(v) + rho * sum over v' != v of sim(v, v') * C(v').
    ``weights`` is ``similarity_weights`` of the sorted values (None
    when there are fewer than two). Applied after copy discounting,
    before truth selection.
    """
    if not 0.0 <= rho < 1.0:
        raise InvalidParameter(f"rho must be in [0, 1), got {rho!r}")
    items = sorted(confidences.items())
    m = len(items)
    if rho == 0.0 or m < 2:
        return dict(items)
    if weights is None or len(weights) != m * (m - 1):
        raise InvalidParameter(f"no similarity weights for {m} values")
    bases = [base for _, base in items]
    adjusted: dict[Value, float] = {}
    for i, (value, base) in enumerate(items):
        others = bases[:i] + bases[i + 1 :]
        support = math.fsum(map(mul, weights[i * (m - 1) : (i + 1) * (m - 1)], others))
        adjusted[value] = base + rho * support
    return adjusted
