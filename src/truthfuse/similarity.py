"""String similarity between values and similarity-weighted confidence.

The similarity of two values never changes between rounds, so each
object's weights are measured once (``similarity_weights``, kept by
``Dataset.similarity_weights``) and a round only sums weights times
confidences. Values are plain strings here: this module imports nothing
from the rest of the package but its errors.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from operator import mul

from .errors import InvalidParameter


def _char_2grams(text: str) -> frozenset[str]:
    # strings shorter than 2 (including "") are their own single gram
    if len(text) < 2:
        return frozenset((text,))
    return frozenset(text[i : i + 2] for i in range(len(text) - 1))


def _jaccard(grams_a: frozenset[str], grams_b: frozenset[str]) -> float:
    union = len(grams_a | grams_b)
    if union == 0:
        return 1.0
    return len(grams_a & grams_b) / union


def ngram_jaccard(a: str, b: str) -> float:
    """Jaccard overlap of the character 2-gram sets of two strings."""
    return _jaccard(_char_2grams(a), _char_2grams(b))


def similarity_weights(values: Sequence[str]) -> array:
    """``ngram_jaccard`` of each of an object's values to each of the others.

    One flat array of m * (m - 1) floats for m values: row i holds the
    similarity of values[i] to every values[j], j != i, in order. The
    similarity is symmetric, so each pair is measured once, from 2-gram
    sets taken once per value.
    """
    grams = [_char_2grams(value) for value in values]
    m = len(values)
    weights = array("d", [0.0]) * (m * (m - 1))
    for i in range(m):
        for j in range(i + 1, m):
            weights[i * (m - 1) + j - 1] = weights[j * (m - 1) + i] = _jaccard(
                grams[i], grams[j]
            )
    return weights


def reinforce(
    confidences: Sequence[float], weights: Sequence[float] | None, rho: float
) -> list[float]:
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
    m = len(confidences)
    if rho == 0.0 or m < 2:
        return list(confidences)
    if weights is None or len(weights) != m * (m - 1):
        raise InvalidParameter(f"no similarity weights for {m} values")
    bases = list(confidences)
    adjusted: list[float] = []
    for i, base in enumerate(bases):
        others = bases[:i] + bases[i + 1 :]
        support = math.fsum(map(mul, weights[i * (m - 1) : (i + 1) * (m - 1)], others))
        adjusted.append(base + rho * support)
    return adjusted
