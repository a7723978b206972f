"""String similarity between values and similarity-weighted confidence."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidParameter
from .model import Value


@lru_cache(maxsize=1 << 16)
def _char_ngrams(text: str, n: int) -> frozenset[str]:
    # strings shorter than n (including "") are their own single gram
    if len(text) < n:
        return frozenset((text,))
    return frozenset(text[i : i + n] for i in range(len(text) - n + 1))


def ngram_jaccard(a: str, b: str, n: int = 2) -> float:
    """Jaccard overlap of the character n-gram sets of two strings."""
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n!r}")
    grams_a = _char_ngrams(a, n)
    grams_b = _char_ngrams(b, n)
    union = len(grams_a | grams_b)
    if union == 0:
        return 1.0
    return len(grams_a & grams_b) / union


@dataclass(frozen=True)
class NGramJaccard:
    """Character n-gram Jaccard similarity (2-grams by default)."""

    n: int = 2

    def __call__(self, a: str, b: str) -> float:
        return ngram_jaccard(a, b, self.n)



def adjust_confidences(
    confidences: Mapping[Value, float],
    sim: NGramJaccard,
    rho: float,
) -> dict[Value, float]:
    """Let similar values reinforce each other.

    Each value receives rho times the similarity-weighted confidences of
    the other values of the same object:
    C*(v) = C(v) + rho * sum over v' != v of sim(v, v') * C(v').
    Applied after copy discounting, before truth selection.
    """
    if not 0.0 <= rho < 1.0:
        raise InvalidParameter(f"rho must be in [0, 1), got {rho!r}")
    items = sorted(confidences.items())
    if rho == 0.0 or len(items) < 2:
        return dict(items)
    adjusted: dict[Value, float] = {}
    for value, base in items:
        support = math.fsum(
            sim(value, other) * conf for other, conf in items if other != value
        )
        adjusted[value] = base + rho * support
    return adjusted
