import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse import adjust_confidences, ngram_jaccard
from truthfuse.errors import InvalidParameter
from truthfuse.similarity import similarity_weights


def pairwise_adjusted(confidences, rho):
    """The adjustment measured pair by pair, each value against every other."""
    items = sorted(confidences.items())
    if rho == 0.0 or len(items) < 2:
        return dict(items)
    adjusted = {}
    for value, base in items:
        support = math.fsum(
            ngram_jaccard(value, other) * conf for other, conf in items if other != value
        )
        adjusted[value] = base + rho * support
    return adjusted


class TestNGramJaccard:
    def test_identical_strings(self):
        assert ngram_jaccard("abc", "abc", 2) == 1.0

    def test_partial_overlap(self):
        # {ab, bc, cd} vs {ab, bc, ce}: 2 shared of 4 total
        assert ngram_jaccard("abcd", "abce", 2) == pytest.approx(0.5)

    def test_disjoint_grams(self):
        assert ngram_jaccard("ab", "cd", 2) == 0.0

    def test_two_empty_strings(self):
        assert ngram_jaccard("", "", 2) == 1.0

    def test_short_strings_use_whole_string(self):
        assert ngram_jaccard("a", "a", 3) == 1.0
        assert ngram_jaccard("a", "b", 3) == 0.0

    def test_invalid_n(self):
        with pytest.raises(InvalidParameter):
            ngram_jaccard("x", "y", 0)

    @given(st.text(max_size=30), st.text(max_size=30), st.integers(min_value=1, max_value=4))
    @settings(max_examples=300)
    def test_symmetric_and_bounded(self, a, b, n):
        forward = ngram_jaccard(a, b, n)
        assert 0.0 <= forward <= 1.0
        assert forward == ngram_jaccard(b, a, n)
        assert ngram_jaccard(a, a, n) == 1.0


class TestSimilarityWeights:
    @given(st.lists(st.text(max_size=12), max_size=6, unique=True), st.integers(1, 3))
    @settings(max_examples=300)
    def test_rows_hold_each_other_value_in_order(self, values, n):
        weights = similarity_weights(values, n)
        m = len(values)
        assert len(weights) == m * (m - 1)
        for i, value in enumerate(values):
            others = [other for j, other in enumerate(values) if j != i]
            row = weights[i * (m - 1) : (i + 1) * (m - 1)]
            assert row.tolist() == [ngram_jaccard(value, other, n) for other in others]

    def test_invalid_n(self):
        with pytest.raises(InvalidParameter):
            similarity_weights(["x", "y"], 0)


class TestAdjustConfidences:
    def test_zero_rho_is_identity(self):
        confidences = {"a": 2.0, "b": 4.0}
        assert adjust_confidences(confidences, similarity_weights(["a", "b"]), 0.0) == confidences

    def test_full_similarity_support(self):
        # identical-similarity pair: each value gains rho times the other
        confidences = {"a": 2.0, "b": 4.0}
        adjusted = adjust_confidences(confidences, [1.0, 1.0], 0.5)
        assert adjusted == {"a": pytest.approx(4.0), "b": pytest.approx(5.0)}

    def test_zero_similarity_is_identity(self):
        confidences = {"ab": 2.0, "xy": 4.0}
        adjusted = adjust_confidences(confidences, similarity_weights(["ab", "xy"]), 0.5)
        assert adjusted == {"ab": pytest.approx(2.0), "xy": pytest.approx(4.0)}

    def test_invalid_rho(self):
        with pytest.raises(InvalidParameter):
            adjust_confidences({"a": 1.0}, None, 1.0)

    @pytest.mark.parametrize("weights", [None, [0.5]])
    def test_weights_must_cover_every_pair(self, weights):
        with pytest.raises(InvalidParameter):
            adjust_confidences({"a": 1.0, "b": 2.0}, weights, 0.5)

    @given(
        st.dictionaries(
            st.text(alphabet="abcde ", max_size=8),
            st.floats(min_value=-10, max_value=10),
            max_size=6,
        ),
        st.sampled_from([0.0, 0.25, 0.5, 0.9]),
    )
    @settings(max_examples=300)
    def test_identical_to_pairwise_measurement(self, confidences, rho):
        # exact: the weights are measured once, the sums stay the same
        weights = similarity_weights(sorted(confidences))
        assert adjust_confidences(confidences, weights, rho) == pairwise_adjusted(
            confidences, rho
        )

    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_equal_similarities_preserve_two_value_argmax(self, rho, c1, c2, sim_value):
        confidences = {"v1": c1, "v2": c2}
        adjusted = adjust_confidences(confidences, [sim_value, sim_value], rho)
        before = sorted(confidences, key=lambda v: (-confidences[v], v))
        after = sorted(adjusted, key=lambda v: (-adjusted[v], v))
        # C1 + r*s*C2 >= C2 + r*s*C1 iff (1 - r*s)(C1 - C2) >= 0, and r*s < 1
        assert before[0] == after[0]
