import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse import NGramJaccard, adjust_confidences, ngram_jaccard
from truthfuse.errors import InvalidParameter


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


class TestSimilarityFunctions:
    def test_ngram_callable(self):
        sim = NGramJaccard(2)
        assert sim("abcd", "abce") == pytest.approx(0.5)


class TestAdjustConfidences:
    def test_zero_rho_is_identity(self):
        confidences = {"a": 2.0, "b": 4.0}
        assert adjust_confidences(confidences, NGramJaccard(2), 0.0) == confidences

    def test_full_similarity_support(self):
        # identical-similarity pair: each value gains rho times the other
        confidences = {"a": 2.0, "b": 4.0}

        class AlwaysOne:
            def __call__(self, x, y):
                return 1.0

        adjusted = adjust_confidences(confidences, AlwaysOne(), 0.5)
        assert adjusted == {"a": pytest.approx(4.0), "b": pytest.approx(5.0)}

    def test_zero_similarity_is_identity(self):
        confidences = {"ab": 2.0, "xy": 4.0}
        adjusted = adjust_confidences(confidences, NGramJaccard(2), 0.5)
        assert adjusted == {"ab": pytest.approx(2.0), "xy": pytest.approx(4.0)}

    def test_invalid_rho(self):
        with pytest.raises(InvalidParameter):
            adjust_confidences({"a": 1.0}, NGramJaccard(2), 1.0)

    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_equal_similarities_preserve_two_value_argmax(self, rho, c1, c2, sim_value):
        class Constant:
            def __call__(self, x, y):
                return sim_value

        confidences = {"v1": c1, "v2": c2}
        adjusted = adjust_confidences(confidences, Constant(), rho)
        before = sorted(confidences, key=lambda v: (-confidences[v], v))
        after = sorted(adjusted, key=lambda v: (-adjusted[v], v))
        # C1 + r*s*C2 >= C2 + r*s*C1 iff (1 - r*s)(C1 - C2) >= 0, and r*s < 1
        assert before[0] == after[0]
