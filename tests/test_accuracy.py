import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse import (
    Claim,
    ModelVariant,
    SourceAccuracy,
    accuracy_score,
    build_dataset,
    run,
    select_truth,
    source_accuracies,
    value_posteriors,
)
from truthfuse.accuracy import ValuePosterior, clamp_accuracy, posterior_from_confidences
from truthfuse.errors import (
    DomainOverflow,
    EmptySource,
    InvalidParameter,
    MissingAccuracy,
    NoValues,
)


def linear_posterior(accuracies: list[float], votes: dict[str, list[int]], n: int):
    """Direct linear-space evaluation of the value posterior.

    Independent oracle for the log-domain path: the posterior of a value
    is its voters' weight product over the sum of weight products across
    the whole domain, with w = n * A / (1 - A) and each unasserted value
    contributing the empty product 1.
    """
    weights = [n * a / (1 - a) for a in accuracies]
    products = {
        value: math.prod(weights[i] for i in voter_ids)
        for value, voter_ids in votes.items()
    }
    free = n + 1 - len(votes)
    denominator = sum(products.values()) + free
    return {value: product / denominator for value, product in products.items()}


class TestAccuracyScore:
    def test_worked_value(self):
        assert accuracy_score(0.6, 5) == pytest.approx(math.log(7.5))
        assert accuracy_score(0.6, 5) == pytest.approx(2.0149, abs=1e-4)

    def test_good_source_boundary_is_zero(self):
        for n in (1, 2, 5, 50):
            assert accuracy_score(1.0 / (1 + n), n) == pytest.approx(0.0, abs=1e-12)

    def test_large_domain(self):
        assert accuracy_score(0.8, 100) == pytest.approx(math.log(400))
        assert accuracy_score(0.8, 100) == pytest.approx(5.9915, abs=1e-4)

    def test_clamp_keeps_score_finite(self):
        assert math.isfinite(accuracy_score(1.0, 5))
        assert math.isfinite(accuracy_score(0.0, 5))
        assert accuracy_score(1.0, 5) == accuracy_score(0.99, 5)

    def test_invalid_clamp(self):
        with pytest.raises(InvalidParameter):
            accuracy_score(0.5, 5, clamp=0.6)
        with pytest.raises(InvalidParameter):
            clamp_accuracy(0.5, clamp=0.0)

    def test_sign_tracks_good_bad_boundary(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 50)
            a = rng.uniform(0.02, 0.98)
            score = accuracy_score(a, n)
            boundary = 1.0 / (1 + n)
            if a > boundary:
                assert score > 0
            elif a < boundary:
                assert score < 0


class TestValuePosteriors:
    def test_three_voter_worked_example(self):
        claims = [
            Claim("S1", "Carey", "UCI"),
            Claim("S2", "Carey", "AT&T"),
            Claim("S3", "Carey", "BEA"),
        ]
        dataset = build_dataset(claims)
        accuracies = {
            "S1": SourceAccuracy.from_accuracy(0.97, 5),
            "S2": SourceAccuracy.from_accuracy(0.6, 5),
            "S3": SourceAccuracy.from_accuracy(0.4, 5),
        }
        posterior = value_posteriors("Carey", dataset, accuracies, 5)
        assert posterior.probability("UCI") == pytest.approx(0.9212, abs=1e-3)
        oracle = linear_posterior(
            [0.97, 0.6, 0.4], {"UCI": [0], "AT&T": [1], "BEA": [2]}, 5
        )
        for value, expected in oracle.items():
            assert posterior.probability(value) == pytest.approx(expected, abs=1e-12)

    def test_boundary_voter_is_uninformative(self):
        dataset = build_dataset([Claim("S1", "O", "v")])
        accuracies = {"S1": SourceAccuracy.from_accuracy(1.0 / 6.0, 5)}
        posterior = value_posteriors("O", dataset, accuracies, 5)
        assert posterior.probability("v") == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_weight_one_symmetry(self):
        dataset = build_dataset([Claim("S1", "O", "v"), Claim("S2", "O", "v")])
        accuracies = {
            "S1": SourceAccuracy.from_accuracy(0.5, 1),
            "S2": SourceAccuracy.from_accuracy(0.5, 1),
        }
        posterior = value_posteriors("O", dataset, accuracies, 1)
        assert posterior.probability("v") == pytest.approx(0.5, abs=1e-12)

    def test_missing_accuracy(self):
        dataset = build_dataset([Claim("S1", "O", "v")])
        with pytest.raises(MissingAccuracy):
            value_posteriors("O", dataset, {}, 5)

    def test_domain_overflow(self):
        claims = [Claim(f"S{i}", "O", f"v{i}") for i in range(4)]
        dataset = build_dataset(claims)
        accuracies = {f"S{i}": SourceAccuracy.from_accuracy(0.8, 2) for i in range(4)}
        with pytest.raises(DomainOverflow):
            value_posteriors("O", dataset, accuracies, 2)

    def test_log_path_matches_linear_oracle_randomized(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(1, 10)
            num_voters = rng.randint(1, 6)
            accuracies = [rng.uniform(0.05, 0.95) for _ in range(num_voters)]
            num_values = rng.randint(1, min(num_voters, n + 1))
            votes = {f"v{j}": [] for j in range(num_values)}
            for i in range(num_voters):
                votes[f"v{rng.randrange(num_values)}"].append(i)
            votes = {value: ids for value, ids in votes.items() if ids}
            claims = [
                Claim(f"S{i}", "O", value)
                for value, ids in votes.items()
                for i in ids
            ]
            dataset = build_dataset(claims)
            acc_map = {
                f"S{i}": SourceAccuracy.from_accuracy(a, n, clamp=1e-6)
                for i, a in enumerate(accuracies)
            }
            posterior = value_posteriors("O", dataset, acc_map, n)
            oracle = linear_posterior(accuracies, votes, n)
            for value, expected in oracle.items():
                assert posterior.probability(value) == pytest.approx(expected, abs=1e-12)


class TestFullDomainNormalization:
    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
    )
    @settings(max_examples=200)
    def test_probabilities_sum_to_one(self, n, confidences):
        k = min(len(confidences), n + 1)
        conf_map = {f"v{i}": c for i, c in enumerate(confidences[:k])}
        posterior = posterior_from_confidences(conf_map, n)
        assert posterior.total_probability() == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6, unique=True))
    @settings(max_examples=200)
    def test_probability_increases_with_confidence(self, confidences):
        conf_map = {f"v{i}": c for i, c in enumerate(confidences)}
        posterior = posterior_from_confidences(conf_map, 10)
        ranked_by_conf = sorted(conf_map, key=conf_map.get)
        probs = [posterior.probability(v) for v in ranked_by_conf]
        assert probs == sorted(probs)


class TestConfidenceMonotonicity:
    """Monotonicity of value confidence in voter count and accuracy."""

    def test_confidence_grows_with_voter_count_at_equal_accuracy(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 20)
            accuracy = rng.uniform(1.0 / (1 + n) + 0.02, 0.98)
            score = accuracy_score(accuracy, n, clamp=1e-9)
            sizes = rng.sample(range(1, 21), 2)
            confidences = [score * size for size in sizes]
            assert (confidences[0] < confidences[1]) == (sizes[0] < sizes[1])

    def test_confidence_grows_with_single_source_accuracy(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 20)
            others = [rng.uniform(0.05, 0.95) for _ in range(rng.randint(0, 5))]
            low, high = sorted((rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)))
            if high - low < 1e-9:
                continue
            base = sum(accuracy_score(a, n, clamp=1e-9) for a in others)
            assert base + accuracy_score(low, n, clamp=1e-9) < base + accuracy_score(
                high, n, clamp=1e-9
            )


class TestSelectTruth:
    def test_highest_confidence_wins(self):
        posterior = posterior_from_confidences(
            {"UCI": 5.08, "AT&T": 2.01, "BEA": 1.20}, 5
        )
        assert select_truth(posterior) == "UCI"

    def test_tie_breaks_lexicographically(self):
        posterior = posterior_from_confidences({"b": 3.0, "a": 3.0}, 5)
        assert select_truth(posterior) == "a"

    def test_no_values(self):
        empty = ValuePosterior({}, {}, 0.0, 5)
        with pytest.raises(NoValues):
            select_truth(empty)

    def test_argmax_invariant_under_uniform_rescale(self):
        rng = random.Random(9)
        for _ in range(100):
            conf = {f"v{i}": rng.uniform(-5, 5) for i in range(rng.randint(1, 6))}
            scale = rng.uniform(0.1, 10.0)
            scaled = {v: c * scale for v, c in conf.items()}
            assert select_truth(posterior_from_confidences(conf, 10)) == select_truth(
                posterior_from_confidences(scaled, 10)
            )


def source_accuracy(source, dataset, posteriors):
    """``source_accuracies`` of one source, each value's probability in its slot."""
    probabilities = [
        posteriors[obj].probability(value)
        for obj, votemap in dataset.voters.items()
        for value in votemap
    ]
    return source_accuracies(dataset.source_slots(), probabilities, 5)[source].accuracy


class TestSourceAccuracy:
    def test_mean_of_truth_probabilities(self):
        dataset = build_dataset([Claim("S", "O1", "a"), Claim("S", "O2", "b")])
        posteriors = {
            "O1": posterior_from_confidences({"a": 0.0}, 4),
            "O2": posterior_from_confidences({"b": 0.0}, 4),
        }
        # both values sit at probability 1/5; mean is 0.2
        assert source_accuracy("S", dataset, posteriors) == pytest.approx(0.2)

    def test_two_value_mean(self):
        dataset = build_dataset([Claim("S", "O1", "a"), Claim("S", "O2", "b")])
        posteriors = {
            "O1": ValuePosterior({"a": 1.0}, {"a": 0.8}, 0.04, 5),
            "O2": ValuePosterior({"b": 1.0}, {"b": 0.6}, 0.08, 5),
        }
        assert source_accuracy("S", dataset, posteriors) == pytest.approx(0.7)

    def test_clamped_at_upper_bound(self):
        dataset = build_dataset([Claim("S", "O1", "a")])
        posteriors = {"O1": ValuePosterior({"a": 30.0}, {"a": 0.999999}, 0.0, 5)}
        assert source_accuracy("S", dataset, posteriors) == pytest.approx(0.99)

    def test_empty_source(self):
        with pytest.raises(EmptySource):
            source_accuracies({"S": [0], "T": []}, [0.5], 5)

    def test_top_source_converges_high_on_affiliation_table(
        self, table1_dataset, table1_config
    ):
        report = run(table1_dataset, ModelVariant.ACCUCOPY, table1_config)
        accuracies = {s: a.accuracy for s, a in report.state.accuracies.items()}
        # expected profile near (1, .6, .4, .4, .2); the best source rides
        # the clamp once every one of its values is judged true
        assert accuracies["S1"] >= 0.95
        assert accuracies["S2"] == pytest.approx(0.6, abs=0.05)
        assert accuracies["S3"] == pytest.approx(0.4, abs=0.05)
        assert accuracies["S4"] == pytest.approx(0.4, abs=0.05)
        assert accuracies["S5"] == pytest.approx(0.2, abs=0.05)
