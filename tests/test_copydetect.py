import random

import pytest

from truthfuse import (
    Claim,
    FusionConfig,
    PairObservation,
    SourceAccuracy,
    ValuePosterior,
    build_dataset,
    conditional_pair_probs,
    copy_posterior,
    detect_all,
    initial_copy_matrix,
)
from truthfuse.copydetect import EMPTY_COPY_MATRIX, CopyEstimate, CopyMatrix
from truthfuse.errors import InvalidParameter, MissingTruth

import oracles
from conftest import TABLE1_TRUTHS, start_posteriors


def linear_copy_posterior(obs, a1, a2, n, c, alpha):
    """Independent linear-space oracle for the dependence posterior."""
    pt_i = a1 * a2
    pf_i = (1 - a1) * (1 - a2) / n
    pd_i = 1 - pt_i - pf_i

    def likelihood(pt, pf, pd):
        return pt**obs.same_true * pf**obs.same_false * pd**obs.different

    l_ind = likelihood(pt_i, pf_i, pd_i)
    # first copies from second: the second source is the original
    l_first = likelihood(
        a2 * c + pt_i * (1 - c),
        (1 - a2) * c + pf_i * (1 - c),
        pd_i * (1 - c),
    )
    l_second = likelihood(
        a1 * c + pt_i * (1 - c),
        (1 - a1) * c + pf_i * (1 - c),
        pd_i * (1 - c),
    )
    total = alpha * l_ind + (1 - alpha) / 2 * l_first + (1 - alpha) / 2 * l_second
    return (
        alpha * l_ind / total,
        (1 - alpha) / 2 * l_first / total,
        (1 - alpha) / 2 * l_second / total,
    )


class TestConditionalPairProbs:
    def test_worked_same_true_probability(self):
        cond = conditional_pair_probs(0.97, 0.6, 5, 0.8)
        assert cond.same_true_indep == pytest.approx(0.582)

    def test_worked_different_probability(self):
        cond = conditional_pair_probs(0.97, 0.6, 5, 0.8)
        assert cond.different_indep == pytest.approx(0.4156)

    def test_pure_copier_limit(self):
        cond = conditional_pair_probs(0.97, 0.6, 5, 1.0)
        assert cond.same_true_copied == pytest.approx(0.97)
        assert cond.same_false_copied == pytest.approx(0.03)
        assert cond.different_copied == pytest.approx(0.0)

    def test_each_hypothesis_normalizes(self):
        rng = random.Random(3)
        for _ in range(200):
            a1, a2 = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            n, c = rng.randint(1, 100), rng.uniform(0.05, 1.0)
            cond = conditional_pair_probs(a1, a2, n, c)
            assert cond.same_true_indep + cond.same_false_indep + cond.different_indep == pytest.approx(1.0)
            # copy classes leave room for the non-copied different case
            copied_total = cond.same_true_copied + cond.same_false_copied + cond.different_copied
            assert copied_total == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameter):
            conditional_pair_probs(0.0, 0.5, 5, 0.8)
        with pytest.raises(InvalidParameter):
            conditional_pair_probs(0.5, 0.5, 5, 0.0)
        with pytest.raises(InvalidParameter):
            conditional_pair_probs(0.5, 0.5, 0, 0.8)


class TestCopyPosterior:
    def test_true_value_sharers_stay_independent(self):
        # three shared true values and two disagreements leave
        # independence the most likely hypothesis by far
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2)
        obs = PairObservation(3, 0, 2)
        estimate = copy_posterior(obs, 0.97, 0.6, config)
        expected = linear_copy_posterior(obs, 0.97, 0.6, 5, 0.8, 0.5)
        assert estimate.independent == pytest.approx(expected[0], abs=1e-12)
        assert estimate.independent == pytest.approx(0.9144, abs=5e-4)

    def test_empty_observation_returns_prior(self):
        config = FusionConfig(n=5, alpha=0.3, c=0.8, eps=0.2)
        estimate = copy_posterior(PairObservation(0, 0, 0), 0.8, 0.8, config)
        assert estimate.independent == pytest.approx(0.3)
        assert estimate.first_copies_second == pytest.approx(0.35)
        assert estimate.second_copies_first == pytest.approx(0.35)

    def test_shared_false_values_force_copying(self):
        config = FusionConfig(n=100, alpha=0.2, c=0.8, eps=0.2)
        estimate = copy_posterior(PairObservation(2, 3, 0), 0.8, 0.8, config)
        assert estimate.independent < 0.01

    def test_posterior_sums_to_one(self):
        rng = random.Random(11)
        for _ in range(300):
            config = FusionConfig(
                n=rng.randint(1, 100),
                alpha=rng.uniform(0.05, 0.95),
                c=rng.uniform(0.05, 1.0),
                eps=0.2,
            )
            obs = PairObservation(
                rng.randint(0, 30), rng.randint(0, 30), rng.randint(0, 30)
            )
            estimate = copy_posterior(
                obs, rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), config
            )
            total = (
                estimate.independent
                + estimate.first_copies_second
                + estimate.second_copies_first
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_swapping_sources_swaps_directions(self):
        rng = random.Random(12)
        for _ in range(100):
            config = FusionConfig(
                n=rng.randint(1, 50), alpha=rng.uniform(0.1, 0.9), c=rng.uniform(0.1, 1.0), eps=0.2
            )
            obs = PairObservation(rng.randint(0, 10), rng.randint(0, 10), rng.randint(0, 10))
            a1, a2 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            forward = copy_posterior(obs, a1, a2, config)
            backward = copy_posterior(obs, a2, a1, config)
            assert forward.independent == pytest.approx(backward.independent, abs=1e-12)
            assert forward.first_copies_second == pytest.approx(
                backward.second_copies_first, abs=1e-12
            )
            assert forward.second_copies_first == pytest.approx(
                backward.first_copies_second, abs=1e-12
            )

    def test_log_domain_matches_linear_oracle(self):
        rng = random.Random(13)
        for _ in range(300):
            config = FusionConfig(
                n=rng.randint(1, 20), alpha=rng.uniform(0.1, 0.9), c=rng.uniform(0.1, 0.99), eps=0.2
            )
            obs = PairObservation(rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20))
            a1, a2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            estimate = copy_posterior(obs, a1, a2, config)
            expected = linear_copy_posterior(obs, a1, a2, config.n, config.c, config.alpha)
            assert estimate.independent == pytest.approx(expected[0], abs=1e-10)
            assert estimate.first_copies_second == pytest.approx(expected[1], abs=1e-10)
            assert estimate.second_copies_first == pytest.approx(expected[2], abs=1e-10)

    def test_fractional_counts_accepted(self):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2)
        estimate = copy_posterior(PairObservation(2.5, 0.5, 1.0), 0.8, 0.7, config)
        total = (
            estimate.independent
            + estimate.first_copies_second
            + estimate.second_copies_first
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidParameter):
            PairObservation(-1, 0, 0)


class TestCopyEvidenceMonotonicity:
    """Monotonicity of the copy probability in the observation counts.

    Compared through the copying odds p_copy / p_indep, a strictly
    monotone transform of the copy probability that cannot saturate to
    1.0 the way the probability itself does under overwhelming evidence
    (the triple sums to one, so only one side can ever round flat).
    """

    @staticmethod
    def _copy_odds(obs, a1, a2, config):
        estimate = copy_posterior(obs, a1, a2, config)
        return estimate.total_copy_probability / estimate.independent

    def test_more_shared_false_values_increase_copying(self):
        # fixed same-value total and disagreements; trade true for false
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(1, 50)
            config = FusionConfig(
                n=n, alpha=rng.uniform(0.1, 0.9), c=rng.uniform(0.1, 0.99), eps=0.2
            )
            lo = 1.0 / (1 + n) + 0.01
            a1, a2 = rng.uniform(lo, 0.95), rng.uniform(lo, 0.95)
            same_total = rng.randint(1, 20)
            different = rng.randint(0, 10)
            kf_small = rng.randint(0, same_total - 1)
            kf_large = rng.randint(kf_small + 1, same_total)
            low = self._copy_odds(
                PairObservation(same_total - kf_small, kf_small, different), a1, a2, config
            )
            high = self._copy_odds(
                PairObservation(same_total - kf_large, kf_large, different), a1, a2, config
            )
            assert high > low

    def test_more_agreement_increases_copying(self):
        # fixed overlap size; grow kt+kf without shrinking either
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(1, 50)
            config = FusionConfig(
                n=n, alpha=rng.uniform(0.1, 0.9), c=rng.uniform(0.1, 0.99), eps=0.2
            )
            lo = 1.0 / (1 + n) + 0.01
            a1, a2 = rng.uniform(lo, 0.95), rng.uniform(lo, 0.95)
            kt, kf = rng.randint(0, 10), rng.randint(0, 10)
            kd = rng.randint(1, 10)
            grow_true = rng.random() < 0.5
            bigger = PairObservation(kt + (1 if grow_true else 0), kf + (0 if grow_true else 1), kd - 1)
            low = self._copy_odds(PairObservation(kt, kf, kd), a1, a2, config)
            high = self._copy_odds(bigger, a1, a2, config)
            assert high > low

    def test_fewer_disagreements_increase_copying(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 50)
            config = FusionConfig(
                n=n, alpha=rng.uniform(0.1, 0.9), c=rng.uniform(0.1, 0.99), eps=0.2
            )
            lo = 1.0 / (1 + n) + 0.01
            a1, a2 = rng.uniform(lo, 0.95), rng.uniform(lo, 0.95)
            kt, kf = rng.randint(0, 10), rng.randint(0, 10)
            if kt == 0 and kf == 0:
                kt = 1
            kd_small = rng.randint(0, 10)
            kd_large = rng.randint(kd_small + 1, 12)
            low = self._copy_odds(PairObservation(kt, kf, kd_large), a1, a2, config)
            high = self._copy_odds(PairObservation(kt, kf, kd_small), a1, a2, config)
            assert high > low


class TestPairObservation:
    """Table 1's observation counts, as the agreement index and detect_all see them."""

    @staticmethod
    def _assert_counts(dataset, a, b, counts):
        same_true, same_false, different = counts
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
        index = dataset.pair_agreements(config.min_overlap)
        k = index.pairs.index((a, b))
        assert (index.agreed_counts[k], index.different[k]) == (
            same_true + same_false,
            different,
        )
        # distinct accuracies, so the estimate also pins the true/false split
        accuracies = {
            source: SourceAccuracy.from_accuracy(accuracy, 5)
            for source, accuracy in zip(sorted(dataset.sources()), (0.97, 0.6, 0.4, 0.5, 0.3))
        }
        expected = copy_posterior(
            PairObservation(*counts), accuracies[a].accuracy, accuracies[b].accuracy, config
        )
        matrix = detect_all(dataset, TABLE1_TRUTHS, accuracies, config)
        assert dict(matrix.items())[a, b] == expected

    def test_copier_cluster_counts(self, table1_dataset):
        self._assert_counts(table1_dataset, "S3", "S4", (2, 3, 0))

    def test_independent_pair_counts(self, table1_dataset):
        self._assert_counts(table1_dataset, "S1", "S2", (3, 0, 2))

    def test_no_common_objects(self):
        dataset = build_dataset([Claim("A", "O1", "x"), Claim("B", "O2", "y")])
        # even at min_overlap 0, a pair sharing nothing is not indexed
        assert dataset.pair_agreements(0).pairs == ()
        accuracies = {s: SourceAccuracy.from_accuracy(0.8, 5) for s in ("A", "B")}
        config = FusionConfig(n=5, min_overlap=0)
        matrix = detect_all(dataset, {"O1": "x", "O2": "y"}, accuracies, config)
        assert len(matrix) == 0
        assert list(matrix.items()) == []

    def test_missing_truth(self, table1_dataset):
        accuracies = {
            s: SourceAccuracy.from_accuracy(0.8, 5) for s in table1_dataset.sources()
        }
        with pytest.raises(MissingTruth):
            detect_all(table1_dataset, {}, accuracies, FusionConfig(n=5, min_overlap=1))


class TestInitialCopyPosterior:
    """Round-zero copy posteriors, as ``initial_copy_matrix`` weighs them."""

    @staticmethod
    def _closed_form_starts(dataset, config):
        """w^(V_v/N_o) / (sum of w^(V_v'/N_o) + n + 1 - k), w = n(1 - eps)/eps, as posteriors."""
        n, eps = config.n, config.eps
        w = n * (1.0 - eps) / eps
        posteriors = {}
        for obj, votemap in dataset.voters.items():
            voters = sum(len(group) for group in votemap.values())
            powers = {v: w ** (len(group) / voters) for v, group in votemap.items()}
            total = sum(powers.values()) + n + 1 - len(powers)
            probabilities = {v: power / total for v, power in powers.items()}
            posteriors[obj] = ValuePosterior(
                dict.fromkeys(probabilities, 0.0), probabilities, 1.0 / total, n
            )
        return posteriors

    def _assert_matrix_reads(self, dataset, posteriors, config):
        matrix = initial_copy_matrix(dataset, config)
        assert len(matrix) > 0
        for (a, b), estimate in matrix.items():
            expected = oracles.initial_copy_posterior(dataset, posteriors, a, b, config)
            assert estimate.independent == pytest.approx(expected.independent, abs=1e-12)
            assert estimate.first_copies_second == pytest.approx(
                expected.first_copies_second, abs=1e-12
            )
            assert estimate.second_copies_first == pytest.approx(
                expected.second_copies_first, abs=1e-12
            )

    def test_unanimous_values_start_at_one_sources_accuracy(self):
        # one asserted value per object: each starts true with probability 1 - eps
        dataset = build_dataset(
            [Claim(source, f"O{i}", f"v{i}") for source in ("A", "B") for i in range(5)]
        )
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
        starts = self._closed_form_starts(dataset, config)
        shipped = start_posteriors(dataset, config)
        for obj, votemap in dataset.voters.items():
            (value,) = votemap
            assert starts[obj].probability(value) == pytest.approx(1.0 - config.eps, abs=1e-12)
            assert shipped[obj].probability(value) == pytest.approx(1.0 - config.eps, abs=1e-12)
        self._assert_matrix_reads(dataset, starts, config)

    def test_split_objects_start_at_the_closed_form(self, table1_dataset, table1_config):
        starts = self._closed_form_starts(table1_dataset, table1_config)
        # Table 1's 3-of-5 against 2-of-5 split starts near even
        assert starts["Dewitt"].probability("UWisc") == pytest.approx(0.45, abs=0.005)
        assert starts["Dewitt"].probability("MSR") == pytest.approx(0.25, abs=0.005)
        shipped = start_posteriors(table1_dataset, table1_config)
        for obj, posterior in starts.items():
            for value, probability in posterior.probabilities.items():
                assert shipped[obj].probability(value) == pytest.approx(probability, abs=1e-12)
        self._assert_matrix_reads(table1_dataset, starts, table1_config)

    def test_copier_cluster_less_independent_than_honest_pair(self, table1_dataset):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
        estimates = dict(initial_copy_matrix(table1_dataset, config).items())
        assert estimates["S3", "S4"].independent < estimates["S1", "S2"].independent

    def test_round_zero_matrix_holds_each_eligible_pair_estimate(self, table1_dataset):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
        posteriors = start_posteriors(table1_dataset, config)
        matrix = initial_copy_matrix(table1_dataset, config)
        assert len(matrix) == 10
        for (a, b), estimate in matrix.items():
            assert estimate == oracles.initial_copy_posterior(
                table1_dataset, posteriors, a, b, config
            )
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=6)
        assert len(initial_copy_matrix(table1_dataset, config)) == 0

    def test_no_shared_objects_leaves_the_pair_out(self):
        dataset = build_dataset([Claim("A", "O1", "x"), Claim("B", "O2", "y")])
        config = FusionConfig(n=5, alpha=0.4, c=0.8, eps=0.2, min_overlap=0)
        matrix = initial_copy_matrix(dataset, config)
        assert len(matrix) == 0
        assert list(matrix.items()) == []


class TestCopyMatrix:
    """A round's estimates, by position in the pair index."""

    def test_items_pair_each_pair_with_its_estimate_on_every_call(self):
        pairs = (("A", "B"), ("A", "C"))
        estimates = [CopyEstimate(0.2, 0.7, 0.1), CopyEstimate(0.5, 0.25, 0.25)]
        matrix = CopyMatrix(pairs, estimates)
        assert len(matrix) == 2
        assert list(matrix.items()) == list(zip(pairs, estimates))
        assert list(matrix.items()) == list(matrix.items())  # re-iterable

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_estimate_count_must_match_pair_count(self, count):
        pairs = (("A", "B"), ("A", "C"))
        with pytest.raises(InvalidParameter, match="estimates for 2 pairs"):
            CopyMatrix(pairs, [CopyEstimate(1.0, 0.0, 0.0)] * count)

    def test_empty_matrix_holds_no_pairs(self):
        assert len(EMPTY_COPY_MATRIX) == 0
        assert list(EMPTY_COPY_MATRIX.items()) == []

    def test_estimates_are_slotted(self):
        estimate = CopyEstimate(0.2, 0.7, 0.1)
        assert not hasattr(estimate, "__dict__")
        assert estimate.total_copy_probability == 0.7 + 0.1

    @pytest.mark.parametrize("min_overlap", [1, 3, 6])
    def test_both_entry_points_hold_the_pair_index_tuple(self, table1_dataset, min_overlap):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=min_overlap)
        pairs = table1_dataset.pair_agreements(min_overlap).pairs
        accuracies = {
            source: SourceAccuracy.from_accuracy(0.8, 5) for source in table1_dataset.sources()
        }
        assert initial_copy_matrix(table1_dataset, config).pairs is pairs
        assert detect_all(table1_dataset, TABLE1_TRUTHS, accuracies, config).pairs is pairs


class TestDetectAll:
    @staticmethod
    def _uniform_accuracies(dataset, accuracy=0.8, n=5):
        return {
            source: SourceAccuracy.from_accuracy(accuracy, n)
            for source in dataset.sources()
        }

    def test_all_pairs_at_min_overlap_one(self, table1_dataset):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
        accuracies = self._uniform_accuracies(table1_dataset)
        matrix = detect_all(table1_dataset, TABLE1_TRUTHS, accuracies, config)
        assert len(matrix) == 10

    def test_copier_pair_more_dependent_than_honest_pair(self, table1_dataset):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
        accuracies = self._uniform_accuracies(table1_dataset)
        matrix = detect_all(table1_dataset, TABLE1_TRUTHS, accuracies, config)
        estimates = dict(matrix.items())
        assert (
            estimates["S3", "S4"].total_copy_probability
            > estimates["S1", "S2"].total_copy_probability
        )

    def test_min_overlap_above_object_count_empties_matrix(self, table1_dataset):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=10)
        accuracies = self._uniform_accuracies(table1_dataset)
        matrix = detect_all(table1_dataset, TABLE1_TRUTHS, accuracies, config)
        assert len(matrix) == 0
