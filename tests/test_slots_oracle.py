"""A round's lean posteriors and slot-array accuracies equal the reference ones.

``oracles.py`` keeps the per-object posterior, truth pick and per-source
accuracy update as they were before a round laid its value probabilities
out in claim slots (``Dataset.source_slots``) and averaged each source's
slots; these tests assert exact equality (``==``), so the lean routines
change no float and no truth.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from truthfuse import (
    FusionConfig,
    ModelVariant,
    SourceAccuracy,
    WorldSpec,
    generate_world,
    initial_state,
    step_round,
)
from truthfuse.accuracy import normalize_confidences, truth_index
from truthfuse.errors import DomainOverflow

VALUES = [f"v{i}" for i in range(8)]
CONFIDENCES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.0, 40.0]),  # ties, signed zeros, a dominant value
    st.floats(-50.0, 50.0),
)


@st.composite
def confidence_maps(draw):
    """Confidences over some values, inserted in any order."""
    values = draw(st.lists(st.sampled_from(VALUES), min_size=1, unique=True))
    return {value: draw(CONFIDENCES) for value in values}


class TestPosteriorMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(confidence_maps(), st.integers(1, 12))
    def test_posterior_and_truth_identical(self, confidences, n):
        if len(confidences) > n + 1:
            with pytest.raises(DomainOverflow):
                normalize_confidences(list(confidences.values()), n)
            return
        probabilities, share = normalize_confidences(list(confidences.values()), n)
        expected = oracles.posterior_from_confidences(confidences, n)
        assert dict(zip(confidences, probabilities)) == expected.probabilities
        assert share == expected.unasserted_probability
        values = sorted(confidences)  # the engine's votemap order
        truth = values[truth_index([confidences[value] for value in values])]
        assert truth == oracles.select_truth(expected)


@st.composite
def worlds(
    draw, variants=(ModelVariant.ACCU, ModelVariant.ACCUCOPY, ModelVariant.ACCUCOPYSIM)
):
    spec = WorldSpec(
        num_objects=draw(st.integers(5, 30)),
        num_independent_sources=draw(st.integers(2, 8)),
        num_copiers=draw(st.integers(0, 4)),
        true_accuracy_range=(0.3, 0.95),
        copy_rate=0.8,
        n=draw(st.sampled_from([3, 10])),
        coverage=draw(st.sampled_from([0.4, 0.8])),
        seed=draw(st.integers(0, 10_000)),
    )
    variant = draw(st.sampled_from(variants))
    return generate_world(spec).dataset, spec.n, variant


class TestRoundsMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(worlds())
    def test_accuracies_posteriors_and_truths_identical(self, world):
        dataset, n, variant = world
        config = FusionConfig(n=n, min_overlap=2)
        state = initial_state(dataset, config)
        for _ in range(3):
            state = step_round(state, dataset, variant, config)
            for obj, posterior in state.posteriors.items():
                expected = oracles.posterior_from_confidences(posterior.confidences, n)
                assert posterior.probabilities == expected.probabilities
                assert posterior.unasserted_probability == expected.unasserted_probability
                assert state.truths[obj] == oracles.select_truth(expected)
            for source in dataset.sources():
                accuracy = oracles.source_accuracy(
                    source, dataset, state.posteriors, config.accuracy_clamp
                )
                assert state.accuracies[source] == SourceAccuracy.from_accuracy(
                    accuracy, n, config.accuracy_clamp
                )

    # vote takes the round's branch with no copy detection and no
    # similarity, sim the one with similarity but no copy detection; neither
    # moves the accuracies
    @settings(max_examples=40, deadline=None)
    @given(worlds((ModelVariant.VOTE, ModelVariant.SIM)))
    def test_rounds_without_accuracy_updates_identical(self, world):
        dataset, n, variant = world
        config = FusionConfig(n=n, min_overlap=2)
        start = initial_state(dataset, config)
        state = step_round(start, dataset, variant, config)
        for obj, posterior in state.posteriors.items():
            expected = oracles.posterior_from_confidences(posterior.confidences, n)
            assert posterior.probabilities == expected.probabilities
            assert posterior.unasserted_probability == expected.unasserted_probability
            assert state.truths[obj] == oracles.select_truth(expected)
        assert state.accuracies == start.accuracies

    @settings(max_examples=30, deadline=None)
    @given(worlds(tuple(ModelVariant)))
    def test_truth_slots_and_score_match_the_posteriors(self, world):
        dataset, n, variant = world
        config = FusionConfig(n=n, min_overlap=2)
        state = initial_state(dataset, config)
        slot_values = [
            (obj, value) for obj, votemap in dataset.voters.items() for value in votemap
        ]
        for _ in range(2):
            state = step_round(state, dataset, variant, config)
            assert [slot_values[slot] for slot in state.truth_slots] == list(
                state.truths.items()
            )
            assert state.truth_confidence == oracles.total_truth_confidence(state)
