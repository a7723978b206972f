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
    select_truth,
    step_round,
)
from truthfuse.accuracy import posterior_from_confidences
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
                posterior_from_confidences(confidences, n)
            return
        shipped = posterior_from_confidences(confidences, n)
        expected = oracles.posterior_from_confidences(confidences, n)
        assert shipped.confidences == expected.confidences
        assert shipped.probabilities == expected.probabilities
        assert shipped.unasserted_probability == expected.unasserted_probability
        assert select_truth(shipped) == oracles.select_truth(expected)

    def test_maps_keep_the_given_order(self):
        posterior = posterior_from_confidences({"b": 1.0, "a": 2.0}, 5)
        assert list(posterior.confidences) == list(posterior.probabilities) == ["b", "a"]


@st.composite
def worlds(draw):
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
    variant = draw(
        st.sampled_from([ModelVariant.ACCU, ModelVariant.ACCUCOPY, ModelVariant.ACCUCOPYSIM])
    )
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
