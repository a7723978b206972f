"""Copy detection from the agreement index equals the walking classifiers.

``oracles.py`` keeps ``pair_observation`` and ``initial_copy_posterior``
as ``truthfuse.copydetect`` shipped them before copy detection read
``Dataset.pair_agreements``: they walk a pair's shared objects on every
call. The eligible pairs are recomputed here from the sources' claim
maps. These tests assert that ``detect_all`` and ``initial_copy_matrix``
list exactly those pairs, with every estimate equal (``==``) to the
walking one, so the index changes no float, and that a missing truth or
posterior names the same object.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from truthfuse import (
    Claim,
    FusionConfig,
    SourceAccuracy,
    ValuePosterior,
    build_dataset,
    copy_posterior,
    detect_all,
    initial_copy_matrix,
    initial_state,
)
from truthfuse.errors import MissingTruth

from conftest import TABLE1_TRUTHS

SOURCES = [f"S{i}" for i in range(7)]
OBJECTS = [f"O{i:02d}" for i in range(12)]
VALUES = ["a", "b", "c"]
MIN_OVERLAPS = [0, 1, 2, 3, 5, 8]


@st.composite
def claim_worlds(draw):
    """Claims over a small pool; the last source shares no object with the others."""
    claims = []
    for source in SOURCES[:-1]:
        listed = draw(st.lists(st.sampled_from(OBJECTS), unique=True, max_size=len(OBJECTS)))
        claims += [Claim(source, obj, draw(st.sampled_from(VALUES))) for obj in listed]
    if draw(st.booleans()):
        claims.append(Claim(SOURCES[-1], "lonely", "a"))
    if not claims:
        claims.append(Claim(SOURCES[0], OBJECTS[0], "a"))
    return build_dataset(claims)


def _truths(draw, dataset, allow_missing):
    truths = {}
    for obj, votemap in dataset.voters.items():
        # sometimes a value nobody asserts, so every agreement is a shared false value
        choice = draw(st.sampled_from(sorted(votemap) + ["z"]))
        if allow_missing and draw(st.integers(0, 7)) == 0:
            continue
        truths[obj] = choice
    return truths


def _accuracies(draw, dataset):
    return {
        source: SourceAccuracy.from_accuracy(draw(st.floats(0.05, 0.95)), 5)
        for source in dataset.sources()
    }


def _posteriors(draw, dataset, allow_missing):
    posteriors = {}
    for obj, votemap in dataset.voters.items():
        values = sorted(votemap)
        if allow_missing and draw(st.integers(0, 7)) == 0:
            values = values[1:]  # one asserted value has no posterior
            if not values:
                continue
        weights = [draw(st.floats(0.0, 1.0)) for _ in values]
        total = sum(weights) or 1.0
        posteriors[obj] = ValuePosterior(
            confidences={v: 0.0 for v in values},
            probabilities={v: w / total for v, w in zip(values, weights)},
            unasserted_probability=0.0,
            n=5,
        )
    return posteriors


def _eligible(dataset, min_overlap):
    """Pairs (a, b), a < b, sharing at least one and at least ``min_overlap`` objects."""
    claims = dataset.by_source
    sources = sorted(claims)
    return [
        (a, b)
        for i, a in enumerate(sources)
        for b in sources[i + 1 :]
        if len(claims[a].keys() & claims[b].keys()) >= max(1, min_overlap)
    ]


def _outcome(compute):
    """The computed value, or the MissingTruth message it raised."""
    try:
        return compute()
    except MissingTruth as error:
        return ("MissingTruth", str(error))


CONFIGS = st.builds(
    FusionConfig,
    n=st.sampled_from([1, 5, 50]),
    alpha=st.sampled_from([0.2, 0.5]),
    c=st.sampled_from([0.8, 1.0]),
    eps=st.sampled_from([0.2, 0.4]),
    min_overlap=st.sampled_from(MIN_OVERLAPS),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dataset=claim_worlds(), config=CONFIGS)
def test_detect_all_equals_walking_oracle(data, dataset, config):
    truths = _truths(data.draw, dataset, allow_missing=data.draw(st.booleans()))
    accuracies = _accuracies(data.draw, dataset)

    def oracle():
        return {
            (a, b): copy_posterior(
                oracles.pair_observation(dataset, truths, a, b),
                accuracies[a].accuracy,
                accuracies[b].accuracy,
                config,
            )
            for a, b in _eligible(dataset, config.min_overlap)
        }

    def shipped():
        return dict(detect_all(dataset, truths, accuracies, config).items())

    assert _outcome(shipped) == _outcome(oracle)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dataset=claim_worlds(), config=CONFIGS)
def test_initial_copy_matrix_equals_walking_oracle(data, dataset, config):
    posteriors = _posteriors(data.draw, dataset, allow_missing=data.draw(st.booleans()))

    def oracle():
        return {
            (a, b): oracles.initial_copy_posterior(dataset, posteriors, a, b, config)
            for a, b in _eligible(dataset, config.min_overlap)
        }

    def shipped():
        return dict(initial_copy_matrix(dataset, posteriors, config).items())

    assert _outcome(shipped) == _outcome(oracle)


def test_missing_truth_names_the_first_agreed_object():
    claims = [
        Claim(source, obj, "v")
        for source in ("A", "B")
        for obj in ("O1", "O2", "O3")
    ] + [Claim("A", "O0", "x"), Claim("B", "O0", "y")]
    dataset = build_dataset(claims)
    accuracies = {s: SourceAccuracy.from_accuracy(0.8, 5) for s in ("A", "B")}
    truths = {"O0": "x", "O1": "v"}  # O0 differs, so O2 is the first one missing
    with pytest.raises(MissingTruth, match="'O2'"):
        detect_all(dataset, truths, accuracies, FusionConfig(n=5, min_overlap=1))
    with pytest.raises(MissingTruth, match="'O2'"):
        oracles.pair_observation(dataset, truths, "A", "B")


def test_agreement_index_is_built_once_per_min_overlap(table1_dataset):
    first = table1_dataset.pair_agreements(1)
    assert table1_dataset.pair_agreements(1) is first
    assert table1_dataset.pair_agreements(3) is not first
    claims = table1_dataset.by_source
    assert list(first.pairs) == _eligible(table1_dataset, 1)
    for (a, b), agreed, agreed_count, different in zip(
        first.pairs, first.agreed, first.agreed_counts, first.different
    ):
        assert agreed.bit_count() == agreed_count
        assert agreed_count + different == len(claims[a].keys() & claims[b].keys())


def test_copy_matrices_reuse_the_index_tuples(table1_dataset):
    config = FusionConfig(n=5, min_overlap=1)
    pairs = table1_dataset.pair_agreements(1).pairs
    accuracies = {s: SourceAccuracy.from_accuracy(0.8, 5) for s in table1_dataset.sources()}
    posteriors = initial_state(table1_dataset, config).posteriors
    for matrix in (
        detect_all(table1_dataset, TABLE1_TRUTHS, accuracies, config),
        initial_copy_matrix(table1_dataset, posteriors, config),
    ):
        keys = [pair for pair, _ in matrix.items()]
        assert all(key is pair for key, pair in zip(keys, pairs))
        assert len(keys) == len(pairs)
