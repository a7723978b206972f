"""Copy detection from the agreement index equals the walking classifiers.

``oracles.py`` keeps ``pair_observation`` and ``initial_copy_posterior``
as ``truthfuse.copydetect`` shipped them before copy detection read
``Dataset.pair_agreements``: they walk a pair's shared objects on every
call. The eligible pairs are recomputed here from the sources' claim
maps. These tests assert that ``detect_all`` and ``initial_copy_matrix``
list exactly those pairs, with every estimate equal (``==``) to the
walking one, so the index changes no float, and that a missing truth
names the same object, as does a domain too small for an object's values
in round zero. The index itself is checked against a claim walk:
its pairs, agreed masks and counts. Round zero's oracle reads each
value's start, one source's worth of its object's votes, from
``conftest.start_posteriors``.
``copy_posterior`` equals the oracle's conditional-probability path on
any counts, zero and fractional ones included, and at ``c = 1``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from truthfuse import (
    Claim,
    FusionConfig,
    PairObservation,
    SourceAccuracy,
    build_dataset,
    copy_posterior,
    detect_all,
    initial_copy_matrix,
)
from truthfuse.errors import DomainOverflow, MissingTruth

from conftest import TABLE1_TRUTHS, start_posteriors

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
    """The computed value, or the name and message of the input error it raised."""
    try:
        return compute()
    except (DomainOverflow, MissingTruth) as error:
        return (type(error).__name__, str(error))


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
            (a, b): oracles.copy_posterior(
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


COUNTS = st.one_of(
    st.just(0), st.integers(0, 40), st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False)
)
ACCURACIES = st.one_of(st.sampled_from([0.01, 0.5, 0.99]), st.floats(0.001, 0.999))


@settings(max_examples=300, deadline=None)
@given(
    counts=st.tuples(COUNTS, COUNTS, COUNTS),
    a1=ACCURACIES,
    a2=ACCURACIES,
    config=st.builds(
        FusionConfig,
        n=st.sampled_from([1, 5, 100]),
        alpha=st.sampled_from([0.2, 0.5, 0.9]),
        c=st.one_of(st.just(1.0), st.sampled_from([0.2, 0.8]), st.floats(0.01, 1.0)),
    ),
)
@example(counts=(0, 0, 0), a1=0.8, a2=0.6, config=FusionConfig(n=5))
@example(counts=(3, 2, 0), a1=0.8, a2=0.6, config=FusionConfig(n=5, c=1.0))
@example(counts=(3, 0, 2), a1=0.97, a2=0.6, config=FusionConfig(n=5, c=1.0))
@example(counts=(2.5, 0.5, 1.0), a1=0.8, a2=0.7, config=FusionConfig(n=5))
def test_copy_posterior_equals_conditional_oracle(counts, a1, a2, config):
    obs = PairObservation(*counts)
    assert copy_posterior(obs, a1, a2, config) == oracles.copy_posterior(obs, a1, a2, config)


@settings(max_examples=100, deadline=None)
@given(dataset=claim_worlds(), config=CONFIGS)
def test_initial_copy_matrix_equals_walking_oracle(dataset, config):
    # an object with more values than the domain holds has no start: both refuse it
    def oracle():
        posteriors = start_posteriors(dataset, config)
        return {
            (a, b): oracles.initial_copy_posterior(dataset, posteriors, a, b, config)
            for a, b in _eligible(dataset, config.min_overlap)
        }

    def shipped():
        return dict(initial_copy_matrix(dataset, config).items())

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


@settings(max_examples=100, deadline=None)
@given(dataset=claim_worlds())
def test_agreement_index_is_built_once_per_min_overlap(dataset):
    claims = dataset.by_source
    objects = dataset.objects()
    built = []
    for min_overlap in MIN_OVERLAPS:
        index = dataset.pair_agreements(min_overlap)
        assert dataset.pair_agreements(min_overlap) is index
        assert all(index is not other for other in built)
        built.append(index)
        assert list(index.pairs) == _eligible(dataset, min_overlap)
        for (a, b), agreed, agreed_count, different in zip(
            index.pairs, index.agreed, index.agreed_counts, index.different
        ):
            shared = claims[a].keys() & claims[b].keys()
            same = {obj for obj in shared if claims[a][obj] == claims[b][obj]}
            assert {obj for i, obj in enumerate(objects) if agreed >> i & 1} == same
            assert agreed.bit_count() == agreed_count
            assert agreed_count + different == len(shared)


def test_copy_matrices_reuse_the_index_tuples(table1_dataset):
    config = FusionConfig(n=5, min_overlap=1)
    pairs = table1_dataset.pair_agreements(1).pairs
    accuracies = {s: SourceAccuracy.from_accuracy(0.8, 5) for s in table1_dataset.sources()}
    for matrix in (
        detect_all(table1_dataset, TABLE1_TRUTHS, accuracies, config),
        initial_copy_matrix(table1_dataset, config),
    ):
        keys = [pair for pair, _ in matrix.items()]
        assert all(key is pair for key, pair in zip(keys, pairs))
        assert len(keys) == len(pairs)
