"""The shipped ordering, factors and oscillation pick equal the reference ones.

``oracles.py`` keeps the straightforward versions; these tests assert
exact equality (``==``), so the optimised code changes no float. The
shipped placement order is the key order of ``vote._group_factors``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from truthfuse import CopyEstimate, CopyMatrix, FusionConfig, FusionState, ModelVariant, run
from truthfuse import engine
from truthfuse.accuracy import ValuePosterior
from truthfuse.copydetect import EMPTY_COPY_MATRIX
from truthfuse.vote import CopyLinks, _group_factors, discounted_confidences

from worlds import heavy_tailed_world

POOL = [f"S{i}" for i in range(8)]
ABSENT = ["X0", "X1"]  # voters that never appear in the matrix
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5]),  # ties between pairs
    st.floats(0.0, 0.5),
)


@st.composite
def pair_estimates(draw, threshold):
    """(first copies second, second copies first) of one pair."""
    kind = draw(st.sampled_from(["zero", "threshold", "directed", "any"]))
    if kind == "zero":
        return 0.0, 0.0
    if kind == "threshold":
        # one direction holds the threshold's share of the total, up to rounding
        total = draw(st.floats(0.0, 1.0))
        first = threshold * total
        pair = (first, total - first)
    elif kind == "directed":
        pair = (draw(st.floats(0.5, 0.95)), draw(st.floats(0.0, 0.05)))
    else:
        pair = (draw(PROBABILITIES), draw(PROBABILITIES))
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def copy_worlds(draw):
    """A copy matrix over part of POOL, voters, and a split into values."""
    threshold = draw(st.sampled_from([2.0 / 3.0, 0.6, 0.9, 1.0]))
    size = draw(st.integers(2, len(POOL)))
    pool = POOL[:size]
    pairs: dict[tuple[str, str], tuple[float, float]] = {}
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
            if draw(st.integers(0, 3)):
                pairs[(a, b)] = draw(pair_estimates(threshold))
    # a directed cycle: each member copies the previous one
    cycle = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=size, unique=True))
    if len(cycle) >= 3:
        for original, copier in zip(cycle, cycle[1:] + cycle[:1]):
            strength = draw(st.sampled_from([0.7, 0.8, 0.9, 0.95]))
            a, b = sorted((original, copier))
            pairs[(a, b)] = (strength, 0.0) if a == copier else (0.0, strength)
    estimates = {}
    for (a, b), (first, second) in pairs.items():
        estimate = CopyEstimate(1.0 - first - second, first, second)
        if draw(st.booleans()):  # stored either way round
            estimates[(a, b)] = estimate
        else:
            estimates[(b, a)] = estimate.swapped()
    voters = draw(st.lists(st.sampled_from(pool + ABSENT), min_size=1, unique=True))
    values = draw(st.lists(st.sampled_from("xyz"), min_size=len(voters), max_size=len(voters)))
    votemap: dict[str, set[str]] = {}
    for source, value in zip(voters, values):
        votemap.setdefault(value, set()).add(source)
    c = draw(st.sampled_from([0.8, 1.0, 0.3]))
    return CopyMatrix(estimates), threshold, voters, votemap, c


class TestOrderingMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(copy_worlds())
    def test_order_pre_sets_and_factors_identical(self, world):
        matrix, threshold, voters, votemap, c = world
        links = CopyLinks(matrix, threshold)
        groups = [set(voters)] + list(votemap.values())  # per object, then per value
        for group in groups:
            expected = oracles.order_sources(group, matrix, threshold)
            factors = _group_factors(group, links, c)
            assert tuple(factors) == expected.order
            for s in expected.order:
                assert factors[s] == oracles.independence_factor(
                    s, expected.pre_sets[s], matrix, c
                )

    @settings(max_examples=400, deadline=None)
    @given(copy_worlds())
    def test_discounted_confidences_identical(self, world):
        matrix, threshold, voters, votemap, c = world
        scores = {s: 0.5 + i for i, s in enumerate(sorted(voters))}
        votemap = {value: frozenset(group) for value, group in votemap.items()}
        assert discounted_confidences(
            votemap, scores, CopyLinks(matrix, threshold), c
        ) == oracles.discounted_confidences(votemap, scores, matrix, c, threshold)


class TestEngineMatchesOracle:
    @pytest.fixture(scope="class")
    def world(self):
        dataset, _, _ = heavy_tailed_world(
            num_sources=120, num_objects=200, num_claims=2500, num_copiers=15, seed=4
        )
        return dataset

    @pytest.mark.parametrize("variant", [ModelVariant.ACCUCOPY, ModelVariant.ACCUCOPYSIM])
    def test_reports_identical_with_oracle_voting(self, world, variant, monkeypatch):
        config = FusionConfig(min_overlap=5, max_rounds=6)
        shipped = run(world, variant, config).to_dict()

        # the oracle reads the round's matrix itself, so the engine's
        # index is replaced by the matrix and threshold it would be built from
        def oracle_voting(votemap, scores, links, c):
            matrix, threshold = links
            return oracles.discounted_confidences(votemap, scores, matrix, c, threshold)

        monkeypatch.setattr(engine, "CopyLinks", lambda matrix, threshold: (matrix, threshold))
        monkeypatch.setattr(engine, "discounted_confidences", oracle_voting)
        assert run(world, variant, config).to_dict() == shipped


def _state(index, fingerprint, confidence):
    posterior = ValuePosterior({"v": confidence}, {"v": 1.0}, 0.0, 5)
    return FusionState(
        round=index + 1,
        accuracies={},
        posteriors={"O": posterior},
        truths={"O": "v"},
        copy_matrix=EMPTY_COPY_MATRIX,
        fingerprint=fingerprint,
    )


class TestCycleStateMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from([1.0, 2.0, 3.0, 2.5])),
            min_size=2,
            max_size=12,
        )
    )
    def test_stack_picks_the_oracle_state(self, rounds):
        states = [_state(i, f, conf) for i, (f, conf) in enumerate(rounds)]
        history = [(state.fingerprint, 1.0) for state in states]
        candidates = []
        for i, state in enumerate(states[:-1]):
            engine._keep_candidate(candidates, i, state)
        if history[-1][0] not in [f for f, _ in history[:-1]]:
            return  # no revisit, no cycle to report
        picked = engine._best_cycle_state(history, candidates)
        assert picked is oracles.best_cycle_state(states)
