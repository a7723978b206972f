"""The shipped ordering, factors and oscillation pick equal the reference ones.

``oracles.py`` keeps the straightforward versions; these tests assert
exact equality (``==``), so the optimised code changes no float. The
shipped code votes on voter groups linked by the test matrix's own
pairs (``model.link_groups``) and the matrix read in pair order
(``vote.read_links``); the shipped placement order is the order
``vote.placement`` returns. The ordering oracle test places every voter
of a group on its full table (``oracles.full_tables``); the linked-voter
test checks that placing only the linked voters changes no factor and
no relative order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from truthfuse import CopyEstimate, CopyMatrix, FusionConfig, FusionState, ModelVariant, run
from truthfuse import engine
from truthfuse.accuracy import ValuePosterior
from truthfuse.copydetect import EMPTY_COPY_MATRIX
from truthfuse.model import link_groups
from truthfuse.vote import discounted_confidences, placement, read_links

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
    # in ascending pair order, as the pair index numbers its pairs
    ordered = tuple(sorted(pairs))
    estimates = []
    for pair in ordered:
        first, second = pairs[pair]
        estimates.append(CopyEstimate(1.0 - first - second, first, second))
    voters = draw(st.lists(st.sampled_from(pool + ABSENT), min_size=1, unique=True))
    values = draw(st.lists(st.sampled_from("xyz"), min_size=len(voters), max_size=len(voters)))
    votemap: dict[str, set[str]] = {}
    for source, value in zip(voters, values):
        votemap.setdefault(value, set()).add(source)
    c = draw(st.sampled_from([0.8, 1.0, 0.3]))
    return CopyMatrix(ordered, estimates), threshold, voters, votemap, c


def groups_of(voters, votemap):
    """Per object, then per value: the voter groups a world places."""
    return [frozenset(voters)] + [frozenset(group) for group in votemap.values()]


class TestOrderingMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(copy_worlds())
    def test_order_pre_sets_and_factors_identical(self, world):
        matrix, threshold, voters, votemap, c = world
        groups = groups_of(voters, votemap)
        tables = oracles.full_tables({"O": dict(enumerate(groups))}, matrix.pairs)
        links = read_links(matrix, matrix.pairs, threshold)
        estimates = dict(matrix.items())
        for group in groups:
            expected = oracles.order_sources(group, estimates, threshold)
            members = sorted(group)
            table = tables.get(group)
            if table is None:
                # no pair in the matrix: the group is not ordered, every factor is 1.0
                order, factors = range(len(members)), [1.0] * len(members)
            else:
                order, factors = placement(table, len(members), links, c)
            assert tuple(members[i] for i in order) == expected.order
            for i, s in enumerate(members):
                assert factors[i] == oracles.independence_factor(
                    s, expected.pre_sets[s], estimates, c
                )

    @settings(max_examples=400, deadline=None)
    @given(copy_worlds())
    def test_linked_voters_place_as_in_the_full_table(self, world):
        matrix, threshold, voters, votemap, c = world
        groups = {"O": dict(enumerate(groups_of(voters, votemap)))}
        full = oracles.full_tables(groups, matrix.pairs)
        linked, _ = link_groups(groups, matrix.pairs)
        links = read_links(matrix, matrix.pairs, threshold)
        assert linked.keys() == full.keys()
        for group, entry in linked.items():
            members = sorted(group)
            order, factors = placement(full[group], len(members), links, c)
            sub_order, sub_factors = placement(entry.table, len(entry.linked), links, c)
            for i, source in enumerate(entry.linked):
                assert sub_factors[i] == factors[members.index(source)]
            for source in entry.unlinked:
                assert factors[members.index(source)] == 1.0
            assert [entry.linked[i] for i in sub_order] == [
                members[i] for i in order if members[i] in entry.linked
            ]

    @settings(max_examples=400, deadline=None)
    @given(copy_worlds())
    def test_discounted_confidences_identical(self, world):
        matrix, threshold, voters, votemap, c = world
        scores = {s: 0.5 + i for i, s in enumerate(sorted(voters))}
        votemap = {value: frozenset(group) for value, group in votemap.items()}
        tables, _ = link_groups({"O": votemap}, matrix.pairs)
        links = read_links(matrix, matrix.pairs, threshold)
        assert discounted_confidences(
            votemap, scores, tables, links, c
        ) == oracles.discounted_confidences(
            votemap, scores, dict(matrix.items()), c, threshold
        )


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

        # the oracle reads the round's estimates by name, so the round's reading
        # of the matrix is replaced by those estimates and the threshold
        def oracle_voting(votemap, scores, groups, links, c):
            estimates, threshold = links
            return oracles.discounted_confidences(votemap, scores, estimates, c, threshold)

        monkeypatch.setattr(
            engine,
            "read_links",
            lambda matrix, pairs, threshold: (dict(matrix.items()), threshold),
        )
        monkeypatch.setattr(engine, "discounted_confidences", oracle_voting)
        assert run(world, variant, config).to_dict() == shipped


def _state(index, key, confidence):
    posterior = ValuePosterior({key: confidence}, {key: 1.0}, 0.0, 5)
    return FusionState(
        round=index + 1,
        accuracies={},
        posteriors={"O": posterior},
        truths={"O": key},
        copy_matrix=EMPTY_COPY_MATRIX,
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
        history = [(tuple(state.truths.values()), 1.0) for state in states]
        candidates = []
        for i, state in enumerate(states[:-1]):
            engine._keep_candidate(candidates, i, state)
        if history[-1][0] == history[-2][0]:
            if len(history) < 3 or history[-3][0] != history[-1][0]:
                expected = None  # unchanged truths, no cycle to report
            else:
                # truths held for three rounds: an accuracy cycle of the two before
                expected = max(reversed(states[-3:-1]), key=oracles.total_truth_confidence)
        elif history[-1][0] in [f for f, _ in history[:-1]]:
            expected = oracles.best_cycle_state(states)
        else:
            expected = None  # no revisit, no cycle to report
        # accuracies back within tolerance of two rounds before
        start = engine._cycle_start(history, FusionConfig(), 0.0)
        if expected is None:
            assert start is None
        else:
            assert engine._best_cycle_state(candidates, start) is expected
