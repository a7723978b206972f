import math
import random
from array import array

import pytest

from truthfuse import (
    CopyEstimate,
    CopyMatrix,
    FusionConfig,
    SourceAccuracy,
    classify_direction,
    detect_all,
)
from truthfuse import vote
from truthfuse.errors import InvalidParameter, MissingInput
from truthfuse.model import link_groups
from truthfuse.vote import discounted_confidences, read_links

from conftest import TABLE1_TRUTHS
from oracles import value_confidence
from worlds import heavy_tailed_world


def matrix_of(entries):
    """entries: {(a, b): (p_indep, p_a_copies_b, p_b_copies_a)} with a < b.

    The matrix holds the pairs in ascending order, as the pair index does.
    """
    pairs = tuple(sorted(entries))
    return CopyMatrix(pairs, [CopyEstimate(*entries[pair]) for pair in pairs])


def placement(voters, matrix, c=1.0, threshold=2 / 3):
    """Every voter's independence factor, the linked voters' in placement order.

    The group is indexed on ``matrix``'s own pairs. Only its linked
    voters are placed; the unlinked ones follow in id order with factor
    1.0, and a group holding no pair keeps every vote in id order.
    """
    group = frozenset(voters)
    groups, _ = link_groups({"O": {"v": group}}, matrix.pairs)
    entry = groups.get(group)
    if entry is None:
        return dict.fromkeys(sorted(group), 1.0)
    links = read_links(matrix, matrix.pairs, threshold)
    order, factors = vote.placement(entry.table, len(entry.linked), links, c)
    placed = {entry.linked[i]: factors[i] for i in order}
    return placed | dict.fromkeys(entry.unlinked, 1.0)


def confidences(votemap, scores, matrix, c, threshold=2 / 3):
    """``discounted_confidences`` on voter groups linked by ``matrix``'s own pairs."""
    tables, _ = link_groups({"O": votemap}, matrix.pairs)
    return discounted_confidences(
        votemap, scores, tables, read_links(matrix, matrix.pairs, threshold), c
    )


def _has_cycle(edges):
    graph = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    visiting, done = set(), set()

    def visit(node):
        if node in done:
            return False
        if node in visiting:
            return True
        visiting.add(node)
        found = any(visit(nxt) for nxt in graph.get(node, ()))
        visiting.discard(node)
        done.add(node)
        return found

    return any(visit(node) for node in list(graph))


class TestClassifyDirection:
    def test_dominant_direction_resolves(self):
        estimate = CopyEstimate(0.2, 0.7, 0.1)
        assert classify_direction("S1", "S2", estimate, 2 / 3) == ("S2", "S1")

    def test_symmetric_pair_stays_undirected(self):
        estimate = CopyEstimate(0.2, 0.4, 0.4)
        assert classify_direction("S1", "S2", estimate, 2 / 3) is None

    def test_independent_pair_is_undirected_zero(self):
        assert classify_direction("S1", "S2", CopyEstimate(1.0, 0.0, 0.0), 2 / 3) is None

    def test_reverse_direction(self):
        estimate = CopyEstimate(0.2, 0.1, 0.7)
        original, copier = classify_direction("S1", "S2", estimate, 2 / 3)
        assert original == "S1"
        assert copier == "S2"


class TestOrderSources:
    def test_original_placed_first(self):
        matrix = matrix_of(
            {
                ("S3", "S4"): (0.1, 0.05, 0.85),  # S4 copies S3
                ("S3", "S5"): (0.1, 0.05, 0.85),  # S5 copies S3
                ("S4", "S5"): (0.2, 0.4, 0.4),
            }
        )
        factors = placement({"S3", "S4", "S5"}, matrix)
        first, second, _ = factors
        assert first == "S3"
        assert factors["S3"] == 1.0
        # at c = 1 the second voter is discounted by S3 alone
        assert factors[second] == pytest.approx(1.0 - 0.9)

    def test_single_voter(self):
        assert placement({"S1"}, matrix_of({})) == {"S1": 1.0}

    def test_empty_matrix_orders_by_id(self):
        assert list(placement({"S3", "S1", "S2"}, matrix_of({}))) == ["S1", "S2", "S3"]

    def test_strongest_undirected_pair_starts(self):
        matrix = matrix_of(
            {
                ("A", "B"): (0.5, 0.25, 0.25),
                ("C", "D"): (0.1, 0.45, 0.45),  # strongest dependence
            }
        )
        assert list(placement({"A", "B", "C", "D"}, matrix))[:2] == ["C", "D"]

    def test_deterministic_for_fixed_inputs(self):
        rng = random.Random(5)
        for _ in range(50):
            sources = [f"S{i}" for i in range(rng.randint(2, 7))]
            entries = {}
            for i, a in enumerate(sources):
                for b in sources[i + 1 :]:
                    if rng.random() < 0.6:
                        p12 = rng.uniform(0, 0.9)
                        p21 = rng.uniform(0, 0.9 - p12)
                        entries[(a, b)] = (1 - p12 - p21, p12, p21)
            matrix = matrix_of(entries)
            first = placement(sources, matrix, 0.8)
            second = placement(list(reversed(sources)), matrix, 0.8)
            assert list(first.items()) == list(second.items())
            order = list(first)
            estimates = dict(matrix.items())
            directions = [
                classify_direction(a, b, estimates[a, b], 2 / 3) for a, b in entries
            ]
            edges = {d for d in directions if d is not None}
            if not _has_cycle(edges):
                # absent demotion, an original always precedes its copier
                for original, copier in edges:
                    assert order.index(original) < order.index(copier)

    def test_direction_cycle_demotes_weakest_edge(self):
        # A copies B, B copies C, C copies A: cycle; weakest edge drops
        matrix = matrix_of(
            {
                ("A", "B"): (0.1, 0.9, 0.0),  # A copies B (strength .9)
                ("B", "C"): (0.2, 0.8, 0.0),  # B copies C (strength .8)
                ("A", "C"): (0.3, 0.0, 0.7),  # C copies A (strength .7, weakest)
            }
        )
        order = list(placement({"A", "B", "C"}, matrix))
        # with the weakest constraint demoted, C precedes B precedes A
        assert order.index("C") < order.index("B")
        assert order.index("B") < order.index("A")


class TestIndependenceFactor:
    def test_empty_pre_set(self):
        assert confidences({"v": frozenset({"S"})}, {"S": 2.0}, matrix_of({}), 0.8) == {
            "v": 2.0
        }

    def test_single_discount(self):
        matrix = matrix_of({("S0", "S1"): (0.5, 0.25, 0.25)})
        assert placement({"S0", "S1"}, matrix, 0.8) == {"S0": 1.0, "S1": pytest.approx(0.6)}
        found = confidences(
            {"v": frozenset({"S0", "S1"})}, {"S0": 1.0, "S1": 1.0}, matrix, 0.8
        )
        assert found == {"v": pytest.approx(1.6)}

    def test_certain_copier_contributes_nothing(self):
        # S0 and S1 both copy S2 with certainty
        matrix = matrix_of(
            {("S0", "S2"): (0.0, 1.0, 0.0), ("S1", "S2"): (0.0, 1.0, 0.0)}
        )
        factors = placement({"S0", "S1", "S2"}, matrix, 1.0)
        assert next(iter(factors)) == "S2"
        assert factors == {"S2": 1.0, "S0": 0.0, "S1": 0.0}
        votemap = {"v": frozenset({"S0", "S1", "S2"})}
        scores = {"S0": 2.0, "S1": 2.0, "S2": 2.0}
        assert confidences(votemap, scores, matrix, 1.0) == {"v": 2.0}

    def test_absent_pairs_contribute_one(self):
        matrix = matrix_of({("S0", "S1"): (0.5, 0.25, 0.25)})
        assert placement({"S0", "S1", "S9"}, matrix, 0.8)["S9"] == 1.0

    def test_bounded_and_non_increasing(self):
        # the placement ignores c, and each factor is a product of
        # 1 - c * p terms, so factors lie in [0, 1] and fall as c grows
        rng = random.Random(6)
        for _ in range(100):
            entries = {}
            pre = [f"P{i}" for i in range(rng.randint(1, 6))]
            for p in pre:
                p12 = rng.uniform(0, 1)
                entries[(p, "X")] = (1 - p12, p12 * 0.5, p12 * 0.5)
            matrix = matrix_of(dict(sorted(entries.items())))
            rates = sorted(rng.uniform(0.1, 1.0) for _ in range(4))
            placements = [placement([*pre, "X"], matrix, c) for c in rates]
            assert len({tuple(factors) for factors in placements}) == 1
            for source in placements[0]:
                factors = [p[source] for p in placements]
                assert all(0.0 <= f <= 1.0 for f in factors)
                assert all(a >= b for a, b in zip(factors, factors[1:]))


class TestValueConfidence:
    def test_single_undiscounted_voter(self):
        assert value_confidence({"S"}, {"S": 2.0149}, {"S": 1.0}) == pytest.approx(2.0149)

    def test_weighted_sum(self):
        confidence = value_confidence(
            {"a", "b"}, {"a": 2.0, "b": 2.0}, {"a": 1.0, "b": 0.5}
        )
        assert confidence == pytest.approx(3.0)

    def test_degenerates_to_vote_count(self):
        voters = {f"S{i}" for i in range(7)}
        scores = {s: 1.0 for s in voters}
        factors = {s: 1.0 for s in voters}
        assert value_confidence(voters, scores, factors) == pytest.approx(7.0)

    def test_missing_input(self):
        with pytest.raises(MissingInput):
            value_confidence({"S"}, {}, {"S": 1.0})


class TestEmptyMatrixEquivalence:
    def test_reproduces_plain_posterior_confidences(self, table1_dataset):
        rng = random.Random(17)
        for _ in range(20):
            accuracies = {
                s: SourceAccuracy.from_accuracy(rng.uniform(0.1, 0.9), 5)
                for s in table1_dataset.sources()
            }
            scores = {s: a.score for s, a in accuracies.items()}
            for votemap in table1_dataset.voters.values():
                discounted = confidences(votemap, scores, matrix_of({}), 0.8)
                assert discounted == {
                    value: math.fsum(scores[s] for s in voters)
                    for value, voters in votemap.items()
                }


class TestDiscountedConfidences:
    @pytest.mark.parametrize("group", [frozenset({"A"}), frozenset({"A", "B"})])
    def test_missing_score(self, group):
        # an unlinked group sums its scores; a linked one is ordered first
        matrix = matrix_of({("A", "B"): (0.5, 0.25, 0.25)})
        with pytest.raises(MissingInput):
            confidences({"v": group}, {"B": 1.0}, matrix, 0.8)

    def test_disagreeing_dependent_source_never_discounts(self):
        # A and B vote different values but are strongly dependent; a vote
        # is only discounted against sources voting the same value
        votemap = {"x": frozenset({"A"}), "y": frozenset({"B"})}
        scores = {"A": 2.0, "B": 2.0}
        matrix = matrix_of({("A", "B"): (0.0, 0.5, 0.5)})
        assert confidences(votemap, scores, matrix, 1.0) == {"x": 2.0, "y": 2.0}


class TestOrderingProtectsOriginal:
    def test_original_factor_ignores_its_copiers(self, table1_dataset):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
        accuracies = {
            s: SourceAccuracy.from_accuracy(0.8, 5) for s in table1_dataset.sources()
        }
        matrix = detect_all(table1_dataset, TABLE1_TRUTHS, accuracies, config)
        # BEA's voters are the copier cluster; the first placed source keeps
        # its whole vote, and every later voter's factor reflects its
        # dependence on the earlier ones
        first, *later = factors = placement(
            {"S3", "S4", "S5"}, matrix, 0.8, config.direction_threshold
        )
        assert factors[first] == 1.0
        for source in later:
            assert factors[source] < 0.5  # strongly discounted: the cluster is flagged


class TestVoterIndex:
    """The pair index's voter groups keep one flat typed table per linked group.

    Tuples per pair (or per partner) doubled the index's memory on a
    dense world; one flat array per group holds it to k'^2 small ints,
    for the group's k' linked voters.
    """

    @pytest.fixture(scope="class")
    def dataset(self):
        dataset, _, _ = heavy_tailed_world(
            num_sources=120, num_objects=200, num_claims=2500, num_copiers=15, seed=4
        )
        return dataset

    def test_one_flat_table_per_linked_group(self, dataset):
        index = dataset.pair_agreements(5)
        pairs = index.pairs
        number = {pair: n for n, pair in enumerate(pairs)}
        sentinel = len(pairs)
        groups = {group for votemap in dataset.voters.values() for group in votemap.values()}
        linked = unlinked = partial = 0
        for group in groups:
            members = sorted(group)
            paired = [
                a for a in members if any((min(a, b), max(a, b)) in number for b in members)
            ]
            if not paired:
                assert group not in index.groups
                unlinked += 1
                continue
            entry = index.groups[group]
            assert entry.linked == tuple(paired)
            assert entry.unlinked == tuple(s for s in members if s not in paired)
            expected = [
                number.get((min(a, b), max(a, b)), sentinel) for a in paired for b in paired
            ]
            assert type(entry.table) is array and entry.table.typecode == "H"
            assert entry.table.tolist() == expected
            linked += 1
            partial += bool(entry.unlinked)
        assert linked and unlinked and partial  # the world exercises every kind
        assert len(index.groups) == linked

    def test_similarity_weights_are_one_flat_array_per_object(self, dataset):
        weights = dataset.similarity_weights()
        for obj, votemap in dataset.voters.items():
            m = len(votemap)
            if m < 2:
                assert obj not in weights
                continue
            table = weights[obj]
            assert type(table) is array and table.typecode == "d"
            assert len(table) == m * (m - 1)

    def test_cached_per_dataset_and_min_overlap(self, dataset):
        index = dataset.pair_agreements(5)
        assert dataset.pair_agreements(5) is index
        assert dataset.pair_agreements(5).groups is index.groups
        assert dataset.pair_agreements(6) is not index
        # similarity does not depend on min_overlap: one map per dataset
        weights = dataset.similarity_weights()
        assert dataset.similarity_weights() is weights
        dataset.pair_agreements(7)
        assert dataset.similarity_weights() is weights

    def test_wide_tables_when_pair_numbers_outgrow_16_bits(self):
        sources = [f"S{i:03d}" for i in range(400)]
        pairs = [(a, b) for i, a in enumerate(sources) for b in sources[i + 1 :]]
        assert len(pairs) > 0xFFFF
        group = frozenset(sources[-3:])
        groups, _ = link_groups({"O": {"v": group}}, pairs)
        table = groups[group].table
        assert table.typecode == "i"
        last = len(pairs) - 1  # the pair of the two largest ids
        assert table[1 * 3 + 2] == table[2 * 3 + 1] == last
        assert table[0] == len(pairs)


class TestReadLinks:
    def test_pairs_in_order_with_a_sentinel(self):
        matrix = matrix_of(
            {
                ("A", "B"): (0.1, 0.8, 0.1),  # A copies B
                ("A", "C"): (0.2, 0.4, 0.4),  # undirected
                ("B", "C"): (0.1, 0.1, 0.8),  # C copies B
            }
        )
        pairs = (("A", "B"), ("A", "C"), ("B", "C"))
        totals, directions = read_links(matrix, pairs, 2 / 3)
        estimates = dict(matrix.items())
        assert totals == [estimates[pair].total_copy_probability for pair in pairs] + [0.0]
        assert list(directions) == [
            vote.FIRST_COPIES,
            vote.UNDIRECTED,
            vote.SECOND_COPIES,
            vote.UNDIRECTED,
        ]

    @pytest.mark.parametrize(
        "pairs",
        [
            (("A", "B"),),  # fewer pairs
            (("A", "C"), ("B", "C")),  # as many, but others
            (("B", "C"), ("A", "B")),  # the same, out of index order
            (("A", "B"), ("B", "C"), ("C", "D")),  # more pairs
        ],
    )
    def test_matrix_must_hold_the_index_pairs(self, pairs):
        matrix = matrix_of({("A", "B"): (0.5, 0.25, 0.25), ("B", "C"): (0.5, 0.25, 0.25)})
        with pytest.raises(InvalidParameter):
            read_links(matrix, pairs, 2 / 3)
