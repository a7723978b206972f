import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse import (
    ErrorType,
    WorldSpec,
    classify_errors,
    generate_world,
    precision,
    sampled_accuracy,
)
from truthfuse.errors import EmptyGolden, InsufficientOverlap, InvalidParameter, InvalidSpec
from truthfuse.evaluation import accuracy_deviation, edit_distance
from truthfuse.ingest import normalize_author_list


class TestPrecision:
    def test_fraction_of_matches(self):
        golden = {f"o{i}": "t" for i in range(100)}
        truths = {f"o{i}": ("t" if i < 87 else "x") for i in range(100)}
        assert precision(truths, golden) == pytest.approx(0.87)

    def test_perfect_match(self):
        golden = {"a": "x", "b": "y"}
        assert precision(dict(golden), golden) == 1.0

    def test_disjoint_domains(self):
        assert precision({"a": "x"}, {"b": "y"}) == 0.0

    def test_missing_objects_count_as_wrong(self):
        golden = {"a": "x", "b": "y"}
        assert precision({"a": "x"}, golden) == 0.5

    def test_empty_golden(self):
        with pytest.raises(EmptyGolden):
            precision({}, {})

    def test_invariant_under_object_relabeling(self):
        rng = random.Random(31)
        for _ in range(50):
            size = rng.randint(1, 30)
            golden = {f"o{i}": f"v{rng.randrange(3)}" for i in range(size)}
            truths = {f"o{i}": f"v{rng.randrange(3)}" for i in range(size)}
            relabel = {f"o{i}": f"q{i}" for i in range(size)}
            base = precision(truths, golden)
            relabeled = precision(
                {relabel[o]: v for o, v in truths.items()},
                {relabel[o]: v for o, v in golden.items()},
            )
            assert base == relabeled


class TestClassifyErrors:
    def test_missing_author(self):
        errors = classify_errors("jane doe", "john smith; jane doe")
        assert errors == {ErrorType.MISSING_AUTHOR}

    def test_identical_lists(self):
        assert classify_errors("a b; c d", "a b; c d") == set()

    def test_mis_ordering(self):
        assert classify_errors("c d; a b", "a b; c d") == {ErrorType.MIS_ORDERING}

    def test_additional_author(self):
        errors = classify_errors("jane doe; john smith", "jane doe")
        assert errors == {ErrorType.ADDITIONAL_AUTHOR}

    def test_mis_spelling(self):
        errors = classify_errors("jane doee", "jane doe")
        assert errors == {ErrorType.MIS_SPELLING}

    def test_incomplete_name(self):
        errors = classify_errors("doe", "jane doe")
        assert errors == {ErrorType.INCOMPLETE_NAME}

    def test_combined_errors(self):
        errors = classify_errors("jane doee", "jane doe; john smith")
        assert errors == {ErrorType.MIS_SPELLING, ErrorType.MISSING_AUTHOR}

    def test_empty_result_is_all_missing(self):
        assert classify_errors("", "jane doe") == {ErrorType.MISSING_AUTHOR}

    @given(st.text(max_size=50))
    @settings(max_examples=200)
    def test_self_comparison_is_clean(self, raw):
        value = normalize_author_list(raw)
        assert classify_errors(value, value) == set()

    def test_edit_distance(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance("same", "same") == 0


class TestSampledAccuracy:
    @staticmethod
    def _world(seed=0):
        spec = WorldSpec(40, 5, 0, (0.7, 0.9), 0.8, 5, 1.0, seed)
        return generate_world(spec)

    def test_matches_direct_fraction(self):
        world = self._world()
        golden = world.golden
        source = "ind000"
        claims = world.dataset.by_source[source]
        expected = sum(
            1 for obj, value in claims.items() if golden[obj] == value
        ) / len(claims)
        assert sampled_accuracy(source, world.dataset, golden) == pytest.approx(expected)

    def test_insufficient_overlap(self):
        world = self._world()
        golden = {obj: world.golden[obj] for obj in list(world.golden)[:5]}
        with pytest.raises(InsufficientOverlap):
            sampled_accuracy("ind000", world.dataset, golden, min_golden_objects=10)

    def test_lower_threshold_allows_small_samples(self):
        world = self._world()
        golden = {obj: world.golden[obj] for obj in list(world.golden)[:10]}
        value = sampled_accuracy("ind000", world.dataset, golden, min_golden_objects=5)
        assert 0.0 <= value <= 1.0

    def test_negative_minimum_rejected(self):
        # the source lists none of the golden objects: a negative minimum
        # would otherwise admit an empty sample
        world = self._world()
        golden = {"elsewhere": "x"}
        with pytest.raises(InvalidParameter, match="-1"):
            sampled_accuracy("ind000", world.dataset, golden, min_golden_objects=-1)

    def test_accuracy_deviation_report(self):
        world = self._world()
        computed = {source: 0.8 for source in world.dataset.sources()}
        rows, average = accuracy_deviation(computed, world.dataset, world.golden)
        assert set(rows) == set(world.dataset.sources())
        expected = [abs(0.8 - sampled) for _, sampled in rows.values()]
        assert average == pytest.approx(math.fsum(expected) / len(expected))

    def test_accuracy_deviation_without_an_eligible_source_raises(self):
        # every source asserts all 40 golden objects, none more than 40
        world = self._world()
        computed = {source: 0.8 for source in world.dataset.sources()}
        with pytest.raises(InsufficientOverlap, match="more than 40 golden objects"):
            accuracy_deviation(computed, world.dataset, world.golden, min_golden_objects=40)
        accuracy_deviation(computed, world.dataset, world.golden, min_golden_objects=39)

    def test_accuracy_deviation_names_a_negative_minimum_first(self):
        world = self._world()
        with pytest.raises(InvalidParameter, match="-1"):
            accuracy_deviation({}, world.dataset, world.golden, min_golden_objects=-1)


class TestGenerateWorld:
    def test_no_copiers_means_empty_graph(self):
        world = generate_world(WorldSpec(10, 3, 0, (0.7, 0.9), 0.8, 5, 1.0, 1))
        assert world.copy_graph == ()

    def test_perfect_sources_match_golden(self):
        world = generate_world(WorldSpec(20, 4, 0, (1.0, 1.0), 0.8, 5, 1.0, 2))
        for source in world.dataset.sources():
            for obj, value in world.dataset.by_source[source].items():
                assert value == world.golden[obj]

    def test_deterministic_per_seed(self):
        spec = WorldSpec(25, 6, 3, (0.7, 0.9), 0.8, 6, 0.8, 7)
        first = generate_world(spec)
        second = generate_world(spec)
        assert first.dataset.claims == second.dataset.claims
        assert first.golden == second.golden
        assert first.copy_graph == second.copy_graph

    def test_different_seeds_differ(self):
        base = WorldSpec(25, 6, 3, (0.7, 0.9), 0.8, 6, 0.8, 7)
        other = WorldSpec(25, 6, 3, (0.7, 0.9), 0.8, 6, 0.8, 8)
        assert generate_world(base).dataset.claims != generate_world(other).dataset.claims

    def test_empirical_accuracy_tracks_configured(self):
        world = generate_world(WorldSpec(100, 10, 5, (0.7, 0.9), 0.8, 10, 0.8, 7))
        for source in (s for s in world.dataset.sources() if s.startswith("ind")):
            claims = world.dataset.by_source[source]
            empirical = sum(
                1 for obj, value in claims.items() if world.golden[obj] == value
            ) / len(claims)
            assert empirical == pytest.approx(world.true_accuracies[source], abs=0.1)

    def test_copier_disagreement_rate_matches_model(self):
        # a copier differs from its original only when it did not copy
        # and its independent draw landed elsewhere; check the binomial
        # expectation within three standard deviations
        c = 0.8
        outside = 0
        checked = 0
        for seed in range(6):
            spec = WorldSpec(200, 6, 3, (0.7, 0.9), c, 8, 1.0, seed)
            world = generate_world(spec)
            for copier, original in world.copy_graph:
                mine = world.dataset.by_source[copier]
                theirs = world.dataset.by_source[original]
                shared = [obj for obj in mine if obj in theirs]
                differing = sum(1 for obj in shared if mine[obj] != theirs[obj])
                a1 = world.true_accuracies[copier]
                a2 = world.true_accuracies[original]
                p_different = 1 - a1 * a2 - (1 - a1) * (1 - a2) / spec.n
                rate = (1 - c) * p_different
                expected = len(shared) * rate
                sigma = math.sqrt(len(shared) * rate * (1 - rate))
                checked += 1
                if abs(differing - expected) > 3 * sigma:
                    outside += 1
        assert checked == 18
        assert outside == 0

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            generate_world(WorldSpec(0, 3, 0, (0.7, 0.9), 0.8, 5, 1.0, 1))
        with pytest.raises(InvalidSpec):
            generate_world(WorldSpec(10, 3, 0, (0.0, 0.9), 0.8, 5, 1.0, 1))
        with pytest.raises(InvalidSpec):
            generate_world(WorldSpec(10, 3, 0, (0.7, 0.9), 0.8, 5, 1.5, 1))

    def test_distinct_originals_when_possible(self):
        world = generate_world(WorldSpec(20, 8, 5, (0.7, 0.9), 0.8, 5, 1.0, 3))
        originals = [original for _, original in world.copy_graph]
        assert len(set(originals)) == len(originals)
