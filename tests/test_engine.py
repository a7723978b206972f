import dataclasses
import json
import math

import pytest

from truthfuse import engine
from truthfuse import (
    Claim,
    FusionConfig,
    ModelVariant,
    SourceAccuracy,
    Termination,
    WorldSpec,
    build_dataset,
    check_termination,
    generate_world,
    initial_state,
    precision,
    run,
    step_round,
)
from truthfuse.errors import InvalidConfig
from truthfuse.evaluation import accuracy_deviation

import oracles
from conftest import TABLE1_TRUTHS, table1_claims
from worlds import accuracy_cycle_world, copied_bad_source_world


class TestVariants:
    def test_vote_matches_majority(self, table1_dataset, table1_config):
        report = run(table1_dataset, ModelVariant.VOTE, table1_config)
        assert dict(report.truths) == {
            "Stonebraker": "MIT",
            "Dewitt": "UWisc",
            "Bernstein": "MSR",
            "Carey": "BEA",
            "Halevy": "UW",
        }
        assert precision(report.truths, TABLE1_TRUTHS) == pytest.approx(0.4)
        assert report.rounds_run == 1
        assert report.termination is Termination.CONVERGED

    def test_accucopy_recovers_all_truths(self, table1_dataset, table1_config):
        report = run(table1_dataset, ModelVariant.ACCUCOPY, table1_config)
        assert dict(report.truths) == TABLE1_TRUTHS
        assert precision(report.truths, TABLE1_TRUTHS) == 1.0

    def test_single_accu_round_equals_vote(self, table1_dataset):
        config = FusionConfig(
            n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1, stability_tol=math.inf
        )
        accu = run(table1_dataset, ModelVariant.ACCU, config)
        vote = run(table1_dataset, ModelVariant.VOTE, config)
        assert accu.rounds_run == 1
        assert accu.termination is Termination.CONVERGED
        assert dict(accu.truths) == dict(vote.truths)

    def test_copy_keeps_accuracies_frozen(self, table1_dataset, table1_config):
        report = run(table1_dataset, ModelVariant.COPY, table1_config)
        initial = table1_config.initial_accuracy
        assert all(
            acc.accuracy == pytest.approx(initial)
            for acc in report.state.accuracies.values()
        )
        assert all(delta == 0.0 for delta in report.accuracy_trajectory)
        assert report.rounds_run >= 2

    def test_copy_beats_vote_on_affiliation_table(self, table1_dataset, table1_config):
        vote = run(table1_dataset, ModelVariant.VOTE, table1_config)
        copy = run(table1_dataset, ModelVariant.COPY, table1_config)
        assert precision(copy.truths, TABLE1_TRUTHS) > precision(vote.truths, TABLE1_TRUTHS)

    def test_sim_runs_single_round(self, table1_dataset, table1_config):
        report = run(table1_dataset, ModelVariant.SIM, table1_config)
        assert report.rounds_run == 1
        assert set(report.truths) == set(TABLE1_TRUTHS)

    def test_accucopysim_matches_accucopy_on_dissimilar_values(
        self, table1_dataset, table1_config
    ):
        # affiliation strings share almost no 2-grams, so similarity
        # propagation barely moves the confidences here
        plain = run(table1_dataset, ModelVariant.ACCUCOPY, table1_config)
        with_sim = run(table1_dataset, ModelVariant.ACCUCOPYSIM, table1_config)
        assert dict(with_sim.truths) == dict(plain.truths)

    def test_empty_dataset_rejected(self, table1_config):
        with pytest.raises(InvalidConfig):
            run(build_dataset([]), ModelVariant.VOTE, table1_config)

    def test_variant_parsing(self):
        assert ModelVariant.from_string("AccuCopy") is ModelVariant.ACCUCOPY
        with pytest.raises(InvalidConfig):
            ModelVariant.from_string("votes")


class TestStepRound:
    def test_round_zero_state_holds_only_the_starting_accuracies(
        self, table1_dataset, table1_config
    ):
        state = initial_state(table1_dataset, table1_config)
        assert state.round == 0
        assert {s: a.accuracy for s, a in state.accuracies.items()} == dict.fromkeys(
            table1_dataset.sources(), table1_config.initial_accuracy
        )
        assert state.posteriors == {} and state.truths == {}
        assert len(state.copy_matrix) == 0

    def test_round_zero_flags_copier_cluster(self, table1_dataset, table1_config):
        state = initial_state(table1_dataset, table1_config)
        after = step_round(state, table1_dataset, ModelVariant.ACCUCOPY, table1_config)
        assert after.round == 1
        estimates = dict(after.copy_matrix.items())
        honest = estimates["S1", "S2"].independent
        for pair in (("S3", "S4"), ("S3", "S5"), ("S4", "S5")):
            assert estimates[pair].independent < honest

    def test_empty_dataset_returns_state_unchanged(self, table1_config):
        empty = build_dataset([])
        state = initial_state(empty, table1_config)
        assert step_round(state, empty, ModelVariant.ACCUCOPY, table1_config) is state

    def test_similarity_variant_propagates_similarity(self, table1_config):
        # "abcd" and "abce" share half of their 2-grams
        dataset = build_dataset(
            [Claim("S1", "o", "abcd"), Claim("S2", "o", "abcd"), Claim("S3", "o", "abce")]
        )
        state = initial_state(dataset, table1_config)
        plain = step_round(state, dataset, ModelVariant.VOTE, table1_config).posteriors["o"]
        with_sim = step_round(state, dataset, ModelVariant.SIM, table1_config).posteriors["o"]
        assert with_sim.confidence("abce") == pytest.approx(
            plain.confidence("abce") + table1_config.rho * 0.5 * plain.confidence("abcd")
        )

    def test_copy_round_preserves_accuracies(self, table1_dataset, table1_config):
        state = initial_state(table1_dataset, table1_config)
        after = step_round(state, table1_dataset, ModelVariant.COPY, table1_config)
        assert after.accuracies == state.accuracies

    def test_truths_follow_posterior_argmax(self, table1_dataset, table1_config):
        from truthfuse.accuracy import truth_index

        state = initial_state(table1_dataset, table1_config)
        for _ in range(3):
            state = step_round(state, table1_dataset, ModelVariant.ACCUCOPY, table1_config)
            for obj, value in state.truths.items():
                confidences = state.posteriors[obj].confidences
                values = sorted(confidences)
                assert value == values[truth_index([confidences[v] for v in values])]

    def test_domain_overflow_names_the_object(self):
        from truthfuse.errors import DomainOverflow

        dataset = build_dataset([Claim(f"S{i}", "O", f"v{i}") for i in range(4)])
        config = FusionConfig(n=2)
        with pytest.raises(DomainOverflow) as raised:
            step_round(initial_state(dataset, config), dataset, ModelVariant.ACCU, config)
        assert str(raised.value) == (
            "4 distinct values asserted for object 'O' but the domain holds only 3"
        )


class TestPosteriorsBuiltOnce:
    @staticmethod
    def _count_posteriors(monkeypatch):
        from truthfuse import ValuePosterior

        built = []
        init = ValuePosterior.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ValuePosterior, "__init__", counting)
        return built

    def test_a_run_builds_one_posterior_per_object(self, monkeypatch):
        world = generate_world(WorldSpec(40, 6, 3, (0.4, 0.9), 0.8, 10, 0.7, seed=5))
        built = self._count_posteriors(monkeypatch)
        report = run(world.dataset, ModelVariant.ACCUCOPY, FusionConfig(min_overlap=2))
        assert report.rounds_run > 1
        assert built == []
        report.to_dict()
        report.to_dict()
        assert len(built) == len(world.dataset.objects())

    def test_a_round_whose_posteriors_are_not_read_builds_none(
        self, table1_dataset, table1_config, monkeypatch
    ):
        built = self._count_posteriors(monkeypatch)
        state = initial_state(table1_dataset, table1_config)
        for _ in range(3):
            state = step_round(state, table1_dataset, ModelVariant.ACCUCOPYSIM, table1_config)
        assert state.truths and built == []


class TestCheckTermination:
    def test_converged_on_small_delta(self):
        config = FusionConfig(stability_tol=1e-6)
        history = [("f1", 0.3), ("f2", 0.05), ("f3", 1e-9)]
        assert check_termination(history, config) is Termination.CONVERGED

    def test_period_two_cycle_is_oscillation(self):
        config = FusionConfig(stability_tol=1e-6)
        history = [("f1", 0.5), ("f2", 0.5), ("f1", 0.5), ("f2", 0.5)]
        assert check_termination(history, config) is Termination.OSCILLATION

    def test_cycle_detected_at_first_revisit(self):
        config = FusionConfig(stability_tol=1e-6)
        history = [("f1", 0.5), ("f2", 0.5), ("f1", 0.5)]
        assert check_termination(history, config) is Termination.OSCILLATION

    def test_stable_truths_are_not_oscillation(self):
        config = FusionConfig(stability_tol=1e-9)
        history = [("f1", 0.5), ("f1", 0.5), ("f1", 0.5)]
        assert check_termination(history, config) is Termination.CONTINUE

    def test_max_rounds_cap(self):
        config = FusionConfig(stability_tol=1e-9, max_rounds=100)
        history = [(f"f{i}", 0.5) for i in range(100)]
        assert check_termination(history, config) is Termination.MAX_ROUNDS

    def test_continue_otherwise(self):
        config = FusionConfig(stability_tol=1e-6)
        history = [("f1", 0.5), ("f2", 0.4)]
        assert check_termination(history, config) is Termination.CONTINUE

    def test_accuracies_back_to_two_rounds_before_are_oscillation(self):
        config = FusionConfig(stability_tol=1e-6)
        history = [("f1", 0.5), ("f1", 0.5), ("f1", 0.5)]
        assert check_termination(history, config, 1e-7) is Termination.OSCILLATION
        assert check_termination(history, config, 1e-5) is Termination.CONTINUE
        assert check_termination(history, config) is Termination.CONTINUE

    def test_accuracy_cycle_needs_three_rounds_of_unchanged_truths(self):
        config = FusionConfig(stability_tol=1e-6)
        assert check_termination([("f1", 0.5), ("f1", 0.5)], config, 0.0) is Termination.CONTINUE
        history = [("f2", 0.5), ("f1", 0.5), ("f1", 0.5)]
        assert check_termination(history, config, 0.0) is Termination.CONTINUE


def _table1_world():
    return build_dataset(table1_claims()), FusionConfig(
        n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1
    )


def _copy_world():
    # frozen accuracies; the truths still change in round 2 and repeat in round 3
    spec = WorldSpec(20, 5, 2, (0.6, 0.9), 0.7, 4, 0.9, seed=5)
    return generate_world(spec).dataset, FusionConfig(n=4, min_overlap=3)


class TestRoundLoop:
    """What ends a run and what it counts, seen through ``run`` alone."""

    @pytest.mark.parametrize(
        "variant, world",
        [(ModelVariant.ACCUCOPY, _table1_world), (ModelVariant.COPY, _copy_world)],
        ids=["accucopy", "copy"],
    )
    def test_cap_ends_a_run_that_is_still_moving(self, variant, world):
        dataset, config = world()
        free = run(dataset, variant, config)
        assert free.termination is Termination.CONVERGED
        assert free.rounds_run >= 3
        state = initial_state(dataset, config)
        for cap in range(1, free.rounds_run):
            state = step_round(state, dataset, variant, config)
            report = run(dataset, variant, dataclasses.replace(config, max_rounds=cap))
            assert report.rounds_run == cap
            assert report.termination is Termination.MAX_ROUNDS
            assert report.state.truths == state.truths
            assert report.accuracy_trajectory == free.accuracy_trajectory[:cap]

    @pytest.mark.parametrize("stability_tol", [None, 0.0], ids=["default-tol", "zero-tol"])
    @pytest.mark.parametrize("variant", [ModelVariant.VOTE, ModelVariant.SIM])
    @pytest.mark.parametrize("max_rounds", [1, 2, 100])
    def test_single_round_variants_converge_after_one_round(
        self, variant, max_rounds, stability_tol
    ):
        # their accuracies never move, so round one's change is exactly 0.0
        dataset, config = _table1_world()
        config = dataclasses.replace(config, max_rounds=max_rounds)
        if stability_tol is not None:
            config = dataclasses.replace(config, stability_tol=stability_tol)
        report = run(dataset, variant, config)
        assert report.rounds_run == 1
        assert report.termination is Termination.CONVERGED
        assert report.accuracy_trajectory == (0.0,)

    @pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize(
        "world", [_table1_world, accuracy_cycle_world], ids=["table1", "accuracy-cycle"]
    )
    def test_ops_are_charged_once_per_round(self, variant, world):
        dataset, config = world()
        report = run(dataset, variant, config)
        assert report.ops_count == report.rounds_run * engine._round_ops(
            dataset, config, variant
        )
        assert report.ops_count > 0


class TestCopiersOfABadSource:
    """The paper's central claim where majority voting loses.

    Ten copiers repeat a source that is right only 30% of the time, so
    most objects' majority is the bad source's value. Copy-aware fusion
    discounts the copied votes; accuracy estimation alone trusts the
    majority and learns the copiers' group as the accurate one.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_accucopy_beats_vote_and_accu_and_flags_each_copier(self, seed):
        dataset, golden, edges, config = copied_bad_source_world(seed)
        scores = {
            variant: precision(run(dataset, variant, config).truths, golden)
            for variant in (ModelVariant.VOTE, ModelVariant.ACCU)
        }
        report = run(dataset, ModelVariant.ACCUCOPY, config)
        accucopy = precision(report.truths, golden)
        assert accucopy >= scores[ModelVariant.VOTE] + 0.3
        assert accucopy > scores[ModelVariant.ACCU]
        independence = {
            frozenset(pair): estimate.independent
            for pair, estimate in report.state.copy_matrix.items()
        }
        # copier-copier pairs are not asserted on: co-copying is not told apart yet
        for copier, original in edges:
            assert independence[frozenset((copier, original))] < 0.5


class TestDenseWorlds:
    """Round zero where voting wins: ~50-voter truths among up to 17 values.

    Sixty independents and twenty copiers each list 80% of 100 objects,
    so every pair is eligible and a true value's group holds ~50 voters.
    A shared true value must not read as a shared false one: only the
    copy edges get flagged, and the reported accuracies match the
    sampled ones.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_accucopy_flags_the_copy_edges_and_learns_the_accuracies(self, seed):
        world = generate_world(WorldSpec(100, 60, 20, (0.7, 0.9), 0.8, 50, 0.8, seed=seed))
        config = FusionConfig(n=50)
        report = run(world.dataset, ModelVariant.ACCUCOPY, config)
        vote = run(world.dataset, ModelVariant.VOTE, config)
        flagged = [pair for pair, estimate in report.state.copy_matrix.items()
                   if estimate.independent < 0.5]
        assert len(flagged) <= 2 * len(world.copy_graph)
        assert precision(report.truths, world.golden) >= precision(vote.truths, world.golden)
        computed = {source: acc.accuracy for source, acc in report.state.accuracies.items()}
        _, deviation = accuracy_deviation(computed, world.dataset, world.golden)
        assert deviation <= 0.05


class TestDeterminism:
    def test_reports_are_bit_identical(self, table1_dataset, table1_config):
        first = run(table1_dataset, ModelVariant.ACCUCOPY, table1_config)
        second = run(table1_dataset, ModelVariant.ACCUCOPY, table1_config)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_generated_world_runs_deterministically(self):
        spec = WorldSpec(30, 6, 2, (0.7, 0.9), 0.8, 8, 0.9, seed=3)
        config = FusionConfig(n=8, min_overlap=5)
        world = generate_world(spec)
        first = run(world.dataset, ModelVariant.ACCUCOPY, config)
        second = run(world.dataset, ModelVariant.ACCUCOPY, config)
        assert first.to_dict() == second.to_dict()


class TestFrozenAccuracyConvergence:
    def test_copy_variant_terminates_within_decision_bound(self):
        # truth decisions under frozen accuracy settle within
        # 2 * objects * max-values-per-object rounds
        for seed in range(20):
            spec = WorldSpec(
                num_objects=20,
                num_independent_sources=5,
                num_copiers=2,
                true_accuracy_range=(0.6, 0.9),
                copy_rate=0.7,
                n=4,
                coverage=0.9,
                seed=seed,
            )
            world = generate_world(spec)
            n0 = max(len(votemap) for votemap in world.dataset.voters.values())
            bound = 2 * len(world.dataset.objects()) * n0
            config = FusionConfig(n=4, min_overlap=3, max_rounds=bound + 5)
            report = run(world.dataset, ModelVariant.COPY, config)
            assert report.termination is not Termination.MAX_ROUNDS
            assert report.rounds_run <= bound


class TestCopierFreeConsistency:
    def test_accucopy_matches_accu_without_copiers(self):
        # with nobody copying, pair posteriors overwhelmingly favor
        # independence and the discounts vanish, so copy detection must
        # not change the selected truths on almost every seed
        agreements = 0
        seeds = range(100)
        for seed in seeds:
            spec = WorldSpec(
                num_objects=100,
                num_independent_sources=10,
                num_copiers=0,
                true_accuracy_range=(0.7, 0.9),
                copy_rate=0.8,
                n=10,
                coverage=0.8,
                seed=seed,
            )
            world = generate_world(spec)
            config = FusionConfig(n=10, min_overlap=10)
            accu = run(world.dataset, ModelVariant.ACCU, config)
            accucopy = run(world.dataset, ModelVariant.ACCUCOPY, config)
            if dict(accu.truths) == dict(accucopy.truths):
                agreements += 1
        assert agreements >= 99


class TestRoundCostScaling:
    def test_ops_grow_no_faster_than_bound(self):
        # instrumented operation counts at two sizes; per-round cost must
        # scale within objects * sources^2 * log(sources)
        def world(num_objects, num_sources, seed):
            spec = WorldSpec(
                num_objects=num_objects,
                num_independent_sources=num_sources,
                num_copiers=0,
                true_accuracy_range=(0.7, 0.9),
                copy_rate=0.8,
                n=5,
                coverage=1.0,
                seed=seed,
            )
            return generate_world(spec).dataset

        # sizes chosen so the bound ratio is comfortably away from 1
        small = world(20, 6, 1)
        large = world(40, 12, 2)
        config = FusionConfig(n=5, min_overlap=1, max_rounds=3, stability_tol=0.0)

        def per_round_ops(dataset):
            report = run(dataset, ModelVariant.ACCUCOPY, config)
            return report.ops_count / report.rounds_run

        def bound(dataset):
            objects = len(dataset.objects())
            sources = len(dataset.sources())
            return objects * sources * sources * math.log2(max(sources, 2))

        ratio = per_round_ops(large) / per_round_ops(small)
        allowed = bound(large) / bound(small)
        assert ratio <= allowed * 1.5


class TestOscillationReporting:
    @staticmethod
    def _state(round_number, key, confidence):
        from truthfuse import FusionState, ValuePosterior
        from truthfuse.copydetect import EMPTY_COPY_MATRIX

        posterior = ValuePosterior({key: confidence}, {key: 1.0}, 0.0, 5)
        return FusionState(
            round=round_number,
            accuracies={},
            posteriors={"O": posterior},
            truths={"O": key},
            copy_matrix=EMPTY_COPY_MATRIX,
            truth_confidence=confidence,
        )

    def test_oscillation_reports_highest_confidence_cycle_state(self):
        from truthfuse.engine import _best_cycle_state, _cycle_start, _keep_candidate

        states = [
            self._state(1, "a", 1.0),
            self._state(2, "b", 7.0),
            self._state(3, "c", 3.0),
            self._state(4, "b", 2.0),  # revisit of round 2's truths
        ]
        history = [(tuple(state.truths.values()), 1.0) for state in states]
        candidates = []
        for index, state in enumerate(states[:-1]):
            _keep_candidate(candidates, index, state)
        start = _cycle_start(history, FusionConfig(), math.inf)
        # the cycle spans rounds 2..3; round 2 carries the larger total
        assert start == 1
        assert _best_cycle_state(candidates, start).round == 2

    def test_accuracy_cycle_reports_the_better_of_its_two_rounds(self):
        from truthfuse.engine import _best_cycle_state, _cycle_start, _keep_candidate

        states = [
            self._state(1, "a", 1.0),
            self._state(2, "a", 4.0),
            self._state(3, "a", 3.0),
            self._state(4, "a", 3.5),  # accuracies back to round 2's
        ]
        history = [(tuple(state.truths.values()), 1.0) for state in states]
        candidates = []
        for index, state in enumerate(states[:-1]):
            _keep_candidate(candidates, index, state)
        start = _cycle_start(history, FusionConfig(), 0.0)
        # the cycle is rounds 2 and 3, not round 3 alone
        assert start == 1
        assert _best_cycle_state(candidates, start).round == 2

    def test_accuracy_cycle_under_fixed_truths_ends_the_run(self):
        dataset, config = accuracy_cycle_world()
        report = run(dataset, ModelVariant.ACCUCOPY, config)
        assert report.termination is Termination.OSCILLATION
        assert report.rounds_run < 10
        states = [initial_state(dataset, config)]
        for _ in range(report.rounds_run):
            states.append(step_round(states[-1], dataset, ModelVariant.ACCUCOPY, config))
        assert len({tuple(state.truths.items()) for state in states[1:]}) == 1
        # the cycle is the two rounds before the last; ties would go to the later one
        cycle = states[-3:-1]
        best = max(reversed(cycle), key=oracles.total_truth_confidence)
        assert report.state.round == best.round
        assert report.to_dict()["accuracies"] == {
            source: acc.accuracy for source, acc in sorted(best.accuracies.items())
        }

    def test_revisit_triggers_oscillation_verdict(self):
        config = FusionConfig(stability_tol=0.0, max_rounds=50)
        history = [("a", 1.0), ("b", 1.0), ("a", 1.0)]
        assert check_termination(history, config) is Termination.OSCILLATION


def _early_settling_world():
    # truths settle in round 2 and the copy directions hold; the plain loop takes 15 rounds
    spec = WorldSpec(30, 8, 3, (0.5, 0.9), 0.8, 10, 0.8, seed=9)
    return generate_world(spec).dataset, FusionConfig(n=10, min_overlap=5)


def _pinned_dense_world():
    # the dense world of test_report_bytes.py, with its fuse flags
    spec = WorldSpec(40, 30, 10, (0.7, 0.9), 0.8, 50, 0.8, seed=3)
    return generate_world(spec).dataset, FusionConfig(n=50, min_overlap=5)


class TestAitkenExtrapolation:
    """``run`` jumps accuracies once truths and copy directions hold; ``step_round`` does not."""

    @staticmethod
    def _jump(*values, clamp=0.01):
        config = FusionConfig(n=10, accuracy_clamp=clamp)
        x0, x1, x2 = (SourceAccuracy.from_accuracy(v, 10, clamp) for v in values)
        return engine._aitken(x0, x1, x2, config), x2

    @pytest.mark.parametrize("values", [(0.5, 0.6, 0.65), (0.8, 0.7, 0.65)])
    def test_monotone_contracting_triple_jumps_to_its_limit(self, values):
        jumped, _ = self._jump(*values)
        # steps 0.1 then 0.05 halve, so the limit is one more step of 0.05
        assert jumped.accuracy == pytest.approx(2 * values[2] - values[1], abs=1e-12)
        assert jumped == SourceAccuracy.from_accuracy(jumped.accuracy, 10)

    @pytest.mark.parametrize(
        "values",
        [
            (0.5, 0.6, 0.55),  # alternating: d1 * d2 < 0
            (0.6, 0.6, 0.65),  # d1 = 0
            (0.6, 0.65, 0.65),  # d2 = 0
            (0.5, 0.55, 0.65),  # growing steps: |d2| > |d1|
            (0.5, 0.625, 0.75),  # equal steps, exact in binary: |d2| = |d1|
            (0.5, 0.55, 0.6),  # equal steps up to rounding: d2 / d1 = 1 - 2e-15
            (0.5, 0.6, 0.696),  # near-linear drift: d2 / d1 = 0.96, limit 2.4 away
        ],
    )
    def test_other_triples_keep_the_latest_accuracy(self, values):
        jumped, latest = self._jump(*values)
        assert jumped is latest

    def test_jump_past_the_band_lands_on_its_edge(self):
        # limit 1.0 from steps 0.05, 0.025
        jumped, _ = self._jump(0.9, 0.95, 0.975, clamp=0.01)
        assert jumped.accuracy == 0.99
        jumped, _ = self._jump(0.1, 0.05, 0.025, clamp=0.01)
        assert jumped.accuracy == 0.01

    @pytest.mark.parametrize(
        "world", [_pinned_dense_world, accuracy_cycle_world], ids=["dense", "accuracy-cycle"]
    )
    def test_runs_without_a_jump_match_the_plain_loop(self, world):
        # in both worlds a copy direction moves in every round whose truths
        # hold, so no two rounds in a row hold and no triple completes
        dataset, config = world()
        report = run(dataset, ModelVariant.ACCUCOPY, config)
        plain = oracles.plain_run(dataset, ModelVariant.ACCUCOPY, config)
        assert report.to_dict() == plain.to_dict()

    def test_early_settling_world_reaches_the_tight_fixpoint_sooner(self):
        dataset, config = _early_settling_world()
        variant = ModelVariant.ACCUCOPY
        fast = run(dataset, variant, config)
        plain = oracles.plain_run(dataset, variant, config)
        tight = oracles.plain_run(
            dataset, variant, dataclasses.replace(config, stability_tol=1e-12)
        )
        assert (fast.rounds_run, plain.rounds_run) == (8, 15)
        assert fast.termination is plain.termination is Termination.CONVERGED
        assert fast.accuracy_trajectory[-1] <= config.stability_tol
        assert fast.truths == tight.truths == plain.truths

        def error(report):
            return max(
                abs(acc.accuracy - tight.state.accuracies[source].accuracy)
                for source, acc in report.state.accuracies.items()
            )

        assert error(fast) <= error(plain)

    def test_reported_accuracies_are_a_rounds_own_output(self):
        dataset, config = _early_settling_world()
        report = run(dataset, ModelVariant.ACCUCOPY, config)
        assert report.state.round == report.rounds_run == len(report.accuracy_trajectory)
        # a round's accuracies are the mean probabilities of its own posteriors
        for source, acc in report.state.accuracies.items():
            expected = oracles.source_accuracy(
                source, dataset, report.state.posteriors, config.accuracy_clamp
            )
            assert acc.accuracy == expected

    @staticmethod
    def _scripted_run(monkeypatch, script, matrices=None):
        # every source takes script[r] in round r, and round r's copy matrix
        # is matrices[r] (empty without ``matrices``); truths hold
        from truthfuse import FusionState
        from truthfuse.copydetect import EMPTY_COPY_MATRIX

        dataset, config = _table1_world()

        def scripted_round(state, dataset, variant, config):
            r = state.round + 1
            accuracy = SourceAccuracy.from_accuracy(script[r], config.n)
            return FusionState(
                round=r,
                accuracies={source: accuracy for source in dataset.sources()},
                posteriors={},
                truths={},
                copy_matrix=matrices[r] if matrices else EMPTY_COPY_MATRIX,
            )

        monkeypatch.setattr(engine, "step_round", scripted_round)
        return run(dataset, ModelVariant.ACCU, config)

    def test_a_copy_direction_that_moves_restarts_the_triple(self, monkeypatch):
        from truthfuse.copydetect import CopyEstimate, CopyMatrix

        pairs = (("a", "b"),)
        directed = CopyMatrix(pairs, (CopyEstimate(0.1, 0.8, 0.1),))
        undirected = CopyMatrix(pairs, (CopyEstimate(0.1, 0.45, 0.45),))
        script = {1: 0.5, 2: 0.6, 3: 0.65, 4: 0.69, 5: 0.7, 6: 0.7, 7: 0.7}
        matrices = {r: directed if r <= 2 else undirected for r in script}
        report = self._scripted_run(monkeypatch, script, matrices)
        # round 3's direction differs from round 2's, so rounds 1-3 make no
        # triple and round 4 is stepped from round 3's own 0.65; rounds 4
        # and 5 hold, and rounds 3-5's maps jump to 0.7 + 0.01 / 3
        assert report.accuracy_trajectory[3] == pytest.approx(0.04)
        assert report.rounds_run == 7
        assert report.termination is Termination.CONVERGED
        assert report.accuracy_trajectory == pytest.approx(
            (0.3, 0.1, 0.05, 0.04, 0.01, 0.01 / 3, 0.0)
        )

    def test_each_rounds_copy_directions_are_read_once(self, monkeypatch):
        from truthfuse.copydetect import CopyMatrix

        class Counted(list):
            """A matrix's estimates, counting the passes made over them."""

            passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        made = []

        def counting(detect):
            def detected(*args):
                matrix = detect(*args)
                made.append(Counted(matrix.estimates))
                return CopyMatrix(matrix.pairs, made[-1])

            return detected

        monkeypatch.setattr(engine, "initial_copy_matrix", counting(engine.initial_copy_matrix))
        monkeypatch.setattr(engine, "detect_all", counting(engine.detect_all))
        jumps = []
        aitken = engine._aitken

        def jumping(x0, x1, x2, config):
            jumped = aitken(x0, x1, x2, config)
            jumps.append(jumped is not x2)
            return jumped

        monkeypatch.setattr(engine, "_aitken", jumping)
        dataset, config = _table1_world()
        report = run(dataset, ModelVariant.ACCUCOPY, config)
        # one pass over each round's estimates gives voting its totals and
        # directions and the hold test its directions, jumped starts included
        assert any(jumps)
        assert len(made) == report.rounds_run > 3
        assert [estimates.passes for estimates in made] == [1] * len(made)

    def test_the_round_after_a_jump_is_not_tested_for_an_accuracy_cycle(self, monkeypatch):
        # steps 0.1 and 0.05 jump to 0.7 after round 3; round 4 then lands
        # on round 2's accuracies, two rounds back
        report = self._scripted_run(monkeypatch, {1: 0.5, 2: 0.6, 3: 0.65, 4: 0.6, 5: 0.6})
        # round 4 was stepped from the jumped 0.7, not from round 3's 0.65,
        # so its return to round 2's values closes no cycle of the plain map
        assert report.termination is Termination.CONVERGED
        assert report.accuracy_trajectory == pytest.approx((0.3, 0.1, 0.05, 0.1, 0.0))

    def test_a_cycle_after_a_jump_starts_at_a_round_output(self, monkeypatch):
        # the jump to 0.7 after round 3 is followed by 0.6, 0.7, 0.6: round 5
        # returns to the jumped map, which is no round's output, so only
        # round 6 closes a cycle of the map, the one of rounds 4 and 5
        script = {1: 0.5, 2: 0.6, 3: 0.65, 4: 0.6, 5: 0.7, 6: 0.6}
        report = self._scripted_run(monkeypatch, script)
        assert report.termination is Termination.OSCILLATION
        assert report.rounds_run == 6
        assert report.state.round in (4, 5)
