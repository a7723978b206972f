"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline. Criterion 10 needs the published book corpus and skips
unless TRUTHFUSE_BOOK_DATA points at it; criteria 1-9 stand on their
own.
"""

import math
import os
import random
import resource
import time
from pathlib import Path

import pytest

from truthfuse import (
    Claim,
    FusionConfig,
    ModelVariant,
    SourceAccuracy,
    Termination,
    WorldSpec,
    build_dataset,
    copy_posterior,
    generate_world,
    precision,
    run,
)
from truthfuse.cli import main as cli_main

from conftest import TABLE1_TRUTHS, table1_claims, vote_posteriors
from worlds import heavy_tailed_world


def verdict(number: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}", flush=True)
    return ok


def worked_example_p_indep(counts, a1, a2, n, c, alpha, digits=None):
    """Independence posterior from the paper's equations, in linear space.

    With ``digits`` set, each intermediate probability is rounded to that
    many decimals before it is used, as a hand calculation would.
    """
    def r(x):
        return x if digits is None else round(x, digits)

    same_true, same_false, different = counts

    def likelihood(t, f, d):
        return t**same_true * f**same_false * d**different

    pt = r(a1 * a2)
    pf = r((1 - a1) * (1 - a2) / n)
    pd = r(1 - pt - pf)
    independent = alpha * likelihood(pt, pf, pd)
    # one term per copy direction; `a` is the original's accuracy
    copied = sum(
        (1 - alpha) / 2 * likelihood(
            r(a * c + pt * (1 - c)),
            r((1 - a) * c + pf * (1 - c)),
            r(pd * (1 - c)),
        )
        for a in (a1, a2)
    )
    return independent / (independent + copied)


class TestCriterion01ExampleReproduction:
    def test_copy_posterior_reproduces_worked_example(self):
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2)
        counts = (3, 0, 2)  # same true, same false, different
        start = time.perf_counter()
        for _ in range(100):
            estimate = copy_posterior(*counts, 0.97, 0.6, config)
        per_call = (time.perf_counter() - start) / 100
        # The paper reports p_indep = .92 for this example. Evaluated
        # exactly, its equations give 0.914392 (Pt = .582, Pd = .4156);
        # rounding every intermediate to two digits (Pt = .58, Pd = .42,
        # copied terms .89, .60 and .08) gives 0.9211, so the headline is
        # the rounded hand calculation. The implementation is held to the
        # exact value and the headline to the rounded one.
        exact = worked_example_p_indep(counts, 0.97, 0.6, 5, 0.8, 0.5)
        rounded = worked_example_p_indep(counts, 0.97, 0.6, 5, 0.8, 0.5, digits=2)
        value_ok = abs(estimate.independent - exact) <= 1e-9
        headline_ok = abs(rounded - 0.92) <= 0.005
        time_ok = per_call < 1e-3
        ok = verdict(
            1,
            value_ok and headline_ok and time_ok,
            f"p_indep={estimate.independent:.6f} (exact {exact:.6f}±1e-9; "
            f"two-digit rounding gives {rounded:.4f}, target .92±.005), "
            f"{per_call * 1e6:.1f}us/call (limit 1ms)",
        )
        assert ok


class TestCriterion02PosteriorOracleEquivalence:
    def test_log_domain_matches_linear_space(self):
        rng = random.Random(202)
        cases = []
        for _ in range(1000):
            n = rng.randint(1, 10)
            voters = rng.randint(1, 6)
            accuracies = [rng.uniform(0.05, 0.95) for _ in range(voters)]
            num_values = rng.randint(1, min(voters, n + 1))
            votes = {}
            for i in range(voters):
                votes.setdefault(f"v{rng.randrange(num_values)}", []).append(i)
            claims = [
                Claim(f"S{i}", "O", value) for value, ids in votes.items() for i in ids
            ]
            acc_map = {
                f"S{i}": SourceAccuracy.from_accuracy(a, n, clamp=1e-9)
                for i, a in enumerate(accuracies)
            }
            cases.append((build_dataset(claims), acc_map, accuracies, votes, n))

        worst = 0.0
        start = time.perf_counter()
        for dataset, acc_map, accuracies, votes, n in cases:
            posterior = vote_posteriors(dataset, acc_map, n)["O"]
            weights = [n * a / (1 - a) for a in accuracies]
            free = n + 1 - len(votes)
            products = {
                value: math.prod(weights[i] for i in ids)
                for value, ids in votes.items()
            }
            denominator = sum(products.values()) + free
            for value, product in products.items():
                direct = product / denominator
                worst = max(worst, abs(posterior.probability(value) - direct))
        elapsed = time.perf_counter() - start
        ok = verdict(
            2,
            worst <= 1e-12 and elapsed < 1.0,
            f"max |log-domain - linear| = {worst:.2e} over 1000 objects "
            f"(limit 1e-12), {elapsed:.2f}s (limit 1s)",
        )
        assert ok


class TestCriterion03ConfidenceMonotonicity:
    def test_voter_count_and_accuracy_growth(self):
        rng = random.Random(303)
        count_violations = 0
        for _ in range(1000):
            n = rng.randint(1, 20)
            accuracy = rng.uniform(1.0 / (1 + n) + 0.02, 0.98)
            small, large = sorted(rng.sample(range(1, 21), 2))
            acc_map = {
                f"S{i}": SourceAccuracy.from_accuracy(accuracy, n, clamp=1e-9)
                for i in range(large)
            }
            def confidence(size):
                claims = [Claim(f"S{i}", "O", "v") for i in range(size)]
                posterior = vote_posteriors(build_dataset(claims), acc_map, n)["O"]
                return posterior.confidence("v")
            if not confidence(small) < confidence(large):
                count_violations += 1

        accuracy_violations = 0
        for _ in range(1000):
            n = rng.randint(1, 20)
            others = [rng.uniform(0.05, 0.95) for _ in range(rng.randint(0, 4))]
            low, high = sorted((rng.uniform(0.02, 0.97), rng.uniform(0.02, 0.97)))
            if high - low < 1e-6:
                high = min(0.98, low + 1e-3)
            claims = [Claim(f"S{i}", "O", "v") for i in range(len(others) + 1)]
            dataset = build_dataset(claims)
            def confidence(varying):
                acc_map = {
                    f"S{i}": SourceAccuracy.from_accuracy(a, n, clamp=1e-9)
                    for i, a in enumerate(others + [varying])
                }
                return vote_posteriors(dataset, acc_map, n)["O"].confidence("v")
            if not confidence(low) < confidence(high):
                accuracy_violations += 1

        ok = verdict(
            3,
            count_violations == 0 and accuracy_violations == 0,
            f"voter-count violations {count_violations}/1000, "
            f"accuracy violations {accuracy_violations}/1000 (need zero)",
        )
        assert ok


class TestCriterion04CopyPosteriorMonotonicity:
    @staticmethod
    def _odds(counts, a1, a2, config):
        estimate = copy_posterior(*counts, a1, a2, config)
        return estimate.total_copy_probability / estimate.independent

    def test_three_monotonicity_claims(self):
        rng = random.Random(404)
        violations = [0, 0, 0]
        for _ in range(1000):
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
            if not self._odds(
                (same_total - kf_small, kf_small, different), a1, a2, config
            ) < self._odds(
                (same_total - kf_large, kf_large, different), a1, a2, config
            ):
                violations[0] += 1

            kt, kf = rng.randint(0, 10), rng.randint(0, 10)
            kd = rng.randint(1, 10)
            grow_true = rng.random() < 0.5
            bigger = (
                kt + (1 if grow_true else 0), kf + (0 if grow_true else 1), kd - 1
            )
            if not self._odds((kt, kf, kd), a1, a2, config) < self._odds(
                bigger, a1, a2, config
            ):
                violations[1] += 1

            kt, kf = rng.randint(0, 10), rng.randint(0, 10)
            if kt == 0 and kf == 0:
                kt = 1
            kd_small = rng.randint(0, 10)
            kd_large = rng.randint(kd_small + 1, 12)
            if not self._odds((kt, kf, kd_large), a1, a2, config) < self._odds(
                (kt, kf, kd_small), a1, a2, config
            ):
                violations[2] += 1

        ok = verdict(
            4,
            violations == [0, 0, 0],
            f"violations per claim {violations} over 1000 sweeps each (need zero)",
        )
        assert ok


class TestCriterion05DecisionConvergenceBound:
    def test_copy_variant_terminates_within_bound(self):
        rng = random.Random(505)
        start = time.monotonic()
        over_bound = 0
        hit_cap = 0
        worst = 0
        for case in range(200):
            num_objects = rng.randint(5, 50)
            n = rng.randint(1, 5)  # at most six distinct values per object
            spec = WorldSpec(
                num_objects=num_objects,
                num_independent_sources=rng.randint(3, 8),
                num_copiers=rng.randint(0, 4),
                true_accuracy_range=(max(1.0 / (1 + n) + 0.05, 0.55), 0.95),
                copy_rate=rng.uniform(0.3, 1.0),
                n=n,
                coverage=rng.uniform(0.5, 1.0),
                seed=case,
            )
            world = generate_world(spec)
            objects = len(world.dataset.objects())
            n0 = max(len(votemap) for votemap in world.dataset.voters.values())
            bound = 2 * objects * n0
            config = FusionConfig(n=n, min_overlap=3, max_rounds=bound + 5)
            report = run(world.dataset, ModelVariant.COPY, config)
            worst = max(worst, report.rounds_run)
            if report.rounds_run > bound:
                over_bound += 1
            if report.termination is Termination.MAX_ROUNDS:
                hit_cap += 1
        elapsed = time.monotonic() - start
        ok = verdict(
            5,
            over_bound == 0 and hit_cap == 0 and elapsed < 60.0,
            f"0 bound violations required, saw {over_bound}; worst {worst} rounds; "
            f"{elapsed:.1f}s over 200 worlds (limit 60s)",
        )
        assert ok


class TestCriterion06AffiliationTable:
    def test_accucopy_finds_all_truths_and_vote_scores_two_fifths(self):
        dataset = build_dataset(table1_claims())
        config = FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
        accucopy = run(dataset, ModelVariant.ACCUCOPY, config)
        vote = run(dataset, ModelVariant.VOTE, config)
        accucopy_precision = precision(accucopy.truths, TABLE1_TRUTHS)
        vote_precision = precision(vote.truths, TABLE1_TRUTHS)
        ok = verdict(
            6,
            accucopy_precision == 1.0 and vote_precision == 0.4,
            f"accucopy precision {accucopy_precision} (need 1.0), "
            f"vote precision {vote_precision} (need exactly 0.4)",
        )
        assert ok


@pytest.fixture(scope="module")
def synthetic_benchmark():
    """100 seeded copier worlds fused with Vote and AccuCopy, plus timing."""
    results = []
    start = time.monotonic()
    for seed in range(100):
        spec = WorldSpec(
            num_objects=100,
            num_independent_sources=10,
            num_copiers=5,
            true_accuracy_range=(0.7, 0.9),
            copy_rate=0.8,
            n=10,
            coverage=0.8,
            seed=seed,
        )
        world = generate_world(spec)
        config = FusionConfig(n=10, min_overlap=10)
        vote = run(world.dataset, ModelVariant.VOTE, config)
        accucopy = run(world.dataset, ModelVariant.ACCUCOPY, config)
        results.append(
            {
                "vote_precision": precision(vote.truths, world.golden),
                "accucopy_precision": precision(accucopy.truths, world.golden),
                "copy_matrix": accucopy.state.copy_matrix,
                "true_edges": {frozenset(edge) for edge in world.copy_graph},
            }
        )
    return results, time.monotonic() - start


class TestCriterion07SyntheticSuperiority:
    def test_accucopy_beats_vote_on_generated_worlds(self, synthetic_benchmark):
        results, elapsed = synthetic_benchmark
        wins = sum(
            1 for r in results if r["accucopy_precision"] >= r["vote_precision"]
        )
        uplift = sum(
            r["accucopy_precision"] - r["vote_precision"] for r in results
        ) / len(results)
        ok = verdict(
            7,
            wins >= 95 and uplift > 0 and elapsed < 120.0,
            f"accucopy >= vote on {wins}/100 seeds (need 95), "
            f"mean uplift {uplift:+.4f} (need >0), {elapsed:.1f}s (limit 120s)",
        )
        assert ok


class TestCriterion08CopyEdgeRecovery:
    def test_flagged_pairs_are_mostly_true_edges(self, synthetic_benchmark):
        results, _ = synthetic_benchmark
        flagged = 0
        true_hits = 0
        for r in results:
            for (a, b), estimate in r["copy_matrix"].items():
                if estimate.independent < 0.5:
                    flagged += 1
                    if frozenset((a, b)) in r["true_edges"]:
                        true_hits += 1
        rate = true_hits / flagged if flagged else 0.0
        ok = verdict(
            8,
            flagged > 0 and rate >= 0.80,
            f"{true_hits}/{flagged} flagged pairs are true copier-original "
            f"edges = {rate:.3f} (need >= .80)",
        )
        assert ok


class TestCriterion09CaseStudyScale:
    def test_accucopysim_completes_at_scale(self):
        dataset, golden, _ = heavy_tailed_world()
        counts_ok = (
            len(dataset) == 24364
            and len(dataset.sources()) == 877
            and len(dataset.objects()) == 1263
        )
        config = FusionConfig(n=100, alpha=0.2, c=0.8, eps=0.2, min_overlap=10)
        start = time.monotonic()
        report = run(dataset, ModelVariant.ACCUCOPYSIM, config)
        elapsed = time.monotonic() - start
        rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
        score = precision(report.truths, golden)
        ok = verdict(
            9,
            counts_ok and elapsed < 300.0 and rss_gb < 2.0,
            f"claims/sources/objects exact: {counts_ok}; {elapsed:.1f}s "
            f"(limit 300s); peak rss {rss_gb:.2f} GB (limit 2); "
            f"{report.rounds_run} rounds, precision {score:.3f}",
        )
        assert ok


class TestCriterion10PublishedCorpusLadder:
    def test_model_ladder_on_published_dataset(self):
        root = os.environ.get("TRUTHFUSE_BOOK_DATA")
        if not root:
            print(
                "ACCEPTANCE 10 SKIP: published book corpus not supplied "
                "(set TRUTHFUSE_BOOK_DATA to a directory with claims.csv and "
                "golden.csv); criteria 1-9 constitute acceptance.",
                flush=True,
            )
            pytest.skip("published dataset not supplied")
        from truthfuse import parse_claims, parse_golden

        claims = parse_claims(Path(root) / "claims.csv")
        golden = parse_golden(Path(root) / "golden.csv")
        dataset = build_dataset(claims, keep_first=True)
        config = FusionConfig(n=100, alpha=0.2, c=0.8, eps=0.2, min_overlap=10)
        expected = {
            ModelVariant.VOTE: 0.71,
            ModelVariant.SIM: 0.74,
            ModelVariant.ACCU: 0.79,
            ModelVariant.COPY: 0.83,
            ModelVariant.ACCUCOPY: 0.87,
            ModelVariant.ACCUCOPYSIM: 0.89,
        }
        scores = {}
        for variant in expected:
            report = run(dataset, variant, config)
            scores[variant] = precision(report.truths, golden)
        ladder = list(expected)
        ordered = all(
            scores[a] < scores[b] for a, b in zip(ladder, ladder[1:])
        )
        within = all(
            abs(scores[v] - target) <= 0.05 for v, target in expected.items()
        )
        ok = verdict(
            10,
            ordered and within,
            f"scores {[round(scores[v], 3) for v in ladder]}; "
            f"ordering {'holds' if ordered else 'broken'}; ±.05 {'ok' if within else 'off'}",
        )
        assert ok


class TestCriterion11Determinism:
    def test_commands_rerun_byte_identically_at_any_thread_count(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        gen = [
            "generate", "--objects", "80", "--independents", "10", "--copiers", "4",
            "--n", "10", "--coverage", "0.8", "--seed", "13",
        ]
        assert cli_main(gen + ["--out-prefix", "w1"]) == 0
        assert cli_main(gen + ["--out-prefix", "w2"]) == 0
        generate_same = all(
            Path(f"w1.{s}").read_bytes() == Path(f"w2.{s}").read_bytes()
            for s in ("claims.csv", "golden.csv", "copies.csv")
        )

        fuse = [
            "fuse", "w1.claims.csv", "--variant", "accucopy", "--n", "10",
            "--min-overlap", "10", "--no-normalize",
        ]
        assert cli_main(fuse + ["--threads", "1", "--out-prefix", "f1"]) == 0
        assert cli_main(fuse + ["--threads", "4", "--out-prefix", "f4"]) == 0
        fuse_same = (
            Path("f1.truths.csv").read_bytes() == Path("f4.truths.csv").read_bytes()
            and Path("f1.report.json").read_bytes() == Path("f4.report.json").read_bytes()
        )

        detect = [
            "detect-copies", "w1.claims.csv", "--n", "10", "--min-overlap", "10",
            "--no-normalize",
        ]
        assert cli_main(detect + ["--threads", "1", "--out-prefix", "d1"]) == 0
        assert cli_main(detect + ["--threads", "3", "--out-prefix", "d3"]) == 0
        detect_same = (
            Path("d1.pairs.csv").read_bytes() == Path("d3.pairs.csv").read_bytes()
        )

        evaluate = ["eval", "f1.truths.csv", "w1.golden.csv", "--no-normalize"]
        assert cli_main(evaluate + ["--out-prefix", "e1"]) == 0
        assert cli_main(evaluate + ["--out-prefix", "e2"]) == 0
        eval_same = Path("e1.eval.csv").read_bytes() == Path("e2.eval.csv").read_bytes()

        ok = verdict(
            11,
            generate_same and fuse_same and detect_same and eval_same,
            f"generate {generate_same}, fuse(threads 1 vs 4) {fuse_same}, "
            f"detect-copies(threads 1 vs 3) {detect_same}, eval {eval_same}",
        )
        assert ok
