"""Each output check must pass on sound outputs and fail on a corrupted one.

    python3 -m pytest perfbench/test_checks.py

The outputs are written by hand in the formats `truthfuse fuse` writes,
so these tests need no truthfuse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

ROWS = [
    ("s1", "o1", "ann lee"),
    ("s2", "o1", "ann lee"),
    ("s3", "o1", "ann li"),
    ("s1", "o2", "bo chan; cy dunn"),
    ("s2", "o2", "bo chan"),
    ("s3", "o2", "bo chan; cy dunn"),
]
CANONICAL = [value for _, _, value in ROWS]
GOLDEN = {"o1": "ann lee", "o2": "bo chan; cy dunn"}
CLAMP, TOL = 0.01, 1e-6


def sound_outputs() -> tuple[dict, dict, list[list[str]]]:
    report = {
        "rounds_run": 2,
        "termination": "converged",
        "accuracy_trajectory": [0.1, 5e-7],
        "ops_count": 10,
        "truths": {
            "o1": {"value": "ann lee", "probability": 0.9},
            "o2": {"value": "bo chan; cy dunn", "probability": 0.8},
        },
        "accuracies": {"s1": 0.99, "s2": 0.6, "s3": 0.5},
        "copy_pairs": [["s1", "s2", 0.5, 0.25, 0.25]],
    }
    manifest = {"inputs": {"../claims.csv": None}}
    truths = [["o1", "ann lee", "0.9"], ["o2", "bo chan; cy dunn", "0.8"]]
    return report, manifest, truths


def write(tmp_path: Path, report: dict, manifest: dict, truths: list[list[str]]) -> Path:
    claims = tmp_path / "claims.csv"
    claims.write_text("source,object,value\n" + "".join(
        f'{s},{o},"{v}"\n' for s, o, v in ROWS), encoding="utf-8")
    if manifest["inputs"].get("../claims.csv") is None:
        manifest["inputs"]["../claims.csv"] = checks.sha256_file(claims)
    prefix = tmp_path / "fusion"
    Path(f"{prefix}.report.json").write_text(json.dumps(report), encoding="utf-8")
    Path(f"{prefix}.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    Path(f"{prefix}.truths.csv").write_text(
        "object,value,probability\n" + "".join(f'{o},"{v}",{p}\n' for o, v, p in truths),
        encoding="utf-8",
    )
    return prefix


def run_checks(tmp_path: Path, report: dict, manifest: dict, truths: list[list[str]]) -> list[str]:
    prefix = write(tmp_path, report, manifest, truths)
    problems, _ = checks.check_outputs(
        prefix, tmp_path / "claims.csv", "../claims.csv", ROWS, CANONICAL, GOLDEN, CLAMP, TOL
    )
    return problems


def test_sound_outputs_pass(tmp_path):
    assert run_checks(tmp_path, *sound_outputs()) == []


def swap_truths(report, manifest, truths):
    truths[0][1], truths[1][1] = truths[1][1], truths[0][1]
    report["truths"]["o1"]["value"] = truths[0][1]
    report["truths"]["o2"]["value"] = truths[1][1]


def unclaimed_truth(report, manifest, truths):
    truths[0][1] = report["truths"]["o1"]["value"] = "nobody"


def missing_object(report, manifest, truths):
    del truths[1]
    del report["truths"]["o2"]


def duplicate_object(report, manifest, truths):
    truths.append(list(truths[0]))


def csv_disagrees_with_report(report, manifest, truths):
    report["truths"]["o1"]["value"] = "ann li"


def probability_disagrees(report, manifest, truths):
    truths[0][2] = "0.91"


def triple_sums_high(report, manifest, truths):
    report["copy_pairs"][0][2] = 0.6  # 0.6 + 0.25 + 0.25 = 1.1


def accuracy_outside_clamp(report, manifest, truths):
    report["accuracies"]["s3"] = 0.995


def converged_without_stability(report, manifest, truths):
    report["accuracy_trajectory"][-1] = 1e-3


def rounds_disagree(report, manifest, truths):
    report["rounds_run"] = 3


def wrong_digest(report, manifest, truths):
    manifest["inputs"]["../claims.csv"] = "0" * 64


def worse_than_vote(report, manifest, truths):
    truths[0][1] = report["truths"]["o1"]["value"] = "ann li"


@pytest.mark.parametrize(
    "corrupt, complaint",
    [
        (swap_truths, "never claimed"),
        (unclaimed_truth, "never claimed"),
        (missing_object, "no truth"),
        (duplicate_object, "more than one truth"),
        (csv_disagrees_with_report, "disagree"),
        (probability_disagrees, "disagree"),
        (triple_sums_high, "copy triple"),
        (accuracy_outside_clamp, "accuracies outside"),
        (converged_without_stability, "converged"),
        (rounds_disagree, "rounds_run"),
        (wrong_digest, "manifest digest"),
        (worse_than_vote, "below majority vote"),
    ],
)
def test_each_corruption_is_caught(tmp_path, corrupt, complaint):
    report, manifest, truths = sound_outputs()
    corrupt(report, manifest, truths)
    problems = run_checks(tmp_path, report, manifest, truths)
    assert any(complaint in problem for problem in problems), problems


def test_normalisation_check_catches_a_wrong_value():
    assert checks.check_normalisation(CANONICAL, CANONICAL) == []
    assert checks.check_normalisation(["ann lee"] + CANONICAL[1:], ["ann q lee"] + CANONICAL[1:])
    assert checks.check_normalisation(CANONICAL[:-1], CANONICAL)


def test_shape_counts_pairs_at_the_overlap_threshold():
    assert checks.shape(ROWS, 2) == {"claims": 6, "sources": 3, "objects": 2, "pairs": 3}
    assert checks.shape(ROWS, 3)["pairs"] == 0


def test_majority_vote_breaks_ties_toward_the_smallest_value():
    rows = [("a", "o", "y"), ("b", "o", "x")]
    assert checks.majority_vote(rows, ["y", "x"]) == {"o": "x"}
