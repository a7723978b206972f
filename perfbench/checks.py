"""Checks on the outputs of `truthfuse fuse`, computed apart from truthfuse.

Nothing here imports truthfuse: the checks read the files the command
wrote and compare them with what the benchmark's own generator knows.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

# accucopy may lose a little to plain voting on worlds where copiers do not
# amplify bad sources; more than this is a regression in truth discovery
PRECISION_SLACK = 0.05
TRIPLE_TOL = 1e-9


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def majority_vote(
    rows: list[tuple[str, str, str]], canonical: list[str]
) -> dict[str, str]:
    """Most listed canonical value per object; ties go to the smallest value."""
    counts: dict[str, Counter] = {}
    for (_, obj, _), value in zip(rows, canonical):
        counts.setdefault(obj, Counter())[value] += 1
    return {
        obj: min(votes, key=lambda v: (-votes[v], v)) for obj, votes in counts.items()
    }


def precision(truths: dict[str, str], golden: dict[str, str]) -> float:
    return sum(truths.get(obj) == value for obj, value in golden.items()) / len(golden)


def read_truths(path: Path) -> tuple[dict[str, tuple[str, str]], list[str]]:
    """Rows of truths.csv as object -> (value, probability text), plus problems."""
    problems: list[str] = []
    truths: dict[str, tuple[str, str]] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["object", "value", "probability"]:
            problems.append(f"truths.csv header is {header!r}")
        for row in reader:
            if len(row) != 3:
                problems.append(f"truths.csv row {row!r} has {len(row)} fields")
                continue
            obj, value, prob = row
            if obj in truths:
                problems.append(f"object {obj!r} has more than one truth")
            truths[obj] = (value, prob)
    return truths, problems


def check_outputs(
    prefix: Path,
    claims_path: Path,
    claims_argv: str,
    rows: list[tuple[str, str, str]],
    canonical: list[str],
    golden: dict[str, str],
    clamp: float,
    stability_tol: float,
) -> tuple[list[str], float]:
    """Every output check on one fuse run; returns (problems, precision).

    ``prefix`` is the --out-prefix the command wrote to and ``claims_argv``
    the claim path exactly as it was passed on the command line, which is
    how the manifest names it.
    """
    problems: list[str] = []
    truths, read_problems = read_truths(Path(f"{prefix}.truths.csv"))
    problems += read_problems
    report = json.loads(Path(f"{prefix}.report.json").read_text(encoding="utf-8"))
    manifest = json.loads(Path(f"{prefix}.manifest.json").read_text(encoding="utf-8"))

    claimed: dict[str, set[str]] = {}
    for (_, obj, _), value in zip(rows, canonical):
        claimed.setdefault(obj, set()).add(value)
    missing = sorted(set(claimed) - set(truths))
    extra = sorted(set(truths) - set(claimed))
    if missing:
        problems.append(f"{len(missing)} objects have no truth, e.g. {missing[0]!r}")
    if extra:
        problems.append(f"{len(extra)} truths for unknown objects, e.g. {extra[0]!r}")
    unclaimed = sorted(
        obj for obj, (value, _) in truths.items()
        if obj in claimed and value not in claimed[obj]
    )
    if unclaimed:
        obj = unclaimed[0]
        problems.append(
            f"{len(unclaimed)} truths were never claimed, e.g. {truths[obj][0]!r} for {obj!r}"
        )

    reported = report.get("truths", {})
    if set(reported) != set(truths):
        problems.append("truths.csv and report.json name different objects")
    for obj, (value, prob) in sorted(truths.items()):
        entry = reported.get(obj)
        if entry is None:
            continue
        if entry["value"] != value or float(prob) != entry["probability"]:
            problems.append(f"truths.csv and report.json disagree on {obj!r}")
            break

    for a, b, independent, first, second in report.get("copy_pairs", []):
        total = independent + first + second
        if abs(total - 1.0) > TRIPLE_TOL:
            problems.append(f"copy triple of ({a}, {b}) sums to {total!r}")
            break

    outside = sorted(
        source for source, accuracy in report.get("accuracies", {}).items()
        if not clamp <= accuracy <= 1.0 - clamp
    )
    if outside:
        problems.append(f"{len(outside)} accuracies outside [{clamp}, {1 - clamp}]")

    trajectory = report.get("accuracy_trajectory", [])
    if report.get("termination") == "converged" and (
        not trajectory or trajectory[-1] > stability_tol
    ):
        problems.append("reported converged but the last accuracy delta exceeds the tolerance")
    if report.get("rounds_run") != len(trajectory):
        problems.append("rounds_run does not match the trajectory length")

    digest = manifest.get("inputs", {}).get(claims_argv)
    if digest != sha256_file(claims_path):
        problems.append(f"manifest digest {digest!r} is not the claim file's sha256")

    fused = {obj: value for obj, (value, _) in truths.items()}
    score = precision(fused, golden)
    vote = precision(majority_vote(rows, canonical), golden)
    if score < vote - PRECISION_SLACK:
        problems.append(
            f"precision {score:.4f} is below majority vote {vote:.4f} minus {PRECISION_SLACK}"
        )
    return problems, score


def check_normalisation(parsed_values: list[str], canonical: list[str]) -> list[str]:
    """The ingest layer's value for each row must be the generator's canonical one."""
    if len(parsed_values) != len(canonical):
        return [f"ingest read {len(parsed_values)} rows, the file holds {len(canonical)}"]
    wrong = [(p, c) for p, c in zip(parsed_values, canonical) if p != c]
    if wrong:
        got, want = wrong[0]
        return [f"{len(wrong)} rows normalised wrongly, e.g. {got!r} for {want!r}"]
    return []


def shape(rows: list[tuple[str, str, str]], min_overlap: int) -> dict[str, int]:
    """Claims, sources, objects and source pairs sharing >= min_overlap objects."""
    listers: dict[str, list[str]] = {}
    for source, obj, _ in rows:
        listers.setdefault(obj, []).append(source)
    overlap: Counter = Counter()
    for sources in listers.values():
        ordered = sorted(sources)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                overlap[a, b] += 1
    return {
        "claims": len(rows),
        "sources": len({source for source, _, _ in rows}),
        "objects": len(listers),
        "pairs": sum(1 for count in overlap.values() if count >= min_overlap),
    }


def makeup(rows: list[tuple[str, str, str]], canonical: list[str]) -> str:
    """Voter-group sizes, distinct values per object and listings per source."""
    groups = Counter((obj, value) for (_, obj, _), value in zip(rows, canonical))
    per_object = Counter(obj for obj, _ in groups)
    per_source = Counter(source for source, _, _ in rows)

    def spread(counts) -> str:
        ordered = sorted(counts)
        mean = sum(ordered) / len(ordered)
        return f"mean {mean:.1f}, median {ordered[len(ordered) // 2]}, max {ordered[-1]}"

    return (
        f"{len(groups)} voter groups (sources per group: {spread(groups.values())}); "
        f"distinct values per object: {spread(per_object.values())}; "
        f"listings per source: {spread(per_source.values())}"
    )
