"""Benchmark `truthfuse fuse` end to end on seeded worlds, with checked outputs.

    python3 perfbench/run.py --workload scale|dense|books --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; truthfuse is imported from its
``src`` directory, nothing needs installing. One run:

1. writes the workload's claim file from ``--seed`` (see worlds.py) and
   asserts its shape: claims, sources, objects, pairs at min_overlap 10;
2. checks that ingest normalises every row to the generator's value;
3. repeats rounds until ``--seconds`` would be exceeded (at least
   MIN_ROUNDS). A round times set-up (``parse_claims`` + ``build_dataset``
   with the command's ingest flags) in this process, as many times as fill
   about SETUP_SECONDS_PER_ROUND (at least 3), then spawns `truthfuse
   fuse` once, timing it from spawn to exit and reading its own peak RSS
   from its rusage. Interleaving the two keeps both medians over the same
   stretch of machine time. The first fuse run's outputs go through every
   check in checks.py; later runs must write identical bytes;
4. reports the median of each timing and of the peak RSS;
5. with ``--trace 1``, runs the same command once more under trace_fuse.py
   and reports the per-layer split instead of the end-to-end metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Operations are the set-ups and the fuse processes
(and the traced run); a process that exits non-zero, or is killed because
the run has reached RUN_LIMIT_S, fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import worlds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

SETUP_SECONDS_PER_ROUND = 1.0
MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0
MIN_OVERLAP = 10
CLAMP = 0.01
STABILITY_TOL = 1e-6
ENTRY = "import sys; from truthfuse.cli import main; sys.exit(main())"

# fuse flags, and the shape every seed's claim file must have
WORKLOADS = {
    "scale": (
        ["--variant", "accucopysim", "--threads", "1"],
        {"claims": 24364, "sources": 877, "objects": 1263, "pairs": 2852},
    ),
    "dense": (
        ["--variant", "accucopy", "--n", "50", "--threads", "1"],
        {"claims": 6445, "sources": 80, "objects": 100, "pairs": 3160},
    ),
    "books": (
        ["--threads", "1"],
        {"claims": 5935, "sources": 250, "objects": 1162, "pairs": 238},
    ),
}

LAYER_SECONDS = {
    "ingest.parse_s": "ingest.parse",
    "model.build_s": "model.build",
    "model.overlap_s": "model.overlap",
    "copydetect.detect_s": "copydetect.detect",
    "vote.discount_s": "vote.discount",
    "vote.order_s": "vote.order",
    "vote.factor_s": "vote.factor",
    "similarity.adjust_s": "similarity.adjust",
    "accuracy.posterior_s": "accuracy.posterior",
    "accuracy.update_s": "accuracy.update",
    "accuracy.select_s": "accuracy.select",
    "cli.write_s": "cli.write",
}


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def spawn(argv: list[str], cwd: Path, limit: float) -> tuple[int, float, float]:
    """Run a process to its end; (exit code, wall seconds, its own peak RSS in MB)."""
    with (cwd / "stdout.txt").open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=log)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def time_setup(claims: Path, normalize: bool) -> float:
    from truthfuse.ingest import parse_claims
    from truthfuse.model import build_dataset

    gc.collect()
    start = time.perf_counter()
    build_dataset(parse_claims(claims, normalize=normalize))
    return time.perf_counter() - start


def output_bytes(prefix: Path) -> dict[str, bytes]:
    return {
        kind: Path(f"{prefix}.{kind}").read_bytes()
        for kind in ("truths.csv", "report.json", "manifest.json")
    }


def layer_metrics(spans: dict, traced_wall: float, plain_median: float) -> dict:
    layers = spans["layers"]

    def total(layer: str) -> float:
        return layers.get(layer, {}).get("total_s", 0.0)

    def own(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    metrics = {name: (total(layer), "s") for name, layer in LAYER_SECONDS.items()}
    metrics.update(
        {
            "copydetect.pair_estimates": (spans["counts"]["pair_estimates"], "count"),
            "copydetect.flagged_pairs": (spans["counts"]["flagged_pairs"], "count"),
            "vote.groups_ordered": (calls("vote.order"), "count"),
            "vote.factor_calls": (calls("vote.factor"), "count"),
            "engine.rounds": (calls("engine.round"), "count"),
            # a round spans the pool's threads, so it is timed on the wall clock
            "engine.round_s": (layers.get("engine.round", {}).get("wall_s", 0.0), "s"),
            "engine.self_s": (own("engine.run") + own("engine.round"), "s"),
            "cli.self_s": (own("cli.main"), "s"),
            "trace.overhead_s": (traced_wall - plain_median, "s"),
        }
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "truthfuse" / "cli.py").is_file():
        print(f"error: no truthfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args: argparse.Namespace, work: Path) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    flags, expected = WORKLOADS[args.workload]
    normalize = "--no-normalize" not in flags
    inputs = worlds.realize(worlds.make_world(args.workload), args.seed)
    plain, traced = work / "plain", work / "traced"
    for directory in (plain, traced):
        directory.mkdir(parents=True)
    claims = work / "claims.csv"
    inputs.write(claims)

    found = checks.shape(inputs.rows, MIN_OVERLAP)
    print(f"{args.workload} seed {args.seed}: " + ", ".join(f"{v} {k}" for k, v in found.items()))
    if found != expected:
        print(f"error: expected shape {expected}", file=sys.stderr)
        return 1
    print("make-up: " + checks.makeup(inputs.rows, inputs.canonical))

    from truthfuse.ingest import parse_claims

    problems = checks.check_normalisation(
        [c.value for c in parse_claims(claims, normalize=normalize)], inputs.canonical
    )
    command = [sys.executable, "-c", ENTRY, "fuse", "../claims.csv", *flags,
               "--out-prefix", "fusion"]
    # an untimed warm-up set-up sizes the rounds: each round holds about
    # SETUP_SECONDS_PER_ROUND of set-ups (at least 3), then one fuse process,
    # and a round starts only if the last one's length still fits in --seconds
    warm_up = time_setup(claims, normalize)
    setups_per_round = max(3, math.ceil(SETUP_SECONDS_PER_ROUND / warm_up))
    attempted, failed = 1, 0
    setup, walls, rss = [], [], []
    reference: dict[str, bytes] | None = None
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or (time.perf_counter() - start) + last_round <= args.seconds:
        round_start = time.perf_counter()
        setup += [time_setup(claims, normalize) for _ in range(setups_per_round)]
        code, wall, peak = spawn(command, plain, deadline - time.perf_counter())
        last_round = time.perf_counter() - round_start
        attempted += setups_per_round + 1
        walls.append(wall)
        rss.append(peak)
        if code != 0:
            failed += 1
            print(f"fuse exited {code}: {(plain / 'stdout.txt').read_text()[-2000:]}")
            continue
        outputs = output_bytes(plain / "fusion")
        if reference is None:
            reference = outputs
            found_problems, score = checks.check_outputs(
                plain / "fusion", claims, "../claims.csv", inputs.rows,
                inputs.canonical, inputs.golden, CLAMP, STABILITY_TOL,
            )
            problems += found_problems
            report = json.loads(outputs["report.json"])
            vote = checks.precision(
                checks.majority_vote(inputs.rows, inputs.canonical), inputs.golden
            )
            print(
                f"rounds {report['rounds_run']} ({report['termination']}), "
                f"precision {score:.4f} vs majority vote {vote:.4f}, "
                f"report.json sha256 {checks.sha256_file(plain / 'fusion.report.json')}"
            )
        elif outputs != reference:
            problems.append("a repeated fuse run wrote different outputs")
    if reference is None:
        problems.append("no fuse run succeeded")
    print("fuse_s runs: " + " ".join(f"{w:.3f}" for w in walls))

    fuse_s = statistics.median(walls)
    if args.trace:
        spans_path = work / "spans.json"
        trace_cmd = [sys.executable, str(BENCH_DIR / "trace_fuse.py"), str(spans_path),
                     *command[3:]]
        code, traced_wall, _ = spawn(trace_cmd, traced, deadline - time.perf_counter())
        attempted += 1
        if code != 0:
            failed += 1
            problems.append(f"traced run exited {code}")
            spans = {"layers": {}, "counts": {"pair_estimates": 0, "flagged_pairs": 0},
                     "absent": []}
        else:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            if reference is not None and output_bytes(traced / "fusion") != reference:
                problems.append("traced outputs differ from untraced ones")
        for name in spans["absent"]:
            print(f"absent: {name} (reported as 0)")
        metrics = layer_metrics(spans, traced_wall, fuse_s)
    else:
        metrics = {
            "fuse_s": (fuse_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
