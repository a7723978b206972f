"""Run one truthfuse command in this process, timing each layer's public calls.

    python3 perfbench/trace_fuse.py SPANS.json fuse CLAIMS [flags...]

Module attributes that the CLI and the engine call are replaced by
wrappers that record, per layer, the call count, the inclusive time, the
self time (inclusive minus the time of wrapped calls made inside it) and
the inclusive wall time. Inclusive and self times are CPU seconds of the
calling thread (``time.thread_time``), so work that the engine's thread
pool spreads over threads is counted once, not once per thread waiting
for the interpreter lock, and the main thread's wait on the pool is not
charged to the engine. A wrapped name
missing from the program is listed as absent; the run goes on without it.
The layer record is written to SPANS.json as the last step. truthfuse
must be importable (put its ``src`` directory on PYTHONPATH).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections.abc import Callable

# (module, attribute path, layer) for every call wrapped. A layer nested in
# itself (detect_all -> copy_posterior) is timed once, at the outer call;
# the inner wraps exist for calls made from the thread pool.
WRAPPED = [
    ("truthfuse.cli", "main", "cli.main"),
    ("truthfuse.cli", "parse_claims", "ingest.parse"),
    ("truthfuse.cli", "build_dataset", "model.build"),
    ("truthfuse.model", "Dataset.pair_overlap_counts", "model.overlap"),
    ("truthfuse.cli", "run", "engine.run"),
    ("truthfuse.engine", "step_round", "engine.round"),
    ("truthfuse.engine", "detect_all", "copydetect.detect"),
    ("truthfuse.copydetect", "initial_copy_posterior", "copydetect.detect"),
    ("truthfuse.copydetect", "pair_observation", "copydetect.detect"),
    ("truthfuse.copydetect", "copy_posterior", "copydetect.detect"),
    ("truthfuse.engine", "discounted_confidences", "vote.discount"),
    ("truthfuse.vote", "order_sources", "vote.order"),
    ("truthfuse.vote", "independence_factor", "vote.factor"),
    ("truthfuse.engine", "adjust_confidences", "similarity.adjust"),
    ("truthfuse.engine", "posterior_from_confidences", "accuracy.posterior"),
    ("truthfuse.engine", "source_accuracy", "accuracy.update"),
    ("truthfuse.engine", "select_truth", "accuracy.select"),
    ("truthfuse.cli", "write_truths", "cli.write"),
    ("truthfuse.cli", "_write_manifest", "cli.write"),
    ("truthfuse.engine", "FusionReport.to_dict", "cli.write"),
]


class Tracer:
    """Per-layer call counts and times, kept in memory until the run ends."""

    def __init__(self) -> None:
        # layer -> [calls, total, self, wall]
        self.layers: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {"pair_estimates": 0, "flagged_pairs": 0}
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module: str, path: str, layer: str) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{module}.{path}")
            return
        after = self._count_pairs if attr == "detect_all" else None
        setattr(owner, attr, self._timed(original, layer, after))

    def _timed(
        self, original: Callable, layer: str, after: Callable | None
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[0] == layer for frame in stack):
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            wall = time.perf_counter()
            start = time.thread_time()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - start
                wall = time.perf_counter() - wall
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    record = tracer.layers.setdefault(layer, [0, 0.0, 0.0, 0.0])
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[1]
                    record[3] += wall
            if after is not None:
                after(result)
            return result

        return timed

    def _count_pairs(self, matrix) -> None:
        estimates = list(matrix.items())
        self.counts["pair_estimates"] += len(estimates)
        self.counts["flagged_pairs"] += sum(1 for _, e in estimates if e.independent < 0.5)

    def record(self, exit_code: int) -> dict:
        return {
            "exit_code": exit_code,
            "absent": self.absent,
            "counts": self.counts,
            "layers": {
                layer: {"calls": int(calls), "total_s": total, "self_s": own, "wall_s": wall}
                for layer, (calls, total, own, wall) in sorted(self.layers.items())
            },
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    for module, path, layer in WRAPPED:
        tracer.wrap(module, path, layer)
    cli = importlib.import_module("truthfuse.cli")
    exit_code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.record(exit_code), handle, indent=2, sort_keys=True)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
