"""Command-line entry point: fuse, detect-copies, eval, generate.

Every run that succeeds writes a manifest, last, recording the resolved
configuration, the input file digests, and the exact argument vector, so
any output can be reproduced byte for byte; a failed run writes none.
Each handler returns what it read and wrote, and ``main`` writes the
manifest from that. CSV files go through ``ingest.write_rows`` and JSON
files through ``_write_json``. Only ``truths.csv`` honours
``--delimiter``, since ``eval`` reads it back; every other CSV file is
comma-separated. Exit codes: 0 success, 1 input or config error (a usage
error such as an unknown flag included), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

from . import __version__
from .engine import ModelVariant, run
from .errors import FusionError, InvalidParameter, ParseError
from .evaluation import (
    MIN_GOLDEN_OBJECTS,
    ErrorType,
    WorldSpec,
    accuracy_deviation,
    classify_errors,
    generate_world,
    precision,
)
from .ingest import (
    parse_claims,
    parse_golden,
    parse_truths,
    write_claims,
    write_golden,
    write_rows,
    write_truths,
)
from .model import FusionConfig, build_dataset
from .vote import classify_direction


def _sha256(path: str | Path) -> str:
    # imported here: hashlib loads OpenSSL, a few MB that only the manifest needs
    import hashlib

    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_manifest(
    path: Path,
    command: str,
    argv: list[str],
    inputs: list[str | Path],
    outputs: list[Path],
    extra: dict,
) -> None:
    _write_json(path, {
        "tool": "truthfuse",
        "version": __version__,
        "command": command,
        "argv": argv,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        **extra,
    })


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = FusionConfig()
    helps = {
        "n": "false values per object domain",
        "alpha": "a-priori independence probability",
        "c": "copy rate",
        "eps": "initial error rate",
        "rho": "similarity propagation weight",
    }
    # each flag's dest is its FusionConfig field, so _config_from_args reads them back
    for field in dataclasses.fields(FusionConfig):
        default = getattr(defaults, field.name)
        parser.add_argument("--" + field.name.replace("_", "-"), type=type(default),
                            default=default, help=helps.get(field.name))


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delimiter", default=",", help="field delimiter (use 'tab' for tabs)")
    parser.add_argument(
        "--no-normalize",
        action="store_true",
        help="skip author-list normalization of values",
    )
    parser.add_argument("--keep-first", action="store_true",
                        help="keep the first value when a source contradicts itself")


def _config_from_args(args: argparse.Namespace) -> FusionConfig:
    return FusionConfig(
        **{field.name: getattr(args, field.name) for field in dataclasses.fields(FusionConfig)}
    )


def _delimiter(args: argparse.Namespace) -> str:
    delimiter = "\t" if args.delimiter == "tab" else args.delimiter
    if len(delimiter) != 1:
        raise InvalidParameter(
            f"--delimiter must be one character or 'tab', got {args.delimiter!r}"
        )
    return delimiter


def _load_dataset(args: argparse.Namespace):
    claims = parse_claims(
        args.claims, delimiter=_delimiter(args), normalize=not args.no_normalize
    )
    return build_dataset(claims, keep_first=args.keep_first)


def _out(args: argparse.Namespace, suffix: str) -> Path:
    return Path(f"{args.out_prefix}.{suffix}")


# what a handler read and wrote: (inputs, outputs, extra manifest entries)
Record = tuple[list, list, dict]


def _fuse(args: argparse.Namespace):
    """Load the claims and run the fusion a ``fuse`` or ``detect-copies`` asks for.

    Returns the config, the dataset, the report and the manifest entries
    naming the config and the variant.
    """
    config = _config_from_args(args)
    dataset = _load_dataset(args)
    variant = ModelVariant.from_string(args.variant)
    report = run(dataset, variant, config)
    return config, dataset, report, {
        "config": dataclasses.asdict(config), "variant": variant.value
    }


def cmd_fuse(args: argparse.Namespace) -> Record:
    _, dataset, report, extra = _fuse(args)
    truths_path = _out(args, "truths.csv")
    report_path = _out(args, "report.json")
    payload = report.to_dict()
    probabilities = {obj: truth["probability"] for obj, truth in payload["truths"].items()}
    write_truths(truths_path, report.truths, probabilities, delimiter=_delimiter(args))
    _write_json(report_path, payload)
    print(
        f"fused {len(dataset)} claims over {len(dataset.sources())} sources, "
        f"{len(dataset.objects())} objects: {report.rounds_run} rounds, "
        f"{report.termination.value}; truths -> {truths_path}"
    )
    return [args.claims], [truths_path, report_path], extra


def cmd_detect_copies(args: argparse.Namespace) -> Record:
    config, _, report, extra = _fuse(args)
    pairs_path = _out(args, "pairs.csv")
    rows = []
    for (a, b), estimate in report.state.copy_matrix.items():
        direction = classify_direction(a, b, estimate, config.direction_threshold)
        if direction is None:
            label = "undirected"
        else:
            original, copier = direction
            label = f"{copier}_copies_{original}"
        rows.append((a, b, estimate.independent, estimate.first_copies_second,
                     estimate.second_copies_first, label))
    # most dependent pairs first
    rows.sort(key=lambda row: (row[2], row[0], row[1]))
    write_rows(pairs_path, ("source_a", "source_b", "p_indep", "p_a_copies_b",
                            "p_b_copies_a", "direction"), rows)
    print(f"{len(rows)} pairs at min_overlap {config.min_overlap} -> {pairs_path}")
    return [args.claims], [pairs_path], extra


def _report_accuracies(path: str) -> dict[str, float]:
    """The ``accuracies`` map of a fuse report; a malformed report is a ParseError."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ParseError(f"{path} holds bytes that are not UTF-8") from None
    except json.JSONDecodeError as error:
        raise ParseError(f"{path} is not JSON: {error.msg}", line=error.lineno) from None
    accuracies = report.get("accuracies") if isinstance(report, dict) else None
    if not isinstance(accuracies, dict) or not all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in accuracies.values()
    ):
        raise ParseError(
            f"{path} is not a fuse report: 'accuracies' must map sources to numbers"
        )
    for source, accuracy in accuracies.items():
        if not 0.0 <= accuracy <= 1.0:  # NaN fails both comparisons
            raise ParseError(
                f"{path} is not a fuse report: source {source!r} has accuracy "
                f"{accuracy!r}, not a probability in [0, 1]"
            )
    return accuracies


def cmd_eval(args: argparse.Namespace) -> Record:
    if args.fuse_report and not args.claims:
        raise InvalidParameter("--fuse-report requires --claims")
    if args.claims and not args.fuse_report:
        raise InvalidParameter("--claims requires --fuse-report")
    truths = parse_truths(args.truths, delimiter=_delimiter(args))
    golden = parse_golden(
        args.golden, delimiter=_delimiter(args), normalize=not args.no_normalize
    )
    score = precision(truths, golden)
    error_counts = {error: 0 for error in ErrorType}
    for obj, golden_value in sorted(golden.items()):
        fused = truths.get(obj, "")
        if fused == golden_value:
            continue
        for error in classify_errors(fused, golden_value):
            error_counts[error] += 1

    eval_path = _out(args, "eval.csv")
    inputs: list[str | Path] = [args.truths, args.golden]
    outputs = [eval_path]
    metrics = [("precision", score), ("golden_objects", len(golden))]
    metrics += [(error.value, error_counts[error]) for error in ErrorType]
    if args.fuse_report:
        # compare the fusion run's accuracy estimates against accuracies
        # sampled on the golden objects, for sources asserting enough of them
        computed = _report_accuracies(args.fuse_report)
        dataset = _load_dataset(args)
        rows, average_difference = accuracy_deviation(
            computed, dataset, golden, args.min_golden
        )
        accuracy_path = _out(args, "accuracy.csv")
        write_rows(
            accuracy_path,
            ("source", "computed", "sampled", "abs_difference"),
            ((source, comp, sampled, abs(comp - sampled))
             for source, (comp, sampled) in rows.items()),
        )
        metrics.append(("avg_accuracy_difference", average_difference))
        inputs.extend([args.fuse_report, args.claims])
        outputs.append(accuracy_path)

    write_rows(eval_path, ("metric", "value"), metrics)
    print(f"precision {score:.4f} over {len(golden)} golden objects -> {eval_path}")
    for error in ErrorType:
        print(f"  {error.value}: {error_counts[error]}")
    if args.fuse_report:
        print(f"  avg |computed - sampled| accuracy: {average_difference:.4f}")
    return inputs, outputs, {}


def cmd_generate(args: argparse.Namespace) -> Record:
    spec = WorldSpec(
        num_objects=args.objects,
        num_independent_sources=args.independents,
        num_copiers=args.copiers,
        true_accuracy_range=(args.accuracy_min, args.accuracy_max),
        copy_rate=args.copy_rate,
        n=args.n,
        coverage=args.coverage,
        seed=args.seed,
    )
    world = generate_world(spec)
    claims_path = _out(args, "claims.csv")
    golden_path = _out(args, "golden.csv")
    copies_path = _out(args, "copies.csv")
    write_claims(claims_path, world.dataset.claims)
    write_golden(golden_path, world.golden)
    write_rows(copies_path, ("copier", "original"), sorted(world.copy_graph))
    print(
        f"{len(world.dataset)} claims, {len(world.golden)} golden objects, "
        f"{len(world.copy_graph)} copy edges -> {args.out_prefix}.*"
    )
    return [], [claims_path, golden_path, copies_path], {"seed": args.seed, "world": {
        "objects": args.objects,
        "independents": args.independents,
        "copiers": args.copiers,
        "accuracy_range": [args.accuracy_min, args.accuracy_max],
        "copy_rate": args.copy_rate,
        "n": args.n,
        "coverage": args.coverage,
    }}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truthfuse",
        description="Resolve conflicting multi-source claims by estimating "
        "source accuracy and pairwise copying.",
    )
    parser.add_argument("--version", action="version", version=f"truthfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fusion_commands = (
        ("fuse", "select the most probable value per object", list(ModelVariant),
         "fusion", cmd_fuse),
        ("detect-copies", "estimate pairwise copy probabilities",
         [v for v in ModelVariant if v.uses_copy_detection], "copies", cmd_detect_copies),
    )
    for name, summary, variants, out_prefix, handler in fusion_commands:
        command = sub.add_parser(name, help=summary)
        command.add_argument("claims", help="claim file (source,object,value)")
        command.add_argument(
            "--variant", default="accucopy", choices=[v.value for v in variants]
        )
        # recorded manifests pass --threads, so it still parses
        command.add_argument(
            "--threads", type=int, default=1, help="ignored: fusion runs in one thread"
        )
        command.add_argument("--out-prefix", default=out_prefix)
        _add_config_flags(command)
        _add_input_flags(command)
        command.set_defaults(handler=handler)

    evaluate = sub.add_parser("eval", help="score fused truths against a golden standard")
    evaluate.add_argument("truths", help="fused truths file (object,value[,probability])")
    evaluate.add_argument("golden", help="golden file (object,value)")
    evaluate.add_argument(
        "--fuse-report",
        help="fuse report json; adds a computed-vs-sampled accuracy table",
    )
    evaluate.add_argument(
        "--claims",
        help="claim file the report was fused from (required with --fuse-report)",
    )
    evaluate.add_argument(
        "--min-golden",
        type=int,
        default=MIN_GOLDEN_OBJECTS,
        help="golden objects a source must exceed to enter the accuracy table",
    )
    evaluate.add_argument("--out-prefix", default="evaluation")
    _add_input_flags(evaluate)
    evaluate.set_defaults(handler=cmd_eval)

    generate = sub.add_parser("generate", help="generate a synthetic world")
    generate.add_argument("--objects", type=int, required=True)
    generate.add_argument("--independents", type=int, required=True)
    generate.add_argument("--copiers", type=int, default=0)
    generate.add_argument("--accuracy-min", type=float, default=0.7)
    generate.add_argument("--accuracy-max", type=float, default=0.9)
    generate.add_argument("--copy-rate", type=float, default=0.8)
    generate.add_argument("--n", type=int, default=100)
    generate.add_argument("--coverage", type=float, default=0.8)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out-prefix", default="world")
    generate.set_defaults(handler=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        # argparse exits 0 after --help or --version and 2 on a usage error,
        # having printed its message; a usage error is an input error here
        return 0 if stop.code == 0 else 1
    try:
        inputs, outputs, extra = args.handler(args)
        _write_manifest(
            _out(args, "manifest.json"), args.command, list(argv), inputs, outputs, extra
        )
    except (FusionError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception:  # internal invariant violation
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
