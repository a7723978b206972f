"""Precision scoring, error taxonomy, sampled accuracy, and a world generator.

The generator produces seeded synthetic datasets that follow the same
generative assumptions the detector reasons about (independent sources
with per-source accuracy and uniform false-value choice; copiers that
repeat one original's value with a fixed rate), so it doubles as the
independent oracle for the property and recovery tests.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

from .errors import EmptyGolden, InsufficientOverlap, InvalidParameter, InvalidSpec
from .model import Claim, Dataset, ObjectId, SourceId, Value, build_dataset


class ErrorType(Enum):
    MISSING_AUTHOR = "missing_author"
    ADDITIONAL_AUTHOR = "additional_author"
    MIS_ORDERING = "mis_ordering"
    MIS_SPELLING = "mis_spelling"
    INCOMPLETE_NAME = "incomplete_name"


def precision(
    truths: Mapping[ObjectId, Value], golden: Mapping[ObjectId, Value]
) -> float:
    """Fraction of golden objects whose selected value matches the truth.

    Objects missing from ``truths`` count as wrong.
    """
    if not golden:
        raise EmptyGolden("no golden objects to score against")
    hits = sum(1 for obj, value in golden.items() if truths.get(obj) == value)
    return hits / len(golden)


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance over characters."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        current = [i + 1]
        for j, cb in enumerate(b):
            current.append(
                min(
                    previous[j + 1] + 1,
                    current[j] + 1,
                    previous[j] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def _split_authors(value: Value) -> list[str]:
    return [a.strip() for a in value.split(";") if a.strip()]


def _name_subset(a: str, b: str) -> bool:
    ta, tb = set(a.split()), set(b.split())
    if not ta & tb:
        return False
    return ta < tb or tb < ta


def classify_errors(result: Value, golden: Value) -> set[ErrorType]:
    """Error categories separating a result author list from the golden one.

    Both inputs are normalized author lists. Authors are matched
    exactly first, then near-matches pair up (edit distance <= 2 is a
    misspelling; a name missing its first or last token is an
    incomplete name); leftover golden authors are missing, leftover
    result authors additional. Matched authors appearing in a different
    relative order flag a mis-ordering. Middle names were dropped by
    normalization, so their differences can never surface here.
    """
    result_authors = _split_authors(result)
    golden_authors = _split_authors(golden)
    if result_authors == golden_authors:
        return set()
    if Counter(result_authors) == Counter(golden_authors):
        return {ErrorType.MIS_ORDERING}

    errors: set[ErrorType] = set()
    golden_free = list(range(len(golden_authors)))
    matches: list[tuple[int, int]] = []

    for i, author in enumerate(result_authors):
        for j in golden_free:
            if golden_authors[j] == author:
                matches.append((i, j))
                golden_free.remove(j)
                break

    matched_result = {i for i, _ in matches}
    for i, author in enumerate(result_authors):
        if i in matched_result:
            continue
        candidates = sorted(
            (edit_distance(author, golden_authors[j]), j) for j in golden_free
        )
        paired = False
        for distance, j in candidates:
            if distance <= 2:
                errors.add(ErrorType.MIS_SPELLING)
                matches.append((i, j))
                golden_free.remove(j)
                paired = True
                break
        if paired:
            continue
        for j in list(golden_free):
            if _name_subset(author, golden_authors[j]):
                errors.add(ErrorType.INCOMPLETE_NAME)
                matches.append((i, j))
                golden_free.remove(j)
                paired = True
                break
        if not paired:
            errors.add(ErrorType.ADDITIONAL_AUTHOR)

    if golden_free:
        errors.add(ErrorType.MISSING_AUTHOR)

    golden_sequence = [j for _, j in sorted(matches)]
    if any(b < a for a, b in zip(golden_sequence, golden_sequence[1:])):
        errors.add(ErrorType.MIS_ORDERING)
    return errors


MIN_GOLDEN_OBJECTS = 10


def _check_min_golden(min_golden_objects: int) -> None:
    if min_golden_objects < 0:
        raise InvalidParameter(f"min_golden_objects must be >= 0, got {min_golden_objects!r}")


def sampled_accuracy(
    source: SourceId,
    dataset: Dataset,
    golden: Mapping[ObjectId, Value],
    min_golden_objects: int = MIN_GOLDEN_OBJECTS,
) -> float:
    """Fraction of the source's golden objects where it matches the truth.

    Eligibility requires strictly more than ``min_golden_objects``
    asserted golden objects, so ``min_golden_objects`` must be at least 0.
    """
    _check_min_golden(min_golden_objects)
    claims = dataset.by_source.get(source, {})
    on_golden = [(obj, value) for obj, value in sorted(claims.items()) if obj in golden]
    if len(on_golden) <= min_golden_objects:
        raise InsufficientOverlap(
            f"source {source!r} asserts only {len(on_golden)} golden objects "
            f"(needs more than {min_golden_objects})"
        )
    hits = sum(1 for obj, value in on_golden if golden[obj] == value)
    return hits / len(on_golden)


def accuracy_deviation(
    computed: Mapping[SourceId, float],
    dataset: Dataset,
    golden: Mapping[ObjectId, Value],
    min_golden_objects: int = MIN_GOLDEN_OBJECTS,
) -> tuple[dict[SourceId, tuple[float, float]], float]:
    """Computed-vs-sampled accuracy per eligible source, plus mean |difference|.

    Raises ``InsufficientOverlap`` when no source is eligible: a mean
    over no source would read as a perfect match.
    """
    _check_min_golden(min_golden_objects)
    rows: dict[SourceId, tuple[float, float]] = {}
    diffs: list[float] = []
    for source in sorted(computed):
        try:
            sampled = sampled_accuracy(source, dataset, golden, min_golden_objects)
        except InsufficientOverlap:
            continue
        rows[source] = (computed[source], sampled)
        diffs.append(abs(computed[source] - sampled))
    if not diffs:
        raise InsufficientOverlap(f"no source has more than {min_golden_objects} golden objects")
    return rows, math.fsum(diffs) / len(diffs)


@dataclass(frozen=True)
class WorldSpec:
    """Parameters of a synthetic world."""

    num_objects: int
    num_independent_sources: int
    num_copiers: int
    true_accuracy_range: tuple[float, float]
    copy_rate: float
    n: int
    coverage: float
    seed: int

    def validate(self) -> None:
        problems = []
        if self.num_objects < 1:
            problems.append("num_objects must be >= 1")
        if self.num_independent_sources < 1:
            problems.append("num_independent_sources must be >= 1")
        if self.num_copiers < 0:
            problems.append("num_copiers must be >= 0")
        lo, hi = self.true_accuracy_range
        if not (0.0 < lo <= hi <= 1.0):
            problems.append(f"true_accuracy_range must satisfy 0 < lo <= hi <= 1, got {lo!r}, {hi!r}")
        if not 0.0 < self.copy_rate <= 1.0:
            problems.append(f"copy_rate must be in (0, 1], got {self.copy_rate!r}")
        if self.n < 1:
            problems.append(f"n must be >= 1, got {self.n!r}")
        if not 0.0 < self.coverage <= 1.0:
            problems.append(f"coverage must be in (0, 1], got {self.coverage!r}")
        if problems:
            raise InvalidSpec("; ".join(problems))


@dataclass(frozen=True)
class GeneratedWorld:
    """A generated dataset with its ground truth."""

    dataset: Dataset
    golden: Mapping[ObjectId, Value]
    copy_graph: tuple[tuple[SourceId, SourceId], ...]
    true_accuracies: Mapping[SourceId, float]


def generate_world(spec: WorldSpec) -> GeneratedWorld:
    """Generate a seeded world of independent sources and copiers.

    Every object gets one true value and n false ones. An independent
    source asserts each object with probability ``coverage``, providing
    the truth with its own accuracy and otherwise a uniformly chosen
    false value. Each copier is tied to one original (distinct originals
    while they last) and, per covered object, repeats the original's
    value with probability ``copy_rate`` whenever the original asserted
    it, falling back to an independent assertion otherwise. The copy
    graph lists (copier, original) edges.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    id_width = max(4, len(str(spec.num_objects - 1)))

    objects = [f"o{i:0{id_width}d}" for i in range(spec.num_objects)]
    # value j of an object is f"{obj}_v{j}", j in 0..n; one of them is true
    true_index = {obj: rng.randrange(spec.n + 1) for obj in objects}
    golden = {obj: f"{obj}_v{j}" for obj, j in true_index.items()}

    lo, hi = spec.true_accuracy_range
    independents = [f"ind{i:03d}" for i in range(spec.num_independent_sources)]
    copiers = [f"cop{i:03d}" for i in range(spec.num_copiers)]
    accuracies = {source: rng.uniform(lo, hi) for source in independents + copiers}

    if spec.num_copiers <= spec.num_independent_sources:
        originals = rng.sample(independents, spec.num_copiers)
    else:
        originals = [rng.choice(independents) for _ in copiers]
    copy_graph = tuple(zip(copiers, originals))
    original_of = dict(copy_graph)

    def independent_value(source: SourceId, obj: ObjectId) -> Value:
        if rng.random() < accuracies[source]:
            return golden[obj]
        # the j-th false value skips the true index
        j = rng.randrange(spec.n)
        return f"{obj}_v{j + (j >= true_index[obj])}"

    claims: list[Claim] = []
    asserted: dict[SourceId, dict[ObjectId, Value]] = {}
    for source in independents:
        mine: dict[ObjectId, Value] = {}
        for obj in objects:
            if rng.random() < spec.coverage:
                mine[obj] = independent_value(source, obj)
        asserted[source] = mine
        claims.extend(Claim(source, obj, value) for obj, value in mine.items())

    for copier in copiers:
        original = asserted[original_of[copier]]
        mine = {}
        for obj in objects:
            if rng.random() >= spec.coverage:
                continue
            copied = rng.random() < spec.copy_rate
            if copied and obj in original:
                mine[obj] = original[obj]
            else:
                mine[obj] = independent_value(copier, obj)
        claims.extend(Claim(copier, obj, value) for obj, value in mine.items())

    return GeneratedWorld(
        dataset=build_dataset(claims),
        golden=golden,
        copy_graph=copy_graph,
        true_accuracies=accuracies,
    )
