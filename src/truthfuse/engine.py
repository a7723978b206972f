"""The iterative fusion fixpoint and the model-variant ladder.

Each round (1) re-estimates copying between source pairs from the
previous round's beliefs (the first round from each value's share of
its object's votes, counted as one source's evidence), (2) recomputes
value confidences with copy discounts, and (3) re-estimates source
accuracies from the new value posteriors. Variants toggle the three
mechanisms:

    vote         one uniform-accuracy round, no copy discount
    sim          vote plus similarity propagation between values
    accu         iterate accuracy only, no copy detection
    copy         iterate copy detection with accuracy frozen at 1 - eps
    accucopy     iterate accuracy and copy detection together
    accucopysim  accucopy plus similarity propagation

A Dataset holds each claim once, in its ``by_source`` and ``voters``
maps; every index below is built from those two. What does not change
between rounds is indexed once per dataset, on first use: the eligible
pairs (``Dataset.pair_agreements``) with their agreements for copy
detection and their voter groups' linked voters for voting, the values'
similarity weights (``Dataset.similarity_weights``), and each source's
claim slots (``Dataset.source_slots``) for the accuracy update.
A round reads its copy matrix once in pair order (``vote.read_links``).
Then one walk over the objects appends each value's confidence and
probability to two flat lists in slot order (``Dataset.source_slots``),
and each object's truth slot, the first highest confidence of its
sorted values. No ``ValuePosterior`` is built in a round: a state's
``posteriors`` builds them on first read, which a run does once, for
the reported state. The tuple of a round's truth slots is its truth
record: equal records mean equal assignments. ``run``'s loop ends, for
every variant, only on ``check_termination``'s verdict, round cap
included; vote and sim never move their accuracies, so they converge in
round one.

In the accuracy-updating variants, once a round's truth record and the
copy directions voting reads have held for three rounds, ``run`` jumps
each source's accuracy with Aitken's Delta-squared process (Aitken,
1926) from its last three values, when they move monotonically in
clearly shrinking steps, and starts the next round there. A jump is not
a round: convergence is still tested on a plain round's residual, and
every reported state, trajectory entry and round count is a round's own
output.

Everything runs in one thread: pairs and objects are visited in sorted
order, so a report depends only on the claims and the config.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum

from .accuracy import (
    SourceAccuracy,
    ValuePosterior,
    normalize_confidences,
    source_accuracies,
    truth_index,
)
from .copydetect import EMPTY_COPY_MATRIX, CopyMatrix, detect_all, initial_copy_matrix
from .errors import InvalidConfig
from .model import Dataset, FusionConfig, ObjectId, SourceId, Value
from .similarity import reinforce
from .vote import discount_votes, read_directions, read_links


class ModelVariant(Enum):
    VOTE = "vote"
    SIM = "sim"
    ACCU = "accu"
    COPY = "copy"
    ACCUCOPY = "accucopy"
    ACCUCOPYSIM = "accucopysim"

    @classmethod
    def from_string(cls, name: str) -> "ModelVariant":
        try:
            return cls(name.strip().lower())
        except ValueError:
            choices = ", ".join(v.value for v in cls)
            raise InvalidConfig(f"unknown variant {name!r}; choose from {choices}") from None

    @property
    def uses_copy_detection(self) -> bool:
        return self in (ModelVariant.COPY, ModelVariant.ACCUCOPY, ModelVariant.ACCUCOPYSIM)

    @property
    def updates_accuracy(self) -> bool:
        return self in (ModelVariant.ACCU, ModelVariant.ACCUCOPY, ModelVariant.ACCUCOPYSIM)

    @property
    def uses_similarity(self) -> bool:
        return self in (ModelVariant.SIM, ModelVariant.ACCUCOPYSIM)


class Termination(Enum):
    CONVERGED = "converged"
    OSCILLATION = "oscillation"
    MAX_ROUNDS = "max_rounds"
    CONTINUE = "continue"


class _SlotPosteriors(Mapping[ObjectId, ValuePosterior]):
    """A round's posteriors, kept as its slot lists until first read.

    ``confidences`` and ``probabilities`` hold one float per slot and
    ``unasserted`` one share per object. The first read builds every
    ``ValuePosterior`` and keeps them, so the mapping reads as a dict does.
    """

    __slots__ = ("_voters", "_confidences", "_probabilities", "_unasserted", "_n", "_built")

    def __init__(
        self,
        voters: Mapping[ObjectId, Mapping[Value, frozenset[SourceId]]],
        confidences: list[float],
        probabilities: list[float],
        unasserted: list[float],
        n: int,
    ) -> None:
        self._voters = voters
        self._confidences = confidences
        self._probabilities = probabilities
        self._unasserted = unasserted
        self._n = n
        self._built: dict[ObjectId, ValuePosterior] | None = None

    def __getitem__(self, obj: ObjectId) -> ValuePosterior:
        if self._built is None:
            built: dict[ObjectId, ValuePosterior] = {}
            end = 0
            for (key, votemap), share in zip(self._voters.items(), self._unasserted):
                start, end = end, end + len(votemap)
                built[key] = ValuePosterior(
                    dict(zip(votemap, self._confidences[start:end])),
                    dict(zip(votemap, self._probabilities[start:end])),
                    share,
                    self._n,
                )
            self._built = built
        return self._built[obj]

    def __iter__(self) -> Iterator[ObjectId]:
        return iter(self._voters)

    def __len__(self) -> int:
        return len(self._voters)


@dataclass(frozen=True)
class FusionState:
    """One round's snapshot; round 0 holds only the starting accuracies.

    A round's ``posteriors`` is a read-only mapping that builds its
    ``ValuePosterior``s on first read. Its ``truth_slots`` (each object's
    truth as a slot number, in ``Dataset.voters`` order) are its truth
    record, and ``truth_confidence``, the ``fsum`` of their confidences,
    its oscillation score; a state no round built holds () and 0.0.
    """

    round: int
    accuracies: Mapping[SourceId, SourceAccuracy]
    posteriors: Mapping[ObjectId, ValuePosterior]
    truths: Mapping[ObjectId, Value]
    copy_matrix: CopyMatrix
    truth_slots: tuple[int, ...] = ()
    truth_confidence: float = 0.0


@dataclass(frozen=True)
class FusionReport:
    """Final state plus termination diagnostics."""

    state: FusionState
    rounds_run: int
    termination: Termination
    accuracy_trajectory: tuple[float, ...]
    ops_count: int

    @property
    def truths(self) -> Mapping[ObjectId, Value]:
        return self.state.truths

    def to_dict(self) -> dict:
        """Canonical, JSON-ready representation (sorted keys throughout)."""
        return {
            "rounds_run": self.rounds_run,
            "termination": self.termination.value,
            "accuracy_trajectory": list(self.accuracy_trajectory),
            "ops_count": self.ops_count,
            "truths": {
                obj: {
                    "value": value,
                    "probability": self.state.posteriors[obj].probability(value),
                }
                for obj, value in sorted(self.state.truths.items())
            },
            "accuracies": {
                source: acc.accuracy
                for source, acc in sorted(self.state.accuracies.items())
            },
            "copy_pairs": [
                [a, b, est.independent, est.first_copies_second, est.second_copies_first]
                for (a, b), est in self.state.copy_matrix.items()
            ],
        }


def initial_state(dataset: Dataset, config: FusionConfig) -> FusionState:
    """Round 0: every source at accuracy 1 - eps, and no beliefs yet.

    The state holds no posteriors, truths or copy estimates; round zero
    takes its value beliefs from the claims (``initial_copy_matrix``).
    """
    accuracies = {
        source: SourceAccuracy.from_accuracy(
            config.initial_accuracy, config.n, config.accuracy_clamp
        )
        for source in dataset.sources()
    }
    return FusionState(
        round=0,
        accuracies=accuracies,
        posteriors={},
        truths={},
        copy_matrix=EMPTY_COPY_MATRIX,
    )


def step_round(
    state: FusionState,
    dataset: Dataset,
    variant: ModelVariant,
    config: FusionConfig,
) -> FusionState:
    """Apply one full round to a state.

    Round zero weighs shared values by their start, each value's share
    of its object's votes counted as one source's (``initial_copy_matrix``);
    later rounds classify them hard against the selected truths. Builds
    no ``ValuePosterior``. Returns the state unchanged when the dataset
    holds no claims.
    """
    if not dataset.by_source:
        return state

    if not variant.uses_copy_detection:
        # no group is linked, and no pair index is built: every vote counts in full
        matrix, groups, pairs = EMPTY_COPY_MATRIX, {}, ()
    else:
        if state.round == 0:
            matrix = initial_copy_matrix(dataset, config)
        else:
            matrix = detect_all(dataset, state.truths, state.accuracies, config)
        # the pair index is built once per dataset; a round only reads its
        # matrix in the index's pair order
        index = dataset.pair_agreements(config.min_overlap)
        groups, pairs = index.groups, index.pairs
    links = read_links(matrix, pairs, config.direction_threshold)
    weights = dataset.similarity_weights() if variant.uses_similarity else None
    scores = {source: acc.score for source, acc in state.accuracies.items()}
    # slot i's confidence and probability, as Dataset.source_slots numbers the slots
    confidences: list[float] = []
    probabilities: list[float] = []
    unasserted: list[float] = []
    truth_slots: list[int] = []
    truths: dict[ObjectId, Value] = {}
    for obj, votemap in dataset.voters.items():
        confs = discount_votes(votemap, scores, groups, links, config.c)
        if weights is not None:
            confs = reinforce(confs, weights.get(obj), config.rho)
        probs, share = normalize_confidences(confs, config.n, obj)
        best = truth_index(confs)
        truth_slots.append(len(confidences) + best)
        truths[obj] = list(votemap)[best]
        confidences += confs
        probabilities += probs
        unasserted.append(share)

    if variant.updates_accuracy:
        accuracies = source_accuracies(
            dataset.source_slots(), probabilities, config.n, config.accuracy_clamp
        )
    else:
        accuracies = state.accuracies

    return FusionState(
        round=state.round + 1,
        accuracies=accuracies,
        posteriors=_SlotPosteriors(
            dataset.voters, confidences, probabilities, unasserted, config.n
        ),
        truths=truths,
        copy_matrix=matrix,
        truth_slots=tuple(truth_slots),
        truth_confidence=math.fsum(map(confidences.__getitem__, truth_slots)),
    )


def _cycle_start(
    history: Sequence[tuple[tuple[int, ...], float]],
    config: FusionConfig,
    cycle_delta: float,
) -> int | None:
    """History index of the first round of the cycle the latest round closes, or None.

    Truths that changed this round yet match an earlier round's revisit
    it: the cycle runs from the last such round to the one before the
    latest (an unchanged assignment is a fixpoint in the making). Truths
    held for three rounds with ``cycle_delta`` within tolerance mean the
    accuracies alternate between the two rounds before the latest.
    """
    truths = history[-1][0]
    latest = len(history) - 1
    if latest >= 1 and truths != history[-2][0]:
        revisited = [i for i in range(latest) if history[i][0] == truths]
        return revisited[-1] if revisited else None
    held = latest >= 2 and history[-3][0] == truths
    return latest - 2 if held and cycle_delta <= config.stability_tol else None


def check_termination(
    history: Sequence[tuple[tuple[int, ...], float]],
    config: FusionConfig,
    cycle_delta: float = math.inf,
) -> Termination:
    """Decide whether the round loop should stop.

    ``history`` holds one (truth record, stability delta) entry per
    executed round; ``cycle_delta`` is the largest per-source accuracy
    change of the latest round against two rounds back. Converged when
    the last delta is within tolerance; oscillation when the latest
    round closes a cycle (``_cycle_start``). The cap ends everything else.
    """
    if not history:
        raise InvalidConfig("termination check on empty history")
    if history[-1][1] <= config.stability_tol:
        return Termination.CONVERGED
    if _cycle_start(history, config, cycle_delta) is not None:
        return Termination.OSCILLATION
    if len(history) >= config.max_rounds:
        return Termination.MAX_ROUNDS
    return Termination.CONTINUE


def _keep_candidate(
    candidates: list[tuple[int, float, FusionState]], index: int, state: FusionState
) -> None:
    """Push round ``index``'s state onto the states an oscillation can report.

    The stack's ``truth_confidence``s strictly decrease from bottom to
    top. A state leaves it once a later round scores at least as high:
    any cycle holding both would report the later one.
    """
    score = state.truth_confidence
    while candidates and candidates[-1][1] <= score:
        candidates.pop()
    candidates.append((index, score, state))


def _best_cycle_state(
    candidates: Sequence[tuple[int, float, FusionState]], start: int
) -> FusionState:
    """The highest-confidence member of the cycle from history index ``start`` on.

    Ties go to the later round, whose accuracies are more refined: the
    first candidate at or after ``start`` on ``_keep_candidate``'s stack.
    """
    return next(state for index, _, state in candidates if index >= start)


def _round_ops(dataset: Dataset, config: FusionConfig, variant: ModelVariant) -> int:
    """A size proxy for one round, for the scaling check, charged per round.

    It counts each eligible pair's shared objects when the variant
    detects copies, plus k(k + 1) per voter group of k voters, once per
    dataset. It measures no work done: copy detection reads the pair
    index's counts, and voting places only a group's linked voters.
    """
    ops = 0
    if variant.uses_copy_detection:
        index = dataset.pair_agreements(config.min_overlap)
        ops += sum(index.agreed_counts) + sum(index.different)
    ops += sum(
        len(group) * (len(group) + 1)
        for votemap in dataset.voters.values()
        for group in votemap.values()
    )
    return ops


def _largest_change(
    accuracies: Mapping[SourceId, SourceAccuracy],
    before: Mapping[SourceId, SourceAccuracy],
) -> float:
    return max(
        (abs(accuracies[s].accuracy - before[s].accuracy) for s in accuracies), default=0.0
    )


# a jump needs steps that shrink by at least this ratio, so it is at most
# 0.95 / 0.05 = 19 last steps long; steps equal up to rounding keep x2
_MAX_STEP_RATIO = 0.95


def _aitken(
    x0: SourceAccuracy, x1: SourceAccuracy, x2: SourceAccuracy, config: FusionConfig
) -> SourceAccuracy:
    """One source's Aitken Delta-squared jump from its last three accuracies.

    Only a monotone, contracting triple (steps d1 = x1 - x0 and
    d2 = x2 - x1 of one sign, |d2| < ``_MAX_STEP_RATIO`` * |d1|) jumps,
    to the limit x2 - d2^2 / (d2 - d1) clamped into the band. Any other
    triple keeps x2: an alternating one, and one whose steps are nearly
    equal, whose limit would lie far off or be rounding noise.
    """
    d1 = x1.accuracy - x0.accuracy
    d2 = x2.accuracy - x1.accuracy
    if d1 * d2 > 0.0 and abs(d2) < _MAX_STEP_RATIO * abs(d1):
        return SourceAccuracy.from_accuracy(
            x2.accuracy - d2 * d2 / (d2 - d1), config.n, config.accuracy_clamp
        )
    return x2


def run(
    dataset: Dataset,
    variant: ModelVariant,
    config: FusionConfig | None = None,
) -> FusionReport:
    """Run a fusion variant to termination and report the outcome.

    The loop ends only on ``check_termination``'s verdict, which also
    enforces ``max_rounds``. A run is stable once the largest per-source
    accuracy change is within ``stability_tol``, which vote and sim meet
    in round one; the frozen-accuracy copy variant once the selected
    truths repeat the previous round's (its accuracies never move). On an
    oscillation the reported state is the cycle member with the highest
    total truth confidence.

    In accuracy-updating variants a round holds when its truth record and
    copy directions (``read_directions``) equal those of the state it was
    stepped from; a jumped start keeps that state's matrix. A holding
    round appends its accuracies to ``held``, any other round restarts
    ``held`` from them. A third map jumps each source (``_aitken``) and
    restarts ``held`` from the jumped map, where the next round starts;
    that round's trajectory entry is its change against the jumped map.
    The accuracy-cycle test compares a round with the state two rounds
    back, so it skips the two rounds after a jump: neither has a plain
    round two back, since the jumped map replaced one.
    """
    if config is None:
        config = FusionConfig()
    if not dataset.by_source:
        raise InvalidConfig("cannot fuse an empty dataset")

    state = initial_state(dataset, config)
    # every round's truth record, but only the states a cycle could report
    candidates: list[tuple[int, float, FusionState]] = []
    history: list[tuple[tuple[int, ...], float]] = []
    trajectory: list[float] = []
    earlier: Mapping[SourceId, SourceAccuracy] | None = None
    after_jump = False
    # the accuracy maps of the rounds since the last one that did not hold
    held: list[Mapping[SourceId, SourceAccuracy]] = []
    while True:
        current = step_round(state, dataset, variant, config)
        accuracy_delta = _largest_change(current.accuracies, state.accuracies)
        trajectory.append(accuracy_delta)
        record = current.truth_slots
        truths_held = bool(history) and record == history[-1][0]
        if truths_held:
            record = history[-1][0]  # rounds that keep their truths share one record
        if variant is ModelVariant.COPY:
            # frozen accuracies never jump, so the last record is the previous
            # round's truths: stability means they stopped moving
            stability_delta = 0.0 if truths_held else 1.0
        else:
            # vote and sim never move their accuracies: they converge in round one
            stability_delta = accuracy_delta
        cycle_delta = math.inf if earlier is None else _largest_change(
            current.accuracies, earlier
        )
        history.append((record, stability_delta))
        verdict = check_termination(history, config, cycle_delta)
        if verdict is not Termination.CONTINUE:
            break
        _keep_candidate(candidates, len(history) - 1, current)
        start = current
        if variant.updates_accuracy:
            earlier = None if after_jump else state.accuracies
            after_jump = False
            threshold = config.direction_threshold
            if truths_held and read_directions(
                current.copy_matrix, threshold
            ) == read_directions(state.copy_matrix, threshold):
                held.append(current.accuracies)
            else:
                held = [current.accuracies]
            if len(held) == 3:
                x0, x1, x2 = held
                jumped = {
                    source: _aitken(x0[source], x1[source], acc, config)
                    for source, acc in x2.items()
                }
                held = [jumped]
                if any(jumped[source] is not acc for source, acc in x2.items()):
                    start = replace(current, accuracies=jumped)
                    earlier, after_jump = None, True
        state = start

    reported = current
    if verdict is Termination.OSCILLATION:
        reported = _best_cycle_state(candidates, _cycle_start(history, config, cycle_delta))
    return FusionReport(
        state=reported,
        rounds_run=len(history),
        termination=verdict,
        accuracy_trajectory=tuple(trajectory),
        ops_count=_round_ops(dataset, config, variant) * len(history),
    )
