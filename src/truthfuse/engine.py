"""The iterative fusion fixpoint and the model-variant ladder.

Each round (1) re-estimates copying between source pairs from the
previous round's beliefs, (2) recomputes value confidences with copy
discounts, and (3) re-estimates source accuracies from the new value
posteriors. Variants toggle the three mechanisms:

    vote         one uniform-accuracy round, no copy discount
    sim          vote plus similarity propagation between values
    accu         iterate accuracy only, no copy detection
    copy         iterate copy detection with accuracy frozen at 1 - eps
    accucopy     iterate accuracy and copy detection together
    accucopysim  accucopy plus similarity propagation

What does not change between rounds is indexed once per dataset, on
first use: the eligible pairs' agreements (``Dataset.pair_agreements``)
for copy detection, and the voter groups' pair tables and the values'
similarity weights (``Dataset.voter_index``) for voting. A round reads
its copy matrix once in pair order (``vote.read_links``), then calls
``discounted_confidences`` and, for the similarity variants,
``adjust_confidences`` once per object.

Everything runs in one thread: pairs and objects are visited in sorted
order, so a report depends only on the claims and the config.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

from .accuracy import (
    SourceAccuracy,
    ValuePosterior,
    posterior_from_confidences,
    select_truth,
    source_accuracy,
)
from .copydetect import EMPTY_COPY_MATRIX, CopyMatrix, detect_all, initial_copy_matrix
from .errors import InvalidConfig
from .model import Dataset, FusionConfig, ObjectId, SourceId, Value
from .similarity import adjust_confidences
from .vote import RoundLinks, discounted_confidences, read_links


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

    @property
    def single_round(self) -> bool:
        return self in (ModelVariant.VOTE, ModelVariant.SIM)


class Termination(Enum):
    CONVERGED = "converged"
    OSCILLATION = "oscillation"
    MAX_ROUNDS = "max_rounds"
    CONTINUE = "continue"


@dataclass(frozen=True)
class FusionState:
    """One round's complete snapshot."""

    round: int
    accuracies: Mapping[SourceId, SourceAccuracy]
    posteriors: Mapping[ObjectId, ValuePosterior]
    truths: Mapping[ObjectId, Value]
    copy_matrix: CopyMatrix
    fingerprint: str


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


def truth_fingerprint(truths: Mapping[ObjectId, Value]) -> str:
    """Stable digest of a truth assignment (process-independent)."""
    digest = hashlib.sha256()
    for obj, value in sorted(truths.items()):
        digest.update(obj.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(value.encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def initial_state(dataset: Dataset, config: FusionConfig) -> FusionState:
    """Uniform starting point: accuracy 1 - eps, per-object uniform beliefs."""
    accuracies = {
        source: SourceAccuracy.from_accuracy(
            config.initial_accuracy, config.n, config.accuracy_clamp
        )
        for source in dataset.sources()
    }
    posteriors: dict[ObjectId, ValuePosterior] = {}
    truths: dict[ObjectId, Value] = {}
    for obj in dataset.objects():
        values = sorted(dataset.voters[obj])
        share = 1.0 / len(values)
        posterior = ValuePosterior(
            confidences={v: 0.0 for v in values},
            probabilities={v: share for v in values},
            unasserted_probability=0.0,
            n=config.n,
        )
        posteriors[obj] = posterior
        truths[obj] = select_truth(posterior)
    return FusionState(
        round=0,
        accuracies=accuracies,
        posteriors=posteriors,
        truths=truths,
        copy_matrix=EMPTY_COPY_MATRIX,
        fingerprint=truth_fingerprint(truths),
    )


def _object_posterior(
    dataset: Dataset,
    obj: ObjectId,
    scores: Mapping[SourceId, float],
    groups: Mapping[frozenset[SourceId], array],
    links: RoundLinks,
    weights: Mapping[ObjectId, array] | None,
    config: FusionConfig,
) -> ValuePosterior:
    """Copy-discounted (and, given ``weights``, similarity-adjusted) posterior."""
    confidences = discounted_confidences(
        dataset.voters[obj], scores, groups, links, config.c
    )
    if weights is not None:
        confidences = adjust_confidences(confidences, weights.get(obj), config.rho)
    return posterior_from_confidences(confidences, config.n, obj)


def step_round(
    state: FusionState,
    dataset: Dataset,
    variant: ModelVariant,
    config: FusionConfig,
) -> FusionState:
    """Apply one full round to a state.

    Round zero weighs shared values by their starting posteriors; later
    rounds classify them hard against the selected truths. Returns the
    state unchanged when the dataset holds no claims.
    """
    if not dataset.claims:
        return state

    if not variant.uses_copy_detection:
        matrix = EMPTY_COPY_MATRIX
    elif state.round == 0:
        matrix = initial_copy_matrix(dataset, state.posteriors, config)
    else:
        matrix = detect_all(dataset, state.truths, state.accuracies, config)

    # the voter groups and similarity weights are indexed once per dataset;
    # a round only reads its matrix in the index's pair order
    index = dataset.voter_index(config.min_overlap)
    if variant.uses_copy_detection:
        groups = index.groups
        links = read_links(matrix, index.pairs, config.direction_threshold)
    else:
        # no group is linked: every vote counts in full
        groups, links = {}, read_links(matrix, (), config.direction_threshold)
    weights = index.weights if variant.uses_similarity else None
    scores = {source: acc.score for source, acc in state.accuracies.items()}
    posteriors = {
        obj: _object_posterior(dataset, obj, scores, groups, links, weights, config)
        for obj in dataset.objects()
    }
    truths = {obj: select_truth(posterior) for obj, posterior in posteriors.items()}

    if variant.updates_accuracy:
        accuracies = {
            source: SourceAccuracy.from_accuracy(
                source_accuracy(source, dataset, posteriors, config.accuracy_clamp),
                config.n,
                config.accuracy_clamp,
            )
            for source in dataset.sources()
        }
    else:
        accuracies = state.accuracies

    return FusionState(
        round=state.round + 1,
        accuracies=accuracies,
        posteriors=posteriors,
        truths=truths,
        copy_matrix=matrix,
        fingerprint=truth_fingerprint(truths),
    )


def check_termination(
    history: Sequence[tuple[str, float]],
    config: FusionConfig,
    cycle_delta: float = math.inf,
) -> Termination:
    """Decide whether the round loop should stop.

    ``history`` holds one (truth fingerprint, stability delta) entry per
    executed round; ``cycle_delta`` is the largest per-source accuracy
    change of the latest round against two rounds back. Converged when
    the last delta is within tolerance. Oscillation when the latest
    truth assignment changed this round yet matches an earlier round's
    (a revisited assignment, i.e. a cycle of period two or more; an
    unchanged assignment is a fixpoint in the making, not a cycle), or
    when the truths held for three rounds and ``cycle_delta`` is within
    tolerance: the accuracies alternate between two states that neither
    converge nor change the truths. The cap ends everything else.
    """
    if not history:
        raise InvalidConfig("termination check on empty history")
    fingerprint, delta = history[-1]
    if delta <= config.stability_tol:
        return Termination.CONVERGED
    if len(history) >= 2 and fingerprint != history[-2][0]:
        if any(f == fingerprint for f, _ in history[:-1]):
            return Termination.OSCILLATION
    elif len(history) >= 3 and history[-3][0] == fingerprint:
        if cycle_delta <= config.stability_tol:
            return Termination.OSCILLATION
    if len(history) >= config.max_rounds:
        return Termination.MAX_ROUNDS
    return Termination.CONTINUE


def _total_truth_confidence(state: FusionState) -> float:
    return math.fsum(
        state.posteriors[obj].confidence(value)
        for obj, value in sorted(state.truths.items())
    )


def _keep_candidate(
    candidates: list[tuple[int, float, FusionState]], index: int, state: FusionState
) -> None:
    """Push round ``index``'s state onto the states an oscillation can report.

    The stack's total truth confidences strictly decrease from bottom to
    top. A state leaves it once a later round scores at least as high:
    any cycle holding both would report the later one.
    """
    score = _total_truth_confidence(state)
    while candidates and candidates[-1][1] <= score:
        candidates.pop()
    candidates.append((index, score, state))


def _best_cycle_state(
    history: Sequence[tuple[str, float]],
    candidates: Sequence[tuple[int, float, FusionState]],
) -> FusionState:
    """The cycle member with the highest total truth confidence.

    Called on an oscillation verdict. When the latest round's truths
    revisit an earlier round's, the cycle spans that earlier round
    through the round before the revisit; when the truths held and the
    accuracies came back to two rounds ago, it spans those two rounds.
    ``candidates`` holds their states as ``_keep_candidate`` left them.
    Confidence ties go to the later round, whose accuracy estimates
    have seen more rounds of refinement. That member is the first
    candidate at or after the cycle's first round.
    """
    fingerprint = history[-1][0]
    if fingerprint == history[-2][0]:
        start = len(history) - 3
    else:
        start = max(i for i in range(len(history) - 1) if history[i][0] == fingerprint)
    return next(state for index, _, state in candidates if index >= start)


def _round_ops(dataset: Dataset, config: FusionConfig, variant: ModelVariant) -> int:
    """Elementary operations one round costs, for the scaling check.

    Copy detection walks each eligible pair's common objects; confidence
    computation orders each voter group (quadratic in its size) and sums
    its scores. Both totals are fixed by the dataset, so they are
    counted once and charged per round.
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
        (abs(accuracies[s].accuracy - before[s].accuracy) for s in sorted(accuracies)),
        default=0.0,
    )


def run(
    dataset: Dataset,
    variant: ModelVariant,
    config: FusionConfig | None = None,
) -> FusionReport:
    """Run a fusion variant to termination and report the outcome.

    Accuracy-updating variants stop when the largest per-source accuracy
    change falls within ``stability_tol``; the frozen-accuracy copy
    variant stops when the selected truths repeat the previous round's
    (its accuracies never move, so accuracy stability would be vacuous).
    Either way a revisited truth assignment stops the loop as an
    oscillation, and so do accuracies that return to their values of
    two rounds before under unchanged truths; the reported state is the
    cycle member with the highest total truth confidence.
    """
    if config is None:
        config = FusionConfig()
    config.validate()
    if not dataset.claims:
        raise InvalidConfig("cannot fuse an empty dataset")

    per_round_ops = _round_ops(dataset, config, variant)
    state = initial_state(dataset, config)
    # every round's fingerprint, but only the states a cycle could report
    candidates: list[tuple[int, float, FusionState]] = []
    history: list[tuple[str, float]] = []
    trajectory: list[float] = []
    ops = 0
    termination = Termination.MAX_ROUNDS

    previous = state
    earlier: Mapping[SourceId, SourceAccuracy] | None = None
    for _ in range(config.max_rounds):
        current = step_round(previous, dataset, variant, config)
        ops += per_round_ops
        accuracy_delta = _largest_change(current.accuracies, previous.accuracies)
        trajectory.append(accuracy_delta)
        cycle_delta = math.inf
        if variant.updates_accuracy:
            effective_delta = accuracy_delta
            if earlier is not None:
                cycle_delta = _largest_change(current.accuracies, earlier)
        else:
            # frozen accuracies: stability means the truths stopped moving
            effective_delta = (
                0.0
                if history and current.fingerprint == previous.fingerprint
                else 1.0
            )
        history.append((current.fingerprint, effective_delta))
        earlier = previous.accuracies
        previous = current
        if variant.single_round:
            termination = Termination.CONVERGED
            break
        verdict = check_termination(history, config, cycle_delta)
        if verdict is not Termination.CONTINUE:
            termination = verdict
            break
        _keep_candidate(candidates, len(history) - 1, current)

    final = previous
    if termination is Termination.OSCILLATION:
        final = _best_cycle_state(history, candidates)
    return FusionReport(
        state=final,
        rounds_run=len(history),
        termination=termination,
        accuracy_trajectory=tuple(trajectory),
        ops_count=ops,
    )
