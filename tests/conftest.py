import dataclasses

import pytest

from truthfuse import (
    Claim,
    FusionConfig,
    ModelVariant,
    ValuePosterior,
    accuracy_score,
    build_dataset,
    initial_state,
    step_round,
)
from truthfuse.accuracy import normalize_confidences

# Five sources assert the affiliations of five researchers. S1 is
# entirely correct; S4 and S5 copy from S3, S5 with one copy error.
TABLE1_ROWS = {
    "S1": {"Stonebraker": "MIT", "Dewitt": "MSR", "Bernstein": "MSR", "Carey": "UCI", "Halevy": "Google"},
    "S2": {"Stonebraker": "Berkeley", "Dewitt": "MSR", "Bernstein": "MSR", "Carey": "AT&T", "Halevy": "Google"},
    "S3": {"Stonebraker": "MIT", "Dewitt": "UWisc", "Bernstein": "MSR", "Carey": "BEA", "Halevy": "UW"},
    "S4": {"Stonebraker": "MIT", "Dewitt": "UWisc", "Bernstein": "MSR", "Carey": "BEA", "Halevy": "UW"},
    "S5": {"Stonebraker": "MS", "Dewitt": "UWisc", "Bernstein": "MSR", "Carey": "BEA", "Halevy": "UW"},
}

# Ground truth is S1's column.
TABLE1_TRUTHS = dict(TABLE1_ROWS["S1"])


def table1_claims() -> list[Claim]:
    return [
        Claim(source, obj, value)
        for source, row in TABLE1_ROWS.items()
        for obj, value in row.items()
    ]


def start_posteriors(dataset, config):
    """Round zero's beliefs as posteriors: one source's worth of each object's votes.

    A value v asserted by V_v of an object's N_o voters has the
    confidence score(1 - eps) * (V_v / N_o), normalized over the n + 1
    values of its domain. ``oracles.initial_copy_posterior`` reads a
    shared value's probability from these; ``initial_copy_matrix`` takes
    the same start from the claims.
    """
    score = accuracy_score(config.initial_accuracy, config.n, config.accuracy_clamp)
    posteriors = {}
    for obj, votemap in dataset.voters.items():
        values = sorted(votemap)
        voters = sum(len(votemap[v]) for v in values)
        confidences = [score * (len(votemap[v]) / voters) for v in values]
        probabilities, unasserted = normalize_confidences(confidences, config.n, obj)
        posteriors[obj] = ValuePosterior(
            confidences=dict(zip(values, confidences)),
            probabilities=dict(zip(values, probabilities)),
            unasserted_probability=unasserted,
            n=config.n,
        )
    return posteriors


def vote_posteriors(dataset, accuracies, n):
    """Each object's posterior as one ``vote`` round computes it from ``accuracies``."""
    config = FusionConfig(n=n)
    state = dataclasses.replace(initial_state(dataset, config), accuracies=accuracies)
    return step_round(state, dataset, ModelVariant.VOTE, config).posteriors


@pytest.fixture(scope="session")
def table1_dataset():
    return build_dataset(table1_claims())


@pytest.fixture()
def table1_config():
    # five false values per domain, even prior on independence
    return FusionConfig(n=5, alpha=0.5, c=0.8, eps=0.2, min_overlap=1)
