"""Model invariants of a finished run, on small generated worlds.

Every final posterior sums to one, every copy triple sums to one, every
accuracy stays inside the clamp band, and the report does not depend on
the order the claims arrive in.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from truthfuse import FusionConfig, ModelVariant, WorldSpec, build_dataset, generate_world, run

VARIANTS = [ModelVariant.ACCUCOPY, ModelVariant.ACCUCOPYSIM]


@st.composite
def worlds(draw):
    low = draw(st.floats(0.05, 0.9))
    spec = WorldSpec(
        num_objects=draw(st.integers(4, 12)),
        num_independent_sources=draw(st.integers(2, 5)),
        num_copiers=draw(st.integers(0, 3)),
        true_accuracy_range=(low, draw(st.floats(low, 1.0))),
        copy_rate=draw(st.floats(0.1, 1.0)),
        n=draw(st.integers(1, 8)),
        coverage=draw(st.floats(0.5, 1.0)),
        seed=draw(st.integers(0, 2**16)),
    )
    config = FusionConfig(
        n=spec.n,
        min_overlap=draw(st.integers(0, 4)),
        accuracy_clamp=draw(st.sampled_from([0.01, 0.25])),
        max_rounds=20,
    )
    return generate_world(spec), config


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@settings(max_examples=25, deadline=None)
@given(case=worlds(), shuffle_seed=st.integers(0, 2**16))
def test_run_keeps_model_invariants(variant, case, shuffle_seed):
    world, config = case
    assume(world.dataset.claims)
    report = run(world.dataset, variant, config)
    state = report.state

    assert set(state.posteriors) == set(world.dataset.objects())
    for posterior in state.posteriors.values():
        assert posterior.total_probability() == pytest.approx(1.0, abs=1e-9)
    for _, estimate in state.copy_matrix.items():
        total = (
            estimate.independent
            + estimate.first_copies_second
            + estimate.second_copies_first
        )
        assert total == pytest.approx(1.0, abs=1e-9)
    clamp = config.accuracy_clamp
    for accuracy in state.accuracies.values():
        assert clamp <= accuracy.accuracy <= 1.0 - clamp

    claims = list(world.dataset.claims)
    random.Random(shuffle_seed).shuffle(claims)
    shuffled = run(build_dataset(claims), variant, config)
    assert shuffled.to_dict() == report.to_dict()
