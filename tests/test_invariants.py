"""Model invariants of a finished run, on small generated worlds.

Every final posterior sums to one, every copy triple sums to one, every
accuracy stays inside the clamp band, and the report does not depend on
the order the claims arrive in. Renaming sources and objects renames the
truths; with copy detection that holds only when the renaming keeps the
names' order.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from truthfuse import (
    Claim,
    FusionConfig,
    ModelVariant,
    WorldSpec,
    build_dataset,
    generate_world,
    run,
)

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


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
@settings(max_examples=25, deadline=None)
@given(case=worlds(), shuffle_seed=st.integers(0, 2**16))
def test_run_keeps_model_invariants(variant, case, shuffle_seed):
    world, config = case
    assume(world.dataset.claims)
    report = run(world.dataset, variant, config)
    state = report.state

    assert set(state.posteriors) == set(world.dataset.objects())
    for posterior in state.posteriors.values():
        # the asserted values, then the n + 1 - k unasserted ones, each at its share
        unasserted = posterior.n + 1 - len(posterior.probabilities)
        total = math.fsum(posterior.probabilities.values())
        total += unasserted * posterior.unasserted_probability
        assert total == pytest.approx(1.0, abs=1e-9)
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


def _relabel(names, prefix, rng, keep_order):
    """A bijection onto fresh names; their sorted order is shuffled unless ``keep_order``."""
    names = sorted(names)
    slots = list(range(len(names)))
    if not keep_order:
        rng.shuffle(slots)
    return {name: f"{prefix}{slot:03d}" for name, slot in zip(names, slots)}


def _renamed_runs(case, variant, relabel_seed, keep_order):
    world, config = case
    rng = random.Random(relabel_seed)
    sources = _relabel(world.dataset.sources(), "src", rng, keep_order)
    objects = _relabel(world.dataset.objects(), "obj", rng, keep_order)
    renamed = build_dataset(
        Claim(sources[c.source], objects[c.object], c.value) for c in world.dataset.claims
    )
    return run(world.dataset, variant, config), run(renamed, variant, config), sources, objects


@pytest.mark.parametrize(
    "variant", [ModelVariant.VOTE, ModelVariant.SIM, ModelVariant.ACCU], ids=lambda v: v.value
)
@settings(max_examples=25, deadline=None)
@given(case=worlds(), relabel_seed=st.integers(0, 2**16))
def test_renaming_sources_and_objects_renames_the_truths(variant, case, relabel_seed):
    assume(case[0].dataset.claims)
    report, renamed, _, objects = _renamed_runs(case, variant, relabel_seed, False)
    assert dict(renamed.truths) == {objects[o]: v for o, v in report.truths.items()}


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@settings(max_examples=25, deadline=None)
@given(case=worlds(), relabel_seed=st.integers(0, 2**16))
def test_order_keeping_renaming_renames_the_whole_report(variant, case, relabel_seed):
    # copy-aware voting places the two sources of an undirected pair in id
    # order and discounts the second, so with copy detection only a renaming
    # that keeps the ids' order is sure to keep every result
    assume(case[0].dataset.claims)
    report, renamed, sources, objects = _renamed_runs(case, variant, relabel_seed, True)
    expected = report.to_dict()
    expected["truths"] = {objects[o]: t for o, t in expected["truths"].items()}
    expected["accuracies"] = {sources[s]: a for s, a in expected["accuracies"].items()}
    expected["copy_pairs"] = [[sources[a], sources[b], *rest] for a, b, *rest in expected["copy_pairs"]]
    assert renamed.to_dict() == expected
