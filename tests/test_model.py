import pytest

from truthfuse import Claim, FusionConfig, build_dataset
from truthfuse.errors import ConflictingClaim, InvalidConfig, InvalidParameter

from conftest import table1_claims


def test_empty_input_builds_empty_dataset():
    dataset = build_dataset([])
    assert len(dataset) == 0
    assert dataset.sources() == ()
    assert dataset.objects() == ()


def test_table1_indexes(table1_dataset):
    assert len(table1_dataset) == 25
    assert sorted(table1_dataset.sources()) == ["S1", "S2", "S3", "S4", "S5"]
    assert len(table1_dataset.objects()) == 5
    assert table1_dataset.voters["Carey"] == {
        "UCI": frozenset({"S1"}),
        "AT&T": frozenset({"S2"}),
        "BEA": frozenset({"S3", "S4", "S5"}),
    }


def test_table1_voters_bernstein_and_stonebraker(table1_dataset):
    assert table1_dataset.voters["Bernstein"] == {
        "MSR": frozenset({"S1", "S2", "S3", "S4", "S5"})
    }
    assert table1_dataset.voters["Stonebraker"] == {
        "MIT": frozenset({"S1", "S3", "S4"}),
        "Berkeley": frozenset({"S2"}),
        "MS": frozenset({"S5"}),
    }


def test_conflicting_claim_rejected():
    claims = [Claim("S1", "O1", "a"), Claim("S1", "O1", "b")]
    with pytest.raises(ConflictingClaim):
        build_dataset(claims)


def test_keep_first_overrides_conflict():
    claims = [Claim("S1", "O1", "a"), Claim("S1", "O1", "b")]
    dataset = build_dataset(claims, keep_first=True)
    assert dataset.by_source["S1"]["O1"] == "a"
    assert len(dataset) == 1


def test_identical_duplicates_deduplicated():
    claims = [Claim("S1", "O1", "a"), Claim("S1", "O1", "a")]
    dataset = build_dataset(claims)
    assert len(dataset) == 1


def test_empty_fields_rejected():
    with pytest.raises(InvalidParameter):
        Claim("", "O1", "a")
    with pytest.raises(InvalidParameter):
        Claim("S1", "", "a")
    with pytest.raises(InvalidParameter):
        Claim("S1", "O1", "")


def test_voter_counts_sum_to_claim_count(table1_dataset):
    total = sum(
        len(group)
        for votemap in table1_dataset.voters.values()
        for group in votemap.values()
    )
    assert total == len(table1_dataset)


def test_rebuild_is_idempotent(table1_dataset):
    rebuilt = build_dataset(table1_dataset.claims)
    assert rebuilt.claims == table1_dataset.claims
    assert rebuilt.voters == table1_dataset.voters
    assert rebuilt.by_source == table1_dataset.by_source


def test_pair_agreements_split_every_shared_object(table1_dataset):
    index = table1_dataset.pair_agreements(1)
    # every pair shares all five objects
    assert len(index.pairs) == 10
    assert all(
        agreed + different == 5
        for agreed, different in zip(index.agreed_counts, index.different)
    )


# object -> source -> value. {A, B} votes together on o0, o1 and o2, and
# {A, B, C} on o3, so (A, B) agrees through two groups; (A, D), (B, D) and
# (C, D) share exactly three objects; {D, E} recurs on o5 and o6 but its one
# pair shares only those two objects.
AGREEMENT_WORLD = {
    "o0": {"A": "x", "B": "x", "C": "u", "D": "v"},
    "o1": {"A": "x", "B": "x", "C": "u", "D": "v"},
    "o2": {"A": "x", "B": "x"},
    "o3": {"A": "y", "B": "y", "C": "y"},
    "o4": {"A": "r", "B": "s", "C": "s", "D": "s"},
    "o5": {"D": "t", "E": "t"},
    "o6": {"D": "t", "E": "t"},
}


def _claim_walk(world, min_overlap):
    """(agreed mask, agreed count, different) per eligible pair, from the claims alone."""
    objects = sorted(world)
    sources = sorted({s for claims in world.values() for s in claims})
    expected = {}
    for i, a in enumerate(sources):
        for b in sources[i + 1 :]:
            shared = [k for k, obj in enumerate(objects) if {a, b} <= world[obj].keys()]
            if not shared or len(shared) < min_overlap:
                continue
            agreed = [k for k in shared if world[objects[k]][a] == world[objects[k]][b]]
            mask = sum(1 << k for k in agreed)
            expected[a, b] = (mask, len(agreed), len(shared) - len(agreed))
    return expected


@pytest.mark.parametrize("min_overlap", [1, 3, 4])
def test_pair_agreements_match_a_claim_walk(min_overlap):
    dataset = build_dataset(
        Claim(source, obj, value)
        for obj, claims in AGREEMENT_WORLD.items()
        for source, value in claims.items()
    )
    index = dataset.pair_agreements(min_overlap)
    expected = _claim_walk(AGREEMENT_WORLD, min_overlap)
    assert index.pairs == tuple(expected)
    assert list(zip(index.agreed, index.agreed_counts, index.different)) == list(
        expected.values()
    )
    # the recurring group {A, B} and {A, B, C} together make (A, B)'s mask
    assert expected["A", "B"][0] == 0b1111
    # a pair sharing exactly min_overlap objects is eligible, one fewer is not
    assert (("A", "D") in index.pairs) == (min_overlap <= 3)
    # {D, E} holds no eligible pair, so voting indexes no group for it
    assert (frozenset("DE") in index.groups) == (min_overlap <= 2)
    assert frozenset("AB") in index.groups


def test_source_slots_number_voters_and_name_each_claim(table1_dataset):
    slots = [(obj, value) for obj, votemap in table1_dataset.voters.items() for value in votemap]
    found = table1_dataset.source_slots()
    assert list(found) == list(table1_dataset.by_source)
    for source, claims in table1_dataset.by_source.items():
        assert [slots[i] for i in found[source]] == list(claims.items())
    assert table1_dataset.source_slots() is found


def test_claim_order_independence():
    claims = table1_claims()
    forward = build_dataset(claims)
    backward = build_dataset(list(reversed(claims)))
    assert forward.claims == backward.claims
    assert forward.voters == backward.voters


class TestFusionConfig:
    def test_defaults_are_valid(self):
        config = FusionConfig()
        assert config.n == 100
        assert config.initial_accuracy == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"c": 0.0},
            {"c": 1.5},
            {"eps": 0.0},
            {"rho": 1.0},
            {"direction_threshold": 0.5},
            {"accuracy_clamp": 0.5},
            {"max_rounds": 0},
            {"stability_tol": -1.0},
            {"min_overlap": -1},
        ],
    )
    def test_out_of_range_values_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            FusionConfig(**kwargs)
