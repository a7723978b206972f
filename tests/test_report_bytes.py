"""Pinned output bytes: `truthfuse fuse` writes the same files as before.

Three worlds are fused under every variant through the CLI, and a
dense-shaped one (groups of up to 31 voters, whose copy directions turn
cyclic, so accucopy and accucopysim demote edges in ``vote.placement``)
under the copy-detecting variants; the sha256 of ``report.json`` and
``truths.csv`` is compared with a constant.
A change that means to keep results (a refactor, a speed-up) must leave
every digest as it is; a change that means to alter results updates the
constants and says why.
"""

import hashlib

import pytest

from truthfuse import FusionConfig, WorldSpec, generate_world, run, vote
from truthfuse.cli import main
from truthfuse.engine import ModelVariant
from truthfuse.ingest import write_claims

import worlds
from conftest import table1_claims


def _copier_world():
    spec = WorldSpec(40, 8, 4, (0.5, 0.9), 0.8, 10, 0.8, seed=11)
    return generate_world(spec).dataset.claims


DENSE_SPEC = WorldSpec(40, 20, 20, (0.6, 0.9), 0.5, 20, 0.8, seed=3)
DENSE_FLAGS = ["--n", "20", "--min-overlap", "5"]


def _dense_world():
    return generate_world(DENSE_SPEC).dataset.claims


ALL = tuple(ModelVariant)
COPYING = (ModelVariant.COPY, ModelVariant.ACCUCOPY, ModelVariant.ACCUCOPYSIM)

# world -> (claims, fuse flags, variants)
WORLDS = {
    "table1": (table1_claims, ["--n", "5", "--alpha", "0.5", "--min-overlap", "1"], ALL),
    "accuracy_cycle": (
        lambda: worlds.accuracy_cycle_world()[0].claims,
        ["--n", "10", "--min-overlap", "5"],
        ALL,
    ),
    "copiers": (_copier_world, ["--n", "10", "--min-overlap", "5"], ALL),
    "dense": (_dense_world, DENSE_FLAGS, COPYING),
}

# (world, variant) -> (report.json sha256, truths.csv sha256)
DIGESTS = {
    ("accuracy_cycle", "vote"): (
        "26f85c33a7a362455d2645e5623b1de70c524982193df4c8258d71afe1a5a1f6",
        "925260c751b4da584d32497ef033c527a5d84a100d8b5823d914e6b22203d804",
    ),
    ("accuracy_cycle", "sim"): (
        "25152d0ae1af822d31e93bcba00bab4e926567e557416493cddd0b27f9135b55",
        "b53a8637b930186955b2b5635df9e78d2c732223c005b5373e793cbbf3bc656c",
    ),
    ("accuracy_cycle", "accu"): (
        "fd4d50561f11a638ccfb5a477f707b1408ff86539e601b7db8a40438caae09d1",
        "103360481cd3c67bce9e9704c0d0ed715feb3e4f3f44b3f9485d893752d62387",
    ),
    ("accuracy_cycle", "copy"): (
        "09d951c954ebaba7785b0a584a605462827ca22e483a48891a2fb1114e87c376",
        "ddd22de4830a054069bd385331a93931a26b5303ed6010ef1cadb9947fee037f",
    ),
    ("accuracy_cycle", "accucopy"): (
        "9b10cc030c631eb20f71b872cf31ff1fd51595b69bcf550747ed4dcaa2a8b902",
        "21b4c160d73a75ed48d63f5d9fb2f438aec4c47ba821b176c7e480e5abf4e836",
    ),
    ("accuracy_cycle", "accucopysim"): (
        "c86de0535a813ef1d9947c24e67a80a0902edb65b97dd42032e917dc79c85878",
        "ce86f92687f7ff6a59a1c1700023a558bee36ded753ebbe0ff383d9f703d6b4a",
    ),
    ("copiers", "vote"): (
        "2e6787381d7e4b346439dddfc6375d6c3fb5a442493f5ed6ef85fa9ea8e5e8a4",
        "ed20d36e9bb2625f6f4619270636cd729829aaa8e750c3d9b5ae526a8c696a19",
    ),
    ("copiers", "sim"): (
        "274bfe2e3a60a0d63f1ba95079ec3994fa7438667c4a8a834e517888ce9c32f9",
        "81ffeeb4009c0f45ea0a03025206f2f609f298e3cb61e2e89d3743a38413eb96",
    ),
    ("copiers", "accu"): (
        "10557cefdb9f9814669fa5ebc2c94b2372ee66fa6641e3036195c348507a04b5",
        "0a70077e740f2683dea806965e8a15b9dcc44c4d14a0f376c5f4edf0cbcc6919",
    ),
    ("copiers", "copy"): (
        "24aebe16e570abf2607fc0a08145cc9d67d6568d117d94ebc7e4f6de615ebbb5",
        "7d153883dc8729d8116f20f6731d4941a5da97454107c967c5837c3f8255343b",
    ),
    ("copiers", "accucopy"): (
        "e9de8c99ec9e4487ee907c2a964abeb3efb1da88f4ab72268c97736d15c8a53e",
        "5f037d45a273f6ab1a6cbd9e97005be022ec67e4e868449359d7f46a0f71411c",
    ),
    ("copiers", "accucopysim"): (
        "cee72ee1a40ab4e92538c25e31242a10a188816f4c6d2dd8eeb6db294e4270a0",
        "da00b08fac588156a5d4e9ad6ff9d2355572004e3d0a0cb0974dd9f7e2f6d37f",
    ),
    ("dense", "copy"): (
        "0db97e08046b2110c1b005578147284c75c371a13b9aa71238af153ca37b5459",
        "cd0501525a2c2bf893eaff88f5b7649214113d43bc38d4c3568a575be6d24e8a",
    ),
    ("dense", "accucopy"): (
        "6b40799df1da575213062f76a273a7d2f102f279cd7b07e090a1513ce87b98a8",
        "342150e7f8e0fab5e66afd50353db997845119e5582ea82167bb58490a318a15",
    ),
    ("dense", "accucopysim"): (
        "6e0739bd187f6034182c089925b016c7647150a2f7978716d90ea55a924b5633",
        "51005affe955335fb6e511b65dc2ced7e3ad7411058f385825a5c544c8276a5f",
    ),
    ("table1", "vote"): (
        "cc7b17bf032073af9055e4f440b07fc3d31f425d7f0eae2c26fa60e6b7cabe4b",
        "837ae3ceb3efbc5874849553dc10012a7fa96d40941a36b08227ef5cbd0d0a67",
    ),
    ("table1", "sim"): (
        "cc7b17bf032073af9055e4f440b07fc3d31f425d7f0eae2c26fa60e6b7cabe4b",
        "837ae3ceb3efbc5874849553dc10012a7fa96d40941a36b08227ef5cbd0d0a67",
    ),
    ("table1", "accu"): (
        "48ac21f8b5739c2f3f34df9e88a19ec5cc99dc04fd5d1b542fe0d5a2fb13aaea",
        "ca02002fbfe18402a7073ecbfaf33c3c9cd2b3989c72c004b0bde5892c8224a1",
    ),
    ("table1", "copy"): (
        "12327802a3f6d4955a5eb5e39aa404d1ae4936c2798fe7f9cfa37992697e6507",
        "145de832662f65f84ffb419dcfea88e1223d7d078a424684b6c66233e6ae0238",
    ),
    ("table1", "accucopy"): (
        "9687f9711b2507ef9bb79975c4f3e85c68532b6edfd8a61257fc1f2ef0996ac9",
        "a2baf8cc15df6138bbb1cdee0b4cf2570f60cb4802ae4037b3d8a21595ce897f",
    ),
    ("table1", "accucopysim"): (
        "9687f9711b2507ef9bb79975c4f3e85c68532b6edfd8a61257fc1f2ef0996ac9",
        "a2baf8cc15df6138bbb1cdee0b4cf2570f60cb4802ae4037b3d8a21595ce897f",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_fused_bytes_are_pinned(world, tmp_path, monkeypatch):
    make_claims, flags, variants = WORLDS[world]
    claims = tmp_path / "claims.csv"
    write_claims(claims, make_claims())
    monkeypatch.chdir(tmp_path)
    found = {}
    for variant in variants:
        prefix = f"out-{variant.value}"
        code = main(["fuse", str(claims), "--variant", variant.value, *flags,
                     "--out-prefix", prefix])
        assert code == 0
        found[world, variant.value] = (
            _sha256(tmp_path / f"{prefix}.report.json"),
            _sha256(tmp_path / f"{prefix}.truths.csv"),
        )
    assert found == {key: DIGESTS[key] for key in found}


def test_dense_world_demotes_cyclic_copy_directions(monkeypatch):
    # the pin above covers vote.placement's demotion branch only while some
    # copy-detecting run of the dense world meets a cyclic placement
    cyclic = []
    place = vote._place

    def counting(*args):
        placed = place(*args)
        cyclic.append(placed is None)
        return placed

    monkeypatch.setattr(vote, "_place", counting)
    config = FusionConfig(n=20, min_overlap=5)
    run(generate_world(DENSE_SPEC).dataset, ModelVariant.ACCUCOPY, config)
    assert any(cyclic)
