"""Pinned output bytes: `truthfuse fuse` writes the same files as before.

Three worlds are fused under every variant through the CLI, and a
dense-shaped one (groups of up to 35 voters, cyclic copy directions)
under the copy-detecting variants; the sha256 of ``report.json`` and
``truths.csv`` is compared with a constant.
A change that means to keep results (a refactor, a speed-up) must leave
every digest as it is; a change that means to alter results updates the
constants and says why.
"""

import hashlib

import pytest

from truthfuse import WorldSpec, generate_world
from truthfuse.cli import main
from truthfuse.engine import ModelVariant
from truthfuse.ingest import write_claims

import worlds
from conftest import table1_claims


def _copier_world():
    spec = WorldSpec(40, 8, 4, (0.5, 0.9), 0.8, 10, 0.8, seed=11)
    return generate_world(spec).dataset.claims


def _dense_world():
    spec = WorldSpec(40, 30, 10, (0.7, 0.9), 0.8, 50, 0.8, seed=3)
    return generate_world(spec).dataset.claims


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
    "dense": (_dense_world, ["--n", "50", "--min-overlap", "5"], COPYING),
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
        "f81eb5980a2437a0a34d05f709c2bba5c591f6f04b8811e781eb53ad72595a3d",
        "99d6193a979527c2cb98bc400fc9901b2f9bbb4805b64af853576d0706e4bdee",
    ),
    ("accuracy_cycle", "copy"): (
        "09d951c954ebaba7785b0a584a605462827ca22e483a48891a2fb1114e87c376",
        "ddd22de4830a054069bd385331a93931a26b5303ed6010ef1cadb9947fee037f",
    ),
    ("accuracy_cycle", "accucopy"): (
        "d22fbfd9b87b51f4aaa9fa055ffbf3d739d7f15b83e82aa14578ea6151bcaecd",
        "3e0080873d1bf172abd27eafde5dfd23feb15113b5ea808c49f2c11578c6eb35",
    ),
    ("accuracy_cycle", "accucopysim"): (
        "f07b5c83676e58ebff15e07d6a3421d8dcbe8db8304ae0e1b854f6d1f3d29917",
        "1975915c6b8667b84ae8ce00802d87946b3327fb12666d89caa5deaf3952a375",
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
        "d673029f298a173c9ea0b2c5e6d876723e853c34635a59a069b1f1f70bcb57fa",
        "ae1fa6a3b973908eea2fdee12285259147908d4dfbea13d0013c705b268270fe",
    ),
    ("copiers", "copy"): (
        "24aebe16e570abf2607fc0a08145cc9d67d6568d117d94ebc7e4f6de615ebbb5",
        "7d153883dc8729d8116f20f6731d4941a5da97454107c967c5837c3f8255343b",
    ),
    ("copiers", "accucopy"): (
        "3249684c8e42b63b4c10f2bbff9e0cab44d8c9872a9b68b2ad98402b5d2429d8",
        "609bf25d2394c052c3616577b1fe8d71c767c88228d036f69c083b84a880cb9e",
    ),
    ("copiers", "accucopysim"): (
        "b13fe9d06f191c0821849a40e2286d4a72a5710e820f9facb497377223a21b0e",
        "8a40a4c6989243550b6311a89b8b8d0eef388f74392d76303263dbb99552b532",
    ),
    ("dense", "copy"): (
        "4b7600dc5ea77d772f7b7ee96365cfc79d29cec0801716f483b6f72ae3c0b7cd",
        "354537098fc5c73ba7c06895b453dc420be8f3c4e7641114a2d390e7582eea08",
    ),
    ("dense", "accucopy"): (
        "8a5b5451984be14487f417a27148c2d6881d592e0ebd67fa4b95d3f356787d31",
        "e9136c5ac4abf9b486f1ccb39a7414cce42808462917cff9a6aea5d0d80d9d46",
    ),
    ("dense", "accucopysim"): (
        "aea280ff8900e6d55a477be3b1099d67204126ccf7f14a8635ccfaf4ab947c81",
        "bdd72a73b733e14f8af7420b1cbb46cdbf82a0f026371fd5d08c1234eee3bce7",
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
        "0a0ef11040c9035b1f61aab53a33f7ad7976e7d7691c15919e80e31624a5a9b9",
        "3cecc041a040a5c8a36e4daac4b42611f6cbc613bc7b1fd2237c63864fb88ff1",
    ),
    ("table1", "copy"): (
        "12327802a3f6d4955a5eb5e39aa404d1ae4936c2798fe7f9cfa37992697e6507",
        "145de832662f65f84ffb419dcfea88e1223d7d078a424684b6c66233e6ae0238",
    ),
    ("table1", "accucopy"): (
        "ac58d00043573103ee8ddb67d440a1e857d9641e1df9fc6ddce38d319986112a",
        "c36172c11b70d50618a590fad950c718b1ace724bbb7ce3b537d29c29ebe2b22",
    ),
    ("table1", "accucopysim"): (
        "ac58d00043573103ee8ddb67d440a1e857d9641e1df9fc6ddce38d319986112a",
        "c36172c11b70d50618a590fad950c718b1ace724bbb7ce3b537d29c29ebe2b22",
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
