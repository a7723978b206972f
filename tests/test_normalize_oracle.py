"""The shipped author-list normalizer equals its reference on every input.

``truthfuse.ingest.normalize_author_list`` skips the "and" split where no
"and" occurs, lower-cases each name group once and cleans only the
tokens it keeps; ``oracles.normalize_author_list`` is the plain version.
They are compared (``==``) on text drawn from the characters where such
shortcuts could go wrong: "and" in mixed case, the separators, edge
punctuation, digits, whitespace that ``str.split`` knows and a space
does not, and letters whose lower case changes length (``İ``), turns
final (``Σ``) or lands in [a-z] from outside ASCII (the Kelvin sign);
and on every distinct raw value of the benchmark's seed-1 claim files.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse.ingest import normalize_author_list

import oracles

# the benchmark's world generator, loaded by path under its own name,
# since tests/worlds.py takes the name ``worlds`` (its dataclasses look
# their module up in sys.modules)
_SPEC = importlib.util.spec_from_file_location(
    "benchmark_worlds", Path(__file__).resolve().parent.parent / "perfbench" / "worlds.py"
)
benchmark_worlds = importlib.util.module_from_spec(_SPEC)
sys.modules["benchmark_worlds"] = benchmark_worlds
_SPEC.loader.exec_module(benchmark_worlds)

# "\u212a" is the Kelvin sign, whose lower case is "k"
CHARACTERS = list("abdnoxAND ;,.'-07\t\xa0\x85\x1c\u0130\u0131\u03a3\u00df\u212a")
PIECES = CHARACTERS + ["and", "AND", "aNd", " and ", "Ann", "Smith", "J.", "O'Neil", "-x-"]


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=CHARACTERS, max_size=40))
def test_normalizer_equals_reference_on_drawn_characters(raw):
    assert normalize_author_list(raw) == oracles.normalize_author_list(raw)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=16).map("".join))
def test_normalizer_equals_reference_on_drawn_words(raw):
    assert normalize_author_list(raw) == oracles.normalize_author_list(raw)


@pytest.mark.parametrize("workload", ["books", "dense", "scale"])
def test_normalizer_equals_reference_on_benchmark_values(workload):
    inputs = benchmark_worlds.realize(benchmark_worlds.make_world(workload), 1)
    raws = {raw.strip() for _, _, raw in inputs.rows}
    wrong = [
        raw for raw in sorted(raws)
        if normalize_author_list(raw) != oracles.normalize_author_list(raw)
    ]
    assert wrong == []
