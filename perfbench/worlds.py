"""Seeded claim worlds for the benchmark, made without importing truthfuse.

A workload is built in two steps.

1. ``make_world`` draws a fixed world: who lists which object, every
   value, the golden truth and the copy graph. Its random stream is seeded
   by the workload's own constant ``WORLD_SEEDS[name]``, so the world's
   content does not depend on the benchmark's ``--seed``. Rounds to
   convergence swing with world content (on the dense shape, six world
   seeds took 8 to 30+ rounds), and a workload whose work doubles from one
   seed to the next measures nothing steadily.
2. ``realize`` turns the world into the claim file a run fuses, from the
   run's ``--seed``: an order-preserving relabelling of sources and
   objects, a shuffle of the rows and, on books, the raw text of every
   author list (case, middle initials, and which of the formats the
   normaliser accepts). Order-preserving names keep every tie-break of the
   engine, and value strings are left alone because similarity compares
   their characters, so each seed runs the same computation on different
   bytes.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

WORLD_SEEDS = {"scale": 20, "dense": 3, "books": 6}


@dataclass
class World:
    """A claim world in canonical form.

    ``claims`` holds (source, object, canonical value) once per listing;
    ``copies`` holds (copier, original) edges. On books, ``authors`` maps a
    canonical author list to its authors as (first, middle, last) tuples,
    which ``realize`` renders into raw text.
    """

    claims: list[tuple[str, str, str]]
    golden: dict[str, str]
    copies: list[tuple[str, str]]
    authors: dict[str, tuple[tuple[str, str, str], ...]] = field(default_factory=dict)


@dataclass
class Inputs:
    """One run's claim rows (raw text) and what the benchmark knows of them."""

    rows: list[tuple[str, str, str]]
    canonical: list[str]
    golden: dict[str, str]
    copies: list[tuple[str, str]]

    def write(self, path: Path) -> None:
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["source", "object", "value"])
            writer.writerows(self.rows)


# ---------------------------------------------------------------- scale


def scale_world(seed: int) -> World:
    """The book case study's shape: 877 sources, 1,263 objects, 24,364 claims.

    Source sizes follow a Pareto tail capped at 1,100 objects, so large
    sources share many objects and a few thousand pairs clear the overlap
    threshold. 87 copiers draw 80% of their catalogue from inside their
    original's, one of the 120 largest sources, and repeat its value with
    probability 0.8. Each object has n + 1 = 101 possible values.
    """
    num_sources, num_objects, num_claims, num_copiers = 877, 1263, 24364, 87
    n, copy_rate = 100, 0.8
    rng = random.Random(seed)
    objects = [f"b{i:04d}" for i in range(num_objects)]
    independents = [f"ind{i:03d}" for i in range(num_sources - num_copiers)]
    copiers = [f"cop{i:03d}" for i in range(num_copiers)]
    golden, domains = {}, {}
    for obj in objects:
        values = [f"{obj}_v{j}" for j in range(n + 1)]
        golden[obj] = values[rng.randrange(n + 1)]
        domains[obj] = values
    accuracy = {s: rng.uniform(0.5, 0.95) for s in independents + copiers}

    raw = [rng.paretovariate(1.3) for _ in range(num_sources)]
    total_raw = sum(raw)
    cap = min(1100, num_objects)
    sizes = [max(3, min(cap, int(num_claims * w / total_raw))) for w in raw]
    deficit = num_claims - sum(sizes)
    by_size = sorted(range(num_sources), key=lambda i: -sizes[i])
    i = 0
    while deficit != 0:
        idx = by_size[i % num_sources]
        step = 1 if deficit > 0 else -1
        if 3 <= sizes[idx] + step <= cap:
            sizes[idx] += step
            deficit -= step
        i += 1
    size_of = dict(zip(independents + copiers, sizes))

    def independent_value(source: str, obj: str) -> str:
        if rng.random() < accuracy[source]:
            return golden[obj]
        while True:
            value = domains[obj][rng.randrange(n + 1)]
            if value != golden[obj]:
                return value

    claims: list[tuple[str, str, str]] = []
    asserted: dict[str, dict[str, str]] = {}
    for source in independents:
        mine = {
            obj: independent_value(source, obj)
            for obj in rng.sample(objects, min(size_of[source], num_objects))
        }
        asserted[source] = mine
        claims.extend((source, o, v) for o, v in sorted(mine.items()))

    big = sorted(independents, key=lambda s: -size_of[s])[:120]
    originals = [big[rng.randrange(len(big))] for _ in copiers]
    for copier, original in zip(copiers, originals):
        catalog = sorted(asserted[original])
        count = min(size_of[copier], num_objects)
        inside = min(int(count * 0.8), len(catalog))
        chosen = set(rng.sample(catalog, inside))
        outside = [o for o in objects if o not in chosen]
        chosen |= set(rng.sample(outside, count - inside))
        for obj in sorted(chosen):
            if rng.random() < copy_rate and obj in asserted[original]:
                value = asserted[original][obj]
            else:
                value = independent_value(copier, obj)
            claims.append((copier, obj, value))

    covered = {obj for _, obj, _ in claims}
    filler = independents[0]
    for obj in objects:
        if obj not in covered:
            claims.append((filler, obj, independent_value(filler, obj)))
    return World(claims, golden, list(zip(copiers, originals)))


# ---------------------------------------------------------------- dense


def dense_world(seed: int) -> World:
    """Uniform coverage: 60 independents and 20 copiers each list 80% of 100 objects.

    Accuracies are uniform in [0.7, 0.9]; a false value is one of n = 50
    per object. Each copier has its own original and repeats the
    original's value with probability 0.8 where the original lists the
    object. Every source pair shares ~64% of the objects, so all 3,160
    pairs are eligible and true-value voter groups hold ~50 sources.
    """
    num_objects, n, coverage, copy_rate = 100, 50, 0.8, 0.8
    rng = random.Random(seed)
    objects = [f"o{i:04d}" for i in range(num_objects)]
    golden, domains = {}, {}
    for obj in objects:
        values = [f"{obj}_v{j}" for j in range(n + 1)]
        golden[obj] = values[rng.randrange(n + 1)]
        domains[obj] = values
    independents = [f"ind{i:03d}" for i in range(60)]
    copiers = [f"cop{i:03d}" for i in range(20)]
    accuracy = {s: rng.uniform(0.7, 0.9) for s in independents + copiers}
    originals = rng.sample(independents, len(copiers))

    def independent_value(source: str, obj: str) -> str:
        if rng.random() < accuracy[source]:
            return golden[obj]
        false_values = [v for v in domains[obj] if v != golden[obj]]
        return false_values[rng.randrange(n)]

    claims: list[tuple[str, str, str]] = []
    asserted: dict[str, dict[str, str]] = {}
    for source in independents:
        mine = {
            obj: independent_value(source, obj)
            for obj in objects
            if rng.random() < coverage
        }
        asserted[source] = mine
        claims.extend((source, o, v) for o, v in mine.items())
    for copier, original in zip(copiers, originals):
        for obj in objects:
            if rng.random() >= coverage:
                continue
            if rng.random() < copy_rate and obj in asserted[original]:
                value = asserted[original][obj]
            else:
                value = independent_value(copier, obj)
            claims.append((copier, obj, value))
    return World(claims, golden, list(zip(copiers, originals)))


# ---------------------------------------------------------------- books


_FIRST = (
    "adam alice anna arthur barbara bruce carla chen claire daniel david diana "
    "elena emil erik farah felix fiona george grace hannah henry ivan irene "
    "james jana jorge julia karen kevin laura leon lucas maria martin mei "
    "nadia nora oscar paula peter rachel raj robert rosa samuel sara simon "
    "sofia thomas tina victor wei william yuki zoe"
).split()
_LAST = (
    "abbott baker becker bennett brooks campbell carter chang cohen cruz "
    "diaz dubois edwards evans fischer foster garcia gibson gordon gupta "
    "hansen harris hayes hoffman hughes ito jensen johnson kaplan keller kim "
    "kowalski larsen lee lopez martin meyer miller moreau murphy nakamura "
    "nguyen novak olsen parker patel perez quinn reyes rossi russo schmidt "
    "silva smith sousa stewart sullivan tanaka taylor turner vargas wagner "
    "walker weber wilson wong young zhang"
).split()


def _canonical(authors: tuple[tuple[str, str, str], ...]) -> str:
    return "; ".join(f"{first} {last}" for first, _, last in authors)


def _misspell(name: str, rng: random.Random) -> str:
    while True:
        i = rng.randrange(len(name))
        letter = rng.choice("abcdefghijklmnoprstuvwy")
        wrong = name[:i] + letter + name[i + 1 :]
        if wrong != name and wrong != "and":
            return wrong


def _error_variant(
    authors: tuple[tuple[str, str, str], ...], rng: random.Random
) -> tuple[tuple[str, str, str], ...]:
    """One of the case study's five error kinds applied to an author list."""
    kinds = ["extra", "misspell", "initial"]
    if len(authors) >= 2:
        kinds += ["missing", "swap"]
    kind = rng.choice(kinds)
    people = list(authors)
    if kind == "extra":
        people.insert(rng.randrange(len(people) + 1), _person(rng))
    elif kind == "missing":
        del people[rng.randrange(len(people))]
    elif kind == "swap":
        i = rng.randrange(len(people) - 1)
        people[i], people[i + 1] = people[i + 1], people[i]
    elif kind == "misspell":
        i = rng.randrange(len(people))
        first, middle, last = people[i]
        people[i] = (first, middle, _misspell(last, rng))
    else:
        i = rng.randrange(len(people))
        first, _, last = people[i]
        people[i] = (first[0], "", last)
    return tuple(people)


def _person(rng: random.Random) -> tuple[str, str, str]:
    middle = rng.choice("abcdefghjklmnprstw") if rng.random() < 0.3 else ""
    return (rng.choice(_FIRST), middle, rng.choice(_LAST))


def books_world(seed: int) -> World:
    """Bookstores listing author lists, shaped like the paper's case study.

    250 stores with Pareto-sized catalogues (3 to 600 of 1,200 books, about
    6,000 listings in all; the most popular book is listed 7 times as often
    as the least). 25 of the stores are copiers: each picks one of the 60
    largest independents, takes 80% of its catalogue from that original's
    and repeats the original's author list with probability 0.8. A store
    gets an author list right with its own accuracy (uniform in [0.7,
    0.95]); otherwise it lists one of the book's 2-6 common wrong variants,
    each made by one error: a missing author, an extra author, two authors
    swapped, a misspelt surname, or a first name cut to its initial.
    """
    num_stores, num_copiers, num_books, num_listings = 250, 25, 1200, 6000
    rng = random.Random(seed)
    books = [f"isbn{i:05d}" for i in range(num_books)]
    authors_of: dict[str, tuple[tuple[str, str, str], ...]] = {}
    golden: dict[str, str] = {}
    wrong: dict[str, list[str]] = {}
    catalogue: dict[str, tuple[tuple[str, str, str], ...]] = {}
    for book in books:
        count = rng.choices((1, 2, 3, 4), weights=(50, 30, 14, 6))[0]
        truth = tuple(_person(rng) for _ in range(count))
        while len({last for _, _, last in truth}) < count:
            truth = tuple(_person(rng) for _ in range(count))
        golden[book] = _canonical(truth)
        catalogue[golden[book]] = truth
        variants: list[str] = []
        for _ in range(rng.randint(2, 6)):
            variant = _error_variant(truth, rng)
            key = _canonical(variant)
            if key != golden[book] and key not in variants:
                variants.append(key)
                catalogue[key] = variant
        wrong[book] = variants
        authors_of[book] = truth

    popularity = [1.0 / (rank + 200) for rank in range(num_books)]
    stores = [f"store{i:03d}" for i in range(num_stores - num_copiers)]
    copiers = [f"mirror{i:03d}" for i in range(num_copiers)]
    accuracy = {s: rng.uniform(0.7, 0.95) for s in stores + copiers}
    raw = [rng.paretovariate(1.2) for _ in range(num_stores)]
    total = sum(raw)
    sizes = [max(3, min(600, round(num_listings * w / total))) for w in raw]
    size_of = dict(zip(stores + copiers, sizes))

    def pick_books(count: int, pool: list[str]) -> list[str]:
        weights = [popularity[int(b[4:])] for b in pool]
        chosen: set[str] = set()
        while len(chosen) < min(count, len(pool)):
            chosen.update(rng.choices(pool, weights=weights, k=count - len(chosen)))
        return sorted(chosen)[: min(count, len(pool))]

    def independent_value(store: str, book: str) -> str:
        if rng.random() < accuracy[store] or not wrong[book]:
            return golden[book]
        return rng.choice(wrong[book])

    claims: list[tuple[str, str, str]] = []
    listed: dict[str, dict[str, str]] = {}
    for store in stores:
        mine = {b: independent_value(store, b) for b in pick_books(size_of[store], books)}
        listed[store] = mine
        claims.extend((store, b, v) for b, v in mine.items())
    big = sorted(stores, key=lambda s: -size_of[s])[:60]
    originals = [rng.choice(big) for _ in copiers]
    for copier, original in zip(copiers, originals):
        count = size_of[copier]
        inside = set(pick_books(int(count * 0.8), sorted(listed[original])))
        rest = [b for b in books if b not in inside]
        chosen = sorted(inside | set(pick_books(count - len(inside), rest)))
        for book in chosen:
            if book in listed[original] and rng.random() < 0.8:
                value = listed[original][book]
            else:
                value = independent_value(copier, book)
            claims.append((copier, book, value))
    return World(claims, golden, list(zip(copiers, originals)), catalogue)


# ------------------------------------------------------------- realize


def make_world(name: str) -> World:
    builder = {"scale": scale_world, "dense": dense_world, "books": books_world}[name]
    return builder(WORLD_SEEDS[name])


def _relabel(names: set[str], prefix: str, rng: random.Random) -> dict[str, str]:
    """Fresh names in the same sort order as the old ones."""
    ordered = sorted(names)
    numbers = sorted(rng.sample(range(10**7), len(ordered)))
    return {old: f"{prefix}{num:07d}" for old, num in zip(ordered, numbers)}


def _render_author(person: tuple[str, str, str], rng: random.Random, surname_first: bool) -> str:
    first, middle, last = person
    first = f"{first}." if len(first) == 1 else first
    if middle and rng.random() < 0.5:
        first = f"{first} {middle}."
    if surname_first:
        return f"{last}, {first}"
    return f"{first} {last}"


def render_authors(
    people: tuple[tuple[str, str, str], ...], rng: random.Random
) -> str:
    """Raw author-list text in one of the formats a store might use."""
    if len(people) == 1:
        style = rng.choice(("plain", "surname_first"))
    else:
        style = rng.choice(("semicolon", "and", "comma"))
    names = [_render_author(p, rng, style == "surname_first") for p in people]
    if style == "semicolon":
        text = "; ".join(names)
    elif style == "and":
        text = ", ".join(names[:-1]) + " and " + names[-1]
    else:
        text = ", ".join(names)
    case = rng.random()
    if case < 0.15:
        text = text.upper()
    elif case < 0.3:
        text = text.lower()
    else:
        text = " ".join(w[:1].upper() + w[1:] for w in text.split(" "))
    return f"  {text} " if rng.random() < 0.1 else text


def realize(world: World, seed: int) -> Inputs:
    """The claim rows of one run: relabelled, shuffled and rendered from ``seed``."""
    rng = random.Random(seed)
    sources = _relabel({s for s, _, _ in world.claims}, "src", rng)
    objects = _relabel(set(world.golden), "obj", rng)

    rows, canonical = [], []
    order = list(range(len(world.claims)))
    rng.shuffle(order)
    for i in order:
        source, obj, value = world.claims[i]
        raw = render_authors(world.authors[value], rng) if world.authors else value
        rows.append((sources[source], objects[obj], raw))
        canonical.append(value)
    golden = {objects[o]: v for o, v in world.golden.items()}
    copies = [(sources[c], sources[o]) for c, o in world.copies]
    return Inputs(rows, canonical, golden, copies)
