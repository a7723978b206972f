"""Synthetic dataset builders shared by the heavier test suites."""

import random

from truthfuse import Claim, FusionConfig, WorldSpec, build_dataset, generate_world


def heavy_tailed_world(
    num_sources=877,
    num_objects=1263,
    num_claims=24364,
    num_copiers=87,
    n=100,
    copy_rate=0.8,
    seed=20,
):
    """A case-study-shaped world: heavy-tailed source sizes, book-like ids.

    Unlike the uniform-coverage generator, source sizes follow a Pareto
    tail, so large sources share many objects and the pair-eligibility
    filter keeps a few thousand pairs, as a real bookstore corpus does.
    Copiers draw most of their catalog from inside their original's, so
    copier pairs always clear the overlap threshold.

    Returns (dataset, golden, copy_graph).
    """
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
    order = sorted(range(num_sources), key=lambda i: -sizes[i])
    i = 0
    while deficit != 0:
        idx = order[i % num_sources]
        step = 1 if deficit > 0 else -1
        if 3 <= sizes[idx] + step <= cap:
            sizes[idx] += step
            deficit -= step
        i += 1
    size_of = dict(zip(independents + copiers, sizes))

    def independent_value(source, obj):
        if rng.random() < accuracy[source]:
            return golden[obj]
        while True:
            value = domains[obj][rng.randrange(n + 1)]
            if value != golden[obj]:
                return value

    claims, asserted = [], {}
    for source in independents:
        mine = {
            obj: independent_value(source, obj)
            for obj in rng.sample(objects, min(size_of[source], num_objects))
        }
        asserted[source] = mine
        claims.extend(Claim(source, o, v) for o, v in sorted(mine.items()))

    big = sorted(independents, key=lambda s: -size_of[s])[:120]
    originals = [big[rng.randrange(len(big))] for _ in copiers]
    for copier, original in zip(copiers, originals):
        catalog = sorted(asserted[original])
        count = min(size_of[copier], num_objects)
        inside = min(int(count * 0.8), len(catalog))
        chosen = set(rng.sample(catalog, inside))
        outside = [o for o in objects if o not in chosen]
        chosen |= set(rng.sample(outside, count - inside))
        mine = {}
        for obj in sorted(chosen):
            if rng.random() < copy_rate and obj in asserted[original]:
                mine[obj] = asserted[original][obj]
            else:
                mine[obj] = independent_value(copier, obj)
        claims.extend(Claim(copier, o, v) for o, v in sorted(mine.items()))

    covered = {claim.object for claim in claims}
    filler = independents[0]
    for obj in objects:
        if obj not in covered:
            claims.append(Claim(filler, obj, independent_value(filler, obj)))
    return build_dataset(claims, keep_first=True), golden, list(zip(copiers, originals))


def accuracy_cycle_world():
    """A world whose accucopy run alternates between two accuracy states.

    The truths never change after round 1, and from round 4 on every
    round's accuracies come within 1e-4 of those two rounds before and
    then closer, while consecutive rounds stay 4.3e-3 apart. A run that
    looks only for revisited truths never stops on it before
    ``max_rounds``. Returns (dataset, config).
    """
    spec = WorldSpec(31, 10, 5, (0.3, 0.8), 0.8, 10, 1.0, seed=748092)
    return generate_world(spec).dataset, FusionConfig(n=10, min_overlap=5)


def copied_bad_source_world(seed, num_objects=200, num_copiers=10, num_independents=10, n=50):
    """A world where majority voting loses: ten copiers amplify one bad source.

    The original answers correctly with probability 0.3. Each copier
    repeats the original's value with probability 0.8 and otherwise
    answers on its own at an accuracy drawn from U(0.6, 0.85), as each
    independent does. A wrong answer is one of the object's ``n`` false
    values, uniformly, and every source lists every object. Returns
    (dataset, golden, copy_edges, config); each edge is (copier, original).
    """
    rng = random.Random(seed)
    objects = [f"o{i:04d}" for i in range(num_objects)]
    golden = {obj: f"{obj}_true" for obj in objects}

    def answer(accuracy, obj):
        if rng.random() < accuracy:
            return golden[obj]
        return f"{obj}_false{rng.randrange(n)}"

    original = "bad"
    copiers = [f"cop{i:02d}" for i in range(num_copiers)]
    independents = [f"ind{i:02d}" for i in range(num_independents)]
    asserted = {obj: answer(0.3, obj) for obj in objects}
    claims = [Claim(original, obj, value) for obj, value in asserted.items()]
    for copier in copiers:
        accuracy = rng.uniform(0.6, 0.85)
        for obj in objects:
            value = asserted[obj] if rng.random() < 0.8 else answer(accuracy, obj)
            claims.append(Claim(copier, obj, value))
    for source in independents:
        accuracy = rng.uniform(0.6, 0.85)
        claims.extend(Claim(source, obj, answer(accuracy, obj)) for obj in objects)
    edges = [(copier, original) for copier in copiers]
    return build_dataset(claims), golden, edges, FusionConfig(n=n)
