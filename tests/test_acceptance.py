"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line; run with -v (or -s) to see them.
Randomized checks use fixed seed grids so every run covers the identical
instance population.
"""

import itertools
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from posetdist import (
    HH,
    HT,
    TT,
    LabeledDigraph,
    NodeMatching,
    Solver,
    compatibility_graph,
    d_e,
    d_n,
    dmces_alg2,
    dmces_alg3,
    dmces_bruteforce,
    extended_line_digraph,
    find_isomorphism,
    generate_instance,
    label_budget,
    max_clique,
    mcis,
    respects_order_on_labels,
    score,
    untwist,
)
from posetdist.bench import check_pair, seeded_pair
from conftest import (
    budget_pair,
    chain_pair,
    diamond_graph,
    equal_score_twist,
    star,
    subprocess_env,
    triangle,
)
from oracles import admces, iter_matchings


def report(number: int, message: str, start: float) -> None:
    print(f"criterion {number:02d}: PASS ({time.perf_counter() - start:.3f}s) {message}")


def test_criterion_01_edge_digraph_figure():
    start = time.perf_counter()
    g = diamond_graph()
    extended_line_digraph(g)  # warm caches before timing
    timed = min(
        _timed(extended_line_digraph, g) for _ in range(5)
    )
    eld = extended_line_digraph(g)
    assert set(eld.nodes) == {("u", "v"), ("u", "x"), ("v", "w"), ("x", "w")}
    assert eld.node_labels == {
        ("u", "v"): ("a", "a"),
        ("u", "x"): ("a", "a"),
        ("v", "w"): ("a", "a"),
        ("x", "w"): ("a", "a"),
    }
    assert set(eld.labeled_edges) == {
        (("u", "v"), ("v", "w"), HT),
        (("u", "x"), ("x", "w"), HT),
        (("u", "v"), ("u", "x"), TT),
        (("u", "x"), ("u", "v"), TT),
        (("v", "w"), ("x", "w"), HH),
        (("x", "w"), ("v", "w"), HH),
    }
    assert Counter(rel for *_, rel in eld.labeled_edges) == {HT: 2, TT: 2, HH: 2}
    assert timed < 0.001
    report(1, f"4-node derivation exact, {timed * 1000:.3f} ms", start)


def _timed(fn, *args) -> float:
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def test_criterion_02_cardinality_figure():
    start = time.perf_counter()
    g, g2 = budget_pair()
    for solver in (Solver.BRUTE, Solver.ALG1, Solver.CLIQUE):
        result = d_e(g, g2, solver)
        assert result.dmces_value == 2
        assert result.distance == Fraction(1, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "DMCES 2, distance 1/2 under brute, alg1, clique", start)


def test_criterion_03_compatibility_figure():
    start = time.perf_counter()
    g, g2 = chain_pair()
    comp = compatibility_graph(g, g2)
    assert len(comp.graph.nodes) == 5
    assert len(comp.graph.edges) == 5
    clique = max_clique(comp.graph)
    assert len(clique) == 3
    size, pairs = mcis(g, g2)
    assert size == 3
    assert pairs == frozenset({("u", "u'"), ("v", "v'"), ("w", "w'")})
    assert d_n(g, g2) == Fraction(0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, "5 nodes / 5 edges, clique 3, MCIS 3, node distance 0", start)


ORIENTATION_COUNTS = {
    ("triangle", "cyclic"): {HT: 3},
    ("triangle", "acyclic"): {HT: 1, TT: 2, HH: 2},
    ("star", "all_in"): {HH: 6},
    ("star", "all_out"): {TT: 6},
    ("star", "two_in_one_out"): {HT: 2, HH: 2},
    ("star", "one_in_two_out"): {HT: 2, TT: 2},
}


def test_criterion_04_triangle_and_star_orientations():
    start = time.perf_counter()
    builders = {"triangle": triangle, "star": star}
    elds = {}
    for (shape, kind), expected in ORIENTATION_COUNTS.items():
        eld = extended_line_digraph(builders[shape](kind))
        elds[(shape, kind)] = eld
        assert Counter(rel for *_, rel in eld.labeled_edges) == expected, (shape, kind)
    for (sa, ka), (sb, kb) in itertools.product(
        [k for k in ORIENTATION_COUNTS if k[0] == "triangle"],
        [k for k in ORIENTATION_COUNTS if k[0] == "star"],
    ):
        assert find_isomorphism(elds[(sa, ka)], elds[(sb, kb)]) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, "6 orientations match; no triangle/star derivation confusion", start)


def _instance_grid(kind: str, max_n: int, count: int, base_seed: int):
    densities = (0.3, 0.45, 0.6)
    for made in range(count):
        n = 3 + made % (max_n - 2)
        labels = 1 + made % 3
        density = densities[(made // 3) % 3]
        yield seeded_pair(kind, n, labels, density, base_seed + 2 * made)


def test_criterion_05_cross_solver_agreement():
    start = time.perf_counter()
    plan = (("wso", 8, 100000), ("closure", 8, 200000), ("path-closure", 10, 300000))
    runs = {}
    for kind, max_n, base_seed in plan:
        runs[kind] = Counter()
        for g, g2 in _instance_grid(kind, max_n, 500, base_seed):
            rows = check_pair(g, g2)
            assert len(rows) >= 2
            runs[kind].update(row["solver"] for row in rows)
    # alg1 audits every pair; alg2 and alg3 join on pairs that happen to be
    # closures (and chains) in each kind; brute and clique drop out on the
    # larger path-closures, by matching count and compatibility-graph size
    assert runs == {
        "wso": {"brute": 500, "alg1": 500, "alg2": 30, "alg3": 5, "clique": 500},
        "closure": {"brute": 500, "alg1": 500, "alg2": 500, "alg3": 50, "clique": 500},
        "path-closure": {"brute": 377, "alg1": 500, "alg2": 500, "alg3": 500, "clique": 458},
    }
    assert runs["wso"]["brute"] >= 400
    assert runs["closure"]["brute"] >= 400
    assert runs["path-closure"]["brute"] >= 250
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    brute_runs = sum(kind_runs["brute"] for kind_runs in runs.values())
    report(5, f"1500 pairs agree across solvers (oracle joined {brute_runs}x)", start)


def test_criterion_06_metric_axioms_and_bridge():
    start = time.perf_counter()
    densities = (0.3, 0.45, 0.6)
    for i in range(300):
        n = 3 + i % 5
        labels = 1 + i % 3
        density = densities[(i // 3) % 3]
        seed = 400000 + 3 * i
        a = generate_instance("wso", n, labels, density, seed)
        b = generate_instance("wso", n, labels, density, seed + 1)
        c = generate_instance("wso", n, labels, density, seed + 2)
        assert d_e(a, a).distance == Fraction(0)
        ab, ba = d_e(a, b).distance, d_e(b, a).distance
        bc, ac = d_e(b, c).distance, d_e(a, c).distance
        assert ab == ba
        assert 0 <= ab <= 1
        assert ac <= ab + bc
        for x, y, d in ((a, b, ab), (b, c, bc), (a, c, ac)):
            bridge = d_n(extended_line_digraph(x), extended_line_digraph(y))
            assert d == bridge
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(6, "300 triples: exact axioms and the node-distance bridge", start)


def _relabeled_copy(g: LabeledDigraph, seed: int) -> LabeledDigraph:
    import random

    rng = random.Random(seed)
    shuffled = list(g.nodes)
    rng.shuffle(shuffled)
    rename = {v: f"q{i}" for i, v in enumerate(shuffled)}
    ids = [rename[v] for v in g.nodes]
    rng.shuffle(ids)
    return LabeledDigraph(
        ids,
        {rename[v]: lab for v, lab in g.node_labels.items()},
        [(rename[a], rename[b]) for a, b in g.edges],
    )


def test_criterion_07_isomorphism_transfer():
    start = time.perf_counter()
    densities = (0.3, 0.45, 0.6)
    forced = 0
    for i in range(300):
        n = 3 + i % 6
        labels = 1 + i % 3
        density = densities[(i // 3) % 3]
        seed = 500000 + 2 * i
        g = generate_instance("wso", n, labels, density, seed)
        if i % 2 == 0:
            g2 = _relabeled_copy(g, seed)
            forced += 1
        else:
            g2 = generate_instance("wso", n, labels, density, seed + 1)
        graphs_iso = find_isomorphism(g, g2) is not None
        elds_iso = (
            find_isomorphism(extended_line_digraph(g), extended_line_digraph(g2))
            is not None
        )
        assert graphs_iso == elds_iso, (g.edges, g2.edges)
        if i % 2 == 0:
            assert graphs_iso
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(7, f"300 pairs ({forced} forced isomorphic): transfer holds both ways", start)


def _closed_extensions(lo: str, hi: str, third: str):
    """Arc sets over three nodes that keep `lo -> hi` transitively closed
    and oriented; the third node may attach in any consistent way."""
    candidates = [(lo, third), (third, lo), (hi, third), (third, hi)]
    kept = []
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            edges = {(lo, hi), *combo}
            if any((b, a) in edges for a, b in edges):
                continue
            if all(
                (a, d) in edges
                for a, b in edges
                for c, d in edges
                if b == c
            ):
                kept.append(edges)
    return kept


def test_criterion_08_untwist_enumeration():
    start = time.perf_counter()
    left = _closed_extensions("v", "u", "x")
    right = _closed_extensions("v'", "u'", "x'")
    assert len(left) == len(right) == 6
    checked = 0
    for ext, ext2 in itertools.product(left, right):
        g = LabeledDigraph(
            ("u", "v", "x"), {"u": "p", "v": "p", "x": "q"}, sorted(ext)
        )
        g2 = LabeledDigraph(
            ("u'", "v'", "x'"),
            {"u'": "p", "v'": "p", "x'": "q"},
            sorted(ext2),
        )
        phi = NodeMatching((("u", "v'"), ("v", "u'"), ("x", "x'")))
        assert respects_order_on_labels(g, g2, phi) == frozenset(
            {frozenset({"u", "v"})}
        )
        psi = untwist(g, g2, phi, ("u", "v"))
        assert psi.mapping == {"u": "u'", "v": "v'", "x": "x'"}
        assert score(g, g2, phi) + 1 <= score(g, g2, psi), (ext, ext2)
        checked += 1
    assert checked == 36

    # without the closure requirement the swap may fail to improve
    g, g2, twisted = equal_score_twist()
    phi = NodeMatching(tuple(twisted.items()))
    psi = untwist(g, g2, phi, ("u", "v"))
    assert score(g, g2, phi) == score(g, g2, psi) == 1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(8, "36 closed twisted cases improve strictly; open case ties 1 = 1", start)


def test_criterion_09_subset_formulation_and_full_cardinality():
    start = time.perf_counter()
    kinds = ("wso", "closure", "path-closure")
    densities = (0.3, 0.45)
    kept = 0
    attempts = 0
    seed = 600000
    while kept < 150 and attempts < 4000:
        kind = kinds[attempts % 3]
        n = 3 + attempts % 4
        labels = 1 + attempts % 3
        density = densities[attempts % 2]
        g, g2 = seeded_pair(kind, n, labels, density, seed)
        seed += 2
        attempts += 1
        if len(g.edges) > 5 or len(g2.edges) > 5:
            continue
        kept += 1

        best = dmces_bruteforce(g, g2).value
        assert admces(g, g2) == best

        budget = label_budget(g, g2).per_label
        full = False
        for raw in iter_matchings(g, g2):
            phi = NodeMatching(tuple(raw.items()))
            if score(g, g2, phi) != best:
                continue
            counts = Counter(g.node_labels[v] for v in phi.domain)
            if all(counts.get(lab, 0) == want for lab, want in budget.items()):
                full = True
                break
        assert full, (g.edges, g2.edges)
    assert kept == 150
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, "150 small pairs: subset formulation agrees; full-budget optimum exists", start)


def test_criterion_10_scale_target():
    start = time.perf_counter()

    # the chain-aware solver must clear ~40-node, 6-label instances
    per_pair = []
    first_pair_value = None
    for s in (2024, 2026, 2028):
        g, g2 = seeded_pair("path-closure", 40, 6, 0.15, s)
        t = time.perf_counter()
        out = dmces_alg3(g, g2)
        elapsed = time.perf_counter() - t
        per_pair.append(elapsed)
        assert elapsed < 600.0
        assert score(g, g2, out.witness) == out.value
        if first_pair_value is None:
            first_pair_value = out.value

    # value cross-check against the order-only solver where it finishes
    for n, s in ((20, 5000), (24, 5002)):
        g, g2 = seeded_pair("path-closure", n, 6, 0.15, s)
        assert dmces_alg2(g, g2).value == dmces_alg3(g, g2).value

    # attempt the order-only solver at full scale under a hard timeout; a
    # run that finishes in time must exit cleanly and agree
    code = (
        "from posetdist import generate_instance, dmces_alg2\n"
        "g = generate_instance('path-closure', 40, 6, 0.15, 2024)\n"
        "g2 = generate_instance('path-closure', 40, 6, 0.15, 2025)\n"
        "print(dmces_alg2(g, g2).value)\n"
    )
    alg2_note = "alg2 timed out at full scale (expected)"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.strip()) == first_pair_value
        alg2_note = "alg2 agreed at full scale"
    except subprocess.TimeoutExpired:
        pass

    report(
        10,
        f"alg3 at 40 nodes: {max(per_pair):.2f}s worst of 3; {alg2_note}",
        start,
    )
