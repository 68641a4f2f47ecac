"""Acceptance gate: the headline facts this package exists to certify.

Eight checks, each printing one `[Cn] name: PASS` / `FAIL` line (visible
under ``pytest tests/test_acceptance.py -v -s``).  Every expected value is
an exact integer -- there are no tolerances to tune.  C4-C7 sweep exhaustive
small families plus seeded random instances against independent oracles;
C8 shells out to the installed CLI twice and compares bytes.
"""

import dataclasses
import math
import random
import subprocess
import sys
from contextlib import contextmanager

from oracles import (
    bijection_scan_isomorphic,
    classical_graph_product,
    count_surjections,
    enumerate_edge_subsets,
    relabel,
    small_family,
)
from hgprod import (
    Atom,
    GeneratorConfig,
    InfeasibleError,
    Pair,
    ProductKind,
    are_isomorphic,
    atoms,
    cartesian,
    cartesian_edge_count,
    check_associativity,
    derive_seed,
    dirmax,
    dirmax_edge_count,
    dirmin,
    dirnon,
    edge_pair_product,
    from_tokens,
    label_key,
    normal,
    product,
    random_hypergraph,
    regroup_right_to_left,
    stirling2,
    strong,
    strong_edge_count,
)


@contextmanager
def gate(tag, name):
    try:
        yield
    except BaseException:
        print(f"[{tag}] {name}: FAIL", flush=True)
        raise
    print(f"[{tag}] {name}: PASS", flush=True)


def _factors():
    return from_tokens("a b", ["a b"]), from_tokens("x y z", ["x y z"])


# ---------------------------------------------------------------------------

def test_c1_grouping_counts_are_exact():
    with gate("C1", "counterexample edge counts 36/12 and 82/58"):
        g, h = _factors()
        expected = {dirmax: (36, 12), dirnon: (36, 12), strong: (82, 58)}
        for make, (left_n, right_n) in expected.items():
            left = make(g, make(g, h))
            right = make(make(g, g), h)
            assert (len(left.edges), len(right.edges)) == (left_n, right_n), make
        # the dirmax counts also come out of the closed form
        assert dirmax_edge_count(g, dirmax(g, h)) == 36
        assert dirmax_edge_count(dirmax(g, g), h) == 12
        assert strong_edge_count(g, strong(g, h)) == 82
        assert strong_edge_count(strong(g, g), h) == 58


def test_c2_witness_edge_separates_the_groupings():
    with gate("C2", "witness edge in left grouping only"):
        g, h = _factors()
        a, b = Atom("a"), Atom("b")
        x, y, z = Atom("x"), Atom("y"), Atom("z")
        witness = frozenset(
            {Pair(a, Pair(a, x)), Pair(a, Pair(b, y)), Pair(b, Pair(b, z))}
        )
        assert witness in dirmax(g, dirmax(g, h)).edges
        image = frozenset(regroup_right_to_left(v) for v in witness)
        assert image == frozenset(
            {Pair(Pair(a, a), x), Pair(Pair(a, b), y), Pair(Pair(b, b), z)}
        )
        assert image not in dirmax(dirmax(g, g), h).edges
        assert image not in strong(strong(g, g), h).edges


def test_c3_single_pair_listings_are_verbatim():
    with gate("C3", "single-pair dirmax/dirnon listings"):
        x1, y1 = atoms("x1 y1")
        x2, y2, z2 = atoms("x2 y2 z2")
        e1 = frozenset({x1, y1})

        e2 = frozenset({x2, y2, z2})
        listed = {
            frozenset({Pair(x1, x2), Pair(x1, y2), Pair(y1, z2)}),
            frozenset({Pair(x1, x2), Pair(y1, y2), Pair(y1, z2)}),
            frozenset({Pair(x1, x2), Pair(y1, y2), Pair(x1, z2)}),
            frozenset({Pair(y1, x2), Pair(x1, y2), Pair(x1, z2)}),
            frozenset({Pair(y1, x2), Pair(x1, y2), Pair(y1, z2)}),
            frozenset({Pair(y1, x2), Pair(y1, y2), Pair(x1, z2)}),
        }
        assert edge_pair_product(e1, e2, ProductKind.DIRMAX) == listed
        assert edge_pair_product(e1, e2, ProductKind.DIRNON) == listed

        f2 = frozenset({x2, y2})
        listed2 = {
            frozenset({Pair(x1, x2), Pair(y1, y2)}),
            frozenset({Pair(x1, y2), Pair(y1, x2)}),
        }
        assert edge_pair_product(e1, f2, ProductKind.DIRMAX) == listed2
        assert edge_pair_product(e1, f2, ProductKind.DIRNON) == listed2


# ---------------------------------------------------------------------------

ASSOCIATIVE = (ProductKind.CARTESIAN, ProductKind.DIRMIN, ProductKind.NORMAL)


def _regrouped(edges, cache):
    """The edges with each member regrouped; a member is looked up before it
    is regrouped, so each distinct one is regrouped once."""
    def regrouped(v):
        if v not in cache:
            cache[v] = regroup_right_to_left(v)
        return cache[v]

    return {frozenset(map(regrouped, e)) for e in edges}


def test_c4_associativity_sweep():
    with gate("C4", "associativity of cartesian/dirmin/normal"):
        family = small_family(3, 2)  # every hypergraph with <=3 vertices, <=2 edges
        assert len(family) == 39
        for kind in ASSOCIATIVE:
            pairwise = [[product(kind, a, b) for b in family] for a in family]
            cache = {}
            for i, a in enumerate(family):
                for j in range(len(family)):
                    row = pairwise[j]
                    left_of = pairwise[i][j]
                    for k, c in enumerate(family):
                        left = product(kind, a, row[k])
                        right = product(kind, left_of, c)
                        assert _regrouped(left.edges, cache) == set(right.edges), (
                            kind, i, j, k,
                        )

        # seeded random triples, larger than the exhaustive family
        cfg = GeneratorConfig(
            seed=0, vertex_count=(1, 4), edge_count=(0, 3), edge_size=(1, 4)
        )
        for trial in range(200):
            a, b, c = (
                random_hypergraph(
                    dataclasses.replace(cfg, seed=derive_seed(9001, trial, pos))
                )
                for pos in range(3)
            )
            for kind in ASSOCIATIVE:
                report = check_associativity(kind, a, b, c)
                assert report.psi_is_isomorphism, (kind, trial)


def test_c5_closed_form_counts_match_enumeration():
    with gate("C5", "closed-form edge counts vs enumeration"):
        # surjection identity behind the dirmax formula
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert count_surjections(n, k) == math.factorial(k) * stirling2(n, k)

        # exhaustive: every factor pair with <=5 vertices, <=2 edges, sizes 2..4
        family = small_family(5, 2, sizes=[2, 3, 4])
        assert len(family) == 408
        pair_cache: dict = {}

        def dirmax_edges(h1, h2):
            out = set()
            for e1 in h1.edges:
                for e2 in h2.edges:
                    key = (e1, e2)
                    got = pair_cache.get(key)
                    if got is None:
                        got = frozenset(edge_pair_product(e1, e2, ProductKind.DIRMAX))
                        pair_cache[key] = got
                    out |= got
            return out

        for h1 in family:
            for h2 in family:
                cart = cartesian(h1, h2).edges
                dmax = dirmax_edges(h1, h2)
                assert cartesian_edge_count(h1, h2) == len(cart)
                assert dirmax_edge_count(h1, h2) == len(dmax)
                assert strong_edge_count(h1, h2) == len(cart | dmax)

        # 500 seeded random pairs from the same size class
        cfg = GeneratorConfig(
            seed=0, vertex_count=(2, 5), edge_count=(0, 3), edge_size=(2, 4)
        )
        for trial in range(500):
            h1, h2 = (
                random_hypergraph(
                    dataclasses.replace(cfg, seed=derive_seed(5150, trial, pos))
                )
                for pos in range(2)
            )
            assert cartesian_edge_count(h1, h2) == len(cartesian(h1, h2).edges)
            assert dirmax_edge_count(h1, h2) == len(dirmax(h1, h2).edges)
            assert strong_edge_count(h1, h2) == len(strong(h1, h2).edges)


def test_c6_rank2_collapse_onto_classical_graph_products():
    with gate("C6", "rank-2 factors reduce to classical graph products"):
        graphs = [
            g
            for n in range(2, 5)
            for g in enumerate_edge_subsets(n, [2], keep=lambda h: len(h.edges) > 0)
        ]
        assert len(graphs) == 71  # every simple rank-2 instance on <=4 vertices
        for g1 in graphs:
            for g2 in graphs:
                dmin = dirmin(g1, g2)
                assert dirmax(g1, g2) == dmin
                assert dirnon(g1, g2) == dmin
                assert dmin == classical_graph_product(g1, g2, "tensor")
                nrm = normal(g1, g2)
                assert strong(g1, g2) == nrm
                assert nrm == classical_graph_product(g1, g2, "strong")
                assert cartesian(g1, g2) == classical_graph_product(g1, g2, "cartesian")


def test_c7_isomorphism_decision_matches_bijection_scan():
    with gate("C7", "isomorphism vs all-bijections scan on 500 pairs"):
        base = GeneratorConfig(
            seed=0, vertex_count=(1, 6), edge_count=(0, 4), edge_size=(1, 4)
        )
        # 250 permuted copies: must all come back isomorphic, matching the scan
        for trial in range(250):
            h = random_hypergraph(
                dataclasses.replace(base, seed=derive_seed(777, trial, 0))
            )
            ordered = sorted(h.vertices, key=label_key)
            targets = [Atom(f"p{i}") for i in range(len(ordered))]
            random.Random(derive_seed(777, trial, 1)).shuffle(targets)
            image = relabel(h, dict(zip(ordered, targets)))
            assert are_isomorphic(h, image).isomorphic
            assert bijection_scan_isomorphic(h, image)

        # 250 count-matched pairs: same vertex and edge counts by construction,
        # verdict free to go either way -- only agreement is asserted
        for trial in range(250):
            n = 2 + trial % 5
            h1 = random_hypergraph(
                GeneratorConfig(
                    seed=derive_seed(778, trial, 0),
                    vertex_count=(n, n),
                    edge_count=(1, 3),
                    edge_size=(1, 4),
                )
            )
            m = len(h1.edges)
            h2 = None
            for attempt in range(50):
                try:
                    h2 = random_hypergraph(
                        GeneratorConfig(
                            seed=derive_seed(778, trial, 1, attempt),
                            vertex_count=(n, n),
                            edge_count=(m, m),
                            edge_size=(1, 4),
                        )
                    )
                    break
                except InfeasibleError:
                    continue
            assert h2 is not None
            assert (len(h2.vertices), len(h2.edges)) == (len(h1.vertices), m)
            assert are_isomorphic(h1, h2).isomorphic == bijection_scan_isomorphic(h1, h2)


def test_c8_cli_output_is_byte_identical_across_runs():
    with gate("C8", "CLI byte determinism"):
        commands = [
            ["counterexample"],
            [
                "fuzz", "--kind", "dirmax", "--law", "assoc",
                "--seed", "42", "--trials", "50",
                "--max-vertices", "3", "--max-edges", "2",
            ],
        ]
        for command in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "hgprod", *command],
                    capture_output=True,
                    check=False,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 1, command
            assert runs[0].stdout == runs[1].stdout, command
            assert runs[0].stderr == runs[1].stderr == b"", command
            assert runs[0].stdout  # non-empty output
