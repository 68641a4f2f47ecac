import itertools
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strategies as stg
from oracles import count_partitions, subset_scan_direct
from hgprod import products
from hgprod.core import _ranked
from hgprod import (
    DIRECT_KINDS,
    Atom,
    Pair,
    ProductKind,
    atoms,
    cartesian,
    dirmax,
    dirmin,
    dirnon,
    edge_pair_product,
    from_tokens,
    hypergraph,
    normal,
    product,
    sorted_members,
    strong,
    validate,
)


def pe(*pairs):
    """Shorthand: an edge of product vertices from (left, right) token pairs."""
    return frozenset(Pair(Atom(l), Atom(r)) for l, r in pairs)


# ---------------------------------------------------------------- pair listings

def test_surjection_pair_listing_2_by_3():
    """One 2-edge against one 3-edge: exactly the six surjection graphs."""
    e1 = frozenset(atoms("u v"))
    e2 = frozenset(atoms("p q r"))
    got = edge_pair_product(e1, e2, ProductKind.DIRMAX)
    expected = {
        pe(("u", "p"), ("v", "q"), ("v", "r")),
        pe(("u", "q"), ("v", "p"), ("v", "r")),
        pe(("u", "r"), ("v", "p"), ("v", "q")),
        pe(("v", "p"), ("u", "q"), ("u", "r")),
        pe(("v", "q"), ("u", "p"), ("u", "r")),
        pe(("v", "r"), ("u", "p"), ("u", "q")),
    }
    assert got == expected


def test_surjection_pair_listing_2_by_2():
    e1 = frozenset(atoms("u v"))
    e2 = frozenset(atoms("p q"))
    got = edge_pair_product(e1, e2, ProductKind.DIRMAX)
    assert got == {
        pe(("u", "p"), ("v", "q")),
        pe(("u", "q"), ("v", "p")),
    }


def test_choice_pair_listing_matches_surjections_up_to_rank_3():
    """For a 2-edge against a 2- or 3-edge the choice construction produces
    exactly the surjection graphs (the edge-level heart of the rank-2 lemma)."""
    e1 = frozenset(atoms("u v"))
    for other in ["p q", "p q r"]:
        e2 = frozenset(atoms(other))
        assert edge_pair_product(e1, e2, ProductKind.DIRNON) == edge_pair_product(
            e1, e2, ProductKind.DIRMAX
        )
        # and symmetrically with the larger edge on the left
        assert edge_pair_product(e2, e1, ProductKind.DIRNON) == edge_pair_product(
            e2, e1, ProductKind.DIRMAX
        )


def test_injection_pair_listing_2_by_3():
    e1 = frozenset(atoms("a b"))
    e2 = frozenset(atoms("x y z"))
    got = edge_pair_product(e1, e2, ProductKind.DIRMIN)
    expected = {
        pe(("a", "x"), ("b", "y")),
        pe(("a", "x"), ("b", "z")),
        pe(("a", "y"), ("b", "x")),
        pe(("a", "y"), ("b", "z")),
        pe(("a", "z"), ("b", "x")),
        pe(("a", "z"), ("b", "y")),
    }
    assert got == expected


def test_singleton_pair_all_direct_kinds_agree():
    e1 = frozenset(atoms("a"))
    e2 = frozenset(atoms("x"))
    lone = {pe(("a", "x"))}
    for kind in (ProductKind.DIRMIN, ProductKind.DIRMAX, ProductKind.DIRNON):
        assert edge_pair_product(e1, e2, kind) == lone


def test_edge_pair_product_rejects_nonpair_kinds_and_empty_edges():
    e = frozenset(atoms("a b"))
    for kind in (ProductKind.CARTESIAN, ProductKind.NORMAL, ProductKind.STRONG,
                 "cartesian", "normal", "strong", "bogus"):
        with pytest.raises(ValueError):
            edge_pair_product(e, e, kind)
    with pytest.raises(ValueError):
        edge_pair_product(e, frozenset(), ProductKind.DIRMIN)


# ---------------------------------------------------------------- whole products

def test_cartesian_of_running_example(single_edge_factors):
    g, h = single_edge_factors
    got = cartesian(g, h)
    assert got.edges == {
        pe(("a", "x"), ("a", "y"), ("a", "z")),
        pe(("b", "x"), ("b", "y"), ("b", "z")),
        pe(("a", "x"), ("b", "x")),
        pe(("a", "y"), ("b", "y")),
        pe(("a", "z"), ("b", "z")),
    }


def test_cartesian_square_of_k2_is_a_4_cycle(square):
    got = cartesian(square, square)
    assert got.edges == {
        pe(("0", "0"), ("0", "1")),
        pe(("1", "0"), ("1", "1")),
        pe(("0", "0"), ("1", "0")),
        pe(("0", "1"), ("1", "1")),
    }
    assert len(got.vertices) == 4


def test_running_example_counts(single_edge_factors):
    g, h = single_edge_factors
    assert len(cartesian(g, h).edges) == 5
    assert len(dirmin(g, h).edges) == 6
    assert len(dirmax(g, h).edges) == 6
    assert len(dirnon(g, h).edges) == 6
    assert len(normal(g, h).edges) == 11
    assert len(strong(g, h).edges) == 11


def test_cartesian_with_edgeless_factor():
    g = from_tokens("a b", ["a b"])
    h = from_tokens("x y", [])
    got = cartesian(g, h)
    assert got.edges == {pe(("a", "x"), ("b", "x")), pe(("a", "y"), ("b", "y"))}
    for direct in (dirmin, dirmax, dirnon):
        assert direct(g, h).edges == frozenset()


def test_dedup_across_edge_pairs():
    """Two factor edges can generate the same product edge; sets keep one copy."""
    g = from_tokens("a b c", ["a b", "b c"])
    h = from_tokens("x", ["x"])
    got = dirmax(g, h)
    # surjections e -> {x} give one edge per factor edge, no duplicates
    assert got.edges == {
        pe(("a", "x"), ("b", "x")),
        pe(("b", "x"), ("c", "x")),
    }


# ---------------------------------------------------------------- properties

@given(stg.hypergraphs(max_vertices=4, max_edges=3, max_edge_size=3),
       stg.hypergraphs(max_vertices=4, max_edges=3, max_edge_size=3))
def test_dirmin_matches_subset_scan(h1, h2):
    assert dirmin(h1, h2) == subset_scan_direct("dirmin", h1, h2)


@given(stg.hypergraphs(max_vertices=4, max_edges=3, max_edge_size=3),
       stg.hypergraphs(max_vertices=4, max_edges=3, max_edge_size=3))
def test_dirmax_matches_subset_scan(h1, h2):
    assert dirmax(h1, h2) == subset_scan_direct("dirmax", h1, h2)


@given(stg.hypergraphs(max_vertices=3, max_edges=2),
       stg.hypergraphs(max_vertices=3, max_edges=2))
def test_products_are_valid_on_the_full_vertex_grid(h1, h2):
    grid = frozenset(Pair(x, y) for x in h1.vertices for y in h2.vertices)
    assert len(grid) == len(h1.vertices) * len(h2.vertices)
    for kind in ProductKind:
        prod = product(kind, h1, h2)
        assert prod.vertices == grid
        assert validate(prod) is None


@given(stg.hypergraphs(max_vertices=3, max_edges=2),
       stg.hypergraphs(max_vertices=3, max_edges=2))
def test_normal_and_strong_are_the_stated_unions(h1, h2):
    assert normal(h1, h2).edges == cartesian(h1, h2).edges | dirmin(h1, h2).edges
    assert strong(h1, h2).edges == cartesian(h1, h2).edges | dirmax(h1, h2).edges


@given(stg.same_size_edge_pairs())
def test_equal_edge_sizes_collapse_dirmin_onto_dirmax(pair):
    """When every edge of both factors has one common size, injections and
    surjections are both exactly the bijections."""
    h1, h2 = pair
    assert dirmin(h1, h2) == dirmax(h1, h2)


@given(stg.graphs(), stg.hypergraphs(min_edge_size=2, max_edge_size=3))
def test_rank2_left_factor_collapses_dirnon_onto_dirmax(g, h):
    assert dirnon(g, h) == dirmax(g, h)


def test_product_dispatch_matches_named_constructors(single_edge_factors):
    g, h = single_edge_factors
    named = {
        ProductKind.CARTESIAN: cartesian,
        ProductKind.DIRMIN: dirmin,
        ProductKind.DIRMAX: dirmax,
        ProductKind.DIRNON: dirnon,
        ProductKind.NORMAL: normal,
        ProductKind.STRONG: strong,
    }
    for kind, fn in named.items():
        assert product(kind, g, h) == fn(g, h)


SHARING_FACTORS = [
    from_tokens("a b", ["a b"]),
    from_tokens("x y z", ["x y z", "x y", "z"]),
    hypergraph([Pair(Atom("p"), Atom("q")), Atom("r"), Atom("s")],
               [[Pair(Atom("p"), Atom("q")), Atom("r")], [Atom("r"), Atom("s")]]),
]


@pytest.mark.parametrize("kind", list(ProductKind))
def test_product_edges_share_the_vertex_objects(kind):
    for h1, h2 in itertools.product(SHARING_FACTORS, repeat=2):
        prod = product(kind, h1, h2)
        vertex = {v: v for v in prod.vertices}
        assert all(vertex[m] is m for e in prod.edges for m in e)


@pytest.mark.parametrize("kind", sorted(DIRECT_KINDS))
def test_pair_product_edges_share_their_members(kind):
    edges = edge_pair_product(frozenset(atoms("a b c")), frozenset(atoms("x y")), kind)
    first = {}
    assert all(first.setdefault(m, m) is m for e in edges for m in e)


def test_unvalidated_factor_still_multiplies():
    a, b = atoms("a b")
    stray = hypergraph([a], [[a, b]])  # b is no vertex
    prod = cartesian(stray, from_tokens("x", ["x"]))
    assert prod.vertices == {Pair(a, Atom("x"))}
    assert pe(("a", "x"), ("b", "x")) in prod.edges


# A factor with an empty edge (unvalidated) times one 2-edge {x, y}: the
# product edges as the right-hand tokens paired with a, pinned as literals.
# The empty edge crossed with a vertex, and the one injection of the empty
# edge, give the empty product edge; no surjection or choice does.
EMPTY_EDGE_PRODUCTS = {
    "cartesian": {(), ("x",), ("y",), ("x", "y")},
    "dirmin": {(), ("x",), ("y",)},
    "dirmax": {("x", "y")},
    "dirnon": {("x",), ("y",)},
    "normal": {(), ("x",), ("y",), ("x", "y")},
    "strong": {(), ("x",), ("y",), ("x", "y")},
}


@pytest.mark.parametrize("kind", sorted(EMPTY_EDGE_PRODUCTS))
def test_products_of_a_factor_with_an_empty_edge(kind):
    a = Atom("a")
    with_empty = hypergraph([a], [[a], []])
    two = from_tokens("x y", ["x y"])
    expected = EMPTY_EDGE_PRODUCTS[kind]
    left = product(kind, with_empty, two)
    assert left.vertices == {Pair(a, Atom("x")), Pair(a, Atom("y"))}
    assert left.edges == {pe(*(("a", t) for t in e)) for e in expected}
    right = product(kind, two, with_empty)
    assert right.vertices == {Pair(Atom("x"), a), Pair(Atom("y"), a)}
    assert right.edges == {pe(*((t, "a") for t in e)) for e in expected}


# Brute force from the definitions in the README's product table, written
# independently of the library's generators.
def brute_cartesian(h1, h2):
    """A vertex crossed with an edge, or an edge crossed with a vertex."""
    return {frozenset(Pair(x, y) for y in f) for x in h1.vertices for f in h2.edges} | {
        frozenset(Pair(x, y) for x in e) for e in h1.edges for y in h2.vertices
    }


def brute_dirnon(h1, h2):
    """{(x,y)} united with (e minus x) x (f minus y), for each choice of x in
    e and y in f, over all edge pairs."""
    return {
        frozenset({Pair(x, y)} | {Pair(u, w) for u in e - {x} for w in f - {y}})
        for e in h1.edges
        for f in h2.edges
        for x in e
        for y in f
    }


nested = stg.hypergraphs(max_vertices=4, max_edges=3, max_edge_size=3, labels=stg.any_labels)


@given(nested, nested)
def test_cartesian_matches_its_definition(h1, h2):
    grid = {Pair(x, y) for x in h1.vertices for y in h2.vertices}
    assert cartesian(h1, h2) == hypergraph(grid, brute_cartesian(h1, h2))


@given(nested, nested)
def test_dirnon_matches_its_definition(h1, h2):
    grid = {Pair(x, y) for x in h1.vertices for y in h2.vertices}
    assert dirnon(h1, h2) == hypergraph(grid, brute_dirnon(h1, h2))


def test_pair_product_edges_all_satisfy_defining_predicate():
    """Every dirmax edge projects onto both factor edges; every dirmin edge
    has injective projections of the smaller size.  Checked exhaustively for
    all factor-edge sizes up to 3."""
    pool = atoms("a b c")
    pool2 = atoms("x y z")
    for n1, n2 in itertools.product([1, 2, 3], repeat=2):
        e1 = frozenset(pool[:n1])
        e2 = frozenset(pool2[:n2])
        lo, hi = min(n1, n2), max(n1, n2)
        for edge in edge_pair_product(e1, e2, ProductKind.DIRMAX):
            assert len(edge) == hi
            assert {p.left for p in edge} == set(e1)
            assert {p.right for p in edge} == set(e2)
        for edge in edge_pair_product(e1, e2, ProductKind.DIRMIN):
            assert len(edge) == lo
            assert len({p.left for p in edge}) == lo
            assert len({p.right for p in edge}) == lo


# ---------------------------------------------------------------- pair tables

def single_edge(prefix, size):
    """One edge of `size` fresh atoms, and the hypergraph made of it."""
    e = frozenset(Atom(f"{prefix}{i}") for i in range(size))
    return e, hypergraph(e, [e])


@pytest.mark.parametrize("a,b", list(itertools.product(range(1, 6), repeat=2)))
def test_pair_edges_match_the_oracles_up_to_size_5(a, b):
    """Every direct kind's edges for one a-edge against one b-edge, checked
    against the subset scan and dirnon's definition, with their counts."""
    (e1, h1), (e2, h2) = single_edge("u", a), single_edge("w", b)
    lo, hi = min(a, b), max(a, b)
    injections = edge_pair_product(e1, e2, ProductKind.DIRMIN)
    assert injections == set(subset_scan_direct("dirmin", h1, h2).edges)
    assert len(injections) == math.perm(hi, lo)
    surjections = edge_pair_product(e1, e2, ProductKind.DIRMAX)
    assert surjections == set(subset_scan_direct("dirmax", h1, h2).edges)
    assert len(surjections) == math.factorial(lo) * count_partitions(hi, lo)
    choices = edge_pair_product(e1, e2, ProductKind.DIRNON)
    assert choices == brute_dirnon(h1, h2)
    assert len(choices) <= a * b


@pytest.mark.parametrize("a,b", [(8, 6), (6, 8)])
def test_eight_onto_six_has_191520_surjection_graphs(a, b):
    (_, h1), (_, h2) = single_edge("u", a), single_edge("w", b)
    try:
        assert len(products.ranked_product(ProductKind.DIRMAX, _ranked(h1), _ranked(h2))[1]) == 191_520
    finally:
        products._patterns.cache_clear()  # the table holds about 20 MB


def test_tables_ascend_so_one_edge_pair_gives_sorted_ranked_edges():
    """The canonical edge sort before writing merges ascending runs: every
    table is strictly ascending, one factor-edge pair's ranked edges come
    out sorted, and repeats are dropped, not kept in the run."""
    for build in {build for build, _ in products._PARTS.values() if build is not None}:
        for a, b in itertools.product(range(1, 6), repeat=2):
            table = products._patterns(build, a, b)
            assert all(s < t for s, t in zip(table, table[1:])), (build.__name__, a, b)
    for kind in sorted(DIRECT_KINDS):
        for a, b in [(2, 2), (3, 5), (4, 7), (5, 3)]:
            (_, h1), (_, h2) = single_edge("u", a), single_edge("w", b)
            edges = list(products.ranked_product(kind, _ranked(h1), _ranked(h2))[1])
            assert edges == sorted(edges), (kind, a, b)
    # The singleton's direct edge e4 x {c} is also a cartesian edge.
    _, h4 = single_edge("a", 4)
    e7 = frozenset(atoms("b1 b2 b3 b4 b5 b6 b7"))
    h7 = hypergraph(e7 | {Atom("c")}, [e7, frozenset({Atom("c")})])
    edges = list(products.ranked_product(ProductKind.STRONG, _ranked(h4), _ranked(h7))[1])
    assert len(edges) == len(set(edges)) == 4 * 2 + 1 * 8 + 8400 == len(strong(h4, h7).edges)


@st.composite
def unvalidated_hypergraphs(draw):
    """Factors whose edges may hold members outside the vertex set."""
    verts = draw(st.lists(stg.any_labels, max_size=4, unique=True))
    strays = draw(st.lists(stg.any_labels, min_size=1, max_size=3, unique=True))
    member = st.sampled_from(verts + strays)
    return hypergraph(verts, draw(st.lists(st.frozensets(member, min_size=1, max_size=4), max_size=3)))


ranked_factors = st.one_of(
    stg.hypergraphs(max_vertices=4, max_edges=3, labels=stg.any_labels), unvalidated_hypergraphs()
)


@given(ranked_factors, ranked_factors)
def test_ranked_edges_ascend_and_are_the_rank_images_of_product_edges(h1, h2):
    """Each factor edge enters in rank order, so every ranked edge comes out
    strictly ascending, with no sort: it is the labelled edge's rank image."""
    for kind in ProductKind:
        f1, f2 = _ranked(h1), _ranked(h2)
        xs, ys = f1[0], f2[0]
        vertices, edges = products.ranked_product(kind, f1, f2)
        rank = {Pair(x, y): i * len(ys) + j for i, x in enumerate(xs) for j, y in enumerate(ys)}
        labelled = product(kind, h1, h2)
        assert vertices == sorted(rank[v] for v in labelled.vertices)
        assert all(r < s for e in edges for r, s in zip(e, e[1:]))
        assert edges == {tuple(rank[m] for m in sorted_members(e)) for e in labelled.edges}
