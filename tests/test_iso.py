import inspect
import random
import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

import strategies as stg
from oracles import bijection_scan_isomorphic
from hgprod import (
    Atom,
    Hypergraph,
    IsoBoundError,
    IsoResult,
    Pair,
    apply_mapping,
    are_isomorphic,
    atoms,
    check_associativity,
    format_label,
    from_tokens,
    hypergraph,
    product,
    ProductKind,
    regroup_left_to_right,
    regroup_right_to_left,
    swap_map,
)


def is_homomorphism(src, dst, phi) -> bool:
    """True iff phi maps every edge of src onto an edge of dst; phi must be
    total on the source vertices with image inside the target vertices."""
    if not src.vertices <= phi.keys():
        raise ValueError("mapping not total on source vertices")
    if not {phi[v] for v in src.vertices} <= dst.vertices:
        raise ValueError("mapping image outside target vertices")
    return all(frozenset(phi[v] for v in e) in dst.edges for e in src.edges)


# ---------------------------------------------------------------- relabeling

def test_apply_mapping_round_trip():
    g = from_tokens("a b c", ["a b", "b c"])
    phi = {Atom("a"): Atom("x"), Atom("b"): Atom("y"), Atom("c"): Atom("z")}
    image = apply_mapping(g, phi)
    assert image == from_tokens("x y z", ["x y", "y z"])
    back = apply_mapping(image, {w: v for v, w in phi.items()})
    assert back == g


def test_apply_mapping_preconditions():
    g = from_tokens("a b", ["a b"])
    with pytest.raises(ValueError):
        apply_mapping(g, {Atom("a"): Atom("x")})
    with pytest.raises(ValueError):
        apply_mapping(g, {Atom("a"): Atom("x"), Atom("b"): Atom("x")})


def test_swap_map_is_an_involution_on_pairs():
    v = Pair(Atom("a"), Pair(Atom("y"), Atom("z")))
    assert swap_map(swap_map(v)) == v
    with pytest.raises(ValueError):
        swap_map(Atom("a"))


def test_regrouping_shapes():
    x, y, z = atoms("x y z")
    right = Pair(x, Pair(y, z))
    left = Pair(Pair(x, y), z)
    assert regroup_right_to_left(right) == left
    assert regroup_left_to_right(left) == right
    for fn in (regroup_right_to_left, regroup_left_to_right):
        with pytest.raises(ValueError):
            fn(x)
    with pytest.raises(ValueError):
        regroup_right_to_left(Pair(Pair(x, y), z))
    with pytest.raises(ValueError):
        regroup_left_to_right(Pair(x, Pair(y, z)))


@given(stg.atom_labels, stg.atom_labels, stg.atom_labels)
def test_regrouping_round_trips(x, y, z):
    v = Pair(x, Pair(y, z))
    assert regroup_left_to_right(regroup_right_to_left(v)) == v


def test_regrouping_carries_triple_products(single_edge_factors):
    """Relabeling a right-grouped product grid gives the left-grouped grid."""
    g, h = single_edge_factors
    right = product(ProductKind.CARTESIAN, g, product(ProductKind.CARTESIAN, g, h))
    left = product(ProductKind.CARTESIAN, product(ProductKind.CARTESIAN, g, g), h)
    regroup = {v: regroup_right_to_left(v) for v in right.vertices}
    assert apply_mapping(right, regroup) == left  # cartesian is associative


# ---------------------------------------------------------------- decision

def test_isomorphic_to_itself(single_edge_factors):
    g, h = single_edge_factors
    for hg in (g, h):
        res = are_isomorphic(hg, hg)
        assert res.isomorphic
        assert res.witness is not None
        assert is_homomorphism(hg, hg, res.witness)


def test_screen_rejects_on_degree_sequence():
    h1 = from_tokens("1 2 3 4", ["1 2", "3 4"])
    h2 = from_tokens("1 2 3 4", ["1 2", "2 3"])
    res = are_isomorphic(h1, h2)
    assert not res.isomorphic
    assert res.nodes_explored == 0  # screened out before any search
    assert bijection_scan_isomorphic(h1, h2) is False


def test_matching_invariants_still_need_search():
    """C6 vs two triangles: every screen invariant agrees (6 vertices, 6
    edges of size 2, all degrees 2), so only the search can separate them."""
    c6 = from_tokens("1 2 3 4 5 6", ["1 2", "2 3", "3 4", "4 5", "5 6", "6 1"])
    cc = from_tokens("1 2 3 4 5 6", ["1 2", "2 3", "3 1", "4 5", "5 6", "6 4"])
    res = are_isomorphic(c6, cc)
    assert not res.isomorphic
    assert res.nodes_explored > 0  # the screens cannot tell these apart
    assert bijection_scan_isomorphic(c6, cc) is False


def test_witness_is_verified_both_ways():
    h1 = from_tokens("a b c d", ["a b", "b c", "c d"])
    phi = dict(zip(atoms("a b c d"), atoms("p q r s")))
    h2 = apply_mapping(h1, phi)
    res = are_isomorphic(h1, h2)
    assert res.isomorphic
    w = res.witness
    assert len(set(w.values())) == len(w)  # a bijection
    assert is_homomorphism(h1, h2, w)
    assert is_homomorphism(h2, h1, {v: k for k, v in w.items()})


def test_bound_refusal_only_when_search_is_needed():
    big = from_tokens(" ".join(f"v{i}" for i in range(13)),
                      [f"v{i} v{i+1}" for i in range(12)])
    with pytest.raises(IsoBoundError):
        are_isomorphic(big, big)
    # a screened rejection at the same size does not raise
    other = from_tokens(" ".join(f"v{i}" for i in range(13)), [])
    assert not are_isomorphic(big, other).isomorphic
    # and a raised bound can be lifted explicitly
    assert are_isomorphic(big, big, max_vertices=13).isomorphic


def _cycles(*lengths):
    """Disjoint cycles on the vertices c0, c1, ..., one per length."""
    vertices, edges = [], []
    for n in lengths:
        ring = [f"c{len(vertices) + i}" for i in range(n)]
        vertices += ring
        edges += [f"{ring[i]} {ring[(i + 1) % n]}" for i in range(n)]
    return from_tokens(" ".join(vertices), edges)


@pytest.mark.parametrize("n", range(12, 25, 2))
def test_cycle_search_scales_polynomially(n):
    """C_N vs 2*C_{N/2} passes every screen; backtracking needed 260,256
    nodes to refute it at N = 24."""
    cycle = _cycles(n)
    res = are_isomorphic(cycle, _cycles(n // 2, n // 2), max_vertices=n)
    assert not res.isomorphic
    assert res.nodes_explored <= n * n
    targets = random.Random(n).sample(range(n), n)
    image = apply_mapping(cycle, {Atom(f"c{i}"): Atom(f"p{j}") for i, j in enumerate(targets)})
    res = are_isomorphic(cycle, image, max_vertices=n)
    assert res.isomorphic
    assert is_homomorphism(cycle, image, res.witness)
    assert is_homomorphism(image, cycle, {w: v for v, w in res.witness.items()})


@pytest.mark.parametrize("n", range(12, 25, 2))
def test_cycle_refutation_takes_exactly_n_nodes(n):
    """The first cycle vertex is tried against each of the N vertices of
    2*C_{N/2}, and every try is refuted: N nodes, 24 at N = 24."""
    res = are_isomorphic(_cycles(n), _cycles(n // 2, n // 2), max_vertices=n)
    assert (res.isomorphic, res.nodes_explored) == (False, n)


def _names(witness):
    return {format_label(k): format_label(v) for k, v in witness.items()}


@pytest.mark.parametrize(
    "n, witness",
    [
        (8, "c0:p0 c1:p5 c2:p3 c3:p2 c4:p7 c5:p1 c6:p4 c7:p6"),
        (12, "c0:p0 c1:p11 c2:p6 c3:p1 c4:p10 c5:p9 c6:p7 c7:p4 c8:p8 c9:p5 c10:p2 c11:p3"),
    ],
)
def test_relabelled_cycle_search_is_pinned(n, witness):
    """Two nodes, and the first leaf reached gives exactly this witness."""
    targets = random.Random(n).sample(range(n), n)
    cycle = _cycles(n)
    image = apply_mapping(cycle, {Atom(f"c{i}"): Atom(f"p{j}") for i, j in enumerate(targets)})
    res = are_isomorphic(cycle, image, max_vertices=n)
    assert res.nodes_explored == 2
    assert _names(res.witness) == dict(pair.split(":") for pair in witness.split())


LOOSE_C4 = from_tokens("a b c d e f g h x y", ["a b c", "c d e", "e f g", "g h a"])
TWO_LOOSE_C2 = from_tokens("a b c d e f g h x y", ["a b c", "c d a", "e f g", "g h e"])


def test_hypergraph_search_with_3_edges_and_isolated_vertices_is_pinned():
    """A triangle of 3-edges plus two isolated vertices against a relabelled
    copy; a loose 4-cycle of 3-edges against two loose 2-cycles, which colour
    refinement alone cannot separate."""
    h = from_tokens("a b c d e f x y", ["a b c", "c d e", "e f a"])
    image = from_tokens("t s y r q p w u", ["t s y", "y r q", "q p t"])
    res = are_isomorphic(h, image)
    assert res.nodes_explored == 3
    assert _names(res.witness) == dict(zip("a b c d e f x y".split(), "t p q r y s u w".split()))
    for h1, h2 in ((LOOSE_C4, TWO_LOOSE_C2), (TWO_LOOSE_C2, LOOSE_C4)):
        assert are_isomorphic(h1, h2) == IsoResult(False, None, 10)


def test_cubic_graph_search_is_pinned():
    """A 3-regular graph on 10 vertices against a relabelled copy, where
    refinement splits some cells into three or more pieces."""
    g = from_tokens(" ".join(f"v{i}" for i in range(10)), [
        "v0 v2", "v0 v4", "v0 v7", "v1 v3", "v1 v5", "v1 v7", "v2 v3", "v2 v5",
        "v3 v8", "v4 v7", "v4 v9", "v5 v6", "v6 v8", "v6 v9", "v8 v9"])
    h = from_tokens(" ".join(f"p{i}" for i in range(10)), [
        "p0 p7", "p0 p8", "p0 p9", "p1 p2", "p1 p4", "p1 p7", "p2 p3", "p2 p6",
        "p3 p5", "p3 p8", "p4 p5", "p4 p6", "p5 p8", "p6 p9", "p7 p9"])
    res = are_isomorphic(g, h)
    assert res.nodes_explored == 5
    assert _names(res.witness) == {
        "v0": "p3", "v1": "p4", "v2": "p2", "v3": "p1", "v4": "p8",
        "v5": "p6", "v6": "p9", "v7": "p5", "v8": "p7", "v9": "p0"}


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """Edgeless vertices split one per individualisation, so the search
    path is as deep as the vertex count."""
    n = 200
    h = hypergraph(Atom(f"v{i}") for i in range(n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + n // 2)
    try:
        res = are_isomorphic(h, h, max_vertices=n)
    finally:
        sys.setrecursionlimit(limit)
    assert res.isomorphic and res.nodes_explored == n - 1


def test_result_invariant_enforced():
    with pytest.raises(ValueError):
        IsoResult(True, None, 0)
    with pytest.raises(ValueError):
        IsoResult(False, {}, 0)


def test_decision_is_deterministic(single_edge_factors):
    g, h = single_edge_factors
    p = product(ProductKind.STRONG, g, h)
    first = are_isomorphic(p, p)
    second = are_isomorphic(p, p)
    assert first == second


# ---------------------------------------------------------------- properties

@given(stg.hypergraphs(max_vertices=6), st.data())
def test_permuted_copies_are_recognized(h, data):
    phi = data.draw(stg.bijections_of(h.vertices))
    image = apply_mapping(h, phi)
    assert are_isomorphic(h, image).isomorphic
    assert are_isomorphic(image, h).isomorphic


@given(stg.hypergraphs(max_vertices=5, max_edges=3),
       stg.hypergraphs(max_vertices=5, max_edges=3))
def test_decision_agrees_with_bijection_scan(h1, h2):
    assert are_isomorphic(h1, h2).isomorphic == bijection_scan_isomorphic(h1, h2)


@given(stg.hypergraphs(max_vertices=5, max_edges=3),
       stg.hypergraphs(max_vertices=5, max_edges=3))
def test_decision_is_symmetric(h1, h2):
    assert are_isomorphic(h1, h2).isomorphic == are_isomorphic(h2, h1).isomorphic


def test_root_refinement_refutes_with_no_search_node():
    """Both have degree sequence 3,2,2,1,1,1, so the count and edge-size
    screens pass; colour refinement at the root tells them apart."""
    g = from_tokens("a b c d e f", ["a d", "b c", "c d", "d e", "e f"])
    h = from_tokens("a b c d e f", ["a c", "a e", "a f", "b d", "c e"])
    assert are_isomorphic(g, h) == IsoResult(False, None, 0)
    assert are_isomorphic(h, g) == IsoResult(False, None, 0)


def test_size_screen_refutes_equal_degree_sequences():
    """Equal edge sizes and equal degree sequences, but no vertex of h2 lies
    in both a 2-edge and the 3-edge, as 3 does in h1: the incident-size
    screen refutes before the bound, where a degree-only screen would let
    the pair reach it and raise IsoBoundError."""
    h1 = from_tokens("1 2 3 4 5", ["1 2", "3 4 5", "1 3"])
    h2 = from_tokens("1 2 3 4 5", ["1 2", "3 4 5", "4 5"])
    assert are_isomorphic(h1, h2, max_vertices=4) == IsoResult(False, None, 0)
    assert are_isomorphic(h2, h1, max_vertices=4) == IsoResult(False, None, 0)


def test_edge_member_outside_the_vertex_set_is_a_value_error():
    """Unvalidated input: after the count screen, an edge member that is no
    vertex raises ValueError (it was a bare KeyError); a pair the count
    screen rejects keeps its verdict."""
    a, b, c = atoms("a b c")
    bad = Hypergraph(frozenset({a, b}), frozenset({frozenset({a, c})}))
    with pytest.raises(ValueError, match="outside the vertex set"):
        are_isomorphic(bad, bad)
    assert are_isomorphic(bad, from_tokens("a b", ["a b", "a"])) == IsoResult(False, None, 0)
    assert are_isomorphic(bad, from_tokens("a b c", ["a c"])) == IsoResult(False, None, 0)
    # dirnon groupings of these unvalidated factors have equal counts, so
    # the full search runs and meets the stray members.
    factors = [
        Hypergraph(frozenset(atoms("a0 a1")), frozenset({frozenset(atoms("a0 a1 az"))})),
        Hypergraph(frozenset(atoms("b0")), frozenset({frozenset(atoms("b0 bz"))})),
        Hypergraph(frozenset(atoms("c0 c1 c2")), frozenset({frozenset(atoms("c1 c2 cz"))})),
    ]
    with pytest.raises(ValueError, match="outside the vertex set"):
        check_associativity(ProductKind.DIRNON, *factors, full_iso=True)
