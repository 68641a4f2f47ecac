"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against the *defining conditions* of the
constructions (projection predicates, adjacency rules, explicit bijections,
explicit set partitions) rather than sharing code with hgprod, so that an
agreement between the two is evidence and not a tautology.
"""

import itertools
import math

from hgprod import Atom, Hypergraph, Pair


def grid(h1, h2):
    """The product vertex set V1 x V2."""
    return frozenset(Pair(u, v) for u in h1.vertices for v in h2.vertices)


# --------------------------------------------------------------------------
# direct products by brute-force subset scan
# --------------------------------------------------------------------------

def subset_scan_direct(kind, h1, h2):
    """dirmin / dirmax by scanning every candidate subset of e1 x e2.

    dirmin keeps the r-subsets (r = min of the edge sizes) on which both
    projections are injective; dirmax keeps the r-subsets (r = max) on which
    both projections are surjective.  No injections or surjections are ever
    enumerated, only the raw predicate is tested.
    """
    assert kind in ("dirmin", "dirmax")
    edges = set()
    for e1 in h1.edges:
        for e2 in h2.edges:
            cells = [(u, v) for u in e1 for v in e2]
            lo, hi = min(len(e1), len(e2)), max(len(e1), len(e2))
            r = lo if kind == "dirmin" else hi
            for combo in itertools.combinations(cells, r):
                p1 = {u for u, _ in combo}
                p2 = {v for _, v in combo}
                if kind == "dirmin":
                    ok = len(p1) == r and len(p2) == r
                else:
                    ok = p1 == set(e1) and p2 == set(e2)
                if ok:
                    edges.add(frozenset(Pair(u, v) for u, v in combo))
    return Hypergraph(grid(h1, h2), frozenset(edges))


# --------------------------------------------------------------------------
# classical graph products, written as adjacency rules
# --------------------------------------------------------------------------

def classical_graph_product(h1, h2, which):
    """Textbook graph products for rank-2 factors.

    (u1,u2) ~ (v1,v2) iff
      cartesian:  u1 = v1 and u2 ~ v2,  or  u1 ~ v1 and u2 = v2
      tensor:     u1 ~ v1 and u2 ~ v2
      strong:     either of the above
    """
    adj1 = set(map(frozenset, h1.edges))
    adj2 = set(map(frozenset, h2.edges))

    def adjacent(adj, u, v):
        return u != v and frozenset({u, v}) in adj

    cells = [(u, v) for u in h1.vertices for v in h2.vertices]
    edges = set()
    for (u1, u2), (v1, v2) in itertools.combinations(cells, 2):
        cart = (u1 == v1 and adjacent(adj2, u2, v2)) or (
            adjacent(adj1, u1, v1) and u2 == v2
        )
        tens = adjacent(adj1, u1, v1) and adjacent(adj2, u2, v2)
        keep = {"cartesian": cart, "tensor": tens, "strong": cart or tens}[which]
        if keep:
            edges.add(frozenset({Pair(u1, u2), Pair(v1, v2)}))
    return Hypergraph(grid(h1, h2), frozenset(edges))


# --------------------------------------------------------------------------
# isomorphism by exhausting all bijections
# --------------------------------------------------------------------------

def bijection_scan_isomorphic(h1, h2):
    """Try every vertex bijection; accept if one maps edges onto edges both ways."""
    vs1 = sorted(h1.vertices, key=str)
    vs2 = sorted(h2.vertices, key=str)
    if len(vs1) != len(vs2):
        return False
    for perm in itertools.permutations(vs2):
        phi = dict(zip(vs1, perm))
        inv = {w: v for v, w in phi.items()}
        fwd = all(frozenset(phi[v] for v in e) in h2.edges for e in h1.edges)
        bwd = all(frozenset(inv[w] for w in f) in h1.edges for f in h2.edges)
        if fwd and bwd:
            return True
    return False


# --------------------------------------------------------------------------
# counting oracles
# --------------------------------------------------------------------------

def count_surjections(n, k):
    """Number of surjections from an n-set onto a k-set, by enumeration."""
    return sum(
        1 for f in itertools.product(range(k), repeat=n) if len(set(f)) == k
    )


def set_partitions_into(items, k):
    """Yield every partition of `items` into exactly k non-empty blocks."""
    if k < 0:
        return
    if not items:
        if k == 0:
            yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions_into(rest, k - 1):
        yield part + ((first,),)
    for part in set_partitions_into(rest, k):
        for i in range(len(part)):
            yield part[:i] + (part[i] + (first,),) + part[i + 1:]


def count_partitions(n, k):
    return sum(1 for _ in set_partitions_into(list(range(n)), k))


def stirling_by_alternating_sum(n, k):
    """S(n, k) via inclusion-exclusion: (1/k!) * sum (-1)^j C(k,j) (k-j)^n."""
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    assert total % math.factorial(k) == 0
    return total // math.factorial(k)


# --------------------------------------------------------------------------
# exhaustive small families
# --------------------------------------------------------------------------

def enumerate_hypergraphs(n_vertices, max_edges, sizes):
    """All hypergraphs on n fixed vertices with at most max_edges edges drawn
    from the given size menu."""
    verts = [Atom(f"t{i}") for i in range(n_vertices)]
    pool = [
        frozenset(c)
        for s in sizes
        if 0 < s <= n_vertices
        for c in itertools.combinations(verts, s)
    ]
    vs = frozenset(verts)
    for m in range(max_edges + 1):
        for combo in itertools.combinations(pool, m):
            yield Hypergraph(vs, frozenset(combo))


def small_family(max_vertices, max_edges, sizes=None):
    """Every hypergraph with <= max_vertices vertices and <= max_edges edges.

    With sizes=None each vertex count n admits all edge sizes 1..n.
    """
    out = []
    for n in range(max_vertices + 1):
        menu = sizes if sizes is not None else range(1, n + 1)
        out.extend(enumerate_hypergraphs(n, max_edges, menu))
    return out


def enumerate_edge_subsets(n_vertices, sizes, keep=None):
    """All hypergraphs on n fixed vertices whose edge set is any subset of the
    size-restricted pool, optionally filtered by `keep`."""
    verts = [Atom(f"t{i}") for i in range(n_vertices)]
    pool = [
        frozenset(c)
        for s in sizes
        if 0 < s <= n_vertices
        for c in itertools.combinations(verts, s)
    ]
    vs = frozenset(verts)
    for bits in range(1 << len(pool)):
        edges = frozenset(pool[i] for i in range(len(pool)) if bits >> i & 1)
        hg = Hypergraph(vs, edges)
        if keep is None or keep(hg):
            yield hg
