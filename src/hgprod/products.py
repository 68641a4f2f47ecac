"""The six hypergraph products.

Every product has vertex set V1 x V2 (as Pair labels).  The edge sets:

  cartesian   {x} x f for x in V1, f in E2, plus e x {y} for e in E1, y in V2
  dirmin      subsets of e1 x e2 of size min(|e1|,|e2|) with both projections
              injective and at least one surjective -- the graphs of
              injections from the smaller edge into the larger
  dirmax      subsets of size max(|e1|,|e2|) with both projections surjective
              and at least one injective -- the graphs of surjections from
              the larger edge onto the smaller
  dirnon      {(x,y)} united with (e \\ {x}) x (f \\ {y}), over all choices
              of x in e in E1 and y in f in E2
  normal      cartesian union dirmin
  strong      cartesian union dirmax

Enumeration goes through injections/surjections rather than a subset scan;
the projection constraints make that exact.  Emitted edges always live in
e1 x e2 regardless of which factor edge is larger, and edge sets are
deduplicated across generating pairs (set semantics).  One table, `_PARTS`,
names each kind's pair generator and whether it adds the cartesian edges;
`product`, `ranked_product` and `edge_pair_product` all dispatch through it,
and the six named constructors call `product`.

Each product call builds one Pair per product vertex, in a table
``cells[x][y]``, and the vertex set and every edge (cartesian and direct
parts alike) take their pairs from it.  So a pair is built and hashed
once, and set lookups on equal members stop at the identity check.

The same generators also run over integer ranks, for callers that only
print or count the product (`ranked_product`): there ``cells[x][y]`` is
i*|Y| + j, with x the i-th and y the j-th factor label in label order, and
an edge is the sorted tuple of its ranks.  Row-major ranks are the
product's label order, so no Pair is built, hashed or sorted; Pair labels
are built only for library results.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterator

from .core import Edge, Hypergraph, Pair, label_key


class ProductKind(str, Enum):
    CARTESIAN = "cartesian"
    DIRMIN = "dirmin"
    DIRMAX = "dirmax"
    DIRNON = "dirnon"
    NORMAL = "normal"
    STRONG = "strong"


DIRECT_KINDS = frozenset({ProductKind.DIRMIN, ProductKind.DIRMAX, ProductKind.DIRNON})


def product_vertices(h1: Hypergraph, h2: Hypergraph) -> frozenset:
    return frozenset(Pair(u, v) for u in h1.vertices for v in h2.vertices)


def _cells(xs, ys) -> dict:
    """The product's one Pair per cell: ``cells[x][y] is Pair(x, y)``."""
    return {x: {y: Pair(x, y) for y in ys} for x in xs}


def _product_cells(h1: Hypergraph, h2: Hypergraph) -> dict:
    # Edge members outside the vertex set get cells too, so an unvalidated
    # factor still multiplies as its edges say.
    return _cells(h1.vertices.union(*h1.edges), h2.vertices.union(*h2.edges))


def _vertex_set(cells: dict, h1: Hypergraph, h2: Hypergraph) -> frozenset:
    return frozenset(cells[x][y] for x in h1.vertices for y in h2.vertices)


# Every edge generator takes `form`, which makes one edge from its cells:
# frozenset over the Pair table, _rank_tuple over the integer one.
def _rank_tuple(members) -> tuple:
    return tuple(sorted(members))


def _cartesian_edges(cells: dict, h1: Hypergraph, h2: Hypergraph, form) -> frozenset:
    edges = set()
    for x in h1.vertices:
        row = cells[x]
        for f in h2.edges:
            edges.add(form(map(row.__getitem__, f)))
    for e in h1.edges:
        rows = [cells[x] for x in e]
        for y in h2.vertices:
            edges.add(form(row[y] for row in rows))
    return frozenset(edges)


def _grid(cells: dict, e1: Edge, e2: Edge) -> list[list]:
    """The cells of e1 x e2, rows over the larger edge and columns over the
    smaller one.  Row order does not matter: edges are sets or sorted
    tuples."""
    rows = [cells[x] for x in e1]
    if len(e1) >= len(e2):
        return [[row[y] for y in e2] for row in rows]
    return [[row[y] for row in rows] for y in e2]


def _injection_edges(cells: dict, e1: Edge, e2: Edge, form) -> Iterator:
    """Graphs of injections from the smaller of (e1, e2) into the larger,
    as subsets of e1 x e2.  Equal sizes give the bijection graphs once."""
    grid = _grid(cells, e1, e2)
    cols = range(min(len(e1), len(e2)))
    for rows in itertools.permutations(grid, len(cols)):
        yield form(map(list.__getitem__, rows, cols))


def _surjection_edges(cells: dict, e1: Edge, e2: Edge, form) -> Iterator:
    """Graphs of surjections from the larger of (e1, e2) onto the smaller,
    as subsets of e1 x e2."""
    grid = _grid(cells, e1, e2)
    nsmall = min(len(e1), len(e2))
    for cols in itertools.product(range(nsmall), repeat=len(grid)):
        if len(set(cols)) == nsmall:
            yield form(map(list.__getitem__, grid, cols))


def _choice_edges(cells: dict, e1: Edge, e2: Edge, form) -> Iterator:
    """dirnon edges of a single pair: one edge per choice of x in e1, y in e2."""
    grid = _grid(cells, e1, e2)
    for r, row in enumerate(grid):
        others = grid[:r] + grid[r + 1 :]
        for c, cell in enumerate(row):
            yield form({cell}.union(*(o[:c] + o[c + 1 :] for o in others)))


# kind -> (its pair generator or None, with cartesian edges)
_PARTS = {
    ProductKind.CARTESIAN: (None, True),
    ProductKind.DIRMIN: (_injection_edges, False),
    ProductKind.DIRMAX: (_surjection_edges, False),
    ProductKind.DIRNON: (_choice_edges, False),
    ProductKind.NORMAL: (_injection_edges, True),
    ProductKind.STRONG: (_surjection_edges, True),
}


def _edges(kind: ProductKind, cells: dict, h1: Hypergraph, h2: Hypergraph, form) -> frozenset:
    """The product's edge set: its direct part, united with the cartesian
    edges for cartesian, normal and strong."""
    generate, with_cartesian = _PARTS[kind]
    if generate is None:
        return _cartesian_edges(cells, h1, h2, form)
    edges = set()
    for e1 in h1.edges:
        for e2 in h2.edges:
            edges.update(generate(cells, e1, e2, form))
    edges = frozenset(edges)
    if with_cartesian:
        edges = _cartesian_edges(cells, h1, h2, form) | edges
    return edges


def edge_pair_product(e1: Edge, e2: Edge, kind: ProductKind) -> set:
    """The product edges generated by one pair of factor edges.

    Only the three direct kinds act pairwise; the full direct products are
    the unions of these sets over all edge pairs.
    """
    kind = ProductKind(kind)
    if kind not in DIRECT_KINDS:
        raise ValueError(f"kind {kind.value} has no single-pair edge set")
    if not e1 or not e2:
        raise ValueError("factor edges must be non-empty")
    generate, _ = _PARTS[kind]
    return set(generate(_cells(e1, e2), e1, e2, frozenset))


def product(kind: ProductKind, h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    """The product of `kind` (a ProductKind or its name).  The vertex set
    and every edge take their pairs from one table."""
    cells = _product_cells(h1, h2)
    return Hypergraph(_vertex_set(cells, h1, h2), _edges(ProductKind(kind), cells, h1, h2, frozenset))


def cartesian(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return product(ProductKind.CARTESIAN, h1, h2)


def dirmin(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return product(ProductKind.DIRMIN, h1, h2)


def dirmax(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return product(ProductKind.DIRMAX, h1, h2)


def dirnon(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return product(ProductKind.DIRNON, h1, h2)


def normal(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return product(ProductKind.NORMAL, h1, h2)


def strong(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return product(ProductKind.STRONG, h1, h2)


def ranked_product(kind: ProductKind, h1: Hypergraph, h2: Hypergraph) -> tuple[list, list, list, frozenset]:
    """The product on integer ranks: (xs, ys, vertices, edges).

    xs and ys are the factors' labels (edge members included) in label
    order; rank i*len(ys) + j stands for Pair(xs[i], ys[j]), so ranks follow
    the label order of the pairs.  `vertices` lists the ranks of V1 x V2 in
    ascending order and each edge is a sorted tuple of ranks.
    """
    xs = sorted(h1.vertices.union(*h1.edges), key=label_key)
    ys = sorted(h2.vertices.union(*h2.edges), key=label_key)
    n = len(ys)
    cells = {x: {y: i * n + j for j, y in enumerate(ys)} for i, x in enumerate(xs)}
    vertices = [cells[x][y] for x in xs if x in h1.vertices for y in ys if y in h2.vertices]
    return xs, ys, vertices, _edges(ProductKind(kind), cells, h1, h2, _rank_tuple)
