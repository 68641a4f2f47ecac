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
deduplicated across generating pairs (set semantics).

Each product call builds one Pair per product vertex, in a table
``cells[x][y]``, and the vertex set and every edge (cartesian and direct
parts alike) take their pairs from it.  So a pair is built and hashed
once, and set lookups on equal members stop at the identity check.
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


def _cartesian_edges(cells: dict, h1: Hypergraph, h2: Hypergraph) -> frozenset:
    edges = set()
    for x in h1.vertices:
        row = cells[x]
        for f in h2.edges:
            edges.add(frozenset(map(row.__getitem__, f)))
    for e in h1.edges:
        rows = [cells[x] for x in e]
        for y in h2.vertices:
            edges.add(frozenset(row[y] for row in rows))
    return frozenset(edges)


def _grid(cells: dict, e1: Edge, e2: Edge) -> list[list[Pair]]:
    """The cells of e1 x e2 in label order.  Rows run over the larger edge
    and columns over the smaller one."""
    xs, ys = sorted(e1, key=label_key), sorted(e2, key=label_key)
    rows = [cells[x] for x in xs]
    if len(xs) >= len(ys):
        return [[row[y] for y in ys] for row in rows]
    return [[row[y] for row in rows] for y in ys]


def _injection_edges(cells: dict, e1: Edge, e2: Edge) -> Iterator[Edge]:
    """Graphs of injections from the smaller of (e1, e2) into the larger,
    as subsets of e1 x e2.  Equal sizes give the bijection graphs once."""
    grid = _grid(cells, e1, e2)
    cols = range(min(len(e1), len(e2)))
    for rows in itertools.permutations(grid, len(cols)):
        yield frozenset(map(list.__getitem__, rows, cols))


def _surjection_edges(cells: dict, e1: Edge, e2: Edge) -> Iterator[Edge]:
    """Graphs of surjections from the larger of (e1, e2) onto the smaller,
    as subsets of e1 x e2."""
    grid = _grid(cells, e1, e2)
    nsmall = min(len(e1), len(e2))
    for cols in itertools.product(range(nsmall), repeat=len(grid)):
        if len(set(cols)) == nsmall:
            yield frozenset(map(list.__getitem__, grid, cols))


def _choice_edges(cells: dict, e1: Edge, e2: Edge) -> Iterator[Edge]:
    """dirnon edges of a single pair: one edge per choice of x in e1, y in e2."""
    grid = _grid(cells, e1, e2)
    for r, row in enumerate(grid):
        others = grid[:r] + grid[r + 1 :]
        for c, cell in enumerate(row):
            yield frozenset({cell}.union(*(o[:c] + o[c + 1 :] for o in others)))


_PAIR_GENERATORS = {
    ProductKind.DIRMIN: _injection_edges,
    ProductKind.DIRMAX: _surjection_edges,
    ProductKind.DIRNON: _choice_edges,
}


def _direct_edges(kind: ProductKind, cells: dict, h1: Hypergraph, h2: Hypergraph) -> frozenset:
    generate = _PAIR_GENERATORS[kind]
    edges = set()
    for e1 in h1.edges:
        for e2 in h2.edges:
            edges.update(generate(cells, e1, e2))
    return frozenset(edges)


def edge_pair_product(e1: Edge, e2: Edge, kind: ProductKind) -> set:
    """The product edges generated by one pair of factor edges.

    Only the three direct kinds act pairwise; the full direct products are
    the unions of these sets over all edge pairs.
    """
    if kind not in _PAIR_GENERATORS:
        raise ValueError(f"kind {kind.value} has no single-pair edge set")
    if not e1 or not e2:
        raise ValueError("factor edges must be non-empty")
    return set(_PAIR_GENERATORS[kind](_cells(e1, e2), e1, e2))


def cartesian(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    cells = _product_cells(h1, h2)
    return Hypergraph(_vertex_set(cells, h1, h2), _cartesian_edges(cells, h1, h2))


def _direct(kind: ProductKind, h1: Hypergraph, h2: Hypergraph, with_cartesian: bool = False) -> Hypergraph:
    """A direct product, united with the cartesian edges for normal and
    strong.  The vertex set and every edge take their pairs from one table."""
    cells = _product_cells(h1, h2)
    edges = _direct_edges(kind, cells, h1, h2)
    if with_cartesian:
        edges = _cartesian_edges(cells, h1, h2) | edges
    return Hypergraph(_vertex_set(cells, h1, h2), edges)


def dirmin(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return _direct(ProductKind.DIRMIN, h1, h2)


def dirmax(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return _direct(ProductKind.DIRMAX, h1, h2)


def dirnon(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return _direct(ProductKind.DIRNON, h1, h2)


def normal(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return _direct(ProductKind.DIRMIN, h1, h2, with_cartesian=True)


def strong(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    return _direct(ProductKind.DIRMAX, h1, h2, with_cartesian=True)


_CONSTRUCTORS = {
    ProductKind.CARTESIAN: cartesian,
    ProductKind.DIRMIN: dirmin,
    ProductKind.DIRMAX: dirmax,
    ProductKind.DIRNON: dirnon,
    ProductKind.NORMAL: normal,
    ProductKind.STRONG: strong,
}


def product(kind: ProductKind, h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    """Dispatch to the construction for `kind`."""
    return _CONSTRUCTORS[ProductKind(kind)](h1, h2)
