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
names each kind's table builder and whether it adds the cartesian edges;
`product` and `ranked_product` dispatch through it, and the six named
constructors and `edge_pair_product` call `product`.

Up to relabelling, the edges a pair (e1, e2) adds to a direct kind depend
only on |e1| and |e2|.  So each kind builds one position table per size
pair (a, b), once per process: its edges on the a x b grid as sorted tuples
of positions i*b + j, the table itself in ascending order.  A product call
lists the pair's cells in that order, ``flat = [cells[x][y] for x in e1
for y in e2]``, and maps each table entry through it.  dirmax tables come
from ordered set partitions, m!*S(M, m) of them, with no filter over all
m**M maps.

Library products carry Pair labels: each call builds one Pair per product
vertex, in a table ``cells[x][y]``, and the vertex set and every edge take
their pairs from it.  `ranked_product`, for callers that only print or
count the product, takes both factors as rank triples (`core._ranked`,
``hgio._parse(ranked=True)``) and maps the same tables through integer
cells, i*n + j for the ranks i and j; it sees no label at all.  Factor
edges are ascending rank tuples, so every product edge comes out ascending
and unsorted, each edge pair's edges in ascending order.
"""

from __future__ import annotations

import functools
import itertools
import operator
from enum import Enum
from typing import Iterable, Iterator, KeysView

from .core import Edge, Hypergraph, Pair, hypergraph


class ProductKind(str, Enum):
    CARTESIAN = "cartesian"
    DIRMIN = "dirmin"
    DIRMAX = "dirmax"
    DIRNON = "dirnon"
    NORMAL = "normal"
    STRONG = "strong"


DIRECT_KINDS = frozenset({ProductKind.DIRMIN, ProductKind.DIRMAX, ProductKind.DIRNON})


def _product_cells(h1: Hypergraph, h2: Hypergraph) -> tuple[dict, frozenset]:
    """The product's one Pair per cell, ``cells[x][y] is Pair(x, y)``, and
    the vertex set V1 x V2 made of its pairs.  Edge members outside the
    vertex set get cells too, so an unvalidated factor still multiplies as
    its edges say.  Rows list V2's cells first."""
    v2 = h2.vertices
    ys = [*v2, *v2.union(*h2.edges).difference(v2)]
    cells = {x: {y: Pair(x, y) for y in ys} for x in h1.vertices.union(*h1.edges)}
    rows = (itertools.islice(cells[x].values(), len(v2)) for x in h1.vertices)
    return cells, frozenset(itertools.chain.from_iterable(rows))


def _injections(a: int, b: int) -> Iterable[tuple]:
    """Graphs of injections from the smaller side of the a x b grid into the
    larger: m = min(a, b) rows, ascending, paired with m distinct columns.
    Equal sizes give the bijection graphs once."""
    m = min(a, b)
    return (tuple(map(operator.add, rows, cols))
            for rows in itertools.combinations([i * b for i in range(a)], m)
            for cols in itertools.permutations(range(b), m))


def _set_partitions(n: int, k: int) -> list[tuple]:
    """The partitions of range(n) into exactly k blocks, as restricted growth
    strings: element i lies in block g[i], and blocks open in order."""
    grown = [((), 0)]  # (string so far, blocks opened)
    for left in reversed(range(n)):  # elements still to place after this one
        grown = [(g + (c,), max(used, c + 1)) for g, used in grown
                 for c in range(min(used + 1, k)) if max(used, c + 1) + left >= k]
    return [g for g, _ in grown]


def _surjections(a: int, b: int) -> Iterable[tuple]:
    """Graphs of surjections from the larger side of the a x b grid onto the
    smaller: a partition of the larger side into m blocks, then one of the
    m! ways to send the blocks onto the smaller side."""
    m = min(a, b)
    sends = list(itertools.permutations(range(m)))
    bases = [i * b for i in range(a)]
    edges = []
    for g in _set_partitions(max(a, b), m):
        if a >= b:  # row i goes to column s[g[i]]
            edges += [tuple(map(operator.add, bases, map(s.__getitem__, g))) for s in sends]
        else:  # row k takes the columns of block s[k], ascending
            blocks = [[j for j, t in enumerate(g) if t == c] for c in range(m)]
            runs = [[tuple(map((k * b).__add__, block)) for block in blocks] for k in range(m)]
            edges += [sum(map(list.__getitem__, runs, s), ()) for s in sends]
    return edges


def _choices(a: int, b: int) -> Iterable[tuple]:
    """dirnon edges of a single pair: a cell (i, j) together with every cell
    in neither row i nor column j."""
    cells = list(itertools.product(range(a), range(b)))
    # Only a 2 x 2 grid makes an edge twice: (0, 0) and (1, 1) give one edge.
    return dict.fromkeys(tuple(p for p, (r, c) in enumerate(cells) if (r == i) == (c == j)) for i, j in cells)


@functools.cache
def _patterns(build, a: int, b: int) -> tuple[tuple, ...]:
    """The table of `build` on the a x b grid: its edges as sorted tuples of
    positions i*b + j, each once, in ascending order."""
    return tuple(sorted(build(a, b)))


def _mapped(table: tuple, flat: list) -> Iterator[tuple]:
    """The table's edges as tuples of cells, each position p read as flat[p]."""
    if not table or not table[0]:  # no edge, or the one empty edge
        return iter(table)
    cells = map(flat.__getitem__, itertools.chain.from_iterable(table))
    return zip(*[cells] * len(table[0]))  # a table's edges share a size


# kind -> (its table builder or None, with cartesian edges)
_PARTS = {
    ProductKind.CARTESIAN: (None, True),
    ProductKind.DIRMIN: (_injections, False),
    ProductKind.DIRMAX: (_surjections, False),
    ProductKind.DIRNON: (_choices, False),
    ProductKind.NORMAL: (_injections, True),
    ProductKind.STRONG: (_surjections, True),
}


def _edges(kind: ProductKind, cells, v1, es1, v2, es2) -> Iterator[Iterable]:
    """The edges of the product of (v1, es1) and (v2, es2), as a stream
    that may repeat an edge: the cartesian edges for cartesian, normal and
    strong, then the direct part, one edge pair after another.  Each edge
    comes as an iterable of its cells, ``cells[x][y]``, in the order the
    factor edges list them; the caller picks the container."""
    build, with_cartesian = _PARTS[kind]
    if with_cartesian:
        for x in v1:
            get = cells[x].__getitem__
            yield from (map(get, f) for f in es2)
        for e in es1:
            rows = [cells[x] for x in e]
            yield from (map(operator.itemgetter(y), rows) for y in v2)
    if build is not None:
        for e in es1:
            rows = [cells[x] for x in e]
            for f in es2:
                flat = [row[y] for row in rows for y in f]
                yield from _mapped(_patterns(build, len(e), len(f)), flat)


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
    return set(product(kind, hypergraph(e1, [e1]), hypergraph(e2, [e2])).edges)


def product(kind: ProductKind, h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    """The product of `kind` (a ProductKind or its name).  The vertex set
    and every edge take their pairs from one table."""
    cells, vertices = _product_cells(h1, h2)
    edges = _edges(ProductKind(kind), cells, h1.vertices, h1.edges, h2.vertices, h2.edges)
    return Hypergraph(vertices, frozenset(map(frozenset, edges)))


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


def ranked_product(kind: ProductKind, f1: tuple, f2: tuple) -> tuple[list, KeysView]:
    """The product of two factors on integer ranks: (vertices, edges).

    Each factor is a triple (order, vertices, edges) as `core._ranked`
    gives it.  Rank i*len(order2) + j stands for the pair of ranks i and j,
    so ranks follow the label order of the pairs.  `vertices` lists the
    ranks of V1 x V2 in ascending order and each edge is an ascending tuple
    of ranks.  `edges` holds each edge once, in the order first made, and
    equals their set.
    """
    (xs, v1, es1), (ys, v2, es2) = f1, f2
    n = len(ys)
    cells = [range(i * n, i * n + n) for i in range(len(xs))]
    vertices = [i * n + j for i in v1 for j in v2]
    edges = _edges(ProductKind(kind), cells, v1, es1, v2, es2)
    return vertices, dict.fromkeys(map(tuple, edges)).keys()
