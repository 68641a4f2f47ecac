"""Isomorphism testing and relabeling along a vertex bijection.

The decision runs on rank triples (order, vertices, edges), the shape
`core._ranked` and ``hgio._parse(ranked=True)`` give, so ``hgprod iso``
decides straight from the text and builds no label.  It screens vertex and
edge counts and the sorted per-vertex incident edge-size multisets, then
runs individualise-and-refine (McKay & Piperno, "Practical graph
isomorphism II", 2014): colour refinement on the vertex-edge incidence
structure of both hypergraphs at once, individualising the first vertex of
the first non-singleton cell of the first against each vertex of its colour
in the second.  A colour is the start index of its cell in the ordered
partition.  A refinement round recomputes signatures only for vertices
sharing an edge with a non-largest piece of a cell that split the round
before, and a child starts from its parent's equitable colouring at the
edges of the individualised pair.  A cell holding unequal numbers of
vertices of the two hypergraphs refutes a branch; a discrete leaf is
verified edge by edge, so every witness is a checked bijection.  Instances
beyond a vertex bound are refused unsearched.  The witness maps the names
the two triples carry, first to second in rank order: labels for
are_isomorphic, which screens the counts before it ranks, and tokens for
``hgprod iso``.

Also here: the regrouping map (x,(y,z)) <-> ((x,y),z) between the two
groupings of a triple product, and the coordinate swap (x,y) -> (y,x) used
by commutativity audits.  Both act structurally on labels.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .core import Hypergraph, Label, Pair, _ranked, format_label


class IsoBoundError(ValueError):
    """Instance too large for the search bound."""


# The fields alone: typing.NamedTuple refuses a __new__ in its own body.
class _IsoResultFields(NamedTuple):
    isomorphic: bool
    witness: dict | None
    nodes_explored: int


class IsoResult(_IsoResultFields):
    """The verdict, a witness mapping exactly when isomorphic, and the number
    of individualisations the search tried (0 when a screen or the first
    colour refinement decided)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        result = super().__new__(cls, *args, **kwargs)
        if result.isomorphic != (result.witness is not None):
            raise ValueError("witness must be present exactly when isomorphic")
        return result

    @classmethod
    def _make(cls, values):  # _replace builds through it: check there too
        return cls(*values)


def apply_mapping(hg: Hypergraph, phi: dict) -> Hypergraph:
    """Relabel a hypergraph along a vertex bijection."""
    if not hg.vertices <= phi.keys():
        raise ValueError("mapping not total on the vertex set")
    if len({phi[v] for v in hg.vertices}) != len(hg.vertices):
        raise ValueError("mapping is not injective on the vertex set")
    return Hypergraph(
        frozenset(phi[v] for v in hg.vertices),
        frozenset(frozenset(phi[v] for v in e) for e in hg.edges),
    )


def regroup_right_to_left(v: Label) -> Label:
    """(x,(y,z)) -> ((x,y),z); raises on any other nesting shape."""
    if not isinstance(v, Pair) or not isinstance(v.right, Pair):
        raise ValueError(f"label {format_label(v)} does not have shape (x,(y,z))")
    return Pair(Pair(v.left, v.right.left), v.right.right)


def swap_map(v: Label) -> Label:
    """(l,r) -> (r,l); raises on atoms."""
    if not isinstance(v, Pair):
        raise ValueError(f"label {format_label(v)} is not a pair")
    return Pair(v.right, v.left)


def are_isomorphic(h1: Hypergraph, h2: Hypergraph, max_vertices: int = 12) -> IsoResult:
    """Decide whether two hypergraphs are isomorphic.

    Count and edge-size screens first; only when they agree does the
    refinement search run.  Raises IsoBoundError when a search would be
    needed on more than max_vertices vertices, and ValueError when the
    counts agree but an edge has a member outside its vertex set.
    """
    if len(h1.vertices) != len(h2.vertices) or len(h1.edges) != len(h2.edges):
        return IsoResult(False, None, 0)  # before ranking: a mismatch costs no sort
    return _isomorphic(_ranked(h1), _ranked(h2), max_vertices)


def _isomorphic(f1: tuple, f2: tuple, max_vertices: int) -> IsoResult:
    """are_isomorphic on two rank triples of the shape `core._ranked` gives;
    the witness maps the names the triples carry, order1[v] -> order2[w],
    in rank order."""
    (order1, vertices1, edges1), (order2, vertices2, edges2) = f1, f2
    n = len(vertices1)
    if n != len(vertices2) or len(edges1) != len(edges2):
        return IsoResult(False, None, 0)
    if len(order1) != n or len(order2) != n:  # _ranked ranks stray edge members too
        raise ValueError("an edge has a member outside the vertex set")
    # One disjoint union: the first's vertices are 0..n-1 and the second's
    # are n..2n-1, each side in rank order, so both share every colour table.
    edges = [*edges1, *(tuple(map(n.__add__, e)) for e in edges2)]
    incident: list = [[] for _ in range(2 * n)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    # The size screen: each vertex's incident edge sizes, degrees refined by size.
    sizes = [sorted(len(edges[i]) for i in inc) for inc in incident]
    if sorted(sizes[:n]) != sorted(sizes[n:]):
        return IsoResult(False, None, 0)
    if n > max_vertices:
        raise IsoBoundError(f"{n} vertices exceeds the search bound of {max_vertices}")
    targets = {frozenset(e) for e in edges[len(edges1):]}
    around = [set().union(*map(edges.__getitem__, inc)) for inc in incident]  # edge-mates
    nodes = 0

    def refine(colour: list, cells: dict, touched: set) -> bool:
        # Synchronous rounds: a vertex's next colour is its colour and the
        # multiset of the colour multisets of its edges.  A colour is the start
        # index of its cell in the ordered partition (cells maps it to the
        # members), so a cell that does not split keeps its colour and new
        # cells are ordered by (old colour, signature).  Only touched vertices,
        # which share an edge with a non-largest piece split last round, can
        # see something their cell-mates do not; the untouched rest of a cell
        # all have one signature, computed from one of them.  Refines colour
        # and cells in place; False as soon as a new cell holds unequal numbers
        # of vertices of the two sides.
        while touched:
            by_cell: dict = {}
            for v in touched:
                by_cell.setdefault(colour[v], []).append(v)
            rests = {c: [u for u in cells[c] if u not in touched] for c in by_cell}
            need = [v for c, vs in by_cell.items() for v in vs + rests[c][:1]]
            ids = set().union(*map(incident.__getitem__, need))
            edge_colour = {i: tuple(sorted(map(colour.__getitem__, edges[i]))) for i in ids}
            sig = {v: tuple(sorted(map(edge_colour.__getitem__, incident[v]))) for v in need}
            touched = set()  # every signature is taken: colours may change now
            for c, vs in by_cell.items():
                pieces: dict = {}
                for v in vs:
                    pieces.setdefault(sig[v], []).append(v)
                if rests[c]:
                    pieces.setdefault(sig[rests[c][0]], []).extend(rests[c])
                if len(pieces) == 1:
                    continue
                parts = [pieces[s] for s in sorted(pieces)]
                largest = max(parts, key=len)
                for part in parts:
                    if 2 * sum(map(n.__gt__, part)) != len(part):
                        return False
                    cells[c] = part
                    for v in part:
                        colour[v] = c
                    if part is not largest:
                        touched.update(*map(around.__getitem__, part))
                    c += len(part)
        return True

    def children(colour: list, cells: dict, v: int) -> Iterator[tuple]:
        # Individualise v against each h2 vertex of its colour, one node per
        # try: the pair becomes a cell two below the lowest colour, so ahead
        # of every other, and refinement starts from the parent's equitable
        # colouring at the pair's edges.
        nonlocal nodes
        c, low = colour[v], min(cells) - 2
        for w in range(n, 2 * n):
            if colour[w] == c:
                nodes += 1
                trial, split = list(colour), dict(cells)
                trial[v] = trial[w] = low
                split[low], split[c] = [v, w], [u for u in cells[c] if u != v and u != w]
                if refine(trial, split, around[v] | around[w]):
                    yield trial, split

    root = ([0] * (2 * n), {0: list(range(2 * n))})
    if not refine(*root, set(range(2 * n))):
        return IsoResult(False, None, 0)
    # Depth-first with an explicit stack: a branch can be as deep as there
    # are vertices, beyond the interpreter's recursion limit.
    stack = [iter([root])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        colour, cells = node
        repeated = [c for c, members in cells.items() if len(members) > 2]
        if repeated:  # individualise the first vertex of the first non-singleton cell
            stack.append(children(colour, cells, colour.index(min(repeated))))
            continue
        image = {colour[w]: w for w in range(n, 2 * n)}
        phi = [image[colour[v]] for v in range(n)]
        if all(frozenset(phi[v] for v in e) in targets for e in edges1):
            return IsoResult(True, {order1[v]: order2[w - n] for v, w in enumerate(phi)}, nodes)
    return IsoResult(False, None, nodes)
