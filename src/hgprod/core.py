"""Finite hypergraphs: vertex labels, edges, validation, rank, simplicity.

A hypergraph is a finite vertex set together with a set of non-empty vertex
subsets (the edges).  Vertex labels are either atoms or ordered pairs of
labels; product constructions nest pairs, so labels form binary trees and a
regrouping map can act on them structurally.

All values are immutable and hashable.  Edge sets have set semantics: two
edges with identical member sets are one edge, and hypergraph equality
ignores any presentation order of the vertices.

A label computes its hash once, at construction, as the value a generated
dataclass hash would give (``hash((name,))``, ``hash((left, right))``), so
set layouts do not change; equality stays structural.  Labels keep their
fields and the hash in ``__slots__``, with no instance dict, so storing the
hash does not make a label larger.  Pickling and copying rebuild a label
from its fields, so a hash never crosses into a process with another
string-hash seed.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

# Characters that would make atom tokens ambiguous in the text format: a
# comma, a paren, or any character str.isspace() is true of, since the
# .hg reader's str.split() and str.splitlines() break at those.  In a str
# pattern, \s matches exactly those.
_FORBIDDEN_IN_ATOM = re.compile(r"[\s,()]")


@dataclass(frozen=True)
class Atom:
    """A leaf vertex label: a non-empty token with no whitespace, comma or parens."""

    __slots__ = ("name", "_hash")
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("atom token must be non-empty")
        if _FORBIDDEN_IN_ATOM.search(self.name):
            raise ValueError(f"atom token {self.name!r} contains forbidden character")
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.name,))

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class Pair:
    """An ordered pair of labels; the vertex type of a two-factor product."""

    __slots__ = ("left", "right", "_hash")
    left: Label
    right: Label

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.left, self.right))

    def __repr__(self) -> str:
        return f"Pair({self.left!r}, {self.right!r})"


Label = Union[Atom, Pair]

# An edge is a frozenset of labels.
Edge = frozenset


def label_key(v: Label):
    """Sort key realizing the label order: atoms by token, atom < pair,
    pairs lexicographically by (left, right)."""
    if isinstance(v, Atom):
        return (0, v.name)
    return (1, label_key(v.left), label_key(v.right))


def format_label(v: Label) -> str:
    """Render a label in the text form used by the .hg format: atoms verbatim,
    pairs as ``(left,right)`` with no interior whitespace."""
    if isinstance(v, Atom):
        return v.name
    return f"({format_label(v.left)},{format_label(v.right)})"


def edge_key(e: Edge):
    """Sort key for edges: by size, then by the sorted member list."""
    members = sorted(e, key=label_key)
    return (len(e), [label_key(m) for m in members])


def sorted_members(e: Edge) -> list[Label]:
    return sorted(e, key=label_key)


def format_edge(e: Edge) -> str:
    return " ".join(format_label(m) for m in sorted_members(e))


def atoms(names: str) -> list[Atom]:
    """Split a whitespace-separated token string into atom labels."""
    return [Atom(t) for t in names.split()]


class Hypergraph(NamedTuple):
    """A finite hypergraph: a vertex set and a set of edges.

    Construction does not validate; use :func:`validate` to check the subset
    and non-emptiness invariants.  Equality compares the two frozensets, so
    presentation order never matters.
    """

    vertices: frozenset
    edges: frozenset

    def __repr__(self) -> str:
        vs = " ".join(format_label(v) for v in sorted(self.vertices, key=label_key))
        es = "; ".join(format_edge(e) for e in sorted(self.edges, key=edge_key))
        return f"Hypergraph([{vs}], [{es}])"


def hypergraph(vertices: Iterable[Label], edges: Iterable[Iterable[Label]] = ()) -> Hypergraph:
    """Build a hypergraph from label iterables, deduplicating as sets."""
    return Hypergraph(frozenset(vertices), frozenset(frozenset(e) for e in edges))


def from_tokens(vertex_tokens: str, edge_tokens: Iterable[str] = ()) -> Hypergraph:
    """Convenience builder from whitespace-separated atom tokens.

    ``from_tokens("a b c", ["a b", "b c"])`` is the triangle-path on {a,b,c}.
    """
    return hypergraph(atoms(vertex_tokens), [atoms(e) for e in edge_tokens])


def validate(hg: Hypergraph) -> str | None:
    """Check the hypergraph invariants.

    Returns None when every invariant holds, otherwise a message naming the
    first violated invariant and the offending edge.  Deduplication needs no
    check: vertices and edges are stored as frozensets.
    """
    if all(e and e <= hg.vertices for e in hg.edges):
        return None
    for e in sorted(hg.edges, key=edge_key):
        if len(e) == 0:
            return "empty edge"
        if not e.issubset(hg.vertices):
            return f"edge not subset of vertices: {{{format_edge(e)}}}"
    return None


def _ranked(hg: Hypergraph) -> tuple[list, list, list]:
    """(order, vertices, edges): the labels, edge members included, in label
    order, so that rank r stands for order[r]; the vertex ranks, ascending;
    each edge as an ascending tuple of ranks.  ``hgio._parse(text,
    ranked=True)`` gives the same triple, with tokens for labels."""
    order = sorted(hg.vertices.union(*hg.edges), key=label_key)
    rank = {v: r for r, v in enumerate(order)}
    vertices = [r for r, v in enumerate(order) if v in hg.vertices]
    edges = [tuple(sorted(map(rank.__getitem__, e))) for e in hg.edges]
    return order, vertices, edges


def rank(hg: Hypergraph) -> int:
    """Maximum edge cardinality; 0 for an edgeless hypergraph."""
    return max((len(e) for e in hg.edges), default=0)


def is_simple(hg: Hypergraph) -> bool:
    """True iff every edge has >= 2 vertices and no edge contains another."""
    if any(len(e) < 2 for e in hg.edges):
        return False
    for e, f in itertools.permutations(hg.edges, 2):
        if e < f:
            return False
    return True

