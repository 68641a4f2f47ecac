"""Reference products and .hg reading for the output checks.

Written from the product definitions on plain strings, sharing no code
with hgprod, so a change to the library cannot change what it is checked
against.  A factor is (vertices, edges): a list of atom tokens and a list of
edges, each a tuple of tokens.  A product vertex (u, v) is the string
"(u,v)", as the .hg format writes it.
"""

from __future__ import annotations

import itertools
import math


def pair(u: str, v: str) -> str:
    return f"({u},{v})"


def _cartesian(h1, h2) -> set:
    (v1, e1), (v2, e2) = h1, h2
    edges = {frozenset(pair(x, y) for y in f) for x in v1 for f in e2}
    edges |= {frozenset(pair(x, y) for x in e) for e in e1 for y in v2}
    return edges


def _dirmin(h1, h2) -> set:
    # Graphs of injections from the smaller edge into the larger.
    edges = set()
    for e in h1[1]:
        for f in h2[1]:
            if len(e) <= len(f):
                for image in itertools.permutations(f, len(e)):
                    edges.add(frozenset(map(pair, e, image)))
            else:
                for image in itertools.permutations(e, len(f)):
                    edges.add(frozenset(map(pair, image, f)))
    return edges


def _dirmax(h1, h2) -> set:
    # Graphs of surjections from the larger edge onto the smaller.
    edges = set()
    for e in h1[1]:
        for f in h2[1]:
            if len(e) >= len(f):
                for values in itertools.product(f, repeat=len(e)):
                    if len(set(values)) == len(f):
                        edges.add(frozenset(map(pair, e, values)))
            else:
                for values in itertools.product(e, repeat=len(f)):
                    if len(set(values)) == len(e):
                        edges.add(frozenset(map(pair, values, f)))
    return edges


def _dirnon(h1, h2) -> set:
    edges = set()
    for e in h1[1]:
        for f in h2[1]:
            for x in e:
                for y in f:
                    rest = {pair(u, v) for u in e if u != x for v in f if v != y}
                    edges.add(frozenset(rest | {pair(x, y)}))
    return edges


_EDGES = {
    "cartesian": _cartesian,
    "dirmin": _dirmin,
    "dirmax": _dirmax,
    "dirnon": _dirnon,
    "normal": lambda h1, h2: _cartesian(h1, h2) | _dirmin(h1, h2),
    "strong": lambda h1, h2: _cartesian(h1, h2) | _dirmax(h1, h2),
}

KINDS = tuple(_EDGES)


def product(kind: str, h1, h2) -> tuple[frozenset, frozenset]:
    """(vertex set, edge set) of the product, as strings."""
    vertices = frozenset(pair(u, v) for u in h1[0] for v in h2[0])
    return vertices, frozenset(_EDGES[kind](h1, h2))


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


# Edges one pair of factor edges of sizes (s, t) generates.
PER_PAIR = {
    "dirmin": lambda s, t: math.perm(max(s, t), min(s, t)),
    "dirmax": lambda s, t: math.factorial(min(s, t)) * stirling2(max(s, t), min(s, t)),
    "dirnon": lambda s, t: s * t,
}


def closed_form(kind: str, h1, h2) -> int:
    """The README's closed-form edge count for cartesian, dirmax and strong."""
    (v1, e1), (v2, e2) = h1, h2
    cart = len(v1) * len(e2) + len(e1) * len(v2)
    dmax = sum(PER_PAIR["dirmax"](len(e), len(f)) for e in e1 for f in e2)
    return {"cartesian": cart, "dirmax": dmax, "strong": cart + dmax}[kind]


def hg_text(vertices, edges) -> str:
    lines = ["vertices: " + " ".join(vertices)]
    lines += ["edge: " + " ".join(e) for e in edges]
    return "\n".join(lines) + "\n"


def read_hg(text: str, rename=None) -> tuple[frozenset, frozenset]:
    """(vertex set, edge set) of .hg text; tokens pass through `rename`."""
    rename = rename or (lambda t: t)
    vertices = None
    edges = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        tokens = [rename(t) for t in rest.split()]
        if key == "vertices":
            vertices = frozenset(tokens)
        elif key == "edge":
            edges.add(frozenset(tokens))
        else:
            raise ValueError(f"unexpected line {line!r}")
    return vertices, frozenset(edges)
