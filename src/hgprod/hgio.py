"""The .hg text format: parsing and canonical serialization.

Format:
  - lines starting with '#' are comments, blank lines are ignored
  - first payload line:   ``vertices: t1 t2 ... tn``
  - each later payload line: ``edge: ti tj ...``
  - pair labels serialize as ``(left,right)`` with no interior whitespace,
    nested arbitrarily: ``((a,b),x)``

Serialization is canonical: vertices in label order, edges sorted by
(size, member list), members sorted.  Parsing a serialization yields an
equal hypergraph, and serialize . parse is the identity on canonical text.

Label work is done once per distinct vertex, not once per edge membership.
A label has exactly one token, so parsing looks each edge token up in the
labels of the ``vertices:`` line; serializing sorts the labels once and
orders members and edges by vertex rank, which is the label order.
"""

from __future__ import annotations

from .core import Atom, Hypergraph, Label, Pair, format_label, label_key


class HgParseError(ValueError):
    """Malformed .hg input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_label(text: str) -> Label:
    """Parse a single label token (atom or nested pair)."""
    value, pos = _parse_label_at(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing input after label: {text[pos:]!r}")
    return value


def _parse_label_at(text: str, pos: int) -> tuple[Label, int]:
    if pos >= len(text):
        raise ValueError("empty label")
    if text[pos] == "(":
        left, pos = _parse_label_at(text, pos + 1)
        if pos >= len(text) or text[pos] != ",":
            raise ValueError(f"expected ',' at offset {pos} in label")
        right, pos = _parse_label_at(text, pos + 1)
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"expected ')' at offset {pos} in label")
        return Pair(left, right), pos + 1
    end = pos
    while end < len(text) and text[end] not in ",()" and not text[end].isspace():
        end += 1
    if end == pos:
        raise ValueError(f"empty atom at offset {pos} in label")
    return Atom(text[pos:end]), end


def parse_hg(text: str) -> Hypergraph:
    """Parse .hg text into a hypergraph.

    Raises HgParseError with a line number on malformed lines, and names the
    offending token when an edge uses an undeclared vertex.
    """
    vertices: dict | None = None
    edges: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(":")
        keyword = keyword.strip()
        if keyword == "vertices":
            if vertices is not None:
                raise HgParseError("duplicate vertices line", lineno)
            vertices = {token: _parse_token(token, lineno) for token in rest.split()}
        elif keyword == "edge":
            if vertices is None:
                raise HgParseError("edge before vertices line", lineno)
            members = set()
            for token in rest.split():
                label = vertices.get(token)
                if label is None:
                    _parse_token(token, lineno)  # a malformed token is a bad label
                    raise HgParseError(f"unknown vertex {token!r} in edge", lineno)
                members.add(label)
            if not members:
                raise HgParseError("edge with no members", lineno)
            edges.add(frozenset(members))
        else:
            raise HgParseError(f"expected 'vertices:' or 'edge:', got {line!r}", lineno)
    if vertices is None:
        raise HgParseError("missing vertices line")
    return Hypergraph(frozenset(vertices.values()), frozenset(edges))


def _parse_token(token: str, lineno: int) -> Label:
    if "(" not in token and ")" not in token and "," not in token:
        return Atom(token)  # split() tokens are non-empty and free of whitespace
    try:
        return parse_label(token)
    except ValueError as exc:
        raise HgParseError(f"bad label {token!r}: {exc}", lineno) from exc


def serialize_hg(hg: Hypergraph) -> str:
    """Canonical .hg serialization (sorted vertices, edges and members)."""
    # Edge members outside the vertex set are ranked too, so an unvalidated
    # hypergraph still serializes, in edge_key order.
    order = sorted(hg.vertices.union(*hg.edges), key=label_key)
    rank = {v: i for i, v in enumerate(order)}
    names = [format_label(v) for v in order]
    vertex_part = " ".join(name for v, name in zip(order, names) if v in hg.vertices)
    lines = [f"vertices: {vertex_part}".rstrip()]
    for _, ranks in sorted((len(e), sorted(map(rank.__getitem__, e))) for e in hg.edges):
        lines.append("edge: " + " ".join(map(names.__getitem__, ranks)))
    return "\n".join(lines) + "\n"
