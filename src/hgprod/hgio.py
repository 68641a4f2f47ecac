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

Both directions work on ranks: vertex r is the r-th label in label order,
and an edge is the sorted tuple of its members' ranks, so sorting edges
as tuples (then stably by length) is the canonical edge order.  Label work
is done once per distinct vertex, not once per edge membership: a label
has exactly one token, so parsing looks each edge token up in the
``vertices:`` line, and serializing formats each label once.  `_parse` can
stop at ranks and `_emit` writes text from ranks, so ``hgprod fmt`` builds
labels only to order the declared vertices, and ``hgprod product`` builds
none for the product.
"""

from __future__ import annotations

from .core import Atom, Hypergraph, Label, Pair, format_label, label_key

# Error messages quote at most this many characters of a token or line.
_QUOTE_CHARS = 40


class HgParseError(ValueError):
    """Malformed .hg input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# Parsing, label_key, format_label and Pair equality each recurse once per
# nesting level, equality with about three interpreter frames a level.  A
# label of at most this many pairs stays well inside the default recursion
# limit of 1000, also after a few product levels nest it deeper.
_MAX_LABEL_PAIRS = 200


def _quote(text: str) -> str:
    """repr of text, cut to _QUOTE_CHARS characters plus its length when longer."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} chars)"


def parse_label(text: str) -> Label:
    """Parse a single label token (atom or nested pair) of at most
    _MAX_LABEL_PAIRS pairs."""
    if text.count("(") > _MAX_LABEL_PAIRS:
        raise ValueError(f"label has more than {_MAX_LABEL_PAIRS} pairs")
    value, pos = _parse_label_at(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing input after label: {_quote(text[pos:])}")
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
    return _parse(text, ranked=False)


def _rank_edge(ranks) -> tuple:
    return tuple(sorted(set(ranks)))  # a line may repeat a token


def _parse(text: str, ranked: bool):
    """Parse .hg text into a Hypergraph or, when `ranked`, into the
    arguments of `_emit`: the vertex tokens in label order, their ranks and
    the edges as sorted rank tuples."""
    lookup: dict | None = None
    form = _rank_edge if ranked else frozenset
    edges: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(":")
        keyword = keyword.strip()
        if keyword == "vertices":
            if lookup is not None:
                raise HgParseError("duplicate vertices line", lineno)
            lookup = {token: _parse_token(token, lineno) for token in rest.split()}
            if ranked:
                names = sorted(lookup, key=lambda token: label_key(lookup[token]))
                lookup = {token: r for r, token in enumerate(names)}
        elif keyword == "edge":
            if lookup is None:
                raise HgParseError("edge before vertices line", lineno)
            tokens = rest.split()
            if not tokens:
                raise HgParseError("edge with no members", lineno)
            try:
                edges.add(form(map(lookup.__getitem__, tokens)))
            except KeyError as exc:  # map stops at the first undeclared token
                token = exc.args[0]
                _parse_token(token, lineno)  # a malformed token is a bad label
                raise HgParseError(f"unknown vertex {_quote(token)} in edge", lineno) from None
        else:
            raise HgParseError(f"expected 'vertices:' or 'edge:', got {_quote(line)}", lineno)
    if lookup is None:
        raise HgParseError("missing vertices line")
    if ranked:
        return names, range(len(names)), edges
    return Hypergraph(frozenset(lookup.values()), frozenset(edges))


def _parse_token(token: str, lineno: int) -> Label:
    if "(" not in token and ")" not in token and "," not in token:
        return Atom(token)  # split() tokens are non-empty and free of whitespace
    try:
        return parse_label(token)
    except ValueError as exc:
        raise HgParseError(f"bad label {_quote(token)}: {exc}", lineno) from exc


def _emit(names: list[str], vertices, edges) -> str:
    """Canonical .hg text from ranks: ``names[r]`` is the token of rank r,
    `vertices` lists the vertex ranks in ascending order and each edge is a
    sorted tuple of ranks."""
    order = sorted(edges)
    order.sort(key=len)  # stable, so by size and then by members: edge_key order
    token = names.__getitem__
    lines = [" ".join(["vertices:", *map(token, vertices)])]
    lines += ["edge: " + " ".join(map(token, e)) for e in order]
    return "\n".join(lines) + "\n"


def serialize_hg(hg: Hypergraph) -> str:
    """Canonical .hg serialization (sorted vertices, edges and members)."""
    # Edge members outside the vertex set are ranked too, so an unvalidated
    # hypergraph still serializes, in edge_key order.
    order = sorted(hg.vertices.union(*hg.edges), key=label_key)
    rank = {v: r for r, v in enumerate(order)}
    vertices = [r for r, v in enumerate(order) if v in hg.vertices]
    edges = [tuple(sorted(map(rank.__getitem__, e))) for e in hg.edges]
    return _emit([format_label(v) for v in order], vertices, edges)
