"""The .hg text format: parsing and canonical serialization.

Format:
  - lines starting with '#' are comments, blank lines are ignored
  - first payload line:   ``vertices: t1 t2 ... tn``
  - each later payload line: ``edge: ti tj ...``
  - pair labels serialize as ``(left,right)`` with no interior whitespace,
    nested arbitrarily: ``((a,b),x)``

Serialization is canonical: vertices in label order, edges sorted by
(size, member list), members sorted.  Parsing a serialization yields an
equal hypergraph, and serialize . parse is the identity on canonical text,
as long as no label has more than _MAX_LABEL_PAIRS pairs: serializing
writes labels of any size, parsing refuses deeper ones.

Both directions work on rank triples (order, vertices, edges), the shape
`core._ranked` gives: vertex r is the r-th label in label order, and an
edge is the sorted tuple of its members' ranks, so sorting edges as tuples
(then stably by length) is the canonical edge order.  A label has exactly
one token, so parsing looks each edge token up in the ``vertices:`` line
and serializing formats each label once.  `parse_hg` builds labels for the
library; ``_parse(ranked=True)`` stops at the triple, ordering the tokens
by label_key tuples parsed straight from them, or, on a ``vertices:`` line
with no ``(``, ``)`` or ``,``, which names atoms only, by token order, so
``hgprod product``, ``hgprod fmt`` and ``hgprod iso`` build no label at all.
Edges keep the order they come in, each once, so canonical text and ranked
products reach `_emit` as ascending runs, which its sorts merge in about
linear time.
"""

from __future__ import annotations

__all__ = [
    "HgParseError",
    "parse_hg",
    "parse_label",
    "serialize_hg",
]

from .core import _FORBIDDEN_IN_ATOM, Atom, Hypergraph, Label, Pair, _ranked, format_label

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
    return _parse_label(text, Atom, Pair)


def _parse_label(text: str, atom, pair):
    if text.count("(") > _MAX_LABEL_PAIRS:
        raise ValueError(f"label has more than {_MAX_LABEL_PAIRS} pairs")
    value, pos = _parse_label_at(text, 0, atom, pair)
    if pos != len(text):
        raise ValueError(f"trailing input after label: {_quote(text[pos:])}")
    return value


def _parse_label_at(text: str, pos: int, atom, pair) -> tuple:
    if pos >= len(text):
        raise ValueError("empty label")
    if text[pos] == "(":
        left, pos = _parse_label_at(text, pos + 1, atom, pair)
        if pos >= len(text) or text[pos] != ",":
            raise ValueError(f"expected ',' at offset {pos} in label")
        right, pos = _parse_label_at(text, pos + 1, atom, pair)
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"expected ')' at offset {pos} in label")
        return pair(left, right), pos + 1
    stop = _FORBIDDEN_IN_ATOM.search(text, pos)
    end = stop.start() if stop else len(text)
    if end == pos:
        raise ValueError(f"empty atom at offset {pos} in label")
    return atom(text[pos:end]), end


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
    the edges as sorted rank tuples, each once, in file order."""
    lookup: dict | None = None
    form = _rank_edge if ranked else frozenset
    # The rank path only sorts the vertex tokens, so it builds their label_key.
    makers = (lambda name: (0, name), lambda left, right: (1, left, right)) if ranked else (Atom, Pair)
    edges: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        keyword, _, rest = raw.partition(":")
        keyword = keyword.strip()
        if keyword == "edge" and lookup is not None:  # the commonest line, tested first
            tokens = rest.split()
            if not tokens:
                raise HgParseError("edge with no members", lineno)
            try:
                edges[form(map(lookup.__getitem__, tokens))] = None
            except KeyError as exc:  # map stops at the first undeclared token
                token = exc.args[0]
                _parse_token(token, lineno)  # a malformed token is a bad label
                raise HgParseError(f"unknown vertex {_quote(token)} in edge", lineno) from None
        elif not (line := raw.strip()) or line.startswith("#"):
            continue
        elif keyword == "vertices":
            if lookup is not None:
                raise HgParseError("duplicate vertices line", lineno)
            tokens = rest.split()
            if ranked and "(" not in rest and ")" not in rest and "," not in rest:
                names = sorted(set(tokens))  # atoms only: label_key (0, name) orders as the name
            else:
                lookup = {token: _parse_token(token, lineno, *makers) for token in tokens}
                if ranked:
                    names = sorted(lookup, key=lookup.__getitem__)
            if ranked:
                lookup = {token: r for r, token in enumerate(names)}
        elif keyword == "edge":
            raise HgParseError("edge before vertices line", lineno)
        else:
            raise HgParseError(f"expected 'vertices:' or 'edge:', got {_quote(line)}", lineno)
    if lookup is None:
        raise HgParseError("missing vertices line")
    if ranked:
        return names, range(len(names)), edges
    return Hypergraph(frozenset(lookup.values()), frozenset(edges))


def _parse_token(token: str, lineno: int, atom=Atom, pair=Pair):
    if "(" not in token and ")" not in token and "," not in token:
        return atom(token)  # split() tokens are non-empty and free of whitespace
    try:
        return _parse_label(token, atom, pair)
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
    """Canonical .hg serialization (sorted vertices, edges and members).
    Edge members outside the vertex set are ranked too, so an unvalidated
    hypergraph still serializes, in edge_key order."""
    order, vertices, edges = _ranked(hg)
    return _emit([format_label(v) for v in order], vertices, edges)
