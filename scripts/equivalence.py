#!/usr/bin/env python3
"""Print a corpus of library and CLI results, one stable line per result.

A refactor that claims to change no behaviour runs this against the old
and the new source tree and compares the outputs:

    PYTHONPATH=old/src python scripts/equivalence.py --seed 1 > old.txt
    PYTHONPATH=src python scripts/equivalence.py --seed 1 > new.txt
    diff old.txt new.txt

Every line is text built from a result's fields (JSON of plain values),
never a repr or a pickle, and holds no path, time or address, so two runs
on equal trees agree byte for byte under any PYTHONHASHSEED.  The corpus:

  assoc    check_associativity, all six kinds, on every 7th triple of the
           hypergraphs with at most 3 vertices and 2 edges, with and
           without full_iso (the seed picks the first triple)
  commut   check_commutativity, all six kinds, on all ordered pairs of
           that family
  lemma1   check_lemma1(enforce_preconditions=False) on the same pairs
  random   random triples with nested labels, unvalidated factors and empty
           edges: every audit, every product (serialized), closed-form
           counts against enumeration, rank, simplicity and validation
  iso      are_isomorphic with its verdict, node count and witness in label
           order: random pairs, relabelled copies, cycles against
           relabelled cycles and against two half cycles, bound refusals
  text     serialize_hg and the parse_hg round trip
  pairs    edge_pair_product for the three direct kinds and every edge-size
           pair up to 4
  cli      in-process `hgprod` runs of every command, in text and --json,
           on messy files (comments, padding, repeated tokens, nested
           labels) and on malformed ones giving each parse error; fuzz at
           --jobs 1 and 2; argument errors, a file short, and every
           command's --help.  Among them: `product -o` of a 4-member edge
           by a 7-member edge and a singleton, strong and dirmax (over 8,000
           edges each), then `fmt` of the file; iso of a 24-cycle against
           two 12-cycles at --max-vertices 24, and pairs the degree screen
           refutes before the bound; dirmax assoc of (h, g, g), whose
           witness comes from the right side.  Each line holds the argv, the
           exit code, stdout and stderr.

The script builds its inputs with its own generators.  --quick prints a
slice of every section in a few seconds, with every cli case but some fuzz
runs.

CI's hash-seed step lists no command of its own: it runs this script under
PYTHONHASHSEED 0 and 1 and fails on a difference or on a cli line whose
exit is an exception record, and tier-1 runs the --quick slice the same way
(tests/test_scripts.py).  A new CLI case goes in _cli_runs.

Usage:
    python scripts/equivalence.py --seed 1
    python scripts/equivalence.py --seed 1 --quick
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import tempfile

from hgprod import (
    DIRECT_KINDS,
    Atom,
    Pair,
    ProductKind,
    are_isomorphic,
    check_associativity,
    check_commutativity,
    check_lemma1,
    edge_key,
    edge_pair_product,
    format_edge,
    format_label,
    hypergraph,
    is_simple,
    label_key,
    law_report_dict,
    parse_hg,
    product,
    rank,
    serialize_hg,
    validate,
)
from hgprod.cli import main as cli_main
from hgprod.counting import COUNTABLE_KINDS, verify_count

KINDS = list(ProductKind)


def _line(*head, **fields) -> str:
    return " ".join(map(str, head)) + " " + json.dumps(fields, separators=(",", ":"))


def _error(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _report(report) -> dict:
    return law_report_dict(report) | {"factors": [str(s) for s in report.factor_summaries]}


def _family(max_vertices: int, max_edges: int) -> list:
    """Every hypergraph on vertices f0, f1, ... with at most the given
    vertex and edge counts."""
    out = []
    for n in range(max_vertices + 1):
        vertices = [Atom(f"f{i}") for i in range(n)]
        pool = [c for s in range(1, n + 1) for c in itertools.combinations(vertices, s)]
        for m in range(max_edges + 1):
            out += [hypergraph(vertices, edges) for edges in itertools.combinations(pool, m)]
    return out


def _labels() -> list:
    a, b, c, d = (Atom(t) for t in "abcd")
    return [a, b, c, d, Pair(a, b), Pair(Pair(c, d), a), Pair(b, Pair(a, Pair(c, d)))]


def _messy(rng: random.Random, pool: list):
    """0-4 vertices from the pool and 0-3 edges; an edge may be empty or
    hold a member that is no vertex."""
    vertices = rng.sample(pool, rng.randint(0, 4))
    edges = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.05 or not vertices:
            edges.append([])
        elif roll < 0.2:  # the second member may lie outside the vertex set
            edges.append([rng.choice(vertices), rng.choice(pool)])
        else:
            edges.append(rng.sample(vertices, rng.randint(1, min(4, len(vertices)))))
    return hypergraph(vertices, edges)


def _relabelled(rng: random.Random, hg, prefix: str):
    order = sorted(hg.vertices, key=label_key)
    images = [Atom(f"{prefix}{i}") for i in range(len(order))]
    rng.shuffle(images)
    phi = dict(zip(order, images))
    return hypergraph(phi.values(), [[phi[v] for v in e] for e in hg.edges])


def _cycle(names: list) -> list:
    return [[names[i], names[(i + 1) % len(names)]] for i in range(len(names))]


def _iso(hg1, hg2, max_vertices: int = 12) -> dict:
    try:
        result = are_isomorphic(hg1, hg2, max_vertices)
    except ValueError as exc:
        return _error(exc)
    witness = None
    if result.witness is not None:
        items = sorted(result.witness.items(), key=lambda item: label_key(item[0]))
        witness = [[format_label(v), format_label(w)] for v, w in items]
    return {"isomorphic": result.isomorphic, "nodes_explored": result.nodes_explored,
            "witness": witness}


def family_sections(seed: int, quick: bool):
    family = _family(3, 2)
    size = len(family)
    stride = 7 * 97 if quick else 7
    for t in range(seed % 7, size ** 3, stride):
        i, j, k = t // (size * size), t // size % size, t % size
        for kind in KINDS:
            for full_iso in (False, True):
                report = check_associativity(kind, family[i], family[j], family[k], full_iso=full_iso)
                yield _line("assoc", kind.value, i, j, k, int(full_iso), **_report(report))
    pairs = list(itertools.product(range(size), repeat=2))
    if quick:
        pairs = pairs[seed % 13::13]
    for i, j in pairs:
        for kind in KINDS:
            yield _line("commut", kind.value, i, j, **_report(check_commutativity(kind, family[i], family[j])))
        report = check_lemma1(family[i], family[j], enforce_preconditions=False)
        yield _line("lemma1", i, j, **_report(report))
    for i, hg in enumerate(family[::1 + 12 * quick]):
        text = serialize_hg(hg)
        yield _line("text", "family", i, text=text, same=parse_hg(text) == hg)


def random_sections(seed: int, quick: bool):
    rng = random.Random(seed)
    pool = _labels()
    for t in range(20 if quick else 300):
        a, b, c = (_messy(rng, pool) for _ in range(3))
        yield _line("random", t, "factors", factors=[serialize_hg(h) for h in (a, b, c)],
                    validate=[validate(h) for h in (a, b, c)], rank=[rank(h) for h in (a, b, c)],
                    simple=[is_simple(h) for h in (a, b, c)])
        for kind in KINDS:
            yield _line("random", t, "product", kind.value, text=serialize_hg(product(kind, a, b)))
            for full_iso in (False, True):
                report = check_associativity(kind, a, b, c, full_iso=full_iso)
                yield _line("random", t, "assoc", kind.value, int(full_iso), **_report(report))
            yield _line("random", t, "commut", kind.value, **_report(check_commutativity(kind, a, b)))
            if kind in COUNTABLE_KINDS:
                count = verify_count(kind, a, b)
                yield _line("random", t, "count", kind.value, formula=count.formula_count,
                            enumerated=count.enumerated_count)
        for enforce in (False, True):
            try:
                fields = _report(check_lemma1(a, b, enforce_preconditions=enforce))
            except ValueError as exc:
                fields = _error(exc)
            yield _line("random", t, "lemma1", int(enforce), **fields)
        yield _line("iso", "random", t, **_iso(a, b))
        yield _line("iso", "random", t, "self", **_iso(a, a))
        if validate(a) is None:
            copy = _relabelled(rng, a, "r")
            yield _line("iso", "random", t, "relabelled", **_iso(a, copy))
            text = serialize_hg(a)
            yield _line("text", "random", t, text=text, same=parse_hg(text) == a)
    for n in range(4, 9 if quick else 15, 2):
        names = [Atom(f"u{i}") for i in range(n)]
        cycle = hypergraph(names, _cycle(names))
        halves = hypergraph(names, _cycle(names[: n // 2]) + _cycle(names[n // 2:]))
        for name, other in (("relabelled", _relabelled(rng, cycle, "w")), ("halves", halves)):
            yield _line("iso", "cycle", n, name, **_iso(cycle, other, max_vertices=n))
            yield _line("iso", "cycle", n, name, "bound", **_iso(cycle, other, max_vertices=n - 1))


def pair_sections(seed: int, quick: bool):
    pool = _labels()
    for a, b in itertools.product(range(1, 5), repeat=2):
        e1, e2 = frozenset(pool[-a:]), frozenset(Atom(f"x{j}") for j in range(b))
        for kind in sorted(DIRECT_KINDS):
            edges = sorted(edge_pair_product(e1, e2, kind), key=edge_key)
            yield _line("pairs", kind.value, a, b, edges=[format_edge(e) for e in edges])


def _graph_text(names: list, edges: list) -> str:
    return f"vertices: {' '.join(names)}\n" + "".join(f"edge: {a} {b}\n" for a, b in edges)


_U, _W = [f"u{i}" for i in range(1, 7)], [f"w{i}" for i in range(1, 25)]

_VALID = {
    "g.hg": "vertices: a b\nedge: a b\n",
    "h.hg": "vertices: x y z\nedge: x y z\n",
    "e4.hg": "vertices: a1 a2 a3 a4\nedge: a1 a2 a3 a4\n",
    "e7.hg": "vertices: b1 b2 b3 b4 b5 b6 b7 c\nedge: b1 b2 b3 b4 b5 b6 b7\nedge: c\n",
    "messy.hg": "# a comment\n\n   vertices:   b  a (c,d)  b  \t\n  edge: a   b a\n"
                "# another\nedge: (c,d) a\n\n  edge:b\nedge: b a\n",
    "nested.hg": "vertices: (a,(b,c)) ((d,e),f) g (h,h)\nedge: (a,(b,c)) g\n"
                 "edge: ((d,e),f)\nedge: g (h,h) ((d,e),f)\n",
    "path.hg": "vertices: p q r\nedge: p q\nedge: q r\n",
    "c6.hg": _graph_text(_U, _cycle(_U)),
    "c6copy.hg": "vertices: p (q,r) s (t,(u,v)) w x\nedge: p s\nedge: s x\nedge: x (q,r)\n"
                 "edge: (q,r) w\nedge: w (t,(u,v))\nedge: (t,(u,v)) p\n",
    "two3.hg": _graph_text(_U, _cycle(_U[:3]) + _cycle(_U[3:])),
    "deg3.hg": _graph_text(_U, _cycle(_U[:3]) + [["u1", "u4"], ["u4", "u5"], ["u5", "u6"]]),
    "c24.hg": _graph_text(_W, _cycle(_W)),
    "two12.hg": _graph_text(_W, _cycle(_W[:12]) + _cycle(_W[12:])),
    "moved24.hg": _graph_text(_W, _cycle(_W)[:-1] + [["w24", "w12"]]),
    "empty.hg": "vertices:\n",
}

_MALFORMED = {
    "no_members.hg": "vertices: a b\nedge:\n",
    "unknown.hg": "vertices: a b\nedge: a q\n",
    "bad_edge_label.hg": "vertices: a b\nedge: a (b\n",
    "duplicate.hg": "vertices: a\nvertices: b\n",
    "edge_first.hg": "edge: a b\nvertices: a b\n",
    "keyword.hg": "vertices: a\nnodes: a\n",
    "long_keyword.hg": "vertices: a\n" + "n" * 60 + "\n",
    "comment_only.hg": "# only a comment\n\n",
    "blank.hg": "",
    "open.hg": "vertices: (a,b\n",
    "comma.hg": "vertices: (a b)\n",
    "empty_atom.hg": "vertices: (,a)\n",
    "unit.hg": "vertices: ()\n",
    "trailing.hg": "vertices: (a,b)c\n",
    "deep.hg": "vertices: " + "(" * 201 + "a" + ",b)" * 201 + "\n",
    "long_token.hg": "vertices: a\nedge: a " + "t" * 60 + "\n",
}


def _cli(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
        except Exception as exc:  # a traceback: recorded, and the hash-seed checks fail on it
            code = _error(exc)
    return _line("cli", *argv, exit=code, stdout=out.getvalue(), stderr=err.getvalue())


def _cli_runs(seed: int, quick: bool):
    kinds = [k.value for k in KINDS]
    for a, b in [("g.hg", "h.hg"), ("messy.hg", "nested.hg"), ("nested.hg", "path.hg"),
                 ("e4.hg", "e7.hg"), ("empty.hg", "g.hg")]:
        for kind in kinds:
            yield ["product", "--kind", kind, a, b]
        yield ["product", "--kind", "strong", "--flatten", a, b]
        for kind in ("cartesian", "dirmax", "strong"):
            yield ["count", "--kind", kind, a, b]
            yield ["count", "--kind", kind, a, b, "--verify", "--json"]
            yield ["count", "--kind", kind, a, b, "--verify"]
        yield ["commut", "--kind", "dirnon", a, b]
        yield ["commut", "--kind", "dirnon", "--json", a, b]
        yield ["lemma1", a, b]
        yield ["lemma1", a, b, "--json"]
    for kind, a, b in (("dirmax", "g.hg", "h.hg"), ("strong", "e4.hg", "e7.hg"), ("dirmax", "e4.hg", "e7.hg")):
        yield ["product", "--kind", kind, a, b, "-o", "out.hg"]
        yield ["fmt", "out.hg"]
    yield ["product", "--kind", "dirmax", "g.hg", "h.hg", "-o", "missing/out.hg"]
    for name in _VALID:
        yield ["fmt", name]
    for a, b in [("c6.hg", "c6copy.hg"), ("c6.hg", "two3.hg"), ("messy.hg", "messy.hg"),
                 ("nested.hg", "nested.hg"), ("g.hg", "h.hg"), ("empty.hg", "empty.hg"),
                 ("c6.hg", "deg3.hg"), ("c24.hg", "moved24.hg")]:
        yield ["iso", a, b]
        yield ["iso", a, b, "--json"]
        yield ["iso", a, b, "--max-vertices", "3"]
    yield ["iso", "--max-vertices", "24", "c24.hg", "two12.hg"]
    yield ["iso", "--max-vertices", "24", "--json", "c24.hg", "two12.hg"]
    yield ["iso", "c6.hg", "c6.hg", "--max-vertices", "-1"]
    for kind in kinds:
        yield ["assoc", "--kind", kind, "g.hg", "g.hg", "h.hg", "--full-iso"]
        yield ["assoc", "--kind", kind, "g.hg", "g.hg", "h.hg", "--full-iso", "--json"]
        yield ["assoc", "--kind", kind, "messy.hg", "path.hg", "nested.hg"]
        yield ["assoc", "--kind", kind, "path.hg", "path.hg", "path.hg", "--full-iso"]
        yield ["commut", "--kind", kind, "path.hg", "h.hg", "--json"]
    yield ["assoc", "--kind", "dirmax", "h.hg", "g.hg", "g.hg"]
    yield ["assoc", "--kind", "dirmax", "--json", "h.hg", "g.hg", "g.hg"]
    yield ["counterexample"]
    yield ["counterexample", "--json"]
    trials = "30" if quick else "150"
    for kind, law in itertools.product(kinds, ("assoc", "commut")):
        for flags in ([], ["--json"]):
            yield ["fuzz", "--kind", kind, "--law", law, "--seed", str(seed), "--trials", trials, *flags]
    for kind in ("dirmax", "strong") if quick else kinds:
        for flags in ([], ["--json"]):
            yield ["fuzz", "--kind", kind, "--law", "assoc", "--seed", str(seed), "--trials", trials,
                   "--jobs", "2", *flags]
    for flags in (["--simple", "--edge-size-max", "3"], ["--max-vertices", "3", "--edge-size-min", "2"],
                  ["--jobs", "0"], ["--trials", "-1"], ["--edge-size-min", "5"],
                  ["--edge-size-min", "3", "--edge-size-max", "2"], ["--simple", "--max-vertices", "1"]):
        yield ["fuzz", "--kind", "strong", "--law", "assoc", "--seed", str(seed), "--trials", "20", *flags]
    for name in [*_MALFORMED, "missing.hg", "binary.hg", "folder"]:
        yield ["fmt", name]
        yield ["iso", name, "g.hg"]
        yield ["product", "--kind", "dirmax", "g.hg", name]
        yield ["count", "--kind", "dirmax", name, "g.hg"]
        yield ["assoc", "--kind", "dirmax", "g.hg", name, "g.hg"]
    yield ["product", "--kind", "nokind", "g.hg", "h.hg"]
    yield ["count", "--kind", "dirmin", "g.hg", "h.hg"]
    yield ["iso", "g.hg"]
    yield ["lemma1", "g.hg", "g.hg", "--json"]
    for command in ("product", "count", "iso", "assoc", "commut", "lemma1", "counterexample", "fuzz", "fmt"):
        yield [command, "--help"]
    for argv in (["product", "--kind", "dirmax"], ["count", "--kind", "dirmax"], ["iso"],
                 ["assoc", "--kind", "dirmax", "h.hg"], ["commut", "--kind", "dirmax"], ["lemma1"]):
        yield [*argv, "h.hg"]  # one file short


def cli_sections(seed: int, quick: bool):
    cwd = os.getcwd()
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the runs name files relative to it, so no path reaches the output
        try:
            for name, text in {**_VALID, **_MALFORMED}.items():
                with open(name, "w", encoding="utf-8") as f:
                    f.write(text)
            with open("binary.hg", "wb") as f:
                f.write(b"vertices: a\xff b\n")
            os.mkdir("folder")
            for argv in _cli_runs(seed, quick):
                yield _cli(argv)
                if "-o" in argv and os.path.exists(argv[-1]):
                    with open(argv[-1], encoding="utf-8") as f:
                        yield _line("cli", "output", argv[-1], text=f.read())
        finally:
            os.chdir(cwd)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true", help="a slice of every section, in seconds")
    args = parser.parse_args()
    for section in (family_sections, random_sections, pair_sections, cli_sections):
        for line in section(args.seed, args.quick):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
