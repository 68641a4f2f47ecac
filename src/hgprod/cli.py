"""hgprod command line: products, counts, isomorphism, law audits, fuzzing.

Exit codes: 0 when the operation succeeds (and any audited law holds),
1 when an audited law is violated (expected for the non-associative kinds)
or hypergraphs are not isomorphic, 2 on usage or input errors.  Structured
output goes to stdout, diagnostics to stderr.  Identical argv, input files
and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

from .checker import (
    GeneratorConfig,
    InfeasibleError,
    LawReport,
    PreconditionError,
    _text,
    check_associativity,
    check_commutativity,
    check_lemma1,
    counterexample_audit,
    format_fuzz_report,
    format_law_report,
    fuzz_law,
    fuzz_report_dict,
    law_report_dict,
)
from .core import format_edge
from .counting import COUNTABLE_KINDS, closed_form_count, verify_count
from .hgio import _MAX_LABEL_PAIRS, HgParseError, _emit, _parse, parse_hg
from .iso import IsoBoundError, _isomorphic
from .products import ProductKind, ranked_product

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2

_ALL_KINDS = [k.value for k in ProductKind]
_COUNT_KINDS = sorted(k.value for k in COUNTABLE_KINDS)


class InputError(Exception):
    """File or content problem mapped to exit code 2."""


def _read(path: str, parse):
    """`parse` applied to the text of a .hg file; file and parse errors
    become InputError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        return parse(text)
    except HgParseError as exc:
        raise InputError(f"{path}: {exc}") from exc


_parse_ranked = functools.partial(_parse, ranked=True)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{out}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _any_int_digits():
    """Lift the int-to-str digit limit (Python 3.11+) for the block only."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _show(as_json: bool, fields: dict, text=None) -> None:
    """Print a report: its fields as indented JSON, or else its text:
    `text()` when given, the fields as `key: value` lines otherwise."""
    with _any_int_digits():  # a closed form can exceed 4,300 digits
        if as_json:
            print(json.dumps(fields, indent=2))
        else:
            print(text() if text else _text(fields))


def _print_report(report: LawReport, as_json: bool) -> int:
    """Print one law report; the exit code says whether the law held."""
    _show(as_json, law_report_dict(report), lambda: format_law_report(report))
    return EXIT_OK if report.psi_is_isomorphism else EXIT_VIOLATED


def _cmd_product(args) -> int:
    # The rank parse rejects what validate would: undeclared members, empty edges.
    f1, f2 = (_read(path, _parse_ranked) for path in args.factors)
    names = [f"({a},{b})" for a in f1[0] for b in f2[0]]
    # A product token is one pair around a token of each factor (and with
    # no product vertex there is no token).
    pairs = 1 + sum(max(token.count("(") for token in f[0]) for f in (f1, f2)) if names else 0
    if pairs > _MAX_LABEL_PAIRS and not args.flatten:
        raise InputError(
            f"product labels would have {pairs} pairs, more than the {_MAX_LABEL_PAIRS}"
            " a .hg file may hold; --flatten names them v0, v1, ..."
        )
    vertices, edges = ranked_product(ProductKind(args.kind), f1, f2)
    legend = ""
    if args.flatten:
        # Vertex k in rank order is renamed v{k}.  The new names sort as
        # strings (v10 before v2), so rank again in that order.
        legend = "".join(f"# v{k} = {names[r]}\n" for k, r in enumerate(vertices))
        order = sorted(range(len(vertices)), key="v{}".format)
        rerank = {vertices[k]: r for r, k in enumerate(order)}
        names = [f"v{k}" for k in order]
        vertices = range(len(order))
        edges = [tuple(sorted(map(rerank.__getitem__, e))) for e in edges]
    _write(legend + _emit(names, vertices, edges), args.output)
    return EXIT_OK


def _cmd_count(args) -> int:
    # parse_hg rejects an undeclared edge member and an empty edge itself.
    h1, h2 = (_read(path, parse_hg) for path in args.factors)
    kind = ProductKind(args.kind)
    # Only --verify enumerates the product; the closed form alone is cheap.
    report = verify_count(kind, h1, h2) if args.verify else None
    formula = report.formula_count if report else closed_form_count(kind, h1, h2)
    payload = {"kind": kind.value, "formula_count": formula}
    if report:
        payload["enumerated_count"] = report.enumerated_count
        payload["agreement"] = report.agreement
    _show(args.json, payload)
    if report and not report.agreement:
        return EXIT_VIOLATED
    return EXIT_OK


def _cmd_iso(args) -> int:
    if args.max_vertices < 0:
        raise InputError("max-vertices must be non-negative")
    # The rank parse orders tokens as labels, so the witness maps tokens to
    # tokens in that order.
    f1, f2 = (_read(path, _parse_ranked) for path in args.files)
    result = _isomorphic(f1, f2, args.max_vertices)
    verdict = {"isomorphic": result.isomorphic, "nodes_explored": result.nodes_explored}
    maps = "".join(f"\nmap: {v} -> {w}" for v, w in (result.witness or {}).items())
    _show(args.json, verdict | {"witness": result.witness}, lambda: _text(verdict) + maps)
    return EXIT_OK if result.isomorphic else EXIT_VIOLATED


def _cmd_assoc(args) -> int:
    a, b, c = (_read(path, parse_hg) for path in args.factors)
    report = check_associativity(ProductKind(args.kind), a, b, c, full_iso=args.full_iso)
    if args.full_iso and report.exists_isomorphism is None:
        print(
            "note: full isomorphism search skipped (vertex bound exceeded)",
            file=sys.stderr,
        )
    return _print_report(report, args.json)


def _cmd_commut(args) -> int:
    a, b = (_read(path, parse_hg) for path in args.factors)
    report = check_commutativity(ProductKind(args.kind), a, b)
    return _print_report(report, args.json)


def _cmd_lemma1(args) -> int:
    g, h = (_read(path, parse_hg) for path in args.factors)
    try:
        report = check_lemma1(g, h)
    except PreconditionError as exc:
        raise InputError(f"precondition violated: {exc}") from exc
    return _print_report(report, args.json)


def _cmd_counterexample(args) -> int:
    audit = counterexample_audit()
    edge, image = format_edge(audit.witness_edge), format_edge(audit.witness_image)

    def text() -> str:
        laws = "".join(format_law_report(r) + "\n\n" for r in audit.reports)
        return laws + _text({"witness_edge": edge, "witness_image_absent_on_right": image})

    reports = [law_report_dict(r) for r in audit.reports]
    _show(args.json, {"reports": reports, "witness_edge": edge, "witness_image": image}, text)
    return EXIT_VIOLATED


def _cmd_fuzz(args) -> int:
    if args.jobs < 1:
        raise InputError("jobs must be at least 1")
    law = {"assoc": "associativity", "commut": "commutativity"}[args.law]
    size_min = max(args.edge_size_min, 2) if args.simple else args.edge_size_min
    vertex_min = max(size_min, 1)  # every factor must fit its smallest edge
    if size_min > args.max_vertices:
        raise InputError("edge-size-min exceeds max-vertices")
    if args.edge_size_max < size_min:
        raise InputError("empty edge size range")
    if args.trials < 0:
        raise InputError("trials must be non-negative")
    try:
        cfg = GeneratorConfig(
            seed=args.seed,
            vertex_count=(vertex_min, args.max_vertices),
            edge_count=(1, args.max_edges),
            edge_size=(size_min, args.edge_size_max),
            require_simple=args.simple,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        report = fuzz_law(ProductKind(args.kind), law, cfg, args.trials, jobs=args.jobs)
    except InfeasibleError as exc:
        raise InputError(str(exc)) from exc
    _show(args.json, fuzz_report_dict(report), lambda: format_fuzz_report(report))
    return EXIT_OK if report.failure_count == 0 else EXIT_VIOLATED


def _cmd_fmt(args) -> int:
    # Parsed edges are subsets of the declared vertices, so there is nothing
    # to validate.
    sys.stdout.write(_emit(*_read(args.file, _parse_ranked)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="hgprod",
        description="Hypergraph products, exact counts, isomorphism and law audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="compute a product of two .hg files")
    p.add_argument("--kind", required=True, choices=_ALL_KINDS)
    p.add_argument("factors", nargs=2, metavar=("A.hg", "B.hg"))
    p.add_argument("-o", "--output", default=None, metavar="OUT.hg")
    p.add_argument("--flatten", action="store_true", help="rename vertices v0..vn with a legend")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("count", help="closed-form edge count, optionally verified")
    p.add_argument("--kind", required=True, choices=_COUNT_KINDS)
    p.add_argument("factors", nargs=2, metavar=("A.hg", "B.hg"))
    p.add_argument("--verify", action="store_true", help="also enumerate and compare")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("iso", help="isomorphism test with witness")
    p.add_argument("files", nargs=2, metavar=("A.hg", "B.hg"))
    p.add_argument("--max-vertices", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("assoc", help="associativity audit of a product kind")
    p.add_argument("--kind", required=True, choices=_ALL_KINDS)
    p.add_argument("factors", nargs=3, metavar=("A.hg", "B.hg", "C.hg"))
    p.add_argument("--full-iso", action="store_true", help="also run the full isomorphism search")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_assoc)

    p = sub.add_parser("commut", help="commutativity audit of a product kind")
    p.add_argument("--kind", required=True, choices=_ALL_KINDS)
    p.add_argument("factors", nargs=2, metavar=("A.hg", "B.hg"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_commut)

    p = sub.add_parser("lemma1", help="dirmax vs dirnon edge-set equality audit")
    p.add_argument("factors", nargs=2, metavar=("G.hg", "H.hg"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lemma1)

    p = sub.add_parser("counterexample", help="reproduce the built-in non-associativity instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("fuzz", help="seeded random law audits")
    p.add_argument("--kind", required=True, choices=_ALL_KINDS)
    p.add_argument("--law", required=True, choices=["assoc", "commut"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-edges", type=int, default=3)
    p.add_argument("--edge-size-min", type=int, default=1)
    p.add_argument("--edge-size-max", type=int, default=3)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("fmt", help="canonicalize a .hg file to stdout")
    p.add_argument("file", metavar="FILE.hg")
    p.set_defaults(func=_cmd_fmt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, IsoBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
