#!/usr/bin/env python3
"""Walk through the non-associativity counterexample end to end.

Prints the two factors, the edge counts of all six pairwise products, the
three grouping audits (dirmax, dirnon, strong) on (G, G, H) with their
36/12 and 82/58 splits, and the explicit witness edge.  With --list-edges
the full edge listings of both dirmax groupings are dumped as well.

Usage:
    python scripts/run_counterexample.py
    python scripts/run_counterexample.py --list-edges
"""

import argparse

from hgprod import (
    ProductKind,
    counterexample_audit,
    counterexample_factors,
    dirmax,
    edge_key,
    format_edge,
    format_law_report,
    product,
    serialize_hg,
    summarize,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list-edges", action="store_true",
        help="dump the full edge listings of both dirmax groupings",
    )
    args = parser.parse_args()

    g, h = counterexample_factors()
    print("factors")
    for name, hg in [("G", g), ("H", h)]:
        body = serialize_hg(hg).strip().replace("\n", "  |  ")
        print(f"  {name}: {body}   ({summarize(hg)})")
    print()

    print("pairwise products of (G, H)")
    for kind in ProductKind:
        p = product(kind, g, h)
        print(f"  {kind.value:<10} {len(p.edges):>3} edges")
    print()

    audit = counterexample_audit()
    print("grouping audits on (G, G, H): left = A*(B*C), right = (A*B)*C")
    for report in audit.reports:
        for line in format_law_report(report).splitlines():
            print(f"  {line}")
        print()

    print(f"witness edge (in G dirmax (G dirmax H)):  {format_edge(audit.witness_edge)}")
    print(f"regrouped image (in neither right side):  {format_edge(audit.witness_image)}")

    if args.list_edges:
        left = dirmax(g, dirmax(g, h))
        right = dirmax(dirmax(g, g), h)
        print()
        print(f"left grouping edges ({len(left.edges)}):")
        for e in sorted(left.edges, key=edge_key):
            print(f"  {format_edge(e)}")
        print(f"right grouping edges ({len(right.edges)}):")
        for e in sorted(right.edges, key=edge_key):
            print(f"  {format_edge(e)}")

    return 1  # mirrors `hgprod counterexample`: the audited law is violated


if __name__ == "__main__":
    raise SystemExit(main())
