"""Closed-form edge counts: an independent oracle against enumeration.

  |E(H1 dirmax H2)|  = sum over edge pairs of  min! * S(max, min)
  |E(H1 cartesian H2)| = |V1||E2| + |E1||V2|
  |E(H1 strong H2)|  = dirmax count + cartesian count

where S(n,k) is the Stirling number of the second kind and min/max are the
two edge cardinalities.  All arithmetic is exact integer.

The closed forms count generating pairs.  With singleton edges, distinct
pairs can generate identical edges under set semantics (e.g. {x} x f meeting
e x {y} in the Cartesian product), so the formulas are exact for hypergraphs
whose edges all have size >= 2; verify_count flags any disagreement instead
of erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Hypergraph
from .products import ProductKind, ranked_product


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k non-empty blocks.

    Computed without recursion, as the surjection count divided by k!:
    S(n,k) = sum_j (-1)^j C(k,j) (k-j)^n / k!, in exact integer arithmetic;
    S(0,0)=1, S(n,0)=0 for n>0, S(n,k)=0 for k>n.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    surjections = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return surjections // math.factorial(k)


def dirmax_edge_count(h1: Hypergraph, h2: Hypergraph) -> int:
    total = 0
    for e1 in h1.edges:
        for e2 in h2.edges:
            lo, hi = sorted((len(e1), len(e2)))
            total += math.factorial(lo) * stirling2(hi, lo)
    return total


def cartesian_edge_count(h1: Hypergraph, h2: Hypergraph) -> int:
    return len(h1.vertices) * len(h2.edges) + len(h1.edges) * len(h2.vertices)


def strong_edge_count(h1: Hypergraph, h2: Hypergraph) -> int:
    return dirmax_edge_count(h1, h2) + cartesian_edge_count(h1, h2)


_FORMULAS = {
    ProductKind.CARTESIAN: cartesian_edge_count,
    ProductKind.DIRMAX: dirmax_edge_count,
    ProductKind.STRONG: strong_edge_count,
}

COUNTABLE_KINDS = frozenset(_FORMULAS)


@dataclass(frozen=True)
class CountReport:
    """Formula value vs. constructive enumeration for one product instance."""

    kind: ProductKind
    formula_count: int
    enumerated_count: int

    @property
    def agreement(self) -> bool:
        return self.formula_count == self.enumerated_count


def closed_form_count(kind: ProductKind, h1: Hypergraph, h2: Hypergraph) -> int:
    """The closed-form edge count alone; builds no product.

    Only cartesian, dirmax and strong have closed forms.
    """
    kind = ProductKind(kind)
    if kind not in _FORMULAS:
        raise ValueError(f"no closed-form edge count for kind {kind.value}")
    return _FORMULAS[kind](h1, h2)


def verify_count(kind: ProductKind, h1: Hypergraph, h2: Hypergraph) -> CountReport:
    """Evaluate the closed form and the enumerated edge count side by side.

    The enumeration runs on integer ranks: it counts the same edge set as
    `product` without building its labels."""
    formula = closed_form_count(kind, h1, h2)
    enumerated = len(ranked_product(kind, h1, h2)[3])
    return CountReport(ProductKind(kind), formula, enumerated)
