"""Algebraic-law audits: associativity, commutativity, the dirmax/dirnon
coincidence on low-rank simple factors, and the exact counterexample that
separates the two triple-product groupings for dirmax, dirnon and strong.

Associativity is checked in two stages.  The cheap stage applies the
regrouping map (x,(y,z)) -> ((x,y),z) edge-wise to one grouping and compares
edge sets with the other; for the associative kinds this map is itself an
isomorphism.  The optional second stage runs the full isomorphism search,
bounded by vertex count.  Commutativity is checked the same way through the
coordinate swap (x,y) -> (y,x).  Both maps act structurally on labels.
Failures carry a concrete witness edge, not just diverging counts.
"""

from __future__ import annotations

__all__ = [
    "ASSOCIATIVE_KINDS",
    "CounterexampleAudit",
    "CounterexampleMismatch",
    "FactorSummary",
    "FuzzReport",
    "GeneratorConfig",
    "InfeasibleError",
    "LawReport",
    "PreconditionError",
    "TrialFailure",
    "check_associativity",
    "check_commutativity",
    "check_lemma1",
    "counterexample_audit",
    "counterexample_factors",
    "derive_seed",
    "format_fuzz_report",
    "format_law_report",
    "fuzz_law",
    "fuzz_report_dict",
    "law_report_dict",
    "random_hypergraph",
    "regroup_right_to_left",
    "summarize",
    "swap_map",
]

import functools
import math
import os
import random
from dataclasses import dataclass, replace
from typing import NamedTuple

from .core import (
    Atom,
    Edge,
    Hypergraph,
    Label,
    Pair,
    format_label,
    from_tokens,
    hypergraph,
    is_simple,
    label_key,
    rank,
    sorted_members,
)
from .iso import _SEARCH_BOUND, are_isomorphic
from .products import ProductKind, dirmax, dirnon, product

ASSOCIATIVE_KINDS = frozenset(
    {ProductKind.CARTESIAN, ProductKind.DIRMIN, ProductKind.NORMAL}
)

_MASK64 = (1 << 64) - 1


class PreconditionError(ValueError):
    """An audit hypothesis fails; names the violated hypothesis."""


class CounterexampleMismatch(RuntimeError):
    """The built-in counterexample did not reproduce its expected numbers."""


class InfeasibleError(ValueError):
    """Generator constraints admit no hypergraph (or none within the retry budget)."""


class FactorSummary(NamedTuple):
    vertices: int
    edges: int
    rank: int

    def __str__(self) -> str:
        return f"|V|={self.vertices} |E|={self.edges} r={self.rank}"


def summarize(hg: Hypergraph) -> FactorSummary:
    return FactorSummary(len(hg.vertices), len(hg.edges), rank(hg))


# The fields alone: typing.NamedTuple refuses a __new__ in its own body.
class _LawReportFields(NamedTuple):
    kind: ProductKind
    law: str
    left_count: int
    right_count: int
    psi_is_isomorphism: bool
    exists_isomorphism: bool | None
    witness_edge: Edge | None
    factor_summaries: tuple[FactorSummary, ...]


class LawReport(_LawReportFields):
    """Outcome of one law audit.

    left_count/right_count are the edge counts of the two compared products.
    psi_is_isomorphism records whether the canonical comparison map (the
    regrouping map for associativity, the coordinate swap for commutativity,
    the identity for the dirmax/dirnon equality) carries the left edge set
    exactly onto the right one.  exists_isomorphism is populated only when a
    full search was requested and ran within bounds.  witness_edge, when
    present, is an edge on one side whose image is absent from the other.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        if report.psi_is_isomorphism and report.left_count != report.right_count:
            raise ValueError("map verdict true requires equal edge counts")
        if report.witness_edge is not None and report.psi_is_isomorphism:
            raise ValueError("witness edge requires a failed map verdict")
        if report.exists_isomorphism is False and report.psi_is_isomorphism:
            raise ValueError("map verdict true contradicts non-isomorphism")
        return report

    @classmethod
    def _make(cls, values):  # _replace builds through it: check there too
        return cls(*values)


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


def _mismatch(left, right, forward) -> Edge | None:
    """None when the label map forward carries the left edge set exactly
    onto the right one; otherwise the smallest edge, by canonical order,
    whose image is missing from the other side: the smallest left edge
    whose image is not on the right, or, when every left image is, the
    smallest right edge outside the image.  Each left edge is mapped once,
    and its image serves both the comparison and the witness.  forward is
    a bijection on product labels, so a right edge is missing from the left
    exactly when it is no left edge's image.  The candidates' members are
    ranked by label_key once; (size, sorted member ranks) then orders the
    candidates as edge_key does, without a nested key per member."""
    mapped = [frozenset(forward(v) for v in e) for e in left]
    if (image := frozenset(mapped)) == right:
        return None
    candidates = [e for e, m in zip(left, mapped) if m not in right] or right - image
    rank = {v: r for r, v in enumerate(sorted(set().union(*candidates), key=label_key))}
    return min(candidates, key=lambda e: (len(e), sorted(map(rank.__getitem__, e))))


def _audit(
    kind: ProductKind, law: str, left: Hypergraph, right: Hypergraph, forward,
    factors: tuple[Hypergraph, ...], full_iso: bool = False,
) -> LawReport:
    """Compare two products through the label map `forward`, optionally
    run the full isomorphism search, and report."""
    witness = _mismatch(left.edges, right.edges, forward)
    exists: bool | None = None
    if full_iso:
        if witness is None:
            exists = True  # the map is itself a witness
        elif len(left.vertices) <= _SEARCH_BOUND:
            exists = are_isomorphic(left, right).isomorphic
    return LawReport(
        kind=kind,
        law=law,
        left_count=len(left.edges),
        right_count=len(right.edges),
        psi_is_isomorphism=witness is None,
        exists_isomorphism=exists,
        witness_edge=witness,
        factor_summaries=tuple(map(summarize, factors)),
    )


def check_associativity(
    kind: ProductKind,
    a: Hypergraph,
    b: Hypergraph,
    c: Hypergraph,
    full_iso: bool = False,
) -> LawReport:
    """Compare A * (B * C) with (A * B) * C through the regrouping map.

    When full_iso is set and both sides fit the isomorphism search's bound
    of 12 vertices, the report also carries the full search verdict;
    oversized instances skip the search (the regrouping check always runs,
    it is linear).
    """
    return _associativity(ProductKind(kind), a, b, c, full_iso)[0]


def _associativity(kind, a, b, c, full_iso=False):
    """(report, A * (B * C), (A * B) * C): check_associativity's report with
    the groupings it compared, so counterexample_audit builds each once."""
    left = product(kind, a, product(kind, b, c))
    right = product(kind, product(kind, a, b), c)
    report = _audit(kind, "associativity", left, right, regroup_right_to_left, (a, b, c), full_iso)
    return report, left, right


def check_commutativity(kind: ProductKind, a: Hypergraph, b: Hypergraph) -> LawReport:
    """Check that the coordinate swap carries A * B edge-exactly onto B * A."""
    kind = ProductKind(kind)
    left = product(kind, a, b)
    right = product(kind, b, a)
    return _audit(kind, "commutativity", left, right, swap_map, (a, b))


def check_lemma1(
    g: Hypergraph, h: Hypergraph, enforce_preconditions: bool = True
) -> LawReport:
    """Edge-set EQUALITY audit of dirmax(G,H) vs dirnon(G,H).

    The equality is guaranteed for simple G of rank exactly 2 and simple H
    of rank at most 3; violated hypotheses raise PreconditionError instead
    of producing a verdict.  Pass enforce_preconditions=False to compare
    anyway and get a divergence witness.
    """
    if enforce_preconditions:
        if not is_simple(g):
            raise PreconditionError("first factor is not simple")
        if not is_simple(h):
            raise PreconditionError("second factor is not simple")
        if rank(g) != 2:
            raise PreconditionError(f"rank of first factor is {rank(g)}, need exactly 2")
        if rank(h) > 3:
            raise PreconditionError(f"rank of second factor is {rank(h)}, need at most 3")
    return _audit(ProductKind.DIRMAX, "lemma1", dirmax(g, h), dirnon(g, h), lambda v: v, (g, h))


class CounterexampleAudit(NamedTuple):
    """The three non-associativity reports plus the explicit witness edge."""

    reports: tuple[LawReport, ...]
    witness_edge: Edge
    witness_image: Edge


_EXPECTED_COUNTS = {
    ProductKind.DIRMAX: (36, 12),
    ProductKind.DIRNON: (36, 12),
    ProductKind.STRONG: (82, 58),
}


def counterexample_factors() -> tuple[Hypergraph, Hypergraph]:
    """The smallest factors separating the two groupings: a single 2-edge
    and a single 3-edge."""
    return from_tokens("a b", ["a b"]), from_tokens("x y z", ["x y z"])


def counterexample_audit() -> CounterexampleAudit:
    """Reproduce the non-associativity counterexample bit-exactly.

    Checks the (36, 12) and (82, 58) edge-count splits for dirmax/dirnon and
    strong on the factors (G, G, H), that neither grouping is isomorphic to
    the other, and that the witness edge {(a,(a,x)),(a,(b,y)),(b,(b,z))}
    lies in G dirmax (G dirmax H) while its regrouped image lies in neither
    right-grouped product.  Any mismatch raises CounterexampleMismatch.
    """
    g, h = counterexample_factors()
    reports, groupings = [], {}
    for kind, expected in _EXPECTED_COUNTS.items():
        report, *groupings[kind] = _associativity(kind, g, g, h, full_iso=True)
        if (report.left_count, report.right_count) != expected:
            raise CounterexampleMismatch(
                f"{kind.value}: counts ({report.left_count}, {report.right_count})"
                f" differ from expected {expected}"
            )
        if report.psi_is_isomorphism or report.exists_isomorphism is not False:
            raise CounterexampleMismatch(
                f"{kind.value}: groupings unexpectedly isomorphic"
            )
        reports.append(report)

    a, b = Atom("a"), Atom("b")
    x, y, z = Atom("x"), Atom("y"), Atom("z")
    witness = frozenset(
        {Pair(a, Pair(a, x)), Pair(a, Pair(b, y)), Pair(b, Pair(b, z))}
    )
    left, right = groupings[ProductKind.DIRMAX]
    if witness not in left.edges:
        raise CounterexampleMismatch("witness edge missing from the left grouping")
    image = frozenset(regroup_right_to_left(v) for v in witness)
    if image in right.edges:
        raise CounterexampleMismatch("witness image unexpectedly present (dirmax)")
    if image in groupings[ProductKind.STRONG][1].edges:
        raise CounterexampleMismatch("witness image unexpectedly present (strong)")
    return CounterexampleAudit(tuple(reports), witness, image)


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic random-hypergraph parameters.

    Ranges are inclusive (lo, hi) pairs.  Edge sizes are clamped per
    instance to the drawn vertex count, so a range like (2, 3) can produce
    both a 2-vertex graph edge and a 3-edge when the vertices allow it.
    """

    seed: int
    vertex_count: tuple[int, int]
    edge_count: tuple[int, int]
    edge_size: tuple[int, int]
    require_simple: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")
        for name in ("vertex_count", "edge_count", "edge_size"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} range ({lo}, {hi}) is empty")
        if self.vertex_count[0] < 0 or self.edge_count[0] < 0:
            raise ValueError("counts must be non-negative")
        if self.edge_size[0] < 1:
            raise ValueError("edge size must be at least 1")
        if self.edge_count[0] > 0 and self.edge_size[0] > self.vertex_count[0]:
            raise ValueError("smallest edge size exceeds smallest vertex count")
        if self.require_simple:
            if self.edge_count[0] > 0 and self.vertex_count[0] < 2:
                raise ValueError("simple edges need at least 2 vertices")
            if self.edge_size[1] < 2:
                raise ValueError("simple edges need size at least 2")


_RETRY_BUDGET = 1000


def _sample_without_replacement(rng: random.Random, pool: list, k: int) -> list:
    # Partial Fisher-Yates driven only by randrange, for cross-platform stability.
    pool = list(pool)
    for i in range(k):
        j = rng.randrange(i, len(pool))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


@functools.cache
def _vertex(i: int) -> Atom:
    """The generator's i-th vertex: one Atom per process, shared by every draw."""
    return Atom(f"v{i}")


def random_hypergraph(cfg: GeneratorConfig) -> Hypergraph:
    """Deterministic function of cfg.seed; identical seeds give identical
    hypergraphs.  Edge vertex-sets are sampled uniformly without replacement,
    rejecting duplicates and (when simple) containments; an exhausted retry
    budget or unsatisfiable edge demand raises InfeasibleError.
    """
    rng = random.Random(cfg.seed)
    n = rng.randint(*cfg.vertex_count)
    vertices = [_vertex(i) for i in range(n)]
    size_lo, size_hi = cfg.edge_size
    if cfg.require_simple:
        size_lo = max(size_lo, 2)
    size_hi = min(size_hi, n)
    sizes = range(size_lo, size_hi + 1)
    possible = sum(math.comb(n, s) for s in sizes)
    if cfg.edge_count[0] > possible:
        raise InfeasibleError(
            f"requested at least {cfg.edge_count[0]} distinct edges,"
            f" only {possible} exist for {n} vertices"
        )
    m = rng.randint(cfg.edge_count[0], min(cfg.edge_count[1], possible))
    # Simple edges are pairwise incomparable, so by the LYM inequality there
    # are at most C(n, s) of them for the widest allowed size s.
    widest = max((math.comb(n, s) for s in sizes), default=0)
    if cfg.require_simple and m > widest:
        raise InfeasibleError(
            f"requested {m} simple edges, at most {widest} are pairwise"
            f" incomparable for {n} vertices"
        )
    edges: set = set()
    attempts = 0
    while len(edges) < m:
        attempts += 1
        if attempts > _RETRY_BUDGET:
            raise InfeasibleError(
                f"retry budget exhausted after placing {len(edges)} of {m} edges"
            )
        size = rng.randint(size_lo, size_hi)
        candidate = frozenset(_sample_without_replacement(rng, vertices, size))
        if candidate in edges:
            continue
        if cfg.require_simple and any(candidate <= e or e <= candidate for e in edges):
            continue
        edges.add(candidate)
    return hypergraph(vertices, edges)


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Stable per-trial/per-factor seed derivation: a splitmix64 chain."""
    state = master & _MASK64
    for index in indices:
        state = _splitmix64(state ^ ((index + 1) & _MASK64))
    return state


class TrialFailure(NamedTuple):
    trial: int
    factor_seeds: tuple[int, ...]
    report: LawReport


class FuzzReport(NamedTuple):
    kind: ProductKind
    law: str
    seed: int
    trials: int
    failures: tuple[TrialFailure, ...]
    minimal: TrialFailure | None

    @property
    def failure_count(self) -> int:
        return len(self.failures)


_FEASIBILITY_ATTEMPTS = 50


def _draw_factor(cfg: GeneratorConfig, trial: int, position: int) -> tuple[int, Hypergraph]:
    # A drawn (n, m) combination can be infeasible (e.g. simple antichain
    # limits); step the derived seed deterministically until one works.
    for attempt in range(_FEASIBILITY_ATTEMPTS):
        seed = derive_seed(cfg.seed, trial, position, attempt)
        try:
            return seed, random_hypergraph(replace(cfg, seed=seed))
        except InfeasibleError:
            continue
    raise InfeasibleError(
        f"no feasible hypergraph in {_FEASIBILITY_ATTEMPTS} draws for trial {trial}"
    )


# The laws fuzz_law audits: law -> (factor count, audit).
_FUZZ_LAWS = {
    "associativity": (3, check_associativity),
    "commutativity": (2, check_commutativity),
}


def _run_trial(args: tuple) -> TrialFailure | None:
    """The trial's failure, or None when the law held: a passing report
    dies with its trial, in a worker too, and is never pickled."""
    kind, law, cfg, trial = args
    count, audit = _FUZZ_LAWS[law]
    seeds, factors = zip(*(_draw_factor(cfg, trial, position) for position in range(count)))
    report = audit(kind, *factors)
    return None if report.psi_is_isomorphism else TrialFailure(trial, seeds, report)


def _failure_rank(failure: TrialFailure) -> tuple:
    total_vertices = sum(s.vertices for s in failure.report.factor_summaries)
    total_edges = sum(s.edges for s in failure.report.factor_summaries)
    return (total_vertices, total_edges, failure.trial)


def fuzz_law(
    kind: ProductKind,
    law: str,
    cfg: GeneratorConfig,
    trials: int,
    jobs: int = 1,
) -> FuzzReport:
    """Run seeded law audits on random factor tuples.

    Per-trial seeds derive from (cfg.seed, trial index), so parallel and
    serial execution produce identical reports.  Failures are collected with
    the minimal witness, ranked by total factor vertices, then total factor
    edges.
    """
    kind = ProductKind(kind)
    if law not in _FUZZ_LAWS:
        raise ValueError(f"unknown law {law!r}")
    tasks = ((kind, law, cfg, t) for t in range(trials))
    # A process pool starts all its workers at the first submit: bound them first.
    jobs = min(jobs, os.cpu_count() or 1, trials)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing: not on serial runs
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = pool.map(_run_trial, tasks, chunksize=max(1, trials // (4 * jobs)))
            failures = tuple(filter(None, outcomes))  # a passing trial sends back None
    else:
        failures = tuple(filter(None, map(_run_trial, tasks)))
    minimal = min(failures, key=_failure_rank) if failures else None
    return FuzzReport(kind, law, cfg.seed, trials, failures, minimal)


def _text(fields: dict) -> str:
    """`key: value` lines: True, False and None as true, false and none, a
    list as its items joined by spaces, anything else via str."""
    def value(v) -> str:
        if v is None or isinstance(v, bool):
            return str(v).lower()
        return " ".join(map(str, v)) if isinstance(v, list) else str(v)

    return "\n".join(f"{key}: {value(v)}" for key, v in fields.items())


def format_law_report(report: LawReport) -> str:
    """Stable line-oriented rendering of one audit report: the fields of
    `law_report_dict`, with law, kind and the factor summaries first."""
    fields = law_report_dict(report)
    factors = "; ".join(map(str, report.factor_summaries))
    return _text({"law": fields["law"], "kind": fields["kind"], "factors": factors} | fields)


def law_report_dict(report: LawReport) -> dict:
    """Machine-readable key-value tree with the fixed field names."""
    witness = None
    if report.witness_edge is not None:
        witness = [format_label(v) for v in sorted_members(report.witness_edge)]
    return {
        "kind": report.kind.value,
        "law": report.law,
        "left_count": report.left_count,
        "right_count": report.right_count,
        "psi_iso": report.psi_is_isomorphism,
        "full_iso": report.exists_isomorphism,
        "witness": witness,
    }


def format_fuzz_report(report: FuzzReport) -> str:
    lines = [_text({
        "law": report.law,
        "kind": report.kind.value,
        "seed": report.seed,
        "trials": report.trials,
        "failures": report.failure_count,
        "failing_trials": [f.trial for f in report.failures] or None,
    })]
    if (minimal := report.minimal) is not None:
        seeds = list(minimal.factor_seeds)
        lines.append(_text({"minimal_trial": minimal.trial, "minimal_factor_seeds": seeds}))
        lines.extend("  " + line for line in format_law_report(minimal.report).splitlines())
    return "\n".join(lines)


def fuzz_report_dict(report: FuzzReport) -> dict:
    def failure_dict(f: TrialFailure) -> dict:
        return {
            "trial": f.trial,
            "factor_seeds": list(f.factor_seeds),
            "report": law_report_dict(f.report),
        }

    return {
        "kind": report.kind.value,
        "law": report.law,
        "seed": report.seed,
        "trials": report.trials,
        "failure_count": report.failure_count,
        "failures": [failure_dict(f) for f in report.failures],
        "minimal": failure_dict(report.minimal) if report.minimal is not None else None,
    }
