"""The three benchmark workloads: inputs from a seed, operations, checks.

Each workload is a closed loop with one client in one process.  `setup`
generates the workload's inputs from the seed (writing any .hg files) and
is what `setup_s` times; `operations` builds the fixed list of operations
of one pass, each with the check of its output.  Checks compare verdicts
and outputs, never how a result was reached (no search-node counts).

Operations call the library through module attributes at call time
(`hg.checker.check_associativity`, `hg.cli.main`), so the tracing
wrappers installed on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle

HERE = Path(__file__).resolve().parent
KINDS = oracle.KINDS
ASSOCIATIVE = ("cartesian", "dirmin", "normal")


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def run_cli(hg, argv: list[str]) -> tuple[int, str]:
    """`hgprod.cli.main` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hg.cli.main(argv)
    return code, out.getvalue()


def _consistent(report) -> bool:
    if report.psi_is_isomorphism:
        return report.left_count == report.right_count and report.witness_edge is None
    return report.witness_edge is not None


# --------------------------------------------------------------- audit_small
#
# Thousands of audits on edges of at most three members: per-call overhead,
# Pair hashing and the regroup/witness comparison dominate; hgio and the
# isomorphism search do no work.

RANDOM_TRIPLES = 40  # per kind
# The counterexample audit has fixed inputs and costs more than all but a
# few of the other audits; repeated, it is where the tail percentile (10
# operations beyond it) falls, at one cost for every seed.
COUNTEREXAMPLE_REPEATS = 16

# Factor shapes (vertices, edges, edge size) of the random triples: every
# feasible shape with 1-4 vertices, 1-3 edges and edge sizes 1-3, 20 in all,
# ordered by vertex count, edge size and edge count.  Trial t takes shapes
# t, t+7 and t+14 (mod 20), so every shape recurs RANDOM_TRIPLES / 20 = 2
# times in each position, no triple takes the three largest shapes at
# once, and random_hypergraph draws the members from the seed.  So only a
# few random triples cost more than the counterexample audit.
SHAPES = [
    (n, m, size)
    for n in range(1, 5)
    for size in range(1, min(3, n) + 1)
    for m in range(1, min(3, math.comb(n, size)) + 1)
]


def exhaustive_family(hg, max_vertices: int = 3) -> list:
    """One hypergraph of each isomorphism class with n <= max_vertices
    vertices t0..t{n-1} and at most one edge (10 of them for the default),
    in a fixed order: the edgeless one, then one edge t0..t{s-1} for each
    size s.  An audit's verdict does not depend on how a factor's vertices
    are named, so relabelled copies would only repeat the same work."""
    out = []
    for n in range(max_vertices + 1):
        verts = [hg.Atom(f"t{i}") for i in range(n)]
        out.append(hg.Hypergraph(frozenset(verts), frozenset()))
        for size in range(1, n + 1):
            out.append(hg.Hypergraph(frozenset(verts), frozenset([frozenset(verts[:size])])))
    return out


def _shaped_factor(hg, seed: int, shape) -> object:
    n, m, size = shape
    return hg.random_hypergraph(
        hg.GeneratorConfig(seed=seed, vertex_count=(n, n), edge_count=(m, m), edge_size=(size, size))
    )


def audit_small_setup(hg, seed: int, workdir: Path) -> dict:
    family = exhaustive_family(hg)
    triples = {}
    for k, kind in enumerate(KINDS):
        triples[kind] = [
            tuple(
                _shaped_factor(hg, hg.derive_seed(seed, k, trial, p), SHAPES[(trial + 7 * p) % len(SHAPES)])
                for p in range(3)
            )
            for trial in range(RANDOM_TRIPLES)
        ]
    return {"family": family, "random": triples}


def audit_small_operations(hg, inputs: dict) -> list[Op]:
    pinned = json.loads((HERE / "expected_audit_small.json").read_text())["violations"]
    family = inputs["family"]
    size = len(family)
    ops = []
    for kind in KINDS:
        violating = {tuple(t) for t in pinned.get(kind, [])}
        for i, j, k in itertools.product(range(size), repeat=3):
            expect = (i, j, k) not in violating
            ops.append(
                Op(
                    "assoc",
                    lambda kind=kind, a=family[i], b=family[j], c=family[k]: hg.checker.check_associativity(kind, a, b, c),
                    lambda r, expect=expect: r.psi_is_isomorphism == expect and _consistent(r),
                )
            )
        for i, j in itertools.product(range(size), repeat=2):
            ops.append(
                Op(
                    "commut",
                    lambda kind=kind, a=family[i], b=family[j]: hg.checker.check_commutativity(kind, a, b),
                    lambda r: r.psi_is_isomorphism and _consistent(r),
                )
            )
        associative = kind in ASSOCIATIVE
        for a, b, c in inputs["random"][kind]:
            ops.append(
                Op(
                    "assoc_random",
                    lambda kind=kind, a=a, b=b, c=c: hg.checker.check_associativity(kind, a, b, c),
                    lambda r, associative=associative: _consistent(r) and (r.psi_is_isomorphism or not associative),
                )
            )

    def check_counterexample(audit) -> bool:
        counts = [(r.kind.value, r.left_count, r.right_count, r.psi_is_isomorphism, r.exists_isomorphism) for r in audit.reports]
        return counts == [
            ("dirmax", 36, 12, False, False),
            ("dirnon", 36, 12, False, False),
            ("strong", 82, 58, False, False),
        ] and hg.format_edge(audit.witness_edge) == "(a,(a,x)) (a,(b,y)) (b,(b,z))"

    for _ in range(COUNTEREXAMPLE_REPEATS):
        ops.append(Op("counterexample", lambda: hg.checker.counterexample_audit(), check_counterexample))
    return ops


# ---------------------------------------------------------------- product_io
#
# A few CLI calls that each emit ~10^4 edges, beside many small ones: the
# surjection filter, set dedup, label sorting and .hg parse/serialize
# dominate; the regroup comparison and the isomorphism search do no work.

RANDOM_PAIRS = 8
COUNT_KINDS = ("cartesian", "dirmax", "strong")


def _io_factor(rng: random.Random, prefix: str, r: int, side: int) -> tuple[list, list]:
    """5-6 vertices and 3-4 edges of sizes 1-4, one a singleton.  The
    shape follows the pair index so that the costliest operations, which
    set the tail percentile, have the same shapes for every seed; the
    members are drawn from the seed."""
    vertices = [f"{prefix}{i}" for i in range(5 + (r + side) % 2)]
    if (r // 2 + side) % 2:
        sizes = [1, 2, 3, 4]
    else:
        sizes = [1, *[(2, 3), (2, 4), (3, 4)][(r + side) % 3]]
    # The sizes differ, so the edges are distinct.
    return vertices, [sorted(rng.sample(vertices, size)) for size in sizes]


def product_io_setup(hg, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    a = [f"a{n}" for n in rng.sample(range(100), 4)]
    b = [f"b{n}" for n in rng.sample(range(100), 7)]
    factors = {"big_a": (a, [a]), "big_b": (b, [b])}
    for r in range(RANDOM_PAIRS):
        factors[f"r{r}_a"] = _io_factor(rng, "p", r, 0)
        factors[f"r{r}_b"] = _io_factor(rng, "q", r, 1)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (vertices, edges) in factors.items():
        paths[name] = workdir / f"{name}.hg"
        paths[name].write_text(oracle.hg_text(vertices, edges), encoding="utf-8")
    return {"factors": factors, "paths": paths, "workdir": workdir}


def product_io_operations(hg, inputs: dict) -> list[Op]:
    factors, paths, workdir = inputs["factors"], inputs["paths"], inputs["workdir"]
    ops = []

    def product_op(kind, a, b, out: Path):
        expected = oracle.product(kind, factors[a], factors[b])

        def check(result) -> bool:
            code, stdout = result
            return code == 0 and stdout == "" and oracle.read_hg(out.read_text(encoding="utf-8")) == expected

        def check_fmt(result) -> bool:
            code, stdout = result
            return code == 0 and stdout == out.read_text(encoding="utf-8") and oracle.read_hg(stdout) == expected

        argv = ["product", "--kind", kind, str(paths[a]), str(paths[b]), "-o", str(out)]
        ops.append(Op("product", lambda: run_cli(hg, argv), check))
        ops.append(Op("fmt", lambda: run_cli(hg, ["fmt", str(out)]), check_fmt))
        return expected

    def count_op(kind, a, b, enumerated: int):
        formula = oracle.closed_form(kind, factors[a], factors[b])
        agree = formula == enumerated
        text = f"kind: {kind}\nformula_count: {formula}\nenumerated_count: {enumerated}\nagreement: {str(agree).lower()}\n"
        expected = (0 if agree else 1, text)
        argv = ["count", "--kind", kind, "--verify", str(paths[a]), str(paths[b])]
        ops.append(Op("count", lambda: run_cli(hg, argv), lambda result: result == expected))

    big = product_op("dirmax", "big_a", "big_b", workdir / "big_dirmax.hg")
    # Every factor edge has >= 2 members, so the closed form is exact.
    if len(big[1]) != oracle.closed_form("dirmax", factors["big_a"], factors["big_b"]):
        raise RuntimeError("reference dirmax product disagrees with its closed form")
    count_op("dirmax", "big_a", "big_b", len(big[1]))
    for r in range(RANDOM_PAIRS):
        a, b = f"r{r}_a", f"r{r}_b"
        for kind in KINDS:
            expected = product_op(kind, a, b, workdir / f"r{r}_{kind}.hg")
            if kind in COUNT_KINDS:
                count_op(kind, a, b, len(expected[1]))

    flat_expected = oracle.product("strong", factors["r0_a"], factors["r0_b"])

    def check_flatten(result) -> bool:
        code, stdout = result
        legend = {}
        for line in stdout.splitlines():
            if line.startswith("# "):
                name, _, label = line[2:].partition(" = ")
                legend[name] = label
        return code == 0 and oracle.read_hg(stdout, rename=lambda t: legend.get(t, "?")) == flat_expected

    argv = ["product", "--kind", "strong", "--flatten", str(paths["r0_a"]), str(paths["r0_b"])]
    ops.append(Op("flatten", lambda: run_cli(hg, argv), check_flatten))
    return ops


# ---------------------------------------------------------------- iso_search
#
# Isomorphism calls through the CLI on cycles.  Refuting C_N against
# 2*C_{N/2}, where every screen passes, is search-bound; finding a witness
# for a relabelled C_N uses the search the opposite way; pairs with
# different degree sequences stop at the screens.  Products and hgio
# writing are idle.  Relabelling the second graph does not change the
# refutation tree, so the block of C_14 refutations costs the same for
# every seed: it puts equal-cost operations where the tail percentile
# falls (ten slower operations beyond it: the N = 16 and 18 refutations
# and eight more of the block).  Likewise every screened pair is built
# from C_18, so the median operation is one of 30 screen rejections of
# equal cost, however cheap the seed makes the witness searches.

ISO_SIZES = range(12, 19, 2)
BLOCK_SIZE, BLOCK_COPIES = 14, 8
RELABELLINGS = 2  # per N
SCREEN_SIZE, SCREENED = 18, 30


def _cycles(lengths) -> tuple[list, list]:
    vertices, edges, base = [], [], 0
    for n in lengths:
        ring = [f"c{base + i}" for i in range(n)]
        vertices += ring
        edges += [(ring[i], ring[(i + 1) % n]) for i in range(n)]
        base += n
    return vertices, edges


def _relabel(rng: random.Random, graph, prefix: str) -> tuple[list, list]:
    vertices, edges = graph
    image = [f"{prefix}{i}" for i in rng.sample(range(len(vertices)), len(vertices))]
    rename = dict(zip(vertices, image))
    relabelled = [(rename[u], rename[v]) for u, v in edges]
    rng.shuffle(relabelled)
    return sorted(image), relabelled


def iso_search_setup(hg, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    graphs = {}
    for n in ISO_SIZES:
        graphs[f"c{n}"] = _cycles([n])
        graphs[f"two{n}"] = _cycles([n // 2, n // 2])
        for r in range(RELABELLINGS):
            graphs[f"rel{n}_{r}"] = _relabel(rng, graphs[f"c{n}"], "r")
    vertices, edges = graphs[f"c{SCREEN_SIZE}"]
    for s in range(SCREENED):
        # Move one end of an edge: one vertex drops to degree 1 and
        # another rises to 3, with vertex, edge and size counts kept.
        moved = list(edges)
        i = rng.randrange(SCREEN_SIZE)
        u, v = moved[i]
        w = rng.choice([x for x in vertices if x not in (u, v) and (u, x) not in moved and (x, u) not in moved])
        moved[i] = (u, w)
        graphs[f"deg{s}"] = (vertices, moved)
    for r in range(BLOCK_COPIES):
        graphs[f"two{BLOCK_SIZE}_{r}"] = _relabel(rng, graphs[f"two{BLOCK_SIZE}"], "s")
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (vertices, edges) in graphs.items():
        paths[name] = workdir / f"{name}.hg"
        paths[name].write_text(oracle.hg_text(vertices, edges), encoding="utf-8")
    return {"graphs": graphs, "paths": paths}


def _witness_ok(witness, g1, g2) -> bool:
    if not isinstance(witness, dict) or set(witness) != set(g1[0]):
        return False
    if sorted(witness.values()) != sorted(g2[0]):
        return False
    edges2 = {frozenset(e) for e in g2[1]}
    return all(frozenset(witness[v] for v in e) in edges2 for e in g1[1])


def iso_search_operations(hg, inputs: dict) -> list[Op]:
    graphs, paths = inputs["graphs"], inputs["paths"]
    ops = []

    def iso_op(name: str, n: int, a: str, b: str, isomorphic: bool):
        argv = ["iso", "--max-vertices", str(n), "--json", str(paths[a]), str(paths[b])]

        def check(result) -> bool:
            code, stdout = result
            payload = json.loads(stdout)
            if code != (0 if isomorphic else 1) or payload["isomorphic"] is not isomorphic:
                return False
            if isomorphic:
                return _witness_ok(payload["witness"], graphs[a], graphs[b])
            return payload["witness"] is None

        ops.append(Op(name, lambda: run_cli(hg, argv), check))

    for n in ISO_SIZES:
        iso_op("refute", n, f"c{n}", f"two{n}", False)
        for r in range(RELABELLINGS):
            iso_op("witness", n, f"c{n}", f"rel{n}_{r}", True)
    for s in range(SCREENED):
        iso_op("screen", SCREEN_SIZE, f"c{SCREEN_SIZE}", f"deg{s}", False)
    for r in range(BLOCK_COPIES):
        iso_op("refute", BLOCK_SIZE, f"c{BLOCK_SIZE}", f"two{BLOCK_SIZE}_{r}", False)
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable
    operations: Callable


WORKLOADS = {
    "audit_small": Workload(audit_small_setup, audit_small_operations),
    "product_io": Workload(product_io_setup, product_io_operations),
    "iso_search": Workload(iso_search_setup, iso_search_operations),
}
