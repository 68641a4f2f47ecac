import dataclasses
import json

import pytest
from hypothesis import given, settings

import strategies as stg
from oracles import enumerate_edge_subsets
from hgprod import checker
from hgprod import (
    ASSOCIATIVE_KINDS,
    Atom,
    FactorSummary,
    GeneratorConfig,
    InfeasibleError,
    LawReport,
    Pair,
    PreconditionError,
    ProductKind,
    check_associativity,
    check_commutativity,
    check_lemma1,
    counterexample_audit,
    counterexample_factors,
    derive_seed,
    format_edge,
    format_fuzz_report,
    format_law_report,
    from_tokens,
    fuzz_law,
    fuzz_report_dict,
    is_simple,
    law_report_dict,
    product,
    random_hypergraph,
    rank,
    validate,
)


# ---------------------------------------------------------------- associativity

def test_associative_kinds_are_exactly_three():
    assert ASSOCIATIVE_KINDS == {
        ProductKind.CARTESIAN,
        ProductKind.DIRMIN,
        ProductKind.NORMAL,
    }


def test_associative_kinds_pass_on_the_running_example(single_edge_factors):
    g, h = single_edge_factors
    for kind in ASSOCIATIVE_KINDS:
        report = check_associativity(kind, g, g, h, full_iso=True)
        assert report.psi_is_isomorphism
        assert report.exists_isomorphism is True
        assert report.left_count == report.right_count
        assert report.witness_edge is None


def test_dirmax_grouping_gap(single_edge_factors):
    g, h = single_edge_factors
    report = check_associativity(ProductKind.DIRMAX, g, g, h, full_iso=True)
    assert (report.left_count, report.right_count) == (36, 12)
    assert not report.psi_is_isomorphism
    assert report.exists_isomorphism is False
    assert report.witness_edge is not None
    assert report.factor_summaries == (
        FactorSummary(2, 1, 2),
        FactorSummary(2, 1, 2),
        FactorSummary(3, 1, 3),
    )


def test_strong_grouping_gap(single_edge_factors):
    g, h = single_edge_factors
    report = check_associativity(ProductKind.STRONG, g, g, h, full_iso=True)
    assert (report.left_count, report.right_count) == (82, 58)
    assert not report.psi_is_isomorphism
    assert report.exists_isomorphism is False


def test_full_iso_skipped_when_oversized(single_edge_factors):
    g, h = single_edge_factors
    report = check_associativity(ProductKind.DIRMAX, g, g, h, full_iso=True, iso_bound=4)
    assert report.exists_isomorphism is None  # 12 grid vertices exceed the bound
    assert not report.psi_is_isomorphism  # but the map check still ran


@given(stg.hypergraphs(max_vertices=3, max_edges=2),
       stg.hypergraphs(max_vertices=3, max_edges=2),
       stg.hypergraphs(max_vertices=3, max_edges=2))
def test_associative_kinds_hold_on_random_triples(a, b, c):
    for kind in ASSOCIATIVE_KINDS:
        assert check_associativity(kind, a, b, c).psi_is_isomorphism


def test_report_invariants_are_enforced():
    summ = (FactorSummary(1, 0, 0),)
    with pytest.raises(ValueError):
        LawReport(ProductKind.DIRMAX, "associativity", 3, 4, True, None, None, summ)
    with pytest.raises(ValueError):
        LawReport(
            ProductKind.DIRMAX, "associativity", 3, 3, True, None,
            frozenset({Atom("a")}), summ,
        )
    with pytest.raises(ValueError):
        LawReport(ProductKind.DIRMAX, "associativity", 3, 3, True, False, None, summ)


# With the 3-edge first, every left edge regroups onto a right edge and the
# right side has more, so the witness is the smallest right edge that is no
# left edge's image.  Counts and witness recorded as literals.
@pytest.mark.parametrize("kind,counts", [("dirmax", (12, 36)), ("dirnon", (12, 36)), ("strong", (58, 82))])
def test_witness_from_the_right_side(single_edge_factors, kind, counts):
    g, h = single_edge_factors
    report = check_associativity(kind, h, g, g)
    assert (report.left_count, report.right_count) == counts
    assert format_edge(report.witness_edge) == "((x,a),a) ((y,a),b) ((z,b),a)"
    assert report.witness_edge in product(kind, product(kind, h, g), g).edges


# ---------------------------------------------------------------- commutativity

def test_commutativity_on_the_running_example(single_edge_factors):
    g, h = single_edge_factors
    for kind in ProductKind:
        report = check_commutativity(kind, g, h)
        assert report.psi_is_isomorphism
        assert report.law == "commutativity"


@given(stg.hypergraphs(max_vertices=3, max_edges=2),
       stg.hypergraphs(max_vertices=3, max_edges=2))
def test_swap_carries_every_kind(a, b):
    for kind in ProductKind:
        assert check_commutativity(kind, a, b).psi_is_isomorphism


# ---------------------------------------------------------------- rank-2 lemma

def test_lemma1_holds_on_the_running_example(single_edge_factors):
    g, h = single_edge_factors
    report = check_lemma1(g, h)
    assert report.psi_is_isomorphism
    assert report.left_count == report.right_count == 6
    assert report.law == "lemma1"


def test_lemma1_precondition_messages():
    k2 = from_tokens("a b", ["a b"])
    with pytest.raises(PreconditionError, match="first factor is not simple"):
        check_lemma1(from_tokens("a b c", ["a b", "a b c"]), k2)
    with pytest.raises(PreconditionError, match="second factor is not simple"):
        check_lemma1(k2, from_tokens("x", ["x"]))
    with pytest.raises(PreconditionError, match="rank of first factor is 3"):
        check_lemma1(from_tokens("a b c", ["a b c"]), k2)
    with pytest.raises(PreconditionError, match="rank of second factor is 4"):
        check_lemma1(k2, from_tokens("w x y z", ["w x y z"]))


def test_lemma1_divergence_beyond_rank_3():
    """With a 4-edge on the right the two constructions genuinely split:
    14 surjection graphs vs 8 choice edges."""
    k2 = from_tokens("a b", ["a b"])
    h4 = from_tokens("w x y z", ["w x y z"])
    report = check_lemma1(k2, h4, enforce_preconditions=False)
    assert not report.psi_is_isomorphism
    assert (report.left_count, report.right_count) == (14, 8)
    assert report.witness_edge is not None


def test_lemma1_witness_from_the_right_side():
    """dirmax of a path by a singleton edge lies inside dirnon of them; the
    witness is the smallest dirnon edge dirmax lacks."""
    path = from_tokens("a b c", ["a b", "b c"])
    report = check_lemma1(path, from_tokens("x", ["x"]), enforce_preconditions=False)
    assert (report.left_count, report.right_count) == (2, 3)
    assert format_edge(report.witness_edge) == "(a,x) (b,x)"


def test_lemma1_exhaustive_sweep():
    """Every simple rank-2 left factor with <= 3 vertices against every
    simple right factor of rank <= 3 with <= 4 vertices: the edge sets of
    the two direct products agree in all 8 x 126 cases."""
    gs = [
        g
        for n in range(2, 4)
        for g in enumerate_edge_subsets(n, [2], keep=lambda h: len(h.edges) > 0)
    ]
    hs = [
        h
        for n in range(0, 5)
        for h in enumerate_edge_subsets(n, [2, 3], keep=is_simple)
    ]
    assert len(gs) == 8 and len(hs) == 126
    for g in gs:
        for h in hs:
            assert check_lemma1(g, h).psi_is_isomorphism, (g, h)


# ---------------------------------------------------------------- counterexample

def test_counterexample_audit_is_exact():
    audit = counterexample_audit()
    by_kind = {r.kind: r for r in audit.reports}
    assert set(by_kind) == {ProductKind.DIRMAX, ProductKind.DIRNON, ProductKind.STRONG}
    assert (by_kind[ProductKind.DIRMAX].left_count,
            by_kind[ProductKind.DIRMAX].right_count) == (36, 12)
    assert (by_kind[ProductKind.DIRNON].left_count,
            by_kind[ProductKind.DIRNON].right_count) == (36, 12)
    assert (by_kind[ProductKind.STRONG].left_count,
            by_kind[ProductKind.STRONG].right_count) == (82, 58)
    for report in audit.reports:
        assert not report.psi_is_isomorphism
        assert report.exists_isomorphism is False

    a, b = Atom("a"), Atom("b")
    x, y, z = Atom("x"), Atom("y"), Atom("z")
    assert audit.witness_edge == frozenset(
        {Pair(a, Pair(a, x)), Pair(a, Pair(b, y)), Pair(b, Pair(b, z))}
    )
    assert audit.witness_image == frozenset(
        {Pair(Pair(a, a), x), Pair(Pair(a, b), y), Pair(Pair(b, b), z)}
    )


def test_counterexample_factors_shape():
    g, h = counterexample_factors()
    assert (len(g.vertices), len(g.edges), rank(g)) == (2, 1, 2)
    assert (len(h.vertices), len(h.edges), rank(h)) == (3, 1, 3)


# ---------------------------------------------------------------- generator

BASE_CFG = GeneratorConfig(
    seed=7, vertex_count=(2, 4), edge_count=(1, 3), edge_size=(1, 3)
)


def test_generator_is_a_function_of_the_seed():
    assert random_hypergraph(BASE_CFG) == random_hypergraph(BASE_CFG)


def test_generator_respects_ranges():
    for seed in range(40):
        cfg = dataclasses.replace(BASE_CFG, seed=seed)
        hg = random_hypergraph(cfg)
        assert validate(hg) is None
        assert 2 <= len(hg.vertices) <= 4
        assert 1 <= len(hg.edges) <= 3
        assert all(1 <= len(e) <= min(3, len(hg.vertices)) for e in hg.edges)


def test_generator_simple_mode():
    """Simple mode yields simple hypergraphs.  Some seeds dead-end (for
    example a 3-set drawn first blocks every 2-subset) and raise
    InfeasibleError; callers step the seed, as the fuzz harness does."""
    cfg = GeneratorConfig(
        seed=3, vertex_count=(2, 4), edge_count=(1, 3), edge_size=(1, 3),
        require_simple=True,
    )
    produced = 0
    for seed in range(40):
        try:
            hg = random_hypergraph(dataclasses.replace(cfg, seed=seed))
        except InfeasibleError:
            continue
        produced += 1
        assert is_simple(hg)
        assert len(hg.edges) >= 1
    assert produced >= 30


def test_generator_infeasible_demand():
    cfg = GeneratorConfig(seed=1, vertex_count=(2, 2), edge_count=(5, 5), edge_size=(2, 2))
    with pytest.raises(InfeasibleError):
        random_hypergraph(cfg)


def test_config_validation():
    good = dict(seed=0, vertex_count=(1, 2), edge_count=(0, 1), edge_size=(1, 2))
    GeneratorConfig(**good)
    bad_cases = [
        dict(good, seed=-1),
        dict(good, seed=2**64),
        dict(good, vertex_count=(3, 2)),
        dict(good, edge_count=(-1, 1)),
        dict(good, edge_size=(0, 2)),
        dict(good, edge_size=(2, 2), vertex_count=(1, 3), edge_count=(1, 1)),
    ]
    for case in bad_cases:
        with pytest.raises(ValueError):
            GeneratorConfig(**case)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, vertex_count=(1, 2), edge_count=(1, 1),
                        edge_size=(1, 1), require_simple=True)


def test_derive_seed_is_stable_and_order_sensitive():
    assert derive_seed(42, 0, 0, 0) == 11291085028235688496
    assert derive_seed(7) == 7
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 2)


# ---------------------------------------------------------------- fuzzing

FUZZ_CFG = GeneratorConfig(
    seed=42, vertex_count=(2, 3), edge_count=(1, 2), edge_size=(1, 3)
)


def test_fuzz_finds_no_failures_for_associative_kinds():
    for kind in (ProductKind.DIRMIN, ProductKind.NORMAL):
        report = fuzz_law(kind, "associativity", FUZZ_CFG, trials=40)
        assert report.failure_count == 0
        assert report.minimal is None


def test_fuzz_finds_small_dirmax_failures():
    report = fuzz_law(ProductKind.DIRMAX, "associativity", FUZZ_CFG, trials=60)
    assert report.failure_count > 0
    minimal = report.minimal
    assert minimal is not None
    assert not minimal.report.psi_is_isomorphism
    assert minimal.report.witness_edge is not None
    total_vertices = sum(s.vertices for s in minimal.report.factor_summaries)
    assert total_vertices <= 7  # a (2,2,3)-sized split exists, nothing larger is minimal
    # the minimal failure is reproducible from its recorded factor seeds
    factors = [
        random_hypergraph(dataclasses.replace(FUZZ_CFG, seed=s))
        for s in minimal.factor_seeds
    ]
    replay = check_associativity(ProductKind.DIRMAX, *factors)
    assert replay == minimal.report


def test_fuzz_commutativity_is_clean():
    for kind in ProductKind:
        report = fuzz_law(kind, "commutativity", FUZZ_CFG, trials=25)
        assert report.failure_count == 0


def test_fuzz_is_deterministic_and_parallel_invariant():
    serial = fuzz_law(ProductKind.DIRMAX, "associativity", FUZZ_CFG, trials=12)
    again = fuzz_law(ProductKind.DIRMAX, "associativity", FUZZ_CFG, trials=12)
    parallel = fuzz_law(ProductKind.DIRMAX, "associativity", FUZZ_CFG, trials=12, jobs=2)
    assert serial == again == parallel
    assert format_fuzz_report(serial) == format_fuzz_report(parallel)


def test_fuzz_keeps_no_passing_report(monkeypatch):
    """A passing report dies with its trial: none is alive when a trial
    returns, so none is kept or pickled, whatever the trial count."""
    alive = most = 0  # passing reports alive now, and at most after a trial
    run_trial = checker._run_trial

    class CountedReport(checker.LawReport):
        # A tuple takes no weak reference: count lives from __new__ to __del__.
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            nonlocal alive
            report = super().__new__(cls, *args, **kwargs)
            alive += report.psi_is_isomorphism
            return report

        def __del__(self):
            nonlocal alive
            alive -= self.psi_is_isomorphism

    def tracked(task):
        nonlocal most
        outcome = run_trial(task)
        most = max(most, alive)
        return outcome

    monkeypatch.setattr(checker, "LawReport", CountedReport)
    monkeypatch.setattr(checker, "_run_trial", tracked)
    report = fuzz_law(ProductKind.DIRMAX, "associativity", FUZZ_CFG, trials=60)
    assert 0 < report.failure_count < 60
    assert all(type(f.report) is CountedReport for f in report.failures)
    assert most == 0


def test_fuzz_rejects_unknown_law():
    with pytest.raises(ValueError):
        fuzz_law(ProductKind.DIRMAX, "distributivity", FUZZ_CFG, trials=1)


def test_fuzz_rejects_unknown_law_before_any_trial(monkeypatch):
    """The law is checked on entry: with no trial to run too, and before
    a factor is drawn."""
    monkeypatch.setattr(checker, "_draw_factor", None)  # a draw would raise TypeError
    for trials in (0, 3):
        with pytest.raises(ValueError, match="unknown law 'assoc'"):
            fuzz_law(ProductKind.DIRMAX, "assoc", FUZZ_CFG, trials=trials)


# ---------------------------------------------------------------- renderers

def test_law_report_rendering(single_edge_factors):
    g, h = single_edge_factors
    report = check_associativity(ProductKind.DIRMAX, g, g, h, full_iso=True)
    text = format_law_report(report)
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    assert lines["law"] == "associativity"
    assert lines["kind"] == "dirmax"
    assert lines["left_count"] == "36"
    assert lines["right_count"] == "12"
    assert lines["psi_iso"] == "false"
    assert lines["full_iso"] == "false"
    assert lines["witness"] != "none"

    payload = law_report_dict(report)
    assert set(payload) == {
        "kind", "law", "left_count", "right_count", "psi_iso", "full_iso", "witness",
    }
    assert payload["kind"] == "dirmax"
    assert json.loads(json.dumps(payload)) == payload


def test_fuzz_report_rendering():
    report = fuzz_law(ProductKind.DIRMAX, "associativity", FUZZ_CFG, trials=20)
    text = format_fuzz_report(report)
    assert "seed: 42" in text
    assert "trials: 20" in text
    payload = fuzz_report_dict(report)
    assert payload["failure_count"] == report.failure_count
    assert json.loads(json.dumps(payload)) == payload
