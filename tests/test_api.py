"""The public surface: each name is declared once, in the module that
defines it, and the package republishes exactly those names."""

import importlib
import inspect

import hgprod

MODULES = ("checker", "core", "counting", "hgio", "iso", "products")

PUBLIC = [
    "ASSOCIATIVE_KINDS",
    "Atom",
    "COUNTABLE_KINDS",
    "CountReport",
    "CounterexampleAudit",
    "CounterexampleMismatch",
    "DIRECT_KINDS",
    "Edge",
    "FactorSummary",
    "FuzzReport",
    "GeneratorConfig",
    "HgParseError",
    "Hypergraph",
    "InfeasibleError",
    "IsoBoundError",
    "IsoResult",
    "Label",
    "LawReport",
    "Pair",
    "PreconditionError",
    "ProductKind",
    "TrialFailure",
    "are_isomorphic",
    "atoms",
    "cartesian",
    "cartesian_edge_count",
    "check_associativity",
    "check_commutativity",
    "check_lemma1",
    "counterexample_audit",
    "counterexample_factors",
    "derive_seed",
    "dirmax",
    "dirmax_edge_count",
    "dirmin",
    "dirnon",
    "edge_key",
    "edge_pair_product",
    "format_edge",
    "format_fuzz_report",
    "format_label",
    "format_law_report",
    "from_tokens",
    "fuzz_law",
    "fuzz_report_dict",
    "hypergraph",
    "is_simple",
    "label_key",
    "law_report_dict",
    "normal",
    "parse_hg",
    "parse_label",
    "product",
    "random_hypergraph",
    "rank",
    "regroup_right_to_left",
    "serialize_hg",
    "sorted_members",
    "stirling2",
    "strong",
    "strong_edge_count",
    "summarize",
    "swap_map",
    "validate",
    "verify_count",
]


def test_the_package_publishes_the_pinned_names_in_sorted_order():
    assert hgprod.__all__ == PUBLIC


def test_each_public_name_is_declared_once_where_it_is_defined():
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"hgprod.{name}")
        for public in module.__all__:
            assert public not in owner, f"{public} is declared by {owner[public]} and {name}"
            owner[public] = name
            value = getattr(module, public)
            # Edge is another name for frozenset, a builtin that hgprod does not define.
            if (inspect.isclass(value) or inspect.isfunction(value)) and value.__module__ != "builtins":
                assert value.__module__ == module.__name__, f"{name} declares {public} from {value.__module__}"


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from hgprod import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
