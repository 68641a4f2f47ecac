"""The result records' contract: repr, hash, pickling, keyword
construction and the checks of LawReport and IsoResult.  The repr literals
were recorded while the records were still frozen dataclasses, so they pin
field names and order as well."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import hgprod
from hgprod import (
    Atom,
    CounterexampleAudit,
    CountReport,
    FactorSummary,
    FuzzReport,
    IsoResult,
    LawReport,
    Pair,
    ProductKind,
    TrialFailure,
    from_tokens,
)

SUMMARY = FactorSummary(2, 1, 2)
EDGE = frozenset({Pair(Atom("a"), Atom("x"))})
FAILING = LawReport(ProductKind.DIRMAX, "associativity", 36, 12, False, False, EDGE, (SUMMARY, SUMMARY))
PASSING = LawReport(ProductKind.CARTESIAN, "commutativity", 4, 4, True, None, None, (SUMMARY,))
TRIAL = TrialFailure(4, (7, 8, 9), FAILING)

_SUMMARY = "FactorSummary(vertices=2, edges=1, rank=2)"
_FAILING = (
    "LawReport(kind=<ProductKind.DIRMAX: 'dirmax'>, law='associativity', left_count=36,"
    " right_count=12, psi_is_isomorphism=False, exists_isomorphism=False,"
    f" witness_edge=frozenset({{Pair(Atom('a'), Atom('x'))}}), factor_summaries=({_SUMMARY}, {_SUMMARY}))"
)
_TRIAL = f"TrialFailure(trial=4, factor_seeds=(7, 8, 9), report={_FAILING})"

# Each record with its repr.
RECORDS = [
    (from_tokens("a b c", ["a b", "b c"]), "Hypergraph([a b c], [a b; b c])"),
    (
        IsoResult(True, {Atom("a"): Atom("x")}, 2),
        "IsoResult(isomorphic=True, witness={Atom('a'): Atom('x')}, nodes_explored=2)",
    ),
    (IsoResult(False, None, 3), "IsoResult(isomorphic=False, witness=None, nodes_explored=3)"),
    (SUMMARY, _SUMMARY),
    (FAILING, _FAILING),
    (
        PASSING,
        "LawReport(kind=<ProductKind.CARTESIAN: 'cartesian'>, law='commutativity', left_count=4,"
        " right_count=4, psi_is_isomorphism=True, exists_isomorphism=None, witness_edge=None,"
        f" factor_summaries=({_SUMMARY},))",
    ),
    (
        CounterexampleAudit((FAILING,), EDGE, frozenset({Pair(Atom("b"), Atom("y"))})),
        f"CounterexampleAudit(reports=({_FAILING},), witness_edge=frozenset({{Pair(Atom('a'), Atom('x'))}}),"
        " witness_image=frozenset({Pair(Atom('b'), Atom('y'))}))",
    ),
    (TRIAL, _TRIAL),
    (
        FuzzReport(ProductKind.DIRMAX, "associativity", 5, 10, (TRIAL,), TRIAL),
        "FuzzReport(kind=<ProductKind.DIRMAX: 'dirmax'>, law='associativity', seed=5, trials=10,"
        f" failures=({_TRIAL},), minimal={_TRIAL})",
    ),
    (
        FuzzReport(ProductKind.NORMAL, "commutativity", 5, 0, (), None),
        "FuzzReport(kind=<ProductKind.NORMAL: 'normal'>, law='commutativity', seed=5, trials=0,"
        " failures=(), minimal=None)",
    ),
    (
        CountReport(ProductKind.STRONG, 82, 81),
        "CountReport(kind=<ProductKind.STRONG: 'strong'>, formula_count=82, enumerated_count=81)",
    ),
]

_IDS = [f"{type(r).__name__}{i}" for i, (r, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record,text", RECORDS, ids=_IDS)
def test_record_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=_IDS)
def test_record_is_its_field_tuple(record, text):
    values = tuple(record)
    assert values == tuple(getattr(record, name) for name in record._fields)
    assert record == values
    assert type(record)(**record._asdict()) == record  # keyword construction
    if not isinstance(record, IsoResult) or record.witness is None:  # a dict does not hash
        assert hash(record) == hash(values)


@pytest.mark.parametrize("record,text", RECORDS, ids=_IDS)
def test_record_pickles_to_an_equal_record(record, text):
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record) and again == record


@pytest.mark.parametrize("cls,values,message", [
    (LawReport, (ProductKind.DIRMAX, "associativity", 3, 4, True, None, None, ()), "equal edge counts"),
    (LawReport, (ProductKind.DIRMAX, "associativity", 3, 3, True, None, EDGE, ()), "failed map verdict"),
    (LawReport, (ProductKind.DIRMAX, "associativity", 3, 3, True, False, None, ()), "non-isomorphism"),
    (IsoResult, (True, None, 0), "witness must be present"),
    (IsoResult, (False, {}, 0), "witness must be present"),
])
def test_checked_records_recheck_when_unpickled_or_replaced(cls, values, message):
    # tuple.__new__ skips the checks, so the record below was never valid.
    broken = pickle.dumps(tuple.__new__(cls, values))
    with pytest.raises(ValueError, match=message):
        pickle.loads(broken)
    valid = FAILING if cls is LawReport else IsoResult(False, None, 0)
    with pytest.raises(ValueError, match=message):
        valid._replace(**dict(zip(cls._fields, values)))


def test_only_labels_and_the_generator_config_are_dataclasses():
    """A dataclass generates and execs its methods on import, about 0.9 ms
    a class against 0.11 ms for a typing.NamedTuple: results are records."""
    found = set()
    for info in pkgutil.iter_modules(hgprod.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"hgprod.{info.name}")
        found |= {
            f"{info.name}.{name}"
            for name, value in vars(module).items()
            if inspect.isclass(value) and value.__module__ == module.__name__
            and dataclasses.is_dataclass(value)
        }
    assert found == {"core.Atom", "core.Pair", "checker.GeneratorConfig"}, (
        f"dataclasses in hgprod: {sorted(found)}; each @dataclass costs about 0.9 ms"
        " of import time in generated code, so make a result record a typing.NamedTuple"
    )
