import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

import hgprod
import strategies as stg
from hgprod import (
    Atom,
    Pair,
    atoms,
    edge_key,
    format_edge,
    format_label,
    from_tokens,
    hypergraph,
    is_simple,
    label_key,
    rank,
    validate,
)


# ---------------------------------------------------------------- labels

def test_atom_rejects_unusable_names():
    for bad in ["", "a b", "a,b", "(a", "b)", "a\tb", "a\xa0b", "a\u2003b", "a\x1cb", "a\x85b"]:
        with pytest.raises(ValueError):
            Atom(bad)


def test_label_ordering_atoms_before_pairs():
    a, b = Atom("a"), Atom("b")
    assert label_key(a) < label_key(b)
    assert label_key(b) < label_key(Pair(a, a))
    assert label_key(Pair(a, b)) < label_key(Pair(b, a))
    # nesting compares recursively
    assert label_key(Pair(a, Pair(a, b))) < label_key(Pair(b, a))


def test_format_label_nested():
    assert format_label(Atom("x1")) == "x1"
    assert format_label(Pair(Atom("a"), Atom("x"))) == "(a,x)"
    inner = Pair(Atom("b"), Pair(Atom("y"), Atom("z")))
    assert format_label(inner) == "(b,(y,z))"


def test_label_hash_is_the_hash_of_its_fields():
    # The value a generated dataclass hash gives, so set layouts stay put.
    a, b = Atom("a"), Pair(Atom("b"), Atom("c"))
    assert hash(Atom("a")) == hash(("a",))
    assert hash(Pair(a, b)) == hash((a, b))
    assert hash(Pair(b, a)) == hash((b, a))


NESTED = "Pair(Pair(Atom('a'), Atom('bb')), Pair(Atom('c'), Pair(Atom('a'), Atom('d'))))"


def _python(code: str, hash_seed: str, stdin: str = "") -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": str(Path(hgprod.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_pickled_labels_rehash_in_a_process_with_another_hash_seed():
    head = "import pickle, sys\nfrom hgprod import Atom, Pair\n"
    dumped = _python(head + f"sys.stdout.write(pickle.dumps(({NESTED}, Atom('bb'))).hex())", "1")
    found = _python(
        head
        + "label, atom = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        + f"fresh = {{{NESTED}, Atom('bb'), Atom('zz')}}\n"
        + "print(label in fresh, atom in fresh, hash(label) == hash(" + NESTED + "))",
        "2",
        stdin=dumped,
    )
    assert found.split() == ["True", "True", "True"]


def test_edge_key_orders_by_size_then_members():
    a, b, c = atoms("a b c")
    small = frozenset({c})
    big = frozenset({a, b})
    assert edge_key(small) < edge_key(big)  # size first
    assert edge_key(frozenset({a, c})) < edge_key(frozenset({b, c}))
    assert format_edge(frozenset({b, a})) == "a b"


# ---------------------------------------------------------------- construction

def test_builders_agree():
    g1 = from_tokens("a b c", ["a b", "b c"])
    g2 = hypergraph(atoms("a b c"), [frozenset(atoms("a b")), frozenset(atoms("b c"))])
    assert g1 == g2


def test_equality_ignores_presentation_order():
    assert from_tokens("a b", ["a b"]) == from_tokens("b a", ["b a"])


def test_validate_accepts_running_example(single_edge_factors):
    g, h = single_edge_factors
    assert validate(g) is None
    assert validate(h) is None


def test_validate_flags_foreign_vertex():
    a, b, c = atoms("a b c")
    bad = hypergraph([a, b], [frozenset({a, c})])
    msg = validate(bad)
    assert msg is not None and "not subset" in msg


def test_validate_flags_empty_edge():
    bad = hypergraph(atoms("a"), [frozenset()])
    msg = validate(bad)
    assert msg is not None and "empty" in msg


def test_validate_names_the_first_offending_edge_in_edge_order():
    a, b, c, d = atoms("a b c d")
    assert validate(hypergraph([a], [{a, c}, frozenset()])) == "empty edge"
    assert validate(hypergraph([a, b], [{a, d}, {c}, {a, b}])) == "edge not subset of vertices: {c}"


# ---------------------------------------------------------------- invariants

def test_rank_and_simplicity():
    h = from_tokens("x y z", ["x y z"])
    assert rank(h) == 3
    assert is_simple(h)

    edgeless = from_tokens("x y", [])
    assert rank(edgeless) == 0
    assert is_simple(edgeless)

    nested = from_tokens("x y z", ["x y", "x y z"])
    assert rank(nested) == 3
    assert not is_simple(nested)  # {x,y} sits inside {x,y,z}

    single = from_tokens("x", ["x"])
    assert not is_simple(single)  # singleton edge


# ---------------------------------------------------------------- properties

@given(stg.hypergraphs(labels=stg.any_labels))
def test_validate_passes_for_built_instances(h):
    assert validate(h) is None


@given(stg.hypergraphs())
def test_relabeling_preserves_invariants(h):
    """Rank and simplicity cannot depend on vertex names."""
    fresh = {v: Atom(f"r{i}") for i, v in enumerate(sorted(h.vertices, key=label_key))}
    image = hypergraph(
        fresh.values(),
        [frozenset(fresh[v] for v in e) for e in h.edges],
    )
    assert rank(image) == rank(h)
    assert is_simple(image) == is_simple(h)
