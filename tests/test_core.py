import copy
import dataclasses
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


def test_atom_messages_are_pinned():
    with pytest.raises(ValueError, match=r"^atom token must be non-empty$"):
        Atom("")
    with pytest.raises(ValueError, match=r"^atom token 'a,b' contains forbidden character$"):
        Atom("a,b")


def test_labels_take_their_fields_by_keyword():
    a, b = Atom("a"), Atom("b")
    assert Atom(name="a") == a
    assert Pair(left=a, right=b) == Pair(a, right=b) == Pair(a, b) != Pair(b, a)
    assert hash(Pair(left=a, right=b)) == hash((a, b))


@pytest.mark.parametrize("args,kwargs", [((), {}), (("a", "b"), {}), ((), {"token": "a"})])
def test_atom_takes_exactly_its_name(args, kwargs):
    with pytest.raises(TypeError):
        Atom(*args, **kwargs)


@pytest.mark.parametrize("args", [(), (Atom("a"),), (Atom("a"), Atom("b"), Atom("c"))])
def test_pair_takes_exactly_left_and_right(args):
    with pytest.raises(TypeError):
        Pair(*args)


@pytest.mark.parametrize("label,field", [(Atom("a"), "name"), (Pair(Atom("a"), Atom("b")), "left"),
                                         (Pair(Atom("a"), Atom("b")), "right")])
def test_labels_are_frozen(label, field):
    before = getattr(label, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(label, field, Atom("z"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(label, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        label._hash = 0
    assert getattr(label, field) is before


def test_replace_and_copies_rebuild_nested_labels():
    a, b, c = atoms("a b c")
    inner = Pair(b, c)
    label = Pair(a, Pair(inner, a))
    assert [f.name for f in dataclasses.fields(label)] == ["left", "right"]
    assert dataclasses.fields(Atom("a"))[0].name == "name"
    moved = dataclasses.replace(label, left=inner)
    assert moved == Pair(inner, Pair(inner, a)) and hash(moved) == hash((inner, label.right))
    assert dataclasses.replace(a, name="z") == Atom("z")
    with pytest.raises(ValueError, match="forbidden character"):
        dataclasses.replace(a, name="a b")
    assert copy.copy(label) == label and copy.copy(label).right is label.right
    deep = copy.deepcopy(label)
    assert deep == label and hash(deep) == hash(label) and repr(deep) == repr(label)
    assert deep.right is not label.right and deep.right.left == inner


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
