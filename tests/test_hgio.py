import pytest
from hypothesis import given

import strategies as stg
from hgprod import (
    Atom,
    HgParseError,
    Hypergraph,
    Pair,
    from_tokens,
    parse_hg,
    parse_label,
    serialize_hg,
)
from hgprod.hgio import _MAX_LABEL_PAIRS


def test_parse_basic():
    text = "vertices: a b c\nedge: a b\nedge: b c\n"
    assert parse_hg(text) == from_tokens("a b c", ["a b", "b c"])


def test_parse_tolerates_comments_and_blanks():
    text = "# a path\n\nvertices: a b c\n# middle comment\nedge: a b\n\nedge: b c\n"
    assert parse_hg(text) == from_tokens("a b c", ["a b", "b c"])


def test_parse_pair_labels():
    text = "vertices: (a,x) (a,(b,y))\nedge: (a,x) (a,(b,y))\n"
    u = Pair(Atom("a"), Atom("x"))
    v = Pair(Atom("a"), Pair(Atom("b"), Atom("y")))
    hg = parse_hg(text)
    assert hg.vertices == frozenset({u, v})
    assert hg.edges == frozenset({frozenset({u, v})})


def _nested(depth: int) -> str:
    return "(" * depth + "a" + ",b)" * depth  # ((a,b),b) for depth 2


def test_parse_label_nested():
    assert parse_label("a") == Atom("a")
    assert parse_label("(a,b)") == Pair(Atom("a"), Atom("b"))
    assert parse_label("((a,b),c)") == Pair(Pair(Atom("a"), Atom("b")), Atom("c"))
    for bad in ["", "(a,b", "(a)", "a,b", "(a,b))", "(,b)", _nested(_MAX_LABEL_PAIRS + 1)]:
        with pytest.raises(ValueError):
            parse_label(bad)


def test_labels_at_the_nesting_bound_compare_two_levels_deeper():
    deep = parse_label(_nested(_MAX_LABEL_PAIRS))
    again = parse_label(_nested(_MAX_LABEL_PAIRS))
    assert deep is not again
    assert Pair(Pair(deep, deep), deep) == Pair(Pair(again, again), again)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("edge: a b\nvertices: a b\n", "edge before vertices", 1),
        ("vertices: a\nvertices: a\n", "duplicate vertices", 2),
        ("vertices: a b\nedge: a q\n", "unknown vertex", 2),
        ("vertices: a\nedge:\n", "no members", 2),
        ("vertices: a\nwhat: a\n", "expected", 2),
        ("vertices: a (b\n", "bad label", 1),
        ("vertices: a b\nedge: a (b\n", "bad label", 2),
        ("vertices: a a)\n", "bad label", 1),
        ("vertices: a,b\n", "bad label", 1),
        (f"# nested\nvertices: c {_nested(1500)}\n", "bad label", 2),
    ]
    for text, fragment, lineno in cases:
        with pytest.raises(HgParseError) as err:
            parse_hg(text)
        assert fragment in str(err.value)
        assert err.value.line == lineno
        assert f"line {lineno}:" in str(err.value)


@pytest.mark.parametrize("text, fragment", [
    (f"vertices: c {_nested(1500)}\n", "bad label '(((("),
    (f"vertices: c (a,b){')' * 3000}\n", "trailing input after label: ')))"),
    (f"vertices: c\nedge: c {_nested(150)}\n", "unknown vertex '(((("),
    (f"vertices: c\nwhat: {'c ' * 3000}\n", "got 'what:"),
], ids=["bad label", "trailing input", "unknown vertex", "bad line"])
def test_errors_quote_at_most_40_characters_of_a_token(text, fragment):
    with pytest.raises(HgParseError) as err:
        parse_hg(text)
    message = str(err.value)
    assert fragment in message and "chars)" in message
    assert len(message) < 200


def test_missing_vertices_line():
    with pytest.raises(HgParseError) as err:
        parse_hg("# nothing but comments\n")
    assert "missing vertices" in str(err.value)
    assert err.value.line is None


def test_serialize_is_canonical():
    hg = from_tokens("c a b", ["b c", "a b", "c"])
    assert serialize_hg(hg) == "vertices: a b c\nedge: c\nedge: a b\nedge: b c\n"


def test_serialize_unvalidated_hypergraph():
    a, c = Atom("a"), Atom("c")
    hg = Hypergraph(frozenset({a}), frozenset({frozenset({a, Atom("b")}), frozenset({Pair(a, c)})}))
    assert serialize_hg(hg) == "vertices: a\nedge: (a,c)\nedge: a b\n"


def test_serialize_orders_mixed_labels():
    text = (
        "vertices: ((a,b),x) (a,(b,y)) a2 (a,x) a10\n"
        "edge: (a,x) a10 a2\nedge: a2 (a,x)\nedge: ((a,b),x) a10\nedge: (a,(b,y))\n"
    )
    assert serialize_hg(parse_hg(text)) == (
        "vertices: a10 a2 (a,x) (a,(b,y)) ((a,b),x)\n"
        "edge: (a,(b,y))\n"
        "edge: a10 ((a,b),x)\n"
        "edge: a2 (a,x)\n"
        "edge: a10 a2 (a,x)\n"
    )


def test_serialize_empty():
    assert serialize_hg(from_tokens("", [])) == "vertices:\n"


def test_round_trip_of_noncanonical_text():
    scrambled = "vertices: b a\nedge: b a\n"
    hg = parse_hg(scrambled)
    canon = serialize_hg(hg)
    assert canon == "vertices: a b\nedge: a b\n"
    assert parse_hg(canon) == hg


@given(stg.hypergraphs(labels=stg.any_labels))
def test_serialize_parse_round_trip(h):
    assert parse_hg(serialize_hg(h)) == h


@given(stg.hypergraphs(labels=stg.any_labels))
def test_serialization_is_idempotent(h):
    once = serialize_hg(h)
    assert serialize_hg(parse_hg(once)) == once
