import concurrent.futures
import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import hgprod.checker
import hgprod.cli
import hgprod.counting
import hgprod.products
import strategies as stg
from oracles import relabel
from hgprod import (
    Atom,
    HgParseError,
    InfeasibleError,
    Pair,
    ProductKind,
    cartesian,
    format_label,
    from_tokens,
    label_key,
    parse_hg,
    product,
    serialize_hg,
    strong,
)
from hgprod.cli import main
from hgprod.hgio import _MAX_LABEL_PAIRS

G_TEXT = "vertices: a b\nedge: a b\n"
H_TEXT = "vertices: x y z\nedge: x y z\n"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def files(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def gh(files):
    return files("g.hg", G_TEXT), files("h.hg", H_TEXT)


# ---------------------------------------------------------------- product

def test_product_to_stdout(run, gh):
    g, h = gh
    code, out, err = run("product", "--kind", "cartesian", g, h)
    assert code == 0 and err == ""
    expected = cartesian(from_tokens("a b", ["a b"]), from_tokens("x y z", ["x y z"]))
    assert out == serialize_hg(expected)


def test_product_to_file(run, gh, tmp_path):
    g, h = gh
    out_path = tmp_path / "out.hg"
    code, out, _ = run("product", "--kind", "strong", g, h, "-o", str(out_path))
    assert code == 0 and out == ""
    expected = strong(from_tokens("a b", ["a b"]), from_tokens("x y z", ["x y z"]))
    assert out_path.read_text(encoding="utf-8") == serialize_hg(expected)


def test_product_flatten_emits_legend_and_parses(run, gh):
    g, h = gh
    code, out, _ = run("product", "--kind", "cartesian", g, h, "--flatten")
    assert code == 0
    legend = [line for line in out.splitlines() if line.startswith("#")]
    assert legend[0] == "# v0 = (a,x)"
    assert len(legend) == 6
    flattened = parse_hg(out)  # comment lines are ignored by the parser
    names = {label.name for label in flattened.vertices}
    assert names == {f"v{i}" for i in range(6)}
    expected = cartesian(from_tokens("a b", ["a b"]), from_tokens("x y z", ["x y z"]))
    assert len(flattened.edges) == len(expected.edges)


def test_product_flatten_bytes_are_pinned(run, files):
    """12 vertices, so the renamed atoms sort as strings (v10 before v2),
    not in the order of the pairs they stand for."""
    g = files("g3.hg", "vertices: a b c\nedge: a b\n")
    h = files("h4.hg", "vertices: w x y z\nedge: x y\n")
    legend = [f"# v{i} = ({a},{b})" for i, (a, b) in enumerate((a, b) for a in "abc" for b in "wxyz")]
    assert run("product", "--kind", "strong", g, h, "--flatten") == (
        0,
        "\n".join(legend) + "\n"
        "vertices: v0 v1 v10 v11 v2 v3 v4 v5 v6 v7 v8 v9\n"
        "edge: v0 v4\nedge: v1 v2\nedge: v1 v5\nedge: v1 v6\nedge: v10 v9\n"
        "edge: v2 v5\nedge: v2 v6\nedge: v3 v7\nedge: v5 v6\n",
        "",
    )


def relabelled_flatten(hg) -> str:
    """--flatten by relabelling the labelled product: the legend, then the
    product with its vertices renamed v0..vn in label order."""
    ordered = sorted(hg.vertices, key=label_key)
    legend = "".join(f"# v{i} = {format_label(v)}\n" for i, v in enumerate(ordered))
    return legend + serialize_hg(relabel(hg, {v: Atom(f"v{i}") for i, v in enumerate(ordered)}))


flatten_factors = stg.hypergraphs(max_vertices=5, max_edges=3, max_edge_size=3, labels=stg.any_labels).filter(
    lambda hg: len(hg.vertices) >= 4
)


@pytest.mark.parametrize("kind", [k.value for k in ProductKind])
@given(h1=flatten_factors, h2=flatten_factors)
def test_product_flatten_is_the_relabelled_library_product(tmp_path_factory, kind, h1, h2):
    """At least 16 vertices, so v10 and up sort among the one-digit names."""
    a, b = _factor_files(tmp_path_factory, h1, h2)
    assert _cli("product", "--kind", kind, a, b, "--flatten") == (0, relabelled_flatten(product(kind, h1, h2)))


@pytest.mark.parametrize("flatten", [[], ["--flatten"]])
def test_product_unwritable_output_exits_2_with_one_error_line(run, gh, tmp_path, flatten):
    g, h = gh
    target = tmp_path / "missing" / "out.hg"
    code, out, err = run("product", "--kind", "cartesian", g, h, "-o", str(target), *flatten)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err


# ---------------------------------------------------------------- count

def test_count_formula_only(run, gh):
    g, h = gh
    code, out, _ = run("count", "--kind", "dirmax", g, h)
    assert code == 0
    assert "formula_count: 6" in out
    assert "enumerated_count" not in out


def test_count_without_verify_builds_no_product(run, files, monkeypatch):
    def refuse(*args):
        raise AssertionError("count enumerated the product without --verify")

    # count --verify enumerates through ranked_product; every product,
    # labelled or ranked, takes its edges from products._edges.
    monkeypatch.setattr(hgprod.counting, "ranked_product", refuse)
    monkeypatch.setattr(hgprod.products, "_edges", refuse)
    g = files("g8.hg", "vertices: a b c d e f g h\nedge: a b c d e f g h\n")
    h = files("h7.hg", "vertices: p q r s t u v\nedge: p q r s t u v\n")
    assert run("count", "--kind", "dirmax", g, h) == (0, "kind: dirmax\nformula_count: 141120\n", "")
    code, out, err = run("count", "--kind", "dirmax", g, h, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps({"kind": "dirmax", "formula_count": 141120}, indent=2) + "\n"


def test_count_verify_agreement(run, gh):
    g, h = gh
    code, out, _ = run("count", "--kind", "strong", g, h, "--verify")
    assert code == 0
    assert "formula_count: 11" in out
    assert "enumerated_count: 11" in out
    assert "agreement: true" in out


def test_count_verify_disagreement_exits_1(run, files):
    loop = files("loop.hg", "vertices: a\nedge: a\n")
    code, out, _ = run("count", "--kind", "cartesian", loop, loop, "--verify")
    assert code == 1
    assert "agreement: false" in out


def test_count_json(run, gh):
    g, h = gh
    code, out, _ = run("count", "--kind", "dirmax", g, h, "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "dirmax",
        "formula_count": 6,
        "enumerated_count": 6,
        "agreement": True,
    }


@pytest.mark.parametrize("kind", ["dirmax", "strong"])
def test_count_closed_form_of_a_1200_member_edge(run, files, kind):
    """2! * S(1200, 2) = 2^1200 - 2 pairs, plus 1,202 cartesian edges for
    strong; S was computed recursively, which ran out of stack near 1,000
    members."""
    formula = {"dirmax": 2**1200 - 2, "strong": 2**1200 + 1200}[kind]
    names = " ".join(f"v{i}" for i in range(1200))
    big = files("big.hg", f"vertices: {names}\nedge: {names}\n")
    code, out, err = run("count", "--kind", kind, big, files("g.hg", G_TEXT))
    assert (code, out, err) == (0, f"kind: {kind}\nformula_count: {formula}\n", "")


def _decimal_value(digits: str) -> int:
    """The value of a decimal string, read in pieces below Python's
    int/str digit limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i : i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_count_prints_a_closed_form_of_more_than_4300_digits(run, files):
    """1700! * S(1700, 1700) = 1700!, 4,755 digits: past the default limit
    of Python's int-to-str conversion, which used to end in a traceback."""
    names = " ".join(f"v{i}" for i in range(1700))
    big = files("big.hg", f"vertices: {names}\nedge: {names}\n")
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run("count", "--kind", "dirmax", big, big)
    assert (code, err) == (0, "")
    head, digits = out.removesuffix("\n").split("formula_count: ")
    assert head == "kind: dirmax\n" and _decimal_value(digits) == math.factorial(1700)
    code, out, err = run("count", "--kind", "dirmax", big, big, "--json")
    assert (code, err) == (0, "")
    head, digits = out.removesuffix("\n}\n").split('"formula_count": ')
    assert head == '{\n  "kind": "dirmax",\n  ' and _decimal_value(digits) == math.factorial(1700)
    assert get_limit() == limit  # lifted only around the conversion


# ---------------------------------------------------------------- rank path
#
# product (without --flatten), fmt and count --verify run on integer ranks
# and never build the product's labels; each must print what the library
# results give.

def _cli(*argv) -> tuple[int, str]:
    """main in-process with stdout captured (no fixtures, for hypothesis)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _factor_files(tmp_path_factory, *factors) -> list[str]:
    folder = tmp_path_factory.mktemp("factors")
    paths = [folder / f"f{i}.hg" for i in range(len(factors))]
    for path, hg in zip(paths, factors):
        path.write_text(serialize_hg(hg), encoding="utf-8")
    return [str(path) for path in paths]


nested_factors = stg.hypergraphs(max_vertices=4, max_edges=3, labels=stg.any_labels)


@pytest.mark.parametrize("kind", [k.value for k in ProductKind])
@given(h1=nested_factors, h2=nested_factors)
def test_product_stdout_is_the_serialized_library_product(tmp_path_factory, kind, h1, h2):
    a, b = _factor_files(tmp_path_factory, h1, h2)
    assert _cli("product", "--kind", kind, a, b) == (0, serialize_hg(product(kind, h1, h2)))


@given(stg.hypergraphs(max_vertices=6, labels=stg.any_labels), st.randoms(use_true_random=False))
def test_fmt_is_serialize_of_parse(tmp_path_factory, h, rnd):
    """On texts with shuffled lines and tokens, tokens repeated within an
    edge or the vertices line, repeated edges and comments."""
    tokens = [format_label(v) for v in h.vertices]
    lines = ["# " + " ".join(tokens)]
    for e in h.edges:
        members = [format_label(v) for v in e]
        members += rnd.choices(members, k=rnd.randint(0, 2))
        rnd.shuffle(members)
        lines += ["edge: " + " ".join(members)] * rnd.randint(1, 2)
        lines.append(rnd.choice(["#", "", "  # " + members[0]]))
    rnd.shuffle(lines)
    rnd.shuffle(tokens)
    vertex_line = "vertices: " + " ".join(tokens + rnd.choices(tokens, k=rnd.randint(0, 2)))
    text = "\n".join(["# a comment", vertex_line, *lines]) + "\n"
    path = tmp_path_factory.mktemp("fmt") / "messy.hg"
    path.write_text(text, encoding="utf-8")
    assert _cli("fmt", str(path)) == (0, serialize_hg(parse_hg(text)))


loop = from_tokens("a", ["a"])


@pytest.mark.parametrize("kind", ["cartesian", "dirmax", "strong"])
@given(h1=nested_factors, h2=nested_factors)
@example(h1=loop, h2=loop)  # {a} x {a} is generated twice: a singleton-edge collision
def test_count_verify_enumerates_the_library_product(tmp_path_factory, kind, h1, h2):
    a, b = _factor_files(tmp_path_factory, h1, h2)
    code, out = _cli("count", "--kind", kind, a, b, "--verify", "--json")
    payload = json.loads(out)
    assert payload["enumerated_count"] == len(product(kind, h1, h2).edges)
    assert code == (0 if payload["agreement"] else 1)


# ---------------------------------------------------------------- iso

def test_iso_positive(run, files):
    a = files("a.hg", "vertices: a b c\nedge: a b\nedge: b c\n")
    b = files("b.hg", "vertices: p q r\nedge: q r\nedge: p q\n")
    code, out, _ = run("iso", a, b)
    assert code == 0
    assert "isomorphic: true" in out
    assert "map: " in out


def test_iso_negative(run, files):
    a = files("a.hg", "vertices: 1 2 3 4\nedge: 1 2\nedge: 3 4\n")
    b = files("b.hg", "vertices: 1 2 3 4\nedge: 1 2\nedge: 2 3\n")
    code, out, _ = run("iso", a, b)
    assert code == 1
    assert "isomorphic: false" in out


def test_iso_json_witness_round_trip(run, files):
    a = files("a.hg", "vertices: a b\nedge: a b\n")
    b = files("b.hg", "vertices: p q\nedge: p q\n")
    code, out, _ = run("iso", a, b, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert sorted(payload["witness"]) == ["a", "b"]


def test_iso_bound_refusal_is_a_usage_error(run, files):
    tokens = " ".join(f"v{i}" for i in range(13))
    edges = "".join(f"edge: v{i} v{i+1}\n" for i in range(12))
    big = files("big.hg", f"vertices: {tokens}\n{edges}")
    code, out, err = run("iso", big, big)
    assert code == 2
    assert "exceeds the search bound" in err
    # explicit override lifts the refusal
    code, out, err = run("iso", big, big, "--max-vertices", "13")
    assert code == 0


def _cycle_text(n: int) -> str:
    return f"vertices: {' '.join(f'w{i}' for i in range(1, n + 1))}\n" + "".join(
        f"edge: w{i} w{i % n + 1}\n" for i in range(1, n + 1)
    )


ISO_FILES = {
    "h.hg": "vertices: a b c d e f x y\nedge: a b c\nedge: c d e\nedge: e f a\n",
    "img.hg": "vertices: t s y r q p w u\nedge: t s y\nedge: y r q\nedge: q p t\n",
    "c4.hg": "vertices: a b c d e f g h x y\nedge: a b c\nedge: c d e\nedge: e f g\nedge: g h a\n",
    "cc.hg": "vertices: a b c d e f g h x y\nedge: a b c\nedge: c d a\nedge: e f g\nedge: g h e\n",
    "g.hg": G_TEXT,
    "e3.hg": H_TEXT,
    "g_and_b.hg": "vertices: a b\nedge: a b\nedge: b\n",
    "c6.hg": _cycle_text(6),
    "deg3.hg": "vertices: w1 w2 w3 w4 w5 w6\nedge: w1 w2\nedge: w2 w3\nedge: w3 w1\n"
               "edge: w1 w4\nedge: w4 w5\nedge: w5 w6\n",
    "c24.hg": _cycle_text(24),
    "moved24.hg": _cycle_text(24).replace("edge: w24 w1\n", "edge: w24 w12\n"),
}

# Pairs the screens refute with no search node: unequal vertex counts,
# unequal edge counts (a screen of `hgprod iso`'s own, since are_isomorphic
# screens counts before it ranks), and unequal degrees on 6 and on 24
# vertices; the screens run before the default bound of 12.
SCREENED = [("g.hg", "e3.hg"), ("g.hg", "g_and_b.hg"), ("c6.hg", "deg3.hg"), ("c24.hg", "moved24.hg")]


@pytest.mark.parametrize(
    "pair, flags, code, stdout",
    [
        (("h.hg", "img.hg"), [], 0,
         "isomorphic: true\nnodes_explored: 3\nmap: a -> t\nmap: b -> p\nmap: c -> q\n"
         "map: d -> r\nmap: e -> y\nmap: f -> s\nmap: x -> u\nmap: y -> w\n"),
        (("h.hg", "img.hg"), ["--json"], 0,
         '{\n  "isomorphic": true,\n  "nodes_explored": 3,\n  "witness": {\n'
         '    "a": "t",\n    "b": "p",\n    "c": "q",\n    "d": "r",\n'
         '    "e": "y",\n    "f": "s",\n    "x": "u",\n    "y": "w"\n  }\n}\n'),
        (("c4.hg", "cc.hg"), [], 1, "isomorphic: false\nnodes_explored: 10\n"),
        (("c4.hg", "cc.hg"), ["--json"], 1,
         '{\n  "isomorphic": false,\n  "nodes_explored": 10,\n  "witness": null\n}\n'),
        *[(pair, [], 1, "isomorphic: false\nnodes_explored: 0\n") for pair in SCREENED],
        *[(pair, ["--json"], 1, '{\n  "isomorphic": false,\n  "nodes_explored": 0,\n  "witness": null\n}\n')
          for pair in SCREENED],
    ],
)
def test_iso_stdout_bytes_are_pinned(run, files, pair, flags, code, stdout):
    paths = [files(name, ISO_FILES[name]) for name in pair]
    assert run("iso", *paths, *flags) == (code, stdout, "")


def test_iso_root_refinement_refutation_explores_no_node(run, files):
    """Equal degree sequences pass the screens; refinement at the root
    refutes before any individualisation."""
    a = files("a.hg", "vertices: a b c d e f\nedge: a d\nedge: b c\nedge: c d\nedge: d e\nedge: e f\n")
    b = files("b.hg", "vertices: a b c d e f\nedge: a c\nedge: a e\nedge: a f\nedge: b d\nedge: c e\n")
    assert run("iso", a, b) == (1, "isomorphic: false\nnodes_explored: 0\n", "")


def test_iso_negative_bound_exits_2_on_a_screened_pair(run, files):
    """The bound is checked before the files are read, so a pair the screens
    would decide without a search is refused too."""
    a = files("a.hg", "vertices: 1 2 3 4\nedge: 1 2\nedge: 3 4\n")
    b = files("b.hg", "vertices: 1 2 3 4\nedge: 1 2\nedge: 2 3\n")
    code, out, err = run("iso", a, b, "--max-vertices", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "max-vertices" in err


# ---------------------------------------------------------------- law audits

def test_assoc_passes_for_cartesian(run, gh):
    g, h = gh
    code, out, _ = run("assoc", "--kind", "cartesian", g, g, h)
    assert code == 0
    assert "psi_iso: true" in out


def test_assoc_fails_for_dirmax(run, gh):
    g, h = gh
    code, out, _ = run("assoc", "--kind", "dirmax", g, g, h, "--full-iso")
    assert code == 1
    assert "left_count: 36" in out
    assert "right_count: 12" in out
    assert "full_iso: false" in out


def test_assoc_json_keys(run, gh):
    g, h = gh
    code, out, _ = run("assoc", "--kind", "dirnon", g, g, h, "--json")
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {
        "kind", "law", "left_count", "right_count", "psi_iso", "full_iso", "witness",
    }
    assert payload["kind"] == "dirnon"
    assert payload["psi_iso"] is False
    assert payload["witness"] is not None


def test_assoc_full_iso_note_on_oversized_instances(run, files):
    g = files("g.hg", G_TEXT)
    h4 = files("h4.hg", "vertices: w x y z\nedge: w x y z\n")
    code, out, err = run("assoc", "--kind", "dirmax", g, g, h4, "--full-iso")
    assert code == 1
    assert "full_iso: none" in out
    assert "search skipped" in err


def test_commut_passes_for_all_kinds(run, gh):
    g, h = gh
    for kind in ["cartesian", "dirmin", "dirmax", "dirnon", "normal", "strong"]:
        code, out, _ = run("commut", "--kind", kind, g, h)
        assert code == 0, kind
        assert "psi_iso: true" in out


def test_lemma1_equality(run, gh):
    g, h = gh
    code, out, _ = run("lemma1", g, h)
    assert code == 0
    assert "law: lemma1" in out
    assert "left_count: 6" in out


def test_lemma1_precondition_is_a_usage_error(run, files):
    g = files("g.hg", G_TEXT)
    h4 = files("h4.hg", "vertices: w x y z\nedge: w x y z\n")
    code, _, err = run("lemma1", g, h4)
    assert code == 2
    assert "precondition violated" in err
    assert "rank of second factor is 4" in err


# ---------------------------------------------------------------- counterexample

def test_counterexample_output_and_exit(run):
    code, out, _ = run("counterexample")
    assert code == 1
    assert "left_count: 36" in out
    assert "left_count: 82" in out
    assert "right_count: 58" in out
    assert "witness_edge: (a,(a,x)) (a,(b,y)) (b,(b,z))" in out
    assert "witness_image_absent_on_right: ((a,a),x) ((a,b),y) ((b,b),z)" in out


def test_counterexample_json(run):
    code, out, _ = run("counterexample", "--json")
    assert code == 1
    payload = json.loads(out)
    kinds = [r["kind"] for r in payload["reports"]]
    assert kinds == ["dirmax", "dirnon", "strong"]
    assert all(r["full_iso"] is False for r in payload["reports"])


def test_counterexample_is_deterministic(run):
    first = run("counterexample")
    second = run("counterexample")
    assert first == second


# ---------------------------------------------------------------- fuzz

FUZZ_ARGS = [
    "fuzz", "--kind", "dirmax", "--law", "assoc", "--seed", "11",
    "--trials", "25", "--max-vertices", "3", "--max-edges", "2",
]


def test_fuzz_violations_exit_1(run):
    code, out, _ = run(*FUZZ_ARGS)
    assert code == 1
    assert "failures: 0" not in out
    assert "minimal_trial:" in out


def test_fuzz_clean_kind_exits_0(run):
    code, out, _ = run(
        "fuzz", "--kind", "dirmin", "--law", "assoc", "--seed", "11",
        "--trials", "25", "--max-vertices", "3", "--max-edges", "2",
    )
    assert code == 0
    assert "failures: 0" in out


def test_fuzz_json_round_trip(run):
    code, out, _ = run(*FUZZ_ARGS, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["seed"] == 11 and payload["trials"] == 25
    assert payload["failure_count"] == len(payload["failures"]) > 0
    assert payload["minimal"]["report"]["psi_iso"] is False


def test_fuzz_deterministic_across_job_counts(run):
    serial = run(*FUZZ_ARGS)
    parallel = run(*FUZZ_ARGS, "--jobs", "3")
    assert serial == parallel


def test_fuzz_stdout_is_the_same_across_processes_and_hash_seeds():
    """A pool returns labels pickled in its workers; stdout must not depend
    on the job count or on the string-hash seed of any process."""
    src = str(Path(hgprod.__file__).parents[1])

    def fuzz(jobs, hash_seed):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "hgprod", *FUZZ_ARGS, "--jobs", jobs],
                              env=env, capture_output=True, text=True)

    serial, parallel = fuzz("1", "1"), fuzz("2", "2")
    assert serial.returncode == parallel.returncode == 1
    assert serial.stdout == parallel.stdout and "minimal_trial:" in serial.stdout


def _hgprod_env(unbuffered: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(hgprod.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return env | {"PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_full_stdout_exits_2_with_one_error_line(unbuffered):
    """Every write to /dev/full fails with ENOSPC.  Unbuffered, the write
    itself fails; buffered, only the flush does, which the interpreter's
    exit flush would otherwise report as exit 120."""
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "hgprod", "counterexample"], stdout=full,
                              stderr=subprocess.PIPE, env=_hgprod_env(unbuffered), text=True)
    assert (done.returncode, done.stderr) == (2, "error: stdout: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv, full", [
    pytest.param(["fmt", "/nonexistent/g.hg"], "stderr", id="input-error"),
    pytest.param(["fuzz"], "stderr", id="usage-error"),  # argparse reports it
    pytest.param(["--help"], "stdout", id="help"),  # argparse prints it
    pytest.param(["fmt", "--help"], "stdout", id="fmt-help"),
])
def test_an_unwritable_stream_keeps_exit_2(argv, full, unbuffered):
    """A diagnostic that cannot be written is dropped, and help that cannot
    be written is an error; the exit is 2 either way, never a traceback's 1,
    the interpreter's 120 or argparse's 0."""
    with open("/dev/full", "w") as sink:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, full: sink}
        done = subprocess.run([sys.executable, "-m", "hgprod", *argv], **streams,
                              env=_hgprod_env(unbuffered), text=True)
    shown = done.stdout if full == "stderr" else done.stderr
    expected = "" if full == "stderr" else "error: stdout: No space left on device\n"
    assert (done.returncode, shown) == (2, expected)


def test_importing_the_cli_loads_no_pathlib():
    """The CLI opens its paths as given; pathlib would cost every cold start
    a few milliseconds.  -S keeps site's own imports out."""
    check = "import sys, hgprod.cli; print('pathlib' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", check], env=_hgprod_env(False),
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "False\n")


# About 210 KB of JSON, far more than a pipe holds, in well under a second.
CLOSED_PIPE_ARGS = [
    "fuzz", "--kind", "dirmax", "--law", "assoc", "--seed", "1", "--trials", "1000",
    "--max-vertices", "3", "--max-edges", "2", "--edge-size-min", "2", "--json",
]


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_reader_that_closes_the_pipe_early_gets_exit_2(run, unbuffered):
    code, out, _ = run(*CLOSED_PIPE_ARGS)
    assert code == 1 and len(out) > 200_000
    argv = [sys.executable, "-m", "hgprod", *CLOSED_PIPE_ARGS]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
                          env=_hgprod_env(unbuffered)) as proc:
        first = proc.stdout.readline()  # unbuffered: reads no further than the newline
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert (first, err) == (b"{\n", b"error: stdout: Broken pipe\n")


STEPPING_ARGS = [
    "fuzz", "--kind", "dirmax", "--law", "commut", "--seed", "1",
    "--trials", "20", "--simple", "--max-vertices", "3", "--max-edges", "4",
]


def test_fuzz_steps_each_factor_past_infeasible_draws(run, monkeypatch):
    """Four simple edges on three vertices cannot be drawn (at most three are
    pairwise incomparable), so 18 of this run's draws are infeasible and the
    trial steps the factor's seed; the report is the same for any job count."""
    text = "law: commutativity\nkind: dirmax\nseed: 1\ntrials: 20\nfailures: 0\nfailing_trials: none\n"
    payload = (
        '{\n  "kind": "dirmax",\n  "law": "commutativity",\n  "seed": 1,\n  "trials": 20,\n'
        '  "failure_count": 0,\n  "failures": [],\n  "minimal": null\n}\n'
    )
    draw, infeasible = hgprod.checker.random_hypergraph, []

    def counting_draw(cfg):
        try:
            return draw(cfg)
        except InfeasibleError:
            infeasible.append(cfg.seed)
            raise

    monkeypatch.setattr(hgprod.checker, "random_hypergraph", counting_draw)
    assert run(*STEPPING_ARGS) == (0, text, "")
    assert len(infeasible) == 18
    monkeypatch.undo()
    assert run(*STEPPING_ARGS, "--jobs", "2") == (0, text, "")
    assert run(*STEPPING_ARGS, "--json") == run(*STEPPING_ARGS, "--json", "--jobs", "2") == (0, payload, "")


def test_fuzz_infeasible_factors_exit_2_with_one_error_line(run, monkeypatch):
    def infeasible(*args, **kwargs):
        raise InfeasibleError("no feasible hypergraph in 50 draws for trial 0")

    monkeypatch.setattr(hgprod.cli, "fuzz_law", infeasible)
    assert run(*FUZZ_ARGS) == (2, "", "error: no feasible hypergraph in 50 draws for trial 0\n")


def test_fuzz_jobs_are_bounded_by_cores_and_trials(run, monkeypatch):
    started = []

    class RecordingPool:  # records the worker count and maps serially
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    serial = run(*FUZZ_ARGS)
    assert started == []
    assert run(*FUZZ_ARGS, "--jobs", "10000") == serial
    code, _, err = run(*FUZZ_ARGS, "--jobs", "10000", "--trials", "2")
    assert code in (0, 1) and err == ""
    assert started == [4, 2]


def test_fuzz_bad_ranges_are_usage_errors(run):
    code, _, err = run(
        "fuzz", "--kind", "dirmax", "--law", "assoc", "--seed", "1",
        "--trials", "5", "--edge-size-min", "5", "--max-vertices", "4",
    )
    assert code == 2 and "max-vertices" in err
    code, _, err = run(
        "fuzz", "--kind", "dirmax", "--law", "assoc", "--seed", "1",
        "--trials", "5", "--edge-size-max", "1", "--simple",
    )
    assert code == 2 and "empty edge size range" in err


@pytest.mark.parametrize(
    "extra",
    [["2"], ["3"], ["3", "--simple"], ["4", "--edge-size-max", "4"]],
    ids=["2", "3", "3-simple", "4"],
)
def test_fuzz_edge_size_min_raises_the_smallest_vertex_count(run, extra):
    """Factors need at least as many vertices as their smallest edge."""
    code, out, err = run(
        "fuzz", "--kind", "dirmax", "--law", "assoc", "--seed", "1",
        "--trials", "10", "--edge-size-min", *extra,
    )
    assert code in (0, 1) and err == ""
    assert "trials: 10\n" in out


@pytest.mark.parametrize(
    "override, message",
    [
        (["--seed", "-1"], "seed"),
        (["--seed", str(2**64)], "seed"),
        (["--max-edges", "0"], "edge_count"),
        (["--trials", "-3"], "trials"),
        (["--jobs", "0"], "jobs"),
        (["--jobs", "-5"], "jobs"),
    ],
)
def test_fuzz_bad_arguments_exit_2_with_one_error_line(run, override, message):
    code, out, err = run(*FUZZ_ARGS, *override)  # a repeated option takes the last value
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# ---------------------------------------------------------------- report pins

REPORT_FILES = {"g.hg": G_TEXT, "h.hg": H_TEXT, "h4.hg": "vertices: w x y z\nedge: w x y z\n"}

# Every report command's whole stdout, stderr and exit code, in text and in
# --json.  The iso pins are in test_iso_stdout_bytes_are_pinned.
REPORT_PINS = [
    ("assoc --kind dirmax g.hg g.hg h.hg --full-iso", 1,
     "law: associativity\n"
     "kind: dirmax\n"
     "factors: |V|=2 |E|=1 r=2; |V|=2 |E|=1 r=2; |V|=3 |E|=1 r=3\n"
     "left_count: 36\n"
     "right_count: 12\n"
     "psi_iso: false\n"
     "full_iso: false\n"
     "witness: (a,(a,x)) (a,(b,y)) (b,(a,z))\n",
     ""),
    ("assoc --kind dirmax g.hg g.hg h.hg --full-iso --json", 1,
     "{\n"
     '  "kind": "dirmax",\n'
     '  "law": "associativity",\n'
     '  "left_count": 36,\n'
     '  "right_count": 12,\n'
     '  "psi_iso": false,\n'
     '  "full_iso": false,\n'
     '  "witness": [\n'
     '    "(a,(a,x))",\n'
     '    "(a,(b,y))",\n'
     '    "(b,(a,z))"\n'
     "  ]\n"
     "}\n",
     ""),
    ("assoc --kind cartesian g.hg g.hg h.hg --full-iso", 0,
     "law: associativity\n"
     "kind: cartesian\n"
     "factors: |V|=2 |E|=1 r=2; |V|=2 |E|=1 r=2; |V|=3 |E|=1 r=3\n"
     "left_count: 16\n"
     "right_count: 16\n"
     "psi_iso: true\n"
     "full_iso: true\n"
     "witness: none\n",
     ""),
    ("assoc --kind cartesian g.hg g.hg h.hg --full-iso --json", 0,
     "{\n"
     '  "kind": "cartesian",\n'
     '  "law": "associativity",\n'
     '  "left_count": 16,\n'
     '  "right_count": 16,\n'
     '  "psi_iso": true,\n'
     '  "full_iso": true,\n'
     '  "witness": null\n'
     "}\n",
     ""),
    ("assoc --kind dirmax g.hg g.hg h4.hg --full-iso", 1,
     "law: associativity\n"
     "kind: dirmax\n"
     "factors: |V|=2 |E|=1 r=2; |V|=2 |E|=1 r=2; |V|=4 |E|=1 r=4\n"
     "left_count: 196\n"
     "right_count: 28\n"
     "psi_iso: false\n"
     "full_iso: none\n"
     "witness: (a,(a,w)) (a,(a,x)) (a,(b,y)) (b,(a,z))\n",
     "note: full isomorphism search skipped (vertex bound exceeded)\n"),
    ("assoc --kind dirmax g.hg g.hg h4.hg --full-iso --json", 1,
     "{\n"
     '  "kind": "dirmax",\n'
     '  "law": "associativity",\n'
     '  "left_count": 196,\n'
     '  "right_count": 28,\n'
     '  "psi_iso": false,\n'
     '  "full_iso": null,\n'
     '  "witness": [\n'
     '    "(a,(a,w))",\n'
     '    "(a,(a,x))",\n'
     '    "(a,(b,y))",\n'
     '    "(b,(a,z))"\n'
     "  ]\n"
     "}\n",
     "note: full isomorphism search skipped (vertex bound exceeded)\n"),
    ("commut --kind strong g.hg h.hg", 0,
     "law: commutativity\n"
     "kind: strong\n"
     "factors: |V|=2 |E|=1 r=2; |V|=3 |E|=1 r=3\n"
     "left_count: 11\n"
     "right_count: 11\n"
     "psi_iso: true\n"
     "full_iso: none\n"
     "witness: none\n",
     ""),
    ("commut --kind strong g.hg h.hg --json", 0,
     "{\n"
     '  "kind": "strong",\n'
     '  "law": "commutativity",\n'
     '  "left_count": 11,\n'
     '  "right_count": 11,\n'
     '  "psi_iso": true,\n'
     '  "full_iso": null,\n'
     '  "witness": null\n'
     "}\n",
     ""),
    ("lemma1 g.hg h.hg", 0,
     "law: lemma1\n"
     "kind: dirmax\n"
     "factors: |V|=2 |E|=1 r=2; |V|=3 |E|=1 r=3\n"
     "left_count: 6\n"
     "right_count: 6\n"
     "psi_iso: true\n"
     "full_iso: none\n"
     "witness: none\n",
     ""),
    ("lemma1 g.hg h.hg --json", 0,
     "{\n"
     '  "kind": "dirmax",\n'
     '  "law": "lemma1",\n'
     '  "left_count": 6,\n'
     '  "right_count": 6,\n'
     '  "psi_iso": true,\n'
     '  "full_iso": null,\n'
     '  "witness": null\n'
     "}\n",
     ""),
    ("counterexample", 1,
     "law: associativity\n"
     "kind: dirmax\n"
     "factors: |V|=2 |E|=1 r=2; |V|=2 |E|=1 r=2; |V|=3 |E|=1 r=3\n"
     "left_count: 36\n"
     "right_count: 12\n"
     "psi_iso: false\n"
     "full_iso: false\n"
     "witness: (a,(a,x)) (a,(b,y)) (b,(a,z))\n"
     "\n"
     "law: associativity\n"
     "kind: dirnon\n"
     "factors: |V|=2 |E|=1 r=2; |V|=2 |E|=1 r=2; |V|=3 |E|=1 r=3\n"
     "left_count: 36\n"
     "right_count: 12\n"
     "psi_iso: false\n"
     "full_iso: false\n"
     "witness: (a,(a,x)) (a,(b,y)) (b,(a,z))\n"
     "\n"
     "law: associativity\n"
     "kind: strong\n"
     "factors: |V|=2 |E|=1 r=2; |V|=2 |E|=1 r=2; |V|=3 |E|=1 r=3\n"
     "left_count: 82\n"
     "right_count: 58\n"
     "psi_iso: false\n"
     "full_iso: false\n"
     "witness: (a,(a,x)) (a,(b,y)) (b,(a,z))\n"
     "\n"
     "witness_edge: (a,(a,x)) (a,(b,y)) (b,(b,z))\n"
     "witness_image_absent_on_right: ((a,a),x) ((a,b),y) ((b,b),z)\n",
     ""),
    ("counterexample --json", 1,
     "{\n"
     '  "reports": [\n'
     "    {\n"
     '      "kind": "dirmax",\n'
     '      "law": "associativity",\n'
     '      "left_count": 36,\n'
     '      "right_count": 12,\n'
     '      "psi_iso": false,\n'
     '      "full_iso": false,\n'
     '      "witness": [\n'
     '        "(a,(a,x))",\n'
     '        "(a,(b,y))",\n'
     '        "(b,(a,z))"\n'
     "      ]\n"
     "    },\n"
     "    {\n"
     '      "kind": "dirnon",\n'
     '      "law": "associativity",\n'
     '      "left_count": 36,\n'
     '      "right_count": 12,\n'
     '      "psi_iso": false,\n'
     '      "full_iso": false,\n'
     '      "witness": [\n'
     '        "(a,(a,x))",\n'
     '        "(a,(b,y))",\n'
     '        "(b,(a,z))"\n'
     "      ]\n"
     "    },\n"
     "    {\n"
     '      "kind": "strong",\n'
     '      "law": "associativity",\n'
     '      "left_count": 82,\n'
     '      "right_count": 58,\n'
     '      "psi_iso": false,\n'
     '      "full_iso": false,\n'
     '      "witness": [\n'
     '        "(a,(a,x))",\n'
     '        "(a,(b,y))",\n'
     '        "(b,(a,z))"\n'
     "      ]\n"
     "    }\n"
     "  ],\n"
     '  "witness_edge": "(a,(a,x)) (a,(b,y)) (b,(b,z))",\n'
     '  "witness_image": "((a,a),x) ((a,b),y) ((b,b),z)"\n'
     "}\n",
     ""),
    ("fuzz --kind dirmax --law assoc --seed 2 --trials 4 --max-vertices 3 --max-edges 1 --edge-size-min 2", 1,
     "law: associativity\n"
     "kind: dirmax\n"
     "seed: 2\n"
     "trials: 4\n"
     "failures: 2\n"
     "failing_trials: 0 2\n"
     "minimal_trial: 2\n"
     "minimal_factor_seeds: 8112600223918159332 13264548337748323810 7427600023522335032\n"
     "  law: associativity\n"
     "  kind: dirmax\n"
     "  factors: |V|=3 |E|=1 r=3; |V|=2 |E|=1 r=2; |V|=2 |E|=1 r=2\n"
     "  left_count: 12\n"
     "  right_count: 36\n"
     "  psi_iso: false\n"
     "  full_iso: none\n"
     "  witness: ((v0,v0),v0) ((v1,v0),v1) ((v2,v1),v0)\n",
     ""),
    ("fuzz --kind dirmax --law assoc --seed 2 --trials 4 --max-vertices 3 --max-edges 1 --edge-size-min 2 --json", 1,
     "{\n"
     '  "kind": "dirmax",\n'
     '  "law": "associativity",\n'
     '  "seed": 2,\n'
     '  "trials": 4,\n'
     '  "failure_count": 2,\n'
     '  "failures": [\n'
     "    {\n"
     '      "trial": 0,\n'
     '      "factor_seeds": [\n'
     "        2931004567720371905,\n"
     "        15432287184251514724,\n"
     "        11753977307514206890\n"
     "      ],\n"
     '      "report": {\n'
     '        "kind": "dirmax",\n'
     '        "law": "associativity",\n'
     '        "left_count": 36,\n'
     '        "right_count": 12,\n'
     '        "psi_iso": false,\n'
     '        "full_iso": null,\n'
     '        "witness": [\n'
     '          "(v0,(v0,v0))",\n'
     '          "(v0,(v2,v1))",\n'
     '          "(v1,(v0,v2))"\n'
     "        ]\n"
     "      }\n"
     "    },\n"
     "    {\n"
     '      "trial": 2,\n'
     '      "factor_seeds": [\n'
     "        8112600223918159332,\n"
     "        13264548337748323810,\n"
     "        7427600023522335032\n"
     "      ],\n"
     '      "report": {\n'
     '        "kind": "dirmax",\n'
     '        "law": "associativity",\n'
     '        "left_count": 12,\n'
     '        "right_count": 36,\n'
     '        "psi_iso": false,\n'
     '        "full_iso": null,\n'
     '        "witness": [\n'
     '          "((v0,v0),v0)",\n'
     '          "((v1,v0),v1)",\n'
     '          "((v2,v1),v0)"\n'
     "        ]\n"
     "      }\n"
     "    }\n"
     "  ],\n"
     '  "minimal": {\n'
     '    "trial": 2,\n'
     '    "factor_seeds": [\n'
     "      8112600223918159332,\n"
     "      13264548337748323810,\n"
     "      7427600023522335032\n"
     "    ],\n"
     '    "report": {\n'
     '      "kind": "dirmax",\n'
     '      "law": "associativity",\n'
     '      "left_count": 12,\n'
     '      "right_count": 36,\n'
     '      "psi_iso": false,\n'
     '      "full_iso": null,\n'
     '      "witness": [\n'
     '        "((v0,v0),v0)",\n'
     '        "((v1,v0),v1)",\n'
     '        "((v2,v1),v0)"\n'
     "      ]\n"
     "    }\n"
     "  }\n"
     "}\n",
     ""),
    ("fuzz --kind dirmin --law assoc --seed 2 --trials 4 --max-vertices 3 --max-edges 1 --edge-size-min 2", 0,
     "law: associativity\n"
     "kind: dirmin\n"
     "seed: 2\n"
     "trials: 4\n"
     "failures: 0\n"
     "failing_trials: none\n",
     ""),
    ("fuzz --kind dirmin --law assoc --seed 2 --trials 4 --max-vertices 3 --max-edges 1 --edge-size-min 2 --json", 0,
     "{\n"
     '  "kind": "dirmin",\n'
     '  "law": "associativity",\n'
     '  "seed": 2,\n'
     '  "trials": 4,\n'
     '  "failure_count": 0,\n'
     '  "failures": [],\n'
     '  "minimal": null\n'
     "}\n",
     ""),
    ("count --kind dirmax g.hg h.hg --verify", 0,
     "kind: dirmax\n"
     "formula_count: 6\n"
     "enumerated_count: 6\n"
     "agreement: true\n",
     ""),
    ("count --kind dirmax g.hg h.hg --verify --json", 0,
     "{\n"
     '  "kind": "dirmax",\n'
     '  "formula_count": 6,\n'
     '  "enumerated_count": 6,\n'
     '  "agreement": true\n'
     "}\n",
     ""),

]


@pytest.mark.parametrize("command, code, stdout, stderr", REPORT_PINS, ids=[pin[0] for pin in REPORT_PINS])
def test_report_stdout_bytes_are_pinned(run, files, command, code, stdout, stderr):
    paths = {name: files(name, text) for name, text in REPORT_FILES.items()}
    assert run(*(paths.get(word, word) for word in command.split())) == (code, stdout, stderr)


# ---------------------------------------------------------------- fmt + errors

def test_fmt_canonicalizes(run, files):
    messy = files("messy.hg", "# comment\nvertices: b a\n\nedge: b a\n")
    code, out, _ = run("fmt", messy)
    assert code == 0
    assert out == "vertices: a b\nedge: a b\n"


def test_fmt_is_idempotent(run, files):
    messy = files("m.hg", "vertices: c b a\nedge: c a\nedge: b a\n")
    _, once, _ = run("fmt", messy)
    again = files("n.hg", once)
    _, twice, _ = run("fmt", again)
    assert once == twice


@pytest.mark.parametrize("ends", ["\r\n", "\r"])
def test_fmt_reads_crlf_and_lone_cr_line_ends_as_newlines(run, tmp_path, ends):
    text = "# comment\nvertices: b a c\n\nedge: b a\nedge: c\n"
    plain, other = tmp_path / "plain.hg", tmp_path / "other.hg"
    plain.write_bytes(text.encode())
    other.write_bytes(text.replace("\n", ends).encode())
    assert run("fmt", str(other)) == run("fmt", str(plain)) == (0, "vertices: a b c\nedge: c\nedge: a b\n", "")
    other.write_bytes(text.replace("edge: c", "edge: q").replace("\n", ends).encode())
    code, out, err = run("fmt", str(other))
    assert (code, out) == (2, "") and "line 5" in err and "unknown vertex" in err


def test_parse_errors_exit_2_with_line_number(run, files):
    bad = files("bad.hg", "vertices: a b\nedge: a q\n")
    code, out, err = run("fmt", bad)
    assert code == 2 and out == ""
    assert "line 2" in err and "unknown vertex" in err


# Comment, blank and keyword lines around and before the vertices line.  The
# parse loop tests for edge lines before the other checks, so the expected
# text, messages and line numbers are literals that pin the checks' order.
@pytest.mark.parametrize("text, canon, error", [
    ("# edge: a\n#vertices: a\nvertices: b a\nedge: a b\n", "vertices: a b\nedge: a b\n", None),
    ("vertices: a b c\n  edge :\ta b\n\tedge:c b  \n", "vertices: a b c\nedge: a b\nedge: b c\n", None),
    ("vertices: a b\n:\nedge: a b\n", None, (2, "expected 'vertices:' or 'edge:', got ':'")),
    (":\nvertices: a\n", None, (1, "expected 'vertices:' or 'edge:', got ':'")),
    ("vertices: a b\n \t \nedge: b a\n", "vertices: a b\nedge: a b\n", None),
    ("vertices: b a\r\nedge: a b\r\n\r\nedge: b\r\n", "vertices: a b\nedge: b\nedge: a b\n", None),
    ("edge: a b\nvertices: a b\n", None, (1, "edge before vertices line")),
    ("  \n# c\n edge : a\nvertices: a\n", None, (3, "edge before vertices line")),
    ("vertices: a\n  edge :  \n", None, (2, "edge with no members")),
], ids=["commented keywords", "padded keyword", "bare colon", "bare colon first", "whitespace line",
        "crlf", "edge first", "padded edge first", "padded empty edge"])
def test_parse_hg_and_fmt_agree_on_keyword_and_blank_lines(run, files, text, canon, error):
    path = files("case.hg", text)
    if error is None:
        assert serialize_hg(parse_hg(text)) == canon
        assert run("fmt", path) == (0, canon, "")
        return
    line, message = error
    with pytest.raises(HgParseError) as err:
        parse_hg(text)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)
    assert run("fmt", path) == (2, "", f"error: {path}: line {line}: {message}\n")


def _refuse_labels(monkeypatch, command: str) -> None:
    """Make building an Atom or a Pair fail: each label is built by its own
    __new__, and nothing else."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} built a label")

    for cls in (Atom, Pair):
        monkeypatch.setattr(cls, "__new__", refuse)


def test_fmt_builds_no_label(run, files, monkeypatch):
    g = files("g.hg", "vertices: (a,b) c ((d,e),f)\nedge: (a,b) c\nedge: ((d,e),f)\n")
    h = files("h.hg", "vertices: x (y,(z,w)) v\nedge: x (y,(z,w)) v\n")
    product_file = os.path.join(os.path.dirname(g), "strong.hg")
    assert run("product", "--kind", "strong", g, h, "-o", product_file) == (0, "", "")
    with open(product_file, encoding="utf-8") as f:
        canon = f.read()
    vertices, *edges = canon.splitlines()
    messy = files("messy.hg", "\n".join(["vertices: " + " ".join(reversed(vertices.split()[1:])), *reversed(edges)]))
    assert len(edges) > 10 and canon.count("((") > 10

    _refuse_labels(monkeypatch, "fmt")
    assert run("fmt", product_file) == (0, canon, "")
    assert run("fmt", messy) == (0, canon, "")


@pytest.mark.parametrize("kind", ["strong", "dirmax"])
def test_fmt_gives_a_product_file_of_over_8000_edges_back(run, files, tmp_path, kind):
    """fmt of a file that `product -o` wrote is the file, byte for byte:
    serialize after parse is the identity on canonical text.  The factors
    are a 4-member edge and a 7-member edge beside a singleton."""
    e4 = files("e4.hg", "vertices: a1 a2 a3 a4\nedge: a1 a2 a3 a4\n")
    e7 = files("e7.hg", "vertices: b1 b2 b3 b4 b5 b6 b7 c\nedge: b1 b2 b3 b4 b5 b6 b7\nedge: c\n")
    out = tmp_path / f"{kind}.hg"
    assert run("product", "--kind", kind, e4, e7, "-o", str(out)) == (0, "", "")
    canon = out.read_text(encoding="utf-8")
    assert canon.count("\nedge: ") > 8000
    assert run("fmt", str(out)) == (0, canon, "")


# strong of a 2-edge on three nested labels by a 2-edge on four labels,
# plain and flattened (twelve vertices, so v10 sorts before v2); the text
# as recorded before `product` read its factors as ranks.
PRODUCT_OF_NESTED = """\
vertices: (c,u) (c,v) (c,x) (c,(y,(z,w))) ((a,b),u) ((a,b),v) ((a,b),x) ((a,b),(y,(z,w))) \
(((d,e),f),u) (((d,e),f),v) (((d,e),f),x) (((d,e),f),(y,(z,w)))
edge: (c,x) (c,(y,(z,w)))
edge: ((a,b),u) (((d,e),f),u)
edge: ((a,b),v) (((d,e),f),v)
edge: ((a,b),x) ((a,b),(y,(z,w)))
edge: ((a,b),x) (((d,e),f),x)
edge: ((a,b),x) (((d,e),f),(y,(z,w)))
edge: ((a,b),(y,(z,w))) (((d,e),f),x)
edge: ((a,b),(y,(z,w))) (((d,e),f),(y,(z,w)))
edge: (((d,e),f),x) (((d,e),f),(y,(z,w)))
"""
FLAT_PRODUCT_OF_NESTED = """\
# v0 = (c,u)
# v1 = (c,v)
# v2 = (c,x)
# v3 = (c,(y,(z,w)))
# v4 = ((a,b),u)
# v5 = ((a,b),v)
# v6 = ((a,b),x)
# v7 = ((a,b),(y,(z,w)))
# v8 = (((d,e),f),u)
# v9 = (((d,e),f),v)
# v10 = (((d,e),f),x)
# v11 = (((d,e),f),(y,(z,w)))
vertices: v0 v1 v10 v11 v2 v3 v4 v5 v6 v7 v8 v9
edge: v10 v11
edge: v10 v6
edge: v10 v7
edge: v11 v6
edge: v11 v7
edge: v2 v3
edge: v4 v8
edge: v5 v9
edge: v6 v7
"""


def test_product_builds_no_label(run, files, monkeypatch):
    g = files("g.hg", "vertices: (a,b) c ((d,e),f)\nedge: (a,b) ((d,e),f)\n")
    h = files("h.hg", "vertices: x (y,(z,w)) v u\nedge: x (y,(z,w))\n")

    _refuse_labels(monkeypatch, "product")
    assert run("product", "--kind", "strong", g, h) == (0, PRODUCT_OF_NESTED, "")
    assert run("product", "--kind", "strong", "--flatten", g, h) == (0, FLAT_PRODUCT_OF_NESTED, "")


# A witness pair and a refutation pair on nested tokens (atoms sort before
# pairs, (x,(y,z)) before ((d,e),f)); the text as recorded before `iso`
# read its files as ranks.
ISO_NESTED_FILES = {
    "w1.hg": "vertices: (a,b) c ((d,e),f) (x,(y,z)) g\n"
             "edge: (a,b) c\nedge: c ((d,e),f) (x,(y,z))\nedge: (x,(y,z)) g\n",
    "w2.hg": "vertices: p (q,(r,s)) ((t,u),v) w (o,o)\n"
             "edge: w ((t,u),v)\nedge: ((t,u),v) p (q,(r,s))\nedge: (o,o) (q,(r,s))\n",
    "c4.hg": "vertices: (a,1) (b,1) (c,(1,2)) d ((e,f),g) h (i,j) k x y\n"
             "edge: (a,1) (b,1) (c,(1,2))\nedge: (c,(1,2)) d ((e,f),g)\n"
             "edge: ((e,f),g) h (i,j)\nedge: (i,j) k (a,1)\n",
    "cc.hg": "vertices: (a,1) (b,1) (c,(1,2)) d ((e,f),g) h (i,j) k x y\n"
             "edge: (a,1) (b,1) (c,(1,2))\nedge: (c,(1,2)) d (a,1)\n"
             "edge: ((e,f),g) h (i,j)\nedge: (i,j) k ((e,f),g)\n",
}
ISO_OF_NESTED = [
    (("w1.hg", "w2.hg"), [], 0,
     "isomorphic: true\nnodes_explored: 1\nmap: c -> (q,(r,s))\nmap: g -> w\n"
     "map: (a,b) -> (o,o)\nmap: (x,(y,z)) -> ((t,u),v)\nmap: ((d,e),f) -> p\n"),
    (("w1.hg", "w2.hg"), ["--json"], 0,
     '{\n  "isomorphic": true,\n  "nodes_explored": 1,\n  "witness": {\n'
     '    "c": "(q,(r,s))",\n    "g": "w",\n    "(a,b)": "(o,o)",\n'
     '    "(x,(y,z))": "((t,u),v)",\n    "((d,e),f)": "p"\n  }\n}\n'),
    (("c4.hg", "cc.hg"), [], 1, "isomorphic: false\nnodes_explored: 10\n"),
    (("c4.hg", "cc.hg"), ["--json"], 1,
     '{\n  "isomorphic": false,\n  "nodes_explored": 10,\n  "witness": null\n}\n'),
]


def test_iso_builds_no_label(run, files, monkeypatch):
    paths = {name: files(name, text) for name, text in ISO_NESTED_FILES.items()}

    _refuse_labels(monkeypatch, "iso")
    for pair, flags, code, stdout in ISO_OF_NESTED:
        assert run("iso", *map(paths.__getitem__, pair), *flags) == (code, stdout, "")


def _nested(depth: int) -> str:
    return "(" * depth + "a" + ",b)" * depth  # ((a,b),b) for depth 2


@pytest.mark.parametrize("command", ["fmt", "iso", "product"])
def test_deeply_nested_label_exits_2_with_line_number(run, files, command):
    deep = files("deep.hg", f"# nested\nvertices: c {_nested(1500)}\n")
    argv = {"fmt": ["fmt", deep], "iso": ["iso", deep, deep],
            "product": ["product", "--kind", "strong", deep, deep]}[command]
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 2: bad label" in err
    # The quoted token is cut short: the line is not the 6 KB token.
    assert len(err.encode("utf-8")) < len(deep) + 150


def test_label_at_the_nesting_bound_round_trips_through_fmt(run, files):
    text = f"vertices: c {_nested(_MAX_LABEL_PAIRS)}\nedge: c {_nested(_MAX_LABEL_PAIRS)}\n"
    assert run("fmt", files("bound.hg", text)) == (0, text, "")


def test_product_refuses_labels_that_fmt_would_refuse(run, files, tmp_path):
    """A product token is one pair around a token of each factor, so two
    150-pair tokens make a 301-pair one; --flatten writes v0..vn instead."""
    deep = files("deep.hg", f"vertices: c {_nested(150)}\nedge: c {_nested(150)}\n")
    out = str(tmp_path / "p.hg")
    code, stdout, err = run("product", "--kind", "cartesian", deep, deep, "-o", out)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "301 pairs" in err and "--flatten" in err
    assert run("product", "--kind", "cartesian", deep, deep, "--flatten", "-o", out)[0] == 0
    assert run("fmt", out) == (0, "vertices: v0 v1 v2 v3\nedge: v0 v1\nedge: v0 v2\nedge: v1 v3\nedge: v2 v3\n", "")
    # At exactly the bound the product is written, and fmt reads it back.
    a = files("a.hg", f"vertices: {_nested(100)}\n")
    b = files("b.hg", f"vertices: {_nested(99)}\n")
    assert run("product", "--kind", "cartesian", a, b, "-o", out) == (0, "", "")
    assert run("fmt", out)[0] == 0


def test_missing_file_exits_2(run, tmp_path):
    code, _, err = run("fmt", str(tmp_path / "absent.hg"))
    assert code == 2
    assert "absent.hg" in err


def test_a_path_is_opened_exactly_as_given(run, gh, tmp_path):
    """No path is normalised first: '' names no file, and a name with a
    trailing slash names a directory, so a regular file under it is not
    read (as cat does) and no file is written."""
    g, h = gh
    assert run("fmt", "") == (2, "", f"error: : {os.strerror(errno.ENOENT)}\n")
    assert run("fmt", g + "/") == (2, "", f"error: {g}/: {os.strerror(errno.ENOTDIR)}\n")
    out = tmp_path / "out.hg"
    code, stdout, err = run("product", "--kind", "cartesian", g, h, "-o", f"{out}/")
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {out}/: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["iso", "fmt", "product", "count"])
def test_non_utf8_file_exits_2_with_one_error_line(run, tmp_path, gh, command):
    bad = tmp_path / "latin1.hg"
    bad.write_bytes("vertices: \xe9\n".encode("latin-1"))
    argv = {
        "iso": ["iso", str(bad), gh[0]],
        "fmt": ["fmt", str(bad)],
        "product": ["product", "--kind", "dirmax", gh[0], str(bad)],
        "count": ["count", "--kind", "dirmax", str(bad), gh[0]],
    }[command]
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "latin1.hg" in err and "utf-8" in err


def test_unknown_kind_is_an_argparse_error(gh):
    g, h = gh
    with pytest.raises(SystemExit) as exc:
        main(["product", "--kind", "tensor", g, h])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flags, positionals", [
    ("product", ["--kind", "dirmax"], 2),
    ("count", ["--kind", "dirmax"], 2),
    ("iso", [], 2),
    ("assoc", ["--kind", "dirmax"], 3),
    ("commut", ["--kind", "dirmax"], 2),
    ("lemma1", [], 2),
    ("counterexample", [], 0),
    ("fuzz", [], 0),
    ("fmt", [], 1),
])
def test_help_and_a_missing_file_exit_through_argparse(capsys, gh, command, flags, positionals):
    # argparse raises on a tuple metavar for both, so anything but SystemExit
    # escaping main is a traceback.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith(f"usage: hgprod {command} ")
    if positionals < 2:
        return
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, *[gh[0]] * (positionals - 1)])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith(f"usage: hgprod {command} ")
    assert err.endswith(f"hgprod {command}: error: the following arguments are required: FILE.hg\n")
