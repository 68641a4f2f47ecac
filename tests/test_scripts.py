"""The scripts and the README example run end to end."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hgprod

ROOT = Path(__file__).resolve().parents[1]


def _script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(Path(hgprod.__file__).parents[1])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_run_counterexample_lists_both_groupings():
    result = _script("run_counterexample.py", "--list-edges")
    assert result.returncode == 1 and result.stderr == ""
    out = result.stdout
    for counts in ("left_count: 36", "right_count: 12", "left_count: 82", "right_count: 58"):
        assert counts in out
    assert "left grouping edges (36):" in out and "right grouping edges (12):" in out


def test_equivalence_slice_does_not_depend_on_the_hash_seed():
    """A slice of every section of the corpus, under two hash seeds at once:
    the outputs agree byte for byte, and every CLI run exits with a code, not
    an exception (the corpus records a crash, so both seeds agree on it).
    No digest is pinned, so an intended change of behaviour never has to
    edit this test."""
    env = {**os.environ, "PYTHONPATH": str(Path(hgprod.__file__).parents[1])}
    argv = [sys.executable, str(ROOT / "scripts" / "equivalence.py"), "--seed", "3", "--quick"]
    runs = [subprocess.Popen(argv, env={**env, "PYTHONHASHSEED": seed}, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) for seed in ("0", "1")]
    (out0, err0), (out1, err1) = (run.communicate(timeout=120) for run in runs)
    assert [run.returncode for run in runs] == [0, 0] and err0 == err1 == ""
    sections = {line.split(" ", 1)[0] for line in out0.splitlines()}
    assert sections == {"assoc", "commut", "lemma1", "random", "iso", "text", "pairs", "cli"}
    assert out0 == out1
    cli = [line for line in out0.splitlines() if line.startswith("cli ") and not line.startswith("cli output ")]
    exits = [json.loads(line[line.index(" {") + 1:])["exit"] for line in cli]
    assert len(exits) > 300
    assert [line for line, code in zip(cli, exits) if type(code) is not int] == []


def test_associativity_sweep_prints_the_verdict_table():
    result = _script("associativity_sweep.py", "--max-vertices", "2", "--trials", "20")
    assert result.returncode == 1 and result.stderr == ""
    assert re.search(r"^kind\s+exhaustive\s+fuzz\s+verdict$", result.stdout, re.MULTILINE)
    verdicts = dict(re.findall(r"^(\w+)\s+\d+\s+\d+\s+(holds|VIOLATED)$", result.stdout, re.MULTILINE))
    assert verdicts == {
        "cartesian": "holds", "dirmin": "holds", "dirmax": "VIOLATED",
        "dirnon": "VIOLATED", "normal": "holds", "strong": "VIOLATED",
    }


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


def _readme_listing(command: str) -> str:
    """The output the README's command-line section shows for `command`:
    the lines after ``$ command`` up to the next blank line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for block in listing.split("\n\n"):
        first, _, output = block.partition("\n")
        if first.split("#", 1)[0].strip() == f"$ {command}":
            return output + "\n"
    raise AssertionError(f"no README listing for {command!r}")


def test_readme_command_listings_match_the_cli(tmp_path):
    (tmp_path / "g.hg").write_text("vertices: a b\nedge: a b\n", encoding="utf-8")
    (tmp_path / "h.hg").write_text("vertices: x y z\nedge: x y z\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(hgprod.__file__).parents[1])}
    for command, code in (
        ("hgprod product --kind dirmax g.hg h.hg", 0),
        ("hgprod count --kind dirmax g.hg h.hg --verify", 0),
        ("hgprod assoc --kind dirmax g.hg g.hg h.hg --full-iso", 1),
    ):
        result = subprocess.run([sys.executable, "-m", *command.split()], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (code, "")
        assert result.stdout == _readme_listing(command)
