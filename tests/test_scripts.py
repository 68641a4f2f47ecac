"""The scripts and the README example run end to end."""

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
