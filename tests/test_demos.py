import ast
import re
import runpy
from pathlib import Path

import pytest

import dickekit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_bench_and_demos_read_only_the_exported_surface():
    # a name trimmed from __all__ that the benchmark still reads would show up
    # only as a failed benchmark run
    read = {
        node.attr
        for path in DEMOS + sorted((ROOT / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dk"
    }
    assert {"criterion_verdict", "fidelity_witness_verdict", "fidelity_threshold_numeric"} <= read
    assert sorted(read - set(dickekit.__all__)) == []
    assert [name for name in dickekit.__all__ if not hasattr(dickekit, name)] == []


def _names_read(path):
    """The names a module loads, bare or as an attribute; a definition or an
    assignment is no read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_export_is_read_outside_the_tests():
    # an export that only the tests read is surface with no user: delete it
    package = [path for path in (ROOT / "src" / "dickekit").glob("*.py") if path.name != "__init__.py"]
    read = set().union(*map(_names_read, package + DEMOS + sorted((ROOT / "bench").glob("*.py"))))
    read |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert sorted(set(dickekit.__all__) - read) == []
