import ast
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
