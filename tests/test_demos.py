"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr.decode()


def test_build_graph_demo_output_is_pinned():
    """Demo 03 prints composed tags of its own; its stdout, byte for byte, is
    as recorded in demo03_build_graph.txt."""
    result = run_demo(ROOT / "demos" / "03_build_graph.py")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (Path(__file__).parent / "demo03_build_graph.txt").read_bytes()
