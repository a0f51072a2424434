"""tools/code_lines.py counts code lines: docstrings, comments and blank
lines excluded."""

import importlib.util
from pathlib import Path

import pytest

CODE_LINES_PY = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """A class docstring."""

    x = """a string that is
not a docstring"""

    def f(self, a,
          b):
        """A function
        docstring."""
        return (a +
                b)


async def g():
    r"""A raw docstring."""
    await h()
'''
# code: import; class A; the two lines of x; the two of def f; the two of
# its return; async def g; await
FIXTURE_LINES = 10


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("_code_lines", CODE_LINES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(code_lines):
    assert code_lines.count(FIXTURE) == FIXTURE_LINES


def test_a_function_that_opens_with_code_has_no_docstring(code_lines):
    assert code_lines.count("def f():\n    x = 1\n    'not a docstring'\n") == 3


def test_an_empty_module_has_no_code(code_lines):
    assert code_lines.count("") == 0
    assert code_lines.count('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_totals_a_directory_and_files(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(FIXTURE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(FIXTURE_LINES + 1)]]
