"""The committed tools: the code-line counter's rule on a small fixture."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment: a code line

# a comment line


def f(x):
    """Function docstring."""
    text = """a string that is
    not a docstring"""
    return (x +
            math.pi)


class C:
    """Class docstring
    over two lines."""

    y = 1
'''


def test_code_lines_count_tokens_other_than_comments_and_docstrings():
    # import, def, both lines of `text`, return and its continuation,
    # class, y: eight lines
    assert load("code_lines").code_lines(FIXTURE) == 8


def test_code_lines_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert load("code_lines").main([str(tmp_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["code", "lines", "module"]
    assert [line.split()[0] for line in rows] == ["8", "1", "9"]
    assert rows[-1].endswith("total")


def test_code_lines_prints_physical_lines_as_wc_counts_them(tmp_path, capsys):
    # a.py: 21 newlines; b.py: 3; c.py: 2, the last line without one
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (tmp_path / "c.py").write_text("x = 1\n\ny = 2")
    assert FIXTURE.count("\n") == 21
    assert load("code_lines").main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[:2] for line in rows] == [["8", "21"], ["1", "3"], ["2", "2"], ["11", "26"]]
