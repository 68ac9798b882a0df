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
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].endswith("total")
