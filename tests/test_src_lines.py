"""tools/src_lines.py, the line counter that CHANGES.md quotes for src/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
x = 1  # a trailing comment


def f():
    """A function docstring."""
    return (x +
            1)
'''


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines():
    # 11 physical lines; code: the assignment, the def and both return lines
    assert _load().count(SOURCE) == (11, 4)
