"""tools/code_lines.py counts the lines that hold a token other than a
comment, outside docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""

# A comment-only line.
import os  # a comment after code


def f(x):
    """A function docstring."""
    return (x
            + len(os.sep))
'''


def test_counts_a_fixed_snippet(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    # import, def, and the two lines of the return statement.
    assert code_lines.code_lines(path) == 4
