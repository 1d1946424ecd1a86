"""tools/code_lines.py counts code lines: docstrings, comments and blank lines aside."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # code with a comment


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        text = """a string that is
        not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, def, the string's two lines, return and its continuation
    assert code_lines.code_lines(path) == 7
    assert code_lines.main([str(tmp_path)]) == 0
