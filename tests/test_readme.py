"""The README's Python examples run, and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_print_what_they_claim():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        # each `print(...)  # expected` line states the line it prints
        expected = re.findall(r"^\s*print\(.*\)\s+# (.*?)\s*$", block, re.M)
        assert expected, block
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
