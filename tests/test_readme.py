"""The README's python examples run as written: each fenced python block is
executed, and every `print(...)` line whose comment is a Python literal
must print that literal's text."""

import ast
import re
import sys

import pytest

from conftest import SRC

README = SRC.parent / "README.md"


def python_blocks():
    """(first line number, source) of each fenced python block."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start(1)) + 1, m[1])
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


def expected_prints(source):
    """Line number in the block -> the text a `print` line's comment gives,
    for comments that are Python literals."""
    expected = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        code, _, comment = line.partition("  # ")
        if code.startswith("print(") and comment:
            try:
                ast.literal_eval(comment.strip())
            except (ValueError, SyntaxError):
                continue
            expected[lineno] = comment.strip()
    return expected


BLOCKS = python_blocks()


def test_readme_has_checked_examples():
    assert [len(expected_prints(src)) for _, src in BLOCKS] == [4, 1]


@pytest.mark.parametrize("start,source", BLOCKS, ids=[f"block_{i}" for i in range(len(BLOCKS))])
def test_readme_block_prints_what_its_comments_say(start, source):
    printed = {}

    def recording_print(*args):
        line = sys._getframe(1).f_lineno
        printed[line] = " ".join(map(str, args))

    exec(compile(source, f"README.md:{start}", "exec"), {"print": recording_print})
    for line, want in expected_prints(source).items():
        assert printed.get(line) == want, (start + line - 1, printed.get(line), want)
