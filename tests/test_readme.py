"""The README's "Library use" block runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library use"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)].splitlines()


def _expected_output(lines) -> list[str]:
    """Each print's `# ...` comment, on its own line or on the next one."""
    expected = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        comment = re.search(r"\)\s+# (.*)$", line)
        if comment:
            expected.append(comment.group(1))
        else:
            assert lines[i + 1].startswith("# "), line
            expected.append(lines[i + 1][2:])
    return expected


def test_library_use_block_prints_its_comments():
    lines = _library_use_block()
    expected = _expected_output(lines)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile("\n".join(lines), str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
