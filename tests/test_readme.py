"""The README's library sketch runs as written, and its commented values hold.

A line ``expression  # value`` whose comment is a Python value is checked by
evaluating the expression after the whole sketch has run; other comments
are prose and are skipped.
"""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def sketch() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "the README holds one python block, the library sketch"
    return blocks[0]


def commented_values(code: str) -> list[tuple[str, object]]:
    out = []
    for line in code.splitlines():
        expression, sep, comment = line.partition("#")
        if not sep:
            continue
        try:
            expected = eval(comment.strip(), {"__builtins__": {}})
        except (SyntaxError, NameError):
            continue
        out.append((expression.strip(), expected))
    return out


def test_sketch_runs_and_its_commented_values_hold():
    code = sketch()
    namespace: dict = {}
    exec(code, namespace)
    checks = commented_values(code)
    assert [expression for expression, _ in checks] == ["chumakin(v, fam, 0.5)", "report.verdict"]
    for expression, expected in checks:
        got = eval(expression, namespace)
        if isinstance(expected, str):
            assert got == expected, expression
        else:
            np.testing.assert_allclose(got, expected, atol=1e-12, err_msg=expression)
