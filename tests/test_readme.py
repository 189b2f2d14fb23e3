"""The README's Python quick start runs as written and prints what its
comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# per print call of the quick start, in order: the start of its comment
# and a check of the line it prints
EXPECTED = [
    ("1.5707963267948966", lambda out: out == "1.5707963267948966"),
    ("True", lambda out: out == "True"),
    ("0.376137502633246  (2, 0)",
     lambda out: out.startswith("0.376137502633246") and out.endswith(" (2, 0)")),
    ("sqrt(2)", lambda out: abs(float(out) - math.sqrt(2.0)) <= 1e-12),
    ("0.07619481378479...", lambda out: out.startswith("0.07619481378479")),
    (None, lambda out: out == "True"),
]


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Quick start \(Python\)\n\n```python\n(.*?)^```", text, re.M | re.S)[1]


def test_readme_quick_start_prints_what_its_comments_say():
    block = quick_start()
    comments = [
        line.partition("#")[2].strip() or None
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert len(comments) == len(EXPECTED)
    for comment, (want, _) in zip(comments, EXPECTED):
        assert comment == want if want is None else comment.startswith(want)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    printed = buf.getvalue().splitlines()
    assert len(printed) == len(EXPECTED)
    for out, (comment, check) in zip(printed, EXPECTED):
        assert check(out), (comment, out)
