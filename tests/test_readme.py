"""The README's library sketch runs as written, so a public name that it uses
cannot be deleted or renamed while the suite passes, and each of its lines
commented ``# True`` evaluates to True."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_sketch_runs_and_its_true_lines_hold():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          re.M | re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    claims = re.findall(r"^(\S.*?)\s+# True\b", block, re.M)
    assert len(claims) == 2
    for claim in claims:
        assert eval(claim, namespace) is True, claim
