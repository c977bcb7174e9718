"""README.md's python examples run as written: every ```python block is
executed in order in one namespace, as a reader pasting them one after
another would run them."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for number, source in enumerate(blocks, 1):
        exec(compile(source, f"README.md python block {number}", "exec"), namespace)
