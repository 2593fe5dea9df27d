"""The README's Python examples run as printed.

The first four ``python`` blocks of README.md (the quickstart, batch
estimation, advising from data and the what-if advisor) run in order
in one namespace, as a reader pasting them into one session would run
them. The what-if block stores under ``~``, so ``HOME`` points into a
temporary directory. The blocks after them are fragments and stay out.
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent

#: How many leading ``python`` blocks form one runnable session.
RUNNABLE_BLOCKS = 4


def python_blocks() -> list[str]:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text,
                      flags=re.DOTALL | re.MULTILINE)


def test_first_python_blocks_run_in_order(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    blocks = python_blocks()
    assert len(blocks) > RUNNABLE_BLOCKS
    namespace: dict = {}
    for number, block in enumerate(blocks[:RUNNABLE_BLOCKS], start=1):
        exec(compile(block, f"README.md python block {number}", "exec"),
             namespace)
    assert namespace["result"].report.units_executed > 0
    assert (tmp_path / ".repro-store").is_dir()
