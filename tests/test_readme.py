"""The README's quick start runs as written and prints what its comments say,
and its "Model language" block is a model that uses every model keyword.

Run as a script (`python tests/test_readme.py`), it checks the respetri that
Python imports from the working directory, such as an installed package,
instead of the checkout's `src`.
"""

import contextlib
import io
import re
from pathlib import Path

from respetri import parse_model
from respetri.dsl import _MODEL_LINES

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> tuple[str, list[str]]:
    """The README's first python block, and the line each `print(...)  # line` promises."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    promised = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    return block, promised


def test_quick_start_prints_what_its_comments_say():
    block, promised = quick_start()
    assert promised == ["leak: unsafe/violation-trace", "('t1', 't2')"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == promised


def test_the_model_language_block_is_a_model_with_every_keyword():
    block = re.search(r"## Model language\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    assert {line.split()[0] for line in block.splitlines()} == set(_MODEL_LINES)
    parse_model(block)


if __name__ == "__main__":
    test_quick_start_prints_what_its_comments_say()
    test_the_model_language_block_is_a_model_with_every_keyword()
    print("README quick start prints what its comments say, and its model block parses")
