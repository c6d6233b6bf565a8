"""The package's public surface: every exported name resolves, and the
README's Library imports run, so a stale export or example fails here."""

import re
from pathlib import Path

import fuzzterm

README = Path(__file__).parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in fuzzterm.__all__ if not hasattr(fuzzterm, name)]
    assert missing == []
    assert len(set(fuzzterm.__all__)) == len(fuzzterm.__all__)


def test_readme_library_imports_run():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no Library code block"
    assert "from fuzzterm import (" in block[1]
    exec(compile(block[1], str(README), "exec"), {})
