"""README's library quick start runs as written, so a changed public API cannot leave it broken."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SECTION = "## Library quick start"


def quick_start() -> str:
    """The one python block between the quick-start heading and the next level-2 heading."""
    text = README.read_text(encoding="utf-8")
    assert f"\n{SECTION}\n" in text, f"README.md has no '{SECTION}' section"
    section = text.split(f"\n{SECTION}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1, f"'{SECTION}' holds {len(blocks)} python blocks, expected one"
    return blocks[0]


def test_library_quick_start_runs():
    exec(compile(quick_start(), f"README.md ({SECTION})", "exec"), {"__name__": "readme"})
