"""README's examples run as written, so a changed public API cannot leave them broken."""

import re
from pathlib import Path

from dcag import GuidanceConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading: str, language: str) -> str:
    """The one `language` code block between `heading` and the next level-2+ heading.

    A line starting with one '#' ends no section: it is a comment in a code block.
    """
    text = README.read_text(encoding="utf-8")
    assert f"\n{heading}\n" in text, f"README.md has no '{heading}' section"
    section = re.split(r"^##+ ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1, flags=re.M)[0]
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", section, flags=re.M | re.S)
    blocks = [body for tag, body in fenced if tag == language]
    assert len(blocks) == 1, (f"'{heading}' holds {len(blocks)} "
                              f"'{language or 'untagged'}' blocks, expected one")
    return blocks[0]


def test_library_quick_start_runs():
    source = block("## Library quick start", "python")
    exec(compile(source, "README.md (## Library quick start)", "exec"), {"__name__": "readme"})


def test_attend_config_example_parses():
    # an unknown key, such as a deleted one, raises ConfigError here
    assert parse_config(block("### attend", "")) == GuidanceConfig()
