"""Every Markdown file the code and documentation name exists.

A ``*.md`` path named in ``src/``, ``examples/``, ``benchmarks/``,
``docs/`` or ``README.md`` must resolve relative to the repository root,
to ``docs/``, or to the directory of the file that names it.
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Where references are looked for.
SCANNED = ("src", "examples", "benchmarks", "docs")
#: Text files that can name a document.
SUFFIXES = (".py", ".md", ".json")

MARKDOWN_PATH = re.compile(r"[\w./-]*\w\.md\b")


def _scanned_files():
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*")):
            if path.is_file() and path.suffix in SUFFIXES:
                yield path
    yield ROOT / "README.md"


def _dangling(path: pathlib.Path):
    for name in MARKDOWN_PATH.findall(path.read_text(encoding="utf-8")):
        bases = (ROOT, ROOT / "docs", path.parent)
        if not any((base / name).is_file() for base in bases):
            yield f"{path.relative_to(ROOT)}: {name}"


def test_every_named_markdown_file_exists():
    dangling = [ref for path in _scanned_files() for ref in _dangling(path)]
    assert dangling == []


def test_the_scan_sees_the_documentation():
    named = {
        name
        for path in _scanned_files()
        for name in MARKDOWN_PATH.findall(path.read_text(encoding="utf-8"))
    }
    assert {"docs/API.md", "SPECS.md", "docs/MODELS.md"} <= named
