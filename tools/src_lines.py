"""Print the canonical line count of the package's Python sources.

Counts newline characters across every ``*.py`` file under ``src/`` (the
same number as ``find src -name '*.py' | xargs cat | wc -l``), so every
changelog entry quotes one figure.

Usage, from the repository root::

    python tools/src_lines.py
"""

from __future__ import annotations

import sys
from pathlib import Path


def count_lines(root: Path) -> int:
    """Newlines in every ``*.py`` file below ``root``."""
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


if __name__ == "__main__":
    sys.stdout.write(f"{count_lines(Path('src'))}\n")
