"""Rewrite one golden file of ``tests/test_golden.py`` from the current
code and print the lines that changed.

    python tests/golden/regen.py NAME

NAME is a file name in this directory, such as ``torus8-check.txt``.
Commit the new file only when the output moved on purpose, and say why
each changed line moved.
"""

import difflib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from test_golden import PRODUCERS  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in PRODUCERS:
        print(f"usage: regen.py NAME; NAME is one of: "
              f"{', '.join(PRODUCERS)}", file=sys.stderr)
        return 2
    name = argv[0]
    path = HERE / name
    old = path.read_text() if path.is_file() else ""
    with tempfile.TemporaryDirectory() as work:
        new = PRODUCERS[name](Path(work))
    path.write_text(new)
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        f"{name} (old)", f"{name} (new)", n=0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
