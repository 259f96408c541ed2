"""Rewrite every file in tests/golden/ from the CLI's current output.

    PYTHONPATH=src python tests/golden/regen.py

Each file is the stdout of one ``test_golden.CASES`` entry, and the script
stops at a case whose exit code is not the one it records.  Run it only for
an intended change of output, and review the diff: ``test_golden`` compares
floats to 1e-12, so any larger change in the diff is a changed result.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CASES, golden_file  # noqa: E402

from lemniscate.cli import main  # noqa: E402


def regenerate() -> None:
    for argv, exit_code in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != exit_code:
            raise SystemExit(f"{' '.join(argv)} exited {code}, the case expects {exit_code}")
        golden_file(argv).write_text(out.getvalue())


if __name__ == "__main__":
    regenerate()
