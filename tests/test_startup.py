"""Importing the CLI stays cheap: no module that costs start-up time for nothing.

Every `treemoments` command is a fresh interpreter, so each import it pays
for is paid by every command.  dataclasses alone pulls in inspect, ast, dis
and tokenize; the result types are built on values.Value instead, and
annotations come from collections.abc, not typing.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
AVOIDED = ("dataclasses", "inspect", "typing")

CHECK = f"""
import sys
sys.path.insert(0, sys.argv[1])
import treemoments.cli
print(" ".join(name for name in {AVOIDED!r} if name in sys.modules))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -I -S: no site packages, no PYTHONPATH, no user site; only the stdlib and src
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHECK, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == []
