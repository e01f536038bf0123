"""guess-rec prints byte-identical output across a pinned sweep.

Each digest is sha256 over, for every format in turn, the line
"<format> <exit code>" followed by the command's stdout.  The digests were
taken from the solver that ranked rows modulo 2^61 - 1 and solved over
Fraction (see CHANGES.md), by running this same sweep.  The sweep covers
count and numerator statistics, searches that find a recurrence and
searches that find none, and too few terms for the bounds (exit 2).
"""

import contextlib
import hashlib
import io

import pytest

from treemoments.cli import main

PAIRS = {
    "0,1,2": (0, 2),
    "0,2": (0, 2),
    "0,1,3": (1, 3),
    "0,1,2,3": (0, 3),
    "0,1,5": (1, 5),
    "0,2,3": (2, 3),
}
FORMATS = ("text", "csv", "json")
COMMANDS = {
    "count": "guess-rec -S {s}",
    "count-tight": "guess-rec -S {s} --terms 30 --max-order 2 --max-degree 1",
    "count-short": "guess-rec -S {s} --terms 20",
    "numerator": "guess-rec -S {s} --stat numerator --s1 {a} --p 2",
    "mixed": (
        "guess-rec -S {s} --stat numerator --s1 {a} --s2 {b} --p 1,1 "
        "--terms 60 --max-order 3 --max-degree 3 --margin 4"
    ),
}


def sweep_digest(command, child_set):
    a, b = PAIRS[child_set]
    digest = hashlib.sha256()
    for fmt in FORMATS:
        argv = COMMANDS[command].format(s=child_set, a=a, b=b).split()
        argv += ["--format", fmt]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        digest.update(f"{fmt} {code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


DIGESTS = {
    ("count", "0,1,2"):
        "2e63af37a70c3a9b228e70fc051ac07455182b963e44608b15059cd81c3faecb",
    ("count", "0,2"):
        "8dc625849f9ed10c94e15b656d4acf16a47e73e22acd155d4a8cc40eb8e2ae2c",
    ("count", "0,1,3"):
        "61a99dc2700fc964279b8510bda6af1caf5ad4bba6c1d615cfb879e4d2c2ab12",
    ("count", "0,1,2,3"):
        "ae0194b69af7ddb72d024cc1288710178c63085a598ac3986ec74ac007581040",
    ("count", "0,1,5"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("count", "0,2,3"):
        "c2eaf5ca5cb6e42effba0ce619dbe128ec9e8c5d3c77cc22ae3fbc1e20e04b20",
    ("count-tight", "0,1,2"):
        "76036f1c91ec4ad279969ce6ed9809930520ed37fdf9f3079f96a9af705d8248",
    ("count-tight", "0,2"):
        "4d31ad670e94444d9ff6a636180c43aee6a6e3e158305b86c68916e676ffc239",
    ("count-tight", "0,1,3"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("count-tight", "0,1,2,3"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("count-tight", "0,1,5"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("count-tight", "0,2,3"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("count-short", "0,1,2"):
        "3a3e14a490852f3edf983c513fa554138b8ec80b9f85ddd57b22d1dc290bae10",
    ("count-short", "0,2"):
        "3a3e14a490852f3edf983c513fa554138b8ec80b9f85ddd57b22d1dc290bae10",
    ("count-short", "0,1,3"):
        "3a3e14a490852f3edf983c513fa554138b8ec80b9f85ddd57b22d1dc290bae10",
    ("count-short", "0,1,2,3"):
        "3a3e14a490852f3edf983c513fa554138b8ec80b9f85ddd57b22d1dc290bae10",
    ("count-short", "0,1,5"):
        "3a3e14a490852f3edf983c513fa554138b8ec80b9f85ddd57b22d1dc290bae10",
    ("count-short", "0,2,3"):
        "3a3e14a490852f3edf983c513fa554138b8ec80b9f85ddd57b22d1dc290bae10",
    ("numerator", "0,1,2"):
        "ab5c6f31a7f4c6a1e0c7ba62b0af02ed6c67ef862c2297c6ece94438ea526aca",
    ("numerator", "0,2"):
        "d304fd7d7e6f3611c270de807a8075cfb8d00ff88042487fd44f5dbc77969841",
    ("numerator", "0,1,3"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("numerator", "0,1,2,3"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("numerator", "0,1,5"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("numerator", "0,2,3"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("mixed", "0,1,2"):
        "007d850227a6cef051cd453023ab8c46764ca86e6c3bbf6062b64b471ad48abb",
    ("mixed", "0,2"):
        "5f3f401f53aec71f2aece322a7baa32198694ff434ad0d2ef244c59e344c29b2",
    ("mixed", "0,1,3"):
        "96277cde1fdd5a3c3a11efce3b522a6dafd4c51a1b87afc3a67b9999934dfbf6",
    ("mixed", "0,1,2,3"):
        "04975314e01b90183543fb588741adf51169099058a773cdc35ed9d674ec7def",
    ("mixed", "0,1,5"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
    ("mixed", "0,2,3"):
        "afb4dde819bc493eaddbd9752ba03e727318d252104e989397191e73be822848",
}


@pytest.mark.parametrize("command, child_set", sorted(DIGESTS))
def test_stdout_and_exit_codes_are_pinned(command, child_set):
    assert sweep_digest(command, child_set) == DIGESTS[(command, child_set)]
