"""Every `$ treemoments ...` example in README.md prints what the README shows.

An example's expected output is the block of lines after the command, up to
a blank line or the end of the code fence.  Lines are compared cell by cell
(whitespace-separated, so column widths may differ).  A cell reading `...`
matches any one cell; a line reading `...` matches any run of lines,
including none.

The README's ```python library block runs too, one statement at a time.  A
statement whose comment is a value (`# 593742784829`, `# Fraction(-1, 1)`)
must return that value, with its type; a string value ending in `...`
matches any string that starts with the rest.  Other comments are prose.
"""

import ast
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from treemoments.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ treemoments "


def readme_examples() -> list[tuple[str, list[str]]]:
    examples = []
    in_fence = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            current = None
        elif in_fence and line.startswith(PROMPT):
            current = []
            examples.append((line[len(PROMPT):], current))
        elif current is not None and line.strip():
            current.append(line)
        else:
            current = None
    return examples


def cells_match(expected: str, actual: str) -> bool:
    want, got = expected.split(), actual.split()
    return len(want) == len(got) and all(w in ("...", g) for w, g in zip(want, got))


def lines_match(expected: list[str], actual: list[str]) -> bool:
    if not expected:
        return not actual
    head, rest = expected[0], expected[1:]
    if head.strip() == "...":
        return any(lines_match(rest, actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and cells_match(head, actual[0]) and lines_match(rest, actual[1:])


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(capsys, command, expected):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    actual = captured.out.splitlines()
    assert lines_match(expected, actual), "\n".join(actual)


def library_block() -> str:
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start : text.index("```", start)]


def comment_value(comment: str):
    """The value a comment shows, or None when the comment is prose."""
    try:
        return eval(comment, {"__builtins__": {}, "Fraction": Fraction})
    except (SyntaxError, NameError):
        return None


def test_library_block_returns_what_its_comments_show():
    source = library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        expected = comment_value(lines[node.end_lineno - 1].partition("#")[2].strip())
        if expected is None:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(node, ast.Expr), ast.get_source_segment(source, node)
        actual = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert type(actual) is type(expected)
        if isinstance(expected, str) and expected.endswith("..."):
            assert actual.startswith(expected[:-3]), actual
        else:
            assert actual == expected
        checked += 1
    assert checked == 5


def test_ellipsis_matching():
    assert lines_match(["a 1", "...", "z 9"], ["a 1", "b 2", "c 3", "z 9"])
    assert lines_match(["a ...", "..."], ["a 1"])
    assert not lines_match(["a 1", "z 9"], ["a 1", "b 2", "z 9"])
    assert not lines_match(["a ..."], ["a 1 2"])
