"""The program states its checks as raises, never as `assert` statements.

`python -O` strips every `assert`, so a check written that way would
quietly stop running; each check raises instead.  A failed check raises
`InternalInvariantError`, never a bare `AssertionError`, so that the CLI
reports it as a solver fault like every other.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "netbargain"


def _nodes():
    assert SRC.is_dir()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statement_in_the_program():
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_assertion_error_raised_in_the_program():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert found == []
