"""The program states its checks as raises, never as `assert` statements.

`python -O` strips every `assert`, so a check written that way would
quietly stop running; each check raises instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "netbargain"


def test_no_assert_statement_in_the_program():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and found == []
