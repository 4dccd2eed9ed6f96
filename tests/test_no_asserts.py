"""The program states its checks as raises, never as `assert` statements.

`python -O` strips every `assert`, so a check written that way would
quietly stop running; each check raises instead.  A failed check raises
`InternalInvariantError`, never a bare `AssertionError`, so that the CLI
reports it as a solver fault like every other.  An LP answer is proven
in one place, `exactlp.certified`, which every caller goes through.
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


def _calls(node, name, where):
    """(file, innermost function, line) of each call of `name` below `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            f = child.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                yield (*where, child.lineno)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, name, (where[0], child.name))
        else:
            yield from _calls(child, name, where)


def test_only_exactlp_certified_checks_certificates():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += _calls(tree, "check_certificates", (path.name, "<module>"))
    assert [(file, function) for file, function, _ in calls] == [("exactlp.py", "certified")], calls
