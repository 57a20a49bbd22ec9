"""The README's python examples run, and print what their comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def stated(comment: str):
    """The value a comment states, as (text, exact): its first word, where
    that is a Python literal (``11``, ``True``, ``b'...'``), or digits that
    go on (``11.3611...``); None for a comment that states no value."""
    word = comment.split()[0].rstrip(";") if comment.split() else ""
    if word.endswith("..."):
        return word[:-3], False
    try:
        return ast.literal_eval(word), True
    except (ValueError, SyntaxError):
        return None


def run_block(source: str) -> dict[str, object]:
    """Run a block statement by statement and check each bare expression
    against the value its comment states; the expressions checked, by
    source text."""
    lines = source.splitlines()
    namespace: dict = {}
    checked = {}
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], type_ignores=[]), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        line = lines[node.end_lineno - 1]
        claim = stated(line.split("#", 1)[1]) if "#" in line else None
        if claim is None:
            continue
        expected, exact = claim
        expr = ast.get_source_segment(source, node.value)
        if exact:
            assert value == expected and type(value) is type(expected), (expr, value)
        else:
            assert str(value).startswith(expected), (expr, value, expected)
        checked[expr] = value
    return checked


def test_python_examples_print_what_they_state():
    blocks = python_blocks()
    assert len(blocks) == 2
    checked = {}
    for block in blocks:
        checked.update(run_block(block))
    assert checked["mech.radius"] == 11.361114778489599
    assert checked["pair.lower"] == 0.5818444687860235
    assert checked["report.passed"] is True
    assert checked['len(table["epsilon"])'] == 400
    # every stated value of the two examples was checked
    assert len(checked) == 13

