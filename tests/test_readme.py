"""The README's library example runs and shows what its comments say."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_values_match_their_comments():
    # each expression statement's comment must start with the repr of its value
    source = _quick_tour()
    comments = {tok.start[0]: tok.string.lstrip("# ")
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = repr(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
            assert comments[stmt.end_lineno].startswith(value), (stmt.end_lineno, value)
            shown.append(value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown == ["True", "False", "PushOutcome(position=0, whistled=False, witness=None)"]
