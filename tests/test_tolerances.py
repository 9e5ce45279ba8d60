"""Lint guard on the suite's own tolerances.

`pytest.approx(x, rel=r)` keeps its default abs = 1e-12, so for |x| < 1 a
"rel" check is really an absolute one.  Every approx call that states rel=
must state abs= too.
"""

import ast
import pathlib


def _rel_only_approx_calls(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keys = {kw.arg for kw in node.keywords}
        if name == "approx" and "rel" in keys and "abs" not in keys:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_relative_approx_states_abs():
    paths = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    assert len(paths) > 5
    offenders = [site for path in paths for site in _rel_only_approx_calls(path)]
    assert offenders == []
