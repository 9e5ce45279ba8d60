"""The README's library quick start runs and returns what its comments say."""

import ast
import math
import pathlib
import re

import pytest

from ginfluct.radial import radial_count_var

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_values() -> dict:
    """Run the README's one ```python block; map each bare expression's
    source text to its value."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    env: dict = {}
    values = {}
    for stmt in ast.parse(blocks[0]).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README", "eval")
            values[ast.unparse(stmt)] = eval(code, env)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), env)
    return values


def test_quick_start_values():
    values = quick_start_values()
    assert values["radial_cov_exact(r2, r2, 10)"] == pytest.approx(0.55, rel=1e-14, abs=0.0)
    assert values["angular_cov_exact(f, f, 2)"] == pytest.approx(4.0 - math.pi / 2.0,
                                                                  rel=1e-14, abs=0.0)
    assert values["cs.cumulant(2)"] == pytest.approx(radial_count_var(256, 0.4, 0.8),
                                                     rel=1e-12, abs=0.0)
