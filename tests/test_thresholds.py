"""No comparison in the package reads a literal tolerance.

Thresholds come from `Tolerances` (config.py) or a named module constant, so a
check can be tightened or loosened in one place and a document's overrides
reach it.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from causalq.config import DEFAULT, Tolerances, with_overrides

SRC = Path(__file__).resolve().parents[1] / "src" / "causalq"


def _small_literals(node: ast.AST):
    """Nonzero float literals below 1e-6 in an arithmetic expression."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, float) and 0 < abs(node.value) < 1e-6:
            yield node
    elif isinstance(node, ast.UnaryOp):
        yield from _small_literals(node.operand)
    elif isinstance(node, ast.BinOp):
        yield from _small_literals(node.left)
        yield from _small_literals(node.right)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "config.py"], ids=lambda p: p.name)
def test_no_literal_threshold_in_comparisons(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {lit.lineno}: {lit.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             for operand in (node.left, *node.comparators)
             for lit in _small_literals(operand)]
    assert not found, f"{path.name} compares against literal thresholds: {found}"


def test_every_tolerance_field_is_overridable():
    for f in dataclasses.fields(Tolerances):
        tol = with_overrides({f"tol.{f.name}": 0.125})
        assert tol == DEFAULT.replace(**{f.name: 0.125})
    with pytest.raises(ValueError, match="unknown tolerance key 'tol.nope'"):
        with_overrides({"tol.nope": 1.0})
    with pytest.raises(ValueError, match="unknown tolerance key 'hermitian'"):
        with_overrides({"hermitian": 1.0})  # keys carry the "tol." prefix
