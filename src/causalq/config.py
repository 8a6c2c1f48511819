"""Numerical tolerances, overridable per call site or from configuration files."""
from __future__ import annotations

import dataclasses
import numbers
from collections.abc import Mapping
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # validation of value types
    hermitian: float = 1e-12
    trace: float = 1e-12
    projector: float = 1e-10
    positivity: float = 1e-10
    unitary: float = 1e-10
    support: float = 1e-12
    # eigenvalue clustering is relative to the spectral scale
    degeneracy: float = 1e-9
    # generic operator-equation residuals (commutators, condition checks)
    operator: float = 1e-10
    # probability floor for selective updates
    probability: float = 1e-14

    def replace(self, **kw) -> "Tolerances":
        return dataclasses.replace(self, **kw)


DEFAULT = Tolerances()

# configuration key "tol.<name>" for every dataclass field
_KEYS = {f"tol.{f.name}": f.name for f in dataclasses.fields(Tolerances)}


def with_overrides(overrides: Mapping | None, base: Tolerances = DEFAULT) -> Tolerances:
    """Apply a ``{"tol.<name>": value}`` mapping on top of ``base``.

    Raises ``ValueError`` for an unknown key, when ``overrides`` is not a
    mapping, or when a value is not a real number.
    """
    if overrides is not None and not isinstance(overrides, Mapping):
        raise ValueError(
            f"expected a mapping of tolerances, got {type(overrides).__name__}")
    if not overrides:
        return base
    kw = {}
    for key, value in overrides.items():
        if key not in _KEYS:
            raise ValueError(f"unknown tolerance key {key!r}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{key} must be a real number, not {value!r}")
        kw[_KEYS[key]] = float(value)
    return base.replace(**kw)
