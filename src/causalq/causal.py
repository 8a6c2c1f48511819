"""Causal geometry of 1+1 dimensional flat spacetime, c = 1.

Regions come in two kinds: closed coordinate rectangles [t0,t1] x [x0,x1] in
the continuum, and finite sets of integer lattice cells (step, site) with unit
spacing and an optional spatial period (wraparound on a ring of sites).  Light
cones are closed and have unit slope; on the lattice that is one site per step.

Precedence between regions is the existence of two *distinct* causally related
points, one in each region.  A region therefore precedes itself exactly when it
contains a timelike or lightlike point pair, and regions touching only at an
instant do not precede one another.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import CycleError

__all__ = [
    "Rect", "CellRegion", "Region", "rect", "cells", "LightCone",
    "causal_future", "causal_past", "precedes", "spacelike", "cone_meets",
    "CausalOrder", "build_order", "classify_configuration", "fig2_preset",
]


@dataclass(frozen=True)
class Rect:
    """Closed rectangle [t0, t1] x [x0, x1]."""
    t0: float
    t1: float
    x0: float
    x1: float

    def __post_init__(self):
        if self.t1 < self.t0 or self.x1 < self.x0:
            raise ValueError("rectangle bounds must satisfy t0 <= t1, x0 <= x1")


@dataclass(frozen=True)
class CellRegion:
    """Finite set of lattice cells (step, site); sites wrap when period is set."""
    cells: frozenset
    period: int | None = None

    def __post_init__(self):
        if not self.cells:
            raise ValueError("cell region must be non-empty")
        if self.period is not None and self.period < 2:
            raise ValueError("period must be at least 2")

    def steps(self) -> tuple[int, int]:
        ns = [c[0] for c in self.cells]
        return min(ns), max(ns)


Region = Union[Rect, CellRegion]


def rect(t0: float, t1: float, x0: float, x1: float) -> Rect:
    return Rect(float(t0), float(t1), float(x0), float(x1))


def cells(items: Iterable[tuple[int, int]], period: int | None = None) -> CellRegion:
    return CellRegion(frozenset((int(n), int(s)) for n, s in items), period)


def _site_dist(s1: int, s2: int, period: int | None) -> int:
    d = abs(s1 - s2)
    if period is not None:
        d = min(d % period, (-d) % period)
    return d


def _interval_dist(a_lo, a_hi, b_lo, b_hi) -> float:
    """Distance between closed intervals (0 when they overlap)."""
    return max(0.0, max(a_lo, b_lo) - min(a_hi, b_hi))


@dataclass(frozen=True)
class LightCone:
    """Causal future (sign=+1) or past (sign=-1) of a region, as a predicate."""
    region: Region
    sign: int

    def contains(self, t, x) -> bool:
        r = self.region
        if isinstance(r, Rect):
            if self.sign > 0:
                return t >= r.t0 and _interval_dist(x, x, r.x0, r.x1) <= t - r.t0
            return t <= r.t1 and _interval_dist(x, x, r.x0, r.x1) <= r.t1 - t
        n, s = int(t), int(x)
        for (cn, cs) in r.cells:
            dn = (n - cn) * self.sign
            if dn >= 0 and _site_dist(s, cs, r.period) <= dn:
                return True
        return False

    def __contains__(self, point) -> bool:
        return self.contains(*point)

    def cells_between(self, step_lo: int, step_hi: int) -> frozenset:
        """Materialize the cone over a step window (lattice regions only)."""
        r = self.region
        if not isinstance(r, CellRegion):
            raise TypeError("cells_between applies to lattice regions")
        if r.period is not None:
            sites: Iterable[int] = range(r.period)
        else:
            span = max(abs(step_lo), abs(step_hi)) + max(abs(c[0]) for c in r.cells)
            lo = min(c[1] for c in r.cells) - span
            hi = max(c[1] for c in r.cells) + span
            sites = range(lo, hi + 1)
        return frozenset((n, s)
                         for n in range(step_lo, step_hi + 1)
                         for s in sites if self.contains(n, s))


def causal_future(r: Region) -> LightCone:
    return LightCone(r, +1)


def causal_past(r: Region) -> LightCone:
    return LightCone(r, -1)


def _period_of(r: Region) -> int | None:
    return r.period if isinstance(r, CellRegion) else None


def _check_compatible(a: Region, b: Region) -> None:
    pa, pb = _period_of(a), _period_of(b)
    if isinstance(a, CellRegion) and isinstance(b, CellRegion):
        if pa != pb:
            raise ValueError("lattice regions have different periods")
    elif pa is not None or pb is not None:
        raise ValueError("periodic lattice regions cannot be compared with rectangles")


def cone_meets(a: Region, b: Region) -> bool:
    """True when J+(a) intersects b (closed cones; shared points count)."""
    _check_compatible(a, b)
    if isinstance(a, Rect) and isinstance(b, Rect):
        return b.t1 >= a.t0 and _interval_dist(a.x0, a.x1, b.x0, b.x1) <= b.t1 - a.t0
    fut = causal_future(a)
    if isinstance(b, CellRegion):
        return any(fut.contains(n, s) for (n, s) in b.cells)
    # a lattice, b rectangle: some cell of a has a future reaching b
    return any(b.t1 >= n and _interval_dist(s, s, b.x0, b.x1) <= b.t1 - n
               for (n, s) in a.cells)


def precedes(a: Region, b: Region) -> bool:
    """Some point of ``a`` causally precedes some *distinct* point of ``b``.

    Distinctness rules out coincident points, so touching at one instant with
    zero spatial offset does not count as precedence.
    """
    _check_compatible(a, b)
    if isinstance(a, CellRegion) and isinstance(b, CellRegion):
        period = a.period
        for (n1, s1) in a.cells:
            for (n2, s2) in b.cells:
                if (n1, s1) == (n2, s2):
                    continue
                if n2 >= n1 and _site_dist(s1, s2, period) <= n2 - n1:
                    return True
        return False
    if isinstance(a, Rect) and isinstance(b, Rect):
        if b.t1 > a.t0:
            return _interval_dist(a.x0, a.x1, b.x0, b.x1) <= b.t1 - a.t0
        return False
    if isinstance(a, CellRegion):  # b is Rect: need a b-point strictly later
        return any(b.t1 > n and _interval_dist(s, s, b.x0, b.x1) <= b.t1 - n
                   for (n, s) in a.cells)
    # a Rect, b CellRegion: need a cell strictly later than the earliest a-time
    return any(n > a.t0 and _interval_dist(s, s, a.x0, a.x1) <= n - a.t0
               for (n, s) in b.cells)


def _overlap(a: Region, b: Region) -> bool:
    if isinstance(a, Rect) and isinstance(b, Rect):
        return (_interval_dist(a.t0, a.t1, b.t0, b.t1) == 0.0
                and _interval_dist(a.x0, a.x1, b.x0, b.x1) == 0.0)
    if isinstance(a, CellRegion) and isinstance(b, CellRegion):
        return bool(a.cells & b.cells)
    cell_r, box = (a, b) if isinstance(a, CellRegion) else (b, a)
    return any(box.t0 <= n <= box.t1 and box.x0 <= s <= box.x1 for (n, s) in cell_r.cells)


def spacelike(a: Region, b: Region) -> bool:
    """No causal curve joins the two regions (and they are disjoint)."""
    return not _overlap(a, b) and not cone_meets(a, b) and not cone_meets(b, a)


def _totally_ordered(a: Region, b: Region) -> bool:
    """Every point of ``a`` causally precedes every point of ``b``."""
    if isinstance(a, Rect) and isinstance(b, Rect):
        worst = max(abs(b.x1 - a.x0), abs(a.x1 - b.x0))
        return b.t0 - a.t1 >= worst
    if isinstance(a, CellRegion) and isinstance(b, CellRegion):
        period = a.period
        return all(n2 - n1 >= _site_dist(s1, s2, period)
                   for (n1, s1) in a.cells for (n2, s2) in b.cells)
    if isinstance(a, Rect):
        return all(n - a.t1 >= max(abs(s - a.x0), abs(s - a.x1)) for (n, s) in b.cells)
    return all(b.t0 - n >= max(abs(s - b.x0), abs(s - b.x1)) for (n, s) in a.cells)


class CausalOrder:
    """Reflexive transitive closure of region precedence, as a partial order."""

    def __init__(self, regions: Sequence[Region], leq: np.ndarray):
        self.regions = tuple(regions)
        self.leq = leq

    def __len__(self) -> int:
        return len(self.regions)

    def before(self, i: int, j: int) -> bool:
        """True when region i is (weakly) before region j in the closure."""
        return bool(self.leq[i, j])

    def linear_extensions(self, limit: int = 8) -> Iterator[tuple[int, ...]]:
        """All total orders refining the partial order (Kahn enumeration)."""
        n = len(self)
        if n > limit:
            raise ValueError(f"linear extension enumeration capped at {limit} regions")
        strict = self.leq & ~self.leq.T  # i strictly before j
        remaining = set(range(n))
        prefix: list[int] = []

        def rec():
            if not remaining:
                yield tuple(prefix)
                return
            for i in sorted(remaining):
                if all(not strict[j, i] for j in remaining if j != i):
                    remaining.remove(i)
                    prefix.append(i)
                    yield from rec()
                    prefix.pop()
                    remaining.add(i)

        yield from rec()


def build_order(regions: Sequence[Region]) -> CausalOrder:
    """Causal order on regions; CycleError when closure breaks antisymmetry."""
    n = len(regions)
    base = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and precedes(regions[i], regions[j]):
                base[i, j] = True
    closure = base | np.eye(n, dtype=bool)
    for k in range(n):  # Warshall
        closure |= np.outer(closure[:, k], closure[k, :])
    for i in range(n):
        for j in range(i + 1, n):
            if closure[i, j] and closure[j, i]:
                raise CycleError(
                    f"regions {i} and {j} precede each other after closure")
    return CausalOrder(regions, closure)


def classify_configuration(a: Region, b: Region, c: Region) -> str:
    """Classify a region triple.

    sorkin_type: b meets both J+(a) and J-(c) while a and c are spacelike.
    strictly_ordered: every pair totally ordered pointwise, one way or other.
    all_spacelike: pairwise spacelike.  Anything else: other.
    """
    if cone_meets(a, b) and cone_meets(b, c) and spacelike(a, c):
        return "sorkin_type"
    pairs = [(a, b), (b, c), (a, c)]
    if all(_totally_ordered(r, s) or _totally_ordered(s, r) for r, s in pairs):
        return "strictly_ordered"
    if all(spacelike(r, s) for r, s in pairs):
        return "all_spacelike"
    return "other"


def fig2_preset() -> tuple[Rect, Rect, Rect]:
    """Canonical kick / bridge / receiver rectangles.

    O1 and O3 are spacelike; O2 partially enters both the future cone of O1
    and the past cone of O3, so the triple classifies as sorkin_type.
    """
    o1 = rect(0.0, 1.0, -4.0, -3.0)
    o2 = rect(1.5, 2.5, -3.5, 3.5)
    o3 = rect(3.0, 4.0, 3.0, 4.0)
    return o1, o2, o3
