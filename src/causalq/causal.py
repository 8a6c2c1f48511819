"""Causal geometry of 1+1 dimensional flat spacetime, c = 1.

Regions come in two kinds: closed coordinate rectangles [t0,t1] x [x0,x1] in
the continuum, and finite sets of integer lattice cells (step, site) with unit
spacing and an optional spatial period (wraparound on a ring of sites).  Light
cones are closed and have unit slope; on the lattice that is one site per step.

Every relation is one slope-1 inequality over pairs of closed boxes
(t0, t1, x0, x1): a rectangle is one box, each cell a point box.  Spatial
distances wrap on the ring when the regions share a period, so the labels
(n, s) and (n, s + period) name one point.

Precedence between regions is the existence of two *distinct* causally related
points, one in each region; on boxes that is a positive reach in time.  A
region therefore precedes itself exactly when it contains a timelike or
lightlike point pair, and regions touching only at an instant do not precede
one another.  Spacelike means neither closed cone meets the other region;
disjointness needs no test of its own, as a shared point lies in both cones.
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


def _boxes(r: Region) -> list[tuple]:
    """The region as closed boxes (t0, t1, x0, x1); each cell is a point box."""
    if isinstance(r, Rect):
        return [(r.t0, r.t1, r.x0, r.x1)]
    return [(n, n, s, s) for n, s in r.cells]


def _period(a: Region, b: Region) -> int | None:
    """The spatial period the two regions share; None on the line."""
    pa, pb = (r.period if isinstance(r, CellRegion) else None for r in (a, b))
    if pa != pb:
        if isinstance(a, CellRegion) and isinstance(b, CellRegion):
            raise ValueError("lattice regions have different periods")
        raise ValueError("periodic lattice regions cannot be compared with rectangles")
    return pa


def _ring(d, period: int | None):
    """A spatial distance, wrapped on the ring when there is a period."""
    return d if period is None else min(d % period, -d % period)


def _reaches(ps: list, qs: list, period: int | None, strict: bool = False) -> bool:
    """Some box q meets the closed future cone of some box p: the reach
    dt = q.t1 - p.t0 covers their spatial gap, and is positive when `strict`.
    """
    for p in ps:
        for q in qs:
            dt = q[1] - p[0]
            gap = _ring(max(0, max(p[2], q[2]) - min(p[3], q[3])), period)
            if gap <= dt and (dt > 0 or not strict):
                return True
    return False


@dataclass(frozen=True)
class LightCone:
    """Causal future (sign=+1) or past (sign=-1) of a region, as a predicate."""
    region: Region
    sign: int

    def contains(self, t, x) -> bool:
        """Whether the point (t, x) lies in the cone (a lattice point for cells)."""
        r = self.region
        ps, qs = _boxes(r), [(t, t, x, x)]
        return _reaches(*((ps, qs) if self.sign > 0 else (qs, ps)), _period(r, r))

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


def cone_meets(a: Region, b: Region) -> bool:
    """True when J+(a) intersects b (closed cones; shared points count)."""
    return _reaches(_boxes(a), _boxes(b), _period(a, b))


def precedes(a: Region, b: Region) -> bool:
    """Some point of ``a`` causally precedes some *distinct* point of ``b``.

    Distinctness rules out coincident points, so touching at one instant with
    zero spatial offset does not count as precedence.
    """
    return _reaches(_boxes(a), _boxes(b), _period(a, b), strict=True)


def spacelike(a: Region, b: Region) -> bool:
    """No causal curve joins the two regions (so they are also disjoint)."""
    return not cone_meets(a, b) and not cone_meets(b, a)


def _totally_ordered(a: Region, b: Region) -> bool:
    """Every point of ``a`` causally precedes every point of ``b``: for each
    box pair, q.t0 - p.t1 covers the farthest spatial distance."""
    period = _period(a, b)
    qs = _boxes(b)
    return all(q[0] - p[1] >= _ring(max(q[3] - p[2], p[3] - q[2]), period)
               for p in _boxes(a) for q in qs)


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

    def linear_extensions(self, limit: int = 8, independent: np.ndarray | None = None
                          ) -> Iterator[tuple[int, ...]]:
        """Total orders refining the partial order (Kahn enumeration), in
        lexicographic order.

        Without `independent`, every linear extension.  With a symmetric
        boolean matrix of independent pairs, one extension per commutation
        class (Mazurkiewicz trace): extensions that adjacent swaps of
        independent elements turn into one another form a class, and only its
        lexicographically least member, its normal form, is yielded
        (Anisimov & Knuth 1979).  Comparable pairs count as dependent whatever
        the matrix says.  An element is not appended after a run of prefix
        elements independent of it that holds a larger one, since it could
        swap ahead of that one; every prefix of a normal form is a normal
        form, so the test prunes whole subtrees.
        """
        n = len(self)
        if n > limit:
            raise ValueError(f"linear extension enumeration capped at {limit} regions")
        strict = self.leq & ~self.leq.T  # i strictly before j
        if independent is not None:
            independent = independent & ~(self.leq | self.leq.T)
        remaining = set(range(n))
        prefix: list[int] = []

        def swaps_ahead(i: int) -> bool:
            for b in reversed(prefix):
                if not independent[b, i]:
                    return False
                if b > i:
                    return True
            return False

        def rec():
            if not remaining:
                yield tuple(prefix)
                return
            for i in sorted(remaining):
                if any(strict[j, i] for j in remaining if j != i):
                    continue
                if independent is not None and swaps_ahead(i):
                    continue
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
