import numpy as np
import pytest

from causalq import causal
from causalq.causal import (CausalOrder, CellRegion, Rect, build_order, cells,
                            causal_future, causal_past, classify_configuration,
                            cone_meets, fig2_preset, precedes, rect, spacelike)
from causalq.errors import CycleError


def test_rect_validation():
    with pytest.raises(ValueError):
        rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cells([])


def test_future_cone_contains_rect():
    cone = causal_future(rect(0, 0, 0, 0))
    assert (1.0, 1.0) in cone        # lightlike boundary counts
    assert (1.0, 0.5) in cone
    assert (1.0, 1.5) not in cone
    assert (-0.1, 0.0) not in cone


def test_past_cone_contains_rect():
    cone = causal_past(rect(2, 2, 0, 0))
    assert (1.0, 1.0) in cone
    assert (1.0, -1.0) in cone
    assert (1.0, 1.1) not in cone
    assert (3.0, 0.0) not in cone


def test_lattice_cone_slope_one():
    cone = causal_future(cells([(0, 0)]))
    assert (3, 3) in cone and (3, -3) in cone and (3, 0) in cone
    assert (3, 4) not in cone
    assert (-1, 0) not in cone


def test_lattice_cone_periodic_wrap():
    cone = causal_future(cells([(0, 0)], period=8))
    assert (1, 7) in cone            # one step left wraps to site 7
    assert (2, 6) in cone
    assert (2, 5) not in cone


def test_cells_between_materializes_cone():
    cone = causal_future(cells([(0, 0)], period=16))
    got = cone.cells_between(0, 2)
    want = {(0, 0), (1, 15), (1, 0), (1, 1),
            (2, 14), (2, 15), (2, 0), (2, 1), (2, 2)}
    assert got == want


def test_precedes_boundary_lightlike_contact():
    # corner of one rectangle lightlike from the other: closed cones touch
    a = rect(0, 1, 0, 1)
    b = rect(2, 3, 2, 3)
    assert precedes(a, b)            # (1,1) -> (2,2) lightlike
    assert not precedes(b, a)


def test_precedes_requires_distinct_points():
    # sharing exactly one instant point is not precedence
    a = rect(0, 0, 0, 0)
    assert not precedes(a, a)
    b = rect(0, 1, 0, 0)
    assert precedes(b, b)            # timelike pair inside the same region


def test_precedes_spacelike_pair_false_both_ways():
    a = rect(0, 1, -5, -4)
    b = rect(0, 1, 4, 5)
    assert not precedes(a, b) and not precedes(b, a)
    assert spacelike(a, b)


def test_precedes_slab_above():
    o1 = rect(0, 1, 0, 1)
    slab = rect(2, 2.5, -10, 10)
    assert precedes(o1, slab)
    assert not precedes(slab, o1)


def test_fig2_pairwise_relations():
    o1, o2, o3 = fig2_preset()
    assert precedes(o1, o2)
    assert precedes(o2, o3)
    assert not precedes(o1, o3)
    assert spacelike(o1, o3)


def test_precedes_mixed_rect_lattice():
    a = cells([(0, 0)])
    b = rect(2.0, 3.0, 1.0, 2.0)
    assert precedes(a, b)
    assert not precedes(b, a)
    c = rect(0.0, 0.0, 0.0, 0.0)     # coincides with the single cell
    assert not precedes(a, c) and not precedes(c, a)


def test_mixed_periodic_comparison_rejected():
    with pytest.raises(ValueError):
        precedes(cells([(0, 0)], period=8), rect(1, 2, 0, 1))


def test_build_order_fig2_closure():
    order = build_order(list(fig2_preset()))
    assert order.before(0, 1) and order.before(1, 2)
    assert order.before(0, 2)        # induced by transitive closure
    assert not order.before(2, 0)


def test_build_order_single_region_trivial():
    order = build_order([rect(0, 1, 0, 1)])
    assert len(order) == 1 and order.before(0, 0)


def test_build_order_cycle_detected():
    # interleaved tall rectangles: each contains a point preceding the other
    a = rect(0.0, 10.0, 0.0, 0.5)
    b = rect(0.0, 10.0, 1.0, 1.5)
    with pytest.raises(CycleError):
        build_order([a, b])


def test_closure_idempotent():
    regions = list(fig2_preset())
    order = build_order(regions)
    closure = order.leq.copy()
    again = closure.copy()
    for k in range(len(regions)):
        again |= np.outer(again[:, k], again[k, :])
    assert (again == closure).all()


def test_linear_extensions_respect_strict_pairs():
    order = build_order(list(fig2_preset()))
    exts = list(order.linear_extensions())
    assert exts == [(0, 1, 2)]


def test_linear_extensions_antichain():
    regions = [rect(0, 1, 10 * i, 10 * i + 1) for i in range(3)]
    order = build_order(regions)
    assert len(list(order.linear_extensions())) == 6


def test_linear_extensions_cap():
    regions = [rect(0, 1, 10 * i, 10 * i + 1) for i in range(9)]
    order = build_order(regions)
    with pytest.raises(ValueError):
        list(order.linear_extensions())


def test_classify_fig2_sorkin_type():
    assert classify_configuration(*fig2_preset()) == "sorkin_type"


def test_classify_stacked_strictly_ordered():
    a = rect(0, 1, 0, 1)
    b = rect(3, 4, 0, 1)
    c = rect(6, 7, 0, 1)
    assert classify_configuration(a, b, c) == "strictly_ordered"


def test_classify_all_spacelike():
    a = rect(0, 1, -10, -9)
    b = rect(0, 1, 0, 1)
    c = rect(0, 1, 9, 10)
    assert classify_configuration(a, b, c) == "all_spacelike"


def test_classify_other():
    # b overlaps a's future but a and c are timelike, so no class fits
    a = rect(0, 1, 0, 1)
    b = rect(0.5, 1.5, 0, 1)
    c = rect(10, 11, 0, 1)
    assert classify_configuration(a, c, b) == "other"


def test_lattice_continuum_cone_agreement():
    # hull rectangle of a cell block reaches the same lattice points
    block = cells([(n, s) for n in (0, 1) for s in (0, 1)])
    hull = rect(0, 1, 0, 1)
    lat = causal_future(block)
    cont = causal_future(hull)
    for n in range(-2, 6):
        for s in range(-6, 8):
            assert lat.contains(n, s) == cont.contains(n, s)


def test_precedes_monotone_under_enlargement():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t0, x0 = rng.uniform(-3, 3, size=2)
        a = rect(t0, t0 + rng.uniform(0, 2), x0, x0 + rng.uniform(0, 2))
        big = rect(a.t0 - 0.5, a.t1 + 0.5, a.x0 - 0.5, a.x1 + 0.5)
        t1, x1 = rng.uniform(-4, 4, size=2)
        b = rect(t1, t1 + rng.uniform(0, 2), x1, x1 + rng.uniform(0, 2))
        if precedes(a, b):
            assert precedes(big, b)


def test_linear_extensions_consistent_on_comparable_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        regions = []
        for i in range(4):
            t0 = rng.uniform(0, 6)
            x0 = rng.uniform(-6, 6)
            regions.append(rect(t0, t0 + 0.5, x0, x0 + 0.5))
        try:
            order = build_order(regions)
        except CycleError:
            continue
        strict = order.leq & ~order.leq.T
        for ext in order.linear_extensions():
            pos = {r: k for k, r in enumerate(ext)}
            for i in range(4):
                for j in range(4):
                    if strict[i, j]:
                        assert pos[i] < pos[j]


def test_spacelike_symmetric_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        t0, t1 = sorted(rng.uniform(-3, 3, size=2))
        x0, x1 = sorted(rng.uniform(-6, 6, size=2))
        a = rect(t0, t1, x0, x1)
        t0, t1 = sorted(rng.uniform(-3, 3, size=2))
        x0, x1 = sorted(rng.uniform(-6, 6, size=2))
        b = rect(t0, t1, x0, x1)
        assert spacelike(a, b) == spacelike(b, a)
        if spacelike(a, b):
            assert not precedes(a, b) and not precedes(b, a)


def test_cone_meets_vs_precedes_instant_touch():
    # cones meet at a single shared instant point, yet neither precedes
    a = rect(0, 0, 0, 0)
    b = rect(0, 0, 0, 0)
    assert cone_meets(a, b)
    assert not precedes(a, b)


# The per-type formulas the box model replaced, kept as a test oracle.

def _ref_site(s1, s2, period):
    d = abs(s1 - s2)
    return d if period is None else min(d % period, (-d) % period)


def _ref_iv(a_lo, a_hi, b_lo, b_hi):
    return max(0.0, max(a_lo, b_lo) - min(a_hi, b_hi))


def _ref_contains(r, sign, t, x):
    if isinstance(r, Rect):
        if sign > 0:
            return t >= r.t0 and _ref_iv(x, x, r.x0, r.x1) <= t - r.t0
        return t <= r.t1 and _ref_iv(x, x, r.x0, r.x1) <= r.t1 - t
    return any((t - cn) * sign >= 0 and _ref_site(x, cs, r.period) <= (t - cn) * sign
               for cn, cs in r.cells)


def _ref_cone_meets(a, b):
    if isinstance(a, Rect) and isinstance(b, Rect):
        return b.t1 >= a.t0 and _ref_iv(a.x0, a.x1, b.x0, b.x1) <= b.t1 - a.t0
    if isinstance(b, CellRegion):
        return any(_ref_contains(a, +1, n, s) for n, s in b.cells)
    return any(b.t1 >= n and _ref_iv(s, s, b.x0, b.x1) <= b.t1 - n for n, s in a.cells)


def _ref_precedes(a, b):
    if isinstance(a, CellRegion) and isinstance(b, CellRegion):
        return any((n1, s1) != (n2, s2) and n2 >= n1
                   and _ref_site(s1, s2, a.period) <= n2 - n1
                   for n1, s1 in a.cells for n2, s2 in b.cells)
    if isinstance(a, Rect) and isinstance(b, Rect):
        return b.t1 > a.t0 and _ref_iv(a.x0, a.x1, b.x0, b.x1) <= b.t1 - a.t0
    if isinstance(a, CellRegion):
        return any(b.t1 > n and _ref_iv(s, s, b.x0, b.x1) <= b.t1 - n for n, s in a.cells)
    return any(n > a.t0 and _ref_iv(s, s, a.x0, a.x1) <= n - a.t0 for n, s in b.cells)


def _ref_overlap(a, b):
    if isinstance(a, Rect) and isinstance(b, Rect):
        return (_ref_iv(a.t0, a.t1, b.t0, b.t1) == 0.0
                and _ref_iv(a.x0, a.x1, b.x0, b.x1) == 0.0)
    if isinstance(a, CellRegion) and isinstance(b, CellRegion):
        return bool(a.cells & b.cells)
    cr, box = (a, b) if isinstance(a, CellRegion) else (b, a)
    return any(box.t0 <= n <= box.t1 and box.x0 <= s <= box.x1 for n, s in cr.cells)


def _ref_spacelike(a, b):
    return not (_ref_overlap(a, b) or _ref_cone_meets(a, b) or _ref_cone_meets(b, a))


def _ref_totally_ordered(a, b):
    if isinstance(a, Rect) and isinstance(b, Rect):
        return b.t0 - a.t1 >= max(abs(b.x1 - a.x0), abs(a.x1 - b.x0))
    if isinstance(a, CellRegion) and isinstance(b, CellRegion):
        return all(n2 - n1 >= _ref_site(s1, s2, a.period)
                   for n1, s1 in a.cells for n2, s2 in b.cells)
    if isinstance(a, Rect):
        return all(n - a.t1 >= max(abs(s - a.x0), abs(s - a.x1)) for n, s in b.cells)
    return all(b.t0 - n >= max(abs(s - b.x0), abs(s - b.x1)) for n, s in a.cells)


def _ref_classify(a, b, c):
    if _ref_cone_meets(a, b) and _ref_cone_meets(b, c) and _ref_spacelike(a, c):
        return "sorkin_type"
    pairs = [(a, b), (b, c), (a, c)]
    if all(_ref_totally_ordered(r, s) or _ref_totally_ordered(s, r) for r, s in pairs):
        return "strictly_ordered"
    if all(_ref_spacelike(r, s) for r, s in pairs):
        return "all_spacelike"
    return "other"


def _random_rect(rng):
    # half-integer corners make lightlike and instant contacts common
    t0, x0 = rng.integers(-6, 7, size=2) / 2
    dt, dx = rng.integers(0, 4, size=2) / 2
    return rect(t0, t0 + dt, x0, x0 + dx)


def _random_cells(rng, period=None):
    hi = period if period is not None else 5
    lo = 0 if period is not None else -4
    k = int(rng.integers(1, 5))
    return cells(zip(rng.integers(-3, 4, size=k), rng.integers(lo, hi, size=k)), period)


def _random_pair(rng, kind):
    if kind == "rect":
        return _random_rect(rng), _random_rect(rng)
    if kind == "chain":
        return _random_cells(rng), _random_cells(rng)
    if kind == "ring":
        period = int(rng.choice([2, 3, 5, 8]))
        return _random_cells(rng, period), _random_cells(rng, period)
    pair = (_random_rect(rng), _random_cells(rng))
    return pair if rng.random() < 0.5 else pair[::-1]


@pytest.mark.parametrize("kind", ["rect", "chain", "ring", "mixed"])
def test_box_relations_match_per_type_formulas(kind):
    rng = np.random.default_rng(["rect", "chain", "ring", "mixed"].index(kind))
    for _ in range(500):
        a, b = _random_pair(rng, kind)
        assert cone_meets(a, b) == _ref_cone_meets(a, b), (a, b)
        assert precedes(a, b) == _ref_precedes(a, b), (a, b)
        assert spacelike(a, b) == _ref_spacelike(a, b), (a, b)
        assert causal._totally_ordered(a, b) == _ref_totally_ordered(a, b), (a, b)
        t, x = int(rng.integers(-4, 5)), int(rng.integers(-5, 6))
        if isinstance(a, CellRegion) and a.period is not None:
            x %= a.period
        for sign in (+1, -1):
            cone = causal.LightCone(a, sign)
            assert cone.contains(t, x) == _ref_contains(a, sign, t, x), (cone, t, x)


def test_classify_cell_triples_match_per_type_formulas():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(400):
        period = [None, 6][int(rng.integers(0, 2))]
        triple = [_random_cells(rng, period) for _ in range(3)]
        got = classify_configuration(*triple)
        assert got == _ref_classify(*triple), triple
        seen.add(got)
    assert seen == {"sorkin_type", "strictly_ordered", "all_spacelike", "other"}


def test_periodic_aliases_are_one_point():
    # (0, -1) and (0, 7) label the same cell on a ring of 8 sites
    a = cells([(0, -1)], period=8)
    b = cells([(0, 7)], period=8)
    assert cone_meets(a, b) and cone_meets(b, a)
    assert not precedes(a, b) and not precedes(b, a)
    assert not spacelike(a, b)
    order = build_order([a, b])
    assert not order.before(0, 1) and not order.before(1, 0)
