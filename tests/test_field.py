import tracemalloc

import numpy as np
import pytest

from causalq import field as F
from causalq.causal import cells
from causalq import qops as q
from causalq.errors import OutOfWindow, TruncationTooLarge

from fock_oracles import ladder_field, table_two_point


@pytest.fixture(scope="module")
def f0():
    return F.FieldModel(mass=0.0, sites=64, spacing=1.0, steps=64)


@pytest.fixture(scope="module")
def fm():
    return F.FieldModel(mass=0.5, sites=64, spacing=1.0, steps=64)


@pytest.mark.parametrize("sites", [8, 9, 12, 64])
@pytest.mark.parametrize("spacing", [1.0, 0.5])
@pytest.mark.parametrize("short", [True, False])
def test_two_point_matches_whole_window_tables(sites, spacing, short):
    steps = max(1, sites // 2 - 1) if short else 2 * sites + 3
    n, s = np.arange(steps + 1)[:, None], np.arange(sites)
    for mass, drop in ((0.0, True), (0.0, False), (0.3, True)):
        f = F.FieldModel(mass, sites, spacing, steps, drop_zero_mode=drop)
        for y in ((0, 0), (steps, sites - 1), (steps // 2, 3)):   # dn of both signs
            c = F._two_point(f, (n, s), y, "commutator")
            want = table_two_point(f, (n, s), y, "commutator")
            if mass == 0:
                assert np.array_equal(c, want)
            else:
                assert np.abs(c - want).max() <= 1e-12
            w = F._two_point(f, (n, s), y, "wightman")
            assert np.abs(w - table_two_point(f, (n, s), y, "wightman")).max() <= 1e-12


@pytest.mark.parametrize("sites", [8, 9, 12, 13, 64])
def test_massless_periodic_support_rule(sites):
    """-i a times #{j : |ds + jN| <= dn - 1, dn + ds + jN odd}, overlaps included."""
    f = F.FieldModel(0.0, sites, spacing=0.5, steps=sites + 1)
    count = np.zeros((f.steps + 1, sites), dtype=int)
    for dn in range(f.steps + 1):
        for ds in range(sites):
            count[dn, ds] = sum(abs(ds + j * sites) <= dn - 1 and (dn + ds + j * sites) % 2
                                for j in range(-3, 4))
    k = F._two_point(f, (np.arange(f.steps + 1)[:, None], np.arange(sites)), (0, 0),
                     "commutator")
    assert np.array_equal(k, -1j * f.spacing * count)
    # images of the right parity repeat every N for even N but every 2N for odd N
    inside = count[:sites + 1].max()
    assert inside == (2 if sites % 2 == 0 else 1)
    if sites == 8:
        assert count[9, 0] == 3 and F.commutator(f, (9, 0), (0, 0)) == -1.5j


def test_pointwise_kernels_build_no_window_tables():
    f0 = F.FieldModel(0.0, 1024, steps=1024)
    fm = F.FieldModel(0.3, 1024, steps=1024)
    tracemalloc.start()
    try:
        for f in (f0, fm):
            F.commutator(f, (1000, 700), (3, 5))
            F.wightman(f, (1000, 700), (3, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20      # one (2 steps + 1) x sites table is 33 MB


def test_model_validation():
    with pytest.raises(ValueError):
        F.FieldModel(sites=4)
    with pytest.raises(ValueError):
        F.FieldModel(mass=-1.0)
    with pytest.raises(ValueError):
        F.FieldModel(spacing=0.0)


def test_wightman_diagonal_real_positive(f0):
    w = F.wightman(f0, (3, 10), (3, 10))
    assert abs(w.imag) < 1e-15
    assert w.real > 0
    # frozen mode-sum oracle for the N=64 massless diagonal
    assert abs(w - 1.1431256080499703) < 1e-12


def test_wightman_frozen_offdiagonal_value():
    f = F.FieldModel(mass=0.0, sites=16, spacing=1.0, steps=16)
    assert abs(F.wightman(f, (2, 1), (0, 0)) - (-0.5j)) < 1e-12


def test_wightman_hermitian_symmetry(f0):
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = (int(rng.integers(0, 65)), int(rng.integers(0, 64)))
        y = (int(rng.integers(0, 65)), int(rng.integers(0, 64)))
        assert abs(F.wightman(f0, x, y) - np.conj(F.wightman(f0, y, x))) < 1e-13


def test_wightman_minus_transpose_is_commutator(f0, fm):
    rng = np.random.default_rng(1)
    for f in (f0, fm):
        for _ in range(100):
            x = (int(rng.integers(0, 65)), int(rng.integers(0, 64)))
            y = (int(rng.integers(0, 65)), int(rng.integers(0, 64)))
            lhs = F.wightman(f, x, y) - F.wightman(f, y, x)
            assert abs(lhs - F.commutator(f, x, y)) < 1e-13


def test_commutator_equal_points_zero(f0):
    assert F.commutator(f0, (5, 7), (5, 7)) == 0


def test_commutator_spacelike_pair_exactly_zero(f0):
    assert F.commutator(f0, (1, 10), (0, 5)) == 0
    assert F.commutator(f0, (4, 20), (1, 5)) == 0


def test_commutator_timelike_pair_frozen_value(f0):
    # checkerboard kernel: odd-parity cells inside the cone carry -i*dt
    assert abs(F.commutator(f0, (5, 0), (0, 0)) - (-1j)) < 1e-12
    assert abs(F.commutator(f0, (5, 2), (0, 0)) - (-1j)) < 1e-12
    assert F.commutator(f0, (4, 0), (0, 0)) == 0      # even-parity cell


def test_commutator_antisymmetry_exact(f0, fm):
    rng = np.random.default_rng(2)
    for f in (f0, fm):
        for _ in range(50):
            x = (int(rng.integers(0, 65)), int(rng.integers(0, 64)))
            y = (int(rng.integers(0, 65)), int(rng.integers(0, 64)))
            assert F.commutator(f, x, y) == -F.commutator(f, y, x)


def test_commutator_translation_invariance(f0):
    a = F.commutator(f0, (7, 12), (2, 9))
    b = F.commutator(f0, (12, 22), (7, 19))
    assert a == b
    wa = F.wightman(f0, (7, 12), (2, 9))
    wb = F.wightman(f0, (12, 22), (7, 19))
    assert wa == wb


def test_massless_cone_support_whole_window(f0):
    assert F.cone_tail(f0) == 0.0


def test_massive_cone_tail_reported(fm):
    tail = F.cone_tail(fm)
    assert 0 < tail < 0.1
    # frozen mode-sum oracle for a timelike massive pair
    assert abs(F.commutator(fm, (3, 2), (0, 0)) - (-0.40620279317536645j)) < 1e-12
    assert abs(F.commutator(fm, (0, 3), (0, 0))) < 1e-15


def test_retarded_green_zero_before(f0):
    assert F.retarded_green(f0, (2, 0), (5, 0)) == 0


def test_retarded_green_on_cone_matches_commutator(f0):
    x, y = (6, 6), (0, 0)
    assert F.retarded_green(f0, x, y) == 1j * F.commutator(f0, x, y)


def test_retarded_green_coarse_half():
    f = F.FieldModel(mass=0.0, sites=256, spacing=1.0, steps=128)
    vals = [F.retarded_green(f, (40 + i, j), (0, 0)).real
            for i in range(4) for j in range(4)]
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_out_of_window_errors(f0):
    with pytest.raises(OutOfWindow):
        F.wightman(f0, (65, 0), (0, 0))
    with pytest.raises(OutOfWindow):
        F.commutator(f0, (0, 64), (0, 0))
    with pytest.raises(OutOfWindow):
        F.retarded_green(f0, (0, 0), (-1, 0))


def test_ir_regulated_wightman_finite_and_consistent():
    f = F.FieldModel(mass=0.0, sites=16, drop_zero_mode=False, ir_width=2.0)
    fd = F.FieldModel(mass=0.0, sites=16, drop_zero_mode=True)
    x, y = (3, 5), (1, 2)
    w = F.wightman(f, x, y)
    assert np.isfinite(w.real) and np.isfinite(w.imag)
    assert abs(w - np.conj(F.wightman(f, y, x))) < 1e-13
    # regulated real parts cancel in the exchange difference
    lhs = F.wightman(f, x, y) - F.wightman(f, y, x)
    assert abs(lhs - F.commutator(fd, x, y)) < 1e-13


def test_smeared_wightman_keeps_regulated_zero_mode():
    """Smeared and pointwise Wightman values carry the same zero-mode part."""
    f = F.FieldModel(0.0, 16, steps=8, drop_zero_mode=False)
    sa = F.box_smearing(f, 1, 2, 3, 4)
    sb = F.box_smearing(f, 3, 4, 6, 7)
    vol = f.dt * f.spacing
    pointwise = sum(vol * vol * wa * wb * F.wightman(f, x, y)
                    for x, wa in sa.items() for y, wb in sb.items())
    assert abs(F.smeared_wightman(f, sa, sb) - pointwise) < 1e-12
    dropped = F.FieldModel(0.0, 16, steps=8)
    assert abs(F.smeared_wightman(dropped, sa, sb) - pointwise) > 1.0


def test_smeared_kernels_refuse_steps_outside_window(f0):
    inside = F.box_smearing(f0, 0, 1, 2, 3)
    late = F.SmearingFn({(70, 2): 1.0}, cells([(70, 2)], period=64))
    for kernel in (F.smeared_commutator, F.smeared_wightman):
        with pytest.raises(OutOfWindow):
            kernel(f0, inside, late)
        with pytest.raises(OutOfWindow):
            kernel(f0, late, inside, modes=[2, -2])


def test_smeared_commutator_spacelike_boxes_zero(f0):
    sa = F.box_smearing(f0, 0, 2, 2, 4)
    sb = F.box_smearing(f0, 0, 2, 20, 22)
    assert abs(F.smeared_commutator(f0, sa, sb)) < 1e-12


def test_smeared_commutator_symmetric_supports_zero(f0):
    sa = F.box_smearing(f0, 0, 2, 2, 4)
    assert abs(F.smeared_commutator(f0, sa, sa)) < 1e-12


def test_smeared_commutator_timelike_nonzero(f0):
    sa = F.box_smearing(f0, 0, 2, 2, 4)
    sc = F.box_smearing(f0, 10, 12, 2, 6)
    val = F.smeared_commutator(f0, sa, sc)
    assert abs(val) > 1.0
    assert abs(val.real) < 1e-12      # pure imaginary


def test_smeared_commutator_antisymmetric(f0):
    sa = F.box_smearing(f0, 0, 2, 2, 4)
    sc = F.box_smearing(f0, 10, 12, 2, 6)
    ab = F.smeared_commutator(f0, sa, sc)
    ba = F.smeared_commutator(f0, sc, sa)
    assert abs(ab + ba) < 1e-12


def test_smearing_validation(f0):
    with pytest.raises(OutOfWindow):
        F.box_smearing(f0, 60, 70, 0, 1)
    with pytest.raises(ValueError):
        F.SmearingFn({(0, 0): 1.0}, F.box_smearing(f0, 1, 1, 1, 1).region)


def test_gaussian_smearing_tail_mass(f0):
    g = F.gaussian_smearing(f0, (10, 30), 1.0, 1.5)
    assert 0 < g.tail_mass < 1e-8
    g3 = F.gaussian_smearing(f0, (10, 30), 1.0, 1.5, cut=3.0)
    assert g3.tail_mass > g.tail_mass


def test_mode_restricted_kernel_matches_full_for_massive(fm):
    modes = [j if j <= 32 else j - 64 for j in range(64)]
    sa = F.box_smearing(fm, 0, 1, 2, 3)
    sb = F.box_smearing(fm, 4, 5, 2, 3)
    full = F.smeared_commutator(fm, sa, sb)
    restricted = F.smeared_commutator(fm, sa, sb, modes=modes)
    assert abs(full - restricted) < 1e-10
    wf = F.smeared_wightman(fm, sa, sb)
    wr = F.smeared_wightman(fm, sa, sb, modes=modes)
    assert abs(wf - wr) < 1e-10


def test_fock_annihilates_vacuum(f0):
    fb = F.fock_backend(f0, [2, -2], 2)
    for j in (2, -2):
        assert np.linalg.norm(fb.annihilation(j).matrix @ fb.vacuum) == 0


def test_fock_ccr_subblock(f0):
    fb = F.fock_backend(f0, [3], 4)
    a = fb.annihilation(3).matrix
    comm = a @ q.dag(a) - q.dag(a) @ a
    assert np.allclose(comm[:4, :4], np.eye(4))     # sub-cutoff block only


def test_fock_two_point_matches_kernel(f0):
    fb = F.fock_backend(f0, [2, -2, 5], 3)
    sa = F.box_smearing(f0, 0, 2, 2, 4)
    g = F.gaussian_smearing(f0, (6, 30), 1.0, 1.5)
    kern = F.smeared_wightman(f0, sa, g, modes=[2, -2, 5])
    vac = fb.vacuum
    op = fb.phi_smeared(sa).matrix @ fb.phi_smeared(g).matrix
    assert abs(vac.conj() @ op @ vac - kern) < 1e-8


def test_fock_commutator_c_number(f0):
    fb = F.fock_backend(f0, [2, -2], 3)
    sa = F.box_smearing(f0, 0, 1, 2, 3)
    sb = F.box_smearing(f0, 3, 4, 2, 3)
    comm = q.commutator(fb.phi_smeared(sa).matrix, fb.phi_smeared(sb).matrix)
    c = comm[0, 0]                          # vacuum matrix element
    kern = F.smeared_commutator(f0, sa, sb, modes=[2, -2])
    assert abs(c - kern) < 1e-8
    # multiple of the identity on the block below the truncation edge
    occ = [(n1, n2) for n1 in range(4) for n2 in range(4)]
    keep = [i for i, (n1, n2) in enumerate(occ) if n1 < 3 and n2 < 3]
    sub = comm[np.ix_(keep, keep)]
    assert np.abs(sub - c * np.eye(len(keep))).max() < 1e-8


def test_fock_phi_hermitian(f0):
    fb = F.fock_backend(f0, [2], 3)
    phi = fb.phi_at((4, 10)).matrix
    assert q.herm_defect(phi) < 1e-14


@pytest.mark.parametrize("modes, cutoff", [([2], 1), ([2, -2], 4), ([3, -5, 7], 2),
                                           ([1, 5, -9], 4), ([-30], 3)])
def test_fock_field_matrices_match_per_call_ladders(f0, modes, cutoff):
    fb = F.fock_backend(f0, modes, cutoff)
    for sm in (F.box_smearing(f0, 0, 2, 2, 4), F.gaussian_smearing(f0, (6, 30), 1.0, 1.5)):
        want = ladder_field(fb, sm.weights, f0.dt * f0.spacing)
        assert q.opnorm(fb.phi_smeared(sm).matrix - want) <= 1e-12
    for x in ((0, 0), (4, 10), (64, 63)):
        assert q.opnorm(fb.phi_at(x).matrix - ladder_field(fb, {x: 1.0}, 1.0)) <= 1e-12


def test_fock_ladders_embedded_once_per_backend(f0, monkeypatch):
    # each ladder is one placement kernel call on the identity, at construction
    placed, kernel = [], []
    embed, apply = F._embed_matrix, q._apply_matrix
    monkeypatch.setattr(F, "_embed_matrix",
                        lambda op, labels, sp: placed.append(list(labels))
                        or embed(op, labels, sp))
    monkeypatch.setattr(q, "_apply_matrix",
                        lambda op, labels, sp, m: kernel.append(
                            np.array_equal(m, np.eye(sp.dim))) or apply(op, labels, sp, m))
    fb = F.fock_backend(f0, [2, -2, 5], 3)
    assert placed == [["m2"], ["m-2"], ["m5"]] and kernel == [True] * 3
    fb.phi_at((4, 10))
    fb.phi_smeared(F.box_smearing(f0, 0, 2, 2, 4))
    assert len(kernel) == 3
    # annihilation and number check their declared support inside qops;
    # field itself places nothing more
    a, n = fb.annihilation(5).matrix, fb.number(-2).matrix
    assert len(placed) == 3
    low = np.diag(np.sqrt(np.arange(1, 4)), 1)
    assert np.array_equal(a, q.embed(low, "m5", fb.space).matrix)
    assert np.array_equal(n, q.embed(low.T @ low, "m-2", fb.space).matrix)


def test_fock_truncation_caps(f0):
    with pytest.raises(TruncationTooLarge):
        F.fock_backend(f0, [1, 2, 3, 4], 2)
    with pytest.raises(TruncationTooLarge):
        F.fock_backend(f0, [1], 5)
    with pytest.raises(ValueError):
        F.fock_backend(f0, [0], 2)          # degenerate massless mode
    with pytest.raises(ValueError):
        F.fock_backend(f0, [32], 2)         # band edge
