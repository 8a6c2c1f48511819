import numpy as np
import pytest
from scipy.linalg import expm

from causalq import qops as q
from causalq import random_ops as ro
from causalq.config import DEFAULT
from causalq.errors import (BinsNotCovering, DimensionMismatch, NotEffect,
                            NotHermitian, SpaceMismatch, TruncationTooLarge,
                            UnknownLabel, ZeroProbability)

AB = q.qubit_space("A", "B")
PLUS = np.array([1, 1]) / np.sqrt(2)


def test_space_validation():
    with pytest.raises(ValueError):
        q.space(("A", 2), ("A", 2))
    with pytest.raises(TruncationTooLarge):
        q.space(("big", 2 ** 15))


def test_embed_sigma_x_first_factor():
    op = q.embed(q.sigma_x, "A", AB)
    assert np.allclose(op.matrix, np.kron(q.sigma_x, np.eye(2)))


def test_embed_identity_is_global_identity():
    op = q.embed(np.eye(2), "B", AB)
    assert np.allclose(op.matrix, np.eye(4))


def test_embed_sigma_z_second_factor():
    op = q.embed(q.sigma_z, "B", AB)
    assert np.allclose(np.diag(op.matrix), [1, -1, 1, -1])


def test_embed_permutes_factor_order():
    sp = q.qubit_space("A", "B", "C")
    # acting on (C, A) in that order must match an explicit permutation
    m = np.kron(q.sigma_x, q.sigma_z)       # sigma_x on C, sigma_z on A
    op = q.embed(m, ["C", "A"], sp)
    want = np.kron(q.sigma_z, np.kron(np.eye(2), q.sigma_x))
    assert np.allclose(op.matrix, want)


def test_embed_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        q.embed(np.eye(3), "A", AB)


def test_support_declaration_verified():
    with pytest.raises(DimensionMismatch):
        q.LocalOperator(AB, np.kron(q.sigma_x, q.sigma_x), support=frozenset("A"))


def test_spectral_resolution_sigma_z():
    r = q.spectral_resolution(q.LocalOperator(q.qubit_space("A"), q.sigma_z))
    assert len(r) == 2
    assert r.values == (-1.0, 1.0)
    assert np.allclose(r.projectors[0].matrix, np.diag([0, 1]))
    assert np.allclose(r.projectors[1].matrix, np.diag([1, 0]))


def test_spectral_resolution_identity_single_projector():
    r = q.spectral_resolution(q.embed(np.eye(2), "A", AB))
    assert len(r) == 1
    assert np.allclose(r.projectors[0].matrix, np.eye(4))


def test_spectral_resolution_degenerate_ranks():
    a2 = q.embed(np.kron(np.diag([0.0, 1.0]), q.sigma_z), ["A", "B"], AB)
    r = q.spectral_resolution(a2)
    ranks = [int(round(np.trace(p.matrix).real)) for p in r.projectors]
    assert r.values == (-1.0, 0.0, 1.0)
    assert ranks == [1, 2, 1]


def test_spectral_resolution_reconstructs_operator():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = ro.random_hermitian(6, rng)
        a = q.LocalOperator(q.space(("x", 6)), m)
        r = q.spectral_resolution(a)
        rebuilt = sum(v * p.matrix for v, p in zip(r.values, r.projectors))
        assert q.opnorm(rebuilt - m) < 1e-10


def test_spectral_resolution_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        q.spectral_resolution(q.LocalOperator(q.qubit_space("A"), q.sigma_p))


def test_spectral_bins_group_eigenvalues():
    a = q.LocalOperator(q.space(("x", 3)), np.diag([0.0, 1.0, 2.0]).astype(complex))
    r = q.spectral_resolution(a, bins=[(-0.5, 1.5), (1.6, 2.5)])
    assert len(r) == 2
    assert np.allclose(r.projectors[0].matrix, np.diag([1, 1, 0]))
    assert r.values[1] == 2.0


def test_spectral_bins_must_cover():
    a = q.LocalOperator(q.space(("x", 3)), np.diag([0.0, 1.0, 2.0]).astype(complex))
    with pytest.raises(BinsNotCovering):
        q.spectral_resolution(a, bins=[(-0.5, 1.5)])
    with pytest.raises(BinsNotCovering):
        q.spectral_resolution(a, bins=[(-0.5, 1.5), (1.0, 2.5)])


def test_born_probability_plus_state():
    rho = q.pure_state(PLUS, q.qubit_space("A"))
    e = q.LocalOperator(q.qubit_space("A"), np.diag([1.0, 0.0]).astype(complex))
    assert abs(q.born_probability(rho, e) - 0.5) < 1e-14


def test_born_probability_identity_and_orthogonal():
    rho = q.pure_state(np.kron([1, 0], PLUS), AB)
    assert q.born_probability(rho, q.embed(np.eye(2), "A", AB)) == 1.0
    e1 = q.embed(np.diag([0.0, 1.0]), "A", AB)
    assert q.born_probability(rho, e1) == 0.0


def test_born_probability_rejects_nonneffect():
    rho = q.DensityState.maximally_mixed(q.qubit_space("A"))
    bad = q.LocalOperator(q.qubit_space("A"), 2.0 * np.eye(2, dtype=complex))
    with pytest.raises(NotEffect):
        q.born_probability(rho, bad)


def test_luders_nonselective_trivial_resolution():
    rho = q.pure_state(np.kron(PLUS, [1, 0]), AB)
    r = q.spectral_resolution(q.embed(np.eye(2), "A", AB))
    out = q.luders_nonselective(rho, r)
    assert np.allclose(out.matrix, rho.matrix)


def test_luders_nonselective_dephases_plus():
    rho = q.pure_state(PLUS, q.qubit_space("A"))
    r = q.spectral_resolution(q.LocalOperator(q.qubit_space("A"), q.sigma_z))
    out = q.luders_nonselective(rho, r)
    assert np.allclose(out.matrix, np.diag([0.5, 0.5]))


def test_luders_nonselective_idempotent():
    rng = np.random.default_rng(1)
    sp = q.space(("x", 5))
    for _ in range(10):
        rho = q.DensityState(sp, ro.random_density(5, rng))
        a = q.LocalOperator(sp, ro.random_hermitian(5, rng))
        r = q.spectral_resolution(a)
        once = q.luders_nonselective(rho, r)
        twice = q.luders_nonselective(once, r)
        assert q.opnorm(twice.matrix - once.matrix) < 1e-12


def test_luders_nonselective_preserves_trace_and_positivity():
    rng = np.random.default_rng(2)
    sp = q.space(("x", 6))
    for _ in range(10):
        rho = q.DensityState(sp, ro.random_density(6, rng))
        r = q.spectral_resolution(q.LocalOperator(sp, ro.random_hermitian(6, rng)))
        out = q.luders_nonselective(rho, r)   # DensityState validates both
        assert abs(np.trace(out.matrix) - 1) < 1e-12


def test_commuting_resolution_preserves_expectations():
    rng = np.random.default_rng(3)
    sp = q.space(("x", 4))
    for _ in range(20):
        a, b = ro.random_commuting_pair(4, rng)
        rho = q.DensityState(sp, ro.random_density(4, rng))
        r = q.spectral_resolution(q.LocalOperator(sp, a))
        out = q.luders_nonselective(rho, r)
        obs = q.LocalOperator(sp, b)
        assert abs(q.expectation(out, obs) - q.expectation(rho, obs)) < 1e-12


def test_luders_selective_plus_state():
    rho = q.pure_state(PLUS, q.qubit_space("A"))
    e = q.LocalOperator(q.qubit_space("A"), np.diag([1.0, 0.0]).astype(complex))
    out, p = q.luders_selective(rho, e)
    assert abs(p - 0.5) < 1e-14
    assert np.allclose(out.matrix, np.diag([1.0, 0.0]))


def test_luders_selective_identity():
    rho = q.DensityState.maximally_mixed(AB)
    out, p = q.luders_selective(rho, q.embed(np.eye(2), "A", AB))
    assert p == 1.0
    assert np.allclose(out.matrix, rho.matrix)


def test_luders_selective_basis_projector_on_mixed():
    rho = q.DensityState.maximally_mixed(AB)
    e00 = q.LocalOperator(AB, np.diag([1.0, 0, 0, 0]).astype(complex))
    out, p = q.luders_selective(rho, e00)
    assert abs(p - 0.25) < 1e-14
    assert np.allclose(out.matrix, np.diag([1.0, 0, 0, 0]))


def test_luders_selective_rejects_non_projector():
    rho = q.DensityState.maximally_mixed(q.qubit_space("A"))
    with pytest.raises(NotEffect):
        q.luders_selective(rho, q.LocalOperator(rho.space, q.sigma_z))


@pytest.mark.parametrize("dim", [2, 3, 8, 17, 32, 64])
@pytest.mark.parametrize("t", [0.9, -1.7])
def test_expih_matches_expm(dim, t):
    rng = np.random.default_rng(dim)
    h = ro.random_hermitian(dim, rng, scale=1 / np.sqrt(dim))
    assert q.opnorm(q.expih(h, t) - expm(1j * t * h)) < 1e-12


def test_expih_degenerate_spectrum():
    v = ro.haar_unitary(8, np.random.default_rng(3))
    h = v @ np.diag([1.0, 1.0, 1.0, -2.0, -2.0, 0.5, 0.5, 0.5]) @ q.dag(v)
    for t in (0.4, -2.3):
        assert q.opnorm(q.expih(h, t) - expm(1j * t * h)) < 1e-12


def test_luders_selective_zero_probability():
    rho = q.pure_state([1, 0], q.qubit_space("A"))
    e = q.LocalOperator(q.qubit_space("A"), np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(ZeroProbability):
        q.luders_selective(rho, e)


def test_partial_trace_product_state():
    rho_a = np.outer([1, 0], [1, 0]).astype(complex)
    rho_b = np.outer(PLUS, PLUS).astype(complex)
    rho = q.DensityState(AB, np.kron(rho_a, rho_b))
    assert np.allclose(q.partial_trace(rho, "A").matrix, rho_a)
    assert np.allclose(q.partial_trace(rho, "B").matrix, rho_b)


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = q.pure_state(bell, AB)
    red = q.partial_trace(rho, "A")
    assert np.allclose(red.matrix, np.eye(2) / 2)


def test_partial_trace_reorders_factors():
    rng = np.random.default_rng(4)
    sp = q.space(("A", 2), ("B", 3))
    rho = q.DensityState(sp, ro.random_density(6, rng))
    swapped = q.partial_trace(rho, ["B", "A"])
    assert swapped.space.labels == ("B", "A")
    back = q.partial_trace(swapped, ["A", "B"])
    assert np.allclose(back.matrix, rho.matrix)


def test_partial_trace_unknown_label():
    rho = q.DensityState.maximally_mixed(AB)
    with pytest.raises(UnknownLabel):
        q.partial_trace(rho, "C")


def test_partial_trace_embed_consistency():
    rng = np.random.default_rng(5)
    sp = q.space(("A", 2), ("B", 3), ("C", 2))
    for _ in range(10):
        rho = q.DensityState(sp, ro.random_density(12, rng))
        a = ro.random_hermitian(3, rng)
        full = q.expectation(rho, q.embed(a, "B", sp))
        red = q.partial_trace(rho, "B")
        local = q.expectation(red, q.LocalOperator(red.space, a))
        assert abs(full - local) < 1e-12


def test_expectation_basics():
    sp = q.qubit_space("A")
    z0 = q.pure_state([1, 0], sp)
    assert q.expectation(z0, q.LocalOperator(sp, q.sigma_z)) == pytest.approx(1.0)
    assert q.expectation(z0, q.LocalOperator(sp, q.sigma_x)) == pytest.approx(0.0)
    bell = q.pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2), AB)
    zz = q.LocalOperator(AB, np.kron(q.sigma_z, q.sigma_z))
    assert q.expectation(bell, zz) == pytest.approx(1.0)


def test_expectation_space_mismatch():
    rho = q.DensityState.maximally_mixed(q.qubit_space("A"))
    with pytest.raises(SpaceMismatch):
        q.expectation(rho, q.embed(q.sigma_x, "A", AB))


def test_expectation_nonhermitian_returns_complex():
    sp = q.qubit_space("A")
    rho = q.pure_state([1, 1j], sp)
    val = q.expectation(rho, q.LocalOperator(sp, q.sigma_p))
    assert isinstance(val, complex)
    assert val == pytest.approx(-0.5j)


def test_density_state_validation():
    sp = q.qubit_space("A")
    with pytest.raises(NotHermitian):
        q.DensityState(sp, np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        q.DensityState(sp, np.eye(2, dtype=complex))          # trace 2
    with pytest.raises(ValueError):
        q.DensityState(sp, np.diag([1.5, -0.5]).astype(complex))


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 5):
        u = ro.haar_unitary(dim, rng)
        assert q.opnorm(u @ q.dag(u) - np.eye(dim)) < 1e-12


def test_random_generators_are_valid():
    rng = np.random.default_rng(7)
    sp = q.space(("x", 4))
    q.DensityState(sp, ro.random_density(4, rng))
    p = ro.random_projector(4, 2, rng)
    assert q.opnorm(p @ p - p) < 1e-12
    e = ro.random_effect(4, rng)
    w = np.linalg.eigvalsh(e)
    assert w.min() > -1e-12 and w.max() < 1 + 1e-12
    a, b = ro.random_commuting_pair(4, rng)
    assert q.opnorm(q.commutator(a, b)) < 1e-12


@pytest.mark.parametrize("targets", [("s2", "s0"), ("P", "s1"), ("s1",), ("s1", "s2"),
                                     ("s3", "P"), ("P", "s0", "s2")])
def test_apply_matrix_matches_embed_then_multiply(targets):
    rng = np.random.default_rng(40)
    sp = q.space(("s0", 2), ("s1", 3), ("s2", 2), ("s3", 2), ("P", 3))
    d_t = int(np.prod([sp.dim_of(l) for l in targets]))
    op = ro.haar_unitary(d_t, rng)
    m = ro.haar_unitary(sp.dim, rng)
    want = q._embed_matrix(op, targets, sp) @ m
    got = q._apply_matrix(op, targets, sp, m)
    assert got.shape == m.shape
    assert q.opnorm(got - want) <= 1e-12


def test_derived_operators_keep_tolerances():
    # a 1e-9 off-support term is inside a loosened support tolerance only
    loose = DEFAULT.replace(support=1e-6)
    m = np.kron(q.sigma_z, q.eye2) + 1e-9 * np.kron(q.sigma_x, q.sigma_z)
    op = q.LocalOperator(AB, m, frozenset({"A"}), loose)
    for derived, want in ((op.dagger(), m.conj().T), (op + op, 2 * m), (op * 2.0, 2 * m)):
        assert derived.tol is loose
        assert np.array_equal(derived.matrix, want)
    r = q.spectral_resolution(op, tol=loose)
    assert len(r) == 2
    assert all(p.tol is loose and p.support == {"A"} for p in r)
