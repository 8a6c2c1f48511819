import numpy as np
import pytest
from scipy.linalg import expm

from causalq import qops as q
from causalq import random_ops as ro
from causalq.causal import rect
from causalq.config import DEFAULT
from causalq.detectors import PerturbativeState
from causalq.errors import (BinsNotCovering, CausalqError, DimensionMismatch,
                            NotEffect, NotHermitian, SpaceMismatch,
                            TruncationTooLarge, UnknownLabel, ZeroProbability)
from causalq.histories import History
from causalq.scenarios import kick_generator

from fock_oracles import kron_embed

AB = q.qubit_space("A", "B")
PLUS = np.array([1, 1]) / np.sqrt(2)


def test_space_validation():
    with pytest.raises(ValueError):
        q.space(("A", 2), ("A", 2))
    with pytest.raises(TruncationTooLarge):
        q.space(("big", 2 ** 15))


def test_space_shape_fixed_at_construction():
    sp = q.space(("A", 2), ("B", 3), ("C", 4))
    assert {"labels", "dims", "dim"} <= vars(sp).keys()  # stored, not recomputed
    assert (sp.labels, sp.dims, sp.dim) == (("A", "B", "C"), (2, 3, 4), 24)
    assert sp == q.space(("A", 2), ("B", 3), ("C", 4))
    assert repr(sp) == "ProductSpace(factors=(('A', 2), ('B', 3), ('C', 4)))"
    # 2**64 must not wrap around to a dimension that passes the cap
    with pytest.raises(TruncationTooLarge):
        q.qubit_space(*(f"q{i}" for i in range(64)))


def test_herm_defect_is_the_skew_part_norm():
    # the eigenvalue form against the largest singular value of a - a^dag
    rng = np.random.default_rng(6502)
    for dim in (1, 2, 5, 16, 64):
        for eps in (1e-2, 1e-8, 1e-13):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = ro.random_hermitian(dim, rng) + eps * g
            want = q.opnorm(m - q.dag(m))
            assert abs(q.herm_defect(m) - want) <= 1e-12 * want
    assert q.herm_defect(ro.random_hermitian(8, rng)) == 0.0


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


def test_expih_reuses_a_given_eigendecomposition():
    h = ro.random_hermitian(8, np.random.default_rng(4))
    wv = np.linalg.eigh(h)
    for t in (0.4, -2.3):
        assert np.array_equal(q.expih(wv, t), q.expih(h, t))


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_factor_of_a_pure_state_is_one_column(dim):
    rng = np.random.default_rng(dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    f = q.factor(rho)
    assert f.shape == (dim, 1)
    assert np.abs(f @ q.dag(f) - rho).max() <= 1e-14


def test_factor_drops_rounding_eigenvalues_either_side_of_zero():
    u = ro.haar_unitary(6, np.random.default_rng(9))
    w = np.array([0.5, 0.3, 0.2, 1e-17, -1e-17, 0.0])
    f = q.factor(u @ np.diag(w) @ q.dag(u))
    assert f.shape == (6, 3)
    # the kept columns are sqrt(w) times the eigenvectors, whatever their phase
    assert np.allclose(np.sort(np.linalg.norm(f, axis=0) ** 2), [0.2, 0.3, 0.5],
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_factor_reproduces_a_full_rank_state(dim):
    rho = ro.random_density(dim, np.random.default_rng(dim))
    f = q.factor(rho)
    assert f.shape == (dim, dim)
    assert np.abs(f @ q.dag(f) - rho).max() <= 1e-14


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
    want = kron_embed(op, targets, sp) @ m
    got = q._apply_matrix(op, targets, sp, m)
    assert got.shape == m.shape
    assert q.opnorm(got - want) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2, 2), (3, 2, 4), (2, 3, 2, 5)])
def test_apply_matrix_on_identity_equals_kron_placement(dims):
    # placement on the identity is exact: every entry is an entry of op or 0
    rng = np.random.default_rng(sum(dims))
    sp = q.space(*((f"f{i}", d) for i, d in enumerate(dims)))
    labels = list(sp.labels)
    eye = np.eye(sp.dim, dtype=complex)
    for targets in (labels[::-1], labels[::2], [labels[-1], labels[0]], [labels[1]],
                    labels, labels[1:]):
        op = ro.haar_unitary(int(np.prod([sp.dim_of(l) for l in targets])), rng)
        want = kron_embed(op, targets, sp)
        assert np.array_equal(q._apply_matrix(op, targets, sp, eye), want)
        assert np.array_equal(q.embed(op, targets, sp).matrix, want)


def test_embed_trusts_the_support_it_builds(monkeypatch):
    # op x identity holds by construction: embed does not re-verify it, while
    # a LocalOperator built with a declared support still does
    rng = np.random.default_rng(41)
    sp = q.space(("s0", 2), ("s1", 3), ("s2", 2))
    calls = []
    defect = q._support_defect
    monkeypatch.setattr(q, "_support_defect",
                        lambda *args: calls.append(args) or defect(*args))
    for targets in (["s1"], ["s2", "s0"], ["s0", "s1", "s2"]):
        op = ro.haar_unitary(int(np.prod([sp.dim_of(l) for l in targets])), rng)
        got = q.embed(op, targets, sp)
        assert np.array_equal(got.matrix, kron_embed(op, targets, sp))
        assert got.support == frozenset(targets)
    assert calls == []
    with pytest.raises(DimensionMismatch):
        q.LocalOperator(sp, ro.haar_unitary(sp.dim, rng), frozenset({"s1"}))
    assert len(calls) == 1


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


def _offdiag(d: int, eps: float) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[0, 1] = eps
    return m


def _op(m: np.ndarray) -> q.LocalOperator:
    return q.LocalOperator(q.space(("a", len(m))), m)


HERMITIAN_SITES = {
    "spectral_resolution": lambda m: q.spectral_resolution(_op(m)),
    "kick_generator": lambda m: kick_generator(_op(m), rect(0, 1, 0, 1), "v"),
    "check_effect": lambda m: q.check_effect(m, len(m), DEFAULT),
    "DensityState": lambda m: q.DensityState(_op(m).space, m),
    "History.hamiltonian": lambda m: History(((_op(np.eye(len(m))), "s", 0.0),),
                                             hamiltonian=m),
    "PerturbativeState": lambda m: PerturbativeState((m,), 0 * m, 0 * m),
}


@pytest.mark.parametrize("m, hermitian", [
    (np.diag([1.0, -1.0]) + _offdiag(2, 1e-11), False),
    (np.ones((8, 8)) + _offdiag(8, 5e-12), False),
    (np.diag([1.0, -1.0]) + _offdiag(2, 1e-13), True),
    (np.ones((8, 8)) + _offdiag(8, 5e-13), True),
], ids=["z_1e-11", "ones8_5e-12", "z_1e-13", "ones8_5e-13"])
def test_every_site_applies_one_hermiticity_rule(m, hermitian):
    """Each site accepts `m` as Hermitian exactly when `is_hermitian` does;
    refusals for other reasons (trace, spectrum) count as accepting it."""
    assert q.is_hermitian(m, DEFAULT) is hermitian
    verdicts = {}
    for name, site in HERMITIAN_SITES.items():
        try:
            site(m)
            verdicts[name] = True
        except (CausalqError, ValueError) as e:
            verdicts[name] = "Hermitian" not in str(e)
    assert verdicts == dict.fromkeys(verdicts, hermitian)


def test_commute_up_to_a_phase_on_rotated_pauli_strings():
    # any two Pauli strings commute or anticommute, and so do their images
    # under one Haar rotation, with any global phase; a generic unitary pair
    # does neither
    rng = np.random.default_rng(1993)
    paulis = (np.eye(2), q.sigma_x, q.sigma_y, q.sigma_z)

    def rotated_string(u, n):
        s = np.exp(2j * np.pi * rng.random()) * np.eye(1)
        for k in rng.integers(4, size=n):
            s = np.kron(s, paulis[k])
        return u @ s @ q.dag(u)
    anticommuting = 0
    for _ in range(40):
        n = int(rng.integers(1, 4))
        u = ro.haar_unitary(2 ** n, rng)
        a, b = rotated_string(u, n), rotated_string(u, n)
        assert q.commute(a, b, phase=True)
        anticommuting += not q.commute(a, b)
        assert not q.commute(*(ro.haar_unitary(2 ** n, rng) for _ in "ab"), phase=True)
    assert anticommuting >= 10
