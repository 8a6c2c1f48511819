"""Histories calculus: class operators, decoherence, additivity, no-signalling."""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

import causalq.histories as hist
from causalq.causal import rect
from causalq.errors import (CommutationPrecondition, InvalidProjector,
                            NotExclusive, NotHermitian, SpaceMismatch)
from causalq.histories import (DecoherenceMatrix, FuksaBipartite, History,
                               HistoryFamily, additivity_violation,
                               class_operator, consistency_check, decoherence,
                               fuksa_bipartite, fuksa_tripartite, probability)
from causalq.qops import (LocalOperator, ProjectiveResolution, dag, opnorm,
                          herm_defect, qubit_space, spectral_resolution)
from causalq.random_ops import haar_unitary, random_density, random_hermitian

EYE2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PZ = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
PX = (np.full((2, 2), 0.5, dtype=complex),
      np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex))

Q1 = qubit_space("A")
Q2 = qubit_space("A", "B")


def res(sp, mats):
    return ProjectiveResolution(sp, tuple(LocalOperator(sp, m) for m in mats))


def kron_res(sp, mats, side):
    if side == "A":
        return res(sp, [np.kron(m, EYE2) for m in mats])
    return res(sp, [np.kron(EYE2, m) for m in mats])


def ket_rho(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


# -- History and class operator ----------------------------------------------

def test_invalid_projector_rejected():
    with pytest.raises(InvalidProjector):
        History(((LocalOperator(Q1, 0.5 * PZ[0]), 0, 0.0),))
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(InvalidProjector):
        History(((LocalOperator(Q1, skew), 0, 0.0),))


def test_step_times_must_not_decrease():
    steps = ((LocalOperator(Q1, PZ[0]), 0, 1.0), (LocalOperator(Q1, PX[0]), 1, 0.0))
    with pytest.raises(ValueError):
        History(steps)


def test_region_labels_must_follow_causal_order():
    early = rect(0.0, 1.0, 0.0, 1.0)
    late = rect(5.0, 6.0, 0.0, 1.0)
    ok = History(((LocalOperator(Q1, PZ[0]), early, 0.0),
                  (LocalOperator(Q1, PX[0]), late, 1.0)))
    assert len(ok.steps) == 2
    with pytest.raises(ValueError):
        History(((LocalOperator(Q1, PZ[0]), late, 0.0),
                 (LocalOperator(Q1, PX[0]), early, 1.0)))


def test_class_operator_trivial_cases():
    p = LocalOperator(Q1, PZ[1])
    single = History(((p, 0, 0.0),))
    assert np.allclose(class_operator(single).matrix, PZ[1])
    ident = History(((LocalOperator(Q1, EYE2), 0, 0.0),
                     (LocalOperator(Q1, EYE2), 1, 1.0)))
    assert np.allclose(class_operator(ident).matrix, EYE2)


def test_class_operator_ordering_conventions():
    # z outcome first, x outcome second
    h = History(((LocalOperator(Q1, PZ[0]), 0, 0.0),
                 (LocalOperator(Q1, PX[0]), 1, 1.0)))
    right = class_operator(h).matrix
    assert np.allclose(right, PX[0] @ PZ[0])
    # the earliest-leftmost chain of other authors is the adjoint
    assert np.allclose(dag(right), PZ[0] @ PX[0])
    assert abs(opnorm(right) - 1 / np.sqrt(2)) < 1e-12
    assert herm_defect(right) > 0.1  # chain of non-commuting outcomes


def test_probability_oracles():
    rho0 = ket_rho([1, 0])
    ident = History(((LocalOperator(Q1, EYE2), 0, 0.0),))
    assert abs(probability(ident, rho0) - 1.0) < 1e-14
    miss = History(((LocalOperator(Q1, PZ[1]), 0, 0.0),))
    assert abs(probability(miss, rho0)) < 1e-14
    chain = History(((LocalOperator(Q1, PX[0]), 0, 0.0),
                     (LocalOperator(Q1, PZ[1]), 1, 1.0)))
    assert abs(probability(chain, rho0) - 0.25) < 1e-12


def test_heisenberg_projectors_from_hamiltonian():
    # exp(i sz t) rotates |+> onto |-> at t = pi/2
    h = History(((LocalOperator(Q1, PX[0]), 0, np.pi / 2),), hamiltonian=SZ)
    minus = ket_rho([1, -1])
    assert abs(probability(h, minus) - 1.0) < 1e-12
    frozen = History(((LocalOperator(Q1, PX[0]), 0, 0.0),), hamiltonian=SZ)
    assert abs(probability(frozen, minus)) < 1e-12


# -- decoherence matrix -------------------------------------------------------

def test_single_step_family_is_diagonal():
    rng = np.random.default_rng(3)
    r = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
    rho = random_density(4, rng)
    dm = decoherence(HistoryFamily((r,)), rho)
    off = dm.matrix - np.diag(np.diag(dm.matrix))
    assert np.abs(off).max() < 1e-12
    for i, p in enumerate(r.projectors):
        assert abs(dm.matrix[i, i] - np.trace(rho @ p.matrix)) < 1e-12


def test_commuting_two_step_family_is_consistent():
    rng = np.random.default_rng(4)
    fam = HistoryFamily((kron_res(Q2, PZ, "A"), kron_res(Q2, PX, "B")))
    rho = random_density(4, rng)
    ok_w, v_w = consistency_check(fam, rho, mode="weak")
    ok_s, v_s = consistency_check(fam, rho, mode="strong")
    assert ok_w and ok_s
    assert v_s < 1e-12


def test_double_slit_family_oracle():
    # x outcome first, z outcome second, on |0>: interference term 1/4
    fam = HistoryFamily((res(Q1, PX), res(Q1, PZ)))
    rho0 = ket_rho([1, 0])
    ok, worst = consistency_check(fam, rho0, mode="weak")
    assert not ok
    assert abs(worst - 0.25) < 1e-12
    dm = decoherence(fam, rho0)
    d = dm.matrix[dm.index((0, 0)), dm.index((1, 0))]
    assert abs(d - 0.25) < 1e-12


def test_probabilities_diagonal_and_sum():
    rng = np.random.default_rng(5)
    r1 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
    r2 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
    fam = HistoryFamily((r1, r2))
    rho = random_density(4, rng)
    dm = decoherence(fam, rho)
    assert abs(dm.probabilities.sum() - 1.0) < 1e-10
    assert herm_defect(dm.matrix) < 1e-12
    for a in fam.alphas():
        p = probability(fam.history(a), rho)
        assert abs(p - dm.matrix[dm.index(a), dm.index(a)].real) < 1e-12
        assert p > -1e-12


def random_resolution(sp, k, rng):
    """k projectors onto groups of columns of a Haar unitary."""
    u = haar_unitary(sp.dim, rng)
    cols = np.array_split(np.arange(sp.dim), k)
    return res(sp, [u[:, g] @ u[:, g].conj().T for g in cols])


def decoherence_reference(fam, rho, h):
    """tr(C_i rho C_j^dag) with every chain multiplied out from the identity."""
    us = [None if h is None else expm(1j * t * h) for t in fam.times]
    cs = []
    for alpha in product(*(range(len(r)) for r in fam.resolutions)):
        c = np.eye(fam.space.dim, dtype=complex)
        for r, a, u in zip(fam.resolutions, alpha, us):
            p = r.projectors[a].matrix
            if u is not None:
                p = u @ p @ u.conj().T
            c = p @ c
        cs.append(c)
    return np.array([[np.trace(ci @ rho @ cj.conj().T) for cj in cs] for ci in cs])


def random_pure(dim, rng):
    return ket_rho(rng.normal(size=dim) + 1j * rng.normal(size=dim))


@pytest.mark.parametrize("with_h", [False, True])
def test_decoherence_matches_direct_products(with_h):
    rng = np.random.default_rng(17 + with_h)
    shapes = ((Q2, 2), (Q2, 3), (Q2, 4), (qubit_space("A", "B", "C"), 4))
    for pure, (sp, n_steps), _ in product((False, True), shapes, range(2)):
        steps = tuple(random_resolution(sp, int(rng.integers(2, 5)), rng)
                      for _ in range(n_steps))
        times = tuple(np.sort(rng.uniform(0.0, 2.0, n_steps)))
        h = random_hermitian(sp.dim, rng) if with_h else None
        fam = HistoryFamily(steps, times, hamiltonian=h)
        rho = (random_pure if pure else random_density)(sp.dim, rng)
        want = decoherence_reference(fam, rho, h)
        got = decoherence(fam, rho).matrix
        assert np.abs(got - want).max() <= 1e-12


def test_decoherence_matches_entrywise_loop():
    """The state-column product against the entry-by-entry trace over the
    dense class operators, for pure, rank-2 and full-rank states."""
    rng = np.random.default_rng(31)
    sp = qubit_space("A", "B", "C")
    cases = [(8, 2, False), (8, 3, True), (8, 4, False)]
    cases += [(rank, n, h) for rank in (1, 2) for n, h in ((2, False), (3, True), (4, True))]
    for rank, n_steps, with_h in cases:
        steps = tuple(random_resolution(sp, int(rng.integers(2, 5)), rng)
                      for _ in range(n_steps))
        times = tuple(np.sort(rng.uniform(0.0, 2.0, n_steps)))
        h = random_hermitian(8, rng) if with_h else None
        fam = HistoryFamily(steps, times, hamiltonian=h)
        rho = (random_density(8, rng) if rank == 8
               else sum(random_pure(8, rng) for _ in range(rank)) / rank)
        levels = [hist._heisenberg([p.matrix for p in r.projectors], t, h)
                  for r, t in zip(fam.resolutions, fam.times)]
        cs = hist._chains(levels, np.eye(8, dtype=complex))
        want = np.array([[np.vdot(cj, ci @ rho) for cj in cs] for ci in cs])
        got = decoherence(fam, rho).matrix
        assert got.shape == (len(cs), len(cs))
        assert np.abs(got - want).max() <= 1e-12


def test_decoherence_of_a_pure_state_holds_no_class_operator():
    # 8 qubits, 3 steps of 4 outcomes: 64 dense class operators of d = 256
    # would take 64 MB, their products with rho as much again
    rng = np.random.default_rng(43)
    sp = qubit_space(*"ABCDEFGH")
    fam = HistoryFamily(tuple(random_resolution(sp, 4, rng) for _ in range(3)))
    rho = random_pure(sp.dim, rng)
    tracemalloc.start()
    try:
        dm = decoherence(fam, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dm.matrix.shape == (64, 64)
    assert peak < 10 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_decoherence_exponentiates_once_per_step(monkeypatch):
    calls = []
    expih = hist.expih

    def counted(h, t):
        calls.append(t)
        return expih(h, t)
    monkeypatch.setattr(hist, "expih", counted)
    rng = np.random.default_rng(29)
    sp = qubit_space("A", "B")
    steps = tuple(random_resolution(sp, 2, rng) for _ in range(4))
    fam = HistoryFamily(steps, (0.0, 0.3, 0.7, 1.1),
                        hamiltonian=random_hermitian(4, rng))
    dm = decoherence(fam, random_density(4, rng))
    assert len(dm.alphas) == 16
    assert calls == [0.3, 0.7, 1.1]


def test_strong_consistency_implies_weak():
    rng = np.random.default_rng(6)
    for _ in range(10):
        r1 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
        r2 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
        fam = HistoryFamily((r1, r2))
        rho = random_density(4, rng)
        _, v_w = consistency_check(fam, rho, mode="weak")
        _, v_s = consistency_check(fam, rho, mode="strong")
        assert v_w <= v_s + 1e-15
    with pytest.raises(ValueError):
        consistency_check(fam, rho, mode="medium")


def test_decoherence_matrix_validation():
    fam = HistoryFamily((res(Q1, PZ),))
    alphas = ((0,), (1,))
    with pytest.raises(ValueError):
        DecoherenceMatrix(fam, alphas, np.diag([0.6, 0.6]).astype(complex))
    skew = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian):
        DecoherenceMatrix(fam, alphas, skew)


def test_family_validation():
    with pytest.raises(ValueError):
        HistoryFamily(())
    with pytest.raises(ValueError):
        HistoryFamily((res(Q1, PZ),), times=(0.0, 1.0))
    with pytest.raises(SpaceMismatch):
        HistoryFamily((res(Q1, PZ), kron_res(Q2, PX, "A")))
    with pytest.raises(ValueError):  # checked once, at construction
        HistoryFamily((res(Q1, PZ), res(Q1, PX)), times=(1.0, 0.0))
    fam = HistoryFamily((res(Q1, PZ),))
    with pytest.raises(ValueError):
        fam.history((2,))
    with pytest.raises(ValueError):
        fam.history((0, 0))


# -- additivity ---------------------------------------------------------------

def test_additivity_matches_interference_term():
    fam = HistoryFamily((res(Q1, PX), res(Q1, PZ)))
    rho0 = ket_rho([1, 0])
    dm = decoherence(fam, rho0)
    for k in range(2):
        a, b = fam.history((0, k)), fam.history((1, k))
        av = additivity_violation(a, b, rho0)
        d = dm.matrix[dm.index((0, k)), dm.index((1, k))]
        assert abs(av - 2 * d.real) < 1e-12
    # the classic defect: p(union) - p(a) - p(b) = 1 - 1/4 - 1/4
    av = additivity_violation(fam.history((0, 0)), fam.history((1, 0)), rho0)
    assert abs(av - 0.5) < 1e-12


def test_additivity_identity_on_random_families(rng=None):
    rng = np.random.default_rng(8)
    for _ in range(5):
        r1 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
        r2 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
        fam = HistoryFamily((r1, r2))
        rho = random_density(4, rng)
        dm = decoherence(fam, rho)
        a, b = fam.history((0, 1)), fam.history((2, 1))
        av = additivity_violation(a, b, rho)
        d = dm.matrix[dm.index((0, 1)), dm.index((2, 1))]
        assert abs(av - 2 * d.real) < 1e-12


def test_additivity_trivial_cases():
    rho0 = ket_rho([0.3, 1])
    fam = HistoryFamily((res(Q1, PZ),))
    av = additivity_violation(fam.history((0,)), fam.history((1,)), rho0)
    assert abs(av) < 1e-12  # orthogonal single-step pair


def test_additivity_error_paths():
    fam = HistoryFamily((res(Q1, PX), res(Q1, PZ)))
    rho0 = ket_rho([1, 0])
    with pytest.raises(NotExclusive):
        additivity_violation(fam.history((0, 0)), fam.history((0, 0)), rho0)
    with pytest.raises(ValueError):  # differs at both steps
        additivity_violation(fam.history((0, 0)), fam.history((1, 1)), rho0)
    a = History(((LocalOperator(Q1, PX[0]), 0, 0.0),))
    b = History(((LocalOperator(Q1, PZ[0]), 0, 0.0),))
    with pytest.raises(NotExclusive):  # overlapping outcomes
        additivity_violation(a, b, rho0)
    c = History(((LocalOperator(Q1, PZ[0]), 0, 2.0),))
    with pytest.raises(ValueError):
        additivity_violation(a, c, rho0)


# -- Fuksa bipartite ----------------------------------------------------------

def test_fuksa_bipartite_commuting_resolutions():
    rng = np.random.default_rng(9)
    rep = fuksa_bipartite(kron_res(Q2, PZ, "A"), kron_res(Q2, PX, "B"),
                          random_density(4, rng))
    assert rep.consistency < 1e-13
    assert max(rep.shifts) < 1e-13


def test_fuksa_bipartite_eigenstate_instance():
    # rho0 inside one res1 eigenspace kills every cross term even though
    # the resolutions do not commute
    rng = np.random.default_rng(10)
    r1 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
    r2 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
    comm = max(opnorm(p.matrix @ q.matrix - q.matrix @ p.matrix)
               for p in r1.projectors for q in r2.projectors)
    assert comm > 1e-2
    rho0 = r1.projectors[1].matrix  # rank-1 eigenprojector is a pure state
    rep = fuksa_bipartite(r1, r2, rho0)
    assert rep.consistency < 1e-12
    assert max(rep.shifts) < 1e-10


def test_fuksa_bipartite_generic_signalling():
    rng = np.random.default_rng(11)
    r1 = kron_res(Q2, PX, "A")
    r2 = res(Q2, [ket_rho([1, 0, 0, 1]), np.eye(4) - ket_rho([1, 0, 0, 1])])
    rep = fuksa_bipartite(r1, r2, ket_rho([1, 0, 0, 0]))
    assert rep.consistency > 1e-2
    assert max(rep.shifts) > 1e-2


def test_fuksa_bipartite_implication_property():
    # 200 randomly generated consistent families: tiny cross terms must
    # force tiny marginal shifts
    rng = np.random.default_rng(12)
    for trial in range(200):
        if trial % 2 == 0:
            u = haar_unitary(4, rng)
            cols = [u[:, [0, 1]], u[:, [2, 3]]]
            r1 = res(Q2, [c @ c.conj().T for c in cols])
            split = ([0, 2], [1, 3]) if trial % 4 == 0 else ([0], [1, 2, 3])
            r2 = res(Q2, [u[:, s] @ u[:, s].conj().T for s in split])
            rho = random_density(4, rng)
        else:
            r1 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
            r2 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
            rho = r1.projectors[int(rng.integers(4))].matrix
        rep = fuksa_bipartite(r1, r2, rho)
        assert rep.consistency < 1e-12
        assert max(rep.shifts) < 1e-10


# -- Fuksa tripartite ---------------------------------------------------------

def test_fuksa_tripartite_commuting_instance():
    kick = expm(0.7j * np.kron(SX, EYE2))
    rep = fuksa_tripartite(kron_res(Q2, PZ, "A"), kron_res(Q2, PX, "B"),
                           kron_res(Q2, PZ, "B"), kicks=[kick])
    assert rep.passed
    assert rep.worst < 1e-13
    assert rep.measurement_shift < 1e-12
    assert rep.kick_shift < 1e-12  # kick acts on a factor the later steps ignore


def test_fuksa_tripartite_passing_needs_commuting_second_step():
    # summing the condition operator P2 P3 P2 over the exhaustive third
    # resolution returns P2, so a passing set forces P2 into the first
    # resolution's commutant; noncommuting second steps must fail
    rng = np.random.default_rng(13)
    r1 = kron_res(Q2, PZ, "A")
    r3 = kron_res(Q2, PZ, "B")
    pi0, pi1 = (p.matrix for p in r1.projectors)
    for _ in range(5):
        r2 = spectral_resolution(LocalOperator(Q2, random_hermitian(4, rng)))
        rep = fuksa_tripartite(r1, r2, r3)
        bound = max(opnorm(pi1 @ q.matrix @ pi0) for q in r2.projectors) / len(r3)
        assert rep.worst >= bound - 1e-12
        assert bound > 1e-3
        assert not rep.passed


def test_fuksa_tripartite_squeezed_step_extends_conditions():
    # passes the three-step conditions (second step on the far factor) and a
    # sigma-x kick cannot shift anything; squeezing a fourth resolution on
    # the near factor between steps 2 and 3 breaks the enlarged set
    r1 = kron_res(Q2, PZ, "A")
    r2 = kron_res(Q2, PX, "B")
    r3 = kron_res(Q2, PZ, "B")
    kick = expm(0.9j * np.kron(SX, EYE2))
    plain = fuksa_tripartite(r1, r2, r3, kicks=[kick])
    assert plain.passed
    assert plain.kick_shift < 1e-12
    squeezed = fuksa_tripartite(r1, r2, r3, extra=kron_res(Q2, PX, "A"))
    assert not squeezed.passed
    assert squeezed.worst > 1e-3
    assert squeezed.measurement_shift > 1e-3


def test_fuksa_tripartite_matches_chain_loops():
    # reference: every later chain multiplied out from the identity, once
    # for the condition operators and again for each state's statistics
    rng = np.random.default_rng(31)
    r1, r3 = kron_res(Q2, PZ, "A"), kron_res(Q2, PZ, "B")
    r2 = random_resolution(Q2, 2, rng)
    extra = random_resolution(Q2, 3, rng)
    kicks = [haar_unitary(4, rng) for _ in range(2)]
    rho0 = random_density(4, rng)
    rep = fuksa_tripartite(r1, r2, r3, rho0, kicks=kicks, extra=extra,
                           rng=np.random.default_rng(5), n_states=3)

    p1 = [p.matrix for p in r1.projectors]
    later = [[p.matrix for p in r.projectors] for r in (r2, extra, r3)]

    def chains():
        for combo in product(*later):
            c = np.eye(4, dtype=complex)
            for p in combo:
                c = p @ c
            yield c

    def joint(rho):
        return np.array([np.real(np.trace(c @ rho @ c.conj().T)) for c in chains()])

    worst = max(opnorm(pj @ c.conj().T @ c @ pi) for c in chains()
                for i, pi in enumerate(p1) for j, pj in enumerate(p1) if i != j)
    state_rng = np.random.default_rng(5)
    states = [rho0] + [random_density(4, state_rng) for _ in range(3)]
    meas = kick = 0.0
    for rho in states:
        base = joint(rho)
        measured = sum(p @ rho @ p for p in p1)
        meas = max(meas, np.abs(joint(measured) - base).max())
        for u in kicks:
            kick = max(kick, np.abs(joint(u @ rho @ u.conj().T) - base).max())
    assert worst > 1e-3 and meas > 1e-3 and kick > 1e-3
    assert abs(rep.worst - worst) <= 1e-12
    assert abs(rep.measurement_shift - meas) <= 1e-12
    assert abs(rep.kick_shift - kick) <= 1e-12


def test_fuksa_tripartite_commutation_precondition():
    with pytest.raises(CommutationPrecondition):
        fuksa_tripartite(kron_res(Q2, PZ, "A"), kron_res(Q2, PZ, "B"),
                         kron_res(Q2, PX, "A"))


def test_fuksa_tripartite_matches_scenario_signalling():
    from causalq.scenarios import signalling_delta
    from scenario_presets import shipped

    psi2 = np.array([np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)], dtype=complex)
    p2 = np.outer(psi2, psi2.conj())
    r1 = kron_res(Q2, PX, "A")
    r2 = res(Q2, [p2, np.eye(4) - p2])
    r3 = kron_res(Q2, PZ, "B")
    rep = fuksa_tripartite(r1, r2, r3)
    assert not rep.passed
    assert rep.worst > 1e-3

    sc = shipped("sorkin_qubit_baby")
    report = signalling_delta(sc)
    assert report.delta_max > 1e-3  # operator condition fails, scenario signals
    bell = ket_rho([1, 0, 0, 1])
    fam = HistoryFamily((r2, r3))
    gen = np.kron(SX, EYE2)
    for lam, expect in zip(report.params, report.expectations):
        u = expm(1j * lam * gen)
        rho = u @ bell @ u.conj().T
        val = 0.0
        for a2 in range(2):
            for a3, sign in ((0, 1.0), (1, -1.0)):
                val += sign * probability(fam.history((a2, a3)), rho)
        assert abs(val - expect) < 1e-10
