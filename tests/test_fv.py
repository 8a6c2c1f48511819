"""Probe scheme on the circuit lattice: scattering map, updates, no-signalling."""
from collections import Counter
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from causalq import fv, qops
from causalq.causal import cells, spacelike
from causalq.config import DEFAULT
from causalq.errors import (CouplingOutsideK, DimensionMismatch,
                            GeometryViolation, NotCausallyOrderable, NotEffect,
                            NotHermitian, UnknownLabel, ZeroProbability)
from causalq.fv import (BostelmannReport, CircuitSpacetime, ProbeCoupling,
                        bostelmann_check, bostelmann_preset, cell_operator,
                        cnot_preset, corollary6_check, induced_observable,
                        operator_support, random_brickwork, scattering_map,
                        support_defect, update_nonselective, update_selective)
from causalq.qops import _ptrace_matrix, dag, opnorm
from causalq.random_ops import (haar_unitary, random_density, random_effect,
                                random_hermitian)

from fock_oracles import kron_embed

GROUND = np.diag([1.0, 0.0]).astype(complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def qubit_probe(label, gate_cells, rng, free=None):
    gates = tuple((cell, haar_unitary(4, rng)) for cell in gate_cells)
    region = cells(gate_cells) if gate_cells else None
    return ProbeCoupling(label, 2, GROUND, gates, region, free)


def test_circuit_validation():
    with pytest.raises(ValueError):
        CircuitSpacetime(3, 2, layers=((),))          # wrong layer count
    with pytest.raises(ValueError):
        CircuitSpacetime(3, 1, layers=(((0, np.eye(4)), (1, np.eye(4))),))
    with pytest.raises(DimensionMismatch):
        CircuitSpacetime(3, 1, layers=(((2, np.eye(4)),),))   # needs site 3
    with pytest.raises(DimensionMismatch):
        CircuitSpacetime(3, 1, layers=(((0, np.eye(3)),),))
    with pytest.raises(ValueError):
        CircuitSpacetime(3, 1, layers=(((0, 2 * np.eye(4)),),))
    c = CircuitSpacetime(3, 2)
    assert c.dims == (2, 2, 2)
    assert c.site_labels == ("s0", "s1", "s2")


def test_probe_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ProbeCoupling("P", 2, np.eye(2, dtype=complex))         # trace 2
    with pytest.raises(CouplingOutsideK):
        ProbeCoupling("P", 2, GROUND, (((0, 0), np.eye(4)),), None)
    with pytest.raises(CouplingOutsideK):
        ProbeCoupling("P", 2, GROUND, (((0, 1), np.eye(4)),), cells([(0, 0)]))
    with pytest.raises(ValueError):
        ProbeCoupling("P", 2, GROUND, region=cells([(0, 0)], period=8))
    # gate unitarity is checked once, when the probe is built
    with pytest.raises(ValueError, match="not unitary"):
        ProbeCoupling("P", 2, GROUND, (((0, 0), 2 * np.eye(4)),), cells([(0, 0)]))
    with pytest.raises(DimensionMismatch):
        ProbeCoupling("P", 2, GROUND, (((0, 0), np.eye(4)[:, :2]),), cells([(0, 0)]))
    p = qubit_probe("P", [(1, 1)], rng)
    assert p.coupling_steps == (1,)


def test_scattering_map_window_and_labels():
    rng = np.random.default_rng(1)
    c = random_brickwork(rng, 3, 2)
    out = ProbeCoupling("P", 2, GROUND, (((5, 0), haar_unitary(4, rng)),),
                        cells([(5, 0)]))
    with pytest.raises(CouplingOutsideK):
        scattering_map(c, out)
    with pytest.raises(UnknownLabel):
        scattering_map(c, qubit_probe("P", [(0, 0)], rng), coupled=("Q",))
    with pytest.raises(ValueError):
        scattering_map(c, qubit_probe("s0", [(0, 0)], rng))
    with pytest.raises(DimensionMismatch):
        scattering_map(c, qubit_probe("P", [(0, 0)], rng,
                                      free=(np.eye(2),)))


def test_no_coupling_gives_identity_map():
    rng = np.random.default_rng(2)
    c = random_brickwork(rng, 3, 3)
    sm = scattering_map(c, qubit_probe("P", [], rng))
    assert sm.gates == ()
    x = random_hermitian(16, rng)
    assert opnorm(sm.theta(x) - x) == 0.0


def test_theta_star_isomorphism_random_pairs():
    rng = np.random.default_rng(3)
    c = random_brickwork(rng, 3, 3)
    sm = scattering_map(c, qubit_probe("P", [(0, 1), (1, 0)], rng))
    d = sm.space.dim
    assert opnorm(sm.theta(np.eye(d)) - np.eye(d)) < 1e-10
    for _ in range(100):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert opnorm(sm.theta(x @ y) - sm.theta(x) @ sm.theta(y)) < 1e-10
        assert opnorm(sm.theta(dag(x)) - dag(sm.theta(x))) < 1e-10


def test_cnot_induced_observable_is_control_projector():
    c, p = cnot_preset()
    sm = scattering_map(c, p)
    eps = induced_observable(sm, np.diag([0.0, 1.0]))
    want = np.kron(np.diag([0.0, 1.0]), np.eye(2))
    assert opnorm(eps - want) == 0.0
    assert opnorm(induced_observable(sm, np.eye(2)) - np.eye(4)) == 0.0


def test_no_coupling_observable_is_scalar():
    rng = np.random.default_rng(4)
    c = random_brickwork(rng, 3, 2)
    sm = scattering_map(c, qubit_probe("P", [], rng))
    b = random_effect(2, rng)
    eps = induced_observable(sm, b)
    lam = np.trace(GROUND @ b).real
    assert opnorm(eps - lam * np.eye(8)) < 1e-12


def test_induced_observable_is_effect_valued():
    rng = np.random.default_rng(5)
    c = random_brickwork(rng, 3, 3)
    sm = scattering_map(c, qubit_probe("P", [(0, 0), (1, 1)], rng))
    for _ in range(20):
        eps = induced_observable(sm, random_effect(2, rng))
        ev = np.linalg.eigvalsh(eps)
        assert ev.min() > -1e-10 and ev.max() < 1 + 1e-10
    with pytest.raises(NotEffect):
        induced_observable(sm, 1.2 * np.eye(2))
    with pytest.raises(NotEffect):
        induced_observable(sm, np.array([[0.5, 0.4], [0.1, 0.5]]))


def test_spacelike_cells_pass_through_theta():
    rng = np.random.default_rng(6)
    c = random_brickwork(rng, 5, 3)
    k = cells([(1, 1)])
    sm = scattering_map(c, qubit_probe("P", [(1, 1)], rng))
    a = random_hermitian(2, rng)
    for cell in [(0, 3), (0, 4), (1, 3), (2, 4), (3, 4)]:
        assert spacelike(cells([cell]), k)
        x = cell_operator(sm, cell, a)
        assert opnorm(sm.theta(x) - x) < 1e-12
    # a cell inside the coupling's future cone does react
    x = cell_operator(sm, (3, 1), a)
    assert opnorm(sm.theta(x) - x) > 1e-3


def test_nonselective_update_preserves_spacelike_expectations():
    rng = np.random.default_rng(7)
    c = random_brickwork(rng, 5, 3)
    sm = scattering_map(c, qubit_probe("P", [(1, 1)], rng))
    sm0 = scattering_map(c)
    omega = random_density(32, rng)
    out = update_nonselective(sm, omega)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert opnorm(out - dag(out)) < 1e-12
    for cell in [(0, 4), (2, 4), (3, 4)]:
        a = cell_operator(sm0, cell, random_hermitian(2, rng))
        assert abs(np.trace((out - omega) @ a)) < 1e-12
    a_fut = cell_operator(sm0, (3, 1), SZ)
    assert abs(np.trace((out - omega) @ a_fut)) > 1e-4


def test_free_cone_support_is_exact():
    rng = np.random.default_rng(8)
    c = random_brickwork(rng, 5, 3)
    sm = scattering_map(c, qubit_probe("P", [(0, 0)], rng))
    for (t, x) in [(0, 2), (1, 2), (2, 2), (3, 2), (3, 0)]:
        op = cell_operator(sm, (t, x), SZ)
        lo, hi = max(0, x - t), min(4, x + t)
        inside = {f"s{i}" for i in range(lo, hi + 1)}
        assert operator_support(op, sm.space) <= inside
        assert support_defect(op, sm.space, sorted(inside)) < 1e-12


def test_theta_localizes_late_operators_in_past_cone():
    rng = np.random.default_rng(9)
    c = random_brickwork(rng, 5, 3)
    sm = scattering_map(c, qubit_probe("P", [(1, 1)], rng))
    op = sm.theta(cell_operator(sm, (3, 2), random_hermitian(2, rng)))
    allowed = {f"s{i}" for i in range(5) if abs(i - 2) <= 3} | {"P"}
    assert operator_support(op, sm.space) <= allowed
    # coupling outside the observable's past cone never enters the support
    far = scattering_map(c, qubit_probe("Q", [(2, 0)], rng))
    op = far.theta(cell_operator(far, (3, 4), random_hermitian(2, rng)))
    assert "Q" not in operator_support(op, far.space)


def test_cnot_nonselective_dephases_control():
    rng = np.random.default_rng(10)
    c, p = cnot_preset()
    sm = scattering_map(c, p)
    omega = random_density(4, rng)
    out = update_nonselective(sm, omega)
    want = omega.reshape(2, 2, 2, 2).copy()
    want[0, :, 1, :] = 0.0
    want[1, :, 0, :] = 0.0
    assert opnorm(out - want.reshape(4, 4)) < 1e-14


def test_selective_with_unit_effect_is_nonselective():
    rng = np.random.default_rng(11)
    c = random_brickwork(rng, 3, 3)
    sm = scattering_map(c, qubit_probe("P", [(0, 1), (2, 0)], rng))
    omega = random_density(8, rng)
    rho, prob = update_selective(sm, omega, np.eye(2))
    assert abs(prob - 1.0) < 1e-12
    assert opnorm(rho - update_nonselective(sm, omega)) < 1e-12


def test_selective_zero_probability_raises():
    c, p = cnot_preset()
    sm = scattering_map(c, p)
    omega = np.zeros((4, 4), dtype=complex)
    omega[0, 0] = 1.0                      # control stays 0, probe stays 0
    with pytest.raises(ZeroProbability):
        update_selective(sm, omega, np.diag([0.0, 1.0]))


NO_DENSITY = pytest.mark.parametrize("block, error, words", [
    ([[1, 5], [0, -3]], NotHermitian, "system state is not Hermitian"),
    ([[1, 0], [0, -3]], ValueError, "system state does not have unit trace"),
    ([[2, 0], [0, -1]], ValueError, "system state is not positive semidefinite"),
], ids=["non_hermitian", "trace_minus_2", "negative"])


@NO_DENSITY
@pytest.mark.parametrize("update", [
    update_nonselective, lambda sm, omega: update_selective(sm, omega, np.eye(2))],
    ids=["nonselective", "selective"])
def test_updates_refuse_a_system_state_that_is_no_density(update, block, error, words):
    c, p = cnot_preset()
    sm = scattering_map(c, p)
    omega = np.zeros((4, 4), dtype=complex)
    omega[:2, :2] = block
    with pytest.raises(error, match=words):
        update(sm, omega)


@NO_DENSITY
@pytest.mark.parametrize("check", ["corollary6", "bostelmann"])
def test_checks_refuse_a_system_state_that_is_no_density(check, block, error, words):
    c, p = cnot_preset()
    q = ProbeCoupling("Q", 2, GROUND)
    omega = np.zeros((4, 4), dtype=complex)
    omega[:2, :2] = block
    with pytest.raises(error, match=words):
        if check == "corollary6":
            corollary6_check(c, omega, p, q, np.eye(2), np.eye(2))
        else:
            bostelmann_check(c, p, q, cells([(1, 1)]), omega=omega, enforce=False)


def test_bostelmann_reads_the_circuit_tolerances():
    c, p = cnot_preset(DEFAULT.replace(trace=1e-8))
    omega = np.diag([0.5 + 1e-9, 0.5, 0.0, 0.0]).astype(complex)
    q = ProbeCoupling("Q", 2, GROUND)
    bostelmann_check(c, p, q, cells([(1, 1)]), omega=omega, enforce=False)
    c, p = cnot_preset()
    with pytest.raises(ValueError, match="unit trace"):
        bostelmann_check(c, p, q, cells([(1, 1)]), omega=omega, enforce=False)


def test_updates_read_the_trace_tolerance():
    c, p = cnot_preset()
    sm = scattering_map(c, p)
    omega = np.diag([0.5 + 1e-9, 0.5, 0.0, 0.0]).astype(complex)
    update_nonselective(sm, omega, DEFAULT.replace(trace=1e-8))
    update_selective(sm, omega, np.eye(2), tol=DEFAULT.replace(trace=1e-8))
    with pytest.raises(ValueError, match="unit trace"):
        update_nonselective(sm, omega)
    with pytest.raises(ValueError, match="unit trace"):
        update_selective(sm, omega, np.eye(2))


def test_selective_product_state_leaves_spacelike_marginals():
    rng = np.random.default_rng(12)
    c = random_brickwork(rng, 5, 3)
    sm = scattering_map(c, qubit_probe("P", [(1, 1)], rng))
    sm0 = scattering_map(c)
    a_far = cell_operator(sm0, (0, 4), SZ)
    parts = [random_density(2, rng) for _ in range(5)]
    omega = parts[0]
    for m in parts[1:]:
        omega = np.kron(omega, m)
    b = random_effect(2, rng)
    rho, _ = update_selective(sm, omega, b)
    assert abs(np.trace((rho - omega) @ a_far)) < 1e-12
    # entangle the far site with a site the coupling can reach
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    omega_ent = np.kron(bell, np.kron(parts[2], np.kron(parts[3], parts[4])))
    omega_ent = omega_ent.reshape((2,) * 10)
    omega_ent = omega_ent.transpose(0, 2, 3, 4, 1, 5, 7, 8, 9, 6)
    omega_ent = omega_ent.reshape(32, 32)          # pair sits on sites 0 and 4
    rho, _ = update_selective(sm, omega_ent, b)
    assert abs(np.trace((rho - omega_ent) @ a_far)) > 1e-3


def test_corollary6_random_orderable_instances():
    rng = np.random.default_rng(13)
    done = 0
    while done < 20:
        c = random_brickwork(rng, 3, 3)
        k1 = (int(rng.integers(2)), int(rng.integers(3)))
        k2 = (int(rng.integers(3)), int(rng.integers(3)))
        if k1[0] - k2[0] >= abs(k1[1] - k2[1]):
            continue                        # k2 in the causal past of k1
        p1 = qubit_probe("P1", [k1], rng)
        p2 = qubit_probe("P2", [k2], rng)
        rep = corollary6_check(c, random_density(8, rng), p1, p2,
                               random_effect(2, rng), random_effect(2, rng))
        assert rep.residual < 1e-10
        assert rep.factorization < 1e-10
        assert rep.probability_gap < 1e-10
        done += 1


def test_corollary6_geometry():
    rng = np.random.default_rng(14)
    c = random_brickwork(rng, 3, 3)
    om = random_density(8, rng)
    b1, b2 = random_effect(2, rng), random_effect(2, rng)
    with pytest.raises(NotCausallyOrderable):
        corollary6_check(c, om, qubit_probe("P1", [(2, 1)], rng),
                         qubit_probe("P2", [(0, 1)], rng), b1, b2)
    rep = corollary6_check(c, om, qubit_probe("P1", [(0, 1)], rng),
                           qubit_probe("P2", [], rng), b1, np.eye(2))
    assert rep.residual < 1e-12 and rep.factorization < 1e-12


def test_corollary6_spacelike_pair_is_order_independent():
    rng = np.random.default_rng(15)
    c = random_brickwork(rng, 5, 2)
    p1 = qubit_probe("P1", [(0, 0)], rng)
    p2 = qubit_probe("P2", [(0, 4)], rng)
    om = random_density(32, rng)
    b1, b2 = random_effect(2, rng), random_effect(2, rng)
    fwd = corollary6_check(c, om, p1, p2, b1, b2)
    rev = corollary6_check(c, om, p2, p1, b2, b1)
    assert fwd.residual < 1e-10 and rev.residual < 1e-10
    assert fwd.factorization < 1e-10 and rev.factorization < 1e-10


def test_bostelmann_valid_preset_is_exact():
    c, p1, p2, o3 = bostelmann_preset(valid=True)
    rep = bostelmann_check(c, p1, p2, o3, rng=np.random.default_rng(16))
    assert isinstance(rep, BostelmannReport)
    assert rep.failed == ()
    assert rep.residual < 1e-10
    assert rep.state_spread < 1e-10


def test_bostelmann_uncoupled_probe1_trivial():
    c, _, p2, o3 = bostelmann_preset(valid=True)
    p1 = ProbeCoupling("P1", 2, GROUND)
    rep = bostelmann_check(c, p1, p2, o3, rng=np.random.default_rng(17),
                           extra_probe1=0)
    assert rep.residual < 1e-12 and rep.state_spread < 1e-12


def test_bostelmann_broken_geometry_signals():
    c, p1, p2, o3 = bostelmann_preset(valid=False)
    with pytest.raises(GeometryViolation) as err:
        bostelmann_check(c, p1, p2, o3)
    assert "spacelike" in str(err.value)
    rep = bostelmann_check(c, p1, p2, o3, enforce=False,
                           rng=np.random.default_rng(18))
    assert rep.failed
    assert rep.residual > 1e-3
    assert rep.state_spread > 1e-3


def test_bostelmann_same_step_probe_bridge_is_flagged():
    # probe 2 reads the kick and writes into the observable's past within one
    # slice; the probe factor relays superluminally and only the relay-cell
    # condition catches it
    rng = np.random.default_rng(19)
    c = random_brickwork(rng, 5, 3)
    p1 = qubit_probe("P1", [(0, 0)], rng)
    p2 = qubit_probe("P2", [(1, 1), (1, 3)], rng)
    o3 = cells([(2, 4)])
    with pytest.raises(GeometryViolation) as err:
        bostelmann_check(c, p1, p2, o3)
    assert "relay" in str(err.value)
    rep = bostelmann_check(c, p1, p2, o3, enforce=False, rng=rng)
    assert rep.failed == (
        "probe-1 region in causal contact with probe-2 relay cells",)
    assert rep.residual > 1e-3
    assert rep.state_spread > 1e-3


def test_operator_support_minimal_sets():
    rng = np.random.default_rng(20)
    c = CircuitSpacetime(3, 1)
    sm = scattering_map(c, qubit_probe("P", [], rng))
    sp = sm.space
    op = cell_operator(sm, (0, 1), SZ)
    assert operator_support(op, sp) == frozenset({"s1"})
    assert operator_support(np.eye(sp.dim), sp) == frozenset()
    two = cell_operator(sm, (0, 0), SZ) @ cell_operator(sm, (0, 2), SZ)
    assert operator_support(two, sp) == frozenset({"s0", "s2"})


def test_random_brickwork_layers_alternate():
    rng = np.random.default_rng(21)
    c = random_brickwork(rng, 6, 4)
    starts = [min(span[0] for span, _ in layer) for layer in c.layers]
    assert starts == [0, 1, 0, 1]
    for layer in c.layers:
        for span, u in layer:
            assert len(span) == 2
            assert opnorm(u @ dag(u) - np.eye(4)) < 1e-10


def test_checks_honour_tolerances():
    rng = np.random.default_rng(22)
    tight = DEFAULT.replace(unitary=1e-14)
    u4 = haar_unitary(4, rng) + 1e-12 * random_hermitian(4, rng)
    u2 = haar_unitary(2, rng) + 1e-12 * random_hermitian(2, rng)
    builds = [
        lambda tol: CircuitSpacetime(2, 1, (((0, u4),),), tol=tol),
        lambda tol: ProbeCoupling("P", 2, GROUND, (((0, 0), u4),), cells([(0, 0)]),
                                  tol=tol),
        lambda tol: ProbeCoupling("P", 2, GROUND, free=(u2,), tol=tol),
    ]
    for build in builds:
        build(DEFAULT)
        with pytest.raises(ValueError, match="not unitary"):
            build(tight)
    off = np.diag([1.0 + 1e-11, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="unit trace"):
        ProbeCoupling("P", 2, off)
    ProbeCoupling("P", 2, off, tol=DEFAULT.replace(trace=1e-10))


def embed_and_multiply(c, probes, coupled):
    """V, V0 and the free prefixes with every gate embedded as a full matrix."""
    sp = qops.space(*zip(c.site_labels, c.dims), *[(p.label, p.dim) for p in probes])
    eye = np.eye(sp.dim, dtype=complex)
    v0, v, prefix = eye, eye, [eye]
    for s in range(c.n_steps):
        free, kick = eye, eye
        for span, g in c.layers[s]:
            free = kron_embed(g, [f"s{i}" for i in span], sp) @ free
        for p in probes:
            if p.free is not None:
                free = kron_embed(p.free[s], [p.label], sp) @ free
            if p.label in coupled:
                here = sorted(((cell, g) for cell, g in p.gates if cell[0] == s),
                              key=lambda item: item[0][1])
                for (_, x), g in here:
                    kick = kron_embed(g, [f"s{x}", p.label], sp) @ kick
        v0 = free @ v0
        v = free @ kick @ v
        prefix.append(v0)
    return sp, v0, v, prefix


def mixed_dim_instance(rng):
    """Sites of dims (2, 3, 2, 2), a qubit and a qutrit probe, free probe motion."""
    dims = (2, 3, 2, 2)
    layers = (((0, haar_unitary(6, rng)), (2, haar_unitary(4, rng))),
              ((1, haar_unitary(6, rng)), (3, haar_unitary(2, rng))),
              ((0, haar_unitary(2, rng)), (2, haar_unitary(4, rng))))
    c = CircuitSpacetime(4, 3, layers, dims)
    p = ProbeCoupling("P", 2, random_density(2, rng),
                      (((2, 3), haar_unitary(4, rng)), ((0, 1), haar_unitary(6, rng))),
                      cells([(0, 1), (2, 3)]),
                      tuple(haar_unitary(2, rng) for _ in range(3)))
    q = ProbeCoupling("Q", 3, random_density(3, rng),
                      (((1, 2), haar_unitary(6, rng)), ((1, 0), haar_unitary(6, rng))),
                      cells([(1, 0), (1, 2)]),
                      tuple(haar_unitary(3, rng) for _ in range(3)))
    return c, p, q


@pytest.mark.parametrize("coupled", [(), ("P",), ("Q",), ("P", "Q")])
def test_gate_local_map_matches_embed_and_multiply(coupled):
    rng = np.random.default_rng(23)
    for _ in range(3):
        c, p, q = mixed_dim_instance(rng)
        sm = scattering_map(c, p, q, coupled=coupled)
        sp, v0, v, prefix = embed_and_multiply(c, (p, q), coupled)
        s = dag(v0) @ v
        assert sm.space == sp
        # each dressed gate is W_t^dag k W_t, carried on its past cone and probe
        bare = {(pc.label, cell): g for pc in (p, q) if pc.label in coupled
                for cell, g in pc.gates}
        assert len(sm.gates) == len(bare)
        for g in sm.gates:
            (t, x), label = g.cell, g.probe
            want = (dag(prefix[t]) @ kron_embed(bare[label, g.cell], [f"s{x}", label], sp)
                    @ prefix[t])
            assert opnorm(kron_embed(g.matrix, g.labels, sp) - want) <= 1e-12
            assert {int(l[1:]) for l in g.labels if l != label} <= set(
                range(max(0, x - t), x + t + 1))
        m = rng.normal(size=(sp.dim,) * 2) + 1j * rng.normal(size=(sp.dim,) * 2)
        assert opnorm(sm.theta(m) - dag(s) @ m @ s) <= 1e-12
        assert opnorm(sm.theta_dual(m) - s @ m @ dag(s)) <= 1e-12
        a = random_hermitian(3, rng)
        want = dag(prefix[2]) @ kron_embed(a, ["s1"], sp) @ prefix[2]
        assert opnorm(cell_operator(sm, (2, 1), a) - want) <= 1e-12
        # induced observable and selective update against full-space filters
        b, sigma = random_effect(3, rng), random_density(3, rng)
        big = dag(s) @ kron_embed(b, ["Q"], sp) @ s
        w = kron_embed(p.sigma, ["P"], sp) @ kron_embed(sigma, ["Q"], sp)
        want = _ptrace_matrix(w @ big, sp, list(c.site_labels))
        got = induced_observable(sm, b, sigma=sigma, probe="Q")
        assert opnorm(got - want) <= 1e-12
        omega = random_density(24, rng)
        rho = s @ np.kron(np.kron(omega, p.sigma), q.sigma) @ dag(s)
        num = _ptrace_matrix(rho @ kron_embed(b, ["Q"], sp), sp, list(c.site_labels))
        num = (num + dag(num)) / 2
        state, prob = update_selective(sm, omega, b, probe="Q")
        assert abs(prob - np.trace(num).real) <= 1e-12
        assert opnorm(state - num / prob) <= 1e-12


def dense_scattering(c, probes, coupled):
    """S = V0^dag V and the free prefixes, from embedded full-space gates."""
    sp, v0, v, prefix = embed_and_multiply(c, probes, coupled)
    return sp, dag(v0) @ v, prefix


def dense_bostelmann(c, p1, p2, o3, rng, extra_probe1=3):
    """Residual and spread of bostelmann_check with every map a d x d matrix,
    drawing the observable, the state and the probe-1 variants in its order."""
    sp, s2, prefix = dense_scattering(c, (p1, p2), (p2.label,))
    _, s1, _ = dense_scattering(c, (p1, p2), (p1.label,))
    cmat = reduce(np.matmul, [
        dag(prefix[t]) @ kron_embed(random_hermitian(c.dims[x], rng), [f"s{x}"], sp)
        @ prefix[t] for t, x in sorted(o3.cells)])
    processed = dag(s2) @ cmat @ s2
    residual = opnorm(dag(s1) @ processed @ s1 - processed)
    rho0 = reduce(np.kron, [random_density(int(np.prod(c.dims)), rng),
                            p1.sigma, p2.sigma])
    base = np.trace(rho0 @ processed)
    variants = [p1, replace(p1, gates=())]
    variants += [replace(p1, gates=tuple(
        (cell, haar_unitary(c.dims[cell[1]] * p1.dim, rng)) for cell, _ in p1.gates))
        for _ in range(extra_probe1)]
    spread = 0.0
    for pv in variants:
        _, sv, _ = dense_scattering(c, (pv, p2), (p1.label, p2.label))
        spread = max(spread, abs(np.trace(rho0 @ dag(sv) @ cmat @ sv) - base))
    return residual, spread


def dense_corollary6(c, omega, p1, p2, b1, b2):
    """Residual, factorization and probability gap of corollary6_check from
    full-space scattering operators and embedded effects."""
    sp, s12, _ = dense_scattering(c, (p1, p2), (p1.label, p2.label))
    _, s1, _ = dense_scattering(c, (p1, p2), (p1.label,))
    _, s2, _ = dense_scattering(c, (p1, p2), (p2.label,))

    def selective(s, rho, effects):
        rho = s @ reduce(np.kron, [rho, p1.sigma, p2.sigma]) @ dag(s)
        for label, b in effects:
            rho = kron_embed(b, [label], sp) @ rho
        num = _ptrace_matrix(rho, sp, list(c.site_labels))
        num = (num + dag(num)) / 2
        prob = np.trace(num).real
        return num / prob, prob

    r1, q1 = selective(s1, omega, [(p1.label, b1)])
    r12, q2 = selective(s2, r1, [(p2.label, b2)])
    rj, pj = selective(s12, omega, [(p1.label, b1), (p2.label, b2)])
    return (np.abs(np.linalg.eigvalsh(r12 - rj)).sum(), opnorm(s12 - s2 @ s1),
            abs(q1 * q2 - pj))


def chain_geometry(rng, n):
    """A Haar brickwork of n qubits with fv.bostelmann_preset's geometry
    stretched to n sites: probe 1 at (0, 0), probe 2 at (1, n - 2) and (2, 1),
    the observable at (3, n - 1)."""
    c = random_brickwork(rng, n, 3)
    return (c, qubit_probe("P1", [(0, 0)], rng),
            qubit_probe("P2", [(1, n - 2), (2, 1)], rng), cells([(3, n - 1)]))


def mixed_geometry(rng):
    """mixed_dim_instance with the qutrit probe Q first and P reading later."""
    c, p, q = mixed_dim_instance(rng)
    return c, q, p, cells([(3, 3)])


def bridge_geometry(rng):
    c = random_brickwork(rng, 5, 3)
    return (c, qubit_probe("P1", [(0, 0)], rng),
            qubit_probe("P2", [(1, 1), (1, 3)], rng), cells([(2, 4)]))


# a cone-rule skip happens in every geometry but the two where probe 2 relays
GEOMETRIES = {
    "chain5": lambda rng: chain_geometry(rng, 5),
    "chain6": lambda rng: chain_geometry(rng, 6),
    "chain7": lambda rng: chain_geometry(rng, 7),
    "mixed_dims_free_probes": mixed_geometry,
    "valid_preset": lambda rng: bostelmann_preset(True, rng),
    "broken_preset": lambda rng: bostelmann_preset(False, rng),
    "same_step_bridge": bridge_geometry,
}


@pytest.mark.parametrize("make", GEOMETRIES.values(), ids=GEOMETRIES)
def test_bostelmann_matches_dense_oracle(make):
    rng = np.random.default_rng(30)
    c, p1, p2, o3 = make(rng)
    seed = int(rng.integers(2 ** 31))
    rep = bostelmann_check(c, p1, p2, o3, rng=np.random.default_rng(seed),
                           enforce=False)
    residual, spread = dense_bostelmann(c, p1, p2, o3, np.random.default_rng(seed))
    assert abs(rep.residual - residual) <= 1e-12
    assert abs(rep.state_spread - spread) <= 1e-12
    assert rep.gates_applied + rep.gates_skipped > 0
    if not rep.failed:
        assert rep.residual == rep.state_spread == 0.0
        assert rep.gates_skipped > 0


COROLLARY6_CASES = {
    # (probe-1 cells, probe-2 cells) on a 5-site brickwork
    "chain": ([(0, 0)], [(1, 3), (2, 1)]),
    "probe2_earlier_spacelike": ([(2, 0)], [(1, 4)]),
    "same_step": ([(0, 0)], [(0, 4)]),
    "uncoupled_probe2": ([(1, 2)], []),
}


@pytest.mark.parametrize("k1, k2", COROLLARY6_CASES.values(), ids=COROLLARY6_CASES)
def test_corollary6_matches_dense_oracle(k1, k2):
    rng = np.random.default_rng(31)
    c = random_brickwork(rng, 5, 3)
    p1, p2 = qubit_probe("P1", k1, rng), qubit_probe("P2", k2, rng)
    omega = random_density(32, rng)
    b1, b2 = random_effect(2, rng), random_effect(2, rng)
    rep = corollary6_check(c, omega, p1, p2, b1, b2)
    want = dense_corollary6(c, omega, p1, p2, b1, b2)
    for got, ref in zip(rep[:3], want):
        assert abs(got - ref) <= 1e-12
    # S12 and S2 S1 differ in order only when a probe-2 gate precedes one of probe 1
    gates = len(k1) + len(k2)
    if k2 and min(n for n, _ in k2) < max(n for n, _ in k1):
        assert rep.gates_skipped < 2 * gates
    else:
        assert rep.factorization == 0.0 and rep.gates_skipped == 2 * gates
    assert rep.gates_applied > 0


def test_corollary6_mixed_dims_matches_dense_oracle():
    rng = np.random.default_rng(32)
    c, p, q = mixed_dim_instance(rng)
    late = replace(p, gates=p.gates[:1], region=cells([p.gates[0][0]]))
    omega = random_density(24, rng)
    for p1, p2 in [(q, late), (late, replace(q, gates=q.gates[1:],
                                              region=cells([q.gates[1][0]])))]:
        b1, b2 = random_effect(p1.dim, rng), random_effect(p2.dim, rng)
        rep = corollary6_check(c, omega, p1, p2, b1, b2)
        for got, ref in zip(rep[:3], dense_corollary6(c, omega, p1, p2, b1, b2)):
            assert abs(got - ref) <= 1e-12


def heisenberg_gate_by_gate(sm, op, commutators):
    """fv's cone rule one gate at a time; the dense commutator of each
    skipped dressed gate with the operator processed so far is recorded."""
    sp = sm.space
    for g in reversed(sm.gates):
        tally = Counter()
        after = fv._heisenberg(replace(sm, gates=(g,)), op, tally)
        if tally["gates_skipped"]:
            d = kron_embed(g.matrix, g.labels, sp)
            x = kron_embed(op.m, op.labels, sp)
            commutators.append(opnorm(d @ x - x @ d))
        op = after
    return op


@pytest.mark.parametrize("make", GEOMETRIES.values(), ids=GEOMETRIES)
def test_skipped_gates_commute_with_the_operator(make):
    rng = np.random.default_rng(33)
    c, p1, p2, o3 = make(rng)
    sm2 = scattering_map(c, p1, p2, coupled=(p2.label,))
    sm1 = scattering_map(c, p1, p2, coupled=(p1.label,))
    op = reduce(lambda a, b: fv._product(sm2.space, a, b), [
        fv._Local(*fv._dress_cell(sm2, cell, random_hermitian(c.dims[cell[1]], rng)),
                  frozenset([cell])) for cell in sorted(o3.cells)])
    commutators = []
    heisenberg_gate_by_gate(sm1, heisenberg_gate_by_gate(sm2, op, commutators),
                            commutators)
    pv = replace(p1, gates=tuple((cell, haar_unitary(c.dims[cell[1]] * p1.dim, rng))
                                 for cell, _ in p1.gates))
    heisenberg_gate_by_gate(scattering_map(c, pv, p2), op, commutators)
    assert max(commutators, default=0.0) <= 1e-12
    assert bool(commutators) is (make not in (mixed_geometry, bridge_geometry))


def test_bostelmann_stays_off_the_joint_space(monkeypatch):
    rng = np.random.default_rng(34)
    c, p1, p2, o3 = chain_geometry(rng, 7)
    joint = 2 ** 9
    operands, norms = [], []
    apply, norm = fv._apply_matrix, fv.opnorm

    def spy_apply(op, labels, sp, m):
        operands.append(len(m))
        return apply(op, labels, sp, m)

    def spy_norm(m):
        norms.append(len(m))
        return norm(m)
    monkeypatch.setattr(fv, "_apply_matrix", spy_apply)
    monkeypatch.setattr(fv, "opnorm", spy_norm)
    rep = bostelmann_check(c, p1, p2, o3, rng=rng)
    assert operands and max(operands) < joint
    assert rep.residual == rep.state_spread == 0.0
    assert rep.max_support_dim < joint
    cor = corollary6_check(c, random_density(2 ** 7, rng), p1, p2,
                           random_effect(2, rng), random_effect(2, rng))
    assert cor.factorization == 0.0 and cor.gates_skipped == 6
    assert all(n < joint for n in norms)


def test_bostelmann_nine_sites_is_exact_on_the_cones():
    rng = np.random.default_rng(35)
    c, p1, p2, o3 = chain_geometry(rng, 9)
    rep = bostelmann_check(c, p1, p2, o3, rng=rng)
    assert rep.failed == ()
    assert rep.residual == rep.state_spread == 0.0
    assert rep.gates_skipped > 0 and rep.max_support_dim <= 2 ** 5


def test_fv_path_forms_no_full_space_gate(monkeypatch):
    # gates act on their factor axes: no operator that is placed, or applied
    # to a state or product, has the joint dimension
    sizes = []
    apply, embed = fv._apply_matrix, fv._embed_matrix
    monkeypatch.setattr(fv, "_apply_matrix", lambda op, labels, sp, m: sizes.append(
        len(op)) or apply(op, labels, sp, m))
    monkeypatch.setattr(fv, "_embed_matrix", lambda op, labels, sp: sizes.append(
        len(op)) or embed(op, labels, sp))
    rng = np.random.default_rng(24)
    c = random_brickwork(rng, 5, 3)
    p1 = qubit_probe("P1", [(0, 0)], rng, free=(haar_unitary(2, rng),) * 3)
    p2 = qubit_probe("P2", [(1, 3), (2, 1)], rng)
    sm = scattering_map(c, p1, p2)
    eye = np.eye(sm.space.dim)
    assert opnorm(sm.theta(eye) - eye) < 1e-12
    assert opnorm(sm.theta_dual(eye) - eye) < 1e-12
    cell_operator(sm, (3, 4), SZ)
    induced_observable(sm, GROUND, probe="P2")
    assert bostelmann_check(c, p1, p2, cells([(3, 4)]), rng=rng).residual < 1e-12
    omega = random_density(32, rng)
    assert corollary6_check(c, omega, p1, p2, GROUND, GROUND).residual < 1e-12
    assert sizes and max(sizes) < sm.space.dim


def dense_evolved(sm, omega, effects, overrides=None):
    """tr_P[(1 (x) B) S (omega (x) sigma) S^dag] with the joint state a full
    matrix that every dressed gate conjugates from both sides."""
    overrides = overrides or {}
    c = sm.circuit
    keep = [p for p in sm.probes if p.label in sm.coupled or p.label in effects]
    sp = sm.space.restricted([*c.site_labels, *(p.label for p in keep)])
    rho = reduce(np.kron, [overrides.get(p.label, p.sigma) for p in keep], omega)
    for g in sm.gates:
        rho = fv._conjugate(dag(g.matrix), g.labels, sp, rho)
    for label, b in effects.items():
        rho = qops._apply_matrix(np.asarray(b, dtype=complex), [label], sp, rho)
    return _ptrace_matrix(rho, sp, list(c.site_labels))


def dense_selective(sm, omega, effects, overrides=None):
    num = dense_evolved(sm, omega, effects, overrides)
    num = (num + dag(num)) / 2
    prob = np.trace(num).real
    return num / prob, prob


def assert_same_update(got, want):
    assert opnorm(got[0] - want[0]) <= 1e-12
    assert abs(got[1] - want[1]) <= 1e-12


def rank2_qutrit(rng):
    v = haar_unitary(3, rng)
    return v @ np.diag([0.6, 0.4, 0.0]) @ dag(v)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_corollary6_updates_match_the_two_sided_oracle(n):
    rng = np.random.default_rng(40 + n)
    c, p1, p2, _ = chain_geometry(rng, n)
    omega = random_density(2 ** n, rng)
    b1, b2 = random_effect(2, rng), random_effect(2, rng)
    sm12 = scattering_map(c, p1, p2)
    sm1, sm2 = sm12._coupling("P1"), sm12._coupling("P2")
    r1, _ = fv._selective(sm1, omega, {"P1": b1}, DEFAULT)
    for sm, rho, effects in [(sm1, omega, {"P1": b1}), (sm2, r1, {"P2": b2}),
                             (sm12, omega, {"P1": b1, "P2": b2})]:
        assert_same_update(fv._selective(sm, rho, effects, DEFAULT),
                           dense_selective(sm, rho, effects))


@pytest.mark.parametrize("coupled", [(), ("P",), ("Q",), ("P", "Q")])
def test_updates_match_the_two_sided_oracle(coupled):
    # free probe motion, a rank-2 qutrit preparation, a sigma override, and Q
    # filtered whether or not it couples
    rng = np.random.default_rng(48)
    c, p, q = mixed_dim_instance(rng)
    q = replace(q, sigma=rank2_qutrit(rng))
    sm = scattering_map(c, p, q, coupled=coupled)
    omega = random_density(24, rng)
    assert opnorm(update_nonselective(sm, omega) - dense_evolved(sm, omega, {})) <= 1e-12
    b = random_effect(3, rng)
    for sigma in (None, rank2_qutrit(rng), random_density(3, rng)):
        got = update_selective(sm, omega, b, sigma=sigma, probe="Q")
        want = dense_selective(sm, omega, {"Q": b}, None if sigma is None else {"Q": sigma})
        assert_same_update(got, want)
    b = random_effect(2, rng)
    assert_same_update(update_selective(sm, omega, b, probe="P"),
                       dense_selective(sm, omega, {"P": b}))


def test_corollary6_never_forms_the_joint_state(monkeypatch):
    rng = np.random.default_rng(49)
    c, p1, p2, _ = chain_geometry(rng, 7)
    joint, d_sys = 2 ** 9, 2 ** 7
    shapes = []
    apply = fv._apply_matrix

    def spy(op, labels, sp, m):
        shapes.append(m.shape)
        return apply(op, labels, sp, m)
    monkeypatch.setattr(fv, "_apply_matrix", spy)
    rep = corollary6_check(c, random_density(d_sys, rng), p1, p2,
                           random_effect(2, rng), random_effect(2, rng))
    assert (joint, d_sys) in shapes           # the joint update's columns
    assert (joint, joint) not in shapes
    assert rep.residual <= 1e-12 and rep.factorization == 0.0


def spy_dressings(monkeypatch):
    """Counter of (probe, cell) over the coupling gates fv dresses from now on."""
    counts = Counter()
    back = fv._back_evolve

    def spy(sp, c, probes, labels, m, t):
        if len(labels) == 2:                  # (site, probe): a coupling gate
            counts[labels[1], (t, int(labels[0][1:]))] += 1
        return back(sp, c, probes, labels, m, t)
    monkeypatch.setattr(fv, "_back_evolve", spy)
    return counts


def test_each_coupling_gate_is_dressed_once_per_check(monkeypatch):
    rng = np.random.default_rng(50)
    c, p1, p2, o3 = chain_geometry(rng, 6)
    counts = spy_dressings(monkeypatch)
    corollary6_check(c, random_density(2 ** 6, rng), p1, p2,
                     random_effect(2, rng), random_effect(2, rng))
    assert counts == Counter({("P1", (0, 0)): 1, ("P2", (1, 4)): 1, ("P2", (2, 1)): 1})
    counts.clear()
    bostelmann_check(c, p1, p2, o3, rng=rng, extra_probe1=3)
    # probe 1 once for the check and once per Haar variant; probe 2 once
    assert counts == Counter({("P1", (0, 0)): 4, ("P2", (1, 4)): 1, ("P2", (2, 1)): 1})


@pytest.mark.parametrize("make", GEOMETRIES.values(), ids=GEOMETRIES)
def test_bostelmann_variant_maps_equal_fresh_maps(monkeypatch, make):
    # every map the check conjugates with holds, bit for bit, the gates that a
    # fresh scattering_map of its probes and coupling dresses
    rng = np.random.default_rng(51)
    c, p1, p2, o3 = make(rng)
    maps = []
    heisenberg = fv._heisenberg
    monkeypatch.setattr(fv, "_heisenberg",
                        lambda sm, op, tally: maps.append(sm) or heisenberg(sm, op, tally))
    bostelmann_check(c, p1, p2, o3, rng=rng, enforce=False)
    assert len(maps) == 2 + 2 + 3
    for sm in maps:
        fresh = scattering_map(c, *sm.probes, coupled=sm.coupled)
        assert [(g.cell, g.probe, g.labels) for g in sm.gates] == [
            (g.cell, g.probe, g.labels) for g in fresh.gates]
        assert all(np.array_equal(g.matrix, h.matrix) for g, h in zip(sm.gates, fresh.gates))


def test_bostelmann_broken_preset_keeps_its_bits():
    rng = np.random.default_rng(5)
    c, p1, p2, o3 = bostelmann_preset(False, rng)
    rep = bostelmann_check(c, p1, p2, o3, rng=rng, enforce=False)
    assert rep.residual == 1.0146052542725259
    assert rep.state_spread == 0.03006941232284155
