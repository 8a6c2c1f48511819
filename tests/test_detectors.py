"""Detector layer: perturbative split, scattering series, update rules."""
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from causalq.causal import cells, spacelike
from causalq.config import DEFAULT
from causalq.detectors import (
    DetectorSpec, MatrixPoly, PerturbativeState, bipartite_presets,
    box_profile, causal_factorization_check, current_microcausality,
    detector, detector_update_nonselective, detector_update_selective,
    dual_map_commutator, gaussian_profile, joint_space, joint_state,
    kraus_operators, kraus_series, monopole, nonselective_forms,
    point_detector, power_fit_slope, scattering_operator, scattering_series,
    sigma_operator, signal_noise_split, trace_norm, tripartite_order_count,
    _interaction_generators, _mean_moment)
from causalq.errors import (CausalqError, NotCausallyOrderable, NotHermitian,
                            NotSorkinType, OutOfWindow, ValidationError,
                            ZeroProbability)
from causalq.field import (FieldModel, SmearingFn, fock_backend, smeared_commutator,
                           smeared_wightman)
from causalq import qops
from causalq.qops import dag, opnorm, sigma_x, sigma_y
from causalq.random_ops import random_density
from causalq.serial import build_tripartite, load_document

from fock_oracles import embedded_generators, kron_embed

F12 = FieldModel(0.0, 12, steps=8)
FB12 = fock_backend(F12, [3, -3], 3)
F8 = FieldModel(0.0, 8)
FB8 = fock_backend(F8, [2, -2], 4)
F64 = FieldModel(0.0, 64)

GROUND = np.diag([0.0, 1.0]).astype(complex)  # the CLI's |1><1|, the upper level
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
PSI_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)

# kick / bridge / receiver configuration used throughout
KICK = SmearingFn({(0, 0): 1.0}, cells([(0, 0)], period=12))
BRIDGE = DetectorSpec("A", 0.8, 1.0, {1: 1.0, 3: 1.0},
                      {0: 1.0, 1: 0.6, 2: 0.3, 3: 0.1})
RECEIVER = DetectorSpec("B", 0.6, 1.0, {4: 1.0}, {6: 1.0})

TRIPARTITE_ORDER4 = 0.03675953676684895


def test_monopole_values():
    assert np.allclose(monopole(np.pi, 1.0), -sigma_x, atol=1e-12)
    assert np.allclose(monopole(np.pi / 2, 1.0), sigma_y, atol=1e-12)
    m = monopole(0.7, 2.3)
    assert opnorm(m - dag(m)) < 1e-12


@pytest.mark.parametrize("gap, t", [(0.8, 1.3), (0.6, -2.0), (1.0, 0.25)])
def test_monopole_is_heisenberg_picture_with_upper_level_one(gap, t):
    """mu(t) = e^{iHt} mu(0) e^{-iHt} for H = gap |1><1|: |1> is the upper
    level, so |1><1| is the excited state and |0><0| the ground state."""
    u = np.diag([1.0, np.exp(1j * gap * t)])  # e^{iHt}
    assert np.allclose(monopole(gap, t), u @ monopole(gap, 0.0) @ dag(u),
                       rtol=0, atol=1e-15)


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec("A", 1.0, -0.1, {0: 1.0}, {0: 1.0})
    with pytest.raises(ValueError):
        DetectorSpec("A", 1.0, 1.0, {0: 1.0}, {0: 1.0, 1: 1.0}, pointlike=True)
    d = DetectorSpec("A", 1.0, 1.0, {0: 1.0, 1: 0.0}, {2: 1.0, 3: 0.0})
    assert d.steps == (0,) and d.sites == (2,)


def test_detector_region_product():
    d = detector("A", 1.0, 0.5, 1, 2, 3, 4)
    reg = d.region(F12)
    assert reg.cells == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})
    assert reg.period == 12


def test_profiles():
    assert box_profile(0, 3) == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}
    g = gaussian_profile(5, 1.0, cut=2.0)
    assert g[5] == 1.0 and g[4] == g[6] and g[4] < 1.0
    assert point_detector("P", 1.0, 1.0, 0, 1, 7).pointlike


def test_microcausality_single_cell_trivial():
    d = DetectorSpec("D", 0.9, 0.5, {2: 1.0}, {0: 1.0})
    assert current_microcausality(d, F12) == (0, 0.0)


def test_microcausality_violations_counted():
    d = DetectorSpec("E", 1.3, 0.2, {0: 1.0, 1: 1.0}, {0: 1.0, 5: 0.5})
    count, worst = current_microcausality(d, F12)
    assert count == 2
    assert worst == pytest.approx(2 * abs(np.sin(1.3)) * 0.5, rel=1e-12)


def test_microcausality_gapless_detector_causal():
    d = DetectorSpec("E", 0.0, 0.2, {0: 1.0, 1: 1.0}, {0: 1.0, 5: 0.5})
    assert current_microcausality(d, F12) == (0, 0.0)


def test_perturbative_state_validation():
    eye = np.eye(2, dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValidationError, match="zeroth order must have unit trace"):
        PerturbativeState((2 * eye / 2 + eye,), z, z)
    with pytest.raises(ValidationError, match="order 1 term must be traceless"):
        PerturbativeState((eye / 2, eye), z, z)
    with pytest.raises(NotHermitian, match="order 1 term is not Hermitian"):
        PerturbativeState((eye / 2, np.array([[0, 1], [0, 0]], dtype=complex)), z, z)
    ps = PerturbativeState((eye / 2, z, z), z, z)
    assert np.allclose(ps.evaluate(), eye / 2)


def test_spacelike_presets_signal_vanishes():
    for p in bipartite_presets(F64):
        if not p["spacelike"]:
            continue
        ps = signal_noise_split(p["a"], p["b"], F64, p["rho_a"], p["rho_b"])
        assert trace_norm(ps.signal) < 1e-12, p["tag"]


def test_timelike_presets_signal_nonzero():
    tags = set()
    for p in bipartite_presets(F64):
        if p["spacelike"]:
            continue
        ps = signal_noise_split(p["a"], p["b"], F64, p["rho_a"], p["rho_b"])
        assert trace_norm(ps.signal) > 1e-3, p["tag"]
        tags.add(p["tag"])
    assert len(tags) == 5


def test_preset_flags_match_geometry():
    for p in bipartite_presets(F64):
        geo = spacelike(p["a"].region(F64), p["b"].region(F64))
        assert geo == p["spacelike"], p["tag"]


def test_sigma_reproduces_signal_everywhere():
    for p in bipartite_presets(F64):
        ps = signal_noise_split(p["a"], p["b"], F64, p["rho_a"], p["rho_b"])
        sg = sigma_operator(p["a"], p["b"], F64, p["rho_a"])
        assert opnorm(sg - dag(sg)) < 1e-12
        com = -1j * (sg @ p["rho_b"] - p["rho_b"] @ sg)
        assert trace_norm(com - ps.signal) < 1e-12, p["tag"]


def _slice(f, d, n):
    """Detector d's spatial smearing on step n as a field smearing."""
    w = {(n, s): v for s, v in d.smearing.items()}
    return SmearingFn(w, cells(w, period=f.sites))


def _signal_double_loop(a, b, f, rho_a, rho_b, modes=None):
    """Signal term summed directly as -lA lB dt^2 sum w chiB chiA mA K [muB, rhoB],
    with K the smeared commutator between the two detectors' step slices."""
    dt = f.dt
    sig = np.zeros((2, 2), dtype=complex)
    for n, cb in b.switching.items():
        com_mu = monopole(b.gap, n * dt) @ rho_b - rho_b @ monopole(b.gap, n * dt)
        acc = 0.0j
        for np_, ca in a.switching.items():
            if n < np_:
                continue
            weight = 0.5 if n == np_ else 1.0
            acc += weight * cb * ca * _mean_moment(rho_a, a.gap, np_ * dt) \
                * smeared_commutator(f, _slice(f, b, n), _slice(f, a, np_),
                                     modes) / (dt * dt)
        sig += acc * com_mu
    return sig * (-a.coupling * b.coupling * dt * dt)


def test_signal_matches_double_loop_reference():
    for p in bipartite_presets(F64):
        ps = signal_noise_split(p["a"], p["b"], F64, p["rho_a"], p["rho_b"])
        ref = _signal_double_loop(p["a"], p["b"], F64, p["rho_a"], p["rho_b"])
        assert trace_norm(ps.signal - ref) < 1e-12, p["tag"]
    a = DetectorSpec("A", 0.8, 0.3, {1: 1.0, 2: 0.7}, {0: 1.0, 1: 0.6})
    b = DetectorSpec("B", 0.6, 0.3, {2: 0.9, 3: 1.0}, {5: 1.0, 6: 0.5})
    ps = signal_noise_split(a, b, F12, PLUS, GROUND, modes=[3, -3])
    ref = _signal_double_loop(a, b, F12, PLUS, GROUND, modes=[3, -3])
    assert trace_norm(ps.signal - ref) < 1e-12
    assert trace_norm(ref) > 1e-4


def _noise_double_loop(b, f, rho_b, modes=None):
    """Noise term summed pair by pair with W the smeared Wightman function
    between B's step slices:
    -lB^2 dt^2 sum_{n >= n'} w chiB chiB' (W (mu mu' rho - mu' rho mu)
                                          + W* (rho mu' mu - mu rho mu'))."""
    dt = f.dt
    noise = np.zeros((2, 2), dtype=complex)
    for n, cb in b.switching.items():
        mu_n = monopole(b.gap, n * dt)
        for np_, cb2 in b.switching.items():
            if n < np_:
                continue
            weight = 0.5 if n == np_ else 1.0
            wf = smeared_wightman(f, _slice(f, b, n), _slice(f, b, np_),
                                  modes) / (dt * dt)
            mu_p = monopole(b.gap, np_ * dt)
            noise += -weight * cb * cb2 * (
                wf * (mu_n @ mu_p @ rho_b - mu_p @ rho_b @ mu_n)
                + np.conj(wf) * (rho_b @ mu_p @ mu_n - mu_n @ rho_b @ mu_p))
    return noise * b.coupling ** 2 * dt * dt


def test_noise_matches_double_loop_reference():
    a = DetectorSpec("A", 0.8, 0.3, {1: 1.0, 2: 0.7}, {0: 1.0, 1: 0.6})
    b = DetectorSpec("B", 0.6, 0.3, {2: 0.9, 3: 1.0, 5: 0.4}, {5: 1.0, 6: 0.5})
    mixed = np.array([[0.3, 0.35], [0.35, 0.7]], dtype=complex)
    kept = FieldModel(0.0, 16, steps=8, drop_zero_mode=False)
    cases = [(p["a"], p["b"], F64, p["rho_b"], None) for p in bipartite_presets(F64)]
    cases += [(a, b, F12, mixed, [3, -3]), (a, b, kept, mixed, None)]
    for a_, b_, f, rho_b, modes in cases:
        ps = signal_noise_split(a_, b_, f, PLUS, rho_b, modes=modes)
        ref = _noise_double_loop(b_, f, rho_b, modes)
        assert trace_norm(ref) > 1e-6
        assert trace_norm(ps.noise - ref) < 1e-12
    # the regulated zero mode enters the noise term
    dropped = signal_noise_split(a, b, FieldModel(0.0, 16, steps=8), PLUS, mixed)
    kept_split = signal_noise_split(a, b, kept, PLUS, mixed)
    assert trace_norm(kept_split.noise - dropped.noise) > 1e-3
    assert trace_norm(kept_split.signal - dropped.signal) < 1e-12


def test_split_refuses_invalid_detector_states():
    p = bipartite_presets(F64)[0]
    with pytest.raises(ValueError, match="positive semidefinite"):
        signal_noise_split(p["a"], p["b"], F64, p["rho_a"], np.diag([1.2, -0.2]))
    with pytest.raises(NotHermitian):
        signal_noise_split(p["a"], p["b"], F64, np.array([[0.5, 0.9], [0.1, 0.5]]),
                           p["rho_b"])


def test_split_refuses_steps_outside_window():
    f = FieldModel(0.0, 8, steps=2)
    a = detector("A", 0.8, 0.5, 0, 1, 0, 1)
    b = detector("B", 0.6, 0.4, 6, 6, 4, 5)
    for modes in (None, [2, -2]):
        with pytest.raises(OutOfWindow):
            signal_noise_split(a, b, f, PLUS, GROUND, modes=modes)


def test_detector_tolerances_are_read():
    p = bipartite_presets(F64)[0]
    off = p["rho_b"] + np.diag([1e-13, 0.0])  # trace 1 + 1e-13
    signal_noise_split(p["a"], p["b"], F64, p["rho_a"], off)
    with pytest.raises(ValueError, match="unit trace"):
        signal_noise_split(p["a"], p["b"], F64, p["rho_a"], off,
                           tol=DEFAULT.replace(trace=1e-14))
    _, s1, rho_f = _single_detector_setup()
    rho_joint = np.kron(np.outer(PSI_PLUS, PSI_PLUS.conj()), rho_f)
    excited = np.array([[1, 0], [0, 0]], dtype=complex)
    _, w = detector_update_selective(rho_joint, s1, excited)
    with pytest.raises(ZeroProbability):
        detector_update_selective(rho_joint, s1, excited,
                                  tol=DEFAULT.replace(probability=w))
    # an incomplete readout basis makes the Kraus sum miss one outcome
    partial = [np.array([1.0, 0.0], dtype=complex)]
    with pytest.raises(CausalqError, match="disagree"):
        detector_update_nonselective(rho_f, s1, PSI_PLUS, basis=partial)
    detector_update_nonselective(rho_f, s1, PSI_PLUS, basis=partial,
                                 tol=DEFAULT.replace(operator=10.0))


def test_decoupled_sender_gives_no_signal():
    p = bipartite_presets(F64)[5]
    a0 = DetectorSpec(p["a"].label, p["a"].gap, 0.0, p["a"].switching,
                      p["a"].smearing)
    ps = signal_noise_split(a0, p["b"], F64, p["rho_a"], p["rho_b"])
    assert trace_norm(ps.signal) == 0.0
    assert trace_norm(ps.noise) > 1e-6  # B's own noise survives


def test_perturbative_split_matches_exact_backend():
    # third order vanishes by vacuum parity, so the residual is quartic
    lams = np.geomspace(0.1, 0.4, 4)
    diffs = []
    for lam in lams:
        a = DetectorSpec("A", 0.8, lam, {1: 1.0, 2: 0.7}, {0: 1.0, 1: 0.6})
        b = DetectorSpec("B", 0.6, lam, {2: 0.9, 3: 1.0}, {5: 1.0, 6: 0.5})
        s = scattering_operator([a, b], FB12).matrix
        rho = s @ joint_state(FB12, [PLUS, GROUND]) @ dag(s)
        fdim = FB12.space.dim
        red_b = np.einsum("aifajf->ij", rho.reshape(2, 2, fdim, 2, 2, fdim))
        ps = signal_noise_split(a, b, F12, PLUS, GROUND, modes=[3, -3])
        diffs.append(trace_norm(red_b - ps.evaluate()))
    slope = power_fit_slope(lams, diffs)
    assert 3.5 < slope < 4.5
    assert diffs[0] < 5e-5


def test_sigma_identity_on_mode_backend():
    a = DetectorSpec("A", 0.8, 0.3, {1: 1.0, 2: 0.7}, {0: 1.0, 1: 0.6})
    b = DetectorSpec("B", 0.6, 0.3, {2: 0.9, 3: 1.0}, {5: 1.0, 6: 0.5})
    ps = signal_noise_split(a, b, F12, PLUS, GROUND, modes=[3, -3])
    sg = sigma_operator(a, b, F12, PLUS, modes=[3, -3])
    com = -1j * (sg @ GROUND - GROUND @ sg)
    assert trace_norm(com - ps.signal) < 1e-12
    assert trace_norm(ps.signal) > 1e-4


def test_scattering_operator_unitary():
    a = DetectorSpec("A", 0.7, 0.4, {1: 1.0, 2: 0.8}, {0: 1.0, 1: 0.5})
    s = scattering_operator([a], FB12).matrix
    assert opnorm(dag(s) @ s - np.eye(s.shape[0])) < 1e-12


def test_scattering_series_converges_to_exact():
    a = DetectorSpec("A", 0.7, 0.3, {1: 1.0, 2: 0.8}, {0: 1.0, 1: 0.5})
    exact = scattering_operator([a], FB12).matrix
    ser = scattering_series([a], FB12, 8).evaluate([a.coupling])
    assert opnorm(exact - ser) < 1e-8


def test_matrix_poly_exp_matches_expm():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    g = 0.1 * (g - dag(g))
    poly = MatrixPoly.constant(np.eye(5), 1, 12).exp_apply([(0, ["x"], g)],
                                                           qops.space(("x", 5)))
    assert opnorm(poly.evaluate([1.0]) - expm(g)) < 1e-10


def test_matrix_poly_truncates_total_degree():
    eye = np.eye(2)
    p = MatrixPoly(2, 2, 2, {(1, 0): eye, (0, 1): eye})
    q = p @ p @ p
    assert all(sum(e) <= 2 for e in q.terms)


def test_factorization_strictly_ordered():
    a = DetectorSpec("A", 0.7, 0.4, {1: 1.0, 2: 0.8}, {0: 1.0, 1: 0.5})
    b = DetectorSpec("B", 0.5, 0.3, {4: 1.0}, {0: 1.0})
    res = causal_factorization_check(a, b, FB8)
    assert res.residual < 1e-12
    assert res.commutation is None


def test_factorization_spacelike_commutes():
    a = DetectorSpec("A", 0.7, 0.4, {3: 1.0}, {0: 1.0, 2: 0.6})
    b = DetectorSpec("B", 0.5, 0.3, {3: 1.0}, {4: 1.0, 6: 0.7})
    assert spacelike(a.region(F8), b.region(F8))
    res = causal_factorization_check(a, b, FB8)
    assert res.residual < 1e-12
    assert res.commutation is not None and res.commutation < 1e-12


def _embedded_factorization(a, b, fb):
    """causal_factorization_check with both one-detector propagators placed
    on the joint space by the kron oracle and multiplied as d x d matrices."""
    sp = joint_space(fb, [a, b])
    s_ab = scattering_operator([a, b], fb).matrix
    sa, sb = (kron_embed(scattering_operator([d], fb).matrix,
                         [d.label, *fb.space.labels], sp) for d in (a, b))
    comm = opnorm(sa @ sb - sb @ sa) if spacelike(a.region(F12), b.region(F12)) else None
    return opnorm(s_ab - sb @ sa), comm


@pytest.mark.parametrize("modes, cutoff, b_steps, b_site", [
    ([3, -3, 5], 1, {2: 1.0, 3: 0.6}, 6), ([3, -3, 5], 2, {3: 1.0, 4: 1.0}, 6),
    ([2, -5], 2, {2: 1.0, 3: 0.6}, 6), ([2, -5], 2, {3: 1.0, 4: 0.4}, 2)])
def test_factorization_matches_embed_and_multiply(modes, cutoff, b_steps, b_site):
    # truncation breaks microcausality here, so residuals are far from zero;
    # the last B is in A's future and reports no commutation
    fb = fock_backend(F12, modes, cutoff)
    a = DetectorSpec("A", 0.7, 0.9, {2: 1.0, 3: 0.8}, {0: 1.0, 1: 0.5})
    b = DetectorSpec("B", 0.5, 1.1, b_steps, {b_site: 1.0})
    got = causal_factorization_check(a, b, fb)
    want = _embedded_factorization(a, b, fb)
    assert abs(got.residual - want[0]) <= 1e-12 and want[0] > 1e-2
    if want[1] is None:
        assert got.commutation is None
    else:
        assert abs(got.commutation - want[1]) <= 1e-12 and want[1] > 1e-2


def test_factorization_rejects_reversed_order():
    a = DetectorSpec("A", 0.7, 0.4, {1: 1.0, 2: 0.8}, {0: 1.0, 1: 0.5})
    b = DetectorSpec("B", 0.5, 0.3, {4: 1.0}, {0: 1.0})
    with pytest.raises(NotCausallyOrderable):
        causal_factorization_check(b, a, FB8)


def test_tripartite_extended_bridge_orders():
    rep = tripartite_order_count(KICK, BRIDGE, RECEIVER, FB12, sigma_x,
                                 GROUND, GROUND, 4)
    assert rep[1] < 1e-12 and rep[2] < 1e-12 and rep[3] < 1e-12
    assert rep[4] == pytest.approx(TRIPARTITE_ORDER4, rel=1e-9)


def test_tripartite_pointlike_control_silent():
    regions = (KICK.region, BRIDGE.region(F12), RECEIVER.region(F12))
    p = DetectorSpec("A", 0.8, 1.0, {1: 1.0, 3: 1.0}, {3: 1.0}, pointlike=True)
    rep = tripartite_order_count(KICK, p, RECEIVER, FB12, sigma_x,
                                 GROUND, GROUND, 4, regions=regions)
    assert all(v < 1e-12 for v in rep.values())


def test_tripartite_no_bridge_control_silent():
    rep = tripartite_order_count(KICK, None, RECEIVER, FB12, sigma_x,
                                 None, GROUND, 4)
    assert all(v < 1e-12 for v in rep.values())


def test_tripartite_rejects_non_sorkin_geometry():
    b_near = DetectorSpec("B", 0.6, 1.0, {4: 1.0}, {2: 1.0})  # inside the cone
    with pytest.raises(NotSorkinType):
        tripartite_order_count(KICK, BRIDGE, b_near, FB12, sigma_x,
                               GROUND, GROUND, 4)


def test_tripartite_rejects_support_outside_region():
    regions = (KICK.region, BRIDGE.region(F12), RECEIVER.region(F12))
    stray = DetectorSpec("A", 0.8, 1.0, {1: 1.0, 3: 1.0}, {5: 1.0},
                         pointlike=True)
    with pytest.raises(ValueError):
        tripartite_order_count(KICK, stray, RECEIVER, FB12, sigma_x,
                               GROUND, GROUND, 4, regions=regions)


def test_tripartite_rejects_detector_before_kick():
    early = DetectorSpec("A", 0.8, 1.0, {0: 1.0, 3: 1.0}, {0: 1.0, 3: 0.1})
    with pytest.raises(ValueError):
        tripartite_order_count(KICK, early, RECEIVER, FB12, sigma_x,
                               GROUND, GROUND, 4)


def _power_exp(gens, degree):
    """sum_k X^k / k! for X = sum_v lambda_v G_v, formed with MatrixPoly
    products only (independent of MatrixPoly.exp_apply)."""
    dim = gens[0][1].shape[0]
    x = MatrixPoly(3, dim, degree)
    for v, g in gens:
        e = tuple(int(i == v) for i in range(3))
        x.terms[e] = x.terms.get(e, 0) + g
    power = MatrixPoly.constant(np.eye(dim), 3, degree)
    terms, fact = dict(power.terms), 1.0
    for k in range(1, degree + 1):
        power, fact = power @ x, fact * k
        for e, m in power.terms.items():
            terms[e] = terms[e] + m / fact if e in terms else m / fact
    return MatrixPoly(3, dim, degree, terms)


def _dense_order_count(kick, a, b, fb, d_b, rho_a, rho_b, max_order):
    """The d x d oracle: rho = out @ rho0 @ out^dag as a density matrix
    series, then tr(D_B rho_e) for every exponent with a kick power."""
    dets = [b] if a is None else [a, b]
    offset = 2 if a is None else 1
    sp = joint_space(fb, dets)
    gen_k = kron_embed(fb.phi_smeared(kick).matrix, fb.space.labels, sp)
    out = _power_exp([(0, 1j * gen_k)], max_order)
    for _, gens in sorted(embedded_generators(dets, fb, sp).items()):
        out = _power_exp([(v + offset, g) for v, g in gens], max_order) @ out
    states = [rho_b] if a is None else [rho_a, rho_b]
    rho0 = MatrixPoly.constant(joint_state(fb, states), 3, max_order)
    rho = out @ rho0 @ out.dagger()
    db = kron_embed(np.asarray(d_b, dtype=complex), [b.label], sp)
    report = {k: 0.0 for k in range(1, max_order + 1)}
    for e, m in rho.terms.items():
        if e[0]:
            report[sum(e)] = max(report[sum(e)], abs(np.trace(db @ m)))
    return report


def _tripartite_cases():
    # three modes break microcausality at small cutoffs, so every order table
    # has nonzero entries to compare (on FB12 orders below 4 vanish)
    rng = np.random.default_rng(2108)
    backends = [fock_backend(F12, [3, -3, 5], c) for c in (1, 2, 3)]
    hermitian = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    observables = [sigma_x, sigma_y, hermitian + dag(hermitian)]
    cases = []
    for k, order in enumerate([2, 3, 4, 5, 6, 4, 3, 5]):
        g = float(rng.uniform(0.5, 1.5))
        kick = SmearingFn({(0, 0): g}, cells([(0, 0)], period=12))
        bridge = None if k % 3 == 2 else BRIDGE
        rho_a = None if bridge is None else random_density(2, rng, rank=1 + k % 2)
        cases.append((kick, bridge, backends[order < 5], observables[k % 3], rho_a,
                      random_density(2, rng), order))
    cases.append((KICK, BRIDGE, backends[2], sigma_x, random_density(2, rng),
                  random_density(2, rng), 4))  # d = 256
    return cases


@pytest.mark.parametrize("kick, bridge, fb, d_b, rho_a, rho_b, order",
                         _tripartite_cases())
def test_tripartite_columns_match_dense_oracle(kick, bridge, fb, d_b, rho_a,
                                               rho_b, order):
    got = tripartite_order_count(kick, bridge, RECEIVER, fb, d_b, rho_a, rho_b,
                                 order)
    want = _dense_order_count(kick, bridge, RECEIVER, fb, d_b, rho_a, rho_b, order)
    assert set(got) == set(want) == set(range(1, order + 1))
    assert max(abs(got[k] - want[k]) for k in got) <= 1e-12
    assert max(want.values()) > 1e-3  # the comparison is not between zeros


def _generator_cases():
    # (detectors, modes, cutoff): 1-2 detectors, 1-3 modes, cutoffs 1-4,
    # box and truncated-Gaussian switchings and smearings
    rng = np.random.default_rng(2793)
    shapes = [(1, 1, 1), (2, 1, 4), (1, 2, 3), (2, 2, 2), (1, 3, 4), (2, 3, 1),
              (2, 2, 4), (1, 3, 2)]
    cases = []
    for k, (ndet, nmodes, cutoff) in enumerate(shapes):
        modes = rng.choice([1, 2, 3, 4, 5, -1, -2, -3, -4, -5], nmodes, replace=False)
        dets = []
        for label in "AB"[:ndet]:
            gap, lo, site = rng.uniform(0.1, 1.5), int(rng.integers(1, 5)), int(rng.integers(3, 8))
            if k % 2:
                dets.append(DetectorSpec(label, gap, 1.0,
                                         gaussian_profile(lo + 1, 0.7, cut=2.0),
                                         gaussian_profile(site, 0.8, cut=3.0)))
            else:
                dets.append(DetectorSpec(label, gap, 1.0, box_profile(lo, lo + 2),
                                         box_profile(site - 1, site + 1, 0.6)))
        cases.append((dets, fock_backend(F12, modes.tolist(), cutoff)))
    return cases


@pytest.mark.parametrize("dets, fb", _generator_cases())
def test_interaction_generators_match_embedded_product(dets, fb):
    sp = joint_space(fb, dets)
    got = _interaction_generators(dets, fb)
    want = embedded_generators(dets, fb, sp)
    assert got.keys() == want.keys()
    for n in got:
        assert [v for v, _, _ in got[n]] == [v for v, _ in want[n]]
        assert max(opnorm(kron_embed(g, labels, sp) - h)
                   for (_, labels, g), (_, h) in zip(got[n], want[n])) <= 1e-12


def test_interaction_generators_place_each_step_once(monkeypatch):
    # each step's gate is formed once on its own factors; nothing is placed
    # on the joint space and no ladder operator is embedded again
    fb = fock_backend(F12, [3, -3, 5], 2)

    def refuse(*args):
        raise AssertionError("operator placed while forming the gates")
    for name in ("causalq.detectors._embed_matrix", "causalq.detectors._apply_matrix",
                 "causalq.qops._apply_matrix", "causalq.field._embed_matrix"):
        monkeypatch.setattr(name, refuse)
    by_step = _interaction_generators([BRIDGE, RECEIVER], fb)
    gates = [gate for n in sorted(by_step) for gate in by_step[n]]
    modes = ["m3", "m-3", "m5"]
    assert [(v, list(labels)) for v, labels, _ in gates] == (
        [(0, ["A", *modes])] * 2 + [(1, ["B", *modes])])
    assert all(g.shape == (2 * fb.space.dim,) * 2 for _, _, g in gates)


def test_tripartite_table_calls_no_lattice_kernel(monkeypatch):
    doc = load_document(Path(__file__).resolve().parents[1] / "presets"
                        / "tripartite_orders.json")
    kick, bridge, receiver, fb, order = build_tripartite(doc)

    def refuse(*args):
        raise AssertionError("full-lattice two-point kernel evaluated")
    for name in ("_wightman_part", "_wave_kernel"):
        monkeypatch.setattr(f"causalq.field.{name}", refuse)
    rep = tripartite_order_count(kick, bridge, receiver, fb, sigma_x, GROUND, GROUND, order)
    assert abs(rep[4] - TRIPARTITE_ORDER4) < 1e-12


@pytest.mark.parametrize("mass", [0.0, 0.3])
def test_pair_split_builds_no_window_tables(mass):
    f = FieldModel(mass, 1024, steps=1024)
    a = DetectorSpec("A", 0.8, 0.5, {1: 1.0, 2: 1.0}, {0: 1.0, 1: 1.0})
    b = DetectorSpec("B", 0.6, 0.4, {900: 1.0}, {40: 1.0, 41: 1.0})
    tracemalloc.start()
    try:
        ps = signal_noise_split(a, b, f, PLUS, GROUND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace_norm(ps.signal) > 0
    assert peak < 4 * 2 ** 20      # one (2 steps + 1) x sites table is 33 MB


def test_tripartite_places_gates_on_their_factors(monkeypatch):
    # two detectors: no operator of the joint dimension is formed, and the
    # kernel runs at most once per gate per degree (kick and couplings) plus
    # once for D_B on all columns
    fb = fock_backend(F12, [3, -3, 5], 2)
    joint, order = joint_space(fb, [BRIDGE, RECEIVER]).dim, 4
    sizes = []
    apply = qops._apply_matrix

    def spy(op, labels, sp, m):
        sizes.append(len(op))
        return apply(op, labels, sp, m)

    def refuse(*args):
        raise AssertionError("operator placed on the joint space")
    monkeypatch.setattr("causalq.detectors._apply_matrix", spy, raising=False)
    monkeypatch.setattr("causalq.detectors._embed_matrix", refuse)
    rep = tripartite_order_count(KICK, BRIDGE, RECEIVER, fb, sigma_x, PLUS, PLUS, order)
    gates = 1 + sum(map(len, _interaction_generators([BRIDGE, RECEIVER], fb).values()))
    assert sizes and max(sizes) < joint
    assert len(sizes) <= gates * order + 1
    assert max(rep.values()) > 1e-3


def test_tripartite_forms_no_density_series(monkeypatch):
    # with mixed rho_A and rho_B (r = 4 columns of W), every array the table
    # contracts is the T series terms side by side, at most T * 4 columns
    # wide; no series product and no d x d series is formed
    fb = fock_backend(F12, [3, -3, 5], 3)
    d, order = joint_space(fb, [BRIDGE, RECEIVER]).dim, 4
    terms = math.comb(order + 3, 3)  # exponents of total <= order in 3 variables
    shapes = []
    apply = qops._apply_matrix

    def spy(op, labels, sp, m):
        shapes.append(m.shape)
        return apply(op, labels, sp, m)

    def refuse(*args):
        raise AssertionError("MatrixPoly series product formed")
    monkeypatch.setattr("causalq.detectors._apply_matrix", spy)
    monkeypatch.setattr(MatrixPoly, "__matmul__", refuse)
    rng = np.random.default_rng(6)
    tracemalloc.start()
    try:
        rep = tripartite_order_count(KICK, BRIDGE, RECEIVER, fb, sigma_x,
                                     random_density(2, rng), random_density(2, rng), order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes[-1] == (d, terms * 4)  # D_B on all terms, then the Gram product
    assert all(rows == d and cols <= terms * 4 for rows, cols in shapes)
    assert peak < terms * d * d * 16 / 4  # a quarter of one d x d series
    assert max(rep.values()) > 1e-3


def test_tripartite_refuses_early_switching_before_any_series(monkeypatch):
    # the step order is checked before the kick series is built
    calls = []
    monkeypatch.setattr(MatrixPoly, "exp_apply", lambda *a: calls.append(a))
    early = DetectorSpec("A", 0.8, 1.0, {0: 1.0, 3: 1.0}, {0: 1.0, 3: 0.1})
    late_kick = SmearingFn({(4, 0): 1.0}, cells([(4, 0)], period=12))
    with pytest.raises(ValueError, match="follow the kick step"):
        tripartite_order_count(KICK, early, RECEIVER, FB12, sigma_x, GROUND, GROUND, 4)
    with pytest.raises(ValueError, match="follow the kick step"):
        tripartite_order_count(late_kick, None, RECEIVER, FB12, sigma_x, None, GROUND, 4)
    assert calls == []


def _product_oracle(monkeypatch, kick, a, b, fb, d_b, rho_a, rho_b, order):
    """The table, and the same column series contracted as the MatrixPoly
    product (U W)^dag @ (D_B U W) with one trace per exponent; also the
    number r of columns of W."""
    series = []
    exp_apply = MatrixPoly.exp_apply

    def recorded(self, *args):
        series.append(exp_apply(self, *args))
        return series[-1]
    monkeypatch.setattr(MatrixPoly, "exp_apply", recorded)
    got = tripartite_order_count(kick, a, b, fb, d_b, rho_a, rho_b, order)
    monkeypatch.undo()
    cols = series[-1]
    sp = joint_space(fb, [b] if a is None else [a, b])
    db = kron_embed(np.asarray(d_b, dtype=complex), [b.label], sp)
    ydb = MatrixPoly(3, sp.dim, order, {e: db @ m for e, m in cols.terms.items()})
    want = {k: 0.0 for k in range(1, order + 1)}
    for e, m in (cols.dagger() @ ydb).terms.items():
        if e[0]:
            want[sum(e)] = max(want[sum(e)], abs(complex(np.trace(m))))
    return got, want, next(iter(cols.terms.values())).shape[1]


def _gram_cases():
    # (modes, cutoff, rank of rho_A or 0 for no bridge, rank of rho_B, order):
    # 1-3 modes, cutoffs 1-4, orders 2-6, with and without the bridge; pure
    # states are diagonal or |+><+|, whose eigh gives exact zeros, so W has
    # r = 1, 2 or 4 columns
    rng = np.random.default_rng(1302)
    pure = [GROUND, PLUS, np.diag([1.0, 0.0]).astype(complex)]
    shapes = [([3, -3, 5], 1, 1, 1, 2), ([3, -3, 5], 2, 1, 2, 3), ([2, -1], 1, 2, 2, 4),
              ([2], 4, 0, 2, 5), ([3, -3], 3, 1, 2, 6), ([1, -2, 4], 2, 0, 1, 6),
              ([3, -3, 5], 4, 2, 2, 3), ([4, -1], 4, 2, 2, 6), ([5], 3, 0, 1, 4),
              ([1], 2, 1, 1, 5)]
    hermitian = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    observables = [sigma_x, sigma_y, hermitian + dag(hermitian)]
    cases = []
    for k, (modes, cutoff, ra, rb, order) in enumerate(shapes):
        kick = SmearingFn({(0, 0): float(rng.uniform(0.5, 1.5))}, cells([(0, 0)], period=12))
        rho_a = None if not ra else pure[(k + 1) % 3] if ra == 1 else random_density(2, rng)
        rho_b = pure[k % 3] if rb == 1 else random_density(2, rng)
        r = (ra or 1) * rb
        name = "_".join(map(str, modes)) + f"-c{cutoff}-o{order}-r{r}"
        cases.append(pytest.param(kick, BRIDGE if ra else None,
                                  fock_backend(F12, modes, cutoff), observables[k % 3],
                                  rho_a, rho_b, order, r,
                                  id=name if ra else name + "-nobridge"))
    return cases


@pytest.mark.parametrize("kick, bridge, fb, d_b, rho_a, rho_b, order, r", _gram_cases())
def test_gram_table_matches_series_product(monkeypatch, kick, bridge, fb, d_b,
                                           rho_a, rho_b, order, r):
    got, want, width = _product_oracle(monkeypatch, kick, bridge, RECEIVER, fb, d_b,
                                       rho_a, rho_b, order)
    assert width == r
    assert set(got) == set(want) == set(range(1, order + 1))
    assert max(abs(got[k] - want[k]) for k in got) <= 1e-12
    assert max(want.values()) > 1e-6  # the comparison is not between zeros


def test_matrix_poly_exp_apply_matches_exp_linear_product():
    rng = np.random.default_rng(7)
    sp = qops.space(("x", 2), ("y", 3))
    for labels in (["x", "y"], ["y"], ["y", "x"], ["x"]):
        d = int(np.prod([sp.dim_of(l) for l in labels]))
        gates = [(v, labels, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                 for v in (0, 2, 2)]
        cols = MatrixPoly(3, 6, 4, {(0, 0, 0): rng.normal(size=(6, 2)),
                                    (0, 1, 0): rng.normal(size=(6, 2))})
        got = cols.exp_apply(gates, sp)
        # exp of whole-space generators placed by the kron oracle, times cols
        full = [(v, sp.labels, kron_embed(g, labels, sp)) for v, _, g in gates]
        want = MatrixPoly.constant(np.eye(6), 3, 4).exp_apply(full, sp) @ cols
        assert set(got.terms) == set(want.terms)
        assert all(opnorm(got.terms[e] - want.terms[e]) < 1e-12 for e in got.terms)


@pytest.mark.parametrize("rho_a, rho_b, error", [
    (np.diag([1.2, -0.2]), GROUND, ValueError),
    (GROUND, np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitian),
    (GROUND, np.diag([0.5, 0.6]), ValueError),
], ids=["rho_a_negative", "rho_b_not_hermitian", "rho_b_trace"])
def test_tripartite_refuses_non_density_states(rho_a, rho_b, error):
    with pytest.raises(error, match="rho_a" if rho_a is not GROUND else "rho_b"):
        tripartite_order_count(KICK, BRIDGE, RECEIVER, FB12, sigma_x,
                               rho_a, rho_b, 4)


def _single_detector_setup(lam=0.5):
    d = DetectorSpec("D", 0.9, lam, {2: 1.0}, {0: 1.0})
    s1 = scattering_operator([d], FB12).matrix
    vac = np.zeros(FB12.space.dim, dtype=complex)
    vac[0] = 1.0
    return d, s1, np.outer(vac, vac.conj())


def test_kraus_completeness():
    _, s1, _ = _single_detector_setup()
    ms = kraus_operators(s1, PSI_PLUS)
    total = sum(dag(m) @ m for m in ms)
    assert opnorm(total - np.eye(FB12.space.dim)) < 1e-12


def test_kraus_custom_basis():
    _, s1, rho_f = _single_detector_setup()
    had = [np.array([1, 1], dtype=complex) / np.sqrt(2),
           np.array([1, -1], dtype=complex) / np.sqrt(2)]
    ms = kraus_operators(s1, PSI_PLUS, basis=had)
    total = sum(dag(m) @ m for m in ms)
    assert opnorm(total - np.eye(FB12.space.dim)) < 1e-12
    with pytest.raises(ValueError):
        kraus_operators(s1, PSI_PLUS, basis=[had[0], 2 * had[1]])


def test_kraus_basis_orthonormality_reads_tol_unitary():
    _, s1, _ = _single_detector_setup()
    skew = [np.array([1, 1], dtype=complex) / np.sqrt(2),
            np.array([1, -1], dtype=complex) * (1 + 1e-6) / np.sqrt(2)]
    with pytest.raises(ValueError, match="orthonormal"):
        kraus_operators(s1, PSI_PLUS, basis=skew)
    loose = DEFAULT.replace(unitary=1e-5)
    assert len(kraus_operators(s1, PSI_PLUS, basis=skew, tol=loose)) == 2


def test_nonselective_forms_agree():
    _, s1, rho_f = _single_detector_setup()
    n1, n2 = nonselective_forms(rho_f, s1, PSI_PLUS)
    assert trace_norm(n1 - n2) < 1e-12
    out = detector_update_nonselective(rho_f, s1, PSI_PLUS)
    assert trace_norm(out - n1) < 1e-12
    assert np.trace(out) == pytest.approx(1.0, abs=1e-12)


def test_nonselective_update_spacelike_invariant():
    _, s1, rho_f = _single_detector_setup()
    out = detector_update_nonselective(rho_f, s1, PSI_PLUS)
    x_far = FB12.phi_at((0, 4)).matrix  # commutes with the coupling exactly
    x_fut = FB12.phi_at((3, 0)).matrix  # causal future of the coupling cell
    assert abs(np.trace(x_far @ out) - np.trace(x_far @ rho_f)) < 1e-10
    assert abs(np.trace(x_fut @ out) - np.trace(x_fut @ rho_f)) > 1e-3


def test_selective_update_probability_and_errors():
    _, s1, rho_f = _single_detector_setup()
    rho_joint = np.kron(np.outer(PSI_PLUS, PSI_PLUS.conj()), rho_f)
    excited = np.array([[1, 0], [0, 0]], dtype=complex)
    st, p = detector_update_selective(rho_joint, s1, excited, t1=2.0, t2=3.0)
    assert 0.0 < p < 1.0
    assert np.trace(st) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        detector_update_selective(rho_joint, s1, excited, t1=3.0, t2=2.0)
    never = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ZeroProbability):
        detector_update_selective(rho_joint, s1, never)


def test_kraus_series_cubic_convergence():
    lams = np.geomspace(0.05, 0.4, 6)
    diffs = []
    for lam in lams:
        d = DetectorSpec("D", 0.9, lam, {1: 1.0, 2: 0.6}, {0: 1.0, 1: 0.4})
        m_ex = kraus_operators(scattering_operator([d], FB12).matrix,
                               np.array([0, 1], dtype=complex))
        series = kraus_series(d, FB12, np.array([0, 1], dtype=complex), 2)
        m_sr = [sum(lam ** k * series[k][i] for k in series) for i in range(2)]
        diffs.append(sum(opnorm(a - b) for a, b in zip(m_ex, m_sr)))
    slope = power_fit_slope(lams, diffs)
    assert 2.7 < slope < 3.3


def test_dual_map_commutes_with_compatible_unitary():
    _, s1, _ = _single_detector_setup()
    x_far = FB12.phi_at((0, 4)).matrix
    u_far = expm(1j * x_far)
    assert dual_map_commutator(s1, PSI_PLUS, x_far @ x_far, u_far) < 1e-12
    x_fut = FB12.phi_at((3, 0)).matrix
    assert dual_map_commutator(s1, PSI_PLUS, x_fut, u_far) > 0.1


def test_power_fit_slope_recovers_exponent():
    xs = np.array([0.1, 0.2, 0.4])
    assert power_fit_slope(xs, 3.0 * xs ** 2) == pytest.approx(2.0, abs=1e-12)


def test_joint_space_and_state_layout():
    a = DetectorSpec("A", 0.7, 0.4, {1: 1.0}, {0: 1.0})
    sp = joint_space(FB12, [a])
    assert sp.dim == 2 * FB12.space.dim
    rho = joint_state(FB12, [PLUS])
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert rho.shape == (sp.dim, sp.dim)


def test_detector_paths_skip_support_recheck(monkeypatch):
    # internal embeds are identity outside their targets by construction;
    # only the public `embed` re-checks a declared support
    doc = load_document(Path(__file__).resolve().parents[1] / "presets"
                        / "tripartite_orders.json")
    kick, bridge, receiver, fb, max_order = build_tripartite(doc)

    def refuse(*args, **kwargs):
        raise AssertionError("support re-checked")
    monkeypatch.setattr(qops, "_support_defect", refuse)
    rep = tripartite_order_count(kick, bridge, receiver, fb, sigma_x, GROUND,
                                 GROUND, max_order)
    assert abs(rep[4] - TRIPARTITE_ORDER4) < 1e-12
    s = scattering_operator([bridge, receiver], fb).matrix
    assert opnorm(s @ dag(s) - np.eye(len(s))) < 1e-8
    ser = scattering_series([bridge, receiver], fb, 2)
    assert ser.evaluate([bridge.coupling, receiver.coupling]).shape == s.shape
    res = causal_factorization_check(bridge, receiver, fb)
    assert res.residual < 1e-10
