"""Scenario engine, presets, and the operator-level signalling checker."""
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.linalg import expm

import causalq.qops as q
import causalq.scenarios as sc
from causalq.causal import CausalOrder, fig2_preset, rect
from causalq.config import DEFAULT
from causalq.errors import (BasisEmpty, NotEffect, NotHermitian,
                            OrderSensitivity, SpaceMismatch, UnknownParameter,
                            ZeroProbability)
from causalq.random_ops import random_density, random_hermitian
from causalq.serial import build_scenario

from fock_oracles import worst_commutator_pairs
from scenario_presets import borsten_additive_control, shipped, sorkin_qft_fock
from sized_documents import operations_document


def _qubit_scenario(ops, init_vec=(1, 0), **kw):
    sp = q.qubit_space("A")
    init = q.pure_state(np.array(init_vec, dtype=complex), sp)
    return sc.Scenario(sp, init, ops, **kw), sp


# operation constructors

def test_kick_rejects_nonunitary():
    sp = q.qubit_space("A")
    bad = q.LocalOperator(sp, np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        sc.kick(bad, rect(0, 1, 0, 1))


def test_kick_generator_rejects_nonhermitian():
    sp = q.qubit_space("A")
    bad = q.LocalOperator(sp, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotHermitian):
        sc.kick_generator(bad, rect(0, 1, 0, 1), "g")


def test_observe_requires_name():
    sp = q.qubit_space("A")
    c = q.embed(q.sigma_z, "A", sp)
    with pytest.raises(ValueError):
        _qubit_scenario((sc.LocalOperation("observe", rect(0, 1, 0, 1), c),))


# scenario validation

def test_scenario_rejects_wrong_space():
    sp2 = q.qubit_space("A", "B")
    c = q.embed(q.sigma_z, "A", sp2)
    with pytest.raises(SpaceMismatch):
        _qubit_scenario((sc.observe(c, rect(0, 1, 0, 1), "C"),))


def test_scenario_caps_operations():
    sp = q.qubit_space("A")
    c = q.embed(q.sigma_z, "A", sp)
    ops = tuple(sc.observe(c, rect(float(k), k + 0.5, 0, 1), f"c{k}")
                for k in range(9))
    with pytest.raises(ValueError):
        _qubit_scenario(ops)


def test_sweep_parameter_must_exist():
    sp = q.qubit_space("A")
    c = q.embed(q.sigma_z, "A", sp)
    with pytest.raises(UnknownParameter):
        _qubit_scenario((sc.observe(c, rect(0, 1, 0, 1), "C"),),
                        sweep=("lam", (0.0, 1.0)))


# running

def test_empty_scenario_returns_nothing():
    s, _ = _qubit_scenario(())
    assert sc.run(s) == {}


def test_observe_reads_initial_state():
    sp = q.qubit_space("A")
    c = q.embed(q.sigma_z, "A", sp)
    s, _ = _qubit_scenario((sc.observe(c, rect(0, 1, 0, 1), "C"),))
    assert sc.run(s)["C"] == pytest.approx(1.0, abs=1e-14)


def test_unknown_parameter_rejected_at_run():
    s = shipped("borsten_qubit")
    with pytest.raises(UnknownParameter):
        sc.run(s, {"nope": 1.0})


def test_select_records_probability_and_conditions():
    sp = q.qubit_space("A")
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    ops = (
        sc.kick(q.embed(had, "A", sp), rect(0, 1, 0, 1)),
        sc.select(q.embed(np.diag([1.0, 0.0]), "A", sp), rect(2, 3, 0, 1), "p0"),
        sc.observe(q.embed(q.sigma_z, "A", sp), rect(4, 5, 0, 1), "C"),
    )
    s, _ = _qubit_scenario(ops)
    out = sc.run(s)
    assert out["p0"] == pytest.approx(0.5, abs=1e-14)
    assert out["C"] == pytest.approx(1.0, abs=1e-14)


def test_select_zero_probability():
    sp = q.qubit_space("A")
    ops = (sc.select(q.embed(np.diag([0.0, 1.0]), "A", sp), rect(0, 1, 0, 1)),)
    s, _ = _qubit_scenario(ops)
    with pytest.raises(ZeroProbability):
        sc.run(s)


def test_select_rejects_non_projector():
    sp = q.qubit_space("A")
    with pytest.raises(NotEffect):
        sc.select(q.embed(q.sigma_z, "A", sp), rect(0, 1, 0, 1), "p")


def test_run_resolves_each_measurement_once(monkeypatch):
    calls = []
    resolve = sc.spectral_resolution

    def counted(a, *args, **kwargs):
        calls.append(a)
        return resolve(a, *args, **kwargs)
    monkeypatch.setattr(sc, "spectral_resolution", counted)
    sp = q.qubit_space("A", "B")
    # three mutually spacelike, pairwise commuting operations: 6 extensions
    ops = (
        sc.kick_generator(q.embed(q.sigma_x, "A", sp), rect(0, 1, -6, -5), "g"),
        sc.measure(q.embed(q.sigma_x, "A", sp), rect(0, 1, -0.5, 0.5)),
        sc.measure(q.embed(q.sigma_z, "B", sp), rect(0, 1, 5, 6)),
        sc.observe(q.embed(q.sigma_x, "A", sp), rect(20, 21, -0.5, 0.5), "C"),
    )
    init = q.pure_state(np.kron([1, 0], [1, 1]).astype(complex), sp)
    s = sc.Scenario(sp, init, ops)
    order = sc.build_order([op.region for op in ops])
    assert len(list(order.linear_extensions())) == 6
    sc.run(s, {"g": 0.3})
    assert [id(a) for a in calls] == [id(ops[1].operator), id(ops[2].operator)]
    # the order, extensions and eigenprojectors belong to the scenario
    orders = []
    monkeypatch.setattr(sc, "build_order", lambda *a: orders.append(a))
    sc.run(s, {"g": 0.5})
    assert len(calls) == 2
    assert orders == []


def test_each_kick_generator_is_diagonalized_once_per_scenario(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    sp = q.qubit_space("A", "B")
    gens = [q.embed(q.sigma_x, "A", sp), q.embed(q.sigma_y, "B", sp)]
    ops = (sc.kick_generator(gens[0], rect(0, 1, -6, -5), "g"),
           sc.kick_generator(gens[1], rect(0, 1, 5, 6), "h"),
           sc.measure(q.embed(q.sigma_z, "A", sp), rect(2, 3, -0.5, 0.5)),
           sc.observe(q.embed(q.sigma_z, "B", sp), rect(20, 21, -0.5, 0.5), "C"))
    init = q.pure_state(np.kron([1, 0], [1, 1]).astype(complex), sp)
    s = sc.Scenario(sp, init, ops)
    points = [{"g": t, "h": 0.5 * t} for t in np.linspace(0.0, 3.0, 12)]
    rows = [sc.run(s, p) for p in points]
    for g in gens:  # once per document, whatever the grid length
        assert sum(np.array_equal(a, g.matrix) for a in calls) == 1
    # the same arithmetic as a fresh `expih` at each point, so the same bits
    assert rows == [_full_enumeration(s, p, s.extensions) for p in points]


def test_spacelike_noncommuting_kicks_raise_order_sensitivity():
    # same factor kicked in two spacelike regions: microcausality broken by
    # construction, so the recorded value depends on the linear extension
    sp = q.qubit_space("A")
    u1 = q.embed(expm(0.3j * q.sigma_x), "A", sp)
    u2 = q.embed(expm(0.7j * q.sigma_z), "A", sp)
    ops = (
        sc.kick(u1, rect(0, 1, -6, -5)),
        sc.kick(u2, rect(0, 1, 5, 6)),
        sc.observe(q.embed(q.sigma_y, "A", sp), rect(10, 11, -0.5, 0.5), "C"),
    )
    init = q.pure_state(np.array([1, 0], dtype=complex), sp)
    s = sc.Scenario(sp, init, ops)
    with pytest.raises(OrderSensitivity):
        sc.run(s)


def test_commuting_spacelike_kicks_are_order_insensitive():
    sp = q.qubit_space("A", "B")
    u1 = q.embed(expm(0.3j * q.sigma_x), "A", sp)
    u2 = q.embed(expm(0.7j * q.sigma_z), "B", sp)
    ops = (
        sc.kick(u1, rect(0, 1, -6, -5)),
        sc.kick(u2, rect(0, 1, 5, 6)),
        sc.observe(q.embed(q.sigma_y, "A", sp), rect(10, 11, -0.5, 0.5), "C"),
    )
    init = q.pure_state(np.kron([1, 0], [1, 0]).astype(complex), sp)
    s = sc.Scenario(sp, init, ops)
    out = sc.run(s)
    assert out["C"] == pytest.approx(np.sin(0.6), abs=1e-12)


# order check over commutation classes

_PAULIS = (q.sigma_x, q.sigma_y, q.sigma_z)
# region corners (t, x): mixes timelike, lightlike-reachable and spacelike pairs
_CORNERS = [(t, x) for t in (0.0, 3.0, 6.0) for x in (0.0, 4.0, 8.0, 40.0)]


def _random_matrix(kind, sp, rng):
    """A local operator of `kind` on one or two random factors, or a Pauli."""
    labels = sorted(rng.choice(sp.labels, size=int(rng.integers(1, 3)), replace=False))
    d = 2 ** len(labels)
    if kind == "select":
        if rng.random() < 0.5:  # a computational-basis projector: zero weights happen
            return q.embed(np.diag(np.eye(2)[rng.integers(2)]), labels[0], sp)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return q.embed(np.outer(v, v.conj()) / np.vdot(v, v), labels, sp)
    if rng.random() < 0.5:
        return q.embed(_PAULIS[rng.integers(3)], labels[0], sp)
    h = random_hermitian(d, rng)
    return q.embed(q.expih(h, 1.0) if kind == "kick" else h, labels, sp)


def _random_scenario(rng):
    sp = q.qubit_space(*"ABC"[:int(rng.integers(2, 4))])
    corners = rng.choice(len(_CORNERS), size=int(rng.integers(1, 7)), replace=False)
    ops, params = [], {}
    for k, c in enumerate(corners):
        t, x = _CORNERS[c]
        region = rect(t, t + 1, x, x + 1)
        kind = str(rng.choice(["kick", "kick_generator", "measure", "select", "observe"]))
        m = _random_matrix(kind, sp, rng)
        if kind == "kick":
            ops.append(sc.kick(m, region))
        elif kind == "kick_generator":
            params[f"v{k}"] = float(rng.uniform(0.2, 1.5))
            ops.append(sc.kick_generator(m, region, f"v{k}"))
        elif kind == "measure":
            ops.append(sc.measure(m, region))
        elif kind == "select":
            ops.append(sc.select(m, region, f"p{k}" if rng.random() < 0.5 else None))
        else:
            ops.append(sc.observe(m, region, f"o{k}"))
    if rng.random() < 0.3:
        init = q.pure_state(np.eye(sp.dim)[0], sp)
    else:
        v = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
        init = q.pure_state(v / np.linalg.norm(v), sp)
    return sc.Scenario(sp, init, tuple(ops)), params


def _all_extensions(s):
    leq = sc.build_order([op.region for op in s.operations]).leq
    strict = leq & ~leq.T
    n = len(s.operations)
    return leq, [p for p in permutations(range(n))
                 if not any(strict[p[j], p[i]] for i in range(n) for j in range(i + 1, n))]


def _dependent_pairs(s, leq):
    """Incomparable pairs whose order may change a recorded value, decided on
    the operators themselves (a measurement commutes with an operator exactly
    when its observable does; two fixed kicks act by conjugation, so they need
    commute only up to the best phase c = tr((ba)^dag ab) / d)."""
    out = []
    for i, j in combinations(range(len(s.operations)), 2):
        a, b = s.operations[i], s.operations[j]
        kinds = {a.kind, b.kind}
        if leq[i, j] or leq[j, i] or kinds == {"observe"}:
            continue
        ab = a.operator.matrix @ b.operator.matrix
        ba = b.operator.matrix @ a.operator.matrix
        phase = kinds == {"kick"} and not (a.parametric or b.parametric)
        c = np.trace(q.dag(ba) @ ab) / len(ab) if phase else 1.0
        if ("select" in kinds and kinds <= {"select", "observe"}
                or q.opnorm(ab - c * ba) > 1e-9):
            out.append((i, j))
    return out


def _outcome(fn):
    try:
        return fn()
    except (OrderSensitivity, ZeroProbability) as e:
        return type(e)


def _full_enumeration(s, params, exts):
    """The order check over every linear extension."""
    mats = [q.expih(op.operator.matrix, params[op.name]) if op.parametric else m
            for op, m in zip(s.operations, s.prepared)]
    runs = []
    for ext in exts:
        rho, rec = s.initial.matrix.copy(), {}
        for i in ext:
            rho = sc._apply(rho, s.operations[i], mats[i], rec, s.tol)
        runs.append(rec)
    for other in runs[1:]:
        if any(abs(other[k] - v) > s.tol.operator for k, v in runs[0].items()):
            raise OrderSensitivity("extensions disagree")
    return runs[0]


def test_order_check_runs_each_class_normal_form_once():
    # oracle: every permutation that respects the order, grouped by how it
    # orders each dependent pair (two extensions are one class exactly when
    # they agree on all of them); the scenario keeps each group's least member
    rng = np.random.default_rng(2024)
    seen = Counter()
    for _ in range(240):
        s, params = _random_scenario(rng)
        leq, exts = _all_extensions(s)
        pairs = _dependent_pairs(s, leq)
        groups = {}
        for ext in exts:
            pos = {op: k for k, op in enumerate(ext)}
            groups.setdefault(tuple(pos[i] < pos[j] for i, j in pairs), []).append(ext)
        assert s.extensions == tuple(sorted(min(g) for g in groups.values()))
        assert s.order_check == ("classes", len(groups))
        want = _outcome(lambda: _full_enumeration(s, params, exts))
        assert _outcome(lambda: sc.run(s, params)) == want
        seen["pruned" if len(groups) < len(exts) else "whole"] += 1
        seen[want if isinstance(want, type) else "passed"] += 1
        seen["several classes"] += len(groups) > 1
    assert min(seen[k] for k in ("pruned", "whole", "passed", "several classes",
                                 OrderSensitivity, ZeroProbability)) >= 10, seen


def test_spacelike_select_and_observe_stay_ordered_though_they_commute():
    # both diagonal, yet the readout sees the selection in one order only
    sp = q.qubit_space("A")
    ops = (
        sc.select(q.embed(np.diag([1.0, 0.0]), "A", sp), rect(0, 1, -6, -5), "p"),
        sc.observe(q.embed(q.sigma_z, "A", sp), rect(0, 1, 5, 6), "C"),
    )
    assert q.commute(ops[0].operator.matrix, ops[1].operator.matrix)
    s = sc.Scenario(sp, q.pure_state(np.array([1, 1]) / np.sqrt(2), sp), ops)
    assert s.extensions == ((0, 1), (1, 0))
    with pytest.raises(OrderSensitivity):
        sc.run(s)


def test_commutator_of_1e_12_keeps_both_orders():
    sp = q.qubit_space("A", "B")
    theta = 1e-12 / (2 * np.sqrt(2))  # ||[Z, exp(i theta X)]||_F = 2 sqrt(2) sin(theta)
    a = q.embed(q.sigma_z, "A", sp)
    b = q.embed(q.expih(q.sigma_x, theta), "A", sp)
    assert np.linalg.norm(q.commutator(a.matrix, b.matrix)) == pytest.approx(1e-12)
    assert not q.commute(a.matrix, b.matrix)
    ops = (sc.kick(a, rect(0, 1, -6, -5)), sc.kick(b, rect(0, 1, 5, 6)),
           sc.observe(q.embed(q.sigma_y, "A", sp), rect(20, 21, 0, 1), "C"))
    s = sc.Scenario(sp, q.pure_state(np.eye(4)[0], sp), ops)
    assert s.extensions == ((0, 1, 2), (1, 0, 2))
    assert s.order_check == ("classes", 2)


def test_workload_document_runs_one_extension_per_class(monkeypatch):
    # 20 linear extensions; the X and Y kicks on C anticommute, so their
    # conjugations commute and every extension is one class
    doc = operations_document(np.random.default_rng(3), ["X", "Y"])
    s = build_scenario(doc)
    assert len(list(sc.build_order([op.region for op in s.operations])
                    .linear_extensions())) == 20
    calls = []
    apply = sc._apply
    monkeypatch.setattr(sc, "_apply", lambda *a: calls.append(a[1]) or apply(*a))
    sc.run(s, {"g": 0.4})
    assert len(calls) <= len(s.operations)
    assert s.order_check == ("classes", 1)


def _two_kicks(u, v):
    sp = q.qubit_space("A", "B")
    ops = (sc.kick(q.embed(u, "A", sp), rect(0, 1, -6, -5)),
           sc.kick(q.embed(v, "A", sp), rect(0, 1, 5, 6)),
           sc.observe(q.embed(q.sigma_z, "A", sp), rect(20, 21, 0, 1), "C"))
    return sc.Scenario(sp, q.pure_state(np.eye(4)[0], sp), ops)


def test_kicks_that_commute_up_to_a_phase_are_one_class():
    # XY = -YX and ZX = -XZ: the conjugations commute, so one order is enough
    for u, v in ((q.sigma_x, q.sigma_y), (q.sigma_z, 1j * q.sigma_x),
                 (q.sigma_x, np.exp(0.3j) * q.sigma_x)):
        assert q.commute(u, v, phase=True)
        s = _two_kicks(u, v)
        assert s.extensions == ((0, 1, 2),)
        assert s.order_check == ("classes", 1)
        for w in (v @ u, u @ v):  # both orders record the same value
            psi = w[:, 0]
            assert sc.run(s)["C"] == pytest.approx(
                np.real(np.vdot(psi, q.sigma_z @ psi)), abs=1e-15)


def test_kicks_that_miss_a_phase_by_1e_12_keep_both_orders():
    # V = Y exp(i theta Z): XV = -exp(2 i theta Z) VX, which no phase absorbs;
    # the best phase leaves ||XV - c VX||_F = 4 sin(theta) cos(theta) on two qubits
    theta = 1e-12 / 4
    v = q.sigma_y @ q.expih(q.sigma_z, theta)
    x4, v4 = (np.kron(m, np.eye(2)) for m in (q.sigma_x, v))
    c = np.trace(q.dag(v4 @ x4) @ x4 @ v4) / 4
    assert abs(c + 1) < 1e-15
    assert np.linalg.norm(x4 @ v4 - c * v4 @ x4) == pytest.approx(1e-12, rel=1e-3)
    assert not q.commute(x4, v4, phase=True)
    s = _two_kicks(q.sigma_x, v)
    assert s.extensions == ((0, 1, 2), (1, 0, 2))
    assert s.order_check == ("classes", 2)


def test_phase_rule_applies_to_fixed_kicks_only():
    # a parametric kick's generator and a measurement still need exact
    # commutation: X against Y stays ordered for them
    sp = q.qubit_space("A")
    x, y = (q.embed(m, "A", sp) for m in (q.sigma_x, q.sigma_y))
    obs = sc.observe(q.embed(q.sigma_z, "A", sp), rect(20, 21, 0, 1), "C")
    for first in (sc.kick_generator(x, rect(0, 1, -6, -5), "g"),
                  sc.measure(x, rect(0, 1, -6, -5))):
        s = sc.Scenario(sp, q.pure_state(np.eye(2)[0], sp),
                        (first, sc.kick(y, rect(0, 1, 5, 6)), obs))
        assert s.order_check == ("classes", 2)


def test_more_classes_than_the_cap_run_the_first_and_say_so(monkeypatch):
    # eight mutually spacelike kicks on one qubit, no two commuting: 8! classes
    sp = q.qubit_space("A")
    rng = np.random.default_rng(8)
    ops = tuple(sc.kick(q.embed(q.expih(random_hermitian(2, rng), 1.0), "A", sp),
                        rect(0, 1, 10 * k, 10 * k + 1)) for k in range(8))
    yielded = []
    extensions = CausalOrder.linear_extensions

    def counted(order, *a, **kw):
        for ext in extensions(order, *a, **kw):
            yielded.append(ext)
            yield ext
    monkeypatch.setattr(CausalOrder, "linear_extensions", counted)
    s = sc.Scenario(sp, q.pure_state(np.eye(2)[0], sp), ops)
    s.extensions  # the order check runs on first read
    assert len(yielded) == sc.MAX_EXTENSIONS + 1  # the DFS stops one past the cap
    assert s.extensions == tuple(yielded[:sc.MAX_EXTENSIONS])
    assert s.order_check == ("partial", sc.MAX_EXTENSIONS)
    assert sc.run(s) == {}


def test_seven_operations_with_noncommuting_spacelike_kicks_are_checked():
    # the first extension alone would pass; the second class disagrees
    sp = q.qubit_space("A", "B")
    u1 = q.embed(expm(0.3j * q.sigma_x), "B", sp)
    u2 = q.embed(expm(0.7j * q.sigma_z), "B", sp)
    o1, o2, o3 = fig2_preset()
    ops = (
        sc.kick_generator(q.embed(q.sigma_x, "A", sp), o1, "g"),
        sc.kick(u1, rect(0, 0.5, 1, 1.5)),
        sc.kick(u2, rect(0, 0.5, 5.5, 6)),
        sc.measure(q.embed(q.sigma_z, "A", sp), o2),
        sc.observe(q.embed(q.sigma_y, "B", sp), o3, "C"),
        sc.observe(q.embed(q.sigma_z, "A", sp), rect(20, 21, -3, -2), "ZA"),
        sc.observe(q.embed(q.sigma_z, "B", sp), rect(20, 21, 2, 3), "ZB"),
    )
    s = sc.Scenario(sp, q.pure_state(np.eye(4)[0], sp), ops)
    assert s.order_check == ("classes", 2)
    with pytest.raises(OrderSensitivity):
        sc.run(s, {"g": 0.5})


def test_signalling_report_states_the_order_check():
    assert sc.signalling_delta(shipped("borsten_qubit")).order_check == ("classes", 1)


# borsten_qubit preset

def test_borsten_qubit_curve_is_cos_squared():
    s = shipped("borsten_qubit")
    rep = sc.signalling_delta(s)
    gammas = np.array(rep.params)
    expect = np.cos(gammas) ** 2
    assert np.max(np.abs(np.array(rep.expectations) - expect)) < 1e-12
    assert rep.baseline == pytest.approx(1.0, abs=1e-14)
    assert rep.delta_max == pytest.approx(1.0, abs=1e-12)


def test_borsten_qubit_periodicity():
    s = shipped("borsten_qubit")
    a = sc.run(s, {"gamma": 0.37})["C"]
    b = sc.run(s, {"gamma": 0.37 + 2 * np.pi})["C"]
    assert a == pytest.approx(b, abs=1e-12)


def test_borsten_additive_control_is_flat():
    s = borsten_additive_control()
    rep = sc.signalling_delta(s)
    assert rep.delta_max < 1e-12
    assert rep.baseline == pytest.approx(0.0, abs=1e-14)


# operator-level checker

def _borsten_setup():
    sp = q.qubit_space("A", "B")
    a2 = q.embed(np.kron(np.diag([0.0, 1.0]), q.sigma_z), ["A", "B"], sp)
    alg1 = sc.pauli_strings(sp, ["A"])
    alg3 = sc.pauli_strings(sp, ["B"])
    return sp, a2, alg1, alg3


def test_borsten_check_flags_entangling_measurement():
    sp, a2, alg1, alg3 = _borsten_setup()
    passed, worst, witness = sc.borsten_check(a2, None, alg1, alg3)
    assert not passed
    assert worst > 0.5
    a1, a3 = witness
    assert sc.borsten_violation(a2, a1, a3) == pytest.approx(worst, abs=1e-12)


def test_borsten_check_passes_additive_measurement():
    sp = q.qubit_space("A", "B")
    a2 = q.embed(np.kron(q.sigma_z, q.eye2) + np.kron(q.eye2, q.sigma_z),
                 ["A", "B"], sp)
    alg1 = sc.pauli_strings(sp, ["A"])
    alg3 = sc.pauli_strings(sp, ["B"])
    passed, worst, _ = sc.borsten_check(a2, None, alg1, alg3)
    assert passed
    assert worst < 1e-12


def test_borsten_check_empty_basis():
    sp, a2, alg1, alg3 = _borsten_setup()
    with pytest.raises(BasisEmpty):
        sc.borsten_check(a2, None, [], alg3)


def test_borsten_violation_witness_value():
    sp, a2, alg1, alg3 = _borsten_setup()
    a1 = q.embed(q.sigma_x, "A", sp)
    a3 = q.embed(q.sigma_x, "B", sp)
    assert sc.borsten_violation(a2, a1, a3) == pytest.approx(1.0, abs=1e-12)


def test_passing_check_implies_no_signalling():
    # measured observable supported away from the kicked factor: the checker
    # passes and the swept expectation stays flat, state by state
    rng = np.random.default_rng(7)
    o1, o2, o3 = fig2_preset()
    for _ in range(20):
        sp = q.qubit_space("A", "B", "C")
        a2m = random_hermitian(4, rng)
        a2 = q.embed(a2m, ["B", "C"], sp)
        gen = q.embed(random_hermitian(2, rng), "A", sp)
        init = q.DensityState(sp, random_density(8, rng))
        ops = (
            sc.kick_generator(gen, o1, "g"),
            sc.measure(a2, o2),
            sc.observe(q.embed(random_hermitian(2, rng), "C", sp), o3, "C"),
        )
        s = sc.Scenario(sp, init, ops, sweep=("g", (0.0, 0.8, 1.7)))
        passed, worst, _ = sc.borsten_check(
            a2, None, sc.pauli_strings(sp, ["A"]), sc.pauli_strings(sp, ["C"]))
        assert passed, worst
        rep = sc.signalling_delta(s)
        assert rep.delta_max < 1e-10


def _measured_on(doc, labels, rng):
    """`doc` with its measurement replaced by a random observable on `labels`
    whose eigenvalues are rounded to integers, so eigenspaces may be degenerate."""
    qubits = doc["space"]["qubits"]
    sp = q.qubit_space(*qubits)
    w, v = np.linalg.eigh(random_hermitian(2 ** len(labels), rng))
    m = q.embed((v * np.round(w)) @ v.conj().T, labels, sp).matrix
    for op in doc["operations"]:
        if op["kind"] == "measure":
            op["operator"] = {"matrix": m.real.tolist(), "imag": m.imag.tolist()}
    return doc


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("qubits", [3, 4, 5])
def test_stacked_borsten_kernel_matches_the_pair_loop(monkeypatch, qubits, chunked):
    # seeded operations documents, each measured on AB (most fail) and on BC
    # (kicks on A pass); bases on one and two qubits, and all of them as for a
    # matrix kick, whose support is the whole space
    rng = np.random.default_rng(qubits)
    labels = list("ABCDE"[:qubits])
    bases = [(["A"], ["B"]), (["A", "C"], ["B"]), (["A"], ["B", "C"])]
    if qubits < 5:
        bases.append((labels, ["B"]))
    if chunked:  # three pairs a chunk: boundaries fall inside an A3's row
        monkeypatch.setattr(sc, "CHUNK_BYTES", 3 * 16 * 4 ** qubits)
    verdicts = set()
    for measured in (["A", "B"], ["B", "C"]):
        doc = _measured_on(operations_document(rng, ["Z"], qubits), measured, rng)
        s = build_scenario(doc)
        projectors = s.prepared[[op.kind for op in s.operations].index("measure")]
        for lab1, lab3 in bases:
            alg1 = sc.pauli_strings(s.space, lab1)
            alg3 = sc.pauli_strings(s.space, lab3)
            want, want_at = worst_commutator_pairs(projectors, alg1, alg3)
            got, got_at = sc._worst_commutator(projectors, alg1, alg3)
            assert abs(got - want) <= 1e-12 * want, (measured, lab1, lab3)
            assert got_at == want_at, (measured, lab1, lab3)
            assert sc._worst_commutator(projectors, [a.matrix for a in alg1],
                                        [a.matrix for a in alg3]) == (got, got_at)
            verdicts.add(got < DEFAULT.operator)
    assert verdicts == {True, False}


def test_stacked_borsten_kernel_has_no_witness_when_all_norms_vanish():
    sp = q.qubit_space("A", "B")
    projectors = [p.matrix for p in q.spectral_resolution(q.embed(q.sigma_z, "B", sp))]
    got = sc._worst_commutator(projectors, sc.pauli_strings(sp, ["A"]),
                               sc.pauli_strings(sp, ["B"]))
    assert got == (0.0, None)


# sorkin presets

QUBIT_BABY_CURVE = (0.3142696805273543, 0.2682459513747881,
                    0.15713484026367716, 0.04602372915256614, 0.0)


def test_sorkin_qubit_baby_curve():
    s = shipped("sorkin_qubit_baby")
    rep = sc.signalling_delta(s)
    for k, want in enumerate(QUBIT_BABY_CURVE):
        assert rep.expectations[k] == pytest.approx(want, abs=1e-12)
    for k in range(1, 5):
        assert rep.expectations[8 - k] == pytest.approx(
            rep.expectations[k], abs=1e-12)
    assert rep.delta_max == pytest.approx(0.3142696805273543, abs=1e-12)


def test_sorkin_qft_fock_values():
    s = sorkin_qft_fock()
    rep = sc.signalling_delta(s)
    assert rep.baseline == pytest.approx(0.25, abs=1e-12)
    assert rep.expectations[10] == pytest.approx(0.18957803040543136, abs=1e-10)
    assert rep.delta_max == pytest.approx(0.1226062956634095, abs=1e-10)
    assert rep.delta_max > 1e-3


def test_sorkin_qft_fock_removal_control():
    s = sorkin_qft_fock()
    stripped = sc.Scenario(s.space, s.initial,
                           tuple(op for op in s.operations if op.kind != "measure"),
                           s.sweep, s.tol)
    rep = sc.signalling_delta(stripped)
    assert rep.delta_max < 1e-14
    assert rep.baseline == pytest.approx(0.0, abs=1e-14)


def test_pauli_strings_two_factors():
    sp = q.qubit_space("A", "B")
    basis = sc.pauli_strings(sp, ["A", "B"])
    assert len(basis) == 16
    mats = np.array([b.matrix for b in basis])
    # orthogonal under Hilbert-Schmidt, so they span the full algebra
    gram = np.einsum("aij,bji->ab", mats, mats)
    assert np.allclose(gram, 4 * np.eye(16), atol=1e-12)


def test_pauli_strings_rejects_non_qubit():
    sp = q.space(("A", 3))
    with pytest.raises(ValueError):
        sc.pauli_strings(sp, ["A"])
