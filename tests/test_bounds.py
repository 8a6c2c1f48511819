"""Pass/fail norms: the Frobenius bound first, the exact 2-norm as fallback.

Every site that compares a 2-norm with a tolerance and keeps only the verdict
goes through `qops.within` (or `qops._skew_within` for m - m^dag).  Since
||x||_2 <= ||x||_F, the verdict must be the exact-norm verdict: the oracle runs
each site again with both rules replaced by `opnorm` and `herm_defect` alone,
on seeded inputs whose exact norm sits at 0.5, 0.999, 1.001 and 2 times the
bound, with low-rank and full-rank residuals.
"""
import itertools
from types import ModuleType

import numpy as np
import pytest

import causalq
from causalq import detectors, fv, histories, qops as q, scenarios, serial
from causalq.config import Tolerances
from causalq.errors import CausalqError
from causalq.histories import (DecoherenceMatrix, History, additivity_violation,
                               decoherence, fuksa_tripartite)
from causalq.serial import build_family, build_scenario

from sized_documents import family_document, matrix_document, operations_document

BOUND = 1e-3
TOL = Tolerances(hermitian=BOUND, projector=BOUND, unitary=BOUND, support=BOUND,
                 operator=BOUND)
FACTORS = (0.5, 0.999, 1.001, 2.0)
MODULES = (q, histories, detectors, fv, scenarios, serial)


def _unitary(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(g)[0]


def _spread(norm, k, rng):
    """k singular values with the largest equal to `norm`, the rest in (0.6, 0.9) of it."""
    return np.array([norm, *(norm * rng.uniform(0.6, 0.9, size=k - 1))])


def _hermitian(d, norm, full, rng):
    """Hermitian with 2-norm `norm`: rank 1 or full rank, eigenvalues of both signs."""
    vals = np.zeros(d)
    vals[:d if full else 1] = _spread(norm, d if full else 1, rng)
    vals[1::2] *= -1
    u = _unitary(d, rng)
    return (u * vals) @ u.conj().T


def _pairs(angles, rng):
    """Rank-r projectors on C^4 (r = len(angles)): P, a tilt T with
    ||P - T||_2 = max sin(angle), and a near complement C with ||P C||_2 the same."""
    e = _unitary(4, rng)
    p, other = e[:, :len(angles)], e[:, len(angles):2 * len(angles)]
    tilt = np.cos(angles) * p + np.sin(angles) * other
    near = np.cos(angles) * other + np.sin(angles) * p
    return [c @ c.conj().T for c in (p, tilt, near)]


def _angles(norm, full, rng):
    return np.arcsin(_spread(norm, 2, rng) if full else [norm])


# each site: (factor, full, rng) -> (call, residual whose 2-norm decides, failure text)

def _site_within(f, full, rng):
    x = _hermitian(4, f * BOUND, full, rng)
    return lambda: q.within(x, BOUND), x, None


def _site_is_hermitian(f, full, rng):
    s = 1j * _hermitian(4, f * BOUND / 2, full, rng)  # m - m^dag = 2 s
    m = np.diag([0.5, -0.5, 0.25, 0.0]) + s
    return lambda: q.is_hermitian(m, TOL), 2 * s, None


def _site_projector_hermiticity(f, full, rng):
    s = 1j * _hermitian(4, f * BOUND / 2, full, rng)
    m = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex) + s
    return lambda: q.is_projector(m, TOL), 2 * s, None


def _site_projector_idempotence(f, full, rng):
    # eigenvalue l with l^2 - l = t: near 1 for t > 0, near 0 for t < 0
    t = np.zeros(4)
    t[:4 if full else 1] = _spread(f * BOUND, 4 if full else 1, rng)
    t[1::2] *= -1
    lam = np.where(t >= 0, (1 + np.sqrt(1 + 4 * t)) / 2, (1 - np.sqrt(1 + 4 * t)) / 2)
    u = _unitary(4, rng)
    m = (u * lam) @ u.conj().T
    return lambda: q.is_projector(m, TOL), m @ m - m, None


def _site_check_unitary(f, full, rng):
    r = _hermitian(4, f * BOUND, full, rng)
    w, v = np.linalg.eigh(r)
    u = (v * np.sqrt(1 + w)) @ v.conj().T @ _unitary(4, rng)
    return lambda: q.check_unitary(u, TOL, "gate"), u @ u.conj().T - np.eye(4), "not unitary"


def _support_case(f, full, rng):
    """m = A x 1 + X on (A, B) with tr_B X = 0, so X is the support defect on {A}."""
    a = _hermitian(2, 1.0, True, rng)
    if full:
        x = np.kron(_hermitian(2, 1.0, True, rng), np.diag([1.0, -1.0]))
    else:
        x = np.kron(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    x = x * (f * BOUND / q.opnorm(x))
    return np.kron(a, np.eye(2)) + x, x


def _site_support(f, full, rng):
    m, x = _support_case(f, full, rng)
    sp = q.qubit_space("A", "B")
    return (lambda: q.LocalOperator(sp, m, frozenset({"A"}), TOL), x,
            "not identity outside the declared support")


def _site_operator_support(f, full, rng):
    m, x = _support_case(f, full, rng)
    return lambda: sorted(fv.operator_support(m, q.qubit_space("A", "B"), BOUND)), x, None


def _site_orthogonality(f, full, rng):
    p, _, pq = _pairs(_angles(f * BOUND, full, rng), rng)
    sp = q.space(("S", 4))
    return (lambda: q.ProjectiveResolution(sp, (q.LocalOperator(sp, p), q.LocalOperator(sp, pq)),
                                           tol=TOL), p @ pq, "not orthogonal")


def _site_completeness(f, full, rng):
    # orthogonal near-projectors whose eigenvalues fall short of 1 by delta:
    # their idempotence defects delta (1 - delta) stay below the completeness
    # defect up to 1.001 times the bound; at 2 times it they fail first
    delta = np.zeros(4)
    delta[:4 if full else 1] = _spread(f * BOUND, 4 if full else 1, rng)
    u = _unitary(4, rng)
    lo = (u[:, :2] * (1 - delta[:2])) @ u[:, :2].conj().T
    hi = (u[:, 2:] * (1 - delta[2:])) @ u[:, 2:].conj().T
    sp = q.space(("S", 4))
    return (lambda: q.ProjectiveResolution(sp, (q.LocalOperator(sp, lo), q.LocalOperator(sp, hi)),
                                           tol=TOL), lo + hi - np.eye(4),
            "do not sum to the identity" if f < 2 else "member 0 is not a projector")


def _site_decoherence_hermiticity(f, full, rng):
    s = 1j * _hermitian(4, f * BOUND / 2, full, rng)  # its imaginary diagonal stays below tol
    d = np.diag([0.4, 0.3, 0.2, 0.1]) + s
    return (lambda: DecoherenceMatrix(None, ((0,), (1,), (2,), (3,)), d, TOL), 2 * s,
            "decoherence matrix is not Hermitian")


def _two_step(p0, p1):
    sp = q.space(("S", 4))
    return History(((q.LocalOperator(sp, p0), 0, 0.0), (q.LocalOperator(sp, p1), 1, 1.0)),
                   tol=TOL)


def _site_differing_steps(f, full, rng):
    # step 0 differs by a tilt of norm f * bound, step 1 by complementary outcomes
    p, tilt, _ = _pairs(_angles(f * BOUND, full, rng), rng)
    q1 = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    a, b = _two_step(p, q1), _two_step(tilt, np.eye(4) - q1)
    return (lambda: additivity_violation(a, b, np.eye(4) / 4, TOL), p - tilt,
            "join is defined for histories differing at one step")


def _site_additivity_orthogonality(f, full, rng):
    p, _, near = _pairs(_angles(f * BOUND, full, rng), rng)
    a, b = _two_step(p, np.eye(4)), _two_step(near, np.eye(4))
    return (lambda: additivity_violation(a, b, np.eye(4) / 4, TOL), p @ near,
            "outcomes at step 0 are not orthogonal")


def _site_fuksa_commutation(f, full, rng):
    # [P, Q] for rank-r projectors at angles a_i has norm max sin(2 a_i) / 2
    norms = _spread(f * BOUND, 2, rng) if full else np.array([f * BOUND])
    p, _, pq = _pairs(np.arcsin(2 * norms) / 2, rng)
    sp = q.space(("S", 4))

    def res(m):
        return q.ProjectiveResolution(sp, (q.LocalOperator(sp, m),
                                           q.LocalOperator(sp, np.eye(4) - m)), tol=TOL)
    mid = res(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    return (lambda: fuksa_tripartite(res(p), mid, res(pq), n_states=1, tol=TOL).worst,
            p @ pq - pq @ p, "first and third resolutions do not commute")


def _site_kraus_basis(f, full, rng):
    r = _hermitian(2, f * BOUND, full, rng)
    w, v = np.linalg.eigh(r)
    b = ((v * np.sqrt(1 + w)) @ v.conj().T @ _unitary(2, rng)).conj()  # gram = 1 + r
    s1 = np.eye(4, dtype=complex)
    return (lambda: len(detectors.kraus_operators(s1, [1.0, 0.0], list(b), TOL)),
            b.conj() @ b.T - np.eye(2), "readout basis must be orthonormal")


SITES = {name[len("_site_"):]: fn for name, fn in globals().items()
         if name.startswith("_site_")}


def _outcome(call):
    """("returned", value) with built objects as None, or (error type, message)."""
    try:
        v = call()
        return "returned", v if isinstance(v, (bool, int, float, list)) else None
    except (CausalqError, ValueError) as e:
        return type(e).__name__, str(e)


def _failed(got, failure) -> bool:
    """Whether the site's own check refused: its message, or a False verdict
    (`operator_support` names B only when B's defect is above the bound)."""
    if got[0] != "returned":
        return failure is not None and failure in got[1]
    return got[1] is False or got[1] == ["A", "B"]


def _exact_outcome(monkeypatch, call):
    """The outcome with every pass/fail norm computed exactly."""
    with monkeypatch.context() as m:
        for mod in MODULES:
            if hasattr(mod, "within"):
                m.setattr(mod, "within", lambda x, bound: q.opnorm(x) <= bound)
            if hasattr(mod, "_skew_within"):
                m.setattr(mod, "_skew_within", lambda x, bound: q.herm_defect(x) <= bound)
        return _outcome(call)


@pytest.mark.parametrize("site", sorted(SITES))
def test_verdict_equals_the_exact_norm_rule(monkeypatch, site):
    for case, (f, full) in enumerate(itertools.product(FACTORS, (False, True))):
        rng = np.random.default_rng([sorted(SITES).index(site), case])
        call, residual, failure = SITES[site](f, full, rng)
        assert abs(q.opnorm(residual) / (f * BOUND) - 1) < 1e-6  # the input sits where meant
        got = _outcome(call)
        assert got == _exact_outcome(monkeypatch, call), (f, full)
        assert _failed(got, failure) == (f > 1), (f, full, got)  # the site's own check decides


@pytest.mark.parametrize("site", sorted(SITES))
def test_exact_norm_decides_where_the_frobenius_norm_cannot(monkeypatch, site):
    # full rank just below the bound: ||x||_F > bound >= ||x||_2, so the exact
    # norm runs, and the input passes
    rng = np.random.default_rng([99, sorted(SITES).index(site)])
    call, residual, failure = SITES[site](0.999, True, rng)
    assert np.linalg.norm(residual) > BOUND >= q.opnorm(residual)
    calls = []
    for name in ("opnorm", "herm_defect"):
        real = getattr(q, name)
        monkeypatch.setattr(q, name, lambda x, real=real: calls.append(1) or real(x))
    assert not _failed(_outcome(call), failure)
    assert calls


# no exact norm on a passing build

def _spy_exact_norms(monkeypatch) -> list:
    calls = []
    for mod in vars(causalq).values():
        for name in ("opnorm", "herm_defect"):
            real = getattr(mod, name, None)
            if isinstance(mod, ModuleType) and real is not None:
                monkeypatch.setattr(mod, name, lambda x, name=name, real=real:
                                    calls.append(name) or real(x))
    return calls


@pytest.mark.parametrize("make", [lambda rng: operations_document(rng, "XZ", qubits=4),
                                  matrix_document, family_document],
                         ids=["operations_4_qubits", "matrix_5_qubits", "family_4_qubits"])
def test_passing_build_computes_no_exact_norm(monkeypatch, make):
    doc = make(np.random.default_rng(11))
    calls = _spy_exact_norms(monkeypatch)
    if "family" in doc:
        decoherence(*build_family(doc))
    else:
        scenarios.run(build_scenario(doc), {"g": 0.3})
    assert calls == []
