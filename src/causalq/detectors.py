"""Two-level detectors coupled to the lattice field.

A detector is a qubit with energy gap omega, a switching profile over time
steps, and a spatial smearing profile over sites; the interaction at step n is
lambda * chi(n) * mu(t_n) (x) phi(F, n) with mu the interaction-picture
monopole and phi(F, n) the spatially smeared field on that slice.

Three layers of machinery share this interaction:

* closed-form second-order perturbation theory against the lattice vacuum,
  giving the reduced state of a second detector split into a signal term
  (carried entirely by the smeared field commutator between the two coupling
  supports) and a local noise term;
* exact scattering operators on a truncated Fock backend, built as
  step-ordered products of per-step propagators, plus a truncated power
  series in the couplings with one formal variable per coupling so that
  individual coefficient matrices can be inspected;
* measurement-update rules: selecting a detector outcome after switch-off,
  the equivalent Kraus form on the field factor, and the non-selective sum.

The series bookkeeping is what makes order counting possible: a local kick
inserted before two detector couplings is expanded jointly in (kick, A, B)
powers and the kick-dependent coefficients of a B observable are reported
order by order.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .causal import (CellRegion, _ring, cells, classify_configuration, precedes,
                     spacelike)
from .config import DEFAULT, Tolerances
from .errors import CausalqError, NotCausallyOrderable, NotSorkinType
from .field import FieldModel, FockBackend, SmearingFn, _kernel
from .qops import (LocalOperator, ProductSpace, _embed_matrix, commutator, dag,
                   expih, herm_defect, opnorm, select_outcome, sigma_m,
                   sigma_p)

__all__ = [
    "DetectorSpec", "PerturbativeState", "FactorizationResult", "MatrixPoly",
    "monopole", "box_profile", "gaussian_profile", "detector", "point_detector",
    "current_microcausality", "signal_noise_split", "sigma_operator",
    "trace_norm", "joint_space", "joint_state", "scattering_operator",
    "scattering_series", "causal_factorization_check", "tripartite_order_count",
    "detector_update_selective", "detector_update_nonselective",
    "nonselective_forms", "kraus_operators", "kraus_series",
    "dual_map_commutator", "bipartite_presets", "power_fit_slope",
]


def monopole(omega: float, t: float) -> np.ndarray:
    """Interaction-picture two-level moment e^{i w t} sp + e^{-i w t} sm."""
    return np.exp(1j * omega * t) * sigma_p + np.exp(-1j * omega * t) * sigma_m


def box_profile(lo: int, hi: int, amplitude: float = 1.0) -> dict[int, float]:
    return {k: float(amplitude) for k in range(int(lo), int(hi) + 1)}


def gaussian_profile(center: int, sigma: float, cut: float = 4.0) -> dict[int, float]:
    r = int(np.ceil(cut * sigma))
    return {k: float(np.exp(-((k - center) ** 2) / (2 * sigma ** 2)))
            for k in range(center - r, center + r + 1)}


@dataclass(frozen=True)
class DetectorSpec:
    """Static detector: gap, coupling, switching over steps, smearing over sites."""
    label: str
    gap: float
    coupling: float
    switching: Mapping[int, float]
    smearing: Mapping[int, float]
    pointlike: bool = False

    def __post_init__(self):
        chi = {int(k): float(v) for k, v in self.switching.items() if v != 0.0}
        fsm = {int(k): float(v) for k, v in self.smearing.items() if v != 0.0}
        if not chi or not fsm:
            raise ValueError("switching and smearing need nonzero support")
        if self.coupling < 0:
            raise ValueError("coupling must be nonnegative")
        if self.pointlike and len(fsm) != 1:
            raise ValueError("pointlike detector sits at a single site")
        object.__setattr__(self, "switching", chi)
        object.__setattr__(self, "smearing", fsm)

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(sorted(self.switching))

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(sorted(self.smearing))

    def region(self, f: FieldModel) -> CellRegion:
        pts = [(n, s) for n in self.steps for s in self.sites]
        return cells(pts, period=f.sites)

    def mu(self, t: float) -> np.ndarray:
        return monopole(self.gap, t)


def detector(label: str, gap: float, coupling: float, step_lo: int, step_hi: int,
             site_lo: int, site_hi: int) -> DetectorSpec:
    """Box switching and box smearing over closed index ranges."""
    return DetectorSpec(label, gap, coupling, box_profile(step_lo, step_hi),
                        box_profile(site_lo, site_hi))


def point_detector(label: str, gap: float, coupling: float, step_lo: int,
                   step_hi: int, site: int) -> DetectorSpec:
    return DetectorSpec(label, gap, coupling, box_profile(step_lo, step_hi),
                        {int(site): 1.0}, pointlike=True)


def current_microcausality(d: DetectorSpec, f: FieldModel,
                           tol: Tolerances = DEFAULT) -> tuple[int, float]:
    """Scan spacelike point pairs in the interaction support for commuting
    currents; returns (violating pair count, worst weighted commutator norm).

    The current at a point is chi F mu, so the commutator norm reduces to
    2 |sin(omega dt dn)| times the profile weights.
    """
    pts = [(n, s, cv * sv) for n, cv in d.switching.items()
           for s, sv in d.smearing.items()]
    worst = 0.0
    count = 0
    for i, (n1, s1, w1) in enumerate(pts):
        for n2, s2, w2 in pts[i + 1:]:
            if _ring(s1 - s2, f.sites) <= abs(n1 - n2):
                continue
            val = 2.0 * abs(np.sin(d.gap * f.dt * (n1 - n2))) * abs(w1 * w2)
            if val > tol.operator:
                count += 1
            worst = max(worst, val)
    return count, worst


# second-order perturbation theory against the vacuum

@dataclass(frozen=True)
class PerturbativeState:
    """Reduced detector state by perturbative order; couplings included."""
    orders: tuple[np.ndarray, ...]
    signal: np.ndarray
    noise: np.ndarray
    tol: Tolerances = dfield(default=DEFAULT, repr=False)

    def __post_init__(self):
        if abs(np.trace(self.orders[0]) - 1.0) > self.tol.trace:
            raise ValueError("zeroth order must have unit trace")
        for k, m in enumerate(self.orders[1:], start=1):
            if abs(np.trace(m)) > self.tol.trace:
                raise ValueError(f"order {k} term must be traceless")
        for m in self.orders:
            if herm_defect(m) > self.tol.hermitian * max(1.0, opnorm(m)):
                raise ValueError("order terms must be Hermitian")

    def evaluate(self) -> np.ndarray:
        return sum(self.orders)


def _slab(f: FieldModel, prof_l: Mapping[int, float], prof_r: Mapping[int, float],
          dn: int, modes: Sequence[int] | None, kind: str) -> complex:
    """a^2 sum F_l(s) F_r(s') K(n, s; n - dn, s') for the vacuum kernel `kind`
    ("commutator" or "wightman") at step offset dn."""
    sl = np.array(sorted(prof_l))
    sr = np.array(sorted(prof_r))
    wl = np.array([prof_l[s] for s in sl])
    wr = np.array([prof_r[s] for s in sr])
    ker = _kernel(f, dn, np.subtract.outer(sl, sr), modes, kind)
    return complex(f.spacing ** 2 * np.einsum("i,ij,j->", wl, ker, wr))


def _mean_moment(rho: np.ndarray, gap: float, t: float) -> float:
    return float(np.real(np.trace(rho @ monopole(gap, t))))


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, "nuc"))


def signal_noise_split(a: DetectorSpec, b: DetectorSpec, f: FieldModel,
                       rho_a: np.ndarray, rho_b: np.ndarray,
                       modes: Sequence[int] | None = None,
                       tol: Tolerances = DEFAULT) -> PerturbativeState:
    """Second-order reduced state of detector B with uncorrelated initials.

    The cross term at order lambda_A lambda_B collapses onto the smeared field
    commutator between the two coupling slabs: only orderings with A acting
    first survive the trace over A and the field, leaving

        signal = -lA lB dt^2 sum_{n >= n'} w chiB(n) chiA(n') mA(n')
                 * <[phi(FB, n), phi(FA, n')]> * [muB(t_n), rhoB],

    with w = 1/2 on the equal-time diagonal (the weight that matches the
    per-step propagator product; on the full lattice the equal-time
    commutator vanishes anyway, while mode-restricted kernels need it).  The
    lambda_B^2 noise term is local to B (Wightman weights, same half-weight
    diagonal), and the lambda_A^2 contribution to B's reduced state cancels
    by trace cyclicity.
    """
    dt = f.dt
    sig = -1j * commutator(sigma_operator(a, b, f, rho_a, modes), rho_b)

    noise = np.zeros((2, 2), dtype=complex)
    for n, cb in b.switching.items():
        mu_n = monopole(b.gap, n * dt)
        for np_, cb2 in b.switching.items():
            if n < np_:
                continue
            weight = 0.5 if n == np_ else 1.0
            wf = _slab(f, b.smearing, b.smearing, n - np_, modes, "wightman")
            mu_p = monopole(b.gap, np_ * dt)
            noise += -weight * cb * cb2 * (
                wf * (mu_n @ mu_p @ rho_b - mu_p @ rho_b @ mu_n)
                + np.conj(wf) * (rho_b @ mu_p @ mu_n - mu_n @ rho_b @ mu_p))
    noise *= b.coupling ** 2 * dt * dt

    zero = np.zeros((2, 2), dtype=complex)
    return PerturbativeState((rho_b.astype(complex), zero, sig + noise),
                             signal=sig, noise=noise, tol=tol)


def sigma_operator(a: DetectorSpec, b: DetectorSpec, f: FieldModel,
                   rho_a: np.ndarray,
                   modes: Sequence[int] | None = None) -> np.ndarray:
    """Hermitian kernel operator on B carrying the whole signal term.

    Sigma = lA lB dt^2 sum_{n >= n'} w chiB chiA mA(n') (-i K(n, n')) muB(t_n)
    with K the smeared slab commutator and w = 1/2 on the diagonal; -i K is
    real, so Sigma is Hermitian and -i [Sigma, rhoB] reproduces the signal
    term of signal_noise_split.
    """
    dt = f.dt
    out = np.zeros((2, 2), dtype=complex)
    for n, cb in b.switching.items():
        acc = 0.0j
        for np_, ca in a.switching.items():
            if n < np_:
                continue
            weight = 0.5 if n == np_ else 1.0
            acc += weight * cb * ca * _mean_moment(rho_a, a.gap, np_ * dt) \
                * _slab(f, b.smearing, a.smearing, n - np_, modes, "commutator")
        out += (-1j * acc) * monopole(b.gap, n * dt)
    return a.coupling * b.coupling * dt * dt * out


# exact and series scattering operators on a truncated Fock backend

class MatrixPoly:
    """Polynomial in formal coupling variables with matrix coefficients,
    truncated at a fixed total degree."""

    __slots__ = ("nvars", "dim", "degree", "terms")

    def __init__(self, nvars: int, dim: int, degree: int,
                 terms: dict[tuple[int, ...], np.ndarray] | None = None):
        self.nvars = nvars
        self.dim = dim
        self.degree = degree
        self.terms = terms or {}

    @classmethod
    def constant(cls, m: np.ndarray, nvars: int, degree: int) -> "MatrixPoly":
        e = (0,) * nvars
        return cls(nvars, m.shape[0], degree, {e: m.astype(complex)})

    @classmethod
    def exp_linear(cls, gens: Sequence[tuple[int, np.ndarray]], nvars: int,
                   degree: int) -> "MatrixPoly":
        """Truncated series of exp(sum_v lambda_v G_v)."""
        dim = gens[0][1].shape[0]
        x = cls(nvars, dim, degree)
        for v, g in gens:
            e = tuple(1 if i == v else 0 for i in range(nvars))
            x.terms[e] = x.terms.get(e, np.zeros((dim, dim), complex)) + g
        out = cls.constant(np.eye(dim), nvars, degree)
        power = cls.constant(np.eye(dim), nvars, degree)
        fact = 1.0
        for k in range(1, degree + 1):
            power = power @ x
            if not power.terms:
                break
            fact *= k
            out = out + power.scale(1.0 / fact)
        return out

    def scale(self, c: complex) -> "MatrixPoly":
        return MatrixPoly(self.nvars, self.dim, self.degree,
                          {e: c * m for e, m in self.terms.items()})

    def __add__(self, other: "MatrixPoly") -> "MatrixPoly":
        out = dict(self.terms)
        for e, m in other.terms.items():
            out[e] = out[e] + m if e in out else m
        return MatrixPoly(self.nvars, self.dim, self.degree, out)

    def __matmul__(self, other: "MatrixPoly") -> "MatrixPoly":
        out: dict[tuple[int, ...], np.ndarray] = {}
        for e1, m1 in self.terms.items():
            d1 = sum(e1)
            for e2, m2 in other.terms.items():
                if d1 + sum(e2) > self.degree:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = m1 @ m2
                out[e] = out[e] + prod if e in out else prod
        return MatrixPoly(self.nvars, self.dim, self.degree, out)

    def dagger(self) -> "MatrixPoly":
        return MatrixPoly(self.nvars, self.dim, self.degree,
                          {e: dag(m) for e, m in self.terms.items()})

    def coefficient(self, expo: tuple[int, ...]) -> np.ndarray:
        return self.terms.get(tuple(expo), np.zeros((self.dim, self.dim), complex))

    def evaluate(self, values: Sequence[float]) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for e, m in self.terms.items():
            w = 1.0
            for ex, v in zip(e, values):
                w *= v ** ex
            out += w * m
        return out


def joint_space(fb: FockBackend, dets: Sequence[DetectorSpec]) -> ProductSpace:
    """Detector qubit factors (in order) followed by the field mode factors."""
    return ProductSpace(tuple((d.label, 2) for d in dets) + fb.space.factors)


def joint_state(fb: FockBackend, det_states: Sequence[np.ndarray]) -> np.ndarray:
    rho = np.array([[1.0 + 0j]])
    for m in det_states:
        rho = np.kron(rho, m)
    vac = fb.vacuum
    return np.kron(rho, np.outer(vac, vac.conj()))


def _phi_slice(fb: FockBackend, profile: Mapping[int, float], n: int) -> np.ndarray:
    """a * sum_s F(s) phi(n, s) on the backend space."""
    coeff = None
    for s, w in profile.items():
        c = fb.field.spacing * w * fb.phi_coeffs((n, s))
        coeff = c if coeff is None else coeff + c
    return fb._from_coeffs(coeff).matrix


def _interaction_generators(dets: Sequence[DetectorSpec], fb: FockBackend,
                            sp: ProductSpace):
    """Per-step list of (detector index, -i dt H / lambda) generator matrices;
    the couplings lambda are left out."""
    mode_labels = fb.space.labels
    by_step: dict[int, list[tuple[int, np.ndarray]]] = {}
    for v, d in enumerate(dets):
        for n, chi in d.switching.items():
            mu = _embed_matrix(d.mu(n * fb.field.dt), [d.label], sp)
            phi = _embed_matrix(_phi_slice(fb, d.smearing, n), mode_labels, sp)
            g = -1j * fb.field.dt * chi * (mu @ phi)
            by_step.setdefault(n, []).append((v, g))
    return by_step


def scattering_operator(dets: Sequence[DetectorSpec], fb: FockBackend) -> LocalOperator:
    """Step-ordered product of per-step matrix exponentials over the
    detectors' switching window (unitary up to truncation edge effects)."""
    sp = joint_space(fb, dets)
    by_step = _interaction_generators(dets, fb, sp)
    s = np.eye(sp.dim, dtype=complex)
    for n in sorted(by_step):
        # each generator is -i K with K = dt lambda chi mu phi Hermitian
        k = 1j * sum(dets[v].coupling * m for v, m in by_step[n])
        s = expih(k, -1.0) @ s
    return LocalOperator(sp, s)


def scattering_series(dets: Sequence[DetectorSpec], fb: FockBackend,
                      order: int) -> MatrixPoly:
    """Coupling power series of the propagator product; one variable per
    detector, couplings factored out (evaluate with the lambda values)."""
    sp = joint_space(fb, dets)
    by_step = _interaction_generators(dets, fb, sp)
    nv = len(dets)
    out = MatrixPoly.constant(np.eye(sp.dim), nv, order)
    for n in sorted(by_step):
        out = MatrixPoly.exp_linear(by_step[n], nv, order) @ out
    return out


class FactorizationResult(NamedTuple):
    residual: float
    commutation: float | None


def causal_factorization_check(a: DetectorSpec, b: DetectorSpec,
                               fb: FockBackend) -> FactorizationResult:
    """Compare the joint propagator with the split product S_B S_A.

    Requires that B's interaction region does not reach into A's past; when
    the regions are spacelike the commutation defect of the two one-detector
    propagators is reported as well.
    """
    f = fb.field
    ra, rb = a.region(f), b.region(f)
    if precedes(rb, ra):
        raise NotCausallyOrderable(
            f"region of {b.label!r} meets the past of {a.label!r}")
    sp = joint_space(fb, [a, b])
    modes = list(fb.space.labels)
    s_ab = scattering_operator([a, b], fb).matrix
    sa = _embed_matrix(scattering_operator([a], fb).matrix, [a.label] + modes, sp)
    sb = _embed_matrix(scattering_operator([b], fb).matrix, [b.label] + modes, sp)
    res = opnorm(s_ab - sb @ sa)
    comm = opnorm(sa @ sb - sb @ sa) if spacelike(ra, rb) else None
    return FactorizationResult(res, comm)


def tripartite_order_count(kick: SmearingFn, a: DetectorSpec | None,
                           b: DetectorSpec,
                           fb: FockBackend, d_b: np.ndarray,
                           rho_a: np.ndarray | None, rho_b: np.ndarray,
                           max_order: int = 4,
                           regions: tuple[CellRegion, CellRegion, CellRegion] | None = None,
                           ) -> dict[int, float]:
    """Kick-dependent coefficients of <D_B>, order by order in (kick, A, B).

    The kick exp(i g phi(K)) is inserted before the detector couplings in step
    order; the final B expectation is expanded jointly to max_order total
    coupling powers and, per total order, the largest coefficient magnitude
    carrying at least one kick power is reported.  The region triple (by
    default the exact supports, or explicit enclosing regions so a pointlike
    probe can stand in for an extended one) must classify as kick / bridge /
    receiver in the Sorkin sense, with kick and receiver spacelike.  Passing
    a=None removes the bridge detector entirely, the zero-coupling control.
    """
    f = fb.field
    if a is not None:
        if regions is None:
            regions = (kick.region, a.region(f), b.region(f))
        else:
            for sub, kept in ((kick.region, regions[0]), (a.region(f), regions[1]),
                              (b.region(f), regions[2])):
                if not set(sub.cells) <= set(kept.cells):
                    raise ValueError("support must lie inside its declared region")
        cls = classify_configuration(*regions)
        if cls != "sorkin_type":
            raise NotSorkinType(f"region triple classifies as {cls}")
    kick_step = max(n for n, _ in kick.weights)
    dets = [b] if a is None else [a, b]
    offset = 2 if a is None else 1
    sp = joint_space(fb, dets)
    gen_k = _embed_matrix(fb.phi_smeared(kick).matrix, fb.space.labels, sp)
    by_step = _interaction_generators(dets, fb, sp)
    nv = 3
    shifted = {n: [(v + offset, g) for v, g in gens] for n, gens in by_step.items()}
    out = MatrixPoly.exp_linear([(0, 1j * gen_k)], nv, max_order)
    for n in sorted(shifted):
        if n <= kick_step:
            raise ValueError("detector switchings must follow the kick step")
        out = MatrixPoly.exp_linear(shifted[n], nv, max_order) @ out
    states = [rho_b] if a is None else [rho_a, rho_b]
    rho0 = MatrixPoly.constant(joint_state(fb, states), nv, max_order)
    rho = out @ rho0 @ out.dagger()
    db = _embed_matrix(np.asarray(d_b, dtype=complex), [b.label], sp)
    report: dict[int, float] = {k: 0.0 for k in range(1, max_order + 1)}
    for e, m in rho.terms.items():
        if e[0] == 0:
            continue
        o = sum(e)
        if 1 <= o <= max_order:
            val = abs(complex(np.trace(db @ m)))
            report[o] = max(report[o], val)
    return report


# measurement-update rules for a single detector

def detector_update_selective(rho_joint: np.ndarray, s1: np.ndarray,
                              p2: np.ndarray, det_dim: int = 2,
                              t1: float | None = None, t2: float | None = None,
                              tol: Tolerances = DEFAULT) -> tuple[np.ndarray, float]:
    """Project the detector factor after the interaction has switched off.

    rho' = (P (x) 1) S rho S^dag (P (x) 1) / p with the detector factor first.
    """
    if t1 is not None and t2 is not None and t2 < t1:
        raise ValueError("selection must not precede switch-off")
    dim = rho_joint.shape[0]
    proj = np.kron(p2, np.eye(dim // det_dim))
    return select_outcome(proj, s1 @ rho_joint @ dag(s1), tol)


def kraus_operators(s1: np.ndarray, psi: np.ndarray, det_dim: int = 2,
                    basis: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """Field-factor Kraus operators M_i = <i| S |psi> for a detector prepared
    in psi and read out in the given (default computational) basis."""
    fdim = s1.shape[0] // det_dim
    s4 = s1.reshape(det_dim, fdim, det_dim, fdim)
    amp = np.einsum("ifjg,j->ifg", s4, np.asarray(psi, dtype=complex))
    if basis is None:
        return [amp[i] for i in range(det_dim)]
    bs = np.array([np.asarray(v, dtype=complex) for v in basis])
    gram = bs.conj() @ bs.T
    if opnorm(gram - np.eye(len(bs))) > 1e-10:
        raise ValueError("readout basis must be orthonormal")
    return [np.einsum("i,ifg->fg", v.conj(), amp) for v in bs]


def kraus_series(d: DetectorSpec, fb: FockBackend, psi: np.ndarray,
                 order: int) -> dict[int, list[np.ndarray]]:
    """Per-order Kraus operators from the coupling power series of S."""
    series = scattering_series([d], fb, order)
    out: dict[int, list[np.ndarray]] = {}
    for (k,), m in series.terms.items():
        out[k] = kraus_operators(m, psi)
    return out


def nonselective_forms(rho_f: np.ndarray, s1: np.ndarray, psi: np.ndarray,
                       det_dim: int = 2,
                       basis: Sequence[np.ndarray] | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Outcome-summed update both ways: Kraus sum and detector partial trace."""
    ms = kraus_operators(s1, psi, det_dim, basis)
    ns1 = sum(m @ rho_f @ dag(m) for m in ms)
    psi = np.asarray(psi, dtype=complex)
    joint = s1 @ np.kron(np.outer(psi, psi.conj()), rho_f) @ dag(s1)
    fdim = rho_f.shape[0]
    ns2 = np.einsum("ifig->fg", joint.reshape(det_dim, fdim, det_dim, fdim))
    return ns1, ns2


def detector_update_nonselective(rho_f: np.ndarray, s1: np.ndarray,
                                 psi: np.ndarray, det_dim: int = 2,
                                 basis: Sequence[np.ndarray] | None = None,
                                 tol: Tolerances = DEFAULT) -> np.ndarray:
    ns1, ns2 = nonselective_forms(rho_f, s1, psi, det_dim, basis)
    if opnorm(ns1 - ns2) > tol.operator * max(1.0, opnorm(ns1)):
        raise CausalqError("Kraus sum and partial-trace updates disagree")
    return ns1


def dual_map_commutator(s1: np.ndarray, psi: np.ndarray, x_field: np.ndarray,
                        u_field: np.ndarray, det_dim: int = 2) -> float:
    """Norm of [E^dual(X), U] for the induced non-selective field channel.

    E^dual(X) = sum_i M_i^dag X M_i; a nonzero value flags that applying the
    update and applying the unitary do not commute as field-factor maps.
    """
    ms = kraus_operators(s1, psi, det_dim)
    ex = sum(dag(m) @ x_field @ m for m in ms)
    return opnorm(ex @ u_field - u_field @ ex)


def bipartite_presets(f: FieldModel) -> list[dict]:
    """Reference A/B placements for the second-order signalling estimators.

    Mixes spacelike pairs (exact zero signal expected), pairs with B inside
    A's future cone (nonzero signal), and one truncated-Gaussian pair whose
    compact supports remain spacelike.
    """
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    mid = f.sites // 2
    out = []

    def entry(tag, a, b, rho_a, spacelike_flag):
        out.append({"tag": tag, "a": a, "b": b, "rho_a": rho_a,
                    "rho_b": ground, "spacelike": spacelike_flag})

    entry("spacelike_boxes",
          detector("A", 0.0, 0.7, 2, 5, 2, 5),
          detector("B", 0.0, 0.9, 2, 5, mid, mid + 3), plus, True)
    entry("spacelike_gapped",
          detector("A", 1.3, 0.5, 3, 6, 1, 4),
          detector("B", 0.8, 0.6, 2, 7, mid - 2, mid + 2), plus, True)
    entry("spacelike_points",
          point_detector("A", 0.9, 1.0, 2, 6, 0),
          point_detector("B", 0.4, 1.0, 3, 7, mid), plus, True)
    entry("spacelike_wide",
          detector("A", 0.6, 0.8, 1, 8, 0, 6),
          detector("B", 1.1, 0.8, 1, 8, mid - 1, mid + 5), plus, True)
    entry("spacelike_gauss",
          DetectorSpec("A", 0.5, 0.7, gaussian_profile(4, 0.8, cut=3.0),
                       gaussian_profile(4, 0.8, cut=3.0)),
          DetectorSpec("B", 0.5, 0.7, gaussian_profile(4, 0.8, cut=3.0),
                       gaussian_profile(mid + 4, 0.8, cut=3.0)), plus, True)
    entry("timelike_cone",
          detector("A", 0.0, 0.7, 2, 4, 10, 12),
          detector("B", 0.0, 0.9, 10, 13, 8, 14), plus, False)
    entry("timelike_gapped",
          detector("A", 1.1, 0.6, 2, 4, 10, 12),
          detector("B", 0.7, 0.8, 9, 14, 9, 13), plus, False)
    entry("timelike_points",
          point_detector("A", 0.0, 1.0, 2, 3, 10),
          point_detector("B", 0.9, 1.0, 8, 12, 11), plus, False)
    entry("timelike_excited",
          detector("A", 0.8, 0.5, 2, 5, 10, 11),
          detector("B", 1.3, 0.5, 12, 16, 6, 15),
          np.array([[0.3, 0.35], [0.35, 0.7]], dtype=complex), False)
    entry("null_edge",
          detector("A", 0.0, 0.9, 2, 3, 10, 10),
          detector("B", 0.5, 0.9, 6, 8, 13, 15), plus, False)
    return out


def power_fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
