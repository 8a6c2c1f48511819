"""Two-level detectors coupled to the lattice field.

A detector is a qubit with energy gap omega, a switching profile over time
steps, and a spatial smearing profile over sites; the interaction at step n is
lambda * chi(n) * mu(t_n) (x) phi(F, n) with mu the interaction-picture
monopole and phi(F, n) the spatially smeared field on that slice.

Three layers of machinery share this interaction, each coupling gate kept on
its own factors (detector and modes) and applied on their axes:

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

Order counting rides on that series: a local kick before two detector
couplings is expanded jointly in (kick, A, B) powers on the few columns W of
rho0 = W W^dag, and the kick-dependent coefficients of a B observable are
block traces of one Gram product of those columns, reported order by order.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .causal import (CellRegion, _ring, cells, classify_configuration, precedes,
                     spacelike)
from .config import DEFAULT, Tolerances
from .errors import (CausalqError, NotCausallyOrderable, NotHermitian,
                     NotSorkinType, ValidationError)
from .field import FieldModel, FockBackend, SmearingFn, _two_point
from .qops import (LocalOperator, ProductSpace, _apply_matrix, _embed_matrix,
                   check_density, commutator, dag, expih, factor, is_hermitian,
                   opnorm, select_outcome, sigma_m, sigma_p, within)

__all__ = [
    "DetectorSpec", "PerturbativeState", "FactorizationResult", "MatrixPoly",
    "monopole", "box_profile", "gaussian_profile", "detector", "point_detector",
    "current_microcausality", "signal_noise_split", "sigma_operator",
    "trace_norm", "joint_space", "joint_state", "scattering_operator",
    "scattering_series", "causal_factorization_check", "tripartite_order_count",
    "detector_update_selective", "detector_update_nonselective",
    "nonselective_forms", "kraus_operators", "kraus_series",
    "dual_map_commutator",
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
        for k, m in enumerate(self.orders):
            if not is_hermitian(m, self.tol):
                raise NotHermitian(f"order {k} term is not Hermitian")
            if abs(np.trace(m) - float(k == 0)) > self.tol.trace:
                raise ValidationError("zeroth order must have unit trace" if k == 0
                                      else f"order {k} term must be traceless")

    def evaluate(self) -> np.ndarray:
        return sum(self.orders)


def _step_pairs(f: FieldModel, l: DetectorSpec, r: DetectorSpec, kind: str,
                modes: Sequence[int] | None) -> np.ndarray:
    """w chi_l(n) chi_r(n') a^2 sum F_l(s) F_r(s') K(n, s; n', s') for the
    vacuum kernel `kind` ("commutator" or "wightman"), rows over l's steps n
    and columns over r's steps n', both ascending; the step-order weight w is
    1 for n > n', 1/2 on the equal-time diagonal and 0 for n < n'."""
    nl, nr, sl, sr = (np.array(k) for k in (l.steps, r.steps, l.sites, r.sites))
    ker = _two_point(f, (nl[:, None, None, None], sl[:, None]),
                     (nr[:, None, None], sr), kind, modes)
    smeared = f.spacing ** 2 * np.einsum(
        "k,ijkl,l->ij", [l.smearing[s] for s in sl], ker, [r.smearing[s] for s in sr])
    chi = np.outer([l.switching[n] for n in nl], [r.switching[n] for n in nr])
    return (np.sign(np.subtract.outer(nl, nr)) + 1) / 2 * chi * smeared


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
    rho_a = check_density(rho_a, 2, tol, "rho_a")
    rho_b = check_density(rho_b, 2, tol, "rho_b")
    sig = -1j * commutator(sigma_operator(a, b, f, rho_a, modes), rho_b)
    # the conjugate-kernel terms are the adjoint of the kernel terms x
    c = _step_pairs(f, b, b, "wightman", modes)
    mus = np.array([monopole(b.gap, n * f.dt) for n in b.steps])
    x = (np.einsum("ab,aij,bjk->ik", c, mus, mus) @ rho_b
         - np.einsum("ab,bij,jk,akl->il", c, mus, rho_b, mus))
    noise = -b.coupling ** 2 * f.dt * f.dt * (x + dag(x))
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
    ma = [_mean_moment(rho_a, a.gap, n * dt) for n in a.steps]
    acc = -1j * _step_pairs(f, b, a, "commutator", modes) @ ma
    mus = np.array([monopole(b.gap, n * dt) for n in b.steps])
    return a.coupling * b.coupling * dt * dt * np.einsum("n,nij->ij", acc, mus)


# exact and series scattering operators on a truncated Fock backend

Gate = tuple[int, Sequence[str], np.ndarray]   # (variable, factor labels, matrix)


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

    def exp_apply(self, gates: Sequence[Gate], sp: ProductSpace) -> "MatrixPoly":
        """Truncated exp(sum_v lambda_v G_v) @ self, summed as x <- G x / k, for
        gates (v, labels, g) with g on the factors `labels` of `sp`.  Per degree
        the terms below the top degree are set side by side, so each gate is
        one `_apply_matrix` call: O(d r g) per d x r term, g the gate dimension."""
        out, x = dict(self.terms), self.terms
        for k in range(1, self.degree + 1):
            live = [e for e in x if sum(e) < self.degree]
            if not live:
                break
            stack = np.concatenate([x[e] for e in live], axis=1)
            shape = (self.dim, len(live), -1)  # term i of live is y[:, i]
            ys = [(v, (_apply_matrix(g, labels, sp, stack) / k).reshape(shape))
                  for v, labels, g in gates]
            nxt: dict[tuple[int, ...], np.ndarray] = {}
            for i, e in enumerate(live):
                for v, y in ys:
                    e2 = e[:v] + (e[v] + 1,) + e[v + 1:]
                    nxt[e2] = nxt[e2] + y[:, i] if e2 in nxt else y[:, i]
            x = nxt
            for e, m in x.items():
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


def _interaction_generators(dets: Sequence[DetectorSpec],
                            fb: FockBackend) -> dict[int, list[Gate]]:
    """Per-step list of gates (detector index, [label, *mode labels], -i dt H /
    lambda); the couplings lambda are left out.  Each matrix is mu(t_n) (x)
    phi_n, with phi_n = a sum_s F(s) phi(n, s), on the detector and mode
    factors only: nothing is placed on the joint space."""
    f = fb.field
    by_step: dict[int, list[Gate]] = {}
    for v, d in enumerate(dets):
        labels = [d.label, *fb.space.labels]
        for n, chi in d.switching.items():
            phi = fb._field_matrix({(n, s): w for s, w in d.smearing.items()}, f.spacing)
            g = -1j * f.dt * chi * np.kron(d.mu(n * f.dt), phi)
            by_step.setdefault(n, []).append((v, labels, g))
    return by_step


def scattering_operator(dets: Sequence[DetectorSpec], fb: FockBackend) -> LocalOperator:
    """Step-ordered product of per-step matrix exponentials over the
    detectors' switching window (unitary up to truncation edge effects)."""
    sp = joint_space(fb, dets)
    by_step = _interaction_generators(dets, fb)
    s = np.eye(sp.dim, dtype=complex)
    for n in sorted(by_step):
        # each generator is -i K with K = dt lambda chi mu phi Hermitian
        k = 1j * sum(dets[v].coupling * _embed_matrix(g, labels, sp)
                     for v, labels, g in by_step[n])
        s = expih(k, -1.0) @ s
    return LocalOperator(sp, s)


def scattering_series(dets: Sequence[DetectorSpec], fb: FockBackend,
                      order: int) -> MatrixPoly:
    """Coupling power series of the propagator product; one variable per
    detector, couplings factored out (evaluate with the lambda values)."""
    sp = joint_space(fb, dets)
    by_step = _interaction_generators(dets, fb)
    out = MatrixPoly.constant(np.eye(sp.dim), len(dets), order)
    for n in sorted(by_step):
        out = out.exp_apply(by_step[n], sp)
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
    (sa, la), (sb, lb) = ((scattering_operator([d], fb).matrix,
                           [d.label, *fb.space.labels]) for d in (a, b))
    sb_sa = _apply_matrix(sb, lb, sp, _embed_matrix(sa, la, sp))
    res = opnorm(scattering_operator([a, b], fb).matrix - sb_sa)
    comm = (opnorm(_apply_matrix(sa, la, sp, _embed_matrix(sb, lb, sp)) - sb_sa)
            if spacelike(ra, rb) else None)
    return FactorizationResult(res, comm)


def tripartite_order_count(kick: SmearingFn, a: DetectorSpec | None,
                           b: DetectorSpec,
                           fb: FockBackend, d_b: np.ndarray,
                           rho_a: np.ndarray | None, rho_b: np.ndarray,
                           max_order: int = 4,
                           regions: tuple[CellRegion, CellRegion, CellRegion] | None = None,
                           tol: Tolerances = DEFAULT) -> dict[int, float]:
    """Kick-dependent coefficients of <D_B>, order by order in (kick, A, B).

    The kick exp(i g phi(K)) is inserted before the detector couplings in step
    order; the final B expectation is expanded jointly to max_order total
    coupling powers and, per total order, the largest coefficient magnitude
    carrying at least one kick power is reported; the couplings are formal
    variables and are not read.  The region triple (by default the exact
    supports, or explicit enclosing regions so a pointlike probe can stand in
    for an extended one) must classify as kick / bridge / receiver in the
    Sorkin sense, with kick and receiver spacelike.  Passing a=None removes
    the bridge detector entirely, the zero-coupling control.

    No density matrix series is formed: rho0 = W W^dag with W = sqrt(rho_A)
    (x) sqrt(rho_B) (x) |vac> of r <= 4 columns, whose T series terms U_e W go
    through the kick and every step by `MatrixPoly.exp_apply`.  Side by side
    they are S (d x T r), and one Gram product S^dag (D_B S), with D_B on B's
    factor, holds every tr((U_e2 W)^dag D_B U_e1 W) as an r x r block trace;
    c_e = sum_{e1+e2=e} of those is one scatter-add over exponent pairs.
    """
    f = fb.field
    if a is not None:
        exact = (kick.region, a.region(f), b.region(f))
        regions = regions or exact
        if any(not set(sub.cells) <= set(kept.cells) for sub, kept in zip(exact, regions)):
            raise ValueError("support must lie inside its declared region")
        cls = classify_configuration(*regions)
        if cls != "sorkin_type":
            raise NotSorkinType(f"region triple classifies as {cls}")
    dets = [b] if a is None else [a, b]
    if min(n for d in dets for n in d.steps) <= max(n for n, _ in kick.weights):
        raise ValueError("detector switchings must follow the kick step")
    named = {"rho_b": rho_b} if a is None else {"rho_a": rho_a, "rho_b": rho_b}
    w = fb.vacuum[:, None]
    for what, rho in reversed(named.items()):
        w = np.kron(factor(check_density(rho, 2, tol, what)), w)  # W W^dag = rho
    sp = joint_space(fb, dets)
    # series variables 0, 1, 2 are the kick, A and B couplings
    kick_gate = (0, fb.space.labels, 1j * fb.phi_smeared(kick).matrix)
    cols = MatrixPoly.constant(w, 3, max_order).exp_apply([kick_gate], sp)
    for _, gates in sorted(_interaction_generators(dets, fb).items()):
        cols = cols.exp_apply([(v + 3 - len(dets), labels, g) for v, labels, g in gates], sp)
    # tr[i, j] = tr((U_i W)^dag D_B U_j W), the r x r block traces of one Gram product
    exps, r = np.array(list(cols.terms)), w.shape[1]
    stack = np.concatenate(list(cols.terms.values()), axis=1)
    gram = dag(stack) @ _apply_matrix(d_b, [b.label], sp, stack)
    tr = np.trace(gram.reshape(len(exps), r, len(exps), r), axis1=1, axis2=3)
    # c_e sums tr over the pairs with e_i + e_j = e, total <= max_order, kick power >= 1
    tot, kicks = exps.sum(1), exps[:, 0]
    i, j = np.nonzero((np.add.outer(tot, tot) <= max_order)
                      & (np.add.outer(kicks, kicks) > 0))
    c = np.zeros((max_order + 1,) * 3, complex)
    np.add.at(c, tuple((exps[i] + exps[j]).T), tr[i, j])
    total = np.indices(c.shape).sum(0)
    return {k: float(abs(c[total == k]).max()) for k in range(1, max_order + 1)}


# measurement-update rules for a single detector

def detector_update_selective(rho_joint: np.ndarray, s1: np.ndarray, p2: np.ndarray,
                              t1: float | None = None, t2: float | None = None,
                              tol: Tolerances = DEFAULT) -> tuple[np.ndarray, float]:
    """Project the detector factor after the interaction has switched off.

    rho' = (P (x) 1) S rho S^dag (P (x) 1) / p with the detector factor first.
    """
    if t1 is not None and t2 is not None and t2 < t1:
        raise ValueError("selection must not precede switch-off")
    proj = _embed_matrix(p2, ["d"], ProductSpace((("d", 2), ("f", len(s1) // 2))))
    return select_outcome(proj, s1 @ rho_joint @ dag(s1), tol)


def kraus_operators(s1: np.ndarray, psi: np.ndarray,
                    basis: Sequence[np.ndarray] | None = None,
                    tol: Tolerances = DEFAULT) -> list[np.ndarray]:
    """Field-factor Kraus operators M_i = <i| S |psi> for a detector prepared
    in psi, read out in the given (default computational) orthonormal basis."""
    s4 = s1.reshape(2, len(s1) // 2, 2, -1)
    amp = np.einsum("ifjg,j->ifg", s4, np.asarray(psi, dtype=complex))
    if basis is None:
        return list(amp)
    bs = np.array([np.asarray(v, dtype=complex) for v in basis])
    gram = bs.conj() @ bs.T
    if not within(gram - np.eye(len(bs)), tol.unitary):
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
                       basis: Sequence[np.ndarray] | None = None,
                       tol: Tolerances = DEFAULT
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Outcome-summed update both ways: Kraus sum and detector partial trace."""
    ms = kraus_operators(s1, psi, basis, tol)
    ns1 = sum(m @ rho_f @ dag(m) for m in ms)
    psi = np.asarray(psi, dtype=complex)
    joint = s1 @ np.kron(np.outer(psi, psi.conj()), rho_f) @ dag(s1)
    fdim = rho_f.shape[0]
    ns2 = np.einsum("ifig->fg", joint.reshape(2, fdim, 2, fdim))
    return ns1, ns2


def detector_update_nonselective(rho_f: np.ndarray, s1: np.ndarray, psi: np.ndarray,
                                 basis: Sequence[np.ndarray] | None = None,
                                 tol: Tolerances = DEFAULT) -> np.ndarray:
    ns1, ns2 = nonselective_forms(rho_f, s1, psi, basis, tol)
    if not within(ns1 - ns2, tol.operator * max(1.0, opnorm(ns1))):
        raise CausalqError("Kraus sum and partial-trace updates disagree")
    return ns1


def dual_map_commutator(s1: np.ndarray, psi: np.ndarray, x_field: np.ndarray,
                        u_field: np.ndarray) -> float:
    """Norm of [E^dual(X), U] for the induced non-selective field channel.

    E^dual(X) = sum_i M_i^dag X M_i; a nonzero value flags that applying the
    update and applying the unitary do not commute as field-factor maps.
    """
    ms = kraus_operators(s1, psi)
    ex = sum(dag(m) @ x_field @ m for m in ms)
    return opnorm(ex @ u_field - u_field @ ex)
