"""Probe measurement scheme on a locality-respecting circuit lattice.

The system is an open chain of finite-dimensional sites evolved by layers of
nearest-neighbor unitaries, so Heisenberg supports grow by at most one site
per step and the lattice cones of :mod:`causalq.causal` (with ``period=None``)
are exact causal bounds.  A probe is an extra tensor factor that couples to
single sites through gates confined to a declared cell set K and otherwise
evolves freely.

All measurement-theoretic objects derive from one unitary: with V the coupled
full-window circuit and V0 the uncoupled one, S = V0^dag V and the scattering
map is Theta(X) = S^dag X S.  Operators localized at a cell (t, x) are
represented in the freely-dressed picture W_t^dag (A at x) W_t with W_t the
free circuit up to slice t; Theta then turns them into their coupled
counterparts.  Induced observables contract the probe factor of Theta(1 (x) B)
with the probe preparation, and the update rules are partial traces of
S rho S^dag, optionally filtered by a probe effect.

Within a step the coupling gates act first and the free layer second, so a
gate at cell (s, x) influences exactly the closed cone above (s, x).  This
ordering is what makes the locality statements float-exact rather than
approximate: the scattering map is the time-ordered product of dressed
coupling gates, and every no-go below reduces to dressed gates commuting
because their cone sections at a common slice are disjoint.

V and V0 are built gate by gate in that order, each gate applied on the factor
axes it acts on (``qops._apply_matrix``): O(d^2 g) for a gate of dimension g
on total dimension d, where multiplying in the embedded d x d gate is O(d^3).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .causal import CellRegion, cells, cone_meets, spacelike
from .config import DEFAULT, Tolerances
from .errors import (CouplingOutsideK, DimensionMismatch, GeometryViolation,
                     NotCausallyOrderable, UnknownLabel, ZeroProbability)
from .qops import (ProductSpace, _apply_matrix, _ptrace_matrix,
                   _support_defect, check_density, check_effect,
                   check_unitary, dag, opnorm, space)
from .random_ops import haar_unitary, random_density, random_hermitian

__all__ = [
    "CircuitSpacetime", "ProbeCoupling", "ScatteringMap",
    "Corollary6Report", "BostelmannReport", "random_brickwork",
    "scattering_map", "cell_operator", "operator_support", "support_defect",
    "induced_observable", "update_nonselective", "update_selective",
    "corollary6_check", "bostelmann_check", "cnot_preset", "bostelmann_preset",
]


@dataclass(frozen=True)
class CircuitSpacetime:
    """Open chain of sites evolved by per-step layers of adjacent-site gates.

    ``layers[s]`` is a sequence of ``(site, u)`` pairs applied at step ``s``;
    ``u`` acts on the site alone or on ``(site, site + 1)`` depending on its
    dimension.  Slices are numbered ``0 .. n_steps`` and step ``s`` maps slice
    ``s`` to ``s + 1``.  ``layers=None`` means free identity dynamics.
    """
    n_sites: int
    n_steps: int
    layers: tuple = None
    dims: tuple = None
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        if self.n_sites < 1 or self.n_steps < 1:
            raise ValueError("need at least one site and one step")
        if self.dims is None:
            dims = (2,) * self.n_sites
        elif isinstance(self.dims, int):
            dims = (int(self.dims),) * self.n_sites
        else:
            dims = tuple(int(d) for d in self.dims)
        if len(dims) != self.n_sites or any(d < 2 for d in dims):
            raise ValueError("need one dimension >= 2 per site")
        object.__setattr__(self, "dims", dims)
        raw = self.layers if self.layers is not None else ((),) * self.n_steps
        if len(raw) != self.n_steps:
            raise ValueError(f"expected {self.n_steps} layers, got {len(raw)}")
        layers = []
        for s, layer in enumerate(raw):
            norm, used = [], set()
            for site, u in layer:
                site = int(site)
                u = np.asarray(u, dtype=complex)
                if not 0 <= site < self.n_sites:
                    raise ValueError(f"layer {s}: site {site} out of range")
                d1 = dims[site]
                if u.shape == (d1, d1):
                    span = (site,)
                elif site + 1 < self.n_sites and u.shape == (d1 * dims[site + 1],) * 2:
                    span = (site, site + 1)
                else:
                    raise DimensionMismatch(
                        f"layer {s}: gate at site {site} has shape {u.shape}")
                if used & set(span):
                    raise ValueError(f"layer {s}: overlapping gates at site {site}")
                check_unitary(u, self.tol, f"layer {s}: gate at site {site}")
                used |= set(span)
                norm.append((span, u))
            layers.append(tuple(norm))
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def site_labels(self) -> tuple[str, ...]:
        return tuple(f"s{i}" for i in range(self.n_sites))


def random_brickwork(rng: np.random.Generator, n_sites: int, n_steps: int,
                     dim: int = 2, tol: Tolerances = DEFAULT) -> CircuitSpacetime:
    """Haar-random brickwork: even steps couple (0,1),(2,3),.., odd steps shift."""
    layers = []
    for s in range(n_steps):
        start = s % 2
        layers.append(tuple((i, haar_unitary(dim * dim, rng))
                            for i in range(start, n_sites - 1, 2)))
    return CircuitSpacetime(n_sites, n_steps, tuple(layers), dim, tol)


@dataclass(frozen=True)
class ProbeCoupling:
    """One probe factor: preparation, coupling gates in K, free evolution.

    Each gate is ``((step, site), u)`` with ``u`` a unitary on site (x) probe;
    every gate cell must lie in the declared region K.  ``free`` is an
    optional per-step tuple of probe unitaries (identity when omitted).
    """
    label: str
    dim: int
    sigma: np.ndarray
    gates: tuple = ()
    region: CellRegion | None = None
    free: tuple | None = None
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("probe dimension must be at least 2")
        object.__setattr__(self, "sigma", check_density(
            self.sigma, self.dim, self.tol, f"preparation of {self.label!r}"))
        gates = tuple(((int(n), int(x)), np.asarray(u, dtype=complex))
                      for (n, x), u in self.gates)
        object.__setattr__(self, "gates", gates)
        if self.region is not None and self.region.period is not None:
            raise ValueError("coupling regions live on the open chain")
        if gates:
            if self.region is None:
                raise CouplingOutsideK(f"probe {self.label!r} couples without "
                                       "a declared region")
            stray = [c for c, _ in gates if c not in self.region.cells]
            if stray:
                raise CouplingOutsideK(
                    f"probe {self.label!r} has gates at {sorted(stray)} "
                    "outside its region")
        for (n, x), u in gates:
            check_unitary(u, self.tol, f"gate of {self.label!r} at ({n}, {x})")
        if self.free is not None:
            free = tuple(np.asarray(u, dtype=complex) for u in self.free)
            for u in free:
                if u.shape != (self.dim, self.dim):
                    raise DimensionMismatch("free evolution dim mismatch")
                check_unitary(u, self.tol, f"free evolution of {self.label!r}")
            object.__setattr__(self, "free", free)

    @property
    def coupling_steps(self) -> tuple[int, ...]:
        return tuple(sorted({c[0] for c, _ in self.gates}))


@dataclass(frozen=True, eq=False)
class ScatteringMap:
    """Conjugation X -> S^dag X S with S = V0^dag V on system (x) probes."""
    space: ProductSpace
    circuit: CircuitSpacetime
    probes: tuple
    coupled: tuple
    s: np.ndarray = field(repr=False)
    v0: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    free_prefix: tuple = field(repr=False)

    def theta(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != self.s.shape:
            raise DimensionMismatch(f"operator shape {x.shape} != {self.s.shape}")
        return dag(self.s) @ x @ self.s

    def theta_dual(self, rho: np.ndarray) -> np.ndarray:
        """State-side map rho -> S rho S^dag (trace dual of theta)."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != self.s.shape:
            raise DimensionMismatch(f"state shape {rho.shape} != {self.s.shape}")
        return self.s @ rho @ dag(self.s)

    def probe(self, label: str) -> ProbeCoupling:
        for p in self.probes:
            if p.label == label:
                return p
        raise UnknownLabel(f"no probe {label!r} among "
                           f"{[p.label for p in self.probes]}")


def scattering_map(c: CircuitSpacetime, *probes: ProbeCoupling,
                   coupled: Sequence[str] | None = None) -> ScatteringMap:
    """Build S = V0^dag V with the given probes present.

    ``coupled`` selects which probes' gates enter V (default all); the rest
    ride along freely, so maps for different couplings share one space.
    """
    labels = [p.label for p in probes]
    if len(set(labels)) != len(labels):
        raise ValueError("probe labels must be unique")
    if set(labels) & set(c.site_labels):
        raise ValueError("probe labels collide with site labels")
    coupled = tuple(labels if coupled is None else coupled)
    for l in coupled:
        if l not in labels:
            raise UnknownLabel(f"no probe {l!r} to couple")
    for p in probes:
        if p.free is not None and len(p.free) != c.n_steps:
            raise DimensionMismatch(f"probe {p.label!r} free evolution covers "
                                    f"{len(p.free)} of {c.n_steps} steps")
        if p.region is not None:
            for n, x in p.region.cells:
                if not (0 <= n < c.n_steps and 0 <= x < c.n_sites):
                    raise CouplingOutsideK(
                        f"region cell ({n}, {x}) of probe {p.label!r} "
                        "leaves the circuit window")
        for (n, x), g in p.gates:
            d = c.dims[x] * p.dim
            if g.shape != (d, d):
                raise DimensionMismatch(
                    f"gate of {p.label!r} at ({n}, {x}) has shape {g.shape}, "
                    f"expected {(d, d)}")
    sp = space(*[(l, d) for l, d in zip(c.site_labels, c.dims)],
               *[(p.label, p.dim) for p in probes])
    v0 = np.eye(sp.dim, dtype=complex)
    v = np.eye(sp.dim, dtype=complex)
    prefix = [v0]
    for s in range(c.n_steps):
        kicks = [(g, [f"s{x}", p.label]) for p in probes if p.label in coupled
                 for (n, x), g in sorted(p.gates, key=lambda item: item[0]) if n == s]
        free = [(g, [f"s{i}" for i in span]) for span, g in c.layers[s]]
        free += [(p.free[s], [p.label]) for p in probes if p.free is not None]
        for g, targets in kicks:
            v = _apply_matrix(g, targets, sp, v)
        for g, targets in free:
            v0 = _apply_matrix(g, targets, sp, v0)
            v = _apply_matrix(g, targets, sp, v)
        prefix.append(v0)
    return ScatteringMap(sp, c, tuple(probes), coupled,
                         dag(prefix[-1]) @ v, prefix[-1], v, tuple(prefix))


def cell_operator(sm: ScatteringMap, cell: tuple[int, int],
                  a: np.ndarray) -> np.ndarray:
    """Freely-dressed operator of ``a`` at cell (t, x): W_t^dag (a at x) W_t."""
    t, x = int(cell[0]), int(cell[1])
    c = sm.circuit
    if not 0 <= t <= c.n_steps:
        raise ValueError(f"slice {t} outside 0..{c.n_steps}")
    if not 0 <= x < c.n_sites:
        raise ValueError(f"site {x} outside the chain")
    a = np.asarray(a, dtype=complex)
    if a.shape != (c.dims[x],) * 2:
        raise DimensionMismatch(f"operator shape {a.shape} != site dim {c.dims[x]}")
    w = sm.free_prefix[t]
    return dag(w) @ _apply_matrix(a, [f"s{x}"], sm.space, w)


def support_defect(m: np.ndarray, sp: ProductSpace,
                   labels: Sequence[str]) -> float:
    """Norm distance from ``m`` to operators supported on ``labels`` alone."""
    return _support_defect(np.asarray(m, dtype=complex), sp, frozenset(labels))


def operator_support(m: np.ndarray, sp: ProductSpace,
                     tol: float = DEFAULT.support) -> frozenset:
    """Minimal factor set carrying ``m`` (empty for multiples of identity)."""
    m = np.asarray(m, dtype=complex)
    sup = [l for l in sp.labels
           if _support_defect(m, sp, frozenset(set(sp.labels) - {l})) > tol]
    return frozenset(sup)


def _resolve_probe(sm: ScatteringMap, probe: str | None) -> ProbeCoupling:
    if probe is not None:
        return sm.probe(probe)
    if len(sm.probes) != 1:
        raise ValueError("several probes present; name the one to measure")
    return sm.probes[0]


def induced_observable(sm: ScatteringMap, b: np.ndarray,
                       sigma: np.ndarray | None = None,
                       probe: str | None = None,
                       tol: Tolerances = DEFAULT) -> np.ndarray:
    """System effect eps_sigma(B) = tr_P[(1 (x) sigma) Theta(1 (x) B)].

    Spectator probes are contracted with their own preparations; by locality
    of S they drop out of the result.
    """
    p = _resolve_probe(sm, probe)
    b = check_effect(b, p.dim, tol)
    if sigma is None:
        sigma = p.sigma
    else:
        sigma = check_density(sigma, p.dim, tol, "probe preparation")
    big = dag(sm.s) @ _apply_matrix(b, [p.label], sm.space, sm.s)
    for q in sm.probes:
        big = _apply_matrix(sigma if q is p else q.sigma, [q.label], sm.space, big)
    return _ptrace_matrix(big, sm.space, list(sm.circuit.site_labels))


def _joint_input(sm: ScatteringMap, omega: np.ndarray,
                 overrides: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
    d_sys = int(np.prod(sm.circuit.dims, dtype=np.int64))
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (d_sys, d_sys):
        raise DimensionMismatch(f"system state shape {omega.shape}, "
                                f"expected {(d_sys, d_sys)}")
    overrides = overrides or {}
    rho = omega
    for p in sm.probes:
        rho = np.kron(rho, np.asarray(overrides.get(p.label, p.sigma),
                                      dtype=complex))
    return rho


def update_nonselective(sm: ScatteringMap, omega: np.ndarray,
                        tol: Tolerances = DEFAULT) -> np.ndarray:
    """System state after the coupling window: tr_P[S (omega (x) sigma) S^dag]."""
    omega = check_density(omega, int(np.prod(sm.circuit.dims)), tol, "system state")
    rho = sm.theta_dual(_joint_input(sm, omega))
    return _ptrace_matrix(rho, sm.space, list(sm.circuit.site_labels))


def _selective(sm: ScatteringMap, omega: np.ndarray,
               effects: Mapping[str, np.ndarray], tol: Tolerances,
               overrides: Mapping[str, np.ndarray] | None = None
               ) -> tuple[np.ndarray, float]:
    rho = sm.theta_dual(_joint_input(sm, omega, overrides))
    # B acts on traced probe factors: tr_P[rho (1 (x) B)] = tr_P[(1 (x) B) rho]
    for label, b in effects.items():
        rho = _apply_matrix(np.asarray(b, dtype=complex), [label], sm.space, rho)
    num = _ptrace_matrix(rho, sm.space, list(sm.circuit.site_labels))
    num = (num + dag(num)) / 2
    p = float(np.trace(num).real)
    if p <= tol.probability:
        raise ZeroProbability(f"outcome probability {p:.3e}")
    return num / p, p


def update_selective(sm: ScatteringMap, omega: np.ndarray, b: np.ndarray,
                     sigma: np.ndarray | None = None, probe: str | None = None,
                     tol: Tolerances = DEFAULT) -> tuple[np.ndarray, float]:
    """Conditional system state given probe effect B, with its probability.

    B = 1 performs no filtering and reproduces the non-selective update.
    """
    omega = check_density(omega, int(np.prod(sm.circuit.dims)), tol, "system state")
    p = _resolve_probe(sm, probe)
    b = check_effect(b, p.dim, tol)
    overrides = None
    if sigma is not None:
        overrides = {p.label: check_density(sigma, p.dim, tol, "probe preparation")}
    return _selective(sm, omega, {p.label: b}, tol, overrides)


class Corollary6Report(NamedTuple):
    residual: float        # trace-norm gap between successive and joint update
    factorization: float   # || S12 - S2 S1 ||
    probability_gap: float


def corollary6_check(c: CircuitSpacetime, omega: np.ndarray,
                     p1: ProbeCoupling, p2: ProbeCoupling,
                     b1: np.ndarray, b2: np.ndarray,
                     tol: Tolerances = DEFAULT) -> Corollary6Report:
    """Successive selective updates against the joint two-probe update.

    Requires K2 to avoid the causal past of K1, so probe 1 can act first;
    then S12 = S2 S1 exactly and the two descriptions agree.
    """
    if p1.gates and p2.gates and cone_meets(p2.region, p1.region):
        raise NotCausallyOrderable(
            f"region of {p2.label!r} meets the past of {p1.label!r}")
    b1 = check_effect(b1, p1.dim, tol)
    b2 = check_effect(b2, p2.dim, tol)
    sm12 = scattering_map(c, p1, p2)
    sm1 = scattering_map(c, p1, p2, coupled=(p1.label,))
    sm2 = scattering_map(c, p1, p2, coupled=(p2.label,))
    fact = opnorm(sm12.s - sm2.s @ sm1.s)
    r1, q1 = _selective(sm1, omega, {p1.label: b1}, tol)
    r12, q2 = _selective(sm2, r1, {p2.label: b2}, tol)
    rj, pj = _selective(sm12, omega, {p1.label: b1, p2.label: b2}, tol)
    diff = np.linalg.eigvalsh(r12 - rj)
    return Corollary6Report(float(np.abs(diff).sum()), fact,
                            abs(q1 * q2 - pj))


class BostelmannReport(NamedTuple):
    residual: float       # operator norm of (Theta1 o Theta2 - Theta2)(C)
    state_spread: float   # max change of <C> over probe-1 couplings
    failed: tuple         # names of violated geometry conditions


def _geometry_conditions(p1: ProbeCoupling, p2: ProbeCoupling,
                         o3: CellRegion) -> tuple[str, ...]:
    """Cone conditions under which the no-signalling equation is float-exact.

    Besides the three conditions visible in the continuum picture (probe 1
    strictly before probe 2, probe 2 no later than the observable, probe 1
    spacelike to the observable) the hybrid model needs a fourth: the probe
    factor has no causal structure of its own, so once it has touched the
    observable's past cone it bridges every coupling cell at earlier or equal
    steps into the processed observable's support.  Probe 1 must therefore be
    spacelike to those relay cells, not only to the observable.
    """
    failed = []
    k1 = p1.region if p1.gates else None
    k2 = p2.region if p2.gates else None
    if k1 is not None and k2 is not None:
        if max(k1.steps()) >= min(k2.steps()):
            failed.append("probe-1 region not strictly before probe-2 region")
    if k2 is not None:
        if max(k2.steps()) > min(o3.steps()) or (k2.cells & o3.cells):
            failed.append("probe-2 region not below the observable region")
    if k1 is not None and not spacelike(k1, o3):
        failed.append("probe-1 region not spacelike to the observable region")
    if k1 is not None and k2 is not None:
        active = [c for c in k2.cells if cone_meets(cells([c]), o3)]
        if active:
            t_star = max(c[0] for c in active)
            relay = [c for c in k2.cells if c[0] <= t_star]
            if not spacelike(k1, cells(relay)):
                failed.append(
                    "probe-1 region in causal contact with probe-2 relay cells")
    return tuple(failed)


def _probe1_variant(p1: ProbeCoupling, rng: np.random.Generator,
                    dims: tuple, uncoupled: bool = False) -> ProbeCoupling:
    gates = () if uncoupled else tuple(
        (cell, haar_unitary(dims[cell[1]] * p1.dim, rng)) for cell, _ in p1.gates)
    return replace(p1, gates=gates)


def bostelmann_check(c: CircuitSpacetime, p1: ProbeCoupling,
                     p2: ProbeCoupling, o3: CellRegion,
                     omega: np.ndarray | None = None,
                     obs: Mapping[tuple[int, int], np.ndarray] | None = None,
                     rng: np.random.Generator | None = None,
                     extra_probe1: int = 3,
                     enforce: bool = True) -> BostelmannReport:
    """No-signalling of an early probe-1 operation into a spacelike observable.

    Checks (Theta1 o Theta2)(C (x) 1 (x) 1) = Theta2(C (x) 1 (x) 1) for C
    built from the cells of ``o3``, plus the state-level consequence that the
    expectation of the processed C is blind to the probe-1 coupling.  The
    equality is exact when probe 1 couples strictly before probe 2, probe 2
    couples no later than the observable, and probe 1 is spacelike to it;
    ``enforce=False`` computes the residuals for a broken geometry anyway.
    """
    if o3.period is not None:
        raise ValueError("observable region lives on the open chain")
    failed = _geometry_conditions(p1, p2, o3)
    if enforce and failed:
        raise GeometryViolation("; ".join(failed))
    rng = np.random.default_rng(11) if rng is None else rng
    sm2 = scattering_map(c, p1, p2, coupled=(p2.label,))
    sm1 = scattering_map(c, p1, p2, coupled=(p1.label,))
    cmat = reduce(np.matmul, [
        cell_operator(sm2, cell, obs[cell] if obs is not None
                      else random_hermitian(c.dims[cell[1]], rng))
        for cell in sorted(o3.cells)])
    processed = sm2.theta(cmat)
    residual = opnorm(sm1.theta(processed) - processed)
    d_sys = int(np.prod(c.dims, dtype=np.int64))
    if omega is None:
        omega = random_density(d_sys, rng)
    rho0 = _joint_input(sm2, omega)
    base = complex(np.einsum("ij,ji->", rho0, processed))
    spread = 0.0
    variants = [p1, _probe1_variant(p1, rng, c.dims, uncoupled=True)]
    variants += [_probe1_variant(p1, rng, c.dims) for _ in range(extra_probe1)]
    for pv in variants:
        smv = scattering_map(c, pv, p2)
        ev = complex(np.einsum("ij,ji->", rho0, smv.theta(cmat)))
        spread = max(spread, abs(ev - base))
    return BostelmannReport(residual, spread, failed)


def cnot_preset(tol: Tolerances = DEFAULT) -> tuple[CircuitSpacetime, ProbeCoupling]:
    """Two idle qubit sites; probe reads site 0 through one controlled flip."""
    c = CircuitSpacetime(2, 2, tol=tol)
    flip = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    sig = np.zeros((2, 2), dtype=complex)
    sig[0, 0] = 1.0
    p = ProbeCoupling("P", 2, sig, (((0, 0), flip),), cells([(0, 0)]), tol=tol)
    return c, p


def bostelmann_preset(valid: bool = True, rng: np.random.Generator | None = None,
                      tol: Tolerances = DEFAULT
                      ) -> tuple[CircuitSpacetime, ProbeCoupling, ProbeCoupling,
                                 CellRegion]:
    """Five-site brickwork with a straddling probe between kick and observer.

    Probe 2 first writes into the observable's past cone (step 1, site 3) and
    later reads inside the probe-1 cell's future cone (step 2, site 1); in
    that order the probe cannot relay the kick, and the equality is exact.
    The broken variant moves probe 1 under the observable's past cone, which
    also puts it in causal contact with the relay cell.
    """
    rng = np.random.default_rng(5) if rng is None else rng
    c = random_brickwork(rng, 5, 3, tol=tol)
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    k1 = (0, 0) if valid else (0, 2)
    p1 = ProbeCoupling("P1", 2, ground, ((k1, haar_unitary(4, rng)),),
                       cells([k1]), tol=tol)
    k2 = [(1, 3), (2, 1)]
    p2 = ProbeCoupling("P2", 2, ground,
                       tuple((cell, haar_unitary(4, rng)) for cell in k2),
                       cells(k2), tol=tol)
    return c, p1, p2, cells([(3, 4)])
