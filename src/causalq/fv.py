"""Probe measurement scheme on a locality-respecting circuit lattice.

The system is an open chain of finite-dimensional sites evolved by layers of
nearest-neighbor unitaries, so Heisenberg supports grow by at most one site
per step and the lattice cones of :mod:`causalq.causal` (with ``period=None``)
are exact causal bounds.  A probe is an extra tensor factor that couples to
single sites through gates confined to a declared cell set K and otherwise
evolves freely.

Within a step the coupling gates act first and the free layer second.  With
W_t the free circuit up to slice t, a coupling gate k at cell (t, x) enters as
its dressed gate D = W_t^dag k W_t, and with V the coupled full-window circuit
and V0 the uncoupled one the scattering operator is the time-ordered product
S = V0^dag V = D_m ... D_1.  The scattering map is Theta(X) = S^dag X S.
Operators localized at a cell (t, x) are represented in the same freely-dressed
picture W_t^dag (A at x) W_t; Theta turns them into their coupled
counterparts.  Induced observables contract the probe factor of
Theta(1 (x) B) with the probe preparation, and the update rules are partial
traces of S rho S^dag, optionally filtered by a probe effect.

A dressed gate is built by back-evolving its bare gate through only the free
gates that touch its current support, so its matrix covers the past cone of
its cell plus the probe factor; V, V0 and S are never formed.  Every map
applies the dressed gates on the factor axes they act on
(``qops._apply_matrix``): O(d^2 g) for a gate of dimension g on dimension d.

The cone bound is the skip rule of the checks.  They keep each operator on
its support, with the cells and probes that generated it, and a gate at a
cell spacelike to all of those cells (closed slope-1 cones), whose probe is
not among those probes, commutes with the operator: the dressed algebras of
spacelike cells meet at a common slice on disjoint sites.  Skipping the gate
is exact, so in a valid Bostelmann geometry the residual and the state spread
are exact zeros, and the corollary-6 factorization is an exact zero whenever
S12 and S2 S1 are the same gate sequence.  The reports count applied and
skipped gates, so such a zero can be told apart from a weakened check.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .causal import CellRegion, cells, cone_meets, spacelike
from .config import DEFAULT, Tolerances
from .errors import (CouplingOutsideK, DimensionMismatch, GeometryViolation,
                     NotCausallyOrderable, UnknownLabel, ZeroProbability)
from .qops import (ProductSpace, _apply_matrix, _embed_matrix, _ptrace_matrix,
                   _support_defect, check_density, check_effect,
                   check_unitary, dag, factor, opnorm, space, within)
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


class DressedGate(NamedTuple):
    """Coupling gate W_t^dag k W_t of ``probe`` at ``cell`` = (t, x), as a
    matrix on the factors ``labels`` (in space order): the past cone of the
    cell plus the probe."""
    cell: tuple[int, int]
    probe: str
    labels: tuple[str, ...]
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class ScatteringMap:
    """Conjugation X -> S^dag X S with S = D_m ... D_1 on system (x) probes;
    ``gates`` holds the dressed gates D_1 .. D_m in time order."""
    space: ProductSpace
    circuit: CircuitSpacetime
    probes: tuple
    coupled: tuple
    gates: tuple = field(repr=False)

    def _full(self, m: np.ndarray, what: str) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.space.dim,) * 2:
            raise DimensionMismatch(f"{what} shape {m.shape} != {(self.space.dim,) * 2}")
        return m

    def theta(self, x: np.ndarray) -> np.ndarray:
        x = self._full(x, "operator")
        for g in reversed(self.gates):
            x = _conjugate(g.matrix, g.labels, self.space, x)
        return x

    def theta_dual(self, rho: np.ndarray) -> np.ndarray:
        """State-side map rho -> S rho S^dag (trace dual of theta)."""
        rho = self._full(rho, "state")
        for g in self.gates:
            rho = _conjugate(dag(g.matrix), g.labels, self.space, rho)
        return rho

    def probe(self, label: str) -> ProbeCoupling:
        for p in self.probes:
            if p.label == label:
                return p
        raise UnknownLabel(f"no probe {label!r} among "
                           f"{[p.label for p in self.probes]}")

    def _coupling(self, *labels: str) -> "ScatteringMap":
        """This map with only the gates of the probes ``labels``, none re-dressed."""
        return replace(self, coupled=labels, gates=tuple(g for g in self.gates
                                                         if g.probe in labels))


def _conjugate(u: np.ndarray, labels: Sequence[str], sp: ProductSpace,
               x: np.ndarray) -> np.ndarray:
    """u^dag x u with ``u`` acting on the factors ``labels`` of ``sp``."""
    y = _apply_matrix(dag(u), labels, sp, x)
    return _apply_matrix(u.T, labels, sp, y.T).T     # y u = (u^T y^T)^T


def _union(sp: ProductSpace, *groups: Sequence[str]) -> tuple[str, ...]:
    names = set().union(*groups)
    return tuple(l for l in sp.labels if l in names)


def _widen(sp: ProductSpace, labels: Sequence[str], m: np.ndarray,
           wider: Sequence[str]) -> np.ndarray:
    """``m`` on the factors ``labels`` as a matrix on ``wider``, a superset."""
    if len(labels) == len(wider):
        return m
    return _embed_matrix(m, labels, sp.restricted(wider))


def _conjugate_on(sp: ProductSpace, labels: tuple, m: np.ndarray,
                  u: np.ndarray, targets: Sequence[str]) -> tuple[tuple, np.ndarray]:
    """u^dag m u for ``m`` on ``labels``, on the union with the targets of u."""
    wider = _union(sp, labels, targets)
    return wider, _conjugate(u, targets, sp.restricted(wider),
                             _widen(sp, labels, m, wider))


def _back_evolve(sp: ProductSpace, c: CircuitSpacetime, probes: Sequence,
                 labels: tuple, m: np.ndarray, t: int) -> tuple[tuple, np.ndarray]:
    """W_t^dag m W_t through only the free gates that touch the support at
    the start of their layer; the others commute with m and cancel."""
    for s in reversed(range(t)):
        touched = set(labels)
        free = [(u, [f"s{i}" for i in span]) for span, u in c.layers[s]]
        free += [(p.free[s], [p.label]) for p in probes if p.free is not None]
        for u, targets in free:
            if touched.intersection(targets):
                labels, m = _conjugate_on(sp, labels, m, u, targets)
    return labels, m


def scattering_map(c: CircuitSpacetime, *probes: ProbeCoupling,
                   coupled: Sequence[str] | None = None) -> ScatteringMap:
    """Dress the coupling gates whose product is S = V0^dag V.

    ``coupled`` selects which probes' gates enter S (default all); the rest
    ride along freely, so maps for different couplings share one space.
    Within a step, gates follow the probe order and then the site.
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
    return ScatteringMap(sp, c, tuple(probes), coupled, _dressed(sp, c, probes, coupled))


def _dressed(sp: ProductSpace, c: CircuitSpacetime, probes: Sequence,
             which: Sequence[str], kept: Sequence[DressedGate] = ()) -> tuple:
    """Gates of the probes ``which`` dressed and time-ordered with ``kept``;
    dressing reads the probes' free motion, never which probes are coupled."""
    rank = {p.label: i for i, p in enumerate(probes)}
    gates = [*kept, *(DressedGate((n, x), p.label,
                                  *_back_evolve(sp, c, probes, (f"s{x}", p.label), g, n))
                      for p in probes if p.label in which for (n, x), g in p.gates)]
    return tuple(sorted(gates, key=lambda g: (g.cell[0], rank[g.probe], g.cell[1])))


def _dress_cell(sm: ScatteringMap, cell: tuple[int, int],
                a: np.ndarray) -> tuple[tuple, np.ndarray]:
    """W_t^dag (a at x) W_t on its past cone, for ``cell`` = (t, x)."""
    t, x = int(cell[0]), int(cell[1])
    c = sm.circuit
    if not 0 <= t <= c.n_steps:
        raise ValueError(f"slice {t} outside 0..{c.n_steps}")
    if not 0 <= x < c.n_sites:
        raise ValueError(f"site {x} outside the chain")
    a = np.asarray(a, dtype=complex)
    if a.shape != (c.dims[x],) * 2:
        raise DimensionMismatch(f"operator shape {a.shape} != site dim {c.dims[x]}")
    return _back_evolve(sm.space, c, sm.probes, (f"s{x}",), a, t)


def cell_operator(sm: ScatteringMap, cell: tuple[int, int],
                  a: np.ndarray) -> np.ndarray:
    """Freely-dressed operator of ``a`` at cell (t, x): W_t^dag (a at x) W_t."""
    labels, m = _dress_cell(sm, cell, a)
    return _widen(sm.space, labels, m, sm.space.labels)


class _Local(NamedTuple):
    """Operator ``m`` on the factors ``labels`` (in space order), in the
    algebra of the dressed ``cells`` and the probe factors ``probes``."""
    labels: tuple
    m: np.ndarray
    cells: frozenset = frozenset()
    probes: frozenset = frozenset()


def _product(sp: ProductSpace, a: _Local, b: _Local) -> _Local:
    wider = _union(sp, a.labels, b.labels)
    return _Local(wider, _widen(sp, a.labels, a.m, wider)
                  @ _widen(sp, b.labels, b.m, wider),
                  a.cells | b.cells, a.probes | b.probes)


def _heisenberg(sm: ScatteringMap, op: _Local, tally: Counter) -> _Local:
    """Theta(op) on op's support, skipping each gate that the cone rule shows
    to commute with the operator processed so far; ``tally`` counts gates."""
    for g in reversed(sm.gates):
        if g.probe not in op.probes and (
                not op.cells or spacelike(cells([g.cell]), cells(op.cells))):
            tally["gates_skipped"] += 1
            continue
        labels, m = _conjugate_on(sm.space, op.labels, op.m, g.matrix, g.labels)
        op = _Local(labels, m, op.cells | {g.cell}, op.probes | {g.probe})
        tally["gates_applied"] += 1
        tally["max_support_dim"] = max(tally["max_support_dim"], len(m))
    return op


def support_defect(m: np.ndarray, sp: ProductSpace,
                   labels: Sequence[str]) -> float:
    """Norm distance from ``m`` to operators supported on ``labels`` alone."""
    return opnorm(_support_defect(np.asarray(m, dtype=complex), sp, frozenset(labels)))


def operator_support(m: np.ndarray, sp: ProductSpace,
                     tol: float = DEFAULT.support) -> frozenset:
    """Minimal factor set carrying ``m`` (empty for multiples of identity)."""
    m = np.asarray(m, dtype=complex)
    sup = [l for l in sp.labels
           if not within(_support_defect(m, sp, frozenset(set(sp.labels) - {l})), tol)]
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

    Theta(1 (x) B) is formed on its support only; spectator probes outside
    it contract with their preparations to 1 and drop out exactly.
    """
    p = _resolve_probe(sm, probe)
    b = check_effect(b, p.dim, tol)
    sigma = p.sigma if sigma is None else check_density(sigma, p.dim, tol,
                                                        "probe preparation")
    op = _heisenberg(sm, _Local((p.label,), b, probes=frozenset([p.label])),
                     Counter())
    sub = sm.space.restricted(op.labels)
    m = op.m
    for q in sm.probes:
        if q.label in op.labels:
            m = _apply_matrix(sigma if q is p else q.sigma, [q.label], sub, m)
    sites = [l for l in op.labels if l in sm.circuit.site_labels]
    return _widen(sm.space, sites, _ptrace_matrix(m, sub, sites),
                  sm.circuit.site_labels)


def _system_state(c: CircuitSpacetime, omega: np.ndarray, tol: Tolerances) -> np.ndarray:
    return check_density(omega, int(np.prod(c.dims, dtype=np.int64)), tol, "system state")


def _reduced(sm: ScatteringMap, omega: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """omega (x) sigma_1 (x) .. reduced to the factors ``labels``."""
    sites = sm.circuit.site_labels
    rho = _ptrace_matrix(omega, sm.space.restricted(sites), [l for l in labels if l in sites])
    return reduce(np.kron, [p.sigma for p in sm.probes if p.label in labels], rho)


def _evolved(sm: ScatteringMap, omega: np.ndarray,
             effects: Mapping[str, np.ndarray],
             overrides: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
    """tr_P[(1 (x) B) S (omega (x) sigma) S^dag] for the probe effects B.

    Only the sites and the probes that are coupled or filtered enter; every
    other probe factors out of S and traces to 1.  With sigma = F F^dag the
    joint state is A (omega (x) 1_r) A^dag for A = S (1 (x) F): only the d_sys r
    columns of A go through the gates, and omega is never factored.
    """
    overrides = overrides or {}
    keep = [p for p in sm.probes if p.label in sm.coupled or p.label in effects]
    sp = sm.space.restricted([*sm.circuit.site_labels, *(p.label for p in keep)])
    f = np.ones((1, 1))
    for p in keep:   # F F^dag = sigma, one column per eigenvalue above rounding
        f = np.kron(f, factor(overrides.get(p.label, p.sigma)))
    d_sys = len(omega)
    # rows (site, probe) as in sp; columns (rank, site), so omega acts last
    a = np.zeros((d_sys, *f.shape, d_sys), dtype=complex)
    a[np.arange(d_sys), ..., np.arange(d_sys)] = f
    a = a.reshape(sp.dim, -1)
    for g in sm.gates:
        a = _apply_matrix(g.matrix, g.labels, sp, a)
    # B acts on traced probe factors: tr_P[rho (1 (x) B)] = tr_P[(1 (x) B) rho]
    ba = a
    for label, b in effects.items():
        ba = _apply_matrix(np.asarray(b, dtype=complex), [label], sp, ba)
    return (ba.reshape(-1, d_sys) @ omega).reshape(d_sys, -1) @ dag(a.reshape(d_sys, -1))


def update_nonselective(sm: ScatteringMap, omega: np.ndarray,
                        tol: Tolerances = DEFAULT) -> np.ndarray:
    """System state after the coupling window: tr_P[S (omega (x) sigma) S^dag]."""
    return _evolved(sm, _system_state(sm.circuit, omega, tol), {})


def _selective(sm: ScatteringMap, omega: np.ndarray,
               effects: Mapping[str, np.ndarray], tol: Tolerances,
               overrides: Mapping[str, np.ndarray] | None = None
               ) -> tuple[np.ndarray, float]:
    num = _evolved(sm, omega, effects, overrides)
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
    omega = _system_state(sm.circuit, omega, tol)
    p = _resolve_probe(sm, probe)
    b = check_effect(b, p.dim, tol)
    overrides = None if sigma is None else {
        p.label: check_density(sigma, p.dim, tol, "probe preparation")}
    return _selective(sm, omega, {p.label: b}, tol, overrides)


class Corollary6Report(NamedTuple):
    residual: float        # trace-norm gap between successive and joint update
    factorization: float   # || S12 - S2 S1 ||
    probability_gap: float
    gates_applied: int = 0     # gates multiplied into a state or product
    gates_skipped: int = 0     # gates of the common prefix and suffix of S12, S2 S1
    max_support_dim: int = 0   # largest dimension those gates acted on


def _factorization(sp: ProductSpace, joint: tuple, successive: tuple,
                   tally: Counter) -> float:
    """|| S12 - S2 S1 || from the two gate sequences (applied first to last).

    By unitary invariance a common prefix and suffix drop out; the rest is
    compared on the union support of its gates, and nothing is left when the
    sequences agree.
    """
    key = [[(g.probe, g.cell) for g in seq] for seq in (joint, successive)]
    n = len(joint)
    lo = next((i for i in range(n) if key[0][i] != key[1][i]), n)
    hi = next((i for i in range(n - lo) if key[0][n - 1 - i] != key[1][n - 1 - i]),
              n - lo)
    tally["gates_skipped"] += 2 * (lo + hi)
    rest = [seq[lo:n - hi] for seq in (joint, successive)]
    if not rest[0]:
        return 0.0
    sub = sp.restricted(_union(sp, *(g.labels for g in rest[0])))
    prods = [reduce(lambda m, g: _apply_matrix(g.matrix, g.labels, sub, m), seq,
                    np.eye(sub.dim, dtype=complex)) for seq in rest]
    tally["gates_applied"] += 2 * len(rest[0])
    tally["max_support_dim"] = max(tally["max_support_dim"], sub.dim)
    return opnorm(prods[0] - prods[1])


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
    omega = _system_state(c, omega, tol)
    sm12 = scattering_map(c, p1, p2)
    sm1, sm2 = sm12._coupling(p1.label), sm12._coupling(p2.label)
    tally = Counter()
    fact = _factorization(sm12.space, sm12.gates, sm1.gates + sm2.gates, tally)
    r1, q1 = _selective(sm1, omega, {p1.label: b1}, tol)
    r12, q2 = _selective(sm2, r1, {p2.label: b2}, tol)
    rj, pj = _selective(sm12, omega, {p1.label: b1, p2.label: b2}, tol)
    tally["gates_applied"] += 2 * len(sm12.gates)     # S1 and S2 split S12's gates
    tally["max_support_dim"] = max(tally["max_support_dim"], sm12.space.dim)
    return Corollary6Report(float(np.abs(np.linalg.eigvalsh(r12 - rj)).sum()), fact,
                            abs(q1 * q2 - pj), **tally)


class BostelmannReport(NamedTuple):
    residual: float       # operator norm of (Theta1 o Theta2 - Theta2)(C)
    state_spread: float   # max change of <C> over probe-1 couplings
    failed: tuple         # names of violated geometry conditions
    gates_applied: int = 0     # dressed gates conjugated into an operator
    gates_skipped: int = 0     # dressed gates the cone rule showed to commute
    max_support_dim: int = 0   # largest operator dimension conjugated


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
    Operators stay on their supports and the cone rule skips every probe-1
    gate in a valid geometry, so both residuals are then exact zeros.
    """
    if o3.period is not None:
        raise ValueError("observable region lives on the open chain")
    failed = _geometry_conditions(p1, p2, o3)
    if enforce and failed:
        raise GeometryViolation("; ".join(failed))
    rng = np.random.default_rng(11) if rng is None else rng
    sm12 = scattering_map(c, p1, p2)
    sm2, sm1 = sm12._coupling(p2.label), sm12._coupling(p1.label)
    sp = sm2.space
    parts = [_Local(*_dress_cell(sm2, cell, obs[cell] if obs is not None
                                 else random_hermitian(c.dims[cell[1]], rng)),
                    frozenset([cell]))
             for cell in sorted(o3.cells)]
    cop = reduce(lambda a, b: _product(sp, a, b), parts)
    tally = Counter()
    processed = _heisenberg(sm2, cop, tally)
    moved = _heisenberg(sm1, processed, tally)
    residual = 0.0 if moved is processed else opnorm(
        moved.m - _widen(sp, processed.labels, processed.m, moved.labels))
    omega = (random_density(int(np.prod(c.dims, dtype=np.int64)), rng) if omega is None
             else _system_state(c, omega, c.tol))

    def expectation(op: _Local) -> complex:
        return complex(np.einsum("ij,ji->", _reduced(sm2, omega, op.labels), op.m))

    base = expectation(processed)
    spread = 0.0
    variants = [p1, _probe1_variant(p1, rng, c.dims, uncoupled=True)]
    variants += [_probe1_variant(p1, rng, c.dims) for _ in range(extra_probe1)]
    for pv in variants:   # probe 2's gates are dressed once, in sm12
        smv = sm12 if pv is p1 else replace(sm12, probes=(pv, p2), gates=_dressed(
            sp, c, (pv, p2), [pv.label], sm2.gates))
        spread = max(spread, abs(expectation(_heisenberg(smv, cop, tally)) - base))
    return BostelmannReport(residual, spread, failed, **tally)


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
