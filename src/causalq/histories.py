"""Histories calculus: class operators, decoherence, and no-signalling tests.

A history is an ordered chain of Heisenberg-picture projective outcomes.  Its
class operator is the time-ordered product of the step projectors, and the
decoherence functional d(alpha, beta) over a family of histories carries both
the probability assignment (diagonal) and the interference obstructions to
Kolmogorov additivity (off-diagonal real parts).

Ordering convention.  The literature writes class operators both ways; here a
single convention is adopted throughout: `class_operator` returns the product
with the EARLIEST step rightmost,

    C_alpha = P_n(t_n) ... P_2(t_2) P_1(t_1),

i.e. the operator that acts first on a ket.  Probabilities are
p = tr(C rho C^dag) and the decoherence functional is
d(alpha, beta) = tr(C_alpha rho C_beta^dag); both agree with the
earliest-leftmost form after transposition.  The earliest-leftmost product
P_1(t_1) ... P_n(t_n) is the adjoint chain, dag(class_operator(h).matrix).

The bipartite and tripartite no-signalling checks quantify when a projective
measurement (or a unitary kick) in the first region leaves later marginal or
joint statistics untouched: the bipartite criterion is state-dependent
(cross terms of d vanish on rho), the tripartite one is an operator identity
C'^dag C = 0 between class operators differing only in the first outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as index_product
from typing import NamedTuple, Sequence

import numpy as np

from .causal import Rect, CellRegion, build_order
from .config import DEFAULT, Tolerances
from .errors import (CommutationPrecondition, DimensionMismatch,
                     InvalidProjector, NotExclusive, NotHermitian,
                     SpaceMismatch)
from .qops import (DensityState, LocalOperator, ProductSpace,
                   ProjectiveResolution, _skew_within, check_unitary, dag,
                   expih, factor, is_hermitian, is_projector, luders_sum,
                   opnorm, within)
from .random_ops import random_density

__all__ = [
    "History", "HistoryFamily", "DecoherenceMatrix",
    "FuksaBipartite", "FuksaTripartite",
    "class_operator", "probability", "decoherence", "consistency_check",
    "additivity_violation", "fuksa_bipartite", "fuksa_tripartite",
]

_REGION_TYPES = (Rect, CellRegion)


def _state_matrix(rho0, sp: ProductSpace) -> np.ndarray:
    if isinstance(rho0, DensityState):
        if rho0.space != sp:
            raise SpaceMismatch("initial state is not on the history space")
        return rho0.matrix
    return DensityState(sp, np.asarray(rho0, dtype=complex)).matrix


def _heisenberg(ps: list[np.ndarray], t: float,
                h: np.ndarray | None) -> list[np.ndarray]:
    """U P U^dag for every projector of one step, U = exp(i t H) formed once."""
    if h is None or t == 0.0:
        return ps
    u = expih(h, t)
    return [u @ p @ dag(u) for p in ps]


def _chains(levels: Sequence[Sequence[np.ndarray]], x: np.ndarray) -> list[np.ndarray]:
    """P_n ... P_1 x for every outcome combination, odometer order (last step
    fastest); each prefix product P_k ... P_1 x is formed once."""
    chains = [x]
    for level in levels:
        chains = [p @ c for c in chains for p in level]
    return chains


class HistoryStep(NamedTuple):
    projector: LocalOperator
    label: object
    time: float


@dataclass(frozen=True)
class History:
    """Ordered chain of projective outcomes (projector, label, time).

    Projectors are validated to be idempotent and Hermitian.  When every label
    is a region, the step order must refine the causal order of the labels.
    An optional Hamiltonian turns the stored Schroedinger projectors into
    Heisenberg ones inside `class_operator`.
    """
    steps: tuple[HistoryStep, ...]
    hamiltonian: np.ndarray | None = None
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        steps = tuple(HistoryStep(p, l, float(t)) for p, l, t in self.steps)
        if not steps:
            raise ValueError("history needs at least one step")
        object.__setattr__(self, "steps", steps)
        sp = steps[0].projector.space
        for i, (proj, _, _) in enumerate(steps):
            if proj.space != sp:
                raise SpaceMismatch(f"step {i} lives on a different space")
            if not is_projector(proj.matrix, self.tol):
                raise InvalidProjector(f"step {i} operator is not a projector")
        times = [s.time for s in steps]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("step times are not non-decreasing")
        labels = [s.label for s in steps]
        if len(labels) > 1 and all(isinstance(l, _REGION_TYPES) for l in labels):
            order = build_order(labels)  # CycleError on inconsistent regions
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    if order.before(j, i) and not order.before(i, j):
                        raise ValueError(
                            f"step {j} precedes step {i} in the causal order")
        if self.hamiltonian is not None:
            h = np.asarray(self.hamiltonian, dtype=complex)
            if h.shape != (sp.dim, sp.dim):
                raise DimensionMismatch("hamiltonian does not match the space")
            if not is_hermitian(h, self.tol):
                raise NotHermitian("hamiltonian is not Hermitian")
            object.__setattr__(self, "hamiltonian", h)

    @property
    def space(self) -> ProductSpace:
        return self.steps[0].projector.space


def class_operator(h: History) -> LocalOperator:
    """Time-ordered product C = P_n(t_n)...P_1(t_1) of the (Heisenberg) step
    projectors, earliest rightmost; the earliest-leftmost chain P_1...P_n of
    some authors is its adjoint, dag(class_operator(h).matrix)."""
    levels = [_heisenberg([proj.matrix], t, h.hamiltonian) for proj, _, t in h.steps]
    return LocalOperator(h.space, _chains(levels, np.eye(h.space.dim, dtype=complex))[0])


def probability(h: History, rho0) -> float:
    """p(alpha) = tr(C rho C^dag), the diagonal of the decoherence matrix."""
    c = class_operator(h).matrix
    rho = _state_matrix(rho0, h.space)
    return float(np.real(np.trace(c @ rho @ dag(c))))


@dataclass(frozen=True)
class HistoryFamily:
    """One projective resolution per step; histories are index combinations.

    The data every history shares (times, region-label order, Hamiltonian) is
    validated once, at construction, by building the first history; the
    projectors were checked by their resolutions.
    """
    resolutions: tuple[ProjectiveResolution, ...]
    times: tuple[float, ...] = ()
    labels: tuple[object, ...] = ()
    hamiltonian: np.ndarray | None = None
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        res = tuple(self.resolutions)
        if not res:
            raise ValueError("family needs at least one step resolution")
        sp = res[0].space
        for i, r in enumerate(res):
            if r.space != sp:
                raise SpaceMismatch(f"step {i} resolution on a different space")
        times = tuple(float(t) for t in self.times) or tuple(float(i) for i in range(len(res)))
        labels = tuple(self.labels) or tuple(range(len(res)))
        if len(times) != len(res) or len(labels) != len(res):
            raise ValueError("times/labels length does not match the step count")
        object.__setattr__(self, "resolutions", res)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "labels", labels)
        first = self.history((0,) * len(res))
        object.__setattr__(self, "hamiltonian", first.hamiltonian)

    @property
    def space(self) -> ProductSpace:
        return self.resolutions[0].space

    def alphas(self):
        """All outcome index tuples, odometer order (last step fastest)."""
        yield from index_product(*(range(len(r)) for r in self.resolutions))

    def history(self, alpha: Sequence[int]) -> History:
        alpha = tuple(alpha)
        if len(alpha) != len(self.resolutions):
            raise ValueError("outcome tuple length does not match the step count")
        steps = []
        for i, (r, a) in enumerate(zip(self.resolutions, alpha)):
            if not 0 <= a < len(r):
                raise ValueError(f"outcome index {a} out of range at step {i}")
            steps.append((r.projectors[a], self.labels[i], self.times[i]))
        return History(tuple(steps), self.hamiltonian, self.tol)


@dataclass(frozen=True, eq=False)
class DecoherenceMatrix:
    """d(alpha, beta) = tr(C_alpha rho C_beta^dag) over a history family."""
    family: HistoryFamily
    alphas: tuple[tuple[int, ...], ...]
    matrix: np.ndarray = field(repr=False)
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        d = self.matrix
        if not _skew_within(d, self.tol.operator):
            raise NotHermitian("decoherence matrix is not Hermitian")
        p = np.diag(d)
        if np.abs(p.imag).max() > self.tol.operator:
            raise ValueError("decoherence diagonal is not real")
        if p.real.min() < -self.tol.positivity:
            raise ValueError("negative history probability on the diagonal")
        if abs(p.real.sum() - 1.0) > self.tol.operator:
            raise ValueError(
                f"history probabilities sum to {p.real.sum():.12f}, not 1")

    @property
    def probabilities(self) -> np.ndarray:
        return np.diag(self.matrix).real.copy()

    def index(self, alpha: Sequence[int]) -> int:
        return self.alphas.index(tuple(alpha))


def decoherence(fam: HistoryFamily, rho0, tol: Tolerances = DEFAULT) -> DecoherenceMatrix:
    """Full decoherence matrix of the family in the given initial state.

    With rho = F F^dag (`factor`, r columns), tr(C_i rho C_j^dag) is the inner
    product of vec(C_i F) and vec(C_j F): the prefixes P_k ... P_1 F go
    through the steps once each and d = X X^dag for the rows vec(C_i F) of X.
    For n histories on dimension d that costs O(n d^2 r) for the chains and
    O(n^2 d r) for X X^dag, against O(n d^3) for the class operators
    themselves; a full-rank mixed state (r = d) gains nothing.
    """
    rho = _state_matrix(rho0, fam.space)
    alphas = tuple(fam.alphas())
    levels = [_heisenberg([p.matrix for p in r.projectors], t, fam.hamiltonian)
              for r, t in zip(fam.resolutions, fam.times)]
    x = np.array(_chains(levels, factor(rho))).reshape(len(alphas), -1)
    return DecoherenceMatrix(fam, alphas, x @ dag(x), tol)


def consistency_check(fam: HistoryFamily, rho0, mode: str = "weak",
                      tol: Tolerances = DEFAULT) -> tuple[bool, float]:
    """Largest off-diagonal interference term; Re d only in "weak" mode."""
    if mode not in ("weak", "strong"):
        raise ValueError(f"unknown consistency mode {mode!r}")
    d = decoherence(fam, rho0, tol).matrix
    off = d - np.diag(np.diag(d))
    worst = float(np.abs(off.real).max() if mode == "weak" else np.abs(off).max())
    return worst <= tol.operator, worst


def additivity_violation(a: History, b: History, rho0,
                         tol: Tolerances = DEFAULT) -> float:
    """Kolmogorov defect p(a or b) - p(a) - p(b); equals 2 Re d(a, b).

    The join sums the projectors at the single step where the histories
    differ, which is again a projector exactly when the two outcomes are
    orthogonal there.  Histories differing at several steps are rejected:
    summing per step would coarse-grain over all mixed index combinations,
    not over the two-element set {a, b}.
    """
    if a.space != b.space:
        raise SpaceMismatch("histories live on different spaces")
    if len(a.steps) != len(b.steps):
        raise ValueError("histories have different step counts")
    if any(sa.time != sb.time for sa, sb in zip(a.steps, b.steps)):
        raise ValueError("histories have different step times")
    ha, hb = a.hamiltonian, b.hamiltonian
    if (ha is None) != (hb is None) or (ha is not None and not np.array_equal(ha, hb)):
        raise ValueError("histories evolve under different Hamiltonians")
    diff = [i for i, (sa, sb) in enumerate(zip(a.steps, b.steps))
            if not within(sa.projector.matrix - sb.projector.matrix, tol.projector)]
    if not diff:
        raise NotExclusive("histories coincide at every step")
    if len(diff) > 1:
        raise ValueError("join is defined for histories differing at one step")
    k = diff[0]
    pa, pb = a.steps[k].projector.matrix, b.steps[k].projector.matrix
    if not within(pa @ pb, tol.projector):
        raise NotExclusive(f"outcomes at step {k} are not orthogonal")
    joined = list(a.steps)
    joined[k] = HistoryStep(LocalOperator(a.space, pa + pb),
                            a.steps[k].label, a.steps[k].time)
    union = History(tuple(joined), ha, tol)
    rho = _state_matrix(rho0, a.space)
    return probability(union, rho) - probability(a, rho) - probability(b, rho)


# -- Fuksa no-signalling conditions -------------------------------------------

class FuksaBipartite(NamedTuple):
    consistency: float          # max |cross term| over alpha1 != alpha1', same alpha2
    shifts: tuple[float, ...]   # per-alpha2 marginal shift under step-1 measurement


def fuksa_bipartite(res1: ProjectiveResolution, res2: ProjectiveResolution,
                    rho0, tol: Tolerances = DEFAULT) -> FuksaBipartite:
    """Does measuring the first resolution shift the second one's marginals?

    The marginal shift is computed directly from the Lueders update; the
    consistency figure is the largest cross term
    tr(rho P_{a1'} P_{a2} P_{a2} P_{a1}) with a1 != a1'.  The shift equals
    the sum of those cross terms, so vanishing consistency forces vanishing
    shifts.  Projectors are used as given; pass Heisenberg-conjugated ones
    for nontrivial dynamics.
    """
    if res1.space != res2.space:
        raise SpaceMismatch("resolutions live on different spaces")
    rho = _state_matrix(rho0, res1.space)
    p1 = [p.matrix for p in res1.projectors]
    p2 = [p.matrix for p in res2.projectors]
    measured = luders_sum(p1, rho)
    shifts = tuple(
        float(abs(np.real(np.trace(measured @ q)) - np.real(np.trace(rho @ q))))
        for q in p2)
    worst = max([0.0] + [abs(np.trace(pi @ rho @ pj @ q)) for q in p2
                         for i, pi in enumerate(p1) for j, pj in enumerate(p1) if i != j])
    return FuksaBipartite(float(worst), shifts)


class FuksaTripartite(NamedTuple):
    worst: float             # largest ||C'^dag C|| over alpha1 != alpha1'
    measurement_shift: float  # joint-statistics shift under step-1 measurement
    kick_shift: float        # joint-statistics shift under supplied step-1 kicks
    passed: bool


def _joint_probs(chains: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    return np.array([np.real(np.trace(c @ rho @ dag(c))) for c in chains])


def fuksa_tripartite(res1: ProjectiveResolution, res2: ProjectiveResolution,
                     res3: ProjectiveResolution, rho0=None,
                     kicks: Sequence[np.ndarray] = (),
                     extra: ProjectiveResolution | None = None,
                     rng: np.random.Generator | None = None, n_states: int = 4,
                     tol: Tolerances = DEFAULT) -> FuksaTripartite:
    """Operator-level test that a first-region intervention cannot signal.

    Requires [P_{a1}, P_{a3}] = 0 for all outcome pairs.  The check computes
    ||C_{(a1',mid,a3)}^dag C_{(a1,mid,a3)}|| for every a1 != a1'; all of them
    vanishing means the joint statistics of the later outcomes are unchanged
    by a nonselective measurement of the first resolution in ANY state, which
    is verified on random states as well.  Because the final resolution is
    exhaustive, summing the condition operators over its outcomes returns the
    second-step projector, so a passing set forces the second resolution into
    the commutant of the first.  `extra` squeezes a fourth
    resolution between the second and third step, enlarging the condition
    set.  `kicks` are unitaries conjugating the state before the later steps;
    their induced shift is reported alongside (a passing condition set forces
    it to vanish when the kicks act on a factor the later steps ignore).
    """
    sp = res1.space
    for r in (res2, res3) + ((extra,) if extra is not None else ()):
        if r.space != sp:
            raise SpaceMismatch("resolutions live on different spaces")
    p1 = [p.matrix for p in res1.projectors]
    p3 = [p.matrix for p in res3.projectors]
    if not all(within(a @ c - c @ a, tol.operator) for a in p1 for c in p3):
        raise CommutationPrecondition("first and third resolutions do not commute")
    later = [[p.matrix for p in res2.projectors]]
    if extra is not None:
        later.append([p.matrix for p in extra.projectors])
    later.append(p3)
    chains = _chains(later, np.eye(sp.dim, dtype=complex))

    # P_j e P_i with e = C^dag C, the step-1 sandwich of each later chain C
    worst = max([0.0] + [opnorm(pj @ e @ pi) for e in (dag(c) @ c for c in chains)
                         for i, pi in enumerate(p1) for j, pj in enumerate(p1) if i != j])

    rng = rng or np.random.default_rng(7)
    states = [] if rho0 is None else [_state_matrix(rho0, sp)]
    states += [random_density(sp.dim, rng) for _ in range(n_states)]
    for u in kicks:
        u = np.asarray(u, dtype=complex)
        if u.shape != (sp.dim, sp.dim):
            raise DimensionMismatch("kick unitary does not match the space")
        check_unitary(u, tol, "kick")
    meas_shift = kick_shift = 0.0
    for rho in states:
        base = _joint_probs(chains, rho)
        measured = luders_sum(p1, rho)
        meas_shift = max(meas_shift, np.abs(_joint_probs(chains, measured) - base).max())
        for u in kicks:
            kicked = u @ rho @ dag(u)
            kick_shift = max(kick_shift, np.abs(_joint_probs(chains, kicked) - base).max())
    return FuksaTripartite(float(worst), float(meas_shift), float(kick_shift),
                           worst <= tol.operator)
