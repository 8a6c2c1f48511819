"""Finite dimensional quantum kernel on labelled tensor-product spaces.

States are kept in the Schroedinger picture; Heisenberg operators are produced
on demand by conjugation.  All matrices are dense complex arrays and the total
dimension is capped at 2**14, which covers every scenario in this package.

Every module builds on one primitive per idea, each working on plain arrays:

* `_apply_matrix(op, labels, sp, m)`: placement, op on the factors `labels`
  applied to m on their axes (`embed` applies it to the identity);
* `expih(h, t)`: the Hermitian exponential exp(i t h), from one `eigh`;
* `factor(rho)`: F with F F^dag = rho, one column per eigenvalue above rounding;
* `luders_sum(projectors, x)`: the non-selective Lueders sum sum_n P_n x P_n;
* `select_outcome(p, rho, tol)`: the selective step (P rho P / w, w);
* `rounding_floor(d, scale)`: the c·d·u·scale size below which a computed
  residual is rounding (`commute` tests a commutator against it);
* `within(x, bound)`: ||x||_2 <= bound by the Frobenius norm first, `opnorm` only
  if that fails: the rule behind every pass/fail norm (reported norms are `opnorm`);
* one validation rule per property, each reading its `Tolerances` field:
  `is_hermitian` (`hermitian`, times the largest entry or 1), `is_projector`
  (`projector`, on m - m^dag and m^2 - m), `check_density` (`is_hermitian`,
  `trace`, `positivity`), `check_effect` and `check_unitary` (`unitary`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (BinsNotCovering, DimensionMismatch, InvalidProjector,
                     NotEffect, NotHermitian, NotUnitary, SpaceMismatch,
                     TruncationTooLarge, UnknownLabel, ZeroProbability)

__all__ = [
    "MAX_DIM", "ProductSpace", "LocalOperator", "DensityState",
    "ProjectiveResolution", "space", "qubit_space", "embed",
    "spectral_resolution", "born_probability", "luders_nonselective",
    "luders_selective", "partial_trace", "expectation",
    "pure_state", "dag", "commutator", "commute", "rounding_floor", "opnorm",
    "herm_defect", "within", "expih", "factor", "luders_sum", "select_outcome",
    "check_unitary", "check_effect", "is_hermitian", "is_projector",
    "check_density",
    "sigma_x", "sigma_y", "sigma_z", "sigma_p", "sigma_m", "eye2", "PAULI",
]

MAX_DIM = 2 ** 14

sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
# basis index 0 = ground, 1 = excited; sigma_p raises, sigma_m lowers
sigma_p = np.array([[0, 0], [1, 0]], dtype=complex)
sigma_m = np.array([[0, 1], [0, 0]], dtype=complex)
eye2 = np.eye(2, dtype=complex)
# the Pauli table by letter; its key order is the digit order of Pauli strings
PAULI = {"I": eye2, "X": sigma_x, "Y": sigma_y, "Z": sigma_z}


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


# c in the rounding floor c·d·u·scale (Higham 2002, ch. 3).  With c = 1, the
# commutators of 1768 exactly commuting pairs (measure projectors from `eigh`
# against kicks and readouts, d 8-32) reached at most 1.84 times the floor
FLOOR_FACTOR = 8.0


def rounding_floor(d: int, scale: float) -> float:
    """c·d·u·scale: the rounding a product of d x d matrices whose Frobenius
    norms multiply to `scale` may carry; a residual at or below it is
    indistinguishable from zero."""
    return FLOOR_FACTOR * d * (np.finfo(float).eps / 2) * scale  # u = eps / 2


def commute(a: np.ndarray, b: np.ndarray, phase: bool = False) -> bool:
    """[a, b] vanishes at rounding level: its Frobenius norm is within the
    rounding floor of the product of theirs.  With `phase`, ab - c ba does for
    c = tr((ba)^dag ab) / d, as for unitaries whose conjugations commute."""
    ab, ba = a @ b, b @ a
    c = np.vdot(ba, ab) / a.shape[0] if phase else 1.0
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    return np.linalg.norm(ab - c * ba) <= rounding_floor(a.shape[0], scale)


def opnorm(a: np.ndarray) -> float:
    """Operator 2-norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


def herm_defect(a: np.ndarray) -> float:
    """||a - a^dag||_2, the largest |eigenvalue| of the Hermitian i (a - a^dag)."""
    return float(np.abs(np.linalg.eigvalsh(1j * (a - dag(a)))).max(initial=0.0))


def within(x: np.ndarray, bound: float) -> bool:
    """||x||_2 <= bound, by ||x||_F >= ||x||_2 first and `opnorm` only if that fails."""
    return float(np.linalg.norm(x)) <= bound or opnorm(x) <= bound


def _skew_within(m: np.ndarray, bound: float) -> bool:
    """The `within` rule on m - m^dag, with `herm_defect` as the exact norm."""
    return float(np.linalg.norm(m - dag(m))) <= bound or herm_defect(m) <= bound


def is_hermitian(m: np.ndarray, tol: Tolerances) -> bool:
    """Hermitian within tol.hermitian, relative to the largest entry (at least 1)."""
    return _skew_within(m, tol.hermitian * max(1.0, float(np.abs(m).max(initial=0.0))))


def is_projector(m: np.ndarray, tol: Tolerances) -> bool:
    """Orthogonal projector: m - m^dag and m^2 - m within tol.projector."""
    return _skew_within(m, tol.projector) and within(m @ m - m, tol.projector)


def expih(h: np.ndarray | tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """exp(i t h) for Hermitian h, from one eigendecomposition; `h` may be that
    decomposition, the pair (w, v) of `np.linalg.eigh`, to reuse it across t."""
    w, v = h if isinstance(h, tuple) else np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ dag(v)


def factor(rho: np.ndarray) -> np.ndarray:
    """F with F F^dag = rho for a density matrix: a column sqrt(w) v per
    eigenvalue w above `rounding_floor(d, 1.0)`, so a pure state gives one."""
    w, v = np.linalg.eigh(rho)
    keep = w > rounding_floor(len(w), 1.0)
    return v[:, keep] * np.sqrt(w[keep])


def luders_sum(projectors: Iterable[np.ndarray], x: np.ndarray) -> np.ndarray:
    """sum_n P_n x P_n, the non-selective Lueders update of x."""
    out = np.zeros(x.shape, dtype=complex)
    for p in projectors:
        out += p @ x @ p
    return out


def select_outcome(p: np.ndarray, rho: np.ndarray,
                   tol: Tolerances) -> tuple[np.ndarray, float]:
    """Selective step (P rho P / w, w) with weight w = tr(P rho P)."""
    num = p @ rho @ p
    w = float(np.real(np.trace(num)))
    if w <= tol.probability:
        raise ZeroProbability(f"selected outcome has probability {w:.3e}")
    return num / w, w


def check_unitary(u: np.ndarray, tol: Tolerances, what: str) -> None:
    """Refuse a non-square or non-unitary matrix, naming it as `what`."""
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"{what} has shape {u.shape}")
    if not within(u @ dag(u) - np.eye(u.shape[0]), tol.unitary):
        raise NotUnitary(f"{what} is not unitary")


def check_effect(b, dim: int, tol: Tolerances) -> np.ndarray:
    """Return `b` as a dim x dim array after checking 0 <= b <= 1."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (dim, dim):
        raise NotEffect(f"effect has shape {b.shape}, expected {(dim, dim)}")
    if not is_hermitian(b, tol):
        raise NotEffect("effect is not Hermitian")
    ev = np.linalg.eigvalsh((b + dag(b)) / 2)
    if ev.min() < -tol.positivity or ev.max() > 1.0 + tol.positivity:
        raise NotEffect(f"effect spectrum [{ev.min():.3e}, {ev.max():.3e}] "
                        "leaves [0, 1]")
    return b


def check_density(m, dim: int, tol: Tolerances, what: str) -> np.ndarray:
    """Return `m` as a dim x dim array after checking it is a density matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"{what} has shape {m.shape}, expected {(dim, dim)}")
    if not is_hermitian(m, tol):
        raise NotHermitian(f"{what} is not Hermitian")
    tr = m.trace()
    if abs(tr - 1.0) > tol.trace:
        raise ValueError(f"{what} does not have unit trace (trace {tr:.3e})")
    w = np.linalg.eigvalsh((m + dag(m)) / 2).min()
    if w < -tol.positivity:
        raise ValueError(f"{what} is not positive semidefinite (eigenvalue {w:.3e})")
    return m


@dataclass(frozen=True)
class ProductSpace:
    """Ordered labelled tensor factors; labels, dims and dim are fixed at
    construction."""
    factors: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(l for l, _ in self.factors)
        dims = tuple(d for _, d in self.factors)
        if len(set(labels)) != len(labels):
            raise ValueError("factor labels must be unique")
        if any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", prod(dims))
        if self.dim > MAX_DIM:
            raise TruncationTooLarge(f"total dimension {self.dim} exceeds {MAX_DIM}")

    def index(self, label: str) -> int:
        for i, (l, _) in enumerate(self.factors):
            if l == label:
                return i
        raise UnknownLabel(f"no factor {label!r} in {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.index(label)][1]

    def restricted(self, labels: Sequence[str]) -> "ProductSpace":
        return ProductSpace(tuple((l, self.dim_of(l)) for l in labels))


def space(*factors: tuple[str, int]) -> ProductSpace:
    return ProductSpace(tuple((str(l), int(d)) for l, d in factors))


def qubit_space(*labels: str) -> ProductSpace:
    return space(*((l, 2) for l in labels))


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Dense operator on a product space, with optional declared support."""
    space: ProductSpace
    matrix: np.ndarray
    support: frozenset | None = None
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != self.space.dim:
            raise DimensionMismatch(
                f"matrix dim {m.shape[0]} != space dim {self.space.dim}")
        if self.support is not None:
            sup = frozenset(self.support)
            for l in sup:
                self.space.index(l)
            object.__setattr__(self, "support", sup)
            if not within(_support_defect(m, self.space, sup), self.tol.support):
                raise DimensionMismatch(
                    "matrix is not identity outside the declared support")

    def dagger(self) -> "LocalOperator":
        return LocalOperator(self.space, dag(self.matrix), self.support, self.tol)

    def __add__(self, other):
        if other.space != self.space:
            raise SpaceMismatch("operators live on different spaces")
        sup = (None if self.support is None or other.support is None
               else self.support | other.support)
        return LocalOperator(self.space, self.matrix + other.matrix, sup, self.tol)

    def __mul__(self, c):
        return LocalOperator(self.space, c * self.matrix, self.support, self.tol)


def _support_defect(m: np.ndarray, sp: ProductSpace, support: frozenset) -> np.ndarray:
    """`m` minus its part (operator on support) x (identity elsewhere)."""
    sup_labels = [l for l in sp.labels if l in support]
    if len(sup_labels) == len(sp.labels):
        return np.zeros((1, 1))
    d_rest = sp.dim // prod(sp.dim_of(l) for l in sup_labels)
    restricted = _ptrace_matrix(m, sp, sup_labels) / d_rest
    return m - _embed_matrix(restricted, sup_labels, sp)


def _apply_matrix(op: np.ndarray, target_labels: Sequence[str], sp: ProductSpace,
                  m: np.ndarray) -> np.ndarray:
    """``op`` on the factors ``target_labels`` of ``sp`` (identity elsewhere)
    times ``m``, in O(dim^2 d_t) and without forming the dim x dim operator.

    Rows of ``m`` are split into blocks (A0, t1, A1, .., tk, rest) around the
    targets, which are gathered in ``op``'s order for one batched matmul;
    adjacent ascending targets need no copy.  Callers validate ``op``.
    """
    dims = sp.dims
    axes = [sp.index(l) for l in target_labels]
    if axes == list(range(len(dims))):
        return op @ m
    order = sorted(axes)
    shape, prev = [], 0
    for a in order:
        shape += [prod(dims[prev:a]), dims[a]]
        prev = a + 1
    k = len(axes)
    perm = [*range(0, 2 * k, 2), *(2 * order.index(a) + 1 for a in axes), 2 * k]
    x = m.reshape(shape + [-1]).transpose(perm)
    y = op @ x.reshape(-1, prod(dims[a] for a in axes), x.shape[-1])
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    return y.reshape(x.shape).transpose(inv).reshape(m.shape)


def _embed_matrix(op: np.ndarray, target_labels: Sequence[str],
                  sp: ProductSpace) -> np.ndarray:
    """``op`` on the factors ``target_labels``, identity elsewhere, as a dim x dim
    matrix: ``op`` itself when the targets are the whole space in order."""
    if list(target_labels) == list(sp.labels):
        return op
    return _apply_matrix(op, target_labels, sp, np.eye(sp.dim, dtype=complex))


def embed(op, target_labels: Sequence[str] | str, sp: ProductSpace) -> LocalOperator:
    """Place `op` on the named factors, identity elsewhere: the support holds
    by construction, so it is not re-verified as a declared one is."""
    if isinstance(target_labels, str):
        target_labels = [target_labels]
    op = _as_matrix(op)
    d_t = sp.restricted(target_labels).dim   # refuses unknown or repeated labels
    if op.shape != (d_t, d_t):
        raise DimensionMismatch(
            f"operator shape {op.shape} != target factor dim {d_t}")
    out = LocalOperator(sp, _embed_matrix(op, target_labels, sp))
    object.__setattr__(out, "support", frozenset(target_labels))
    return out


def _ptrace_matrix(m: np.ndarray, sp: ProductSpace, keep: Sequence[str]) -> np.ndarray:
    dims, n = list(sp.dims), len(sp.dims)
    keep_idx = [sp.index(l) for l in keep]
    col = [n + i if i in keep_idx else i for i in range(n)]
    out = keep_idx + [n + i for i in keep_idx]
    red = np.einsum(m.reshape(dims + dims), list(range(n)) + col, out)
    d = prod(dims[i] for i in keep_idx)
    return red.reshape(d, d)


@dataclass(frozen=True, eq=False)
class DensityState:
    """Density matrix with validity checks at construction."""
    space: ProductSpace
    matrix: np.ndarray
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_density(
            self.matrix, self.space.dim, self.tol, "density matrix"))

    @classmethod
    def pure(cls, vec, sp: ProductSpace, tol: Tolerances = DEFAULT) -> "DensityState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("zero vector")
        v = v / nrm
        return cls(sp, np.outer(v, v.conj()), tol)

    @classmethod
    def maximally_mixed(cls, sp: ProductSpace) -> "DensityState":
        return cls(sp, np.eye(sp.dim, dtype=complex) / sp.dim)


def pure_state(vec, sp: ProductSpace) -> DensityState:
    return DensityState.pure(vec, sp)


@dataclass(frozen=True, eq=False)
class ProjectiveResolution:
    """Complete family of mutually orthogonal projectors, with bin values."""
    space: ProductSpace
    projectors: tuple[LocalOperator, ...]
    values: tuple[float, ...] = ()
    bins: tuple[tuple[float, float], ...] | None = None
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        if not self.projectors:
            raise ValueError("resolution needs at least one projector")
        mats = [p.matrix for p in self.projectors]
        for i, p in enumerate(mats):
            if not is_projector(p, self.tol):
                raise InvalidProjector(f"resolution member {i} is not a projector")
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if not within(mats[i] @ mats[j], self.tol.projector):
                    raise InvalidProjector(f"projectors {i},{j} not orthogonal")
        if not within(sum(mats) - np.eye(self.space.dim), self.tol.projector):
            raise InvalidProjector("projectors do not sum to the identity")

    def __len__(self) -> int:
        return len(self.projectors)

    def __iter__(self):
        return iter(self.projectors)


def _check_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space.labels} vs {b.space.labels}")


def spectral_resolution(a: LocalOperator,
                        bins: Sequence[tuple[float, float]] | None = None,
                        tol: Tolerances = DEFAULT) -> ProjectiveResolution:
    """Eigenprojectors of a Hermitian operator, grouped by bins.

    Default binning groups eigenvalues closer than the relative degeneracy
    tolerance; explicit bins are closed disjoint intervals and must cover the
    whole spectrum.
    """
    m = a.matrix
    if not is_hermitian(m, tol):
        raise NotHermitian("spectral resolution of a non-Hermitian operator")
    w, v = np.linalg.eigh((m + dag(m)) / 2)
    groups: list[list[int]]
    if bins is None:
        gap = tol.degeneracy * max(1.0, float(np.abs(w).max(initial=0.0)))
        groups = [[0]]
        for i in range(1, len(w)):
            if w[i] - w[groups[-1][0]] <= gap:
                groups[-1].append(i)
            else:
                groups.append([i])
        bins_out = None
    else:
        iv = sorted((float(lo), float(hi)) for lo, hi in bins)
        for (lo, hi) in iv:
            if hi < lo:
                raise BinsNotCovering(f"bin ({lo},{hi}) is empty")
        for k in range(1, len(iv)):
            if iv[k][0] <= iv[k - 1][1]:
                raise BinsNotCovering(f"bins {iv[k-1]} and {iv[k]} overlap")
        groups = [[] for _ in iv]
        for i, lam in enumerate(w):
            for k, (lo, hi) in enumerate(iv):
                if lo <= lam <= hi:
                    groups[k].append(i)
                    break
            else:
                raise BinsNotCovering(f"eigenvalue {lam} not covered by any bin")
        bins_out = tuple((lo, hi) for (lo, hi), g in zip(iv, groups) if g)
        groups = [g for g in groups if g]
    projs = tuple(LocalOperator(a.space, v[:, g] @ dag(v[:, g]), a.support, tol)
                  for g in groups)
    vals = tuple(float(np.mean(w[g])) for g in groups)
    return ProjectiveResolution(a.space, projs, vals, bins_out, tol)


def born_probability(rho: DensityState, e: LocalOperator,
                     tol: Tolerances = DEFAULT) -> float:
    """tr(rho E) for an effect 0 <= E <= 1, clamped to [0, 1]."""
    _check_space(rho, e)
    m = check_effect(e.matrix, rho.space.dim, tol)
    p = float(np.real(np.trace(rho.matrix @ m)))
    return min(1.0, max(0.0, p))


def luders_nonselective(rho: DensityState, r: ProjectiveResolution) -> DensityState:
    """rho -> sum_n E_n rho E_n."""
    if r.space != rho.space:
        raise SpaceMismatch("resolution and state live on different spaces")
    out = luders_sum((p.matrix for p in r.projectors), rho.matrix)
    return DensityState(rho.space, out, rho.tol)


def luders_selective(rho: DensityState, e: LocalOperator,
                     tol: Tolerances = DEFAULT) -> tuple[DensityState, float]:
    """Conditional update (E rho E / p, p) with p = tr(E rho E)."""
    _check_space(rho, e)
    if not is_projector(e.matrix, tol):
        raise NotEffect("selective update requires a projector")
    out, p = select_outcome(e.matrix, rho.matrix, tol)
    return DensityState(rho.space, out, rho.tol), p


def partial_trace(rho: DensityState, keep: Sequence[str] | str) -> DensityState:
    """Reduced state on the kept factors, in the order given."""
    if isinstance(keep, str):
        keep = [keep]
    for l in keep:
        rho.space.index(l)
    red = _ptrace_matrix(rho.matrix, rho.space, keep)
    return DensityState(rho.space.restricted(keep), red, rho.tol)


def expectation(rho: DensityState, a: LocalOperator,
                tol: Tolerances = DEFAULT):
    """tr(rho A); returns a float for Hermitian A, else complex."""
    _check_space(rho, a)
    val = complex(np.trace(rho.matrix @ a.matrix))
    if is_hermitian(a.matrix, tol):
        return float(val.real)
    return val
