"""Finite dimensional quantum kernel on labelled tensor-product spaces.

States are kept in the Schroedinger picture; Heisenberg operators are produced
on demand by conjugation.  All matrices are dense complex arrays and the total
dimension is capped at 2**14, which covers every scenario in this package.

Every module builds on one primitive per idea, each working on plain arrays:

* `expih(h, t)`: the Hermitian exponential exp(i t h), from one `eigh`;
* `luders_sum(projectors, x)`: the non-selective Lueders sum sum_n P_n x P_n;
* `select_outcome(p, rho, tol)`: the selective step (P rho P / w, w);
* `check_unitary`, `check_effect`: validation against `Tolerances`, and
  `projector_defect`, the measure that projector checks compare with it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (BinsNotCovering, DimensionMismatch, NotEffect,
                     NotHermitian, SpaceMismatch, TruncationTooLarge,
                     UnknownLabel, ZeroProbability)

__all__ = [
    "MAX_DIM", "ProductSpace", "LocalOperator", "DensityState",
    "ProjectiveResolution", "space", "qubit_space", "embed",
    "spectral_resolution", "born_probability", "luders_nonselective",
    "luders_selective", "partial_trace", "expectation",
    "pure_state", "dag", "commutator", "opnorm", "herm_defect",
    "expih", "luders_sum", "select_outcome", "check_unitary", "check_effect",
    "projector_defect",
    "sigma_x", "sigma_y", "sigma_z", "sigma_p", "sigma_m", "eye2",
]

MAX_DIM = 2 ** 14

sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
# basis index 0 = ground, 1 = excited; sigma_p raises, sigma_m lowers
sigma_p = np.array([[0, 0], [1, 0]], dtype=complex)
sigma_m = np.array([[0, 1], [0, 0]], dtype=complex)
eye2 = np.eye(2, dtype=complex)


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def opnorm(a: np.ndarray) -> float:
    """Operator 2-norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


def herm_defect(a: np.ndarray) -> float:
    return opnorm(a - dag(a))


def projector_defect(m: np.ndarray) -> tuple[float, float]:
    """(Hermiticity, idempotence) defects; both vanish for an orthogonal projector."""
    return herm_defect(m), opnorm(m @ m - m)


def expih(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i t h) for Hermitian h, from one eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ dag(v)


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
    if opnorm(u @ dag(u) - np.eye(u.shape[0])) > tol.unitary:
        raise ValueError(f"{what} is not unitary")


def check_effect(b, dim: int, tol: Tolerances) -> np.ndarray:
    """Return `b` as a dim x dim array after checking 0 <= b <= 1."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (dim, dim):
        raise NotEffect(f"effect has shape {b.shape}, expected {(dim, dim)}")
    if herm_defect(b) > tol.hermitian * max(1.0, opnorm(b)):
        raise NotEffect("effect is not Hermitian")
    ev = np.linalg.eigvalsh((b + dag(b)) / 2)
    if ev.min() < -tol.positivity or ev.max() > 1.0 + tol.positivity:
        raise NotEffect(f"effect spectrum [{ev.min():.3e}, {ev.max():.3e}] "
                        "leaves [0, 1]")
    return b


@dataclass(frozen=True)
class ProductSpace:
    """Ordered labelled tensor factors."""
    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [l for l, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError("factor labels must be unique")
        if any(d < 1 for _, d in self.factors):
            raise ValueError("factor dimensions must be positive")
        if self.dim > MAX_DIM:
            raise TruncationTooLarge(f"total dimension {self.dim} exceeds {MAX_DIM}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        return int(np.prod([d for _, d in self.factors], dtype=np.int64))

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
            if _support_defect(m, self.space, sup) > self.tol.support:
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


def _scale(m: np.ndarray) -> float:
    return max(1.0, float(np.abs(m).max(initial=0.0)))


def _support_defect(m: np.ndarray, sp: ProductSpace, support: frozenset) -> float:
    """Distance from `m` to (operator on support) x (identity elsewhere)."""
    sup_labels = [l for l in sp.labels if l in support]
    rest = [l for l in sp.labels if l not in support]
    if not rest:
        return 0.0
    d_rest = int(np.prod([sp.dim_of(l) for l in rest], dtype=np.int64))
    restricted = _ptrace_matrix(m, sp, sup_labels) / d_rest
    rebuilt = _embed_matrix(restricted, sup_labels, sp)
    return opnorm(m - rebuilt)


def _embed_matrix(op: np.ndarray, target_labels: Sequence[str], sp: ProductSpace) -> np.ndarray:
    targets = list(target_labels)
    rest = [l for l in sp.labels if l not in targets]
    d_t = int(np.prod([sp.dim_of(l) for l in targets], dtype=np.int64))
    if op.shape != (d_t, d_t):
        raise DimensionMismatch(
            f"operator shape {op.shape} != target factor dim {d_t}")
    d_r = int(np.prod([sp.dim_of(l) for l in rest], dtype=np.int64))
    big = np.kron(op, np.eye(d_r, dtype=complex))
    current = targets + rest
    if current == list(sp.labels):
        return big
    cur_dims = [sp.dim_of(l) for l in current]
    n = len(current)
    perm = [current.index(l) for l in sp.labels]
    t = big.reshape(cur_dims + cur_dims)
    t = t.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(t.reshape(sp.dim, sp.dim))


def _apply_matrix(op: np.ndarray, target_labels: Sequence[str], sp: ProductSpace,
                  m: np.ndarray) -> np.ndarray:
    """``_embed_matrix(op, target_labels, sp) @ m`` in O(dim^2 d_t), not O(dim^3).

    Rows of ``m`` are split into blocks (A0, t1, A1, .., tk, rest) around the
    targets, which are gathered in ``op``'s order for one batched matmul;
    adjacent ascending targets need no copy.  Callers validate ``op``.
    """
    axes = [sp.index(l) for l in target_labels]
    d_t = int(np.prod([sp.dims[i] for i in axes], dtype=np.int64))
    shape, prev = [], 0
    for a in sorted(axes):
        shape += [int(np.prod(sp.dims[prev:a], dtype=np.int64)), sp.dims[a]]
        prev = a + 1
    k = len(axes)
    perm = [*range(0, 2 * k, 2), *(2 * sorted(axes).index(a) + 1 for a in axes), 2 * k]
    x = m.reshape(shape + [-1]).transpose(perm)
    y = op @ x.reshape(-1, d_t, x.shape[-1])
    return y.reshape(x.shape).transpose(np.argsort(perm)).reshape(m.shape)


def embed(op, target_labels: Sequence[str] | str, sp: ProductSpace) -> LocalOperator:
    """Place `op` on the named factors, identity elsewhere."""
    if isinstance(target_labels, str):
        target_labels = [target_labels]
    m = _embed_matrix(_as_matrix(op), target_labels, sp)
    return LocalOperator(sp, m, frozenset(target_labels))


def _ptrace_matrix(m: np.ndarray, sp: ProductSpace, keep: Sequence[str]) -> np.ndarray:
    dims = list(sp.dims)
    n = len(dims)
    labels = sp.labels
    keep_idx = [sp.index(l) for l in keep]
    t = m.reshape(dims + dims)
    row = list(range(n))
    col = [i if i not in keep_idx else n + i for i in range(n)]
    out = [i for i in keep_idx] + [n + i for i in keep_idx]
    red = np.einsum(t, row + col, out)
    d = int(np.prod([dims[i] for i in keep_idx], dtype=np.int64))
    return red.reshape(d, d)


@dataclass(frozen=True, eq=False)
class DensityState:
    """Density matrix with validity checks at construction."""
    space: ProductSpace
    matrix: np.ndarray
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != self.space.dim:
            raise DimensionMismatch(
                f"matrix dim {m.shape[0]} != space dim {self.space.dim}")
        if herm_defect(m) > self.tol.hermitian * _scale(m):
            raise NotHermitian("density matrix is not Hermitian")
        tr = m.trace()
        if abs(tr - 1.0) > self.tol.trace:
            raise ValueError(f"density matrix trace {tr} != 1")
        w = np.linalg.eigvalsh((m + dag(m)) / 2)
        if w.min() < -self.tol.positivity:
            raise ValueError(f"density matrix has eigenvalue {w.min():.3e} < 0")

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
        tot = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        mats = [p.matrix for p in self.projectors]
        for i, p in enumerate(mats):
            herm, idem = projector_defect(p)
            if herm > self.tol.projector:
                raise NotHermitian(f"projector {i} not Hermitian")
            if idem > self.tol.projector:
                raise ValueError(f"projector {i} not idempotent")
            tot += p
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if opnorm(mats[i] @ mats[j]) > self.tol.projector:
                    raise ValueError(f"projectors {i},{j} not orthogonal")
        if opnorm(tot - np.eye(self.space.dim)) > self.tol.projector:
            raise ValueError("projectors do not sum to the identity")

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
    if herm_defect(m) > tol.projector * _scale(m):
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
    projs = []
    vals = []
    for g in groups:
        cols = v[:, g]
        projs.append(LocalOperator(a.space, cols @ dag(cols), a.support, tol))
        vals.append(float(np.mean(w[g])))
    return ProjectiveResolution(a.space, tuple(projs), tuple(vals), bins_out, tol)


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
    if max(projector_defect(e.matrix)) > tol.projector:
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
    if herm_defect(a.matrix) <= tol.hermitian * _scale(a.matrix):
        return float(val.real)
    return val
