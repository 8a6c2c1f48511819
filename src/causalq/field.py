"""Free real scalar field on a periodic 1+1D lattice at Courant number one.

Every vacuum two-point value (Wightman, commutator, retarded Green; pointwise,
smeared, or on a few modes) comes from one primitive, `_two_point`, which
evaluates the mode sum only at the offsets a call asks for (the massless
commutator as an exact count of periodic images) or, on a mode subset, the
inner product of the per-mode field coefficients; smeared bilinears are plain
Riemann sums over lattice cells.  A truncated-Fock backend provides the same
field content as operators, from the same coefficients and ladder operators
embedded once per backend, for non-perturbative checks on a few modes.

The massless theory is treated in the discrete-time convention matched to the
dt = a leapfrog update: phase frequencies Omega_k = |k| and normalization
frequencies sin(|k| a)/a.  With that convention the commutator obeys the
discrete wave recursion exactly, so it vanishes *identically* outside the
slope-1 lattice cone (no 1e-12 tail, true zeros), and the Wightman function
reproduces it through W(x,x') - W(x',x).  The two modes with vanishing
normalization frequency (k = 0 and, for even N, the band edge) are kept only
through their state-independent secular imaginary parts by default; their
infrared-divergent real parts are dropped (`drop_zero_mode`) or regulated by
a fixed wavepacket width (`ir_width`); a regulated zero mode enters every
Wightman value alike: pointwise, smeared, and in the detector noise term.
Massive kernels use the standard lattice dispersion; their outside-cone tail
is measured, never assumed zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from math import erf
from typing import Mapping, Sequence

import numpy as np

from .causal import CellRegion, cells
from .errors import OutOfWindow, TruncationTooLarge
from .qops import LocalOperator, ProductSpace, _embed_matrix, dag

__all__ = [
    "FieldModel", "SmearingFn", "FockBackend",
    "wightman", "commutator", "retarded_green",
    "smeared_commutator", "smeared_wightman", "cone_tail",
    "box_smearing", "gaussian_smearing", "fock_backend",
]

Point = tuple[int, int]
_DEGENERATE = 1e-14  # normalization frequencies at or below it: degenerate modes


@dataclass(frozen=True, eq=False)
class FieldModel:
    """Periodic lattice model; kernels evaluated per call, at the offsets asked."""
    mass: float = 0.0
    sites: int = 64
    spacing: float = 1.0
    steps: int | None = None
    drop_zero_mode: bool = True
    ir_width: float = 1.0

    def __post_init__(self):
        if self.sites < 8:
            raise ValueError("need at least 8 sites")
        if self.mass < 0 or self.spacing <= 0:
            raise ValueError("mass must be >= 0 and spacing > 0")
        if self.steps is None:
            object.__setattr__(self, "steps", self.sites)
        if self.steps < 1:
            raise ValueError("time window needs at least one step")
        n, a, m = self.sites, self.spacing, self.mass
        j = np.arange(n)
        jj = np.where(j <= n // 2, j, j - n)
        theta = 2 * np.pi * jj / n               # k a, in (-pi, pi]
        omega = np.sqrt(m ** 2 + (2 / a * np.sin(theta / 2)) ** 2)
        if m == 0:
            phase = np.abs(theta) / a            # Omega_k = |k|
            norm = np.abs(np.sin(theta)) / a     # zero at k=0 and band edge
        else:
            phase = omega
            norm = omega
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "phase_freq", phase)
        object.__setattr__(self, "norm_freq", norm)

    @property
    def dt(self) -> float:
        return self.spacing

    def _regular(self) -> np.ndarray:
        return self.norm_freq > _DEGENERATE

    def _check_point(self, x: Point) -> Point:
        try:
            n, s = int(x[0]), int(x[1])
        except (TypeError, IndexError):
            raise OutOfWindow(f"not a lattice point: {x!r}")
        if not (0 <= n <= self.steps) or not (0 <= s < self.sites):
            raise OutOfWindow(
                f"point {x} outside window [0,{self.steps}] x [0,{self.sites})")
        return n, s


def _wightman_part(f: FieldModel, dn: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Translation-invariant Wightman part at offsets (dn, ds), ds in [0, sites):
    the regular-mode sum on the grid of distinct dn by distinct ds, then
    gathered, plus the degenerate modes' secular parts when massless."""
    n, a = f.sites, f.spacing
    tu, ti = np.unique(dn, return_inverse=True)
    xu, xi = np.unique(ds, return_inverse=True)
    reg = f._regular()
    amp = np.zeros(n)
    amp[reg] = 1.0 / (2 * f.norm_freq[reg] * n)
    grid = ((np.exp(-1j * np.outer(tu * a, f.phase_freq)) * amp)
            @ np.exp(1j * np.outer(f.theta, xu)))
    w = grid[ti.reshape(dn.shape), xi.reshape(ds.shape)]
    if f.mass == 0:
        sec = 0.5j * (dn * a) / n
        w = w - sec
        if n % 2 == 0:
            w = w + sec * (-1.0) ** (dn + ds)
    return w


def _wave_kernel(f: FieldModel, dn: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Massless commutator at dn >= 0: -i a times the number of periodic images
    x = ds + jN with |x| < dn and x + dn odd, the exact solution of the dt = a
    wave recursion from a unit kick."""
    n = f.sites
    odd = (ds + dn) % 2 == 1
    per = n * (1 + n % 2)              # period of the images of the right parity
    r = np.where(odd, ds, ds + n)      # least such image >= 0 (only odd N shifts)
    count = (dn - 1 - r) // per - (-dn - r) // per
    return -1j * f.spacing * np.where(odd | (n % 2 == 1), count, 0)


def _two_point(f: FieldModel, x, y, kind: str,
               modes: Sequence[int] | None = None) -> np.ndarray:
    """Vacuum Wightman or commutator between broadcast arrays of absolute
    points x = (n, s) and y = (n', s'); sites wrap periodically.

    Without `modes` the mode sum is evaluated only at the offsets asked (the
    massless commutator by its exact image count), plus the regulated zero-mode
    part when it is kept; with `modes` the values are the inner product of the
    per-mode field coefficients over those modes alone.
    """
    n, s, m, r = np.broadcast_arrays(*x, *y)
    if min(n.min(), m.min()) < 0 or max(n.max(), m.max()) > f.steps:
        raise OutOfWindow(f"steps outside window [0,{f.steps}]")
    if modes is not None:
        w = np.sum(_mode_coeffs(f, modes, n, s)
                   * np.conj(_mode_coeffs(f, modes, m, r)), axis=-1)
        return w if kind == "wightman" else w - np.conj(w)
    dn, ds = n - m, (s - r) % f.sites
    if kind == "commutator":
        # evaluated at dn >= 0 and negated otherwise: exactly antisymmetric
        p, q = np.abs(dn), np.where(dn >= 0, ds, -ds % f.sites)
        k = (_wave_kernel(f, p, q) if f.mass == 0 else
             _wightman_part(f, p, q) - _wightman_part(f, -p, -q % f.sites))
        return np.where(dn >= 0, k, -k)
    w = _wightman_part(f, dn, ds)
    if f.mass == 0 and not f.drop_zero_mode:
        w2 = f.ir_width ** 2
        real = w2 + (n * f.dt) * (m * f.dt) / (4 * w2)
        w = w + real / f.sites
        if f.sites % 2 == 0:
            w = w + real * (-1.0) ** (dn + ds) / f.sites
    return w


def wightman(f: FieldModel, x: Point, xp: Point) -> complex:
    """Vacuum W(x, x'); Hermitian under point exchange."""
    return complex(_two_point(f, f._check_point(x), f._check_point(xp), "wightman"))


def commutator(f: FieldModel, x: Point, xp: Point) -> complex:
    """Vacuum <[phi(x), phi(x')]>; purely imaginary, exactly antisymmetric."""
    return complex(_two_point(f, f._check_point(x), f._check_point(xp), "commutator"))


def retarded_green(f: FieldModel, x: Point, xp: Point) -> complex:
    """i theta(t - t') <[phi(x), phi(x')]>.

    Normalized so the massless kernel, coarse-grained over neighbouring cells,
    equals +1/2 inside the cone (the d'Alembert propagator value).
    """
    n, _ = f._check_point(x)
    np_, _ = f._check_point(xp)
    if n < np_:
        return 0j
    return 1j * commutator(f, x, xp)


def cone_tail(f: FieldModel) -> float:
    """Largest |commutator| strictly outside the slope-1 cone (periodic)."""
    dn, ds = np.arange(f.steps + 1)[:, None], np.arange(f.sites)
    out = np.minimum(ds, f.sites - ds) > dn
    k = _two_point(f, (dn, ds), (0, 0), "commutator")
    return float(np.abs(k[out]).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class SmearingFn:
    """Finitely supported real weights on lattice cells."""
    weights: Mapping[Point, float]
    region: CellRegion
    tail_mass: float = 0.0

    def __post_init__(self):
        w = {(int(n), int(s)): float(v) for (n, s), v in self.weights.items()}
        object.__setattr__(self, "weights", w)
        if not w:
            raise ValueError("smearing has no samples")
        extra = {c for c, v in w.items() if v != 0.0} - self.region.cells
        if extra:
            raise ValueError(f"samples outside declared region: {sorted(extra)[:4]}")

    def items(self):
        return self.weights.items()


def box_smearing(f: FieldModel, step_lo: int, step_hi: int,
                 site_lo: int, site_hi: int, amplitude: float = 1.0) -> SmearingFn:
    """Uniform weights on a closed block of cells."""
    pts = [(n, s) for n in range(step_lo, step_hi + 1)
           for s in range(site_lo, site_hi + 1)]
    for p in pts:
        f._check_point(p)
    return SmearingFn({p: amplitude for p in pts}, cells(pts, period=f.sites))


def gaussian_smearing(f: FieldModel, center: Point, sigma_t: float,
                      sigma_x: float, amplitude: float = 1.0,
                      cut: float = 6.0) -> SmearingFn:
    """Separable Gaussian truncated at `cut` sigmas; dropped mass reported."""
    n0, s0 = center
    rt = int(np.ceil(cut * sigma_t))
    rx = int(np.ceil(cut * sigma_x))
    wts = {}
    for n in range(n0 - rt, n0 + rt + 1):
        for s in range(s0 - rx, s0 + rx + 1):
            f._check_point((n, s))
            wts[(n, s)] = amplitude * float(
                np.exp(-((n - n0) ** 2) / (2 * sigma_t ** 2)
                       - ((s - s0) ** 2) / (2 * sigma_x ** 2)))
    captured = erf(cut / np.sqrt(2)) ** 2
    return SmearingFn(wts, cells(wts, period=f.sites), tail_mass=1.0 - captured)


def _mode_coeffs(f: FieldModel, modes: Sequence[int], n, s) -> np.ndarray:
    """Per-mode coefficients c_j(n, s), with phi(n, s) = sum_j c_j a_j + h.c.,
    on broadcast arrays of points; the last axis runs over `modes`."""
    idx = np.asarray(modes) % f.sites
    if not f._regular()[idx].all():
        raise ValueError("mode-restricted kernels exclude degenerate modes")
    t = np.asarray(n)[..., None] * f.dt
    s = np.asarray(s)[..., None]
    return (np.exp(-1j * f.phase_freq[idx] * t + 1j * f.theta[idx] * s)
            / np.sqrt(2 * f.norm_freq[idx] * f.sites))


def _pair_sum(f: FieldModel, sa: SmearingFn, sb: SmearingFn,
              modes: Sequence[int] | None, kind: str) -> complex:
    vol = f.dt * f.spacing
    pa, pb = np.array(list(sa.weights)), np.array(list(sb.weights))
    wa, wb = (np.array(list(sm.weights.values())) for sm in (sa, sb))
    ker = _two_point(f, (pa[:, None, 0], pa[:, None, 1]), pb.T, kind, modes)
    return complex(vol * vol * np.einsum("i,ij,j->", wa, ker, wb))


def smeared_commutator(f: FieldModel, sa: SmearingFn, sb: SmearingFn,
                       modes: Sequence[int] | None = None) -> complex:
    """Double lattice sum of <[phi, phi']> against two real smearings."""
    return _pair_sum(f, sa, sb, modes, "commutator")


def smeared_wightman(f: FieldModel, sa: SmearingFn, sb: SmearingFn,
                     modes: Sequence[int] | None = None) -> complex:
    """Double lattice sum of W against two real smearings."""
    return _pair_sum(f, sa, sb, modes, "wightman")


@dataclass(frozen=True, eq=False)
class FockBackend:
    """Truncated multi-mode Fock factor with smeared field operators; each
    mode's lowering operator is embedded in `space` once, at construction."""
    field: FieldModel
    modes: tuple[int, ...]
    cutoff: int
    space: ProductSpace = dfield(init=False)
    _ladders: tuple[np.ndarray, ...] = dfield(init=False, repr=False)

    def __post_init__(self):
        f = self.field
        modes = tuple(int(j) for j in self.modes)
        if len(set(j % f.sites for j in modes)) != len(modes):
            raise ValueError(f"modes {list(modes)} repeat a mode modulo the "
                             f"{f.sites} sites")
        if len(modes) > 3 or self.cutoff > 4:
            raise TruncationTooLarge("at most 3 modes and occupation cutoff 4")
        if len(modes) == 0 or self.cutoff < 1:
            raise ValueError("need at least one mode and cutoff >= 1")
        for j in modes:
            if not f._regular()[j % f.sites]:
                raise ValueError(f"mode {j} is degenerate; not representable")
        object.__setattr__(self, "modes", modes)
        sp = ProductSpace(tuple((self.mode_label(j), self.cutoff + 1)
                                for j in modes))
        object.__setattr__(self, "space", sp)
        low = np.diag(np.sqrt(np.arange(1, self.cutoff + 1)), 1).astype(complex)
        object.__setattr__(self, "_ladders", tuple(
            _embed_matrix(low, [self.mode_label(j)], sp) for j in modes))

    @staticmethod
    def mode_label(j: int) -> str:
        return f"m{j}"

    @property
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.space.dim, dtype=complex)
        v[0] = 1.0
        return v

    def annihilation(self, j: int) -> LocalOperator:
        label = self.mode_label(j)
        a = self._ladders[self.space.index(label)]
        return LocalOperator(self.space, a, frozenset([label]))

    def number(self, j: int) -> LocalOperator:
        a = self.annihilation(j)
        return LocalOperator(self.space, dag(a.matrix) @ a.matrix, a.support)

    def _field_matrix(self, weights: Mapping[Point, float], scale: float) -> np.ndarray:
        """scale * sum over cells of weight * phi(cell) on `space`, with the
        per-mode coefficients summed in cell order."""
        f = self.field
        n, s = np.array([f._check_point(p) for p in weights]).T
        w = scale * np.array(list(weights.values()))
        coeffs = (w[:, None] * _mode_coeffs(f, self.modes, n, s)).sum(axis=0)
        m = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        for c, a in zip(coeffs, self._ladders):
            m += c * a + np.conj(c) * dag(a)
        return m

    def phi_at(self, x: Point) -> LocalOperator:
        cell = self.field._check_point(x)
        return LocalOperator(self.space, self._field_matrix({cell: 1.0}, 1.0))

    def phi_smeared(self, sm: SmearingFn) -> LocalOperator:
        f = self.field
        return LocalOperator(self.space, self._field_matrix(sm.weights, f.dt * f.spacing))


def fock_backend(f: FieldModel, modes: Sequence[int], cutoff: int) -> FockBackend:
    """Truncated creation/annihilation realization of the selected modes."""
    return FockBackend(f, tuple(modes), cutoff)
