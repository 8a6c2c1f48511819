"""Oracles built independently of the package's placement, field and Fock
kernels.

`kron_embed` places an operator on named factors as a kron with the identity
on the other factors, then one transposed copy into the space's factor order,
independently of `qops._apply_matrix`.  `ladder_field` embeds every lowering
operator afresh on each call, and `embedded_generators` forms each coupling
generator as the product of the separately embedded monopole and field slice,
so both stay independent of the field matrices and generators that the
package builds.  `table_two_point`
reads vacuum two-point values off whole-window tables: the Wightman part from
one mode-sum matmul over every step offset, the massless commutator from the
dt = a wave recursion run across the whole window.  `worst_commutator_pairs`
is the Borsten kernel one Pauli pair at a time, as `scenarios._worst_commutator`
computed it before it stacked the pairs.
"""
import numpy as np

from causalq import qops
from causalq.errors import DimensionMismatch
from causalq.field import _mode_coeffs


def kron_embed(op, target_labels, sp):
    """`op` on the factors `target_labels` of `sp`, identity elsewhere, as a
    sp.dim x sp.dim matrix: kron(op, 1_rest), then the factors permuted."""
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


def ladder_field(fb, weights, scale):
    """scale * sum over cells of weight * phi(cell) on fb.space, formed as
    sum_j c_j a_j + h.c. with each a_j embedded for this call."""
    low = np.diag(np.sqrt(np.arange(1, fb.cutoff + 1)), 1).astype(complex)
    m = np.zeros((fb.space.dim, fb.space.dim), dtype=complex)
    for j in fb.modes:
        c = scale * sum(w * _mode_coeffs(fb.field, [j], n, s)[0]
                        for (n, s), w in weights.items())
        a = kron_embed(low, [fb.mode_label(j)], fb.space)
        m += c * a + np.conj(c) * qops.dag(a)
    return m


def embedded_generators(dets, fb, sp):
    """Per-step lists of (detector index, -i dt chi embed(mu) @ embed(phi_n)),
    phi_n = a sum_s F(s) phi(n, s), in the detectors' switching order."""
    f = fb.field
    by_step = {}
    for v, d in enumerate(dets):
        for n, chi in d.switching.items():
            mu = kron_embed(d.mu(n * f.dt), [d.label], sp)
            phi = ladder_field(fb, {(n, s): w for s, w in d.smearing.items()}, f.spacing)
            phi = kron_embed(phi, fb.space.labels, sp)
            by_step.setdefault(n, []).append((v, -1j * f.dt * chi * (mu @ phi)))
    return by_step


def kernel_tables(f):
    """(W, C): the translation-invariant Wightman part indexed [dn + steps, ds]
    and the commutator for dn >= 0 indexed [dn, ds], over the whole window."""
    n, a = f.sites, f.spacing
    dns = np.arange(-f.steps, f.steps + 1)
    dss = np.arange(n)
    reg = f._regular()
    amp = np.zeros(n)
    amp[reg] = 1.0 / (2 * f.norm_freq[reg] * n)
    tpart = np.exp(-1j * np.outer(dns * a, f.phase_freq))
    xpart = np.exp(1j * np.outer(f.theta, dss))
    w = (tpart * amp) @ xpart
    if f.mass == 0:
        # state-independent secular parts of the two degenerate modes
        w += (-0.5j * (dns * a) / n)[:, None]
        if n % 2 == 0:
            par = np.outer((-1.0) ** dns, (-1.0) ** dss)
            w += (0.5j * (dns * a) / n)[:, None] * par
        # exact kernel of the dt = a discrete wave recursion
        d = np.zeros((f.steps + 1, n))
        d[1, 0] = 1.0
        for t in range(1, f.steps):
            d[t + 1] = np.roll(d[t], 1) + np.roll(d[t], -1) - d[t - 1]
        return w, -1j * a * d
    fwd = w[f.steps:, :]
    rev = w[f.steps::-1, :][:, (-dss) % n]
    return w, fwd - rev


def table_two_point(f, x, y, kind):
    """Vacuum Wightman or commutator between broadcast arrays of absolute
    points, looked up in `kernel_tables` (plus the regulated zero mode)."""
    w_tab, c_tab = kernel_tables(f)
    n, s, m, r = np.broadcast_arrays(*x, *y)
    dn, ds = n - m, (s - r) % f.sites
    if kind == "commutator":
        return np.where(dn >= 0, c_tab[np.abs(dn), ds],
                        -c_tab[np.abs(dn), -ds % f.sites])
    w = w_tab[dn + f.steps, ds]
    if f.mass == 0 and not f.drop_zero_mode:
        w2 = f.ir_width ** 2
        real = w2 + (n * f.dt) * (m * f.dt) / (4 * w2)
        w = w + real / f.sites
        if f.sites % 2 == 0:
            w = w + real * (-1.0) ** (dn + ds) / f.sites
    return w


def worst_commutator_pairs(projectors, alg1, alg3):
    """Largest ||[sum_n P_n A3 P_n, A1]||_2 one pair at a time: A3 outer, A1
    inner, one `opnorm` per commutator, the first strict maximum kept, with
    its (A1, A3) indices."""
    worst, witness = 0.0, None
    for i3, a3 in enumerate(alg3):
        cond = qops.luders_sum(projectors, getattr(a3, "matrix", a3))
        for i1, a1 in enumerate(alg1):
            v = qops.opnorm(qops.commutator(cond, getattr(a1, "matrix", a1)))
            if v > worst:
                worst, witness = v, (i1, i3)
    return worst, witness
