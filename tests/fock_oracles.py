"""Truncated-Fock oracles built without `FockBackend`'s stored ladders.

`ladder_field` embeds every lowering operator afresh on each call, and
`embedded_generators` forms each coupling generator as the product of the
separately embedded monopole and field slice, so both stay independent of the
field matrices and generators that the package builds.
"""
import numpy as np

from causalq import qops
from causalq.field import _mode_coeffs


def ladder_field(fb, weights, scale):
    """scale * sum over cells of weight * phi(cell) on fb.space, formed as
    sum_j c_j a_j + h.c. with each a_j embedded for this call."""
    low = np.diag(np.sqrt(np.arange(1, fb.cutoff + 1)), 1).astype(complex)
    m = np.zeros((fb.space.dim, fb.space.dim), dtype=complex)
    for j in fb.modes:
        c = scale * sum(w * _mode_coeffs(fb.field, [j], n, s)[0]
                        for (n, s), w in weights.items())
        a = qops._embed_matrix(low, [fb.mode_label(j)], fb.space)
        m += c * a + np.conj(c) * qops.dag(a)
    return m


def embedded_generators(dets, fb, sp):
    """Per-step lists of (detector index, -i dt chi embed(mu) @ embed(phi_n)),
    phi_n = a sum_s F(s) phi(n, s), in the detectors' switching order."""
    f = fb.field
    by_step = {}
    for v, d in enumerate(dets):
        for n, chi in d.switching.items():
            mu = qops._embed_matrix(d.mu(n * f.dt), [d.label], sp)
            phi = ladder_field(fb, {(n, s): w for s, w in d.smearing.items()}, f.spacing)
            phi = qops._embed_matrix(phi, fb.space.labels, sp)
            by_step.setdefault(n, []).append((v, -1j * f.dt * chi * (mu @ phi)))
    return by_step
