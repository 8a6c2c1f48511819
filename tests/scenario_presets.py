"""Reference scenarios for the scenario tests.

`shipped` builds one of the shipped `presets/*.json` documents the way the CLI
does.  Two scenarios no document states are built here: `sorkin_qft_fock`, a
kick / measure / readout chain on a truncated Fock space, and
`borsten_additive_control`, the Borsten chain with the measured observable
split additively, which cannot signal.
"""
from pathlib import Path

import numpy as np

from causalq.causal import fig2_preset
from causalq.config import DEFAULT, Tolerances
from causalq.qops import (LocalOperator, embed, pure_state, qubit_space,
                          sigma_x, sigma_z)
from causalq.scenarios import Scenario, kick_generator, measure, observe
from causalq.serial import build_scenario, load_document

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def shipped(name: str, tol: Tolerances = DEFAULT) -> Scenario:
    """The scenario of `presets/<name>.json`."""
    return build_scenario(load_document(PRESETS / f"{name}.json"), tol)


def borsten_additive_control(tol: Tolerances = DEFAULT) -> Scenario:
    """Kick X on A, measure Z_A + Z_B, read X on B: the baseline stays flat."""
    o1, o2, o3 = fig2_preset()
    sp = qubit_space("A", "B")
    init = pure_state(np.kron([1, 0], [1, 1]) / np.sqrt(2), sp)
    a2 = embed(sigma_z, "A", sp) + embed(sigma_z, "B", sp)
    ops = (
        kick_generator(embed(sigma_x, "A", sp), o1, "gamma"),
        measure(a2, o2),
        observe(embed(sigma_x, "B", sp), o3, "C"),
    )
    grid = tuple(k * np.pi / 16 for k in range(17))
    return Scenario(sp, init, ops, ("gamma", grid), tol)


def sorkin_qft_fock(tol: Tolerances = DEFAULT) -> Scenario:
    """Sorkin's chain on two massless lattice modes at cutoff 3: kick the
    first mode's field quadrature, measure a one-particle superposition,
    count the second mode's quanta."""
    from causalq.field import FieldModel, fock_backend
    o1, o2, o3 = fig2_preset()
    f = FieldModel(mass=0.0, sites=8, steps=8)
    fb = fock_backend(f, [2, -2], 3)
    sp = fb.space
    ann = fb.annihilation(2)
    x1 = (ann + ann.dagger()) * (1 / np.sqrt(2))
    d = fb.cutoff + 1
    one_a = np.kron(np.eye(d)[1], np.eye(d)[0])
    one_b = np.kron(np.eye(d)[0], np.eye(d)[1])
    psi2 = (fb.vacuum + (one_a + one_b) / np.sqrt(2)) / np.sqrt(2)
    ops = (
        kick_generator(x1, o1, "lam"),
        measure(LocalOperator(sp, np.outer(psi2, psi2.conj())), o2),
        observe(fb.number(-2), o3, "C"),
    )
    return Scenario(sp, pure_state(fb.vacuum, sp), ops,
                    ("lam", tuple(np.linspace(0.0, 1.5, 16))), tol)
