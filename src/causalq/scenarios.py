"""Localized measurement scenarios and superluminal-signalling estimators.

A scenario is a list of local operations (unitary kicks, non-selective or
selective projective measurements, terminal readouts), each tied to a
spacetime region.  Operations are applied along a linear extension of the
causal partial order of their regions, and one extension of every commutation
class is run and compared, so order ambiguity that leaks into recorded values
is detected rather than silently resolved.  Two spacelike operations are
independent when their order cannot change a recorded value: two observes,
or, unless a select meets another select or an observe, two operations whose
matrices commute at rounding level (a parametric kick's generator, each
eigenprojector of a measurement; fixed kicks up to a phase).  Extensions joined
by swaps of adjacent independent operations record the same values, so one per
class keeps the whole comparison (Sorkin 1993; Borsten, Jubb & Kells 2021).  At
most `MAX_EXTENSIONS` representatives are run; a scenario with more classes is
checked on the first of them and says so in `Scenario.order_check`.  Parameter
sweeps quantify how much a kick in one region shifts expectations in another,
and an operator-level checker separates measured observables that can relay
such a shift from those that cannot.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from itertools import combinations, islice, product as iproduct
from typing import Mapping, Sequence

import numpy as np

from .causal import Region, build_order, fig2_preset, spacelike
from .config import DEFAULT, Tolerances
from .errors import (BasisEmpty, NotEffect, NotHermitian, OrderSensitivity,
                     SpaceMismatch, UnknownParameter, UnknownPreset)
from .field import FieldModel, fock_backend
from .qops import (PAULI, DensityState, LocalOperator, ProductSpace,
                   check_unitary, commutator, commute, dag, embed, expih,
                   is_hermitian, is_projector, luders_sum, opnorm, pure_state,
                   qubit_space, select_outcome, sigma_x, sigma_z,
                   spectral_resolution)

__all__ = [
    "MAX_EXTENSIONS", "MAX_OPERATIONS", "LocalOperation", "Scenario",
    "SignallingReport", "kick", "kick_generator", "measure", "select", "observe",
    "run", "signalling_delta", "borsten_check", "borsten_violation",
    "pauli_strings", "preset", "PRESET_NAMES",
]

# class representatives the order check runs at most: 6!, every extension of
# a six-operation scenario
MAX_EXTENSIONS = 720
# operations a scenario holds at most; the document schema states the same cap
MAX_OPERATIONS = 8


@dataclass(frozen=True, eq=False)
class LocalOperation:
    """One localized operation; kind in {kick, measure, select, observe}."""
    kind: str
    region: Region
    operator: LocalOperator
    name: str | None = None
    bins: tuple[tuple[float, float], ...] | None = None
    parametric: bool = False


def kick(u: LocalOperator, region: Region, tol: Tolerances = DEFAULT) -> LocalOperation:
    """Fixed local unitary."""
    check_unitary(u.matrix, tol, "kick operator")
    return LocalOperation("kick", region, u)


def kick_generator(g: LocalOperator, region: Region, param: str,
                   tol: Tolerances = DEFAULT) -> LocalOperation:
    """Parametrized unitary exp(i v G); v=0 is the identity baseline."""
    if not is_hermitian(g.matrix, tol):
        raise NotHermitian("kick generator must be Hermitian")
    return LocalOperation("kick", region, g, name=param, parametric=True)


def measure(a: LocalOperator, region: Region,
            bins: Sequence[tuple[float, float]] | None = None) -> LocalOperation:
    """Non-selective projective measurement of an observable."""
    b = tuple((float(lo), float(hi)) for lo, hi in bins) if bins else None
    return LocalOperation("measure", region, a, bins=b)


def select(p: LocalOperator, region: Region, name: str | None = None,
           tol: Tolerances = DEFAULT) -> LocalOperation:
    """Selective update on a projector outcome; probability recorded if named."""
    if not is_projector(p.matrix, tol):
        raise NotEffect("select operator is not a projector")
    return LocalOperation("select", region, p, name=name)


def observe(c: LocalOperator, region: Region, name: str) -> LocalOperation:
    """Terminal readout: records tr(rho C) without updating the state."""
    return LocalOperation("observe", region, c, name=name)


@dataclass(frozen=True, eq=False)
class Scenario:
    space: ProductSpace
    initial: DensityState
    operations: tuple[LocalOperation, ...]
    factor_regions: Mapping[str, Region] = dfield(default_factory=dict)
    sweep: tuple[str, tuple[float, ...]] | None = None
    tol: Tolerances = dfield(default=DEFAULT, repr=False)
    # the linear extensions that `run` evaluates, one per commutation class;
    # order_check is (mode, their count), mode "classes" when they cover every
    # class and "partial" when they are the first MAX_EXTENSIONS of more;
    # prepared holds each operation's matrices (None for parametric kicks,
    # whose unitary depends on the grid point)
    extensions: tuple[tuple[int, ...], ...] = dfield(init=False, repr=False)
    order_check: tuple[str, int] = dfield(init=False, repr=False)
    prepared: tuple = dfield(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "operations", tuple(self.operations))
        if len(self.operations) > MAX_OPERATIONS:
            raise ValueError(f"at most {MAX_OPERATIONS} operations per scenario")
        if self.initial.space != self.space:
            raise SpaceMismatch("initial state is not on the scenario space")
        for op in self.operations:
            if op.operator.space != self.space:
                raise SpaceMismatch(f"{op.kind} operator is not on the scenario space")
            if op.kind == "observe" and not op.name:
                raise ValueError("observe operations need a name")
            sup = op.operator.support or frozenset()
            for label in sup:
                anchor = self.factor_regions.get(label)
                if anchor is not None and spacelike(anchor, op.region):
                    raise ValueError(
                        f"operation on factor {label!r} sits spacelike to its anchor region")
        order = None
        if self.operations:  # build_order raises CycleError
            order = build_order([op.region for op in self.operations])
        if self.sweep is not None:
            param, grid = self.sweep
            grid = tuple(float(v) for v in grid)
            if not grid:
                raise ValueError("sweep grid is empty")
            names = {op.name for op in self.operations if op.parametric}
            if param not in names:
                raise UnknownParameter(f"sweep parameter {param!r} not used by any kick")
            object.__setattr__(self, "sweep", (param, grid))
        prepared = tuple(None if op.parametric else _prepare(op, self.tol)
                         for op in self.operations)
        exts: tuple[tuple[int, ...], ...] = ()
        if order is not None:
            indep = _independence(self.operations, prepared, order.leq)
            exts = tuple(islice(order.linear_extensions(independent=indep),
                                MAX_EXTENSIONS + 1))
        mode = "partial" if len(exts) > MAX_EXTENSIONS else "classes"
        object.__setattr__(self, "extensions", exts[:MAX_EXTENSIONS])
        object.__setattr__(self, "order_check", (mode, len(self.extensions)))
        object.__setattr__(self, "prepared", prepared)


@dataclass(frozen=True)
class SignallingReport:
    observable: str
    baseline: float
    params: tuple[float, ...]
    expectations: tuple[float, ...]
    delta_max: float
    order_check: tuple | None = None


def _prepare(op: LocalOperation, tol: Tolerances):
    """The matrices a non-parametric `op` applies: eigenprojectors or its operator."""
    if op.kind == "measure":
        return [p.matrix for p in spectral_resolution(op.operator, op.bins, tol)]
    if op.kind in ("kick", "select", "observe"):
        return op.operator.matrix
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _independence(ops: Sequence[LocalOperation], prepared: Sequence,
                  leq: np.ndarray) -> np.ndarray:
    """Incomparable pairs whose order cannot change a recorded value.

    Two observes always are.  A select weighs by a probability conditioned
    on what came before, so it depends on every other select and every
    observe even when their matrices commute.  Any other pair is independent when
    its matrices commute at rounding level: a parametric kick's generator,
    each eigenprojector of a measurement, the operator of the rest (two fixed
    kicks up to a phase, as Pauli X and Y: only their conjugations act).
    """
    mats = [[op.operator.matrix] if op.parametric
            else m if op.kind == "measure" else [m] for op, m in zip(ops, prepared)]
    out = np.zeros(leq.shape, dtype=bool)
    for i, j in combinations(range(len(ops)), 2):
        if leq[i, j] or leq[j, i]:
            continue
        kinds = {ops[i].kind, ops[j].kind}
        if kinds == {"observe"}:
            free = True
        elif "select" in kinds and kinds <= {"select", "observe"}:
            free = False
        else:
            phase = kinds == {"kick"} and not (ops[i].parametric or ops[j].parametric)
            free = all(commute(a, b, phase) for a in mats[i] for b in mats[j])
        out[i, j] = out[j, i] = free
    return out


def _apply(rho: np.ndarray, op: LocalOperation, m, results: dict,
           tol: Tolerances) -> np.ndarray:
    if op.kind == "kick":
        return m @ rho @ dag(m)
    if op.kind == "measure":
        return luders_sum(m, rho)
    if op.kind == "select":
        rho, w = select_outcome(m, rho, tol)
        if op.name:
            results[op.name] = w
        return rho
    results[op.name] = float(np.real(np.trace(rho @ m)))
    return rho


def run(s: Scenario, params: Mapping[str, float] | None = None) -> dict[str, float]:
    """Apply the operations along the causal order; returns recorded values.

    One linear extension per commutation class of the causal order is
    evaluated (see the module docstring; at most `MAX_EXTENSIONS`, as
    `s.order_check` reports) and the recorded values compared; disagreement
    beyond tolerance raises OrderSensitivity.  The values returned are those
    of the first extension.  Operations are prepared once per scenario (the
    extensions, eigenprojectors and fixed operators, see `Scenario`); a call
    forms only the parametric kick unitaries, shared by all extensions.
    """
    params = dict(params or {})
    declared = {op.name for op in s.operations if op.parametric}
    unknown = set(params) - declared
    if unknown:
        raise UnknownParameter(f"parameters {sorted(unknown)} not used by any kick")
    if not s.operations:
        return {}
    mats = [expih(op.operator.matrix, float(params.get(op.name, 0.0)))
            if op.parametric else m for op, m in zip(s.operations, s.prepared)]
    all_results = []
    for ext in s.extensions:
        rho = s.initial.matrix.copy()
        results: dict[str, float] = {}
        for idx in ext:
            rho = _apply(rho, s.operations[idx], mats[idx], results, s.tol)
        all_results.append(results)
    first = all_results[0]
    for other in all_results[1:]:
        for key, val in first.items():
            if abs(other.get(key, np.nan) - val) > s.tol.operator:
                raise OrderSensitivity(
                    f"linear extensions disagree on {key!r}: {val} vs {other.get(key)}")
    return first


def signalling_delta(s: Scenario, observable: str | None = None) -> SignallingReport:
    """Sweep the scenario's parameter grid and report the largest shift."""
    if s.sweep is None:
        raise ValueError("scenario has no sweep")
    param, grid = s.sweep
    if observable is None:
        names = [op.name for op in s.operations if op.kind == "observe"]
        if not names:
            raise ValueError("no observe operation to report on")
        observable = names[0]
    vals = []
    for v in grid:
        out = run(s, {param: v})
        if observable not in out:
            raise ValueError(f"observable {observable!r} not recorded")
        vals.append(out[observable])
    base = vals[0]
    delta = max(abs(v - base) for v in vals)
    return SignallingReport(observable, base, grid, tuple(vals), delta,
                            s.order_check)


def _worst_commutator(projectors: Sequence[np.ndarray],
                      alg1: Sequence[LocalOperator], alg3: Sequence[LocalOperator]):
    """Largest ||[sum_n P_n A3 P_n, A1]|| over both bases, with its (A1, A3)."""
    worst = 0.0
    witness = None
    for a3 in alg3:
        cond = luders_sum(projectors, a3.matrix)
        for a1 in alg1:
            v = opnorm(commutator(cond, a1.matrix))
            if v > worst:
                worst = v
                witness = (a1, a3)
    return worst, witness


def borsten_violation(a2: LocalOperator, a1: LocalOperator, a3: LocalOperator,
                      bins=None, tol: Tolerances = DEFAULT) -> float:
    """Commutator norm of the measured-and-averaged A3 with A1."""
    r = spectral_resolution(a2, bins, tol)
    return _worst_commutator([p.matrix for p in r], [a1], [a3])[0]


def borsten_check(a2: LocalOperator, bins,
                  alg1_basis: Sequence[LocalOperator],
                  alg3_basis: Sequence[LocalOperator],
                  tol: Tolerances = DEFAULT):
    """Operator-level signalling test for a measured observable.

    Averages each A3 basis element over the measurement's eigenprojectors and
    takes the largest commutator norm with the A1 basis; passing (all norms
    below tolerance) certifies that no kick in region 1 can shift region-3
    expectations through this measurement, for any state.
    """
    if not alg1_basis or not alg3_basis:
        raise BasisEmpty("need non-empty operator bases for both regions")
    projectors = [p.matrix for p in spectral_resolution(a2, bins, tol)]
    worst, witness = _worst_commutator(projectors, alg1_basis, alg3_basis)
    return worst < tol.operator, worst, witness


def pauli_strings(sp: ProductSpace, labels: Sequence[str]) -> list[LocalOperator]:
    """All Pauli products on the given qubit factors, embedded in the space."""
    for l in labels:
        if sp.dim_of(l) != 2:
            raise ValueError(f"factor {l!r} is not a qubit")
    out = []
    for combo in iproduct(PAULI.values(), repeat=len(labels)):
        m = np.array([[1.0 + 0j]])
        for c in combo:
            m = np.kron(m, c)
        out.append(embed(m, list(labels), sp))
    return out


PRESET_NAMES = ("borsten_qubit", "sorkin_qubit_baby", "sorkin_qft_fock",
                "borsten_additive_control")


def preset(name: str, tol: Tolerances = DEFAULT) -> Scenario:
    """Named reference scenarios on the canonical three-region geometry."""
    o1, o2, o3 = fig2_preset()
    if name in ("borsten_qubit", "borsten_additive_control"):
        sp = qubit_space("A", "B")
        init = pure_state(np.kron([1, 0], [1, 1]) / np.sqrt(2), sp)
        if name == "borsten_qubit":
            a2 = embed(np.kron(np.diag([0.0, 1.0]), sigma_z), ["A", "B"], sp)
        else:
            a2 = embed(sigma_z, "A", sp) + embed(sigma_z, "B", sp)
        ops = (
            kick_generator(embed(sigma_x, "A", sp), o1, "gamma"),
            measure(a2, o2),
            observe(embed(sigma_x, "B", sp), o3, "C"),
        )
        grid = tuple(k * np.pi / 16 for k in range(17))
        return Scenario(sp, init, ops, {"A": o1, "B": o3}, ("gamma", grid), tol)
    if name == "sorkin_qubit_baby":
        sp = qubit_space("A", "B")
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        psi2 = np.array([np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)], dtype=complex)
        p2 = embed(np.outer(psi2, psi2.conj()), ["A", "B"], sp)
        ops = (
            kick_generator(embed(sigma_x, "A", sp), o1, "lam"),
            measure(p2, o2),
            observe(embed(sigma_z, "B", sp), o3, "C"),
        )
        grid = tuple(k * np.pi / 8 for k in range(9))
        return Scenario(sp, pure_state(bell, sp), ops, {}, ("lam", grid), tol)
    if name == "sorkin_qft_fock":
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
        return Scenario(sp, pure_state(fb.vacuum, sp), ops, {},
                        ("lam", tuple(np.linspace(0.0, 1.5, 16))), tol)
    raise UnknownPreset(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
