"""Correctness oracles for benchmark items.

Each check raises ``Mismatch`` with a one-line reason.  The operator_docs
references are written from scratch in numpy: projectors from ``eigh`` of the
measured observable, the kick exponential from ``eigh`` of its generator, one
linear extension, and decoherence matrices from direct products of the step
projectors.  The preset checks use closed forms and the tolerances the
documents run under.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL_OPERATOR = 1e-10   # causalq's default tol.operator; no document overrides it
TOL_REFERENCE = 1e-10  # independent numpy reference vs program output
TOL_EXACT = 1e-12      # same computation reached two ways, or exact identities

PAULI = {"I": np.eye(2, dtype=complex),
         "X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
         "Z": np.array([[1, 0], [0, -1]], dtype=complex)}


class Mismatch(Exception):
    pass


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


def close(name: str, got: float, want: float, tol: float) -> None:
    expect(abs(got - want) <= tol, f"{name}: got {got!r}, want {want!r} (tol {tol:g})")


# -- reading program output ---------------------------------------------------

def read_report(out_dir: Path) -> dict:
    (path,) = Path(out_dir).glob("*.report.json")
    return json.loads(path.read_text())


def read_rows(out_dir: Path) -> list[dict]:
    (path,) = Path(out_dir).glob("*.data.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -- presets_cold ----------------------------------------------------------------

def check_preset(command: str, preset: str, code: int, out_dir: Path) -> None:
    """Exit codes, closed-form curves and residual bounds of the README runs."""
    want_code = 1 if (command, preset) == ("check", "borsten_qubit") else 0
    expect(code == want_code, f"exit code {code}, want {want_code}")
    report = read_report(out_dir)
    if command == "check" and preset == "borsten_qubit":
        expect(report["residuals"]["borsten.commutator"] > TOL_OPERATOR,
               "borsten condition not flagged")
        return
    for key, value in report["residuals"].items():
        expect(value <= TOL_OPERATOR, f"residual {key} = {value!r}")
    if preset in ("bostelmann", "detector_pair", "fuksa_family"):
        expect(report["residuals"], "no residuals reported")
    if (command, preset) == ("run", "borsten_qubit"):
        rows = read_rows(out_dir)
        expect(len(rows) == 33, f"{len(rows)} curve points, want 33")
        for r in rows:
            close(f"C({r['gamma']})", float(r["C"]),
                  math.cos(float(r["gamma"])) ** 2, TOL_EXACT)
    elif preset == "tripartite_orders":
        tables = read_rows(out_dir) if command == "sweep" else [report["results"]]
        expect(len(tables) == (2 if command == "sweep" else 1), "row count")
        for r in tables:
            for k in (1, 2, 3):
                expect(abs(float(r[f"order{k}"])) <= TOL_EXACT,
                       f"order{k} = {r[f'order{k}']}")
            expect(float(r["order4"]) > 1e-3, f"order4 = {r['order4']}")
    elif preset == "sorkin_qubit_baby":
        expect(len(read_rows(out_dir)) == 9, "sorkin curve row count")


# -- operator_docs ---------------------------------------------------------------

def _embed(op: np.ndarray, index: int, qubits: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for i in range(qubits):
        out = np.kron(out, op if i == index else PAULI["I"])
    return out


def _operator(spec: dict, labels: list[str]) -> np.ndarray:
    if "pauli" in spec:
        return _embed(PAULI[spec["pauli"]], labels.index(spec["factor"]), len(labels))
    return np.array(spec["matrix"]) + 1j * np.array(spec["imag"])


def _state(doc: dict) -> np.ndarray:
    v = np.array([complex(a, b) for a, b in doc["space"]["state"]])
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _eigh_projectors(m: np.ndarray, gap: float = 1e-6) -> list[np.ndarray]:
    """Eigenprojectors of a Hermitian matrix, ascending, clusters merged."""
    w, v = np.linalg.eigh(m)
    groups = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][-1]] <= gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [v[:, g] @ v[:, g].conj().T for g in groups]


def _eigh_exp(g: np.ndarray, t: float) -> np.ndarray:
    """exp(i t G) for Hermitian G through its eigendecomposition."""
    w, v = np.linalg.eigh(g)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def scenario_reference(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Grid and readout C along one linear extension (kick, extras, measure)."""
    labels = list(doc["space"]["qubits"])
    ops = doc["operations"]
    gen = next(o for o in ops if o["kind"] == "kick_generator")
    kicks = [_operator(o["operator"], labels) for o in ops if o["kind"] == "kick"]
    measured = next(o for o in ops if o["kind"] == "measure")
    observed = next(o for o in ops if o["kind"] == "observe")
    projectors = _eigh_projectors(_operator(measured["operator"], labels))
    c = _operator(observed["operator"], labels)
    g = _operator(gen["operator"], labels)
    spec = doc["sweep"]["grid"]
    grid = np.linspace(spec["start"], spec["stop"], spec["count"])
    rho0 = _state(doc)
    out = []
    for t in grid:
        u = _eigh_exp(g, t)
        rho = u @ rho0 @ u.conj().T
        for k in kicks:
            rho = k @ rho @ k.conj().T
        rho = sum(p @ rho @ p for p in projectors)
        out.append(np.trace(rho @ c).real)
    return grid, np.array(out)


def borsten_reference(doc: dict) -> float:
    """Largest ||[sum_P P a3 P, a1]|| over Paulis a1 on the qubit of the first
    kick in document order (the one the CLI's borsten suite takes) and a3 on
    the observed qubit."""
    labels = list(doc["space"]["qubits"])
    ops = doc["operations"]
    gen = next(o for o in ops if o["kind"] in ("kick", "kick_generator"))
    measured = next(o for o in ops if o["kind"] == "measure")
    observed = next(o for o in ops if o["kind"] == "observe")
    projectors = _eigh_projectors(_operator(measured["operator"], labels))
    i1 = labels.index(gen["operator"]["factor"])
    i3 = labels.index(observed["operator"]["factor"])
    worst = 0.0
    for p3 in PAULI.values():
        a3 = _embed(p3, i3, len(labels))
        cond = sum(p @ a3 @ p for p in projectors)
        for p1 in PAULI.values():
            a1 = _embed(p1, i1, len(labels))
            worst = max(worst, float(np.linalg.norm(cond @ a1 - a1 @ cond, 2)))
    return worst


def check_operations(doc: dict, ref, run_code: int, run_dir: Path,
                     check_code: int, check_dir: Path) -> None:
    grid, values = ref["curve"]
    expect(run_code == 0, f"run exit code {run_code}")
    rows = read_rows(run_dir)
    expect(len(rows) == len(grid), f"{len(rows)} rows, want {len(grid)}")
    for r, t, c in zip(rows, grid, values):
        close("grid", float(r["g"]), float(t), TOL_EXACT)
        close(f"C({t:.4f})", float(r["C"]), float(c), TOL_REFERENCE)
    worst = ref["borsten"]
    want = 0 if worst < TOL_OPERATOR else 1
    expect(check_code == want, f"borsten exit code {check_code}, want {want}")
    got = read_report(check_dir)["residuals"]["borsten.commutator"]
    close("borsten.commutator", got, worst, TOL_REFERENCE)


def decoherence_reference(doc: dict) -> dict[tuple[str, str], complex]:
    labels = list(doc["space"]["qubits"])
    steps = []
    for step in doc["family"]["steps"]:
        if "projectors" in step:
            steps.append([_operator(p, labels) for p in step["projectors"]])
        else:
            steps.append(_eigh_projectors(_operator(step["observable"], labels)))
    rho = _state(doc)
    dim = rho.shape[0]
    classes = {"": np.eye(dim, dtype=complex)}
    for projectors in steps:
        classes = {(f"{k}." if k else "") + str(i): p @ c
                   for k, c in classes.items() for i, p in enumerate(projectors)}
    return {(a, b): complex(np.trace(ca @ rho @ cb.conj().T))
            for a, ca in classes.items() for b, cb in classes.items()}


def check_family(ref: dict, code: int, out_dir: Path) -> None:
    expect(code == 0, f"exit code {code}")
    rows = read_rows(out_dir)
    expect(len(rows) == len(ref), f"{len(rows)} rows, want {len(ref)}")
    for r in rows:
        want = ref[(r["alpha"], r["beta"])]
        close(f"re d({r['alpha']},{r['beta']})", float(r["re"]), want.real, TOL_REFERENCE)
        close(f"im d({r['alpha']},{r['beta']})", float(r["im"]), want.imag, TOL_REFERENCE)


# -- fv_chain --------------------------------------------------------------------

def check_fv(bostelmann, corollary6) -> None:
    expect(not bostelmann.failed, f"geometry flagged: {bostelmann.failed}")
    for name, value in (("bostelmann.residual", bostelmann.residual),
                        ("bostelmann.state_spread", bostelmann.state_spread),
                        ("corollary6.residual", corollary6.residual),
                        ("corollary6.factorization", corollary6.factorization),
                        ("corollary6.probability_gap", corollary6.probability_gap)):
        expect(value <= TOL_EXACT, f"{name} = {value!r}")


# -- detector_series -------------------------------------------------------------

def check_tripartite(doc: dict, ref: dict, code: int, out_dir: Path) -> None:
    """``ref`` is one direct ``tripartite_order_count`` table for the document.

    The couplings are formal series variables in that table, so every row of
    the swept table must reproduce it, whatever the coupling.
    """
    expect(code == 0, f"exit code {code}")
    rows = read_rows(out_dir)
    grid = doc["sweep"]["grid"]
    expect(len(rows) == len(grid), f"{len(rows)} rows, want {len(grid)}")
    for r, v in zip(rows, grid):
        close("coupling", float(r["coupling"]), v, 0.0)
        for k, want in ref.items():
            close(f"{k} at coupling {v}", float(r[k]), want, TOL_EXACT)


def check_pair(spacelike: bool, code: int, out_dir: Path) -> None:
    signal = read_report(out_dir)["residuals"]["detector.signal_trace_norm"]
    if spacelike:
        expect(signal <= TOL_OPERATOR, f"spacelike pair signals {signal!r}")
    want = 0 if signal <= TOL_OPERATOR else 1
    expect(code == want, f"exit code {code}, want {want} for signal {signal!r}")
