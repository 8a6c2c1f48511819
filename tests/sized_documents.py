"""Seeded documents as large as the benchmark's operator documents.

`matrix_document` measures a 32 x 32 observable on five qubits; `family_document`
is a three-step, four-outcome history family on four qubits, whose decoherence
table has 4096 rows; `operations_document` is a kicked, measured and read-out
qubit chain (three qubits by default) with extra spacelike kicks on the
qubits after the second.  Every matrix is
written as `matrix` and `imag` blocks.
"""
import numpy as np


def _block(m) -> dict:
    return {"matrix": m.real.tolist(), "imag": m.imag.tolist()}


def _resolution(dim, parts, rng):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return [c @ c.conj().T for c in np.array_split(q, parts, axis=1)]


def _state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return [[float(z.real), float(z.imag)] for z in v / np.linalg.norm(v)]


def matrix_document(rng) -> dict:
    projs = _resolution(32, 3, rng)
    return {"geometry": {"preset": "fig2"},
            "space": {"qubits": list("ABCDE"), "state": _state(32, rng)},
            "operations": [
                {"kind": "kick_generator", "region": "O1", "param": "g",
                 "operator": {"pauli": "X", "factor": "A"}},
                {"kind": "measure", "region": "O2",
                 "operator": _block(sum(k * p for k, p in enumerate(projs)))},
                {"kind": "observe", "region": "O3", "name": "C",
                 "operator": {"pauli": "Z", "factor": "B"}}],
            "sweep": {"param": "g", "grid": {"start": 0.0, "stop": 1.0, "count": 4}}}


def family_document(rng) -> dict:
    steps = []
    for i in range(3):
        projs = _resolution(16, 4, rng)
        steps.append({"projectors": [_block(p) for p in projs]} if i % 2 == 0 else
                     {"observable": _block(sum(k * p for k, p in enumerate(projs)))})
    return {"space": {"qubits": list("ABCD"), "state": _state(16, rng)},
            "family": {"steps": steps}}


def operations_document(rng, extra_paulis, qubits=3) -> dict:
    """Kick on A, three-outcome measurement on AB, readout on B, and one Pauli
    kick on the qubits after B, in turn, per entry of `extra_paulis`, each in a
    region spacelike to every other operation: (3 + k)! / 3! linear extensions
    for k extra kicks."""
    labels = "ABCDE"[:qubits]
    projs = _resolution(4, 3, rng)
    measured = np.kron(sum(k * p for k, p in enumerate(projs)), np.eye(2 ** (qubits - 2)))
    ops = [{"kind": "kick_generator", "region": "O1", "param": "g",
            "operator": {"pauli": "X", "factor": "A"}},
           {"kind": "measure", "region": "O2", "operator": _block(measured)},
           {"kind": "observe", "region": "O3", "name": "C",
            "operator": {"pauli": "Z", "factor": "B"}}]
    regions = {}
    for j, pauli in enumerate(extra_paulis):
        regions[f"X{j}"] = {"rect": [0.0, 1.0, 100.0 * (j + 1), 100.0 * (j + 1) + 1]}
        ops.insert(int(rng.integers(0, len(ops) + 1)), {
            "kind": "kick", "region": f"X{j}",
            "operator": {"pauli": pauli, "factor": labels[2 + j % (qubits - 2)]}})
    geometry = {"preset": "fig2", **({"regions": regions} if regions else {})}
    return {"geometry": geometry,
            "space": {"qubits": list(labels), "state": _state(2 ** qubits, rng)},
            "operations": ops,
            "sweep": {"param": "g", "grid": {"start": 0.0, "stop": 2.0, "count": 12}}}
