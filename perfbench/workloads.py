"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed.  Sizes are stratified rather
than drawn: every block of a workload holds the same mix of sizes, so runs
with different seeds do the same amount of work and their timings compare.
The seed draws the matrices, states, couplings, probe gates and the order of
items inside each block.

Documents are plain JSON objects validated against ``causalq.serial.SCHEMA``
before use; fv chains are raw numpy arrays that the item turns into program
objects itself.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

PRESET_COMMANDS = (
    ("run", "borsten_qubit"),
    ("run", "sorkin_qubit_baby"),
    ("run", "fuksa_family"),
    ("run", "bostelmann"),
    ("run", "detector_pair"),
    ("run", "tripartite_orders"),
    ("sweep", "tripartite_orders"),
    ("check", "borsten_qubit", "borsten"),
    ("check", "fuksa_family", "fuksa"),
)

# Every block holds one item per stratum.  Strata are weighted so that the
# median item and the tail item (the one with ten slower items above it) each
# fall inside one group of identical strata whether a run completes two
# blocks or ten: the heaviest stratum appears once per block, and the group
# below it is large enough to hold the tail on its own.  Timings of one
# stratum swing by 2x from call to call with the CLI's default thread pool
# and BLAS threads, and a shared machine's speed can drift by as much over
# minutes, so a tail or median that crossed between strata would swing more.

# (qubits, extra spacelike kicks, sweep points, measured eigenvalue clusters).
# Linear extensions are (3 + extra)! / 3!: 1, 4, 20 or 120.  Tail group: the
# six 20-extension documents.
OPERATIONS_STRATA = (
    (3, 3, 8, 3),
    (3, 2, 12, 3), (3, 2, 12, 3), (3, 2, 12, 3),
    (3, 2, 12, 3), (3, 2, 12, 3), (3, 2, 12, 3),
    (3, 0, 24, 2), (3, 1, 16, 4), (4, 0, 16, 4), (4, 1, 12, 2), (5, 0, 12, 3),
)
# (qubits, steps, outcomes per step); the data file has outcomes**(2 steps)
# rows.  Median group: the six 4096-row families.
FAMILY_STRATA = (
    (3, 3, 2), (3, 4, 2), (3, 3, 3), (4, 3, 2), (4, 4, 2), (4, 3, 3),
    (4, 3, 4), (4, 3, 4), (4, 3, 4), (4, 3, 4), (4, 3, 4), (4, 3, 4),
)
# Median and tail group: the 6-site chains.
FV_SITES = (5, 6, 6, 6, 6, 6, 7)
# (sites, modes, cutoff, coupling points); joint d = 4 (cutoff + 1) ** modes.
# Tail group: the five d = 108 sweeps; median group: the four d = 36 sweeps.
TRIPARTITE_STRATA = (
    (13, 3, 3, 2),
    (16, 3, 2, 2), (15, 3, 2, 2), (14, 3, 2, 2), (16, 3, 2, 2), (15, 3, 2, 2),
    (14, 2, 3, 4),
    (12, 2, 2, 4), (14, 2, 2, 3), (13, 2, 2, 4), (15, 2, 2, 3),
)
# (field sites, spacelike)
PAIR_STRATA = ((64, True), (96, True), (128, False), (160, True),
               (192, False), (256, True))

LABELS = ("A", "B", "C", "D", "E")


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _matrix(m: np.ndarray) -> dict:
    return {"matrix": m.real.tolist(), "imag": m.imag.tolist()}


def _state(dim: int, rng: np.random.Generator) -> list:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return _vector(v / np.linalg.norm(v))


def _clusters(dim: int, k: int, rng: np.random.Generator) -> list[int]:
    """Split ``dim`` eigenvectors into ``k`` non-empty groups."""
    cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False))
    edges = [0, *cuts.tolist(), dim]
    return [edges[i + 1] - edges[i] for i in range(k)]


def _observable(dim: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """Hermitian matrix with ``k`` well separated eigenvalue clusters.

    Returns the matrix and its cluster projectors in ascending eigenvalue order.
    """
    sizes = _clusters(dim, k, rng)
    values = np.cumsum(rng.uniform(0.5, 1.5, size=k)) - rng.uniform(0.0, 2.0)
    v = _haar(dim, rng)
    projectors, diag, start = [], [], 0
    for size, lam in zip(sizes, values):
        cols = v[:, start:start + size]
        projectors.append(cols @ cols.conj().T)
        diag += [lam] * size
        start += size
    m = v @ np.diag(diag) @ v.conj().T
    return (m + m.conj().T) / 2, projectors


def operations_document(rng: np.random.Generator, qubits: int, extra: int,
                        points: int, clusters: int) -> dict:
    """Kick on A, entangling measurement on AB, readout on B, extra kicks.

    The extra kicks act on the qubits other than A and B, in turn, in regions
    far from the fig2 triple and from each other.  They are spacelike to every
    other operation and leave the readout on B alone, so every linear
    extension must record the same values.
    """
    labels = list(LABELS[:qubits])
    measured, _ = _observable(4, clusters, rng)
    full = np.kron(measured, np.eye(2 ** (qubits - 2)))
    ops = [
        {"kind": "kick_generator", "region": "O1", "param": "g",
         "operator": {"pauli": str(rng.choice(["X", "Y", "Z"])), "factor": "A"}},
        {"kind": "measure", "region": "O2", "operator": _matrix(full)},
        {"kind": "observe", "region": "O3", "name": "C",
         "operator": {"pauli": str(rng.choice(["X", "Y", "Z"])), "factor": "B"}},
    ]
    regions = {}
    for j in range(extra):
        name = f"X{j}"
        x0 = 100.0 * (j + 1)
        regions[name] = {"rect": [0.0, 1.0, x0, x0 + 1.0]}
        ops.insert(int(rng.integers(0, len(ops) + 1)), {
            "kind": "kick", "region": name,
            "operator": {"pauli": str(rng.choice(["X", "Y", "Z"])),
                         "factor": labels[2 + j % (qubits - 2)]}})
    geometry = {"preset": "fig2"}
    if regions:
        geometry["regions"] = regions
    return {
        "geometry": geometry,
        "space": {"qubits": labels, "state": _state(2 ** qubits, rng)},
        "operations": ops,
        "sweep": {"param": "g",
                  "grid": {"start": 0.0, "stop": float(rng.uniform(2.0, 2 * math.pi)),
                           "count": points}},
    }


def family_document(rng: np.random.Generator, qubits: int, steps: int,
                    outcomes: int) -> dict:
    """History family alternating projector lists and observables."""
    dim = 2 ** qubits
    out = []
    for i in range(steps):
        m, projs = _observable(dim, outcomes, rng)
        if i % 2 == 0:
            out.append({"projectors": [_matrix(p) for p in projs]})
        else:
            out.append({"observable": _matrix(m)})
    return {"space": {"qubits": list(LABELS[:qubits]),
                      "state": _state(dim, rng)},
            "family": {"steps": out}}


def tripartite_document(rng: np.random.Generator, sites: int, modes: int,
                        cutoff: int, points: int) -> dict:
    """Kick / bridge / receiver triple in the geometry of the shipped preset.

    The kick at (0, 0) and the receiver at (4, 6) are spacelike; the bridge
    switches at steps 1 and 3 over sites 0..3 and so meets both cones.
    """
    pool = [s * j for j in range(1, sites // 2) for s in (1, -1)]
    picked = [int(pool[i]) for i in rng.choice(len(pool), size=modes, replace=False)]
    smear = {str(s): float(w) for s, w in
             zip(range(4), np.sort(rng.uniform(0.1, 1.0, size=4))[::-1])}
    grid = sorted(float(v) for v in rng.uniform(0.3, 1.5, size=points))
    return {
        "field": {"mass": 0.0, "sites": sites, "steps": 8},
        "detectors": {"tripartite": {
            "kick_step": 0, "kick_site": 0,
            "kick_strength": float(rng.uniform(0.5, 1.5)),
            "bridge": {"label": "A", "gap": float(rng.uniform(0.3, 1.2)),
                       "coupling": 1.0, "switching": {"1": 1.0, "3": 1.0},
                       "smearing": smear},
            "receiver": {"label": "B", "gap": float(rng.uniform(0.3, 1.2)),
                         "coupling": 1.0, "switching": {"4": 1.0},
                         "smearing": {"6": 1.0}},
            "modes": picked, "cutoff": cutoff, "max_order": 4}},
        "sweep": {"param": "coupling", "grid": grid},
    }


def pair_document(rng: np.random.Generator, sites: int, spacelike: bool) -> dict:
    """Two box detectors; B sits outside (spacelike) or inside A's future."""
    a_lo = int(rng.integers(0, 3))
    a_hi = a_lo + int(rng.integers(0, 3))
    b_step = a_hi + int(rng.integers(1, 4))
    width = int(rng.integers(0, 3))
    if spacelike:
        b_site = sites // 2 + int(rng.integers(-4, 5))
    else:
        b_site = int(rng.integers(0, 2))

    def det(label, steps, lo, hi):
        return {"label": label, "gap": float(rng.uniform(0.3, 1.2)),
                "coupling": float(rng.uniform(0.2, 0.8)),
                "steps": steps, "sites": [lo, hi]}
    return {"field": {"mass": float(rng.choice([0.0, 0.3])), "sites": sites},
            "detectors": {"pair": [det("A", [a_lo, a_hi], 0, 1 + width),
                                   det("B", [b_step, b_step], b_site,
                                       b_site + width)]}}


def fv_chain(rng: np.random.Generator, sites: int) -> dict:
    """Haar brickwork of ``sites`` qubits, 3 steps, and two qubit probes.

    The geometry is ``fv.bostelmann_preset`` stretched to ``sites``: probe 1
    at (0, 0), probe 2 at (1, sites - 2) and (2, 1), observable at
    (3, sites - 1).
    """
    layers = [[(i, _haar(4, rng)) for i in range(s % 2, sites - 1, 2)]
              for s in range(3)]
    dsys = 2 ** sites
    g = rng.normal(size=(dsys, dsys)) + 1j * rng.normal(size=(dsys, dsys))
    omega = g @ g.conj().T
    effects = []
    for _ in range(2):
        v = _haar(2, rng)
        effects.append(v @ np.diag(rng.uniform(0.0, 1.0, size=2)) @ v.conj().T)
    return {"sites": sites, "layers": layers,
            "probe1": [((0, 0), _haar(4, rng))],
            "probe2": [((1, sites - 2), _haar(4, rng)), ((2, 1), _haar(4, rng))],
            "observable": (3, sites - 1),
            "omega": omega / np.trace(omega), "effects": effects,
            "check_seed": int(rng.integers(0, 2 ** 31))}


@functools.cache
def _validator():
    import jsonschema
    from causalq.serial import SCHEMA

    return jsonschema.Draft202012Validator(SCHEMA)


def block(workload: str, seed: int, index: int) -> list[dict]:
    """Items of block ``index``: one per stratum, in seeded order.

    Each item is ``{"kind", "size", ...}``; document items carry ``doc`` and
    the CLI command with its options in ``argv``, fv items carry the chain
    arrays.  Every document is validated against the program's schema.
    """
    rng = np.random.default_rng([seed, index, _WORKLOAD_IDS[workload]])
    if workload == "operator_docs":
        ops = [_ops_item(operations_document(rng, *s), s[3]) for s in OPERATIONS_STRATA]
        fams = [_family_item(family_document(rng, *s)) for s in FAMILY_STRATA]
        rng.shuffle(ops)
        rng.shuffle(fams)
        items = [item for pair in itertools.zip_longest(ops, fams)
                 for item in pair if item is not None]
    else:
        items = _unordered_items(workload, rng)
        items = [items[i] for i in rng.permutation(len(items))]
    for item in items:
        if "doc" in item:
            _validator().validate(item["doc"])
    return items


def _unordered_items(workload: str, rng: np.random.Generator) -> list[dict]:
    if workload == "presets_cold":
        return [{"kind": cmd[0], "preset": cmd[1],
                 "suite": cmd[2] if len(cmd) > 2 else None,
                 "size": {"command": cmd[0], "preset": cmd[1]}}
                for cmd in PRESET_COMMANDS]
    if workload == "fv_chain":
        return [{"kind": "fv", "chain": fv_chain(rng, n),
                 "size": {"sites": n, "d": 4 * 2 ** n}} for n in FV_SITES]
    items = []
    for sites, modes, cutoff, points in TRIPARTITE_STRATA:
        items.append({"kind": "tripartite", "argv": ["sweep"],
                      "doc": tripartite_document(rng, sites, modes, cutoff, points),
                      "size": {"sites": sites, "modes": modes, "cutoff": cutoff,
                               "points": points, "d": 4 * (cutoff + 1) ** modes}})
    for sites, spacelike in PAIR_STRATA:
        items.append({"kind": "pair", "argv": ["check", "--suite", "detector"],
                      "doc": pair_document(rng, sites, spacelike),
                      "size": {"sites": sites, "spacelike": spacelike}})
    return items


def _ops_item(doc: dict, clusters: int) -> dict:
    qubits = len(doc["space"]["qubits"])
    extra = len(doc["operations"]) - 3
    return {"kind": "operations", "doc": doc, "argv": ["run"],
            "size": {"qubits": qubits, "d": 2 ** qubits,
                     "ops": len(doc["operations"]),
                     "extensions": math.factorial(3 + extra) // 6,
                     "points": doc["sweep"]["grid"]["count"],
                     "clusters": clusters}}


def _family_item(doc: dict) -> dict:
    steps = doc["family"]["steps"]
    outcomes = len(steps[0]["projectors"])
    qubits = len(doc["space"]["qubits"])
    return {"kind": "family", "doc": doc, "argv": ["run"],
            "size": {"qubits": qubits, "d": 2 ** qubits, "steps": len(steps),
                     "outcomes": outcomes,
                     "rows": outcomes ** (2 * len(steps))}}


def cost(size: dict) -> int:
    """Rough work estimate of an item, for picking warm-up items."""
    return math.prod(v for k, v in size.items()
                     if k in ("d", "extensions", "points", "rows", "sites"))


WARMUP_BLOCK = 2 ** 20  # block index reserved for untimed warm-up items

_WORKLOAD_IDS = {"presets_cold": 1, "operator_docs": 2, "fv_chain": 3,
                 "detector_series": 4}
WORKLOADS = tuple(_WORKLOAD_IDS)
