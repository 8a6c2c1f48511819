"""Scenario documents: JSON schema, parsing, and object builders.

A scenario file is a single JSON object with a fixed set of sections.  Exactly
one payload section selects what runs: `operations` (a sequential scenario on
a small product space), `family` (a projective history family), `fv_preset`
(a named circuit probe configuration), or `detectors` (lattice detector
pairs / the kick-bridge-receiver triple).  `geometry`, `space`, `field`,
`sweep`, and `tolerances` supply the shared ingredients.  The schema rejects
unknown keys everywhere, so typos fail loudly before anything is built.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

import jsonschema
import numpy as np

from .causal import cells, fig2_preset, rect
from .config import DEFAULT, Tolerances
from .detectors import DetectorSpec
from .errors import ParseError, ValidationError
from .field import FieldModel, FockBackend, SmearingFn, fock_backend
from .histories import HistoryFamily
from .qops import (DensityState, LocalOperator, ProductSpace,
                   ProjectiveResolution, embed, eye2, pure_state, qubit_space,
                   sigma_x, sigma_y, sigma_z, space, spectral_resolution)
from .scenarios import (LocalOperation, Scenario, kick, kick_generator,
                        measure, observe, select)

__all__ = [
    "SCHEMA", "load_document", "dump_document", "document_digest", "fmt17",
    "build_space", "build_state", "build_regions", "build_operator",
    "build_scenario", "build_family", "build_detector_pair",
    "build_tripartite", "grid_values",
]

_NUMVEC = {
    "type": "array", "minItems": 1,
    "items": {"oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"},
         "minItems": 2, "maxItems": 2},
    ]},
}

_MATRIX = {
    "type": "array", "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}

_OPERATOR = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "pauli": {"enum": ["I", "X", "Y", "Z"]},
        "factor": {"type": "string"},
        "matrix": _MATRIX,
        "imag": _MATRIX,
        "projector": _NUMVEC,
    },
    "oneOf": [
        {"required": ["pauli", "factor"]},
        {"required": ["matrix"]},
        {"required": ["projector"]},
    ],
}

_REGION = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "rect": {"type": "array", "items": {"type": "number"},
                 "minItems": 4, "maxItems": 4},
        "cells": {"type": "array", "minItems": 1,
                  "items": {"type": "array", "items": {"type": "integer"},
                            "minItems": 2, "maxItems": 2}},
        "period": {"type": ["integer", "null"]},
    },
    "oneOf": [{"required": ["rect"]}, {"required": ["cells"]}],
}

_DETSPEC = {
    "type": "object", "additionalProperties": False,
    "required": ["label", "gap", "coupling"],
    "properties": {
        "label": {"type": "string"},
        "gap": {"type": "number"},
        "coupling": {"type": "number", "minimum": 0},
        "steps": {"type": "array", "items": {"type": "integer"},
                  "minItems": 2, "maxItems": 2},
        "sites": {"type": "array", "items": {"type": "integer"},
                  "minItems": 2, "maxItems": 2},
        "site": {"type": "integer"},
        "switching": {"type": "object", "minProperties": 1,
                      "additionalProperties": {"type": "number"}},
        "smearing": {"type": "object", "minProperties": 1,
                     "additionalProperties": {"type": "number"}},
    },
}

SCHEMA = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "geometry": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "preset": {"const": "fig2"},
                "regions": {"type": "object", "minProperties": 1,
                            "additionalProperties": _REGION},
            },
        },
        "space": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "qubits": {"type": "array", "minItems": 1,
                           "items": {"type": "string"}},
                "factors": {"type": "object", "minProperties": 1,
                            "additionalProperties": {"type": "integer",
                                                     "minimum": 2}},
                "state": _NUMVEC,
            },
            "oneOf": [{"required": ["qubits"]}, {"required": ["factors"]}],
        },
        "field": {
            "type": "object", "additionalProperties": False,
            "required": ["sites"],
            "properties": {
                "mass": {"type": "number", "minimum": 0},
                "sites": {"type": "integer", "minimum": 8},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 1},
            },
        },
        "detectors": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "pair": {"type": "array", "items": _DETSPEC,
                         "minItems": 2, "maxItems": 2},
                "tripartite": {
                    "type": "object", "additionalProperties": False,
                    "required": ["kick_step", "kick_site", "receiver",
                                 "modes", "cutoff"],
                    "properties": {
                        "kick_step": {"type": "integer", "minimum": 0},
                        "kick_site": {"type": "integer", "minimum": 0},
                        "kick_strength": {"type": "number"},
                        "bridge": {"oneOf": [_DETSPEC, {"type": "null"}]},
                        "receiver": _DETSPEC,
                        "modes": {"type": "array", "minItems": 1,
                                  "items": {"type": "integer"}},
                        "cutoff": {"type": "integer", "minimum": 2},
                        "max_order": {"type": "integer", "minimum": 1,
                                      "maximum": 6},
                    },
                },
            },
            "oneOf": [{"required": ["pair"]}, {"required": ["tripartite"]}],
        },
        "operations": {
            "type": "array", "minItems": 1, "maxItems": 8,
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["kind", "region", "operator"],
                "properties": {
                    "kind": {"enum": ["kick", "kick_generator", "measure",
                                      "select", "observe"]},
                    "region": {"type": "string"},
                    "operator": _OPERATOR,
                    "param": {"type": "string"},
                    "name": {"type": "string"},
                    "bins": {"type": "array",
                             "items": {"type": "array",
                                       "items": {"type": "number"},
                                       "minItems": 2, "maxItems": 2}},
                },
            },
        },
        "family": {
            "type": "object", "additionalProperties": False,
            "required": ["steps"],
            "properties": {
                "steps": {
                    "type": "array", "minItems": 1,
                    "items": {
                        "type": "object", "additionalProperties": False,
                        "properties": {
                            "projectors": {"type": "array", "minItems": 1,
                                           "items": _OPERATOR},
                            "observable": _OPERATOR,
                        },
                        "oneOf": [{"required": ["projectors"]},
                                  {"required": ["observable"]}],
                    },
                },
                "times": {"type": "array", "items": {"type": "number"}},
            },
        },
        "fv_preset": {
            "type": "object", "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"enum": ["bostelmann", "cnot"]},
                "valid": {"type": "boolean"},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "sweep": {
            "type": "object", "additionalProperties": False,
            "required": ["param", "grid"],
            "properties": {
                "param": {"type": "string"},
                "grid": {"oneOf": [
                    {"type": "array", "items": {"type": "number"}},
                    {"type": "object", "additionalProperties": False,
                     "required": ["start", "stop", "count"],
                     "properties": {"start": {"type": "number"},
                                    "stop": {"type": "number"},
                                    "count": {"type": "integer",
                                              "minimum": 1}}},
                ]},
            },
        },
        "tolerances": {
            "type": "object", "additionalProperties": False,
            "patternProperties": {r"^tol\.[a-z_]+$": {"type": "number"}},
        },
    },
    "oneOf": [
        {"required": ["operations"]},
        {"required": ["family"]},
        {"required": ["fv_preset"]},
        {"required": ["detectors"]},
    ],
}

_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def load_document(path) -> dict:
    """Parse and schema-validate a scenario file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        raise ValidationError(f"{where}: {e.message}")
    return doc


def dump_document(doc: Mapping, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def document_digest(doc: Mapping) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def fmt17(x) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


# -- builders -----------------------------------------------------------------

_PAULI = {"I": eye2, "X": sigma_x, "Y": sigma_y, "Z": sigma_z}


def _complex_vector(items) -> np.ndarray:
    out = [complex(v) if np.isscalar(v) else complex(v[0], v[1]) for v in items]
    return np.array(out, dtype=complex)


def build_space(doc: Mapping) -> ProductSpace:
    sec = doc.get("space")
    if sec is None:
        raise ValidationError("document has no space section")
    if "qubits" in sec:
        return qubit_space(*sec["qubits"])
    return space(*((label, dim) for label, dim in sec["factors"].items()))


def build_state(doc: Mapping, sp: ProductSpace,
                tol: Tolerances = DEFAULT) -> DensityState:
    vec = doc.get("space", {}).get("state")
    if vec is None:
        raise ValidationError("space section has no prepared state")
    v = _complex_vector(vec)
    if v.size != sp.dim:
        raise ValidationError(
            f"state vector has {v.size} amplitudes, space dimension is {sp.dim}")
    return pure_state(v, sp)


def build_regions(doc: Mapping) -> dict:
    sec = doc.get("geometry", {})
    out = {}
    if sec.get("preset") == "fig2":
        o1, o2, o3 = fig2_preset()
        out.update({"O1": o1, "O2": o2, "O3": o3})
    for name, spec in sec.get("regions", {}).items():
        if "rect" in spec:
            out[name] = rect(*spec["rect"])
        else:
            out[name] = cells([tuple(c) for c in spec["cells"]],
                              period=spec.get("period"))
    if not out:
        raise ValidationError("geometry section defines no regions")
    return out


def build_operator(spec: Mapping, sp: ProductSpace) -> LocalOperator:
    if "pauli" in spec:
        label = spec["factor"]
        if sp.dim_of(label) != 2:
            raise ValidationError(f"factor {label!r} is not a qubit")
        return embed(_PAULI[spec["pauli"]], label, sp)
    if "projector" in spec:
        v = _complex_vector(spec["projector"])
        if v.size != sp.dim:
            raise ValidationError("projector vector does not match the space")
        v = v / np.linalg.norm(v)
        return LocalOperator(sp, np.outer(v, v.conj()))
    m = np.array(spec["matrix"], dtype=complex)
    if "imag" in spec:
        im = np.array(spec["imag"], dtype=float)
        if im.shape != m.shape:
            raise ValidationError("imag block does not match the matrix shape")
        m = m + 1j * im
    return LocalOperator(sp, m)


def build_scenario(doc: Mapping, tol: Tolerances = DEFAULT) -> Scenario:
    sp = build_space(doc)
    init = build_state(doc, sp, tol)
    regions = build_regions(doc)
    ops: list[LocalOperation] = []
    for i, entry in enumerate(doc["operations"]):
        name = entry.get("region")
        if name not in regions:
            raise ValidationError(f"operations/{i}: unknown region {name!r}")
        region = regions[name]
        op = build_operator(entry["operator"], sp)
        kind = entry["kind"]
        if kind == "kick":
            ops.append(kick(op, region, tol))
        elif kind == "kick_generator":
            if "param" not in entry:
                raise ValidationError(f"operations/{i}: kick_generator needs a param")
            ops.append(kick_generator(op, region, entry["param"], tol))
        elif kind == "measure":
            bins = entry.get("bins")
            ops.append(measure(op, region, bins))
        elif kind == "select":
            ops.append(select(op, region, entry.get("name"), tol))
        else:
            if "name" not in entry:
                raise ValidationError(f"operations/{i}: observe needs a name")
            ops.append(observe(op, region, entry["name"]))
    sweep = None
    if "sweep" in doc:
        sweep = (doc["sweep"]["param"], grid_values(doc["sweep"]))
    return Scenario(sp, init, tuple(ops), {}, sweep, tol)


def build_family(doc: Mapping,
                 tol: Tolerances = DEFAULT) -> tuple[HistoryFamily, DensityState]:
    sp = build_space(doc)
    rho = build_state(doc, sp, tol)
    steps = []
    for entry in doc["family"]["steps"]:
        if "projectors" in entry:
            projs = tuple(build_operator(s, sp) for s in entry["projectors"])
            steps.append(ProjectiveResolution(sp, projs, tol=tol))
        else:
            steps.append(spectral_resolution(build_operator(entry["observable"], sp),
                                             tol=tol))
    times = tuple(doc["family"].get("times", ()))
    try:
        fam = HistoryFamily(tuple(steps), times, tol=tol)
    except ValueError as e:  # times of the wrong length or out of order
        raise ValidationError(f"family: {e}") from e
    return fam, rho


def _detector_from(spec: Mapping) -> DetectorSpec:
    if "switching" in spec:
        chi = {int(k): float(v) for k, v in spec["switching"].items()}
    elif "steps" in spec:
        lo, hi = spec["steps"]
        chi = {n: 1.0 for n in range(lo, hi + 1)}
    else:
        raise ValidationError(f"detector {spec.get('label')!r} has no switching")
    pointlike = False
    if "smearing" in spec:
        fsm = {int(k): float(v) for k, v in spec["smearing"].items()}
    elif "sites" in spec:
        lo, hi = spec["sites"]
        fsm = {s: 1.0 for s in range(lo, hi + 1)}
    elif "site" in spec:
        fsm = {int(spec["site"]): 1.0}
        pointlike = True
    else:
        raise ValidationError(f"detector {spec.get('label')!r} has no smearing")
    return DetectorSpec(spec["label"], spec["gap"], spec["coupling"], chi, fsm,
                        pointlike=pointlike)


def build_field(doc: Mapping) -> FieldModel:
    sec = doc.get("field")
    if sec is None:
        raise ValidationError("document has no field section")
    return FieldModel(sec.get("mass", 0.0), sec["sites"],
                      sec.get("spacing", 1.0), sec.get("steps"))


def build_detector_pair(doc: Mapping) -> tuple[FieldModel, DetectorSpec, DetectorSpec]:
    sec = doc.get("detectors", {})
    if "pair" not in sec:
        raise ValidationError("detectors section has no pair entry")
    f = build_field(doc)
    a, b = (_detector_from(s) for s in sec["pair"])
    return f, a, b


def build_tripartite(doc: Mapping) -> tuple[SmearingFn, DetectorSpec | None,
                                            DetectorSpec, FockBackend, int]:
    sec = doc.get("detectors", {})
    if "tripartite" not in sec:
        raise ValidationError("detectors section has no tripartite entry")
    t = sec["tripartite"]
    f = build_field(doc)
    fb = fock_backend(f, t["modes"], t["cutoff"])
    cell = (t["kick_step"], t["kick_site"])
    kick_fn = SmearingFn({cell: t.get("kick_strength", 1.0)},
                         cells([cell], period=f.sites))
    bridge = None if t.get("bridge") is None else _detector_from(t["bridge"])
    receiver = _detector_from(t["receiver"])
    return kick_fn, bridge, receiver, fb, t.get("max_order", 4)


def grid_values(sweep: Mapping) -> tuple[float, ...]:
    g = sweep["grid"]
    if isinstance(g, dict):
        if g["count"] < 1:
            raise ValidationError(
                f"sweep grid count must be at least 1, not {g['count']}")
        g = np.linspace(g["start"], g["stop"], g["count"])
    if len(g) == 0:
        raise ValidationError("sweep grid is empty")
    return tuple(float(v) for v in g)
