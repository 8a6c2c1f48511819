"""Scenario documents: JSON schema, parsing, and object builders.

A scenario file is a single JSON object with a fixed set of sections.  Exactly
one payload section selects what runs: `operations` (a sequential scenario on
a small product space), `family` (a projective history family), `fv_preset`
(a named circuit probe configuration), or `detectors` (lattice detector
pairs / the kick-bridge-receiver triple).  `geometry`, `space`, `field`,
`sweep`, and `tolerances` supply the shared ingredients.  The schema rejects
unknown keys and numbers that are not finite doubles, before anything is built.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .causal import cells, fig2_preset, rect
from .config import DEFAULT, TOL_KEYS, Tolerances, finite
from .detectors import DetectorSpec
from .errors import ParseError, TruncationTooLarge, ValidationError
from .field import FieldModel, FockBackend, SmearingFn, fock_backend
from .histories import HistoryFamily
from .qops import (PAULI, DensityState, LocalOperator, ProductSpace,
                   ProjectiveResolution, embed, pure_state, qubit_space, space,
                   spectral_resolution)
from .scenarios import (MAX_OPERATIONS, LocalOperation, Scenario, kick,
                        kick_generator, measure, observe, select)

__all__ = [
    "SCHEMA", "PAYLOADS", "GRID", "validate", "load_document", "dump_document",
    "document_digest", "fmt17",
    "build_space", "build_state", "build_regions", "build_operator",
    "build_scenario", "build_family", "build_detector_pair",
    "build_tripartite", "grid_values",
]


def _obj(properties: dict, **kw) -> dict:
    """Every object is closed: a key that `properties` does not name is refused."""
    return {"type": "object", "additionalProperties": False,
            "properties": properties, **kw}


def _pair(kind: str) -> dict:
    return {"type": "array", "items": {"type": kind}, "minItems": 2, "maxItems": 2}


# each entry a real number or a [re, im] pair; `items` and the bounds bind arrays only
_NUMVEC = {"type": "array", "minItems": 1,
           "items": {**_pair("number"), "type": ["number", "array"]}}
_MATRIX = {"type": "array", "minItems": 1,
           "items": {"type": "array", "minItems": 1, "items": {"type": "number"}}}
_WEIGHTS = {"type": "object", "minProperties": 1,
            "additionalProperties": {"type": "number"}}

_OPERATOR = _obj(
    {"pauli": {"enum": ["I", "X", "Y", "Z"]},
     "factor": {"type": "string"},
     "matrix": _MATRIX,
     "imag": _MATRIX,
     "projector": _NUMVEC},
    oneOf=[{"required": ["pauli", "factor"]},
           {"required": ["matrix"]},
           {"required": ["projector"]}])

_REGION = _obj(
    {"rect": {"type": "array", "items": {"type": "number"},
              "minItems": 4, "maxItems": 4},
     "cells": {"type": "array", "minItems": 1, "items": _pair("integer")},
     "period": {"type": ["integer", "null"]}},
    oneOf=[{"required": ["rect"]}, {"required": ["cells"]}])

_DETSPEC = _obj(
    {"label": {"type": "string"},
     "gap": {"type": "number"},
     "coupling": {"type": "number", "minimum": 0},
     "steps": _pair("integer"),
     "sites": _pair("integer"),
     "site": {"type": "integer"},
     "switching": _WEIGHTS,
     "smearing": _WEIGHTS},
    required=["label", "gap", "coupling"])

# the payload sections, of which a document holds exactly one
PAYLOADS = ("operations", "family", "fv_preset", "detectors")
# a sweep grid: explicit values, or `count` evenly spaced points from start to stop
GRID = {**_obj({"start": {"type": "number"},
                "stop": {"type": "number"},
                "count": {"type": "integer", "minimum": 1}},
               required=["start", "stop", "count"]),
        "type": ["array", "object"], "minItems": 1, "items": {"type": "number"}}

SCHEMA = _obj({
    "geometry": _obj(
        {"preset": {"const": "fig2"},
         "regions": {"type": "object", "minProperties": 1,
                     "additionalProperties": _REGION}}),
    "space": _obj(
        {"qubits": {"type": "array", "minItems": 1, "items": {"type": "string"}},
         "factors": {"type": "object", "minProperties": 1,
                     "additionalProperties": {"type": "integer", "minimum": 2}},
         "state": _NUMVEC},
        oneOf=[{"required": ["qubits"]}, {"required": ["factors"]}]),
    "field": _obj(
        {"mass": {"type": "number", "minimum": 0},
         "sites": {"type": "integer", "minimum": 8},
         "spacing": {"type": "number", "exclusiveMinimum": 0},
         "steps": {"type": "integer", "minimum": 1}},
        required=["sites"]),
    "detectors": _obj(
        {"pair": {"type": "array", "items": _DETSPEC, "minItems": 2, "maxItems": 2},
         "tripartite": _obj(
             {"kick_step": {"type": "integer", "minimum": 0},
              "kick_site": {"type": "integer", "minimum": 0},
              "kick_strength": {"type": "number"},
              "bridge": {**_DETSPEC, "type": ["object", "null"]},
              "receiver": _DETSPEC,
              "modes": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
              "cutoff": {"type": "integer", "minimum": 2},
              "max_order": {"type": "integer", "minimum": 1, "maximum": 6}},
             required=["kick_step", "kick_site", "receiver", "modes", "cutoff"])},
        oneOf=[{"required": ["pair"]}, {"required": ["tripartite"]}]),
    "operations": {
        "type": "array", "minItems": 1, "maxItems": MAX_OPERATIONS,
        "items": _obj(
            {"kind": {"enum": ["kick", "kick_generator", "measure", "select",
                               "observe"]},
             "region": {"type": "string"},
             "operator": _OPERATOR,
             "param": {"type": "string"},
             "name": {"type": "string"},
             "bins": {"type": "array", "items": _pair("number")}},
            required=["kind", "region", "operator"]),
    },
    "family": _obj(
        {"steps": {"type": "array", "minItems": 1, "items": _obj(
            {"projectors": {"type": "array", "minItems": 1, "items": _OPERATOR},
             "observable": _OPERATOR},
            oneOf=[{"required": ["projectors"]}, {"required": ["observable"]}])},
         "times": {"type": "array", "items": {"type": "number"}}},
        required=["steps"]),
    "fv_preset": _obj(
        {"name": {"enum": ["bostelmann", "cnot"]},
         "valid": {"type": "boolean"},
         "seed": {"type": "integer", "minimum": 0}},
        required=["name"]),
    "sweep": _obj(
        {"param": {"type": "string"}, "grid": GRID},
        required=["param", "grid"]),
    "tolerances": _obj({key: {"type": "number"} for key in TOL_KEYS}),
}, oneOf=[{"required": [k]} for k in PAYLOADS])

_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "boolean": (bool,),
          "null": (type(None),), "number": (int, float), "integer": (int,)}


def _is(value, kind: str) -> bool:
    """JSON types: a bool is not a number, and 1.0 is an integer."""
    if isinstance(value, bool):
        return kind == "boolean"
    return (isinstance(value, _TYPES[kind])
            or kind == "integer" and isinstance(value, float) and value.is_integer())


def _errors(value, schema: Mapping, path: tuple):
    """Yield ``(path, message)`` for each way the JSON `value` breaks `schema`.

    Covers the keywords `SCHEMA` uses, with JSON Schema 2020-12 semantics save
    that numbers are finite doubles, in the schema's key order; the tests hold
    the first error by path to a reference validator.  `SCHEMA`'s consts and
    enums are strings, for which Python equality is JSON equality.
    """
    obj, arr, num = isinstance(value, dict), isinstance(value, list), _is(value, "number")
    for key, arg in schema.items():
        if key == "type":
            kinds = arg if isinstance(arg, list) else [arg]
            # a number must also be a finite double; a huge int is named by size
            if type(value) in (int, float) and not finite(value):
                yield path, (f"a {value.bit_length()}-bit integer" if type(value) is int
                             else repr(value)) + " is not a finite double"
            elif not any(_is(value, k) for k in kinds):
                yield path, f"{value!r} is not of type {', '.join(map(repr, kinds))}"
        elif key == "const" and value != arg:
            yield path, f"{arg!r} was expected"
        elif key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "oneOf":
            ok = [s for s in arg if next(_errors(value, s, path), None) is None]
            if not ok:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(ok) > 1:  # the later matches first, then the first match
                yield path, f"{value!r} is valid under each of {_reprs(ok[1:] + ok[:1])}"
        elif key == "required" and obj:
            yield from ((path, f"{k!r} is a required property") for k in arg if k not in value)
        elif key == "properties" and obj:
            for k in arg.keys() & value.keys():
                yield from _errors(value[k], arg[k], path + (k,))
        elif key == "additionalProperties" and obj:
            extras = sorted(k for k in value if k not in schema.get("properties", {}))
            if arg is not False:
                for k in extras:
                    yield from _errors(value[k], arg, path + (k,))
            elif extras:
                yield path, (f"Additional properties are not allowed ({_reprs(extras)} "
                             f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "items" and arr:
            # one flat pass under a bare number `type`: recurse only into the
            # elements of other Python types and the numbers that are not finite
            bare = arg.keys() == {"type"} and arg["type"] in ("number", "integer")
            fast = _TYPES[arg["type"]] if bare else ()
            for i in [i for i, v in enumerate(value)
                      if type(v) not in fast or not finite(v)]:
                yield from _errors(value[i], arg, path + (i,))
        elif key == "minItems" and arr and len(value) < arg:
            yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems" and arr and len(value) > arg:
            yield path, f"{value!r} is too long"
        elif key == "minProperties" and obj and len(value) < arg:
            more = "should be non-empty" if arg == 1 else "does not have enough properties"
            yield path, f"{value!r} {more}"
        elif key == "minimum" and num and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "maximum" and num and value > arg:
            yield path, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "exclusiveMinimum" and num and value <= arg:
            yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"


def _reprs(items) -> str:
    return ", ".join(map(repr, items))


def _constant(literal: str):
    """json hook for the NaN, Infinity and -Infinity literals: refuse them."""
    raise ParseError(f"number {literal} is not a finite double")


def validate(value, schema: Mapping = SCHEMA, path: tuple = ()) -> None:
    """Raise ``ValidationError`` with the first error by path, as ``path: message``;
    ties keep the order the schema's keys give."""
    first = min(_errors(value, schema, path), key=lambda e: e[0], default=None)
    if first is not None:
        where = "/".join(map(str, first[0])) or "(top level)"
        raise ValidationError(f"{where}: {first[1]}")


def load_document(path) -> dict:
    """Parse and schema-validate a scenario file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text, parse_constant=_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal past Python's digit limit
        raise ParseError(str(e)) from e
    validate(doc)
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


def build_state(doc: Mapping, sp: ProductSpace) -> DensityState:
    vec = doc.get("space", {}).get("state")
    if vec is None:
        raise ValidationError("space section has no prepared state")
    v = _complex_vector(vec)
    if v.size != sp.dim:
        raise ValidationError(
            f"state vector has {v.size} amplitudes, space dimension is {sp.dim}")
    if not v.any():
        raise ValidationError("state vector is zero")
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
    if "imag" in spec and "matrix" not in spec:
        raise ValidationError("an imag block needs a matrix block beside it")
    if "pauli" in spec:
        label = spec["factor"]
        if label not in sp.labels:
            raise ValidationError(f"no factor {label!r} in {sp.labels}")
        if sp.dim_of(label) != 2:
            raise ValidationError(f"factor {label!r} is not a qubit")
        return embed(PAULI[spec["pauli"]], label, sp)
    if "projector" in spec:
        v = _complex_vector(spec["projector"])
        if v.size != sp.dim:
            raise ValidationError("projector vector does not match the space")
        if not v.any():
            raise ValidationError("projector vector is zero")
        v = v / np.linalg.norm(v)
        return LocalOperator(sp, np.outer(v, v.conj()))
    for key in ("matrix", "imag"):
        rows = spec.get(key, ())
        if key in spec and (len(rows) != sp.dim or any(len(r) != sp.dim for r in rows)):
            raise ValidationError(f"{key} block is not {sp.dim} x {sp.dim}")
    m = np.array(spec["matrix"], dtype=complex)
    if "imag" in spec:
        m = m + 1j * np.array(spec["imag"], dtype=float)
    return LocalOperator(sp, m)


def build_scenario(doc: Mapping, tol: Tolerances = DEFAULT) -> Scenario:
    sp = build_space(doc)
    init = build_state(doc, sp)
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
    rho = build_state(doc, sp)
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


def _check_window(f: FieldModel, dets: Sequence[DetectorSpec],
                  kick: tuple[int, int] | None = None) -> None:
    """Refuse switching steps outside the field window; with a tripartite kick
    cell also the kick and every smearing site, which Fock backends do not wrap."""
    named = [(f"detector {d.label!r} switching step", n, f.steps)
             for d in dets for n in d.steps]
    if kick is not None:
        named += [("tripartite kick step", kick[0], f.steps),
                  ("tripartite kick site", kick[1], f.sites - 1)]
        named += [(f"detector {d.label!r} smearing site", s, f.sites - 1)
                  for d in dets for s in d.sites]
    for what, k, hi in named:
        if not 0 <= k <= hi:
            raise ValidationError(f"{what} {k} outside the field window 0..{hi}")


def build_detector_pair(doc: Mapping) -> tuple[FieldModel, DetectorSpec, DetectorSpec]:
    sec = doc.get("detectors", {})
    if "pair" not in sec:
        raise ValidationError("detectors section has no pair entry")
    f = build_field(doc)
    a, b = (_detector_from(s) for s in sec["pair"])
    _check_window(f, (a, b))
    return f, a, b


def build_tripartite(doc: Mapping) -> tuple[SmearingFn, DetectorSpec | None,
                                            DetectorSpec, FockBackend, int]:
    sec = doc.get("detectors", {})
    if "tripartite" not in sec:
        raise ValidationError("detectors section has no tripartite entry")
    t = sec["tripartite"]
    f = build_field(doc)
    try:  # the backend validates its modes and cutoff before building anything
        fb = fock_backend(f, t["modes"], t["cutoff"])
    except (ValueError, TruncationTooLarge) as e:
        raise ValidationError(f"tripartite modes {t['modes']} with cutoff "
                              f"{t['cutoff']}: {e}") from None
    cell = (t["kick_step"], t["kick_site"])
    kick_fn = SmearingFn({cell: t.get("kick_strength", 1.0)},
                         cells([cell], period=f.sites))
    bridge = None if t.get("bridge") is None else _detector_from(t["bridge"])
    receiver = _detector_from(t["receiver"])
    dets = [d for d in (bridge, receiver) if d is not None]
    _check_window(f, dets, cell)
    if min(n for d in dets for n in d.steps) <= cell[0]:
        raise ValidationError(f"detector switchings must follow the kick step {cell[0]}")
    labels = [d.label for d in dets] + list(fb.space.labels)
    if len(set(labels)) != len(labels):
        raise ValidationError(f"detector and mode labels must be distinct: {labels}")
    return kick_fn, bridge, receiver, fb, t.get("max_order", 4)


def grid_values(sweep: Mapping) -> tuple[float, ...]:
    g = sweep["grid"]
    if isinstance(g, dict):  # the schema holds grids to at least one point
        g = np.linspace(g["start"], g["stop"], g["count"])
    return tuple(float(v) for v in g)
