"""Document validation: the built-in checker against jsonschema as the oracle."""
import copy
import json
import random
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from causalq.errors import ValidationError
from causalq.serial import SCHEMA, load_document

from sized_documents import family_document, matrix_document

PRESETS = Path(__file__).resolve().parents[1] / "presets"
PRESET_DOCS = {p.stem: json.loads(p.read_text()) for p in sorted(PRESETS.glob("*.json"))}
ORACLE = jsonschema.Draft202012Validator(SCHEMA)

# the keywords the built-in checker implements
KEYWORDS = {"type", "properties", "additionalProperties",
            "required", "oneOf", "const", "enum", "items", "minItems", "maxItems",
            "minProperties", "minimum", "maximum", "exclusiveMinimum"}


def _keywords(schema: dict) -> set:
    out = set(schema)
    for key, arg in schema.items():
        subs = (arg.values() if key == "properties"
                else arg if key == "oneOf"
                else [arg] if isinstance(arg, dict) else [])
        for sub in subs:
            out |= _keywords(sub)
    return out


def _nodes(value, path=()):
    yield path, value
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for k, v in children:
        yield from _nodes(v, path + (k,))


def _replace(doc, path, new):
    if not path:
        return new
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = new
    return doc


# the presets, plus one document with the optional sections no preset has
BASES = {**PRESET_DOCS, "detector_pair_extras": {
    **PRESET_DOCS["detector_pair"],
    "field": {**PRESET_DOCS["detector_pair"]["field"], "spacing": 0.5, "mass": 0.1},
    "tolerances": {"tol.trace": 1e-9, "tol.operator": 1e-10}}}
# every dict entry of every base, for grafting known keys into other places
DONORS = [(k, v) for d in BASES.values() for _, node in _nodes(d)
          if isinstance(node, dict) for k, v in node.items()]
SWAPS = ["text", 3, 2.5, True, None, [], {}]


def mutate(doc, rng: random.Random):
    """Delete a key, add an unknown or a misplaced known key, swap a value's
    type, break a bound, or empty or lengthen an array; one or two times."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 1, 2))):
        path, node = rng.choice(list(_nodes(doc)))
        ops = ["swap"]
        if isinstance(node, dict):
            ops += ["delete", "unknown", "graft"] if node else ["unknown", "graft"]
        if isinstance(node, list):
            ops += ["empty", "lengthen"]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            ops += ["bound"] * 3
        op = rng.choice(ops)
        if op == "swap":
            new = rng.choice([v for v in SWAPS if type(v) is not type(node)])
            doc = _replace(doc, path, copy.deepcopy(new))
        elif op == "delete":
            del node[rng.choice(list(node))]
        elif op == "unknown":
            node[rng.choice(["zz_extra", "tol.nope", "Tol.x", "surprise"])] = 1
        elif op == "graft":
            k, v = rng.choice(DONORS)
            node[k] = copy.deepcopy(v)
        elif op == "empty":
            node.clear()
        elif op == "lengthen":
            node.extend(copy.deepcopy(node[-1:] or [0]) * rng.choice((1, 3, 9)))
        else:
            doc = _replace(doc, path, rng.choice([-1, -0.5, 0, 1, 1.5, 7, 10**6]))
    return doc


def oracle_first_path(doc):
    """Path of the first error jsonschema reports, sorted by path; None if valid."""
    errors = sorted(ORACLE.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    return "/".join(map(str, errors[0].absolute_path)) or "(top level)"


def checker_first_path(doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        load_document(path)
    except ValidationError as e:
        return str(e).split(": ", 1)[0]
    return None


def test_schema_uses_only_implemented_keywords():
    assert _keywords(SCHEMA) <= KEYWORDS


@pytest.mark.parametrize("preset", sorted(PRESET_DOCS))
def test_presets_valid_for_both(preset):
    assert oracle_first_path(PRESET_DOCS[preset]) is None
    assert load_document(PRESETS / f"{preset}.json") == PRESET_DOCS[preset]


@pytest.mark.parametrize("base", sorted(BASES))
def test_mutated_documents_match_oracle(base, tmp_path):
    """~2,000 documents in all: accept/reject and the first error path agree."""
    rng = random.Random(f"serial-{base}")
    mismatches, rejected = [], 0
    for i in range(290):
        doc = mutate(BASES[base], rng)
        want = oracle_first_path(doc)
        got = checker_first_path(doc, tmp_path)
        rejected += want is not None
        if got != want:
            mismatches.append((i, want, got))
    assert not mismatches
    assert rejected > 145  # most mutations break the document


def _rejection(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as exc:
        load_document(path)
    return str(exc.value)


def test_message_unknown_key(tmp_path):
    doc = {**PRESET_DOCS["borsten_qubit"], "bogus": 1}
    assert _rejection(tmp_path, doc) == (
        "(top level): Additional properties are not allowed ('bogus' was unexpected)")


def test_message_wrong_type(tmp_path):
    doc = copy.deepcopy(PRESET_DOCS["detector_pair"])
    doc["field"]["sites"] = "12"
    assert _rejection(tmp_path, doc) == "field/sites: '12' is not of type 'integer'"


def test_message_below_minimum(tmp_path):
    doc = copy.deepcopy(PRESET_DOCS["detector_pair"])
    doc["field"]["sites"] = 4
    assert _rejection(tmp_path, doc) == "field/sites: 4 is less than the minimum of 8"


def test_message_one_of_matched_by_none(tmp_path):
    doc = copy.deepcopy(PRESET_DOCS["borsten_qubit"])
    doc["operations"][0]["operator"] = {"factor": "A"}
    assert _rejection(tmp_path, doc) == (
        "operations/0/operator: {'factor': 'A'} is not valid under any of the "
        "given schemas")


def test_message_one_of_matched_by_two(tmp_path):
    doc = copy.deepcopy(PRESET_DOCS["borsten_qubit"])
    doc["space"] = {"qubits": ["A"], "factors": {"A": 2}}
    assert _rejection(tmp_path, doc) == (
        "space: {'qubits': ['A'], 'factors': {'A': 2}} is valid under each of "
        "{'required': ['factors']}, {'required': ['qubits']}")


# deep entries of operator_docs-sized number arrays

ENTRY_SWAPS = ["text", True, False, None, [], [0.5, 0.5], {}]
ROW_SWAPS = ["row", 3, None, {}, [], ["x", 1.0], [[1.0]]]


def mutate_entries(doc, rng: random.Random):
    """Replace one to three entries or rows deep inside the number arrays."""
    arrays = [(path, node) for path, node in _nodes(doc)
              if isinstance(node, list) and node and path[-1] in ("state", "matrix", "imag")]
    for _ in range(rng.choice((1, 1, 2, 3))):
        path, rows = rng.choice(arrays)
        i = rng.randrange(len(rows))
        if isinstance(rows[i], list) and rng.random() < 0.7:
            rows[i][rng.randrange(len(rows[i]))] = copy.deepcopy(rng.choice(ENTRY_SWAPS))
        else:
            rows[i] = copy.deepcopy(rng.choice(ROW_SWAPS))
    return doc


def oracle_first_error(doc):
    """``path: message`` of the first error jsonschema reports; None if valid."""
    errors = sorted(ORACLE.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    where = "/".join(map(str, errors[0].absolute_path)) or "(top level)"
    return f"{where}: {errors[0].message}"


def checker_first_error(doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        load_document(path)
    except ValidationError as e:
        return str(e)
    return None


@pytest.mark.parametrize("make", [matrix_document, family_document],
                         ids=["matrix_5_qubits", "family_4_qubits"])
def test_mutated_number_arrays_match_oracle(make, tmp_path):
    """Deep entries of operator_docs-sized arrays: accept/reject, the first
    error's path and its message agree with jsonschema."""
    rng = random.Random(f"arrays-{make.__name__}")
    base = make(np.random.default_rng(7))
    assert oracle_first_error(base) is None and checker_first_error(base, tmp_path) is None
    mismatches, rejected = [], 0
    for i in range(25):
        doc = mutate_entries(copy.deepcopy(base), rng)
        want = oracle_first_error(doc)
        rejected += want is not None
        if checker_first_error(doc, tmp_path) != want:
            mismatches.append((i, want))
    assert not mismatches
    assert rejected > 15


# whole number blocks are checked in one pass; a bad entry anywhere in them
# still gets the element walk's first error, path and wording

SENTINEL = 123456.5
# literals json.loads reads as inf, -inf and a 1329-bit int, which JSON Schema
# has no rule against: the walk refuses them at their path as not finite doubles
OVERFLOWS = {"1e999": "inf", "-1e999": "-inf", "1" + "0" * 400: "a 1329-bit integer"}
ENTRY_LITERALS = ["true", "false", '"x"', "null", "[]", "{}", "2.5", "-7", *OVERFLOWS]
ROW_LITERALS = ["[]", "[1.0]", "[true, 1.0]", '["x"]', "true", '"row"', "null",
                "[1.0, 2.0, 3.0]", "[1.0, 1e999]"]


def _number_blocks():
    """(document, path of one number inside a vector or matrix, row depth)."""
    ops = matrix_document(np.random.default_rng(3))
    fam = family_document(np.random.default_rng(4))
    fam["family"]["times"] = [0.0, 1.0, 2.0]
    trip = copy.deepcopy(PRESET_DOCS["tripartite_orders"])
    cells = copy.deepcopy(PRESET_DOCS["borsten_qubit"])
    cells["geometry"]["regions"] = {"R": {"cells": [[0, 1], [2, 3], [4, 5]]}}
    return [(ops, ("operations", 1, "operator", "matrix", 3, 5)),
            (ops, ("operations", 1, "operator", "imag", 31, 0)),
            (ops, ("space", "state", 4, 1)),
            (fam, ("family", "steps", 1, "observable", "matrix", 0, 15)),
            (fam, ("family", "times", 1)),
            (trip, ("detectors", "tripartite", "modes", 1)),
            (cells, ("geometry", "regions", "R", "cells", 1, 0))]


def _with_literal(doc, path, literal) -> str:
    text = json.dumps(_replace(copy.deepcopy(doc), path, SENTINEL))
    assert text.count(json.dumps(SENTINEL)) == 1
    return text.replace(json.dumps(SENTINEL), literal)


def _first_error(text, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text)
    try:
        load_document(path)
    except ValidationError as e:
        return str(e)
    return None


@pytest.mark.parametrize("case", range(7))
def test_bad_entries_in_number_blocks_match_oracle(case, tmp_path):
    doc, path = _number_blocks()[case]
    where = "/".join(map(str, path))
    literals = [(path, lit) for lit in ENTRY_LITERALS]
    if len(path) > 3 and isinstance(path[-2], int):  # a row of a matrix or a pair
        literals += [(path[:-1], lit) for lit in ROW_LITERALS]
    for at, literal in literals:
        text = _with_literal(doc, at, literal)
        if literal in OVERFLOWS:
            want = f"{where}: {OVERFLOWS[literal]} is not a finite double"
        elif "1e999" in literal:
            want = f"{'/'.join(map(str, at))}/1: inf is not a finite double"
        else:
            want = oracle_first_error(json.loads(text))
        assert _first_error(text, tmp_path) == want, (at, literal)


def test_first_error_is_the_first_by_path_across_blocks(tmp_path):
    doc = matrix_document(np.random.default_rng(3))
    m = doc["operations"][1]["operator"]["matrix"]
    m[7][1], m[2][30], m[2][4] = True, "x", [1.0]
    doc["operations"][1]["operator"]["imag"][0][0] = None
    doc["operations"][1]["operator"]["matrix"][5] = [0.5] * 3  # ragged: valid
    want = oracle_first_error(doc)
    assert want.startswith("operations/1/operator/imag/0/0: ")
    assert _first_error(json.dumps(doc), tmp_path) == want


@pytest.mark.parametrize("make", [matrix_document, family_document],
                         ids=["matrix_5_qubits", "family_4_qubits"])
def test_valid_matrix_blocks_are_not_walked_row_by_row(monkeypatch, make):
    from causalq import serial
    walk, paths = serial._errors, []

    def counted(value, schema, path):
        paths.append(path)
        return walk(value, schema, path)
    monkeypatch.setattr(serial, "_errors", counted)
    serial.validate(make(np.random.default_rng(3)))
    blocks = [p for p in paths if p[-1:] in [("matrix",), ("imag",)]]
    assert blocks  # every block is reached, and none of its rows or entries
    assert not [p for p in paths if any(k in ("matrix", "imag") for k in p[:-1])]


@pytest.mark.parametrize("grid", [[0.0, float("nan")], [1.0, float("nan"), 2.0],
                                  [float("nan"), 1.0], [0.0, float("-inf")]],
                         ids=["nan_last", "nan_middle", "nan_first", "minus_inf"])
def test_grid_refuses_nan_wherever_it_sits(grid):
    from causalq.serial import GRID, validate
    bad = next(i for i, v in enumerate(grid) if not abs(v) < float("inf"))
    with pytest.raises(ValidationError, match=rf"^--grid/{bad}: -?(nan|inf) is not a "
                                              "finite double$"):
        validate(grid, GRID, ("--grid",))


# the digest: one typed walk of the parsed document

def test_digest_sees_one_ulp_in_one_matrix_entry():
    from causalq.serial import document_digest
    doc = family_document(np.random.default_rng(5))
    bumped = copy.deepcopy(doc)
    row = bumped["family"]["steps"][1]["observable"]["imag"][2]
    row[3] = float(np.nextafter(row[3], 1.0))
    assert row[3] != doc["family"]["steps"][1]["observable"]["imag"][2][3]
    assert document_digest(bumped) != document_digest(doc)


@pytest.mark.parametrize("a, b", [
    ({"x": 1}, {"x": 1.0}), ({"x": [1, 2.0]}, {"x": [1.0, 2.0]}),
    ({"x": [[1.0]]}, {"x": [1.0]}), ({"x": [0.0]}, {"x": [-0.0]}),
    ({"x": ["ab", "c"]}, {"x": ["a", "bc"]}), ({"x": "1"}, {"x": 1}),
    ({"x": True}, {"x": 1}), ({"x": None}, {"x": False}), ({"x": []}, {"x": {}}),
    ({"x": {"y": 1}}, {"xy": 1}), ({"x": [12, 3]}, {"x": [1, 23]})],
    ids=["int_float", "mixed_list", "nesting", "signed_zero", "string_split",
         "string_number", "bool_int", "null_false", "empty_containers", "key_path",
         "int_digits"])
def test_digest_tells_apart_values_or_types_that_differ(a, b):
    from causalq.serial import document_digest
    assert document_digest(a) != document_digest(b)


def test_digest_ignores_key_order_and_layout(tmp_path):
    from causalq.serial import document_digest
    doc = family_document(np.random.default_rng(5))
    reordered = dict(reversed(list(doc.items())))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(reordered, indent=3))
    assert document_digest(load_document(path)) == document_digest(doc)


def test_digest_of_a_preset_is_pinned():
    from causalq.serial import document_digest
    assert document_digest(load_document(PRESETS / "fuksa_family.json")) == (
        "f22dec5e2fe5c0f5da7d0cf2e7429aafba1f736799be184af5c8cffa849f63f9")
