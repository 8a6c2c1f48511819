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
KEYWORDS = {"type", "properties", "patternProperties", "additionalProperties",
            "required", "oneOf", "const", "enum", "items", "minItems", "maxItems",
            "minProperties", "minimum", "maximum", "exclusiveMinimum"}


def _keywords(schema: dict) -> set:
    out = set(schema)
    for key, arg in schema.items():
        subs = (arg.values() if key in ("properties", "patternProperties")
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
