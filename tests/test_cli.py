"""Command-line front door: parsing, suites, sweeps, reports, exit codes."""
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalq
from causalq import __version__, cli as cli_module
from causalq.cli import main
from causalq.detectors import tripartite_order_count
from causalq.errors import ParseError, ValidationError
from causalq.histories import decoherence
from causalq.qops import PAULI, embed, qubit_space, sigma_x
from causalq.scenarios import pauli_strings
from causalq.serial import (build_detector_pair, build_family, build_tripartite,
                            document_digest, dump_document, fmt17, load_document)

from sized_documents import family_document, operations_document

PRESETS = Path(__file__).resolve().parents[1] / "presets"

ZA_BLOCKS = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
]


def cli(capsys, *args):
    rc = main([str(a) for a in args])
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_report(out_dir, stem):
    with open(Path(out_dir) / f"{stem}.report.json") as fh:
        return json.load(fh)


# parsing and validation

def test_malformed_json_exit_2_with_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"operations": [,]}')
    rc, _, err = cli(capsys, "run", path, "--out", tmp_path)
    assert rc == 2
    assert "line 1, column" in err


def test_unknown_key_rejected(tmp_path, capsys):
    doc = load_document(PRESETS / "borsten_qubit.json")
    doc["bogus_key"] = 1
    rc, _, err = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 2
    assert "bogus_key" in err


def test_nested_unknown_key_rejected(tmp_path):
    doc = load_document(PRESETS / "borsten_qubit.json")
    doc["operations"][0]["surprise"] = 2
    path = write_doc(tmp_path, doc)
    with pytest.raises(ValidationError, match="surprise"):
        load_document(path)


def test_document_without_payload_rejected(tmp_path, capsys):
    doc = {"space": {"qubits": ["A"], "state": [1, 0]}}
    rc, _, err = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 2


def test_missing_file_exit_2(tmp_path, capsys):
    rc, _, err = cli(capsys, "run", tmp_path / "nope.json", "--out", tmp_path)
    assert rc == 2


def test_parse_error_carries_location():
    with pytest.raises(ParseError, match="column"):
        raise ParseError("line 3, column 9: Expecting value")


# run command

def test_run_borsten_preset_writes_cosine_csv(tmp_path, capsys):
    rc, out, _ = cli(capsys, "run", PRESETS / "borsten_qubit.json",
                     "--out", tmp_path)
    assert rc == 0
    with open(tmp_path / "borsten_qubit.data.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 33
    for r in rows:
        g = float(r["gamma"])
        assert abs(float(r["C"]) - math.cos(g) ** 2) < 1e-12
    rep = read_report(tmp_path, "borsten_qubit")
    assert abs(rep["results"]["delta_max.C"] - 1.0) < 1e-12
    assert "report:" in out and "data:" in out


# two non-commuting kicks on the observed qubit B in spacelike regions K1, K2
SEVEN_OPERATIONS = {
    "geometry": {"preset": "fig2", "regions": {
        "K1": {"rect": [0, 0.5, 1, 1.5]}, "K2": {"rect": [0, 0.5, 5.5, 6]},
        "F1": {"rect": [20, 21, -3, -2]}, "F2": {"rect": [20, 21, 2, 3]}}},
    "space": {"qubits": ["A", "B"], "state": [1, 1, 0, 0]},
    "operations": [
        {"kind": "kick_generator", "region": "O1", "param": "g",
         "operator": {"pauli": "X", "factor": "A"}},
        {"kind": "kick", "region": "K1", "operator": {"matrix": [
            [0.6, -0.8, 0, 0], [0.8, 0.6, 0, 0], [0, 0, 0.6, -0.8], [0, 0, 0.8, 0.6]]}},
        {"kind": "kick", "region": "K2", "operator": {
            "matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
            "imag": [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]}},
        {"kind": "measure", "region": "O2", "operator": {"pauli": "Z", "factor": "A"}},
        {"kind": "observe", "region": "O3", "name": "C",
         "operator": {"pauli": "X", "factor": "B"}},
        {"kind": "observe", "region": "F1", "name": "ZA",
         "operator": {"pauli": "Z", "factor": "A"}},
        {"kind": "observe", "region": "F2", "name": "ZB",
         "operator": {"pauli": "Z", "factor": "B"}}],
    "sweep": {"param": "g", "grid": {"start": 0, "stop": 1, "count": 3}}}


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_operations_report_states_the_order_check(tmp_path, capsys, command):
    rc, out, _ = cli(capsys, command, PRESETS / "sorkin_qubit_baby.json",
                     "--out", tmp_path)
    assert rc == 0
    rep = read_report(tmp_path, "sorkin_qubit_baby")
    (entry,) = [c for c in rep["checks"] if c["name"] == "order_check"]
    assert entry["passed"] is None and entry["note"].startswith("classes: ")
    assert rep["results"]["order_check.extensions_evaluated"] == 1
    assert not [k for k in rep["residuals"] if k.startswith("order_check")]
    assert "[info] order_check (classes: " in out


@pytest.mark.parametrize("extra, code, evaluated", [
    (["Z", "Z", "Z"], 0, 1),  # 120 extensions, commuting kicks: one class
    (["X", "Z", "Y"], 0, 1),  # kicks on C anticommute: their conjugations commute
])
def test_workload_documents_run_one_extension_per_class(tmp_path, capsys, extra,
                                                         code, evaluated):
    path = write_doc(tmp_path, operations_document(np.random.default_rng(1), extra))
    rc, _, _ = cli(capsys, "run", path, "--out", tmp_path)
    assert rc == code
    assert read_report(tmp_path, "doc")["results"][
        "order_check.extensions_evaluated"] == evaluated


def test_more_classes_than_the_cap_are_reported_partial(tmp_path, capsys):
    # eight mutually spacelike kicks on one qubit, no two commuting: 8! classes
    rng = np.random.default_rng(8)
    ops, regions = [], {}
    for k in range(8):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        regions[f"R{k}"] = {"rect": [0, 1, 10 * k, 10 * k + 1]}
        ops.append({"kind": "kick", "region": f"R{k}",
                    "operator": {"matrix": u.real.tolist(), "imag": u.imag.tolist()}})
    doc = {"geometry": {"regions": regions}, "space": {"qubits": ["A"], "state": [1, 0]},
           "operations": ops}
    rc, out, _ = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 0
    assert "[info] order_check (partial: the first 720 class representatives" in out
    assert read_report(tmp_path, "doc")["results"]["order_check.extensions_evaluated"] == 720


def test_seven_operations_with_noncommuting_kicks_exit_3(tmp_path, capsys):
    path = write_doc(tmp_path, SEVEN_OPERATIONS)
    rc, _, err = cli(capsys, "run", path, "--out", tmp_path)
    assert rc == 3
    assert "OrderSensitivity" in err


def test_run_bostelmann_reports_residual_keys(tmp_path, capsys):
    rc, _, _ = cli(capsys, "run", PRESETS / "bostelmann.json",
                   "--out", tmp_path, "--format", "json")
    assert rc == 0
    rep = read_report(tmp_path, "bostelmann")
    assert rep["passed"] is True
    assert rep["residuals"]["fv.bostelmann.residual"] < 1e-10
    assert rep["residuals"]["fv.corollary6.residual"] < 1e-10


def test_run_bostelmann_zeros_come_with_gate_counts(tmp_path, capsys):
    rc, _, _ = cli(capsys, "run", PRESETS / "bostelmann.json", "--out", tmp_path)
    assert rc == 0
    rep = read_report(tmp_path, "bostelmann")
    res, out = rep["residuals"], rep["results"]
    assert res["fv.bostelmann.residual"] == res["fv.bostelmann.state_spread"] == 0.0
    assert res["fv.corollary6.factorization"] == 0.0
    # the cone rule skipped gates; the counts are results, not residuals
    assert out["fv.bostelmann.gates_skipped"] > 0
    assert out["fv.bostelmann.gates_applied"] > 0
    assert 0 < out["fv.bostelmann.max_support_dim"] < 2 ** 7
    assert out["fv.corollary6.gates_skipped"] == 6
    assert out["fv.corollary6.max_support_dim"] == 2 ** 7
    assert not any(".gates_" in k or "support_dim" in k for k in res)


def test_run_sorkin_preset_shows_signalling(tmp_path, capsys):
    rc, _, _ = cli(capsys, "run", PRESETS / "sorkin_qubit_baby.json",
                   "--out", tmp_path)
    assert rc == 0
    rep = read_report(tmp_path, "sorkin_qubit_baby")
    assert rep["results"]["delta_max.C"] > 1e-3


def test_run_family_emits_decoherence_table(tmp_path, capsys):
    rc, _, _ = cli(capsys, "run", PRESETS / "fuksa_family.json",
                   "--out", tmp_path)
    assert rc == 0
    with open(tmp_path / "fuksa_family.data.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"alpha", "beta", "re", "im"}
    assert len(rows) == 16
    diag = sum(float(r["re"]) for r in rows if r["alpha"] == r["beta"])
    assert abs(diag - 1.0) < 1e-10
    labels = {r["alpha"] for r in rows}
    assert labels == {"0.0", "0.1", "1.0", "1.1"}


def test_run_family_json_format_keeps_labels(tmp_path, capsys):
    rc, _, _ = cli(capsys, "run", PRESETS / "fuksa_family.json",
                   "--out", tmp_path, "--format", "json")
    assert rc == 0
    rows = json.loads((tmp_path / "fuksa_family.data.json").read_text())
    assert rows[1]["alpha"] == "0.0" and rows[1]["beta"] == "0.1"
    assert isinstance(rows[0]["re"], float)


def test_report_metadata_fields(tmp_path, capsys):
    rc, _, _ = cli(capsys, "run", PRESETS / "bostelmann.json",
                   "--out", tmp_path, "--seed", "11")
    assert rc == 0
    rep = read_report(tmp_path, "bostelmann")
    assert rep["seed"] == 11
    assert rep["version"] == __version__
    assert len(rep["digest_sha256"]) == 64
    assert int(rep["digest_sha256"], 16) >= 0
    assert rep["timings"]["execute_s"] > 0


# check command

def test_pauli_names_follow_pauli_strings():
    sp = qubit_space("A", "B", "C")
    labels = ["A", "C"]
    for i, op in enumerate(pauli_strings(sp, labels)):
        word, at = cli_module._pauli_name(i, labels).split("@")
        assert at == "A,C"
        m = np.kron(PAULI[word[0]], PAULI[word[1]])
        assert np.array_equal(op.matrix, embed(m, labels, sp).matrix), word


def test_check_borsten_flags_violating_measure(tmp_path, capsys):
    rc, out, _ = cli(capsys, "check", PRESETS / "borsten_qubit.json",
                     "--suite", "borsten", "--out", tmp_path)
    assert rc == 1
    assert "[FAIL] borsten.condition" in out
    assert "witness" in out
    rep = read_report(tmp_path, "borsten_qubit")
    assert rep["residuals"]["borsten.commutator"] > 0.5
    assert rep["passed"] is False


def test_check_borsten_resolves_each_measurement_once(tmp_path, capsys, monkeypatch):
    from causalq import scenarios as sc
    calls = []
    resolve = sc.spectral_resolution

    def counted(a, *args, **kwargs):
        calls.append(a)
        return resolve(a, *args, **kwargs)
    monkeypatch.setattr(sc, "spectral_resolution", counted)
    rc, out, _ = cli(capsys, "check", PRESETS / "borsten_qubit.json",
                     "--suite", "borsten", "--out", tmp_path)
    assert rc == 1 and "[FAIL] borsten.condition" in out
    assert len(calls) == 1           # the preset has one measure operation


def test_check_borsten_identity_measure_passes(tmp_path, capsys):
    doc = load_document(PRESETS / "borsten_qubit.json")
    doc["operations"][1]["operator"] = {"matrix": np.eye(4).tolist()}
    rc, out, _ = cli(capsys, "check", write_doc(tmp_path, doc),
                     "--suite", "borsten", "--out", tmp_path)
    assert rc == 0
    assert "[PASS] borsten.condition" in out


def test_check_fv_valid_geometry_passes(tmp_path, capsys):
    rc, out, _ = cli(capsys, "check", PRESETS / "bostelmann.json",
                     "--suite", "fv", "--out", tmp_path)
    assert rc == 0
    assert "[PASS] fv.bostelmann" in out
    assert "[PASS] fv.corollary6" in out


def test_check_fv_broken_geometry_fails_with_diagnostics(tmp_path, capsys):
    doc = {"fv_preset": {"name": "bostelmann", "valid": False, "seed": 5}}
    rc, out, _ = cli(capsys, "check", write_doc(tmp_path, doc),
                     "--suite", "fv", "--out", tmp_path)
    assert rc == 1
    assert "[FAIL] fv.geometry" in out
    assert "region" in out
    rep = read_report(tmp_path, "doc")
    assert rep["residuals"]["fv.bostelmann.residual"] > 1e-3


def test_run_fv_broken_geometry_reproduces_its_signal(tmp_path, capsys):
    # the cone rule must not hide real signalling; these are the values of
    # the full-space construction for this document
    doc = {"fv_preset": {"name": "bostelmann", "valid": False, "seed": 5}}
    rc, _, _ = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 1
    res = read_report(tmp_path, "doc")["residuals"]
    assert abs(res["fv.bostelmann.residual"] - 1.0146052542725268) <= 1e-12
    assert abs(res["fv.bostelmann.state_spread"] - 0.03006941232284155) <= 1e-12


def test_check_detector_pair_spacelike_passes(tmp_path, capsys):
    rc, out, _ = cli(capsys, "check", PRESETS / "detector_pair.json",
                     "--suite", "detector", "--out", tmp_path)
    assert rc == 0
    assert "spacelike" in out
    rep = read_report(tmp_path, "detector_pair")
    assert rep["residuals"]["detector.signal_trace_norm"] < 1e-12


def test_check_detector_timelike_pair_fails(tmp_path, capsys):
    doc = load_document(PRESETS / "detector_pair.json")
    # move B straight above A so the pair is causally connected
    doc["detectors"]["pair"][1]["sites"] = [0, 1]
    rc, out, _ = cli(capsys, "check", write_doc(tmp_path, doc),
                     "--suite", "detector", "--out", tmp_path)
    assert rc == 1
    assert "causally connected" in out


def _out_of_window_pair():
    doc = load_document(PRESETS / "detector_pair.json")
    doc["field"] = {"mass": 0.0, "sites": 8, "steps": 2}
    doc["detectors"]["pair"][1].update(steps=[6, 6], sites=[4, 5])
    return doc


def _out_of_window_tripartite():
    doc = load_document(PRESETS / "tripartite_orders.json")
    doc["field"]["steps"] = 3  # the receiver switches at step 4
    return doc


@pytest.mark.parametrize("make, command, message", [
    (_out_of_window_pair, ["run"], "detector 'B' switching step 6"),
    (_out_of_window_pair, ["check", "--suite", "detector"],
     "detector 'B' switching step 6"),
    (_out_of_window_tripartite, ["run"], "detector 'B' switching step 4"),
    (_out_of_window_tripartite, ["sweep"], "detector 'B' switching step 4"),
], ids=["pair_run", "pair_check", "tripartite_run", "tripartite_sweep"])
def test_detector_steps_outside_field_window_exit_2(tmp_path, capsys, make,
                                                    command, message):
    doc = make()
    rc, _, err = cli(capsys, command[0], write_doc(tmp_path, doc), *command[1:],
                     "--out", tmp_path)
    assert rc == 2
    assert err.startswith(f"input error: {message} outside the field window 0..")
    build = build_detector_pair if "pair" in doc["detectors"] else build_tripartite
    with pytest.raises(ValidationError, match="outside the field window"):
        build(doc)


def test_tripartite_kick_step_outside_field_window_exit_2(tmp_path, capsys):
    doc = load_document(PRESETS / "tripartite_orders.json")
    doc["detectors"]["tripartite"]["kick_step"] = 9
    rc, _, err = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 2
    assert err.startswith("input error: tripartite kick step 9 outside")


# edits of the tripartite preset that its Fock backend cannot represent, with
# the input error each must give from serial.build_tripartite
TRIPARTITE_INPUT_ERRORS = {
    "kick_at_switching": ({"kick_step": 2},
                          "detector switchings must follow the kick step 2"),
    "receiver_site_outside": ({"receiver": {"smearing": {"18": 1.0}}},
                              "detector 'B' smearing site 18 outside the field "
                              "window 0..11"),
    "bridge_site_outside": ({"bridge": {"smearing": {"-1": 1.0}}},
                            "detector 'A' smearing site -1 outside the field "
                            "window 0..11"),
    "receiver_label_of_bridge": ({"receiver": {"label": "A"}},
                                 "detector and mode labels must be distinct"),
    "receiver_label_of_mode": ({"receiver": {"label": "m3"}},
                               "detector and mode labels must be distinct"),
    "modes_equal_mod_sites": ({"modes": [3, 15]},
                              r"tripartite modes \[3, 15\] with cutoff 3: modes "
                              r"\[3, 15\] repeat a mode modulo the 12 sites"),
    "degenerate_mode": ({"modes": [0]}, r"tripartite modes \[0\] with cutoff 3: "
                        "mode 0 is degenerate"),
    "cutoff_too_large": ({"cutoff": 5}, r"tripartite modes \[3, -3\] with cutoff 5: "
                         "at most 3 modes and occupation cutoff 4"),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("edit, message", TRIPARTITE_INPUT_ERRORS.values(),
                         ids=TRIPARTITE_INPUT_ERRORS)
def test_tripartite_input_errors_exit_2(tmp_path, capsys, command, edit, message):
    doc = load_document(PRESETS / "tripartite_orders.json")
    t = doc["detectors"]["tripartite"]
    for key, value in edit.items():
        t[key] = {**t[key], **value} if isinstance(value, dict) else value
    rc, _, err = cli(capsys, command, write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 2
    assert re.match(f"input error: {message}", err)
    with pytest.raises(ValidationError, match=message):
        build_tripartite(doc)


def test_check_fuksa_bipartite_consistent_family(tmp_path, capsys):
    rc, out, _ = cli(capsys, "check", PRESETS / "fuksa_family.json",
                     "--suite", "fuksa", "--out", tmp_path)
    assert rc == 0
    rep = read_report(tmp_path, "fuksa_family")
    assert rep["residuals"]["fuksa.consistency"] <= 1e-12
    assert rep["residuals"]["fuksa.marginal_shift"] <= 1e-10


def test_check_fuksa_tripartite_pass_and_squeezed_fail(tmp_path, capsys):
    steps = [
        {"projectors": [{"matrix": m} for m in ZA_BLOCKS]},
        {"observable": {"pauli": "X", "factor": "B"}},
        {"observable": {"pauli": "Z", "factor": "B"}},
    ]
    doc = {"space": {"qubits": ["A", "B"], "state": [1, 1, 1, 1]},
           "family": {"steps": steps}}
    rc, _, _ = cli(capsys, "check", write_doc(tmp_path, doc, "tri3.json"),
                   "--suite", "fuksa", "--out", tmp_path)
    assert rc == 0
    squeezed = steps[:2] + [{"observable": {"pauli": "X", "factor": "A"}},
                            steps[2]]
    doc4 = {"space": {"qubits": ["A", "B"], "state": [1, 1, 1, 1]},
            "family": {"steps": squeezed}}
    rc, _, _ = cli(capsys, "check", write_doc(tmp_path, doc4, "tri4.json"),
                   "--suite", "fuksa", "--out", tmp_path)
    assert rc == 1
    rep = read_report(tmp_path, "tri4")
    assert rep["residuals"]["fuksa.worst_product"] > 1e-3


def test_check_suite_payload_mismatch_exit_2(tmp_path, capsys):
    rc, _, err = cli(capsys, "check", PRESETS / "fuksa_family.json",
                     "--suite", "borsten", "--out", tmp_path)
    assert rc == 2
    assert "operations" in err
    rc, _, err = cli(capsys, "check", PRESETS / "borsten_qubit.json",
                     "--suite", "fuksa", "--out", tmp_path)
    assert rc == 2
    assert "family" in err


_ROW = [0, 0, 0, 0]


@pytest.mark.parametrize("state, measured, message", [
    ([0, 0, 0, 0], None, "state vector is zero"),
    (None, {"projector": [0, 0, 0, 0]}, "projector vector is zero"),
    (None, {"matrix": [_ROW, _ROW[:3], _ROW, _ROW]}, "matrix block is not 4 x 4"),
    (None, {"matrix": [[1, 0], [0, 1]]}, "matrix block is not 4 x 4"),
    (None, {"matrix": [_ROW[:3]] * 4}, "matrix block is not 4 x 4"),
    (None, {"pauli": "Z", "factor": "C"}, "no factor 'C' in ('A', 'B')"),
    (None, {"pauli": "X", "factor": "B", "imag": [[1]]},
     "an imag block needs a matrix block beside it"),
    (None, {"projector": [1, 0, 0, 0], "imag": [[1]]},
     "an imag block needs a matrix block beside it"),
], ids=["zero_state", "zero_projector", "ragged_matrix", "matrix_2x2",
        "matrix_4x3", "pauli_unknown_factor", "imag_beside_pauli",
        "imag_beside_projector"])
def test_bad_state_or_operator_exit_2(tmp_path, capsys, state, measured, message):
    doc = load_document(PRESETS / "borsten_qubit.json")
    if state is not None:
        doc["space"]["state"] = state
    if measured is not None:
        doc["operations"][1]["operator"] = measured
    rc, _, err = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 2
    assert err == f"input error: {message}\n"


def test_non_hermitian_kick_generator_is_a_checked_error(tmp_path, capsys):
    doc = load_document(PRESETS / "borsten_qubit.json")
    doc["operations"][0]["operator"] = {"matrix": [[0, 1, 0, 0], *[[0] * 4] * 3]}
    rc, _, err = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 3
    assert err == "error: NotHermitian: kick generator must be Hermitian\n"


@pytest.mark.parametrize("literal, message", [
    ("NaN", "number NaN is not a finite double"),
    ("Infinity", "number Infinity is not a finite double"),
    ("-Infinity", "number -Infinity is not a finite double"),
    # the parser reads these as inf and an int; the schema walk refuses them
    ("1e999", "space/state/0: inf is not a finite double"),
    ("1" + "0" * 400, "space/state/0: a 1329-bit integer is not a finite double"),
], ids=["nan", "infinity", "minus_infinity", "overflow", "overflow_int"])
def test_non_finite_number_exit_2(tmp_path, capsys, literal, message):
    doc = load_document(PRESETS / "borsten_qubit.json")
    doc["space"]["state"][0] = "HOLE"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"HOLE"', literal))
    rc, _, err = cli(capsys, "run", path, "--out", tmp_path)
    assert rc == 2
    assert err == f"input error: {message}\n"
    assert not list(tmp_path.glob("doc.*.*"))


@pytest.mark.parametrize("preset, old, new, where", [
    ("borsten_qubit", "[0, 0, 0, -1]", "[0, 0, 0, -1e999]",
     "operations/1/operator/matrix/3/3"),
    ("borsten_qubit", '"count": 33', '"count": 1' + "0" * 400, "sweep/grid/count"),
    ("detector_pair", '"sites": 64', '"sites": 1' + "0" * 400, "field/sites"),
    ("detector_pair", '"coupling": 0.4', '"coupling": 1e400',
     "detectors/pair/1/coupling"),
    ("detector_pair", '"field": {', '"tolerances": {"tol.operator": 1e999}, "field": {',
     "tolerances/tol.operator"),
    ("tripartite_orders", '"gap": 0.8', '"gap": 1e999', "detectors/tripartite/bridge/gap"),
], ids=["matrix_entry", "grid_count", "integer_field", "coupling", "tolerance", "bridge"])
def test_overflowing_literal_named_at_its_path(tmp_path, capsys, preset, old, new, where):
    text = (PRESETS / f"{preset}.json").read_text()
    assert old in text
    path = tmp_path / "doc.json"
    path.write_text(text.replace(old, new))
    rc, _, err = cli(capsys, "run", path, "--out", tmp_path)
    assert rc == 2
    assert err.startswith(f"input error: {where}: ")
    assert err.endswith(" is not a finite double\n") and len(err) < 100
    assert not list(tmp_path.glob("doc.*.*"))


@pytest.mark.parametrize("times", [[1.0, 0.0], [0.0, 1.0, 2.0]],
                         ids=["unsorted", "wrong_length"])
@pytest.mark.parametrize("command", [["run"], ["check", "--suite", "fuksa"]],
                         ids=["run", "check_fuksa"])
def test_bad_family_times_exit_2(tmp_path, capsys, times, command):
    doc = load_document(PRESETS / "fuksa_family.json")
    doc["family"]["times"] = times
    rc, _, err = cli(capsys, command[0], write_doc(tmp_path, doc), *command[1:],
                     "--out", tmp_path)
    assert rc == 2
    assert err.startswith("input error: family:")


# sweep command

def test_sweep_grid_override(tmp_path, capsys):
    rc, _, _ = cli(capsys, "sweep", PRESETS / "borsten_qubit.json",
                   "--param", "gamma", "--grid", "0:1.5707963267948966:5",
                   "--out", tmp_path)
    assert rc == 0
    with open(tmp_path / "borsten_qubit.data.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert abs(float(rows[-1]["C"])) < 1e-12  # cos^2(pi/2)


def test_sweep_comma_grid(tmp_path, capsys):
    rc, _, _ = cli(capsys, "sweep", PRESETS / "borsten_qubit.json",
                   "--param", "gamma", "--grid", "0,0.5", "--out", tmp_path)
    assert rc == 0
    with open(tmp_path / "borsten_qubit.data.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["gamma"]) for r in rows] == [0.0, 0.5]


def test_sweep_empty_grid_exit_2(tmp_path, capsys):
    doc = load_document(PRESETS / "borsten_qubit.json")
    doc["sweep"] = {"param": "gamma", "grid": []}
    rc, _, err = cli(capsys, "sweep", write_doc(tmp_path, doc),
                     "--out", tmp_path)
    assert rc == 2
    assert "empty" in err


def test_sweep_unknown_param_exit_2(tmp_path, capsys):
    rc, _, err = cli(capsys, "sweep", PRESETS / "borsten_qubit.json",
                     "--param", "delta", "--grid", "0,1", "--out", tmp_path)
    assert rc == 2
    assert "delta" in err


def test_sweep_without_sweep_section_exit_2(tmp_path, capsys):
    rc, _, err = cli(capsys, "sweep", PRESETS / "fuksa_family.json",
                     "--out", tmp_path)
    assert rc == 2


def test_sweep_family_has_no_parameters(tmp_path, capsys):
    doc = load_document(PRESETS / "fuksa_family.json")
    doc["sweep"] = {"param": "gamma", "grid": [0.0, 1.0]}
    rc, _, err = cli(capsys, "sweep", write_doc(tmp_path, doc),
                     "--out", tmp_path)
    assert rc == 2


def test_sweep_tripartite_order_table(tmp_path, capsys):
    rc, _, _ = cli(capsys, "sweep", PRESETS / "tripartite_orders.json",
                   "--out", tmp_path, "--format", "json")
    assert rc == 0
    rows = json.loads((tmp_path / "tripartite_orders.data.json").read_text())
    assert len(rows) == 2
    for r in rows:
        assert set(r) == {"coupling", "order1", "order2", "order3", "order4"}
        for k in ("order1", "order2", "order3"):
            assert r[k] < 1e-9
        assert r["order4"] > 1e-6


def test_sweep_tripartite_reports_coupling_free_table(tmp_path, capsys):
    rc, out, _ = cli(capsys, "sweep", PRESETS / "tripartite_orders.json",
                     "--out", tmp_path)
    assert rc == 0
    assert "[info] sweep.coupling_free (couplings are formal series variables" in out
    rep = read_report(tmp_path, "tripartite_orders")
    assert rep["passed"] is True
    assert [c["name"] for c in rep["checks"]] == ["sweep.coupling_free"]
    assert rep["checks"][0]["passed"] is None


@pytest.mark.parametrize("grid", ["0.5", "0,0.5,1", "0.1:2:7"])
def test_sweep_tripartite_computes_one_table(tmp_path, capsys, monkeypatch, grid):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return tripartite_order_count(*args, **kwargs)
    monkeypatch.setattr("causalq.cli.tripartite_order_count", counted)
    doc = load_document(PRESETS / "tripartite_orders.json")
    path = write_doc(tmp_path, {**doc, "tolerances": {"tol.positivity": 0.25}})
    rc, _, _ = cli(capsys, "sweep", path, "--param", "coupling", "--grid", grid,
                   "--out", tmp_path, "--format", "json")
    assert rc == 0
    assert len(calls) == 1
    assert calls[0]["tol"].positivity == 0.25  # the document's tolerances
    kick, bridge, receiver, fb, max_order = build_tripartite(doc)
    ground = np.diag([0.0, 1.0]).astype(complex)
    table = {f"order{k}": v for k, v in tripartite_order_count(
        kick, bridge, receiver, fb, sigma_x, ground, ground, max_order).items()}
    rows = json.loads((tmp_path / "doc.data.json").read_text())
    assert [r.pop("coupling") for r in rows] == list(cli_module._parse_grid(grid))
    assert rows == [table] * len(rows)


def test_sweep_threads_agree(tmp_path, capsys):
    for n in (1, 4):
        rc, _, _ = cli(capsys, "sweep", PRESETS / "borsten_qubit.json",
                       "--param", "gamma", "--grid", "0:3.0:7",
                       "--threads", n, "--out", tmp_path / str(n))
        assert rc == 0
    a = (tmp_path / "1" / "borsten_qubit.data.csv").read_text()
    b = (tmp_path / "4" / "borsten_qubit.data.csv").read_text()
    assert a == b


# data files against the per-entry reference

def _reference_family_rows(dm) -> list[dict]:
    """The decoherence table entry by entry, as one numpy scalar per cell."""
    rows = []
    for i, a in enumerate(dm.alphas):
        for j, b in enumerate(dm.alphas):
            rows.append({"alpha": ".".join(map(str, a)),
                         "beta": ".".join(map(str, b)),
                         "re": float(dm.matrix[i, j].real),
                         "im": float(dm.matrix[i, j].imag)})
    return rows


def _reference_data(rows: list[dict], fmt: str) -> str:
    """Each cell typed on its own, numbers through `fmt17`; JSON one row a line."""
    cols = list(rows[0])
    if fmt == "json":
        return "[\n" + ",\n".join(json.dumps({
            k: r[k] if isinstance(r[k], str) else float(fmt17(r[k])) for k in cols})
            for r in rows) + "\n]\n"
    lines = [",".join(cols)]
    lines += [",".join(r[k] if isinstance(r[k], str) else fmt17(r[k]) for k in cols)
              for r in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["run", "fuksa_family.json"], ["run", "family_4_qubits"],
    ["run", "borsten_qubit.json"], ["sweep", "tripartite_orders.json"],
    ["sweep", "sorkin_qubit_baby.json", "--param", "lam", "--grid", "0:1:5"],
    ["run", "unrecorded_sweep"]],
    ids=["fuksa_family", "family_4_qubits", "borsten_qubit", "tripartite_orders",
         "sorkin_grid", "one_column"])
def test_data_files_match_per_entry_reference(tmp_path, capsys, monkeypatch, argv, fmt):
    if argv[1] == "family_4_qubits":
        path = write_doc(tmp_path, family_document(np.random.default_rng(5)),
                         "family_4_qubits.json")
    elif argv[1] == "unrecorded_sweep":  # nothing recorded: the grid is the only column
        path = write_doc(tmp_path, {
            "geometry": {"preset": "fig2"}, "space": {"qubits": ["A"], "state": [1, 0]},
            "operations": [{"kind": "kick_generator", "region": "O1", "param": "g",
                            "operator": {"pauli": "X", "factor": "A"}}],
            "sweep": {"param": "g", "grid": [0.0, 0.1, 2.5]}}, "unrecorded_sweep.json")
    else:
        path = PRESETS / argv[1]
    tables = []
    write = cli_module._write_rows
    monkeypatch.setattr(cli_module, "_write_rows",
                        lambda rep, *a: tables.append(rep.rows) or write(rep, *a))
    rc, _, _ = cli(capsys, argv[0], path, *argv[2:], "--format", fmt,
                   "--out", tmp_path / "out")
    assert rc == 0
    (rows,) = tables
    if "family" in load_document(path):
        fam, rho = build_family(load_document(path))
        assert rows == _reference_family_rows(decoherence(fam, rho))
    data = tmp_path / "out" / f"{path.stem}.data.{fmt}"
    assert data.read_text() == _reference_data(rows, fmt)


@pytest.mark.parametrize("argv", [["run", "fuksa_family.json"],
                                  ["sweep", "tripartite_orders.json"]],
                         ids=["fuksa_family", "tripartite_orders"])
def test_json_data_parses_to_the_indented_rows(tmp_path, capsys, monkeypatch, argv):
    # one C-encoded row a line reads back as the json.dumps(indent=2) document
    tables = []
    write = cli_module._write_rows
    monkeypatch.setattr(cli_module, "_write_rows",
                        lambda rep, *a: tables.append(rep.rows) or write(rep, *a))
    rc, _, _ = cli(capsys, argv[0], PRESETS / argv[1], "--format", "json",
                   "--out", tmp_path)
    assert rc == 0
    (rows,) = tables
    indented = json.dumps([{k: v if isinstance(v, str) else float(v) for k, v in r.items()}
                           for r in rows], indent=2)
    text = (tmp_path / f"{Path(argv[1]).stem}.data.json").read_text()
    assert json.loads(text) == json.loads(indented)
    assert len(text.splitlines()) == len(rows) + 2


# determinism, round trip, tolerance plumbing

def test_fixed_seed_reproduces_fv_residuals(tmp_path, capsys):
    doc = {"fv_preset": {"name": "bostelmann", "valid": True}}
    path = write_doc(tmp_path, doc)
    reps = []
    for sub in ("a", "b"):
        rc, _, _ = cli(capsys, "run", path, "--out", tmp_path / sub,
                       "--seed", "3")
        assert rc == 0
        reps.append(read_report(tmp_path / sub, "doc"))
    assert reps[0]["residuals"] == reps[1]["residuals"]
    rc, _, _ = cli(capsys, "run", path, "--out", tmp_path / "c", "--seed", "4")
    other = read_report(tmp_path / "c", "doc")
    # the Bostelmann residuals are exact zeros for every seed; the corollary-6
    # residual is rounding from seeded states and effects
    residual = "fv.corollary6.residual"
    assert other["residuals"][residual] != reps[0]["residuals"][residual]


def test_round_trip_rerun_identical(tmp_path, capsys):
    for src in sorted(PRESETS.glob("*.json")):
        doc = load_document(src)
        again = tmp_path / f"again_{src.stem}.json"
        dump_document(doc, again)
        assert document_digest(load_document(again)) == document_digest(doc)
        rc1, _, _ = cli(capsys, "run", src, "--out", tmp_path / "orig")
        rc2, _, _ = cli(capsys, "run", again, "--out", tmp_path / "copy")
        assert rc1 == rc2 == 0, src.stem
        r1 = read_report(tmp_path / "orig", src.stem)
        r2 = read_report(tmp_path / "copy", again.stem)
        assert r1["results"] == r2["results"], src.stem
        assert r1["residuals"] == r2["residuals"], src.stem
        assert r1["digest_sha256"] == r2["digest_sha256"], src.stem
        d1 = tmp_path / "orig" / f"{src.stem}.data.csv"
        if d1.exists():
            d2 = tmp_path / "copy" / f"{again.stem}.data.csv"
            assert d1.read_text() == d2.read_text(), src.stem


def test_env_tolerance_override_tightens_check(tmp_path, capsys, monkeypatch):
    tolfile = tmp_path / "tol.json"
    tolfile.write_text(json.dumps({"tol.operator": 1e-20}))
    monkeypatch.setenv("CAUSALQ_TOL_OVERRIDES", str(tolfile))
    rc, out, _ = cli(capsys, "check", PRESETS / "bostelmann.json",
                     "--suite", "fv", "--out", tmp_path)
    assert rc == 1
    # the Bostelmann residual is an exact zero, the corollary-6 one rounding
    assert "[PASS] fv.bostelmann measured=0\n" in out
    assert "[FAIL] fv.corollary6" in out


def test_document_tolerances_beat_env(tmp_path, capsys, monkeypatch):
    tolfile = tmp_path / "tol.json"
    tolfile.write_text(json.dumps({"tol.operator": 1e-20}))
    monkeypatch.setenv("CAUSALQ_TOL_OVERRIDES", str(tolfile))
    doc = {"fv_preset": {"name": "bostelmann", "valid": True, "seed": 5},
           "tolerances": {"tol.operator": 1e-1}}
    rc, _, _ = cli(capsys, "check", write_doc(tmp_path, doc),
                   "--suite", "fv", "--out", tmp_path)
    assert rc == 0


def test_document_tolerances_reach_fv_validation(tmp_path, capsys):
    doc = load_document(PRESETS / "bostelmann.json")
    doc["tolerances"] = {"tol.unitary": 1e-30}
    rc, _, err = cli(capsys, "check", write_doc(tmp_path, doc),
                     "--suite", "fv", "--out", tmp_path)
    assert rc == 3
    assert "not unitary" in err


def test_select_with_non_projector_fails(tmp_path, capsys):
    doc = {"geometry": {"preset": "fig2"},
           "space": {"qubits": ["A", "B"], "state": [0.8, 0, 0.6, 0]},
           "operations": [
               {"kind": "select", "region": "O2", "name": "p",
                "operator": {"pauli": "Z", "factor": "A"}},
               {"kind": "observe", "region": "O3", "name": "C",
                "operator": {"pauli": "Z", "factor": "A"}}]}
    rc, _, err = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 3
    assert "not a projector" in err


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(causalq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import causalq.cli, sys; assert 'scipy' not in sys.modules; "
            "assert 'jsonschema' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


# the commands CI runs with numpy as the only dependency, with their exit
# codes; "run" is borsten_qubit
NUMPY_ONLY_COMMANDS = {
    "run": (["run", "borsten_qubit.json"], 0),
    "run_sorkin_qubit_baby": (["run", "sorkin_qubit_baby.json"], 0),
    "run_fuksa_family": (["run", "fuksa_family.json"], 0),
    "run_bostelmann": (["run", "bostelmann.json"], 0),
    "run_detector_pair": (["run", "detector_pair.json"], 0),
    "run_tripartite_orders": (["run", "tripartite_orders.json"], 0),
    "sweep_tripartite_orders": (["sweep", "tripartite_orders.json"], 0),
    "check_borsten": (["check", "borsten_qubit.json", "--suite", "borsten"], 1),
    "check_fuksa": (["check", "fuksa_family.json", "--suite", "fuksa"], 0),
    "check_detector_pair": (["check", "detector_pair.json", "--suite", "detector"], 0),
    "check_bostelmann": (["check", "bostelmann.json", "--suite", "fv"], 0),
}


@pytest.mark.parametrize("argv, want", NUMPY_ONLY_COMMANDS.values(),
                         ids=NUMPY_ONLY_COMMANDS)
def test_cli_runs_with_jsonschema_and_scipy_blocked(tmp_path, argv, want):
    src = str(Path(causalq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [argv[0], str(PRESETS / argv[1]), *argv[2:], "--out", str(tmp_path)]
    code = ("import sys; sys.modules['jsonschema'] = sys.modules['scipy'] = None; "
            f"from causalq import cli; sys.exit(cli.main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == want, proc.stderr


def test_unknown_tolerance_key_exit_2(tmp_path, capsys):
    doc = load_document(PRESETS / "bostelmann.json")
    doc["tolerances"] = {"tol.nope": 1.0}
    rc, _, err = cli(capsys, "check", write_doc(tmp_path, doc),
                     "--suite", "fv", "--out", tmp_path)
    assert rc == 2
    # the schema lists the tolerance keys, so the document is refused at load
    assert err == ("input error: tolerances: Additional properties are not allowed "
                   "('tol.nope' was unexpected)\n")


def test_run_tripartite_reports_skipped_sweep(tmp_path, capsys):
    rc, out, _ = cli(capsys, "run", PRESETS / "tripartite_orders.json", "--out", tmp_path)
    assert rc == 0
    assert "[info] sweep.skipped (" in out and "causalq sweep" in out
    rep = read_report(tmp_path, "tripartite_orders")
    assert rep["passed"] is True
    assert [c["name"] for c in rep["checks"]] == ["sweep.skipped"]
    assert rep["checks"][0]["passed"] is None
    assert rep["results"] and all(k.startswith("order") for k in rep["results"])
    assert not list(tmp_path.glob("*.data.*"))


# one routing table for every command and suite

COMMANDS = [["run"], ["check", "--suite", "borsten"], ["check", "--suite", "fuksa"],
            ["check", "--suite", "fv"], ["check", "--suite", "detector"], ["sweep"]]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: "-".join(c[::2]))
@pytest.mark.parametrize("preset", sorted(p.stem for p in PRESETS.glob("*.json")))
def test_every_preset_and_command_is_routed(tmp_path, capsys, preset, command):
    rc, _, err = cli(capsys, command[0], PRESETS / f"{preset}.json", *command[1:],
                     "--out", tmp_path)
    assert rc in (0, 1, 2)
    assert not err.startswith("internal error")


@pytest.mark.parametrize("grid", ["x:1:3", "0:1:-2", "1,,2"])
def test_sweep_malformed_grid_exit_2(tmp_path, capsys, grid):
    rc, _, err = cli(capsys, "sweep", PRESETS / "borsten_qubit.json",
                     "--param", "gamma", "--grid", grid, "--out", tmp_path)
    assert rc == 2
    assert err.startswith("input error:")


@pytest.mark.parametrize("grid, message", [
    ("nan,1", "--grid/0: nan is not a finite double"),
    ("0,-inf", "--grid/1: -inf is not a finite double"),
    ("0:inf:3", "--grid/stop: inf is not a finite double"),
    ("0:1:0", "--grid/count: 0 is less than the minimum of 1"),
], ids=["nan", "minus_inf", "inf_stop", "zero_count"])
def test_sweep_grid_walked_by_the_schema(tmp_path, capsys, grid, message):
    """--grid obeys the rules of a document's sweep grid, with its own path."""
    rc, _, err = cli(capsys, "sweep", PRESETS / "borsten_qubit.json",
                     "--param", "gamma", "--grid", grid, "--out", tmp_path)
    assert rc == 2
    assert err == f"input error: {message}\n"
    assert not list(tmp_path.iterdir())


# json.load reads these as NaN, inf, inf and a 400-digit int
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999", "1" + "0" * 400],
                         ids=["nan", "infinity", "overflow", "overflow_int"])
def test_non_finite_env_tolerance_exit_2(tmp_path, capsys, monkeypatch, literal):
    tolfile = tmp_path / "tol.json"
    tolfile.write_text('{"tol.operator": %s}' % literal)
    monkeypatch.setenv("CAUSALQ_TOL_OVERRIDES", str(tolfile))
    out = tmp_path / "out"
    rc, _, err = cli(capsys, "run", PRESETS / "detector_pair.json", "--out", out)
    assert rc == 2
    assert err == ("input error: bad tolerance overrides: "
                   "tol.operator is not a finite double\n")
    assert not out.exists()


def test_nan_unitary_tolerance_does_not_pass_a_non_unitary_kick(tmp_path, capsys,
                                                                monkeypatch):
    doc = load_document(PRESETS / "borsten_qubit.json")
    doc["operations"].insert(0, {"kind": "kick", "region": "O1",
                                 "operator": {"matrix": (2 * np.eye(4)).tolist()}})
    path = write_doc(tmp_path, doc)
    rc, _, err = cli(capsys, "run", path, "--out", tmp_path / "default")
    assert rc == 3 and "kick operator is not unitary" in err
    tolfile = tmp_path / "tol.json"
    tolfile.write_text('{"tol.unitary": NaN}')
    monkeypatch.setenv("CAUSALQ_TOL_OVERRIDES", str(tolfile))
    rc, _, err = cli(capsys, "run", path, "--out", tmp_path / "nan")
    assert rc == 2
    assert "tol.unitary is not a finite double" in err


def test_check_detector_refuses_tripartite_before_building(tmp_path, capsys,
                                                            monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("order table computed for a refused document")
    monkeypatch.setattr("causalq.cli.tripartite_order_count", boom)
    rc, _, err = cli(capsys, "check", PRESETS / "tripartite_orders.json",
                     "--suite", "detector", "--out", tmp_path)
    assert rc == 2
    assert "detectors pair" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_refused_at_parse_time(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(PRESETS / "borsten_qubit.json"), "--threads", threads,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "borsten_qubit.report.json").exists()


def test_check_has_no_format_option(tmp_path, capsys):
    # no check suite writes a data file, so `check` does not take --format
    with pytest.raises(SystemExit) as exc:
        main(["check", str(PRESETS / "fuksa_family.json"), "--suite", "fuksa",
              "--format", "json", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("overrides", [[{"tol.trace": 1e-3}], {"tol.trace": None},
                                       {"tol.trace": True}],
                         ids=["list", "null", "bool"])
def test_malformed_env_tolerances_exit_2(tmp_path, capsys, monkeypatch, overrides):
    tolfile = tmp_path / "tol.json"
    tolfile.write_text(json.dumps(overrides))
    monkeypatch.setenv("CAUSALQ_TOL_OVERRIDES", str(tolfile))
    rc, _, err = cli(capsys, "run", PRESETS / "fuksa_family.json", "--out", tmp_path)
    assert rc == 2
    assert err.startswith("input error: bad tolerance overrides:")
