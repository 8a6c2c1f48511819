"""Command-line front door: parsing, suites, sweeps, reports, exit codes."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalq
from causalq import __version__
from causalq.cli import main
from causalq.errors import ParseError, ValidationError
from causalq.serial import document_digest, dump_document, load_document

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


def test_run_bostelmann_reports_residual_keys(tmp_path, capsys):
    rc, _, _ = cli(capsys, "run", PRESETS / "bostelmann.json",
                   "--out", tmp_path, "--format", "json")
    assert rc == 0
    rep = read_report(tmp_path, "bostelmann")
    assert rep["passed"] is True
    assert rep["residuals"]["fv.bostelmann.residual"] < 1e-10
    assert rep["residuals"]["fv.corollary6.residual"] < 1e-10


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
], ids=["zero_state", "zero_projector", "ragged_matrix", "matrix_2x2",
        "matrix_4x3", "pauli_unknown_factor"])
def test_bad_state_or_operator_exit_2(tmp_path, capsys, state, measured, message):
    doc = load_document(PRESETS / "borsten_qubit.json")
    if state is not None:
        doc["space"]["state"] = state
    if measured is not None:
        doc["operations"][1]["operator"] = measured
    rc, _, err = cli(capsys, "run", write_doc(tmp_path, doc), "--out", tmp_path)
    assert rc == 2
    assert err == f"input error: {message}\n"


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


def test_sweep_threads_agree(tmp_path, capsys):
    for n in (1, 4):
        rc, _, _ = cli(capsys, "sweep", PRESETS / "borsten_qubit.json",
                       "--param", "gamma", "--grid", "0:3.0:7",
                       "--threads", n, "--out", tmp_path / str(n))
        assert rc == 0
    a = (tmp_path / "1" / "borsten_qubit.data.csv").read_text()
    b = (tmp_path / "4" / "borsten_qubit.data.csv").read_text()
    assert a == b


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
    spread = "fv.bostelmann.state_spread"
    assert other["residuals"][spread] != reps[0]["residuals"][spread]


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
    assert "[FAIL] fv.bostelmann" in out


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


@pytest.mark.parametrize("argv", [["run", "borsten_qubit.json"],
                                  ["check", "fuksa_family.json", "--suite", "fuksa"]],
                         ids=["run", "check_fuksa"])
def test_cli_runs_with_jsonschema_and_scipy_blocked(tmp_path, argv):
    src = str(Path(causalq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [argv[0], str(PRESETS / argv[1]), *argv[2:], "--out", str(tmp_path)]
    code = ("import sys; sys.modules['jsonschema'] = sys.modules['scipy'] = None; "
            f"from causalq import cli; sys.exit(cli.main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_tolerance_key_exit_2(tmp_path, capsys):
    doc = load_document(PRESETS / "bostelmann.json")
    doc["tolerances"] = {"tol.nope": 1.0}
    rc, _, err = cli(capsys, "check", write_doc(tmp_path, doc),
                     "--suite", "fv", "--out", tmp_path)
    assert rc == 2
    assert "tolerance" in err
    assert err == "input error: bad tolerance overrides: unknown tolerance key 'tol.nope'\n"


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
