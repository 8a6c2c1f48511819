"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _plain(obj):
    """JSON-comparable form of a generated block (arrays become lists)."""
    if isinstance(obj, np.ndarray):
        return [_plain(x) for x in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = json.dumps(_plain(workloads.block(workload, 7, 1)))
    again = json.dumps(_plain(workloads.block(workload, 7, 1)))
    assert first == again
    if workload != "presets_cold":  # the README commands are fixed inputs
        assert json.dumps(_plain(workloads.block(workload, 8, 1))) != first


def test_every_block_has_the_same_size_mix():
    for workload in workloads.WORKLOADS:
        sizes = [sorted(json.dumps(i["size"], sort_keys=True)
                        for i in workloads.block(workload, seed, 0))
                 for seed in (1, 2)]
        assert sizes[0] == sizes[1]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(format(v, ".17g") if isinstance(v, float)
                                           else str(v) for v in r) for r in rows]
    (path / "doc.data.csv").write_text("\n".join(lines) + "\n")


def _write_report(path: Path, residuals: dict) -> None:
    path.mkdir(parents=True, exist_ok=True)
    (path / "doc.report.json").write_text(json.dumps({"residuals": residuals,
                                                      "results": {}}))


@pytest.mark.parametrize("perturb", [0.0, 1e-8])
def test_operations_oracle_flags_a_perturbed_value(tmp_path, perturb):
    doc = workloads.operations_document(np.random.default_rng(3), 4, 2, 8, 3)
    ref = {"curve": oracles.scenario_reference(doc),
           "borsten": oracles.borsten_reference(doc)}
    grid, values = ref["curve"]
    values = values.copy()
    values[5] += perturb
    _write_csv(tmp_path / "run", ["g", "C"],
               [[float(t), float(c)] for t, c in zip(grid, values)])
    _write_report(tmp_path / "check", {"borsten.commutator": ref["borsten"]})
    want_check = 0 if ref["borsten"] < oracles.TOL_OPERATOR else 1

    def check():
        oracles.check_operations(doc, ref, 0, tmp_path / "run", want_check,
                                 tmp_path / "check")
    if perturb:
        with pytest.raises(oracles.Mismatch):
            check()
    else:
        check()


def test_family_oracle_flags_a_perturbed_value(tmp_path):
    doc = workloads.family_document(np.random.default_rng(4), 3, 3, 2)
    ref = oracles.decoherence_reference(doc)
    rows = [[a, b, v.real, v.imag] for (a, b), v in ref.items()]
    _write_csv(tmp_path, ["alpha", "beta", "re", "im"], rows)
    oracles.check_family(ref, 0, tmp_path)
    rows[3][3] += 1e-9
    _write_csv(tmp_path, ["alpha", "beta", "re", "im"], rows)
    with pytest.raises(oracles.Mismatch):
        oracles.check_family(ref, 0, tmp_path)


def test_preset_oracle_flags_a_perturbed_curve(tmp_path):
    gammas = np.linspace(0, math.pi, 33)
    rows = [[float(g), math.cos(g) ** 2] for g in gammas]
    _write_csv(tmp_path, ["gamma", "C"], rows)
    _write_report(tmp_path, {})
    oracles.check_preset("run", "borsten_qubit", 0, tmp_path)
    rows[7][1] += 1e-11
    _write_csv(tmp_path, ["gamma", "C"], rows)
    with pytest.raises(oracles.Mismatch):
        oracles.check_preset("run", "borsten_qubit", 0, tmp_path)
    with pytest.raises(oracles.Mismatch):
        oracles.check_preset("check", "borsten_qubit", 0, tmp_path)


def test_fv_and_pair_oracles_flag_residuals(tmp_path):
    from causalq.fv import BostelmannReport, Corollary6Report

    good = (BostelmannReport(1e-15, 1e-16, ()), Corollary6Report(1e-15, 1e-15, 1e-16))
    oracles.check_fv(*good)
    with pytest.raises(oracles.Mismatch):
        oracles.check_fv(BostelmannReport(1e-9, 1e-16, ()), good[1])
    _write_report(tmp_path, {"detector.signal_trace_norm": 1e-6})
    with pytest.raises(oracles.Mismatch):
        oracles.check_pair(True, 1, tmp_path)
    oracles.check_pair(False, 1, tmp_path)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_printed_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    records = [{"kind": "k", "size": {}, "latency_s": 0.1 * (i + 1), "ok": True,
                "block": i % 3} for i in range(30)]
    values, _ = run.end_to_end({"records": records, "block_s": [1.0, 1.1, 1.2],
                                "peak_kb": 2048}, [0.5, 0.6, 0.7])
    assert list(values) == [m["name"] for m in bench["end_to_end"]]
    assert {k: run.END_TO_END[k] for k in values} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}

    layers = {"calls": {}, "self_s": {}, "counts": {}, "maxima": {}, "distinct": {}}
    layered = run.per_layer({"layers": layers, "imports": [{}], "overhead_s": 0.1})
    assert list(layered) == [m["name"] for m in bench["per_layer"]]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_items_beyond_it():
    records = [{"latency_s": float(i), "ok": True} for i in range(1, 41)]
    p50, tail, pct, n = run.latency_stats(records)
    assert (p50, tail, pct, n) == (20.5, 30.0, 75.0, 40)
    records[0]["ok"] = False  # a failed item misses every latency bound
    assert run.latency_stats(records)[:2] == (21.5, 31.0)


def test_self_time_subtracts_the_union_of_children():
    spans_ = [("outer", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0),
              ("c", 3.5, 3.6, 2)]
    out = spans.self_times(spans_)
    assert out["outer"][0] == 1 and out["outer"][1] == pytest.approx(5.0)
    assert out["b"][1] == pytest.approx(2.9)


def test_tracer_wraps_aliases_and_restores_them():
    from causalq import cli, qops, scenarios

    orig = qops.opnorm
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert scenarios.opnorm is qops.opnorm is not orig
        assert cli.run_scenario is scenarios.run
        qops.opnorm(np.eye(2))
    finally:
        tracer.uninstall()
    assert scenarios.opnorm is orig and qops.opnorm is orig
    assert [s[0] for s in tracer.spans] == ["qops.opnorm"]
