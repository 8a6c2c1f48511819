"""causalq benchmark.

Usage (from the root of a causalq checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* presets_cold     the nine README commands, each a fresh ``python -m causalq.cli``
* operator_docs    seeded operations and family documents through ``cli.main``
* fv_chain         seeded 5-7 site brickwork chains through the fv API
* detector_series  seeded tripartite sweeps and detector pairs through ``cli.main``

One closed-loop client runs each workload with one item in flight and the
program at its defaults (CLI ``--threads`` default, BLAS threads unpinned).
Set-up is timed in five fresh interpreters first.  Every output is checked by
an oracle (``oracles.py``); the last line of stdout is the JSON result.  With
``--trace 1`` each item of one fixed block runs untraced and then traced, and
the per-layer metrics come from the spans of ``spans.py``.  Scratch output lives in
``.perfbench/`` at the checkout root; the per-item sizes and latencies of the
latest run of each workload and seed stay in ``.perfbench/items/``, the spans
of the latest traced run in ``.perfbench/spans/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {  # name -> unit
    "setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
    "item_tail_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s", "cli.import.scipy_linalg_s": "s",
    "serial.load_document.self_s": "s", "serial.build.self_s": "s",
    "cli.main.self_s": "s", "cli.rows_written": "count",
    "scenarios.run.calls": "count", "scenarios.run.self_s": "s",
    "scenarios.borsten_check.self_s": "s",
    "causal.build_order.calls": "count", "causal.linear_extensions.count": "count",
    "qops.spectral_resolution.calls": "count",
    "qops.spectral_resolution.self_s": "s",
    "qops.spectral_resolution.calls_per_measure": "ratio",
    "qops.opnorm.calls": "count", "qops.opnorm.self_s": "s",
    "scipy.expm.calls": "count", "scipy.expm.self_s": "s",
    "histories.decoherence.self_s": "s",
    "histories.class_operator.calls": "count", "histories.class_operator.self_s": "s",
    "fv.scattering_map.calls": "count", "fv.scattering_map.self_s": "s",
    "fv.bostelmann_check.self_s": "s", "fv.corollary6_check.self_s": "s",
    "fv.cell_operator.self_s": "s", "fv.joint_dim": "dim",
    "qops.embed.calls": "count", "qops.embed.self_s": "s",
    "detectors.tripartite_order_count.calls": "count",
    "detectors.tripartite_order_count.self_s": "s",
    "detectors.MatrixPoly.matmul.calls": "count",
    "detectors.MatrixPoly.matmul.self_s": "s",
    "detectors.signal_noise_split.self_s": "s", "detectors.joint_dim": "dim",
    "field.FieldModel.self_s": "s", "field.fock_backend.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


# -- child processes --------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, float, int, str]:
    """Run to completion; returns (exit code, wall s, peak RSS KiB, stdout).

    ``os.wait4`` gives this child's own peak RSS, which ``getrusage`` of all
    children cannot.  Output goes to files so a full pipe cannot stall it.
    """
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, log.with_suffix(".out").read_text()


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", stderr, re.M):
        out.setdefault(m.group(2), int(m.group(1)) * 1e-6)
    return out


def probe(run_dir: Path, k: int) -> dict:
    code, _, _, text = run_child([sys.executable, str(HERE / "probe.py")],
                                 run_dir / f"probe{k}")
    if code != 0:
        raise BenchError(f"set-up probe failed with exit code {code}: "
                         f"{(run_dir / f'probe{k}.err').read_text()[-400:]}")
    info = json.loads(text)
    if not Path(info["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported causalq from {info['module']}, not this checkout")
    return info


# -- presets_cold -----------------------------------------------------------------

def cold_item(item: dict, item_dir: Path, traced: bool, run_id: str) -> dict:
    item_dir.mkdir(parents=True)
    cli = [item["kind"], f"presets/{item['preset']}.json", "--out", str(item_dir / "out")]
    if item["suite"]:
        cli += ["--suite", item["suite"]]
    if traced:
        argv = [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"),
                str(item_dir / "spans.json"), run_id, *cli]
    else:
        argv = [sys.executable, "-m", "causalq.cli", *cli]
    code, wall, rss, _ = run_child(argv, item_dir / "log")
    error = None
    try:
        oracles.check_preset(item["kind"], item["preset"], code, item_dir / "out")
    except (oracles.Mismatch, OSError, KeyError, ValueError) as e:
        error = f"{type(e).__name__}: {e}"
    return {"kind": item["kind"], "size": item["size"], "latency_s": wall,
            "ok": error is None, "error": error, "rss_kb": rss}


def run_cold(seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    if not (ROOT / "presets").is_dir():
        raise BenchError("no presets/ directory in this checkout")
    if trace:
        items = workloads.block("presets_cold", seed, 0)
        run_id = uuid.uuid4().hex
        plain, traced = [], []
        for k, item in enumerate(items):  # alternate, so drift hits both alike
            plain.append(cold_item(item, run_dir / f"u{k}", False, ""))
            traced.append(cold_item(item, run_dir / f"t{k}", True, run_id))
        layers = aggregate_spans([run_dir / f"t{k}" / "spans.json"
                                  for k in range(len(items))], "presets_cold", seed)
        imports = [import_times((run_dir / f"t{k}" / "log.err").read_text())
                   for k in range(len(items))]
        return {"records": plain + traced, "layers": layers, "imports": imports,
                "overhead_s": sum(r["latency_s"] for r in traced)
                - sum(r["latency_s"] for r in plain)}
    records, walls = [], []
    while sum(walls) < seconds:
        index = len(walls)
        block = [cold_item(item, run_dir / f"b{index}i{k}", False, "")
                 for k, item in enumerate(workloads.block("presets_cold", seed, index))]
        records += [{**r, "block": index} for r in block]
        walls.append(sum(r["latency_s"] for r in block))
    return {"records": records, "block_s": walls,
            "peak_kb": max(r["rss_kb"] for r in records)}


# -- warm workloads ---------------------------------------------------------------

def run_warm(workload: str, seed: int, seconds: float, trace: bool,
             run_dir: Path) -> dict:
    argv = [sys.executable, *(["-X", "importtime"] if trace else []),
            str(HERE / "worker.py"), workload, str(seed), str(seconds),
            str(int(trace)), str(run_dir)]
    code, _, rss, _ = run_child(argv, run_dir / "worker")
    if code != 0:
        raise BenchError(f"worker exited with {code}: "
                         f"{(run_dir / 'worker.err').read_text()[-800:]}")
    result = json.loads((run_dir / "worker.json").read_text())
    result["peak_kb"] = rss
    if trace:
        result["layers"] = aggregate_spans([run_dir / "spans.json"], workload, seed)
        result["imports"] = [import_times((run_dir / "worker.err").read_text())]
    return result


# -- metrics ----------------------------------------------------------------------

def aggregate_spans(paths: list[Path], workload: str, seed: int) -> dict:
    """Sum calls, self time and counters over the dumped span files of a run,
    and keep the files in ``.perfbench/spans/``."""
    keep = STATE / "spans" / f"{workload}-s{seed}"
    shutil.rmtree(keep, ignore_errors=True)
    keep.mkdir(parents=True)
    layers = {"calls": {}, "self_s": {}, "counts": {}, "maxima": {}, "distinct": {}}
    for k, path in enumerate(paths):
        rec = json.loads(path.read_text())
        shutil.move(path, keep / f"{k}.json")
        for name, (calls, self_s) in spans.self_times(rec["spans"]).items():
            layers["calls"][name] = layers["calls"].get(name, 0) + calls
            layers["self_s"][name] = layers["self_s"].get(name, 0.0) + self_s
        for kind in ("counts", "distinct"):
            for key, v in rec[kind].items():
                layers[kind][key] = layers[kind].get(key, 0) + v
        for key, v in rec["maxima"].items():
            layers["maxima"][key] = max(layers["maxima"].get(key, v), v)
    return layers


def latency_stats(records: list[dict]) -> tuple[float, float, float, int]:
    """Median, tail value, tail percentile and sample count.

    The tail is the highest percentile with at least ten items beyond it; a
    failed item counts as infinitely slow.
    """
    lat = sorted(r["latency_s"] if r["ok"] else math.inf for r in records)
    n = len(lat)
    rank = max(n - 11, 0)
    return statistics.median(lat), lat[rank], 100.0 * (rank + 1) / n, n


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and the figures behind them.

    Throughput is the median over blocks of correct items per second of block
    wall time: every block holds the same size mix, and the median keeps a
    burst of load from elsewhere on the machine from moving the whole run.
    """
    records, walls = result["records"], result["block_s"]
    good = [0] * len(walls)
    for r in records:
        good[r["block"]] += r["ok"]
    p50, tail, pct, n = latency_stats(records)
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(g / w for g, w in zip(good, walls)),
        "item_p50_s": p50,
        "item_tail_s": tail,
        "peak_rss_mb": result["peak_kb"] / 1024.0,
    }
    detail = {"item_tail_s": {"percentile": round(pct, 2), "samples": n},
              "setup_s": {"samples": [round(s, 4) for s in setup]},
              "failed_frac": sum(not r["ok"] for r in records) / n,
              "timed_s": sum(walls), "blocks": len(walls)}
    return values, detail


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    calls, self_s = layers["calls"], layers["self_s"]
    imports = result["imports"]
    out = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name in layers["counts"]:
            out[name] = layers["counts"][name]
        else:
            out[name] = layers["maxima"].get(name, 0)
    measured = layers["distinct"].get("qops.spectral_resolution.operators", 0)
    out["qops.spectral_resolution.calls_per_measure"] = (
        calls.get("qops.spectral_resolution", 0) / measured if measured else 0.0)
    out["cli.import_s"] = statistics.median(i.get("causalq.cli", 0.0) for i in imports)
    out["cli.import.scipy_linalg_s"] = statistics.median(
        i.get("scipy.linalg", 0.0) for i in imports)
    out["trace.overhead_s"] = result["overhead_s"]
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# -- entry point ------------------------------------------------------------------

def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "causalq" / "cli.py").is_file():
        print(f"error: no causalq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = STATE / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        probes = [probe(run_dir, k) for k in range(1 if args.trace else SETUP_PROBES)]
        env = {**probes[0]["env"], "git_commit": git_commit()}
        if args.workload == "presets_cold":
            result = run_cold(args.seed, args.seconds, bool(args.trace), run_dir)
            setup = [pr["import_s"] for pr in probes]
        else:
            result = run_warm(args.workload, args.seed, args.seconds,
                              bool(args.trace), run_dir)
            setup = [pr["import_s"] for pr in probes] + [result["import_s"]]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = result["records"]
    items_log = STATE / "items" / f"{args.workload}-s{args.seed}-t{args.trace}.jsonl"
    items_log.parent.mkdir(parents=True, exist_ok=True)
    items_log.write_text("".join(json.dumps(r) + "\n" for r in records))
    failed = [r for r in records if not r["ok"]]
    for r in failed[:5]:
        print(f"FAILED {r['kind']} {json.dumps(r['size'])}: {r['error']}")
    print("environment " + json.dumps(env))
    if args.trace:
        values = per_layer(result)
        units = PER_LAYER
    else:
        values, detail = end_to_end(result, setup)
        units = END_TO_END
        print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
