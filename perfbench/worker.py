"""Warm worker: one closed-loop client running a warm workload in-process.

Usage: python perfbench/worker.py WORKLOAD SEED SECONDS TRACE RUN_DIR

Document items go through ``causalq.cli.main`` exactly as the command line
would run them, one item in flight; fv items call ``fv.bostelmann_check`` and
``fv.corollary6_check`` directly.  Items run in whole blocks (one of each size
stratum) until the timed phase has lasted SECONDS; inputs are generated and
outputs checked between blocks, outside the timed phase.

With TRACE=1 the worker instead runs each item of block 0 once untraced and
once traced, and dumps the spans.  It writes ``worker.json`` into RUN_DIR.
"""
import sys
import time

_t0 = time.perf_counter()
import causalq.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from causalq import fv  # noqa: E402
from causalq.causal import cells  # noqa: E402
from causalq.detectors import tripartite_order_count  # noqa: E402
from causalq.qops import sigma_x  # noqa: E402
from causalq.serial import build_tripartite  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GROUND = np.diag([0.0, 1.0]).astype(complex)  # detector ground state, as the CLI
PROBE_READY = np.diag([1.0, 0.0]).astype(complex)


def call_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return causalq.cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            return e.code if isinstance(e.code, int) else 2


def prepare(item: dict, item_dir: Path) -> None:
    """Write the item's document; nothing the program does happens here."""
    item_dir.mkdir(parents=True)
    if "doc" in item:
        item["path"] = item_dir / f"{item['kind']}.json"
        item["path"].write_text(json.dumps(item["doc"]))
    item["dir"] = item_dir


def execute(item: dict) -> dict:
    """Run one item; returns what the oracle needs (exit codes, results)."""
    kind = item["kind"]
    if kind == "fv":
        return {"fv": run_fv(item["chain"])}
    path, out = str(item["path"]), item["dir"]
    command, *options = item["argv"]
    codes = {"run": call_cli([command, path, *options, "--out", str(out / "run")])}
    if kind == "operations":
        codes["check"] = call_cli(["check", path, "--suite", "borsten",
                                   "--out", str(out / "check")])
    return codes


def run_fv(chain: dict):
    n = chain["sites"]
    c = fv.CircuitSpacetime(n, 3, tuple(tuple(layer) for layer in chain["layers"]), 2)
    p1 = fv.ProbeCoupling("P1", 2, PROBE_READY, tuple(chain["probe1"]),
                          cells([cell for cell, _ in chain["probe1"]]))
    p2 = fv.ProbeCoupling("P2", 2, PROBE_READY, tuple(chain["probe2"]),
                          cells([cell for cell, _ in chain["probe2"]]))
    rng = np.random.default_rng(chain["check_seed"])
    bos = fv.bostelmann_check(c, p1, p2, cells([chain["observable"]]), rng=rng)
    cor = fv.corollary6_check(c, chain["omega"], p1, p2, *chain["effects"])
    return bos, cor


def reference(item: dict):
    kind, doc = item["kind"], item.get("doc")
    if kind == "operations":
        return {"curve": oracles.scenario_reference(doc),
                "borsten": oracles.borsten_reference(doc)}
    if kind == "family":
        return oracles.decoherence_reference(doc)
    if kind == "tripartite":
        kick, bridge, receiver, fb, max_order = build_tripartite(doc)
        orders = tripartite_order_count(kick, bridge, receiver, fb, sigma_x,
                                        GROUND, GROUND, max_order)
        return {f"order{k}": float(w) for k, w in sorted(orders.items())}
    return None


def verify(item: dict, outcome: dict, ref) -> None:
    kind, out = item["kind"], item["dir"]
    if kind == "fv":
        oracles.check_fv(*outcome["fv"])
    elif kind == "operations":
        oracles.check_operations(item["doc"], ref, outcome["run"], out / "run",
                                 outcome["check"], out / "check")
    elif kind == "family":
        oracles.check_family(ref, outcome["run"], out / "run")
    elif kind == "tripartite":
        oracles.check_tripartite(item["doc"], ref, outcome["run"], out / "run")
    else:
        oracles.check_pair(item["size"]["spacelike"], outcome["run"], out / "run")


def run_block(items: list[dict], block_dir: Path,
              tracer: spans.Tracer | None = None) -> tuple[list[dict], float]:
    """Time each item of a block back to back, then check every output.

    A tracer is installed around the timed loop only, so oracle work stays
    out of the spans.
    """
    for k, item in enumerate(items):
        prepare(item, block_dir / f"i{k}")
    outcomes, latencies = [], []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            try:
                outcomes.append(execute(item))
            except Exception as e:  # a crash is a failed item, not a dead run
                outcomes.append({"error": f"{type(e).__name__}: {e}"})
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    records = []
    for item, outcome, latency in zip(items, outcomes, latencies):
        error = outcome.get("error")
        if error is None:
            try:
                verify(item, outcome, reference(item))
            except (oracles.Mismatch, OSError, KeyError, ValueError) as e:
                error = f"{type(e).__name__}: {e}"
        records.append({"kind": item["kind"], "size": item["size"],
                        "latency_s": latency, "ok": error is None, "error": error})
    shutil.rmtree(block_dir)
    return records, wall


def warm_up(workload: str, seed: int, run_dir: Path) -> None:
    """One small item per kind, so lazy set-up is not timed."""
    items = workloads.block(workload, seed, workloads.WARMUP_BLOCK)
    cheapest = {}
    for item in sorted(items, key=lambda i: workloads.cost(i["size"])):
        cheapest.setdefault(item["kind"], item)
    run_block(list(cheapest.values()), run_dir / "warmup")


def main() -> None:
    workload, seed, seconds, trace, run_dir = sys.argv[1:6]
    seed, seconds, trace, run_dir = int(seed), float(seconds), int(trace), Path(run_dir)
    result = {"import_s": IMPORT_S, "module": causalq.cli.__file__}
    warm_up(workload, seed, run_dir)
    if trace:
        # each item runs untraced and then traced, so drift hits both alike
        tracer = spans.Tracer()
        records, overhead = [], 0.0
        pairs = zip(workloads.block(workload, seed, 0), workloads.block(workload, seed, 0))
        for k, (plain, traced) in enumerate(pairs):
            plain_records, plain_wall = run_block([plain], run_dir / f"u{k}")
            traced_records, traced_wall = run_block([traced], run_dir / f"t{k}", tracer)
            records += plain_records + traced_records
            overhead += traced_wall - plain_wall
        tracer.dump(run_dir / "spans.json")
        result.update(records=records, overhead_s=overhead)
    else:
        records, walls = [], []
        while sum(walls) < seconds:
            block, wall = run_block(workloads.block(workload, seed, len(walls)),
                                    run_dir / f"b{len(walls)}")
            records += [{**r, "block": len(walls)} for r in block]
            walls.append(wall)
        result.update(records=records, block_s=walls)
    (run_dir / "worker.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
