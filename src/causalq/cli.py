"""Batch front door: parse scenario files, run checks and sweeps, write reports.

Exit codes: 0 all checks pass, 1 a checker reports failure, 2 the input file
is malformed or inconsistent, 3 an internal or execution error.  Reports are
JSON; tabular data goes to a side file in CSV (default) or JSON with every
number carrying 17 significant digits.  `CAUSALQ_TOL_OVERRIDES` may name a
tolerance file applied below any per-document overrides.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .causal import spacelike
from .config import Tolerances, with_overrides
from .detectors import signal_noise_split, trace_norm, tripartite_order_count
from .errors import (CausalqError, ParseError, UnknownParameter,
                     UnknownPreset, ValidationError)
from .fv import (bostelmann_check, bostelmann_preset, cnot_preset,
                 corollary6_check, induced_observable, scattering_map)
from .histories import decoherence, fuksa_bipartite, fuksa_tripartite
from .qops import PAULI, opnorm, sigma_x
from .random_ops import random_density, random_effect
from .scenarios import _worst_commutator, pauli_strings
from .scenarios import run as run_scenario
from .serial import (GRID, PAYLOADS, build_detector_pair, build_family,
                     build_scenario, build_tripartite, document_digest, fmt17,
                     grid_values, load_document, validate)

# |1><1|, the upper level under `detectors.monopole` (sigma_p raises |0> to |1>),
# not the ground state; the benchmark oracle and the preset tables pin it
_GROUND = np.diag([0.0, 1.0]).astype(complex)


@dataclass
class CheckResult:
    name: str
    passed: bool | None          # None marks informational entries
    measured: float | None = None
    note: str = ""


@dataclass
class RunReport:
    """Deterministic run summary: inputs digest, checks, residuals, timings."""
    command: str
    path: str
    digest: str
    seed: int
    version: str = __version__
    checks: list[CheckResult] = field(default_factory=list)
    residuals: dict[str, float] = field(default_factory=dict)
    results: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    rows: list[dict] | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "input": self.path,
            "digest_sha256": self.digest,
            "seed": self.seed,
            "version": self.version,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "residuals": self.residuals,
            "results": self.results,
            "timings": self.timings,
        }


def _tolerances(doc: dict) -> Tolerances:
    """Defaults, then the `CAUSALQ_TOL_OVERRIDES` file, then the document's section."""
    env = os.environ.get("CAUSALQ_TOL_OVERRIDES")
    try:
        tol = with_overrides(json.loads(Path(env).read_text("utf-8")) if env else None)
    except (OSError, ValueError) as e:  # json.JSONDecodeError is a ValueError
        raise ValidationError(f"bad tolerance overrides: {e}") from e
    return with_overrides(doc.get("tolerances"), tol)  # the schema has checked it


def _write_report(rep: RunReport, out_dir: Path, stem: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.report.json"
    path.write_text(json.dumps(rep.to_dict(), indent=2) + "\n")
    return path


def _write_rows(rep: RunReport, out_dir: Path, stem: str, fmt: str) -> Path | None:
    if not rep.rows:
        return None
    cols = list(rep.rows[0])  # the first row fixes the columns and their formats
    text = [isinstance(rep.rows[0][k], str) for k in cols]
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":  # one row a line, C-encoded; floats keep every bit
        path = out_dir / f"{stem}.data.json"
        rows = (json.dumps({k: r[k] if t else float(r[k]) for k, t in zip(cols, text)})
                for r in rep.rows)
        path.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    else:
        path = out_dir / f"{stem}.data.csv"
        line = ",".join("%s" if t else "%.17g" for t in text) + "\n"
        get = itemgetter(*cols)  # one column: a bare value, which `%` takes too
        body = "".join([line % get(r) for r in rep.rows])
        path.write_text(",".join(cols) + "\n" + body)
    return path


def _payload(doc: dict) -> str:
    """Payload section; detector documents add their entry ("detectors.pair")."""
    for key in PAYLOADS:
        if key in doc:
            return f"detectors.{next(iter(doc[key]))}" if key == "detectors" else key
    raise ValidationError("document has no payload section")


# -- handlers, each called as handler(doc, tol, rep, args) --------------------

def _exec_operations(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    s = build_scenario(doc, tol)
    mode, count = s.order_check
    note = (f"the first {count} class representatives; later classes not run"
            if mode == "partial" else "one linear extension per class of commuting operations")
    rep.checks.append(CheckResult("order_check", None, note=f"{mode}: {note}"))
    # a count among the results, not the residuals, which tolerances bound
    rep.results["order_check.extensions_evaluated"] = count
    if s.sweep is None:
        rep.results.update(run_scenario(s, {}))
        return
    param, grid = s.sweep
    with ThreadPoolExecutor(max_workers=args.threads) as ex:  # rows in grid order
        rep.rows = list(ex.map(lambda v: {param: v, **run_scenario(s, {param: v})}, grid))
    for col in list(rep.rows[0])[1:]:
        vals = [r[col] for r in rep.rows]
        rep.results[f"delta_max.{col}"] = max(abs(v - vals[0]) for v in vals)


def _exec_family(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    fam, rho = build_family(doc, tol)
    dm = decoherence(fam, rho, tol)
    off = dm.matrix - np.diag(np.diag(dm.matrix))
    rep.residuals["histories.consistency.weak"] = float(np.abs(off.real).max())
    rep.residuals["histories.consistency.strong"] = float(np.abs(off).max())
    rep.results["probability_sum"] = float(dm.probabilities.sum())
    labels = [".".join(map(str, a)) for a in dm.alphas]
    rep.rows = [{"alpha": a, "beta": b, "re": x, "im": y}
                for a, xs, ys in zip(labels, dm.matrix.real.tolist(),
                                     dm.matrix.imag.tolist())
                for b, x, y in zip(labels, xs, ys)]


def _gate_counts(rep: RunReport, prefix: str, check) -> None:
    """Gate counts as results: they say whether a zero residual came from
    gates skipped by the cone rule, and are no residuals bounded by tol."""
    for name in ("gates_applied", "gates_skipped", "max_support_dim"):
        rep.results[f"{prefix}.{name}"] = getattr(check, name)


def _exec_fv(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    spec = doc["fv_preset"]
    rng = np.random.default_rng(spec.get("seed", args.seed))
    if spec["name"] == "cnot":
        c, probe = cnot_preset(tol)
        sm = scattering_map(c, probe)
        eps = induced_observable(sm, np.diag([0.0, 1.0]).astype(complex), tol=tol)
        target = np.diag([0.0, 0.0, 1.0, 1.0])
        resid = float(opnorm(eps - target))
        rep.residuals["fv.induced.residual"] = resid
        rep.checks.append(CheckResult("fv.induced", resid <= tol.operator, resid))
        return
    c, p1, p2, o3 = bostelmann_preset(spec.get("valid", True), rng, tol)
    bos = bostelmann_check(c, p1, p2, o3, rng=rng, enforce=False)
    rep.residuals["fv.bostelmann.residual"] = bos.residual
    rep.residuals["fv.bostelmann.state_spread"] = bos.state_spread
    _gate_counts(rep, "fv.bostelmann", bos)
    rep.checks.append(CheckResult("fv.geometry", not bos.failed,
                                  float(len(bos.failed)), "; ".join(bos.failed)))
    rep.checks.append(CheckResult("fv.bostelmann", bos.residual <= tol.operator,
                                  bos.residual))
    d_sys = 2 ** c.n_sites
    cor = corollary6_check(c, random_density(d_sys, rng), p1, p2,
                           random_effect(p1.dim, rng), random_effect(p2.dim, rng),
                           tol)
    rep.residuals["fv.corollary6.residual"] = cor.residual
    rep.residuals["fv.corollary6.factorization"] = cor.factorization
    rep.residuals["fv.corollary6.probability_gap"] = cor.probability_gap
    _gate_counts(rep, "fv.corollary6", cor)
    rep.checks.append(CheckResult("fv.corollary6", cor.residual <= tol.operator,
                                  cor.residual))


def _exec_pair(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    f, a, b = build_detector_pair(doc)
    # coherent sender state; a diagonal rho_A has zero monopole mean and
    # would null the cross term even for causally connected pairs
    plus = np.full((2, 2), 0.5, dtype=complex)
    ps = signal_noise_split(a, b, f, plus, _GROUND, tol=tol)
    resid = trace_norm(ps.signal)
    geo = "spacelike" if spacelike(a.region(f), b.region(f)) else "causally connected"
    rep.residuals["detector.signal_trace_norm"] = resid
    rep.checks.append(CheckResult("detector.no_signalling",
                                  resid <= tol.operator, resid,
                                  f"coupling regions {geo}"))


def _orders(kick_fn, bridge, receiver, fb, max_order, tol) -> dict[str, float]:
    orders = tripartite_order_count(kick_fn, bridge, receiver, fb, sigma_x,
                                    None if bridge is None else _GROUND,
                                    _GROUND, max_order, tol=tol)
    return {f"order{k}": float(v) for k, v in sorted(orders.items())}


def _exec_tripartite(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    rep.results.update(_orders(*build_tripartite(doc), tol))
    if "sweep" in doc:
        rep.checks.append(CheckResult(
            "sweep.skipped", None,
            note="run computes the table once; causalq sweep runs the sweep section"))


def _sweep_tripartite(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    param = doc["sweep"]["param"]
    if param != "coupling":
        raise UnknownParameter(f"tripartite sweeps support 'coupling', not {param!r}")
    kick_fn, bridge, receiver, fb, max_order = build_tripartite(doc)
    if bridge is None:
        raise UnknownParameter("no bridge detector whose coupling could be swept")
    grid = grid_values(doc["sweep"])
    # the couplings are formal series variables, so one table serves every row
    table = _orders(kick_fn, bridge, receiver, fb, max_order, tol)
    rep.rows = [{"coupling": v, **table} for v in grid]
    rep.checks.append(CheckResult("sweep.coupling_free", None, note=(
        "couplings are formal series variables; every row has the same table")))


def _check_borsten(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    s = build_scenario(doc, tol)
    kinds = [op.kind for op in s.operations]
    if not {"kick", "measure", "observe"} <= set(kinds):
        raise ValidationError(
            "borsten suite needs kick, measure, and observe operations")
    kick, obs = (s.operations[kinds.index(k)] for k in ("kick", "observe"))
    lab1 = sorted(kick.operator.support or s.space.labels)
    lab3 = sorted(obs.operator.support or s.space.labels)
    alg1 = pauli_strings(s.space, lab1)
    alg3 = pauli_strings(s.space, lab3)
    # the scenario already holds the measurement's eigenprojectors
    worst, witness = _worst_commutator(s.prepared[kinds.index("measure")], alg1, alg3)
    ok = worst < tol.operator
    note = ""
    if witness is not None:
        i1 = next(i for i, o in enumerate(alg1) if o is witness[0])
        i3 = next(i for i, o in enumerate(alg3) if o is witness[1])
        note = (f"witness: measured-average of {_pauli_name(i3, lab3)} "
                f"fails to commute with {_pauli_name(i1, lab1)}")
    rep.residuals["borsten.commutator"] = worst
    rep.checks.append(CheckResult("borsten.condition", ok, worst, note))


def _pauli_name(index: int, labels: list[str]) -> str:
    """`pauli_strings(space, labels)[index]` by name: base-4 digits in `PAULI` order."""
    digits = [tuple(PAULI)[index // 4 ** k % 4] for k in reversed(range(len(labels)))]
    return "".join(digits) + "@" + ",".join(labels)


def _check_fuksa(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    fam, rho = build_family(doc, tol)
    res = fam.resolutions
    if len(res) == 2:
        out = fuksa_bipartite(res[0], res[1], rho, tol)
        shift = max(out.shifts)
        rep.residuals["fuksa.consistency"] = out.consistency
        rep.residuals["fuksa.marginal_shift"] = shift
        rep.checks.append(CheckResult(
            "fuksa.bipartite",
            out.consistency <= tol.operator and shift <= tol.operator,
            out.consistency))
    elif len(res) in (3, 4):
        extra = res[2] if len(res) == 4 else None
        out = fuksa_tripartite(res[0], res[1], res[-1], rho, extra=extra, tol=tol)
        rep.residuals["fuksa.worst_product"] = out.worst
        rep.residuals["fuksa.measurement_shift"] = out.measurement_shift
        rep.checks.append(CheckResult("fuksa.tripartite", out.passed, out.worst))
    else:
        raise ValidationError("fuksa suite needs a 2, 3, or 4 step family")


# -- the one pipeline: load, override, route, execute -------------------------

# report command -> payload -> handler; a payload missing from a route is
# refused before anything is built
_ROUTES = {
    "run": {"operations": _exec_operations, "family": _exec_family,
            "fv_preset": _exec_fv, "detectors.pair": _exec_pair,
            "detectors.tripartite": _exec_tripartite},
    "check:borsten": {"operations": _check_borsten},
    "check:fuksa": {"family": _check_fuksa},
    "check:fv": {"fv_preset": _exec_fv},
    "check:detector": {"detectors.pair": _exec_pair},
    "sweep": {"operations": _exec_operations,
              "detectors.tripartite": _sweep_tripartite},
}
_NEEDS = {"operations": "an operations section", "family": "a family section",
          "fv_preset": "an fv_preset section", "detectors.pair": "a detectors pair entry"}


def _execute(args) -> RunReport:
    doc = load_document(args.file)
    if args.command == "sweep" and args.param is not None:
        doc = {**doc, "sweep": {"param": args.param, "grid": _parse_grid(args.grid)}}
    if args.command == "sweep" and "sweep" not in doc:
        raise ValidationError("no sweep section and no --param given")
    tol = _tolerances(doc)
    command = f"check:{args.suite}" if args.command == "check" else args.command
    rep = RunReport(command, str(args.file), document_digest(doc), args.seed)
    t0 = time.perf_counter()
    kind = _payload(doc)
    handler = _ROUTES[command].get(kind)
    if handler is None and command == "sweep":
        raise UnknownParameter(
            f"{kind.split('.')[0]} documents have no sweep parameters")
    if handler is None:
        (need,) = _ROUTES[command]
        raise ValidationError(f"{args.suite} suite needs {_NEEDS[need]}")
    handler(doc, tol, rep, args)
    rep.timings["execute_s"] = time.perf_counter() - t0
    return rep


def _parse_grid(spec: str | None) -> tuple[float, ...]:
    if not spec:
        raise ValidationError("--param needs a --grid specification")
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            grid = {"start": float(start), "stop": float(stop), "count": int(count)}
        else:
            grid = [float(v) for v in spec.split(",")]
    except ValueError as e:
        raise ValidationError(
            f"--grid {spec!r} is neither start:stop:count nor v1,v2,...") from e
    validate(grid, GRID, ("--grid",))  # the rules a document's sweep grid obeys
    return grid_values({"grid": grid})


def _thread_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# -- entry point --------------------------------------------------------------

@functools.cache  # parsing leaves the parser as it was, so it is built once
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="causalq",
                                description="no-signalling checks for measurement scenarios")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("run", "check", "sweep"):
        q = sub.add_parser(name)
        q.add_argument("file", type=Path)
        q.add_argument("--out", type=Path, default=Path("."))
        if name != "check":  # no check suite writes a data file
            q.add_argument("--format", choices=("csv", "json"), default="csv")
        q.add_argument("--threads", type=_thread_count, default=os.cpu_count() or 1)
        q.add_argument("--seed", type=int, default=0)
        if name == "check":
            q.add_argument("--suite", required=True,
                           choices=("borsten", "fuksa", "fv", "detector"))
        if name == "sweep":
            q.add_argument("--param")
            q.add_argument("--grid")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rep = _execute(args)
    except (ParseError, ValidationError, UnknownParameter, UnknownPreset,
            FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except CausalqError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    stem = Path(args.file).stem
    report_path = _write_report(rep, args.out, stem)
    data_path = None if args.command == "check" else _write_rows(
        rep, args.out, stem, args.format)
    for c in rep.checks:
        tag = "PASS" if c.passed else ("FAIL" if c.passed is False else "info")
        extra = f" ({c.note})" if c.note else ""
        val = "" if c.measured is None else f" measured={fmt17(c.measured)}"
        print(f"[{tag}] {c.name}{val}{extra}")
    for k, v in rep.residuals.items():
        print(f"{k} = {fmt17(v)}")
    print(f"report: {report_path}")
    if data_path is not None:
        print(f"data: {data_path}")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
