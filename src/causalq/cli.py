"""Batch front door: parse scenario files, run checks and sweeps, write reports.

Exit codes: 0 all checks pass, 1 a checker reports failure, 2 the input file
is malformed or inconsistent, 3 an internal or execution error.  Reports are
JSON; tabular data goes to a side file in CSV (default) or JSON with every
number carrying 17 significant digits.  `CAUSALQ_TOL_OVERRIDES` may name a
tolerance file applied below any per-document overrides.

numpy, `causal`, `config`, `errors`, `qops`, `scenarios` and `serial` load with
this module; each handler imports its own route (`histories`, `fv`, `detectors`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .causal import spacelike
from .config import Tolerances, with_overrides
from .errors import CausalqError, ParseError, UnknownParameter, ValidationError
from .qops import _embed_matrix, opnorm, sigma_x
from .scenarios import _pauli_name, _pauli_products, _worst_commutator
from .scenarios import run as run_scenario
from .serial import (GRID, PAYLOADS, build_detector_pair, build_family,
                     build_scenario, build_tripartite, document_digest, fmt17,
                     grid_values, load_document, validate)

# Pauli pairs x dim^3 the borsten suite takes on at most: one pair's commutator
# and SVD took 3-4 ns x dim^3 at dim 32 and 1.2 ns at 128, so two minutes at most
_BORSTEN_WORK = 2 ** 36

# |1><1|, the upper level under `detectors.monopole` (sigma_p raises |0> to |1>),
# not the ground state; the benchmark oracle and the preset tables pin it
_GROUND = np.diag([0.0, 1.0]).astype(complex)


@dataclass
class CheckResult:
    name: str
    passed: bool | None          # None marks informational entries
    measured: float | None = None
    note: str = ""


class Table:
    """Data columns by name, all of one length: `len` is the row count."""
    def __init__(self, columns: dict[str, list]):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


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
    rows: Table | None = None

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
    path = out_dir / f"{stem}.report.json"
    path.write_text(json.dumps(rep.to_dict(), indent=2) + "\n")
    return path


def _write_rows(rep: RunReport, out_dir: Path, stem: str, fmt: str) -> Path | None:
    """The data table, all rows from one template in one `%` call.  A column's
    first value fixes its format: a str is text, anything else a number with
    17 significant digits in CSV and in the JSON float form in JSON."""
    if not rep.rows:
        return None
    cols = rep.rows.columns
    text = [isinstance(c[0], str) for c in cols.values()]
    if fmt == "json":  # one row a line, each cell encoded by json beforehand
        path = out_dir / f"{stem}.data.json"
        line = "{%s}" % ", ".join(json.dumps(k).replace("%", "%%") + ": %s" for k in cols)
        sep, head, tail = ",\n", "[\n", "\n]\n"
        values = [list(map({v: json.dumps(v) for v in set(c)}.__getitem__, c)) if t
                  else json.dumps(list(map(float, c)))[1:-1].split(", ")
                  for c, t in zip(cols.values(), text)]
    else:
        path = out_dir / f"{stem}.data.csv"
        line = ",".join("%s" if t else "%.17g" for t in text) + "\n"
        sep, head, tail, values = "", ",".join(cols) + "\n", "", cols.values()
    body = sep.join([line] * len(rep.rows)) % tuple(chain.from_iterable(zip(*values)))
    path.write_text(head + body + tail)
    return path


def _payload(doc: dict) -> str:
    """The payload section, of which the schema requires exactly one; detector
    documents add their entry ("detectors.pair")."""
    key = next(k for k in PAYLOADS if k in doc)
    return f"detectors.{next(iter(doc[key]))}" if key == "detectors" else key


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
    points = [run_scenario(s, {param: v}) for v in grid]
    rep.rows = Table({param: list(grid), **{k: [p[k] for p in points] for k in points[0]}})
    for col, vals in list(rep.rows.columns.items())[1:]:
        rep.results[f"delta_max.{col}"] = max(abs(v - vals[0]) for v in vals)


def _exec_family(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    from .histories import decoherence
    fam, rho = build_family(doc, tol)
    dm = decoherence(fam, rho, tol)
    off = dm.matrix - np.diag(np.diag(dm.matrix))
    rep.residuals["histories.consistency.weak"] = float(np.abs(off.real).max())
    rep.residuals["histories.consistency.strong"] = float(np.abs(off).max())
    rep.results["probability_sum"] = float(dm.probabilities.sum())
    labels = [".".join(map(str, a)) for a in dm.alphas]
    rep.rows = Table({"alpha": [a for a in labels for _ in labels],
                      "beta": labels * len(labels),
                      "re": dm.matrix.real.ravel().tolist(),
                      "im": dm.matrix.imag.ravel().tolist()})


def _gate_counts(rep: RunReport, prefix: str, check) -> None:
    """Gate counts as results: they say whether a zero residual came from
    gates skipped by the cone rule, and are no residuals bounded by tol."""
    for name in ("gates_applied", "gates_skipped", "max_support_dim"):
        rep.results[f"{prefix}.{name}"] = getattr(check, name)


def _exec_fv(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    from .fv import (bostelmann_check, bostelmann_preset, cnot_preset,
                     corollary6_check, induced_observable, scattering_map)
    from .random_ops import random_density, random_effect
    spec = doc["fv_preset"]
    rng = np.random.default_rng(spec.get("seed", args.seed))
    if spec["name"] == "cnot":
        eps = induced_observable(scattering_map(*cnot_preset(tol)),
                                 np.diag([0.0, 1.0]).astype(complex), tol=tol)
        resid = float(opnorm(eps - np.diag([0.0, 0.0, 1.0, 1.0])))
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
    cor = corollary6_check(c, random_density(2 ** c.n_sites, rng), p1, p2,
                           random_effect(p1.dim, rng), random_effect(p2.dim, rng),
                           tol)
    rep.residuals["fv.corollary6.residual"] = cor.residual
    rep.residuals["fv.corollary6.factorization"] = cor.factorization
    rep.residuals["fv.corollary6.probability_gap"] = cor.probability_gap
    _gate_counts(rep, "fv.corollary6", cor)
    rep.checks.append(CheckResult("fv.corollary6", cor.residual <= tol.operator,
                                  cor.residual))


def _exec_pair(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    from .detectors import signal_noise_split, trace_norm
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
    from .detectors import tripartite_order_count
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
    rep.rows = Table({"coupling": list(grid),
                      **{k: [v] * len(grid) for k, v in table.items()}})
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
    for label, dim in s.space.factors:
        if dim != 2 and label in {*lab1, *lab3}:
            raise ValidationError(
                f"borsten suite needs qubit factors; factor {label!r} has dimension {dim}")
    pairs = 4 ** (len(lab1) + len(lab3))
    if pairs * s.space.dim ** 3 > _BORSTEN_WORK:
        raise ValidationError(
            f"borsten suite would compare {pairs} Pauli pairs on dimension "
            f"{s.space.dim}; pairs x dim^3 is over 2^36")
    # the measurement is resolved only past the guard
    projectors = s.prepared[kinds.index("measure")]
    alg1, alg3 = ([_embed_matrix(m, lab, s.space) for m in _pauli_products(len(lab))]
                  for lab in (lab1, lab3))
    worst, witness = _worst_commutator(projectors, alg1, alg3)
    ok = worst < tol.operator
    note = ""
    if witness is not None:
        i1, i3 = witness
        note = (f"witness: measured-average of {_pauli_name(i3, lab3)} "
                f"fails to commute with {_pauli_name(i1, lab1)}")
    rep.residuals["borsten.commutator"] = worst
    rep.checks.append(CheckResult("borsten.condition", ok, worst, note))


def _check_fuksa(doc: dict, tol: Tolerances, rep: RunReport, args) -> None:
    from .histories import fuksa_bipartite, fuksa_tripartite
    fam, rho = build_family(doc, tol)
    res = fam.resolutions
    if len(res) == 2:
        out = fuksa_bipartite(res[0], res[1], rho, tol)
        rep.residuals["fuksa.consistency"] = out.consistency
        rep.residuals["fuksa.marginal_shift"] = shift = max(out.shifts)
        rep.checks.append(CheckResult(
            "fuksa.bipartite", out.consistency <= tol.operator and shift <= tol.operator,
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
        # accepted and ignored: sweep points run in grid order on the calling thread
        q.add_argument("--threads", type=_thread_count, default=1)
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
    except (ParseError, ValidationError, UnknownParameter, FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except CausalqError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    stem = Path(args.file).stem
    args.out.mkdir(parents=True, exist_ok=True)
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
