"""In-memory spans around causalq's public functions, for the traced run.

``Tracer.install`` replaces each target with a wrapper: the module attribute,
every alias another ``causalq`` module imported under any name, and class
attributes for methods.  A span is ``(name, start, end, parent)``; spans of
one run share ``run_id`` and are written out only by ``dump``.  Self time is a
span's duration minus the union of its children's intervals.

The CLI evaluates sweep points on a thread pool, so each thread keeps its own
stack; a span opened on an idle pool thread takes the innermost open span of
the installing thread as its parent.

Stdlib only: the orchestrator aggregates dumped spans without numpy.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import sys
import threading
import time
import uuid
from collections import Counter, defaultdict

# (module, attribute or Class.method, span name)
SPAN_TARGETS = (
    ("causalq.cli", "main", "cli.main"),
    ("causalq.serial", "load_document", "serial.load_document"),
    ("causalq.serial", "build_scenario", "serial.build"),
    ("causalq.serial", "build_family", "serial.build"),
    ("causalq.serial", "build_detector_pair", "serial.build"),
    ("causalq.serial", "build_tripartite", "serial.build"),
    ("causalq.scenarios", "run", "scenarios.run"),
    ("causalq.scenarios", "borsten_check", "scenarios.borsten_check"),
    ("causalq.causal", "build_order", "causal.build_order"),
    ("causalq.qops", "spectral_resolution", "qops.spectral_resolution"),
    ("causalq.qops", "opnorm", "qops.opnorm"),
    # every embedding, public or internal, goes through this kernel
    ("causalq.qops", "_embed_matrix", "qops.embed"),
    ("causalq.histories", "decoherence", "histories.decoherence"),
    ("causalq.histories", "class_operator", "histories.class_operator"),
    ("causalq.fv", "scattering_map", "fv.scattering_map"),
    ("causalq.fv", "bostelmann_check", "fv.bostelmann_check"),
    ("causalq.fv", "corollary6_check", "fv.corollary6_check"),
    ("causalq.fv", "cell_operator", "fv.cell_operator"),
    ("causalq.detectors", "tripartite_order_count", "detectors.tripartite_order_count"),
    ("causalq.detectors", "MatrixPoly.__matmul__", "detectors.MatrixPoly.matmul"),
    ("causalq.detectors", "signal_noise_split", "detectors.signal_noise_split"),
    ("causalq.field", "FieldModel.__init__", "field.FieldModel"),
    ("causalq.field", "fock_backend", "field.fock_backend"),
    # only the aliases held by causalq modules; scipy itself is left alone
    ("scipy.linalg", "expm", "scipy.expm"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.distinct: defaultdict = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        try:
            return stack[-1] if stack else self._main_stack[-1]
        except IndexError:
            return -1

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx] = (name, start, end, parent)
        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def note_max(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def note_distinct(self, key: str, value) -> None:
        with self._lock:
            self.distinct[key].add(value)

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, orig, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def _replace_everywhere(self, owner, attr: str, orig, new) -> None:
        if owner.__name__.startswith("causalq"):
            self._replace(owner, attr, orig, new)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("causalq") or mod is owner:
                continue
            for alias, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, alias, orig, new)

    def install(self) -> None:
        import causalq.cli  # noqa: F401  (loads every causalq module)

        for module, path, name in SPAN_TARGETS:
            owner, attr = _resolve(module, path)
            orig = getattr(owner, attr)
            new = self.span(name, orig)
            if isinstance(owner, type):
                self._replace(owner, attr, orig, new)
            else:
                self._replace_everywhere(owner, attr, orig, new)
        self._install_counters()

    def _install_counters(self) -> None:
        from causalq import cli, causal, fv, qops, detectors

        write_rows = cli._write_rows

        def counted_write_rows(rep, *args, **kwargs):
            self.add("cli.rows_written", len(rep.rows or ()))
            return write_rows(rep, *args, **kwargs)
        self._replace(cli, "_write_rows", write_rows, counted_write_rows)

        extensions = causal.CausalOrder.linear_extensions

        def counted_extensions(order, *args, **kwargs):
            for ext in extensions(order, *args, **kwargs):
                self.add("causal.linear_extensions.count")
                yield ext
        self._replace(causal.CausalOrder, "linear_extensions", extensions,
                      counted_extensions)

        # calls per distinct measured operator: 1.0 means each is resolved once
        resolve = qops.spectral_resolution  # already the span wrapper

        def keyed_resolution(a, bins=None, *args, **kwargs):
            key = hashlib.blake2b(a.matrix.tobytes(), digest_size=16).hexdigest()
            self.note_distinct("qops.spectral_resolution.operators",
                               (key, repr(bins)))
            return resolve(a, bins, *args, **kwargs)
        self._replace_everywhere(qops, "spectral_resolution", resolve,
                                 keyed_resolution)

        scatter = fv.scattering_map

        def sized_scatter(*args, **kwargs):
            sm = scatter(*args, **kwargs)
            self.note_max("fv.joint_dim", sm.space.dim)
            return sm
        self._replace_everywhere(fv, "scattering_map", scatter, sized_scatter)

        orders = detectors.tripartite_order_count

        def sized_orders(kick, a, b, fb, *args, **kwargs):
            self.note_max("detectors.joint_dim",
                          fb.space.dim * (2 if a is None else 4))
            return orders(kick, a, b, fb, *args, **kwargs)
        self._replace_everywhere(detectors, "tripartite_order_count", orders,
                                 sized_orders)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        record = {"run_id": self.run_id, "spans": self.spans,
                  "counts": dict(self.counts), "maxima": self.maxima,
                  "distinct": {k: len(v) for k, v in self.distinct.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)`` over one process's spans."""
    children = defaultdict(list)
    for span in spans:
        if span is not None and span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, span in enumerate(spans):
        if span is None:  # still open when the run ended
            continue
        name, start, end, _ = span
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name][0] += 1
        out[name][1] += (end - start) - covered
    return {k: (v[0], v[1]) for k, v in out.items()}
