"""Per-layer spans and counts, recorded from outside decrv.

``install()`` replaces public functions of decrv's modules with wrappers
that time each call; nothing under ``src/`` is edited.  A span's time is
the calling thread's CPU time (``time.thread_time``): the CLI steps monitor
nodes on a thread pool, and with the interpreter lock wall-clock spans of
different threads overlap, while per-thread CPU time adds up.  A span's
self time is its own time minus that of the spans it encloses on the same
thread.

Probes that read decrv internals (``expr._interned``, ``EHE.entries``,
``simulator.ThreadPoolExecutor``) report ``None`` when the internal is
gone, so the benchmark keeps running when the program is simplified.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from decrv import cli, ehe, expr, memory, registry, simulator, synthesis, traceio

# (metric prefix, owner, attribute); registry.load times load_registry,
# which every spec loader goes through.
SPANS = (
    ("cli.main", cli, "main"),
    ("registry.load", registry, "load_registry"),
    ("traceio.load_manifest", traceio, "load_manifest"),
    ("traceio.poll_trace", traceio, "poll_trace"),
    ("simulator.run_simulation", simulator, "run_simulation"),
    ("synthesis.synthesize", synthesis, "synthesize"),
    ("synthesis.minimize", synthesis, "minimize"),
    ("synthesis.guard_expr", synthesis, "guard_expr"),
    ("synthesis.guard_templates", synthesis, "guard_templates"),
    ("ehe.smove", ehe.EHE, "smove"),
    ("ehe.resolve", ehe.EHE, "resolve"),
    ("expr.seval", expr, "seval"),
    ("expr.simplify", expr, "simplify"),
    ("expr.substitute_atoms", expr, "substitute_atoms"),
    ("expr.stamp", expr, "stamp"),
    ("memory.store", memory.Memory, "store"),
    ("memory.gc", memory.Memory, "gc"),
)


class _ThreadLog:
    __slots__ = ("stack", "calls", "self_s")

    def __init__(self) -> None:
        self.stack: list[float] = []  # per open span: time of its children
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self.rows_expanded = 0
        self.concrete_rows = 0
        self.rows_visible = True
        self.entries_visible = True
        self.subset_states = 0
        self.monitor_states = 0
        self.pools_created = 0
        self.report = None

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, name: str, owner, attr: str, before=None, after=None) -> None:
        """Time calls of ``owner.attr``.  ``before(args)`` runs ahead of the
        call and ``after(state, result, args)`` behind it; both are left out
        of every span, the enclosing ones included."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self
        clock = time.thread_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            log = tracer._log()
            state = before(args) if before else None
            log.stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = log.stack.pop()
                log.calls[name] += 1
                log.self_s[name] += (t1 - t0) - inner
            if after:
                after(state, result, args)
            if log.stack:
                log.stack[-1] += clock() - t0
            return result

        setattr(owner, attr, span)

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        with self._lock:
            for log in self._logs:
                for k, v in log.calls.items():
                    calls[k] += v
                for k, v in log.self_s.items():
                    self_s[k] += v
        return calls, self_s

    # --- counts taken at the layer boundaries ------------------------------

    def _smove_before(self, args):
        return getattr(args[0], "t_last", None)

    def _smove_after(self, old_last, _result, args) -> None:
        """Count expanded rows, and those whose predecessor row is a single
        state with expression true while every alphabet atom of the
        predecessor round is in memory (rows a concrete step could take)."""
        enc = args[0]
        if old_last is None:
            self.rows_visible = False
            return
        mem = args[3] if len(args) > 3 else None
        entries = getattr(enc, "entries", None)
        if entries is None:
            self.entries_visible = False
        alphabet = enc.monitor.alphabet
        rows = range(old_last + 1, enc.t_last + 1)
        concrete = 0
        if entries is not None and mem is not None:
            for t in rows:
                prev = entries.get(t - 1, {})
                if (
                    len(prev) == 1
                    and next(iter(prev.values())) is expr.BTRUE
                    and all(expr.Atom(t - 1, ap) in mem for ap in alphabet)
                ):
                    concrete += 1
        with self._lock:  # smove runs on the CLI's pool threads
            self.rows_expanded += len(rows)
            self.concrete_rows += concrete

    def _count_subset(self, _state, monitor, _args) -> None:
        self.subset_states += monitor.n_states

    def _count_minimal(self, _state, monitor, _args) -> None:
        self.monitor_states += monitor.n_states

    def _keep_report(self, _state, report, _args) -> None:
        self.report = report


def install() -> Tracer:
    tracer = Tracer()
    hooks = {
        "ehe.smove": (tracer._smove_before, tracer._smove_after),
        "synthesis.synthesize": (None, tracer._count_subset),
        "synthesis.minimize": (None, tracer._count_minimal),
        "simulator.run_simulation": (None, tracer._keep_report),
    }
    for name, owner, attr in SPANS:
        before, after = hooks.get(name, (None, None))
        tracer.wrap(name, owner, attr, before, after)

    pool = getattr(simulator, "ThreadPoolExecutor", None)
    if pool is None:
        tracer.pools_created = None
    else:

        class CountedPool(pool):
            def __init__(self, *args, **kwargs):
                tracer.pools_created += 1
                super().__init__(*args, **kwargs)

        simulator.ThreadPoolExecutor = CountedPool
    return tracer


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced operation (None: probe absent)."""
    calls, self_s = tracer.totals()
    out: dict = {}
    for name, _, _ in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    rows = tracer.rows_expanded if tracer.rows_visible else None
    out["ehe.rows_expanded"] = rows
    out["ehe.concrete_row_share"] = (
        None
        if rows is None or not tracer.entries_visible
        else tracer.concrete_rows / rows if rows else 0.0
    )
    out["synthesis.subset_states"] = tracer.subset_states
    out["synthesis.monitor_states"] = tracer.monitor_states
    out["simulator.pools_created"] = tracer.pools_created
    interned = getattr(expr, "_interned", None)
    out["expr.interned_nodes"] = None if interned is None else len(interned)
    report = tracer.report
    if report is None:
        out.update({
            "ehe.useful_row_ratio": 0.0,
            "ehe.max_nodes": 0,
            "memory.peak_atoms": 0,
            "expr.simplifications": 0,
        })
    else:
        work = len(report.verdicts) * report.rounds
        out["ehe.useful_row_ratio"] = (
            None if rows is None else work / rows if rows else 0.0
        )
        out["ehe.max_nodes"] = max(report.max_ehe_size_per_round, default=0)
        out["memory.peak_atoms"] = report.peak_memory
        out["expr.simplifications"] = sum(report.simplifications_per_round)
    return out
