"""Round-based execution of monitor nodes over a shared logical clock.

Each round: deliver due verdict messages, poll the trace into per-node
memories, then let every node step its encoding, one ``smove`` per
instance.  When a node concludes a final verdict for the round it is
checking, it appends the verdict to its log, notifies dependent monitors,
garbage-collects its memory, and respawns its encoding at the next round;
later instances of the round catch up with the walk concluded before
them (``ehe.Trail``).  A node checks rounds 0, 1, 2... in order, so its
log is indexed by round; it holds indexes into the run's shared records.
The trace is read one round at a time, so it may be a generator.
"""

from __future__ import annotations

import io
import random
from array import array
from typing import Callable, Iterable, NamedTuple, Optional, TextIO

from . import ehe as ehe_mod
from . import synthesis
from .base import Record, ValidationError
from .ehe import EHE
from .memory import Memory
from .registry import EAGER, WILDCARD, Registry
from .verdicts import Verdict


class SimulationError(ValidationError):
    pass


# not a pool: the replay runs on one thread, and importing
# concurrent.futures would load logging and queue into every replay;
# benchmarks/tracer.py subclasses this name and benchmarks/test_checks.py
# deletes it
class ThreadPoolExecutor:
    pass


class Message(NamedTuple):
    sender: str
    receiver: str
    timestamp: int
    verdict: bool
    send_round: int


class DeliveryPolicy(Record):
    """immediate: next round; delay: fixed extra rounds; reorder: random
    extra delay in [0, delay], drawn from the simulation seed."""

    __slots__ = __match_args__ = ("mode", "delay")

    def __init__(self, mode: str = "immediate", delay: int = 0) -> None:
        if mode not in ("immediate", "delay", "reorder"):
            raise SimulationError(f"unknown delivery mode {mode!r}")
        if delay < 0:
            raise SimulationError("delivery delay must be non-negative")
        super().__init__(mode, delay)

    def delivery_round(self, send_round: int, rng: random.Random) -> int:
        if self.mode == "immediate":
            return send_round + 1
        if self.mode == "delay":
            return send_round + 1 + self.delay
        return send_round + 1 + rng.randint(0, self.delay)


class VerdictRecord(NamedTuple):
    verdict: Verdict
    delay: int
    truncated: bool = False


class _Records:
    """The run's shared records, one per verdict, delay and truncation; a
    log holds indexes into ``table``.  The key is ``(verdict is TRUE,
    delay)``, with None for a truncated UNKNOWN, so no key hashes a Verdict."""

    __slots__ = ("table", "_index")

    def __init__(self) -> None:
        self.table: list[VerdictRecord] = []
        self._index: dict[tuple[Optional[bool], int], int] = {}

    def index(self, verdict: Verdict, delay: int, truncated: bool = False) -> int:
        key = (None if truncated else verdict is Verdict.TRUE, delay)
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.table)
            self.table.append(VerdictRecord(verdict, delay, truncated))
        return i


class VerdictLog:
    """One node's verdicts, ``log[t]`` about round t, read as a sequence of
    records.  It holds an index into ``records``, the run's shared table,
    per round: 2 bytes each until an index reaches 65,536, then 4."""

    __slots__ = ("indexes", "records")

    def __init__(self, records: list[VerdictRecord]) -> None:
        self.indexes = array("H")
        self.records = records

    def append(self, i: int) -> None:
        try:
            self.indexes.append(i)
        except OverflowError:
            self.indexes = array("I", self.indexes)
            self.indexes.append(i)

    def __len__(self) -> int:
        return len(self.indexes)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self.records[i] for i in self.indexes[t]]
        return self.records[self.indexes[t]]

    def __iter__(self):
        return map(self.records.__getitem__, self.indexes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (VerdictLog, list)):
            return NotImplemented
        return list(self) == list(other)


class SimulationReport(NamedTuple):
    """Verdict logs and per-round counts of one run.  Each report has a
    writer to a text file, and a method that returns its text."""

    rounds: int
    verdicts: dict[str, VerdictLog]
    messages_per_round: list[int]
    simplifications_per_round: list[int]
    max_ehe_size_per_round: list[int]
    max_ehe_entries_per_round: list[int]
    memory_per_round: list[int]

    @property
    def total_messages(self) -> int:
        return sum(self.messages_per_round)

    @property
    def peak_memory(self) -> int:
        """Largest total observation-store cardinality across all nodes."""
        return max(self.memory_per_round, default=0)

    def write_verdicts_csv(self, out: TextIO) -> None:
        # one label's lines alive at a time: this file is the largest
        # allocation of a short replay
        out.write("round,label,verdict,delay\n")
        for label in sorted(self.verdicts):
            log = enumerate(self.verdicts[label])
            out.write("".join([f"{t},{label},{rec.verdict},{rec.delay}\n" for t, rec in log]))

    def write_metrics_csv(self, out: TextIO) -> None:
        out.write("round,msgs,simplifications,max_ehe_nodes\n")
        rows = zip(
            self.messages_per_round, self.simplifications_per_round, self.max_ehe_size_per_round
        )
        out.writelines(f"{r},{msgs},{simps},{size}\n" for r, (msgs, simps, size) in enumerate(rows))

    def write_summary_txt(self, out: TextIO) -> None:
        n = max(self.rounds, 1)
        finals = sum(rec.verdict.final for log in self.verdicts.values() for rec in log)
        out.write(
            f"rounds {self.rounds}\n"
            f"monitors {len(self.verdicts)}\n"
            f"final_verdicts {finals}\n"
            f"total_messages {self.total_messages}\n"
            f"msgs_per_round {self.total_messages / n:.4f}\n"
            f"simplifications_per_round {sum(self.simplifications_per_round) / n:.4f}\n"
            f"max_ehe_nodes {max(self.max_ehe_size_per_round, default=0)}\n"
            f"max_ehe_entries {max(self.max_ehe_entries_per_round, default=0)}\n"
        )

    def write_timeline_tsv(self, out: TextIO) -> None:
        """Per-label inclusive round intervals where the verdict was TRUE."""
        out.write("label\tstart\tend\n")
        for label in sorted(self.verdicts):
            log = self.verdicts[label]
            start: Optional[int] = None
            for t, rec in enumerate(log):
                if rec.verdict is Verdict.TRUE:
                    if start is None:
                        start = t
                elif start is not None:
                    out.write(f"{label}\t{start}\t{t - 1}\n")
                    start = None
            if start is not None:
                out.write(f"{label}\t{start}\t{len(log) - 1}\n")

    def verdicts_csv(self) -> str:
        return _text(self.write_verdicts_csv)

    def metrics_csv(self) -> str:
        return _text(self.write_metrics_csv)

    def summary_txt(self) -> str:
        return _text(self.write_summary_txt)

    def timeline_tsv(self) -> str:
        return _text(self.write_timeline_tsv)


def _text(write: Callable[[TextIO], None]) -> str:
    out = io.StringIO()
    write(out)
    return out.getvalue()


class _Node:
    """One monitor for one run: its encoding holds its memory and
    rewrite count, and ``log[t]`` is its verdict about round t, so it
    checks round ``len(log)``."""

    __slots__ = (
        "label",
        "ehe",
        "own",
        "dependents",
        "expansion",
        "gc_enabled",
        "log",
        "delivered_now",
    )

    def __init__(
        self,
        label: str,
        ehe: EHE,
        own: tuple[str, ...],
        dependents: list[str],
        expansion: object,
        gc_enabled: bool,
        log: VerdictLog,
    ) -> None:
        self.label = label
        self.ehe = ehe
        self.own = own
        self.dependents = dependents
        self.expansion = expansion
        self.gc_enabled = gc_enabled
        self.log = log
        self.delivered_now: list[int] = []


class SimulationOptions(NamedTuple):
    delivery: DeliveryPolicy = DeliveryPolicy()
    seed: int = 0
    gc_enabled: bool = True
    lazy_enabled: bool = True
    max_states: Optional[int] = None


def run_simulation(
    registry: Registry,
    trace: Iterable[dict[str, bool]],
    options: SimulationOptions = SimulationOptions(),
) -> SimulationReport:
    """Replay ``trace``, one event per round, read as the replay reaches it."""
    records = _Records()
    nodes = _make_nodes(registry, options, records.table)
    rng = random.Random(options.seed)
    pending: dict[int, list[Message]] = {}
    order = sorted(nodes)
    messages_per_round = []
    simplifications_per_round = []
    max_size_per_round = []
    max_entries_per_round = []
    memory_per_round = []
    prev_simplifications = 0

    n = 0
    for r, event in enumerate(trace):
        n = r + 1
        # 1. deliver verdict messages that are due
        for msg in pending.pop(r, ()):
            node = nodes[msg.receiver]
            node.ehe.memory.store_at(msg.timestamp, msg.sender, msg.verdict)
            node.delivered_now.append(msg.timestamp)

        # 2. poll the trace into per-node memories
        try:
            for label in order:
                node = nodes[label]
                for ap in node.own:
                    node.ehe.memory.store_at(r, ap, event[ap])
        except KeyError:
            raise SimulationError(
                f"no trace source for {ap!r} at round {r} (monitor {label!r})"
            ) from None

        # 3. expand and resolve; conclude/respawn until quiescent
        sent = []
        for label in order:
            sent.extend(_step_node(nodes[label], r, records))

        # 4. queue outgoing messages for later rounds
        for msg in sent:
            due = options.delivery.delivery_round(msg.send_round, rng)
            pending.setdefault(due, []).append(msg)

        total_simp = max_size = max_entries = stored = 0
        for node in nodes.values():
            enc = node.ehe
            total_simp += enc.stats.simplifications
            max_size = max(max_size, enc.total_size)
            max_entries = max(max_entries, enc.n_entries)
            stored += len(enc.memory)
        messages_per_round.append(len(sent))
        simplifications_per_round.append(total_simp - prev_simplifications)
        prev_simplifications = total_simp
        max_size_per_round.append(max_size)
        max_entries_per_round.append(max_entries)
        memory_per_round.append(stored)

    # trace end: unresolved rounds stay UNKNOWN, flagged truncated
    for label in order:
        log = nodes[label].log
        for t in range(len(log), n):
            log.append(records.index(Verdict.UNKNOWN, n - 1 - t, truncated=True))

    return SimulationReport(
        rounds=n,
        verdicts={label: nodes[label].log for label in order},
        messages_per_round=messages_per_round,
        simplifications_per_round=simplifications_per_round,
        max_ehe_size_per_round=max_size_per_round,
        max_ehe_entries_per_round=max_entries_per_round,
        memory_per_round=memory_per_round,
    )


def _make_nodes(
    registry: Registry, options: SimulationOptions, records: list[VerdictRecord]
) -> dict[str, _Node]:
    nodes = {}
    for label, decl in registry.monitors.items():
        expansion = decl.expansion
        if not options.lazy_enabled or registry.own[label] or not registry.refs[label]:
            expansion = EAGER
        nodes[label] = _Node(
            label=label,
            ehe=EHE(synthesis.build(decl.formula, options.max_states), 0, Memory()),
            own=registry.own[label],
            dependents=registry.dependents[label],
            expansion=expansion,
            gc_enabled=options.gc_enabled,
            log=VerdictLog(records),
        )
    return nodes


def _expansion_target(node: _Node, r: int) -> Optional[int]:
    """Round to expand the encoding to this step, or None to hold."""
    if node.expansion == EAGER:
        return r + 1
    if node.expansion == WILDCARD:
        if not node.delivered_now:
            return None
        return max(node.delivered_now) + 1
    t_max = node.ehe.memory.max_time()
    if t_max is None:
        return None
    # matches at t_last itself still matter: concluding round t needs the
    # encoding expanded to t + 1
    hits = ehe_mod.sadvs(node.expansion, node.ehe.memory, node.ehe.t_last - 1, t_max)
    if not hits:
        return None
    return max(hits) + 1


def _step_node(node: _Node, r: int, records: _Records) -> list[Message]:
    out: list[Message] = []
    enc, trail = node.ehe, None  # a trail for instances respawned this round
    while True:
        target = _expansion_target(node, r)
        _, _, verdict = enc.smove(enc.t_last if target is None else target, trail)
        t = len(node.log)
        if not verdict.final or t > r:
            break
        node.log.append(records.index(verdict, r - t))
        for dep in node.dependents:
            out.append(Message(node.label, dep, t, verdict is Verdict.TRUE, r))
        if node.gc_enabled:
            enc.memory.gc(t)
        enc.respawn(t + 1)
        # no round after r is stored: an instance at r + 1 expands nothing
        trail = trail or ehe_mod.Trail()
    node.delivered_now.clear()
    return out


def steady_state_message_rate(registry: Registry) -> int:
    """Structural prediction: one message per round per DAG edge whose
    source monitor reaches final verdicts at a steady per-round pace
    (finite horizon after inlining)."""
    return sum(
        len(deps) for src, deps in registry.dependents.items() if registry.horizon(src) is not None
    )
