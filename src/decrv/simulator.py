"""Round-based execution of monitor nodes over a shared logical clock.

Each round: deliver due verdict messages, poll the trace into per-node
memories, then let every node step its encoding, one ``smove`` per
instance.  When a node concludes a final verdict for the round it is
checking, it appends the verdict to its log, notifies dependent monitors,
garbage-collects its memory, and respawns its encoding at the next round;
later instances of the round catch up with the walk concluded before
them (``ehe.Trail``).  A node checks rounds 0, 1, 2... in order, so its
log is a list indexed by round.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor  # unused; benchmarks/test_checks.py deletes it
from typing import NamedTuple, Optional

from . import ehe as ehe_mod
from . import synthesis
from .base import Record, ValidationError
from .ehe import EHE
from .memory import Memory
from .registry import EAGER, WILDCARD, Registry
from .verdicts import Verdict


class SimulationError(ValidationError):
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


class SimulationReport(NamedTuple):
    """Verdict logs and per-round counts of one run."""

    rounds: int
    verdicts: dict[str, list[VerdictRecord]]
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

    def verdicts_csv(self) -> str:
        # one label's lines alive at a time: this file is the largest
        # allocation of a short replay
        chunks = ["round,label,verdict,delay\n"]
        for label in sorted(self.verdicts):
            log = enumerate(self.verdicts[label])
            chunks.append("".join(f"{t},{label},{rec.verdict},{rec.delay}\n" for t, rec in log))
        return "".join(chunks)

    def metrics_csv(self) -> str:
        lines = ["round,msgs,simplifications,max_ehe_nodes"]
        for r in range(self.rounds):
            lines.append(
                f"{r},{self.messages_per_round[r]},"
                f"{self.simplifications_per_round[r]},"
                f"{self.max_ehe_size_per_round[r]}"
            )
        return "\n".join(lines) + "\n"

    def summary_txt(self) -> str:
        n = max(self.rounds, 1)
        finals = sum(rec.verdict.final for log in self.verdicts.values() for rec in log)
        lines = [
            f"rounds {self.rounds}",
            f"monitors {len(self.verdicts)}",
            f"final_verdicts {finals}",
            f"total_messages {self.total_messages}",
            f"msgs_per_round {self.total_messages / n:.4f}",
            f"simplifications_per_round {sum(self.simplifications_per_round) / n:.4f}",
            f"max_ehe_nodes {max(self.max_ehe_size_per_round, default=0)}",
            f"max_ehe_entries {max(self.max_ehe_entries_per_round, default=0)}",
        ]
        return "\n".join(lines) + "\n"

    def timeline_tsv(self) -> str:
        """Per-label inclusive round intervals where the verdict was TRUE."""
        lines = ["label\tstart\tend"]
        for label in sorted(self.verdicts):
            log = self.verdicts[label]
            start: Optional[int] = None
            for t, rec in enumerate(log):
                if rec.verdict is Verdict.TRUE:
                    if start is None:
                        start = t
                elif start is not None:
                    lines.append(f"{label}\t{start}\t{t - 1}")
                    start = None
            if start is not None:
                lines.append(f"{label}\t{start}\t{len(log) - 1}")
        return "\n".join(lines) + "\n"


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
    ) -> None:
        self.label = label
        self.ehe = ehe
        self.own = own
        self.dependents = dependents
        self.expansion = expansion
        self.gc_enabled = gc_enabled
        self.log: list[VerdictRecord] = []
        self.delivered_now: list[int] = []


class SimulationOptions(NamedTuple):
    delivery: DeliveryPolicy = DeliveryPolicy()
    seed: int = 0
    gc_enabled: bool = True
    lazy_enabled: bool = True
    max_states: Optional[int] = None


def run_simulation(
    registry: Registry,
    trace: list[dict[str, bool]],
    options: SimulationOptions = SimulationOptions(),
) -> SimulationReport:
    nodes = _make_nodes(registry, options)
    rng = random.Random(options.seed)
    pending: dict[int, list[Message]] = {}
    order = sorted(nodes)
    n = len(trace)
    messages_per_round = []
    simplifications_per_round = []
    max_size_per_round = []
    max_entries_per_round = []
    memory_per_round = []
    prev_simplifications = 0
    # one shared record per (verdict, delay): the log holds one per round
    records: dict[tuple[Verdict, int], VerdictRecord] = {}

    for r in range(n):
        # 1. deliver verdict messages that are due
        for msg in pending.pop(r, ()):
            node = nodes[msg.receiver]
            node.ehe.memory.store_at(msg.timestamp, msg.sender, msg.verdict)
            node.delivered_now.append(msg.timestamp)

        # 2. poll the trace into per-node memories
        event = trace[r]
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
        log.extend(
            VerdictRecord(Verdict.UNKNOWN, n - 1 - t, truncated=True) for t in range(len(log), n)
        )

    return SimulationReport(
        rounds=n,
        verdicts={label: nodes[label].log for label in order},
        messages_per_round=messages_per_round,
        simplifications_per_round=simplifications_per_round,
        max_ehe_size_per_round=max_size_per_round,
        max_ehe_entries_per_round=max_entries_per_round,
        memory_per_round=memory_per_round,
    )


def _make_nodes(registry: Registry, options: SimulationOptions) -> dict[str, _Node]:
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


def _step_node(
    node: _Node, r: int, records: dict[tuple[Verdict, int], VerdictRecord]
) -> list[Message]:
    out: list[Message] = []
    enc, trail = node.ehe, None  # a trail for instances respawned this round
    while True:
        target = _expansion_target(node, r)
        _, _, verdict = enc.smove(enc.t_last if target is None else target, trail)
        t = len(node.log)
        if not verdict.final or t > r:
            break
        record = records.get((verdict, r - t))
        if record is None:
            record = records[verdict, r - t] = VerdictRecord(verdict, r - t)
        node.log.append(record)
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
