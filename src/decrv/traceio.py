"""Sensor change logs, polled observation streams, and change-rate analysis.

A sensor log is a list of (timestamp-ms, raw-value) entries.  Polling uses
hold-last-value semantics: the observation at time t is the interpreted
value of the latest entry at or before t, or the periphery's default when
nothing has happened yet.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import os
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .base import Record

DEFAULT_TOKENS = {"ON": True, "OPEN": True, "OFF": False, "CLOSED": False}


class SensorDataError(ValueError):
    pass


class SensorLog(Record):
    __slots__ = __match_args__ = ("times", "values", "origin")

    def __init__(self, times: tuple[int, ...], values: tuple[str, ...], origin: str = "") -> None:
        if len(times) != len(values):
            raise SensorDataError("times and values differ in length")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise SensorDataError(f"timestamps not strictly increasing at {b}")
        super().__init__(times, values, origin)

    def __len__(self) -> int:
        return len(self.times)


def load_log(path) -> SensorLog:
    with open(path, encoding="utf-8") as handle:
        return parse_log(handle.read(), origin=str(path))


def parse_log(text: str, origin: str = "") -> SensorLog:
    """Two-column CSV ``timestamp_ms,value``; a first row whose timestamp is
    not a number is a header and is skipped."""
    times: list[int] = []
    values: list[str] = []
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        if not row:
            continue
        first = row[0].strip()
        try:
            t = int(first)
        except ValueError:
            if times or _is_number(first):
                raise SensorDataError(
                    f"{origin}:{reader.line_num}: non-integer timestamp {first!r}"
                ) from None
            continue  # header
        if len(row) < 2:
            raise SensorDataError(f"{origin}: malformed row {row!r}")
        times.append(t)
        values.append(row[1].strip())
    return SensorLog(tuple(times), tuple(values), origin)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def save_log(path, log: SensorLog) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp_ms", "value"])
        for t, v in zip(log.times, log.values):
            writer.writerow([t, v])


class BoolKind(NamedTuple):
    tokens: tuple[tuple[str, bool], ...] = tuple(DEFAULT_TOKENS.items())

    def interpret(self, raw: str, origin: str) -> bool:
        for token, value in self.tokens:
            if raw == token:
                return value
        raise SensorDataError(f"{origin}: unrecognized token {raw!r}")

    def describe(self) -> str:
        return "bool"


class ThresholdKind(NamedTuple):
    threshold: float
    above_is_true: bool

    def interpret(self, raw: str, origin: str) -> bool:
        try:
            value = float(raw)
        except ValueError:
            raise SensorDataError(f"{origin}: non-numeric value {raw!r}") from None
        if not math.isfinite(value):
            raise SensorDataError(f"{origin}: non-finite value {raw!r}")
        # closed convention: the boundary value counts as "above"
        above = value >= self.threshold
        return above if self.above_is_true else not above

    def describe(self) -> str:
        side = "above" if self.above_is_true else "below"
        return f"thresh:{self.threshold:g}:{side}"


Kind = Union[BoolKind, ThresholdKind]


class Periphery(NamedTuple):
    ap: str
    source: SensorLog
    kind: Kind = BoolKind()
    default: bool = False

    def poll(self, t: int) -> bool:
        """Interpreted value of the latest entry at or before t."""
        i = bisect.bisect_right(self.source.times, t)
        if i == 0:
            return self.default
        return self.kind.interpret(self.source.values[i - 1], self.source.origin)

    def changes(self) -> list[int]:
        """Timestamps where the interpreted value is first set or flips."""
        out: list[int] = []
        last: Optional[bool] = None
        for t, raw in zip(self.source.times, self.source.values):
            value = self.kind.interpret(raw, self.source.origin)
            if last is None or value != last:
                out.append(t)
                last = value
        return out


class PollConfig(Record):
    __slots__ = __match_args__ = ("start", "end", "interval")

    def __init__(self, start: int, end: int, interval: int) -> None:
        if interval <= 0:
            raise SensorDataError(f"interval must be positive, got {interval}")
        if start >= end:
            raise SensorDataError("poll window start must precede end")
        super().__init__(start, end, interval)

    def times(self) -> range:
        return range(self.start, self.end, self.interval)


def poll_trace(peripheries: Sequence[Periphery], config: PollConfig) -> Iterator[dict[str, bool]]:
    """One truth assignment per round, over every periphery's proposition,
    made when the caller asks for the round.  Each periphery keeps a
    forward cursor into its log; when it moves, the latest entry at or
    before the round is interpreted, so each entry once at most."""
    aps = [p.ap for p in peripheries]
    values = [p.default for p in peripheries]
    cursors = [0] * len(peripheries)
    for t in config.times():
        for k, p in enumerate(peripheries):
            times, i = p.source.times, cursors[k]
            if i < len(times) and times[i] <= t:
                i = cursors[k] = bisect.bisect_right(times, t, i)
                values[k] = p.kind.interpret(p.source.values[i - 1], p.source.origin)
        yield dict(zip(aps, values))


# --- periphery manifest ---------------------------------------------------


def parse_manifest(text: str, base_dir: str = ".") -> list[Periphery]:
    """Lines ``<ap>, <file>, bool|thresh:<x>:<above|below>, default=<true|false>``.

    A bool kind may carry a custom token table: ``bool:1=true:0=false``.
    ``#`` starts a comment; file paths are relative to ``base_dir``.
    """
    out: list[Periphery] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise SensorDataError(f"manifest line {lineno}: expected 4 fields")
        ap, filename, kind_text, default_text = fields
        kind = _parse_kind(kind_text, lineno)
        if not default_text.startswith("default="):
            raise SensorDataError(f"manifest line {lineno}: expected default=<bool>")
        default = _parse_bool(default_text[len("default="):], lineno)
        log = load_log(os.path.join(base_dir, filename))
        for value in dict.fromkeys(log.values):  # whatever rounds get polled
            kind.interpret(value, log.origin)
        out.append(Periphery(ap, log, kind, default))
    return out


def load_manifest(path) -> list[Periphery]:
    with open(path, encoding="utf-8") as handle:
        return parse_manifest(handle.read(), base_dir=os.path.dirname(str(path)) or ".")


def _parse_bool(text: str, lineno: int) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise SensorDataError(f"manifest line {lineno}: expected true/false, got {text!r}")


def _parse_kind(text: str, lineno: int) -> Kind:
    parts = text.split(":")
    if parts[0] == "bool":
        if len(parts) == 1:
            return BoolKind()
        tokens = []
        for part in parts[1:]:
            if "=" not in part:
                raise SensorDataError(f"manifest line {lineno}: bad token map {part!r}")
            token, value = part.split("=", 1)
            tokens.append((token, _parse_bool(value, lineno)))
        return BoolKind(tuple(tokens))
    if parts[0] == "thresh" and len(parts) == 3 and parts[2] in ("above", "below"):
        try:
            threshold = float(parts[1])
        except ValueError:
            threshold = math.nan  # reported below, with the non-finite ones
        if not math.isfinite(threshold):
            raise SensorDataError(f"manifest line {lineno}: bad threshold {parts[1]!r}")
        return ThresholdKind(threshold, parts[2] == "above")
    raise SensorDataError(f"manifest line {lineno}: unknown kind {text!r}")


# --- change-rate analysis -------------------------------------------------


class RateRow(NamedTuple):
    ap: str
    kind: str
    origin: str
    min_gap: Optional[int]
    max_gap: Optional[int]
    skipped: bool


class RateReport(NamedTuple):
    rows: tuple[RateRow, ...]
    min_gap: Optional[int]
    max_gap: Optional[int]

    @property
    def recommended_interval(self) -> Optional[int]:
        return self.min_gap


def rate_analysis(
    peripheries: Sequence[Periphery], used_aps: Optional[set[str]] = None
) -> RateReport:
    """Min/max gap between value changes per sensor; sensors that never
    change are skipped and excluded from the aggregate."""
    rows = []
    agg_min: Optional[int] = None
    agg_max: Optional[int] = None
    for p in peripheries:
        if used_aps is not None and p.ap not in used_aps:
            continue
        changes = p.changes()
        if len(changes) < 2:
            rows.append(RateRow(p.ap, p.kind.describe(), p.source.origin, None, None, True))
            continue
        gaps = [b - a for a, b in zip(changes, changes[1:])]
        lo, hi = min(gaps), max(gaps)
        rows.append(RateRow(p.ap, p.kind.describe(), p.source.origin, lo, hi, False))
        agg_min = lo if agg_min is None else min(agg_min, lo)
        agg_max = hi if agg_max is None else max(agg_max, hi)
    return RateReport(tuple(rows), agg_min, agg_max)


# --- synthetic scenario logs ----------------------------------------------


def logs_from_rounds(
    rounds: Sequence[dict[str, bool]],
    config: PollConfig,
    true_token: str = "ON",
    false_token: str = "OFF",
) -> dict[str, SensorLog]:
    """Per-proposition change logs whose polled reconstruction equals the
    given per-round assignments (first round always logged explicitly)."""
    aps = sorted({ap for event in rounds for ap in event})
    times = list(config.times())[: len(rounds)]
    out = {}
    for ap in aps:
        entry_times: list[int] = []
        values: list[str] = []
        last: Optional[bool] = None
        for t, event in zip(times, rounds):
            value = event.get(ap, False)
            if last is None or value != last:
                entry_times.append(t)
                values.append(true_token if value else false_token)
                last = value
        out[ap] = SensorLog(tuple(entry_times), tuple(values), origin=f"<{ap}>")
    return out
