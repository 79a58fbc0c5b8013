"""Scoring verdict streams against annotated activity intervals."""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .verdicts import Verdict


class AnnotationError(ValueError):
    pass


def parse_annotations(text: str) -> dict[str, list[tuple[int, int]]]:
    """Lines ``label,start_round,end_round`` (inclusive bounds).

    Intervals per label are sorted and must not overlap.
    """
    out: dict[str, list[tuple[int, int]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise AnnotationError(f"line {lineno}: expected label,start,end")
        label, start_text, end_text = fields
        try:
            start, end = int(start_text), int(end_text)
        except ValueError:
            raise AnnotationError(f"line {lineno}: non-integer bound") from None
        if end < start:
            raise AnnotationError(f"line {lineno}: end {end} before start {start}")
        out.setdefault(label, []).append((start, end))
    for label, intervals in out.items():
        intervals.sort()
        for (_, e1), (s2, _) in zip(intervals, intervals[1:]):
            if s2 <= e1:
                raise AnnotationError(f"overlapping intervals for {label!r}")
    return out


class Score(NamedTuple):
    tp: int
    fp: int
    interval_rounds: int
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]


def score(
    verdicts: Mapping[int, Verdict], intervals: Sequence[tuple[int, int]]
) -> Score:
    """Per-round counting: TRUE inside an interval is a true positive, TRUE
    outside is a false positive; UNKNOWN never counts as either."""
    inside: set[int] = set()
    for start, end in intervals:
        inside.update(range(start, end + 1))
    tp = sum(
        1 for r, v in verdicts.items() if v is Verdict.TRUE and r in inside
    )
    fp = sum(
        1 for r, v in verdicts.items() if v is Verdict.TRUE and r not in inside
    )
    interval_rounds = len(inside)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / interval_rounds if interval_rounds else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return Score(tp, fp, interval_rounds, precision, recall, f1)
