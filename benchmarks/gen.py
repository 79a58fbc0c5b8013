"""Seeded sensor traces and the CSV logs and manifest that carry them.

The generator depends only on the standard library, so a change to decrv
(its trace I/O in particular) cannot change the benchmark's inputs: the
same seed gives byte-identical files.
"""

from __future__ import annotations

import itertools
import math
import os
import random

# Every proposition of the bundled amiqual spec, in a fixed order.
AMIQUAL_PROPS = (
    "s0", "s1", "s2", "s3", "l0", "l1", "l2", "l3",
    "kitchen_presence", "kitchen_sink_cold", "kitchen_sink_hot",
    "kitchen_fridge_door", "kitchen_cupboard_1", "kitchen_cupboard_2",
    "kitchen_cupboard_3", "kitchen_cupboard_4", "kitchen_cupboard_5",
    "kitchen_cooktop", "kitchen_oven", "kitchen_dishwasher",
    "bathroom_sink_cold", "bathroom_sink_hot", "shower_cold", "shower_hot",
    "bedroom_bed_pressure", "bedroom_closet_door", "bedroom_drawer_1",
    "bedroom_drawer_2", "bedroom_light",
    "office_tv_state", "office_deskplug",
    "livingroom_tv_state", "livingroom_couch", "livingroom_table",
    "toilet_water",
)

STICKY_FLIP = 0.02
BUSY_FLIP = 0.2
ROOMS = 4
FAULT_GAP_MEAN = 48


def _flips(rng: random.Random, rounds: int, flip: float) -> list[bool]:
    value = rng.random() < 0.5
    out = []
    for _ in range(rounds):
        out.append(value)
        if rng.random() < flip:
            value = not value
    return out


def _quantiles(n: int, mean: int) -> list[int]:
    """The n quantiles (at (k + 1/2) / n) of the geometric distribution
    with the given mean, at least 2."""
    return [
        max(2, math.ceil(math.log(1 - (k + 0.5) / n) / math.log(1 - 1 / mean)))
        for k in range(n)
    ]


def _fault_gaps(total: int, mean: int) -> list[int]:
    """Geometric quantiles, the largest lengthened to make the sum ``total``."""
    gaps = _quantiles(max(1, round(total / mean)), mean)
    gaps[-1] += total - sum(gaps)
    return gaps


def _periods(rng: random.Random, rounds: int, mean: int) -> list[bool]:
    """Alternating on and off periods from a seeded start value.  Both have
    the same lengths, geometric quantiles in seeded order, so the sensor is
    on for half the rounds whatever the seed."""
    lengths = _quantiles(max(1, round(rounds / (2 * mean))), mean)
    short = rounds - 2 * sum(lengths)
    on, off = lengths + [], lengths + []
    on[-1] += short // 2
    off[-1] += short - short // 2
    rng.shuffle(on)
    rng.shuffle(off)
    value = rng.random() < 0.5
    out: list[bool] = []
    for a, b in zip(on, off):
        first, second = (a, b) if value else (b, a)
        out += [value] * first + [not value] * second
    return out


def busy_trace(seed: int, rounds: int) -> list[dict[str, bool]]:
    """Each sensor starts at a seeded random value and flips with
    probability 0.2 per round."""
    rng = random.Random(f"busy:{seed}")
    cols = {p: _flips(rng, rounds, BUSY_FLIP) for p in AMIQUAL_PROPS}
    return [{p: cols[p][r] for p in AMIQUAL_PROPS} for r in range(rounds)]


def sticky_trace(seed: int, rounds: int) -> list[dict[str, bool]]:
    """Sensors that change about once in 50 rounds (flip probability 0.02),
    except the lamps: lamp i follows switch i one round later, and fails
    (stays off while the switch stays on) at fault rounds.

    With so few changes per trace, independent draws would make a run's
    cost swing by a third from seed to seed: a sensor's on-share sets the
    backlog of bounded monitors such as ``napping`` (G<=25), and
    ``sc_light_i`` can only conclude (FALSE) at a lamp fault, so the gaps
    between faults set its backlog, whose replay cost grows with the
    square of the gap.  So period lengths and fault gaps are the same
    heavy-tailed sets (geometric quantiles) for every seed, and the seed
    draws their order and each sensor's start value.  The last fault falls
    on the last round, so no backlog is cut off by the trace end; the
    backlog that the trace end concludes costs less than one concluded
    mid-trace, so the shortest gap always comes last.  Switch i is on for
    the second half of each gap, up to and including the fault.
    """
    rng = random.Random(f"sticky:{seed}")
    mean = round(1 / STICKY_FLIP)
    cols = {p: _periods(rng, rounds, mean) for p in AMIQUAL_PROPS}
    for i in range(ROOMS):
        gaps = _fault_gaps(rounds - 1, FAULT_GAP_MEAN)
        head = gaps[1:]
        rng.shuffle(head)
        gaps = head + gaps[:1]
        faults = set(itertools.accumulate(gaps))
        s = [False] * rounds
        for v, gap in zip(itertools.accumulate(gaps), gaps):
            s[v - gap // 2 : v + 1] = [True] * (gap // 2 + 1)
        cols[f"s{i}"] = s
        cols[f"l{i}"] = [False] + [s[j - 1] and j not in faults for j in range(1, rounds)]
    return [{p: cols[p][r] for p in AMIQUAL_PROPS} for r in range(rounds)]


def write_logs(directory: str, rounds: list[dict[str, bool]], interval: int) -> str:
    """Write one ``timestamp_ms,value`` change log per proposition (round r
    at time r * interval, first round always logged) and a manifest naming
    them; return the manifest path."""
    logs = os.path.join(directory, "logs")
    os.makedirs(logs, exist_ok=True)
    manifest = []
    for p in sorted(rounds[0]):
        lines = ["timestamp_ms,value"]
        last = None
        for r, event in enumerate(rounds):
            if event[p] != last:
                lines.append(f"{r * interval},{'ON' if event[p] else 'OFF'}")
                last = event[p]
        with open(os.path.join(logs, f"{p}.csv"), "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
        manifest.append(f"{p}, logs/{p}.csv, bool, default=false")
    path = os.path.join(directory, "sensors.manifest")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(manifest) + "\n")
    return path
