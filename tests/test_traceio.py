"""Sensor logs, polling semantics, manifests, change-rate analysis."""

import bisect
import random

import pytest

from decrv import traceio
from decrv.traceio import (
    BoolKind,
    Periphery,
    PollConfig,
    RateReport,
    SensorDataError,
    SensorLog,
    ThresholdKind,
    parse_log,
    parse_manifest,
    poll_trace,
    rate_analysis,
)

from conftest import benchmark_gen


def _log(*entries):
    return SensorLog(tuple(t for t, _ in entries), tuple(v for _, v in entries))


def _poll(p, t):
    """The periphery's value at time t, from a one-round ``poll_trace``."""
    (event,) = poll_trace([p], PollConfig(t, t + 1, 1))
    return event[p.ap]


def test_parse_log_with_header():
    log = parse_log("timestamp_ms,value\n100,ON\n500,OFF\n")
    assert log.times == (100, 500)
    assert log.values == ("ON", "OFF")


def test_parse_log_without_header():
    log = parse_log("0,OPEN\n250,CLOSED")
    assert log.times == (0, 250)


def test_log_rejects_unordered_times():
    with pytest.raises(SensorDataError):
        _log((100, "ON"), (100, "OFF"))
    with pytest.raises(SensorDataError):
        _log((100, "ON"), (50, "OFF"))


def test_hold_last_value_polling():
    p = Periphery("door", _log((100, "ON"), (500, "OFF")))
    assert _poll(p, 99) is False  # before any entry: default
    assert _poll(p, 100) is True  # boundary: entry at t counts
    assert _poll(p, 499) is True
    assert _poll(p, 500) is False
    assert _poll(p, 10_000) is False


def test_default_true():
    p = Periphery("door", _log((100, "OFF")), default=True)
    assert _poll(p, 0) is True
    assert _poll(p, 100) is False


def test_bool_kind_rejects_unknown_token():
    p = Periphery("door", _log((100, "MAYBE")))
    with pytest.raises(SensorDataError):
        _poll(p, 100)


def test_custom_token_table():
    kind = BoolKind((("1", True), ("0", False)))
    p = Periphery("x", _log((10, "1"), (20, "0")), kind)
    assert _poll(p, 10) is True and _poll(p, 20) is False


def test_threshold_boundary_counts_as_above():
    kind = ThresholdKind(3.0, True)
    p = Periphery("flow", _log((0, "3.0"), (10, "2.9"), (20, "5.2")), kind)
    assert _poll(p, 0) is True
    assert _poll(p, 10) is False
    assert _poll(p, 20) is True
    below = Periphery("flow", _log((0, "3.0")), ThresholdKind(3.0, False))
    assert _poll(below, 0) is False


def test_threshold_rejects_non_numeric():
    # a NaN reading compares false both ways, so a "below" sensor would read true
    for raw in ("ON", "nan", "inf", "-inf"):
        log = SensorLog((0,), (raw,), "flow.csv")
        p = Periphery("flow", log, ThresholdKind(1.0, False))
        with pytest.raises(SensorDataError, match="flow.csv"):
            _poll(p, 0)


def test_poll_config():
    cfg = PollConfig(0, 10, 2)
    assert list(cfg.times()) == [0, 2, 4, 6, 8]
    assert len(cfg.times()) == 5
    with pytest.raises(SensorDataError):
        PollConfig(0, 10, 0)
    with pytest.raises(SensorDataError):
        PollConfig(10, 10, 1)


def test_poll_trace():
    trace = list(
        poll_trace(
            [
                Periphery("a", _log((0, "ON"), (3, "OFF"))),
                Periphery("b", _log((2, "ON"))),
            ],
            PollConfig(0, 5, 1),
        )
    )
    assert trace == [
        {"a": True, "b": False},
        {"a": True, "b": False},
        {"a": True, "b": True},
        {"a": False, "b": True},
        {"a": False, "b": True},
    ]


def test_advancing_poll_trace_once_polls_one_round():
    # an unreadable entry at time 1 surfaces only when round 1 is asked for
    interpreted = []

    class Counted(BoolKind):
        def interpret(self, raw, origin):
            interpreted.append(raw)
            return super().interpret(raw, origin)

    periphery = Periphery("a", _log((0, "ON"), (1, "BAD"), (2, "OFF")), Counted())
    rounds = poll_trace([periphery], PollConfig(0, 3, 1))
    assert next(rounds) == {"a": True}
    assert interpreted == ["ON"]
    with pytest.raises(SensorDataError, match="'BAD'"):
        next(rounds)


def _bisect_poll(p, t):
    """Reference: interpret the latest entry at or before t, found anew."""
    i = bisect.bisect_right(p.source.times, t)
    if i == 0:
        return p.default
    return p.kind.interpret(p.source.values[i - 1], p.source.origin)


def test_poll_trace_matches_polling_each_round():
    # a forward cursor per periphery lands where bisecting each round does
    rng = random.Random(9)
    for _ in range(30):
        peripheries = []
        for ap in "abc":
            times = sorted(rng.sample(range(0, 300), rng.randint(0, 12)))
            values = tuple(rng.choice(("ON", "OFF")) for _ in times)
            log = SensorLog(tuple(times), values)
            peripheries.append(Periphery(ap, log, default=rng.random() < 0.5))
        cfg = PollConfig(rng.randint(-20, 40), 320, rng.randint(1, 30))
        expected = [{p.ap: _bisect_poll(p, t) for p in peripheries} for t in cfg.times()]
        assert list(poll_trace(peripheries, cfg)) == expected


def test_manifest_parsing(tmp_path):
    (tmp_path / "door.csv").write_text("100,OPEN\n500,CLOSED\n")
    (tmp_path / "flow.csv").write_text("0,4.5\n")
    text = """
# house sensors
door, door.csv, bool, default=false
flow, flow.csv, thresh:3.0:above, default=true
"""
    peripheries = parse_manifest(text, base_dir=str(tmp_path))
    assert [p.ap for p in peripheries] == ["door", "flow"]
    assert _poll(peripheries[0], 100) is True
    assert peripheries[1].default is True
    assert _poll(peripheries[1], 0) is True


def test_manifest_custom_bool_tokens(tmp_path):
    (tmp_path / "x.csv").write_text("0,1\n5,0\n")
    peripheries = parse_manifest(
        "x, x.csv, bool:1=true:0=false, default=false", base_dir=str(tmp_path)
    )
    assert _poll(peripheries[0], 0) is True and _poll(peripheries[0], 5) is False


def test_manifest_rejects_a_proposition_mapped_twice(tmp_path):
    (tmp_path / "a.csv").write_text("0,ON\n")
    (tmp_path / "b.csv").write_text("0,OFF\n")
    text = "door, a.csv, bool, default=false\n# again\ndoor, b.csv, bool, default=false\n"
    with pytest.raises(SensorDataError, match="^manifest lines 1 and 3: 'door' mapped twice$"):
        parse_manifest(text, base_dir=str(tmp_path))


@pytest.mark.parametrize(
    "line",
    [
        "a, f.csv, bool",  # missing default
        "a, f.csv, bool, default=yes",
        "a, f.csv, thresh:x:above, default=true",
        "a, f.csv, thresh:nan:above, default=true",
        "a, f.csv, thresh:inf:below, default=true",
        "a, f.csv, thresh:3.0:sideways, default=true",
        "a, f.csv, wat, default=true",
    ],
)
def test_manifest_errors(line, tmp_path):
    (tmp_path / "f.csv").write_text("0,ON\n")
    with pytest.raises(SensorDataError):
        parse_manifest(line, base_dir=str(tmp_path))


@pytest.mark.parametrize(
    ("text", "line"),
    [
        ("0,ON\n1.5,OFF\n", 2),
        ("1.5,OFF\n", 1),
        ("timestamp_ms,value\n0,ON\nlater,OFF\n", 3),
        (",ON\n5,OFF\n", 1),  # an empty first cell is no header
        (" ,ON\n", 1),
        ("timestamp_ms,value\nts,v\n5,ON\n", 2),  # only the first row is a header
        ("\ntimestamp_ms,value\n\nts,v\n", 4),
    ],
)
def test_non_integer_timestamp_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "door.csv"
    path.write_text(text)
    with pytest.raises(SensorDataError, match=f"door.csv:{line}: non-integer timestamp"):
        traceio.load_log(path)


def test_malformed_row_names_file_and_line(tmp_path):
    path = tmp_path / "door.csv"
    path.write_text("timestamp_ms,value\n0,ON\n5\n")
    with pytest.raises(SensorDataError, match="door.csv:3: malformed row"):
        traceio.load_log(path)


@pytest.mark.parametrize(
    ("kind", "values"),
    [("bool", ["ON", "OFF", "MAYBE"]), ("thresh:2:above", ["1", "3", "high"])],
)
def test_manifest_rejects_any_bad_value_at_load(tmp_path, kind, values):
    # the bad value comes last, after every round a short window would poll
    (tmp_path / "s.csv").write_text("".join(f"{t},{v}\n" for t, v in enumerate(values)))
    with pytest.raises(SensorDataError, match="s.csv"):
        parse_manifest(f"s, s.csv, {kind}, default=false", base_dir=str(tmp_path))


def test_changes_includes_first_entry_and_flips_only():
    p = Periphery("x", _log((0, "ON"), (5, "ON"), (9, "OFF"), (12, "OFF"), (20, "ON")))
    assert p.changes() == [0, 9, 20]


def test_rate_analysis_gaps():
    p = Periphery("x", _log((0, "ON"), (1000, "OFF"), (4000, "ON")))
    report = rate_analysis([p])
    row = report.rows[0]
    assert (row.min_gap, row.max_gap, row.skipped) == (1000, 3000, False)
    assert report.min_gap == 1000 and report.max_gap == 3000
    assert report.recommended_interval == 1000


def test_rate_analysis_skips_constant_sensor():
    constant = Periphery("c", _log((0, "ON"), (50, "ON")))
    changing = Periphery("x", _log((0, "ON"), (10, "OFF")))
    report = rate_analysis([constant, changing])
    assert [r.skipped for r in report.rows] == [True, False]
    assert report.min_gap == 10  # constant sensor excluded from aggregate


def test_rate_analysis_all_skipped():
    report = rate_analysis([Periphery("c", _log((0, "ON")))])
    assert report.min_gap is None and report.recommended_interval is None


def test_rate_analysis_filters_by_used_aps():
    a = Periphery("a", _log((0, "ON"), (10, "OFF")))
    b = Periphery("b", _log((0, "ON"), (99, "OFF")))
    report = rate_analysis([a, b], used_aps={"a"})
    assert [r.ap for r in report.rows] == ["a"]
    assert report.max_gap == 10


def test_save_and_load_roundtrip(tmp_path):
    # a change log saved by the benchmark's writer loads back entry for entry
    rounds = [{"door": True}, {"door": True}, {"door": False}]
    benchmark_gen().write_logs(str(tmp_path), rounds, 250)
    back = traceio.load_log(tmp_path / "logs" / "door.csv")
    assert back.times == (0, 500) and back.values == ("ON", "OFF")


def test_logs_from_rounds_roundtrip(tmp_path):
    # the benchmark's CSV logs, read back through the manifest, poll to the
    # rounds they were written from
    rng = random.Random(4)
    rounds = [{"a": rng.random() < 0.5, "b": rng.random() < 0.5} for _ in range(20)]
    manifest = benchmark_gen().write_logs(str(tmp_path), rounds, 10)
    peripheries = traceio.load_manifest(manifest)
    assert list(poll_trace(peripheries, PollConfig(0, 200, 10))) == rounds


def test_polling_at_change_rate_loses_no_change():
    # sampling at the recommended interval observes every value change
    rng = random.Random(17)
    for _ in range(30):
        times = sorted(rng.sample(range(0, 500), rng.randint(2, 8)))
        values = ["ON"]  # first entry differs from the default (false)
        for _t in times[1:]:
            flip = rng.random() < 0.8
            values.append(("OFF" if values[-1] == "ON" else "ON") if flip else values[-1])
        p = Periphery("x", SensorLog(tuple(times), tuple(values)))
        changes = p.changes()
        if len(changes) < 2:
            continue
        interval = min(b - a for a, b in zip(changes, changes[1:]))
        cfg = PollConfig(0, times[-1] + interval + 1, interval)
        sampled = [event["x"] for event in poll_trace([p], cfg)]
        flips = 1 + sum(1 for x, y in zip(sampled, sampled[1:]) if x != y)
        # every change shows up as a flip in the sampled stream
        assert flips >= len(changes)
