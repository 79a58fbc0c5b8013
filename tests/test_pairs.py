"""The verdict rule of tools/pairs.py."""

import importlib.util
import os

import pytest


def _pairs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pairs.py")
    spec = importlib.util.spec_from_file_location("pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


@pytest.mark.parametrize(
    ("change", "better", "bound", "expected"),
    [
        ([p - 1 for p in PARENT], "lower", 0.1, "gain"),
        ([p + 1 for p in PARENT], "higher", 0.1, "gain"),
        # 9 wins of 10 is enough, 8 is not
        ([p - 1 for p in PARENT[:9]] + [11.0], "lower", 0.1, "gain"),
        ([p - 1 for p in PARENT[:8]] + [11.0, 11.0], "lower", 0.2, "within bound"),
        # every pair won, but by less than the parent's interquartile range
        ([p - 0.05 for p in PARENT], "lower", 0.1, "within bound"),
        ([p + 2 for p in PARENT], "lower", 0.1, "worse"),
        ([p - 2 for p in PARENT], "higher", 0.1, "worse"),
        ([p + 0.5 for p in PARENT], "lower", 0.1, "within bound"),
        # the change spreads wider than the bound
        ([5.0, 15.0] * 5, "lower", 0.1, "unresolved"),
    ],
)
def test_verdict(change, better, bound, expected):
    assert _pairs().verdict(PARENT, change, better, bound) == expected


def test_verdict_of_identical_runs_is_within_bound():
    assert _pairs().verdict(PARENT, list(PARENT), "lower", 0.1) == "within bound"
    assert _pairs().verdict([1.0], [1.0], "lower", 0.1) == "within bound"


def test_verdict_of_a_change_that_beats_every_run_is_resolved():
    # both sides spread wider than the bound, and the median gap is less
    # than the parent's interquartile range, but no run of the change is
    # worse than any run of the parent
    wide = [10.0, 20.0] * 5
    assert _pairs().verdict(wide, [9.0, 9.9] * 5, "lower", 0.1) == "within bound"
    assert _pairs().verdict(wide, [20.1, 21.0] * 5, "higher", 0.1) == "within bound"
    assert _pairs().verdict(wide, [9.0, 10.5] * 5, "lower", 0.1) == "unresolved"
