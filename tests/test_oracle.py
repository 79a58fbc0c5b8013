"""Brute-force evaluator: hand-checked verdicts and internal consistency."""

import random

import pytest

from decrv import ltl, oracle
from decrv.verdicts import Verdict

from conftest import random_formula, random_trace


def _ev(text, *rounds, t=0):
    trace = [dict(r) for r in rounds]
    return oracle.evaluate3(ltl.parse(text), trace, t)


def test_globally_stays_unknown_on_good_prefix():
    assert _ev("G p", {"p": True}, {"p": True}, {"p": True}) is Verdict.UNKNOWN


def test_globally_falsified():
    assert _ev("G p", {"p": True}, {"p": False}) is Verdict.FALSE


def test_bounded_finally_exhausted():
    assert _ev("F<=2 p", {"p": False}, {"p": False}, {"p": False}) is Verdict.FALSE


def test_bounded_finally_satisfied():
    assert _ev("F<=2 p", {"p": False}, {"p": True}) is Verdict.TRUE


def test_finally_true_once_seen():
    assert _ev("F p", {"p": False}, {"p": True}) is Verdict.TRUE
    assert _ev("F p", {"p": False}, {"p": False}) is Verdict.UNKNOWN


def test_until_cases():
    assert _ev("a U b", {"a": True, "b": False}, {"a": True, "b": True}) is Verdict.TRUE
    assert _ev("a U b", {"a": False, "b": False}) is Verdict.FALSE
    assert _ev("a U b", {"a": True, "b": False}) is Verdict.UNKNOWN


def test_empty_suffix_is_unconstrained():
    assert _ev("G p") is Verdict.UNKNOWN
    assert _ev("F p") is Verdict.UNKNOWN
    assert _ev("true") is Verdict.TRUE
    assert _ev("false") is Verdict.FALSE
    assert _ev("p | !p") is Verdict.TRUE


def test_suffix_offset():
    # at t=1 only the second event matters
    assert _ev("p", {"p": False}, {"p": True}, t=1) is Verdict.TRUE
    assert _ev("G p", {"p": False}, {"p": True}, t=1) is Verdict.UNKNOWN


def test_tautologies_and_contradictions():
    assert _ev("G (p | !p)") is Verdict.TRUE
    assert _ev("F (p & !p)") is Verdict.FALSE
    assert _ev("G F p") is Verdict.UNKNOWN
    assert _ev("F G p") is Verdict.UNKNOWN


def test_unresolved_reference_rejected():
    with pytest.raises(oracle.UnresolvedReferenceError):
        oracle.evaluate3(ltl.parse("m0 & p"), [], labels=["m0"])


def test_final_verdicts_persist_under_extension():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 3))
        trace = random_trace(rng, ["a", "b"], 6)
        verdicts = [
            oracle.evaluate3(f, trace[:k]) for k in range(len(trace) + 1)
        ]
        for earlier, later in zip(verdicts, verdicts[1:]):
            if earlier.final:
                assert later is earlier


def test_next_shift_identity():
    # evaluate3(f, u, t) == evaluate3(X f, u, t-1) for t >= 1
    rng = random.Random(8)
    for _ in range(100):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 3))
        trace = random_trace(rng, ["a", "b"], 5)
        t = rng.randint(1, 4)
        assert oracle.evaluate3(f, trace, t) is oracle.evaluate3(
            ltl.Next(f), trace, t - 1
        )


def test_residual_progression_on_known_events():
    f = ltl.parse("a U b")
    assert oracle.residual(f, [{"a": False, "b": True}]) == oracle.NTRUE
    assert oracle.residual(f, [{"a": False, "b": False}]) == oracle.NFALSE


def test_elementary_count_small_for_simple_formulas():
    assert oracle.elementary_count(ltl.parse("p")) == 1
    assert oracle.elementary_count(ltl.parse("G p")) == 2
    assert oracle.elementary_count(ltl.parse("F<=2 p")) >= 3


def test_sccs_match_synthesis_sccs():
    # the oracle's Kosaraju pass against synthesis's Tarjan pass, so the
    # SCC check runs where networkx is not installed
    from decrv import synthesis

    rng = random.Random(5)
    graphs = [[[(i + 1) % 5000] for i in range(5000)]]  # deeper than recursion
    for _ in range(300):
        n = rng.randint(1, 14)
        density = rng.choice((0.05, 0.2, 0.5))
        graphs.append([[j for j in range(n) if rng.random() < density] for _ in range(n)])
    for succ in graphs:
        ours = [frozenset(c) for c in oracle._sccs(succ)]
        assert sorted(set().union(*ours)) == list(range(len(succ)))  # a partition
        assert len(ours) == len(set(ours))
        theirs = {frozenset(c) for c in synthesis._sccs(dict(enumerate(succ)))}
        assert set(ours) == theirs
