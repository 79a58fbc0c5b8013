"""Shared generators for the test suite: formulas, traces, scenarios."""

from __future__ import annotations

import importlib.util
import itertools
import os
import random

from decrv import expr, ltl, registry
from decrv.registry import EAGER, WILDCARD
from decrv.simulator import DeliveryPolicy, SimulationOptions


def benchmark_gen(fault_gap_mean=None):
    """A fresh copy of the benchmark's seeded trace generator (standard
    library only), its ``FAULT_GAP_MEAN`` set when one is given; the file
    itself is left as it is."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "gen.py")
    spec = importlib.util.spec_from_file_location("benchmark_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if fault_gap_mean is not None:
        module.FAULT_GAP_MEAN = fault_gap_mean
    return module


def seval(e, memory, stats=None):
    """Reference recipe for narrowing: substitute every atom the memory
    knows, then simplify."""
    return expr.simplify(expr.substitute_atoms(e, lambda a: memory.get_at(a.time, a.name)), stats)


def ap_counts(reg, label: str) -> tuple[int, int]:
    """(decentralized, centralized) proposition counts of a monitor, as the
    paper's table gives them: its own propositions plus the labels it
    names, against the propositions of its inlined formula."""
    return len(reg.refs[label]) + len(reg.own[label]), len(ltl.propositions(reg.inline(label)))


def steady_state_message_rate(reg) -> int:
    """Structural prediction: one message per round per DAG edge whose
    source monitor reaches final verdicts at a steady per-round pace
    (finite horizon after inlining)."""
    return sum(len(deps) for src, deps in reg.dependents.items() if reg.horizon(src) is not None)


def event_mask(m, assignment) -> int:
    """The event of monitor ``m`` for a truth assignment to its alphabet."""
    mask = 0
    for i, name in enumerate(m.alphabet):
        try:
            if assignment[name]:
                mask |= 1 << i
        except KeyError:
            raise ValueError(f"event missing proposition {name!r}") from None
    return mask


def step(m, state: int, event: int) -> int:
    return m.delta[state][event]


def run_monitor(m, events) -> list:
    """The verdict after each assignment of ``events``, from the initial state."""
    state = m.initial
    out = []
    for ev in events:
        state = m.delta[state][event_mask(m, ev)]
        out.append(m.labels[state])
    return out


def qm_primes(events, n: int) -> list[tuple[int, int]]:
    """Reference for ``synthesis._sop_pairs``: Quine-McCluskey merging, as
    SymPy's ``_simplified_pairs`` does it.  Terms that differ in one bit
    merge, level by level; each level's unmerged terms follow those of the
    levels merged from it."""
    full = (1 << n) - 1
    terms = [(ev, 0) for ev in events]
    out: list[tuple[int, int]] = []
    while terms:
        index = {term: i for i, term in enumerate(terms)}
        merged = [False] * len(terms)
        level: dict[tuple[int, int], None] = {}  # insertion-ordered set
        for i in sorted(range(len(terms)), key=lambda i: (terms[i][0].bit_count(), i)):
            v, d = terms[i]
            partners = []
            free = full & ~(v | d)
            while free:
                bit = free & -free
                free ^= bit
                j = index.get((v | bit, d))
                if j is not None:
                    partners.append((j, bit))
            if partners:
                merged[i] = True
                for j, bit in sorted(partners):
                    merged[j] = True
                    level[(v, d | bit)] = None
        out[:0] = [term for term, done in zip(terms, merged) if not done]
        terms = list(level)
    return out


def all_events(props: list[str]) -> list[dict[str, bool]]:
    return [
        dict(zip(props, bits))
        for bits in itertools.product((False, True), repeat=len(props))
    ]


def all_traces(props: list[str], length: int):
    events = all_events(props)
    for combo in itertools.product(events, repeat=length):
        yield list(combo)


def random_trace(rng: random.Random, props: list[str], length: int) -> list[dict[str, bool]]:
    return [{p: rng.random() < 0.5 for p in props} for _ in range(length)]


def random_formula(
    rng: random.Random,
    leaves: list[str],
    depth: int,
    unbounded_budget: int = 1,
) -> ltl.Formula:
    """Random formula over the given leaf names; unbounded operators are
    rationed so inlined formulas stay oracle-tractable."""
    if depth == 0 or rng.random() < 0.25:
        return ltl.Prop(rng.choice(leaves))
    ops = ["not", "and", "or", "implies", "next", "fw", "gw"]
    if unbounded_budget > 0:
        ops += ["until", "globally", "finally"]
    op = rng.choice(ops)
    spent = unbounded_budget - (1 if op in ("until", "globally", "finally") else 0)
    sub = lambda b: random_formula(rng, leaves, depth - 1, b)
    match op:
        case "not":
            return ltl.Not(sub(spent))
        case "and":
            return ltl.And(sub(spent), sub(0 if spent < unbounded_budget else spent))
        case "or":
            return ltl.Or(sub(spent), sub(0 if spent < unbounded_budget else spent))
        case "implies":
            return ltl.Implies(sub(spent), sub(0 if spent < unbounded_budget else spent))
        case "next":
            return ltl.Next(sub(spent))
        case "fw":
            return ltl.FinallyWithin(rng.randint(0, 3), sub(spent))
        case "gw":
            return ltl.GloballyWithin(rng.randint(0, 3), sub(spent))
        case "until":
            return ltl.Until(sub(0), sub(0))
        case "globally":
            return ltl.Globally(sub(0))
        case "finally":
            return ltl.Finally(sub(0))
    raise AssertionError(op)


def random_scenario(rng: random.Random):
    """A small random decentralized spec plus trace and simulator options.

    DAG depth <= 3, <= 6 propositions total, trace length <= 30.  Regenerated
    until every inlined formula is tractable for the brute-force oracle.
    """
    from decrv import oracle

    while True:
        reg = _random_registry(rng)
        if all(
            oracle.elementary_count(reg.inline(label)) <= 13
            for label in reg.monitors
        ):
            break

    props = sorted(ap for c in reg.components.values() for ap in c.aps)
    trace = random_trace(rng, props, rng.randint(3, 30))
    delivery = rng.choice(
        [
            DeliveryPolicy("immediate"),
            DeliveryPolicy("delay", rng.randint(0, 2)),
            DeliveryPolicy("reorder", rng.randint(0, 3)),
        ]
    )
    options = SimulationOptions(
        delivery=delivery,
        seed=rng.randrange(10**6),
        gc_enabled=rng.random() < 0.5,
        lazy_enabled=rng.random() < 0.5,
    )
    return reg, trace, options


def _random_registry(rng: random.Random) -> registry.Registry:
    n_comps = rng.randint(1, 3)
    n_props = rng.randint(n_comps, 6)
    props = [f"p{i}" for i in range(n_props)]
    comp_of = {}
    for i, p in enumerate(props):
        comp_of[p] = i % n_comps if i < n_comps else rng.randrange(n_comps)
    comp_props = {
        c: [p for p in props if comp_of[p] == c] for c in range(n_comps)
    }

    labels: list[str] = []
    decls: list[tuple[str, int, ltl.Formula, object]] = []
    n_level0 = rng.randint(1, 2)
    n_upper = rng.randint(1, 3)
    for i in range(n_level0 + n_upper):
        label = f"m{i}"
        comp = rng.randrange(n_comps)
        if i < n_level0 or not labels:
            leaves = comp_props[comp]
            formula = random_formula(rng, leaves, rng.randint(1, 3))
        else:
            n_refs = rng.randint(1, min(2, len(labels)))
            refs = rng.sample(labels, n_refs)
            leaves = list(refs)
            if rng.random() < 0.4:
                leaves += comp_props[comp]
            formula = random_formula(rng, leaves, rng.randint(1, 2))
            while not (ltl.propositions(formula) & set(refs)):
                formula = random_formula(rng, leaves, rng.randint(1, 2))
        expansion = EAGER
        refs_used = sorted(ltl.propositions(formula) & set(labels))
        if refs_used and not (ltl.propositions(formula) - set(labels)):
            mode = rng.randrange(3)
            if mode == 1:
                expansion = WILDCARD
            elif mode == 2:
                cond = ltl.Prop(refs_used[0])
                for r in refs_used:
                    cond = ltl.Or(cond, ltl.Not(ltl.Prop(r)))
                expansion = cond
        decls.append((label, comp, formula, expansion))
        labels.append(label)

    comps = {
        f"c{c}": registry.ComponentDecl(f"c{c}", frozenset(aps))
        for c, aps in comp_props.items()
    }
    monitors = {
        label: registry.MonitorDecl(label, f"c{comp}", formula, expansion)
        for label, comp, formula, expansion in decls
    }
    return registry._validate(comps, monitors)
