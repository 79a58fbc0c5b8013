"""Spec registry: grammar, validation errors, hierarchy queries."""

import glob
import hashlib
import os
import random
import re

import pytest

from decrv import ltl, registry
from decrv.registry import (
    EAGER,
    WILDCARD,
    AlphabetError,
    CycleError,
    DuplicateLabelError,
    SpecError,
    UnknownComponentError,
    bundled,
    light_switch_family,
    load_registry,
)

from conftest import _random_registry, ap_counts

PAIR = """
# a switch and a lamp
component sw { s }
component lamp { l }
monitor light @ lamp := l
monitor sc_light @ sw := G(s -> X(light U !s))
"""


def test_parse_pair():
    reg = load_registry(PAIR)
    assert set(reg.components) == {"sw", "lamp"}
    assert set(reg.monitors) == {"light", "sc_light"}
    assert reg.components["sw"].aps == {"s"}
    assert reg.monitors["light"].expansion is EAGER


def test_references_and_own_props():
    reg = load_registry(PAIR)
    assert reg.refs["sc_light"] == {"light"}
    assert reg.own["sc_light"] == ("s",)
    assert reg.refs["light"] == frozenset()
    assert reg.own["light"] == ("l",)


def test_depth_and_edges():
    reg = load_registry(PAIR)
    assert reg.depths["light"] == 0
    assert reg.depths["sc_light"] == 1
    assert reg.dependents == {"light": ["sc_light"], "sc_light": []}


def test_dag_fields_match_their_definitions():
    rng = random.Random(7)
    for _ in range(200):
        reg = _random_registry(rng)
        labels = set(reg.monitors)
        props = {l: ltl.propositions(d.formula) for l, d in reg.monitors.items()}

        def depth(label):
            refs = props[label] & labels
            return 1 + max(map(depth, refs)) if refs else 0

        assert reg.refs == {l: p & labels for l, p in props.items()}
        assert reg.own == {l: tuple(sorted(p - labels)) for l, p in props.items()}
        assert reg.dependents == {l: sorted(m for m in labels if l in props[m]) for l in labels}
        assert reg.depths == {l: depth(l) for l in labels}


def test_inline():
    reg = load_registry(PAIR)
    assert ltl.render(reg.inline("sc_light")) == ltl.render(
        ltl.parse("G(s -> X(l U !s))")
    )
    # memoized: same object on repeat
    assert reg.inline("sc_light") is reg.inline("sc_light")


def test_ap_counts():
    reg = load_registry(PAIR)
    assert ap_counts(reg, "sc_light") == (2, 2)
    assert ap_counts(reg, "light") == (1, 1)


def test_ref_only():
    text = PAIR + "monitor top @ sw := G sc_light\n"
    reg = load_registry(text)
    # the simulator's condition for a lazy (triggered) expansion
    assert reg.refs["top"] and not reg.own["top"]
    assert reg.own["sc_light"] and reg.own["light"]


def test_horizon():
    reg = load_registry(
        """
component c { a, b }
monitor m0 @ c := a & X b
monitor m1 @ c := F<=2 m0
monitor m2 @ c := G m0
"""
    )
    assert reg.horizon("m0") == 1
    assert reg.horizon("m1") == 3
    assert reg.horizon("m2") is None


def test_restrict_keeps_transitive_references():
    text = PAIR + "monitor top @ sw := G sc_light\n"
    reg = load_registry(text)
    sub = reg.restrict(["sc_light"])
    assert set(sub.monitors) == {"light", "sc_light"}
    assert sub.depths["sc_light"] == 1
    with pytest.raises(SpecError):
        reg.restrict(["nope"])


def test_trigger_parsing():
    reg = load_registry(
        """
component ca { a }
component cb { b }
monitor ga @ ca := G !a
monitor gb @ cb := G !b
monitor pair @ ca := ga & gb trigger { F(ga) | F(gb) }
monitor wild @ ca := ga trigger wildcard
"""
    )
    assert reg.monitors["pair"].expansion == ltl.parse("!ga | !gb")
    assert reg.monitors["wild"].expansion is WILDCARD


def test_trigger_conjunction_and_parens():
    reg = load_registry(
        """
component c { a }
monitor m0 @ c := a
monitor m1 @ c := a
monitor m2 @ c := m0 | m1 trigger { (T(m0) & F(m0)) | T(m1) }
"""
    )
    assert reg.monitors["m2"].expansion == ltl.parse("(m0 & !m0) | m1")


@pytest.mark.parametrize(
    "formula, expected",
    [
        ("trigger & a", ltl.And(ltl.Prop("trigger"), ltl.Prop("a"))),
        ("a | trigger | a", ltl.Or(ltl.Or(ltl.Prop("a"), ltl.Prop("trigger")), ltl.Prop("a"))),
    ],
)
def test_a_proposition_named_trigger_is_no_clause(formula, expected):
    # only a trailing ``trigger wildcard`` or ``trigger { ... }`` is a clause
    reg = load_registry(f"component c {{ trigger, a }}\nmonitor m @ c := {formula}")
    assert reg.monitors["m"].formula == expected
    assert reg.monitors["m"].expansion is EAGER
    reg = load_registry(f"component c {{ trigger, a }}\nmonitor m @ c := {formula} trigger wildcard")
    assert reg.monitors["m"].formula == expected
    assert reg.monitors["m"].expansion is WILDCARD


def test_lazy_demo_trigger_loads():
    pair = bundled("lazy_demo").monitors["pair"]
    assert pair.formula == ltl.And(ltl.Prop("ga"), ltl.Prop("gb"))
    assert pair.expansion == ltl.parse("!ga | !gb")


@pytest.mark.parametrize(
    "clause, message",
    [
        ("T(m0", "bad trigger token 'T'"),
        ("T(m0) ! T(m0)", "bad trigger token '!'"),
        ("(T(m0) | F(m0)", "expected RPAREN, found ''"),
        ("T(m0) &", "unexpected token ''"),
        ("| T(m0)", "unexpected token '|'"),
        ("T(m0) T(m0)", "unexpected token 'm0'"),
        ("X T(m0)", "bad trigger token 'X'"),
        ("!T(m0)", "bad trigger token '!'"),
        ("m0", "bad trigger token 'm0'"),
        ("T(true)", "'true' is not a name"),
    ],
)
def test_trigger_syntax_errors_name_the_line(clause, message):
    # a trigger is read by the LTL parser, but only T(l), F(l), &, | and
    # parentheses get through to it; the parser's errors name the column
    # too, counted in the spec line, whose clause starts at column 32
    column = {"(T(m0) | F(m0)": 47, "T(m0) &": 40, "| T(m0)": 32, "T(m0) T(m0)": 40}
    where = f"line 3, column {column[clause]}" if clause in column else "line 3"
    text = f"component c {{ a }}\nmonitor m0 @ c := a\nmonitor m1 @ c := m0 trigger {{ {clause} }}"
    with pytest.raises(SpecError, match=f"^{where}: {re.escape(message)}$"):
        load_registry(text)


COMPONENT = "component c { a }\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (COMPONENT + "monitor m @ c := a & (a", "line 2, column 24: expected RPAREN, found ''"),
        (COMPONENT + "\t monitor m @ c :=a&(a", "line 2, column 23: expected RPAREN, found ''"),
        (COMPONENT + "monitor m @ c := F<=\u00b2 a", "line 2, column 21: unexpected character '\u00b2'"),
        (COMPONENT + "monitor m @ c := a @ b # @", "line 2, column 20: unexpected character '@'"),
        (
            COMPONENT + "monitor n @ c := a\nmonitor m @ c := n trigger { T(n) & }",
            "line 3, column 37: unexpected token ''",
        ),
        (
            COMPONENT + "monitor n @ c := a\nmonitor m @ c := n trigger {T(n)|?}",
            "line 3, column 34: unexpected character '?'",
        ),
    ],
)
def test_parse_errors_name_one_position_in_the_spec(text, message):
    # one line and one column, both of the spec, whatever the parser counted
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        load_registry(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("component c { a }\nmonitor x,y @ c := a", "line 2: 'x,y' is not a name"),
        ("component c { a }\nmonitor  @ c := a", "line 2: '' is not a name"),
        ("component c { a b }", "line 1: 'a b' is not a name"),
        ("component c { a, true }", "line 1: 'true' is not a name"),
        ("component X { a }", "line 1: 'X' is not a name"),
        ("component c { \u00e9 }", "line 1: '\u00e9' is not a name"),
        (
            "component d { b }\ncomponent c { a, b2, a }",
            "line 2: proposition 'a' listed twice in component 'c'",
        ),
        ("component c { a, m }\nmonitor m @ c := a", "lines 1 and 2: proposition 'm' is a label"),
        ("monitor m @ c := a\n\ncomponent c { a, m }", "lines 3 and 1: proposition 'm' is a label"),
    ],
)
def test_names_are_identifiers_and_no_label_is_a_proposition(text, message):
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        load_registry(text)


@pytest.mark.parametrize(
    "name", ["adl", "adl_h", "adl_h2", "amiqual", "demo_pair", "lazy_demo"]
)
def test_every_bundled_spec_loads(name):
    assert bundled(name).monitors


def test_every_bundled_parse_is_pinned():
    # the AST, the rendering and the expansion of all 157 bundled monitors,
    # recorded before the LTL front end became one operator table
    specs = sorted(glob.glob(os.path.join(os.path.dirname(registry.__file__), "specs", "*.dspec")))
    digest = hashlib.sha256()
    count = 0
    for path in specs:
        for label, decl in registry.load_registry_file(path).monitors.items():
            row = (os.path.basename(path), label, repr(decl.formula), ltl.render(decl.formula))
            digest.update(("\t".join(row) + f"\t{decl.expansion!r}\n").encode())
            count += 1
    assert count == 157
    assert digest.hexdigest() == "6781ae4c1e7404f46b2e851308fad9c8e3a600f3d3de8e5592414f54db7eaaa5"


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabelError):
        load_registry("component c { a }\nmonitor m @ c := a\nmonitor m @ c := !a")


def test_unknown_component_rejected():
    with pytest.raises(UnknownComponentError):
        load_registry("component c { a }\nmonitor m @ ghost := a")


def test_foreign_proposition_rejected():
    with pytest.raises(AlphabetError):
        load_registry(
            "component c { a }\ncomponent d { b }\nmonitor m @ c := a & b"
        )


def test_shared_proposition_rejected():
    with pytest.raises(SpecError):
        load_registry("component c { a }\ncomponent d { a }")


def test_cycle_rejected_with_cycle_listed():
    with pytest.raises(CycleError) as exc:
        load_registry(
            "component c { a }\nmonitor m1 @ c := m2 | a\nmonitor m2 @ c := m1 & a"
        )
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert {"m1", "m2"} <= set(cycle)


def test_unknown_trigger_label_rejected():
    with pytest.raises(SpecError):
        load_registry("component c { a }\nmonitor m @ c := a trigger { T(ghost) }")


def test_trigger_names_only_referenced_monitors():
    # m1 receives verdicts from m0 alone, so a trigger on m2 could never fire
    text = "component c { a }\nmonitor m0 @ c := a\nmonitor m2 @ c := a\n"
    load_registry(text + "monitor m1 @ c := m0 trigger { T(m0) }")
    with pytest.raises(SpecError, match="^trigger of 'm1' names 'm2', which it does not reference$"):
        load_registry(text + "monitor m1 @ c := m0 trigger { T(m2) }")


def test_bad_formula_reports_line():
    with pytest.raises(SpecError) as exc:
        load_registry("component c { a }\nmonitor m @ c := a &&")
    assert "line 2" in str(exc.value)


def test_garbage_line_rejected():
    with pytest.raises(SpecError):
        load_registry("observe c { a }")


def test_light_switch_family():
    reg = light_switch_family(3)
    assert set(reg.monitors) == {
        "light_0", "light_1", "light_2",
        "sc_light_0", "sc_light_1", "sc_light_2", "sc_ok",
    }
    assert reg.depths["sc_ok"] == 2
    assert reg.refs["sc_ok"] and not reg.own["sc_ok"]
    assert ap_counts(reg, "sc_ok") == (3, 6)
    with pytest.raises(SpecError):
        light_switch_family(0)


def test_bundled_amiqual_loads():
    reg = bundled("amiqual")
    assert "firehazard" in reg.monitors
    assert reg.depths["sc_ok"] == 2


def test_bundled_table():
    # name -> (decentralized APs, centralized APs, depth)
    expected = {
        "sc_light_0": (2, 2, 1),
        "sc_light_1": (2, 2, 1),
        "sc_light_2": (2, 2, 1),
        "sc_light_3": (2, 2, 1),
        "sc_ok": (4, 8, 2),
        "toilet": (1, 1, 0),
        "sink_usage": (1, 2, 1),
        "shower_usage": (1, 2, 1),
        "napping": (1, 1, 1),
        "dressing": (2, 3, 1),
        "reading": (3, 5, 2),
        "office_tv": (1, 1, 1),
        "computing": (1, 1, 1),
        "cooking": (2, 2, 1),
        "washing_dishes": (2, 3, 1),
        "kactivity": (4, 9, 1),
        "preparing": (2, 11, 2),
        "livingroom_tv": (2, 2, 1),
        "eating": (2, 2, 1),
        "actfloor0": (6, 16, 3),
        "actfloor1": (7, 11, 3),
        "acthouse": (2, 27, 4),
        "notwopeople": (2, 27, 4),
        "restricttv": (2, 3, 3),
        "firehazard": (2, 3, 2),
    }
    reg = bundled("amiqual")
    for label, (dec, cent, depth) in expected.items():
        assert ap_counts(reg, label) == (dec, cent), label
        assert reg.depths[label] == depth, label


def test_bundled_variants_are_restrictions():
    full = bundled("amiqual")
    for name, tops in [
        ("adl", None),
        ("adl_h", None),
        ("adl_h2", None),
    ]:
        variant = bundled(name)
        for label, decl in variant.monitors.items():
            assert ltl.render(decl.formula) == ltl.render(full.monitors[label].formula)
    assert len(bundled("adl").monitors) == 32
    assert len(bundled("adl_h").monitors) == 35
    assert len(bundled("adl_h2").monitors) == 36
