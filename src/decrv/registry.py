"""Named monitors attached to components: parsing, validation, hierarchy.

Spec files are line-oriented (``#`` comments):

    component <name> { <ap>, <ap>, ... }
    monitor <label> @ <component> := <formula>
    monitor <label> @ <component> := <formula> trigger { T(x) | F(y) }
    monitor <label> @ <component> := <formula> trigger wildcard

A monitor's formula may mention its component's propositions and other
monitor labels; references form a DAG whose depth drives verdict latency.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional, Union

from . import ltl
from .base import ValidationError


# --- expansion conditions -------------------------------------------------

WILDCARD = "wildcard"
EAGER = "eager"

# EAGER, WILDCARD, or a trigger: a formula of Prop, Not(Prop), And and Or
# over the labels the monitor references
Expansion = Union[str, ltl.Formula]


# --- declarations ---------------------------------------------------------


class SpecError(ValidationError):
    pass


class DuplicateLabelError(SpecError):
    pass


class UnknownComponentError(SpecError):
    pass


class AlphabetError(SpecError):
    pass


class CycleError(SpecError):
    def __init__(self, cycle: list[str]):
        super().__init__("reference cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class ComponentDecl(NamedTuple):
    name: str
    aps: frozenset[str]


class MonitorDecl(NamedTuple):
    label: str
    component: str
    formula: ltl.Formula
    expansion: Expansion = EAGER


class Registry:
    """Validated spec: components, monitors, and the reference DAG, worked
    out once at load.  Per monitor label l: ``refs[l]``, the labels that
    l's formula names; ``own[l]``, l's own propositions (sorted);
    ``dependents[l]``, the monitors that name l (sorted); ``depths[l]``,
    the longest reference chain below l."""

    __slots__ = ("components", "monitors", "refs", "own", "dependents", "depths", "_inlined")

    def __init__(
        self, components: dict[str, ComponentDecl], monitors: dict[str, MonitorDecl]
    ) -> None:
        self.components = components
        self.monitors = monitors
        self.refs: dict[str, frozenset[str]] = {}
        self.own: dict[str, tuple[str, ...]] = {}
        self.dependents: dict[str, list[str]] = {label: [] for label in monitors}
        self.depths: dict[str, int] = {}
        self._inlined: dict[str, ltl.Formula] = {}

    def inline(self, label: str) -> ltl.Formula:
        """Formula with every reference recursively replaced."""
        got = self._inlined.get(label)
        if got is None:
            mapping = {ref: self.inline(ref) for ref in self.refs[label]}
            got = ltl.substitute(self.monitors[label].formula, mapping)
            self._inlined[label] = got
        return got

    def horizon(self, label: str) -> Optional[int]:
        """X-nesting depth of the inlined formula; None when unbounded."""
        return ltl.bounded_horizon(self.inline(label))

    def restrict(self, labels: list[str]) -> "Registry":
        """Sub-registry with the given monitors plus transitive references."""
        keep: set[str] = set()
        frontier = list(labels)
        while frontier:
            label = frontier.pop()
            if label in keep:
                continue
            if label not in self.monitors:
                raise SpecError(f"unknown monitor {label!r}")
            keep.add(label)
            frontier.extend(self.refs[label])
        monitors = {l: d for l, d in self.monitors.items() if l in keep}
        return _validate(dict(self.components), monitors)


def _validate(
    components: dict[str, ComponentDecl], monitors: dict[str, MonitorDecl]
) -> Registry:
    seen_aps: dict[str, str] = {}
    for comp in components.values():
        if not comp.aps:
            raise SpecError(f"component {comp.name!r} has no propositions")
        for ap in comp.aps:
            if ap in seen_aps:
                raise SpecError(
                    f"proposition {ap!r} in both {seen_aps[ap]!r} and {comp.name!r}"
                )
            seen_aps[ap] = comp.name
    registry = Registry(components, monitors)
    labels = set(monitors)
    for decl in monitors.values():
        if decl.component not in components:
            raise UnknownComponentError(
                f"monitor {decl.label!r} attached to unknown component {decl.component!r}"
            )
        props = ltl.propositions(decl.formula)
        allowed = components[decl.component].aps | (labels - {decl.label})
        for name in sorted(props - allowed):
            raise AlphabetError(
                f"monitor {decl.label!r} uses {name!r}, which is neither a "
                f"proposition of component {decl.component!r} nor another monitor"
            )
        registry.refs[decl.label] = refs = props & labels
        if not isinstance(decl.expansion, str):
            # a node receives verdicts only from the monitors it references
            for name in sorted(ltl.propositions(decl.expansion) - refs):
                raise SpecError(
                    f"trigger of {decl.label!r} names {name!r}, which it does not reference"
                )
        registry.own[decl.label] = tuple(sorted(props - refs))
        for ref in refs:
            registry.dependents[ref].append(decl.label)

    for dependents in registry.dependents.values():
        dependents.sort()
    for label in monitors:
        _depth(registry, label, [])
    return registry


def _depth(registry: Registry, label: str, in_progress: list[str]) -> int:
    """Work out ``registry.depths[label]`` and those of the references
    below it (a module function: a closure that calls itself is a
    reference cycle)."""
    depths = registry.depths
    if label in depths:
        return depths[label]
    if label in in_progress:
        cycle = in_progress[in_progress.index(label) :] + [label]
        raise CycleError(cycle)
    in_progress.append(label)
    refs = registry.refs[label]
    depths[label] = 1 + max(_depth(registry, r, in_progress) for r in refs) if refs else 0
    in_progress.pop()
    return depths[label]


# --- parsing --------------------------------------------------------------


def _parse_trigger(clause: str, lineno: int) -> ltl.Formula:
    """Read a trigger as an LTL formula: ``T(l)`` is ``l``, ``F(l)`` is
    ``!l``, and only ``&``, ``|`` and parentheses join them."""
    tokens = ltl.tokenize(clause)
    kept = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        shape = [t[0] for t in tokens[i + 1 : i + 4]]
        if tok[1] in ("T", "F") and shape == ["LPAREN", "IDENT", "RPAREN"]:
            label = tokens[i + 2]
            _name(label[1], lineno)
            kept += [label] if tok[1] == "T" else [("NOT", "!", *tok[2:]), label]
            i += 4
        elif tok[0] in ("AND", "OR", "LPAREN", "RPAREN", "EOF"):
            kept.append(tok)
            i += 1
        else:
            raise SpecError(f"line {lineno}: bad trigger token {tok[1]!r}")
    return ltl.parse_tokens(kept)


def _name(text: str, lineno: int) -> str:
    name = text.strip()
    if not (name.isascii() and name.isidentifier()) or name in "X G F U true false".split():
        raise SpecError(f"line {lineno}: {name!r} is not a name")
    return name


def load_registry(text: str) -> Registry:
    components: dict[str, ComponentDecl] = {}
    monitors: dict[str, MonitorDecl] = {}
    ap_at: dict[str, int] = {}
    label_at: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("component "):
            rest = line[len("component ") :]
            if "{" not in rest or not rest.endswith("}"):
                raise SpecError(f"line {lineno}: expected 'component <name> {{ ... }}'")
            name, body = rest.split("{", 1)
            name = _name(name, lineno)
            listed = [_name(ap, lineno) for ap in body[:-1].split(",") if ap.strip()]
            for ap in listed:
                if listed.count(ap) > 1:
                    raise SpecError(
                        f"line {lineno}: proposition {ap!r} listed twice in component {name!r}"
                    )
            aps = frozenset(listed)
            ap_at.update(dict.fromkeys(aps, lineno))
            if name in components:
                raise SpecError(f"line {lineno}: duplicate component {name!r}")
            components[name] = ComponentDecl(name, aps)
        elif line.startswith("monitor "):
            rest = line[len("monitor ") :]
            if "@" not in rest or ":=" not in rest:
                raise SpecError(
                    f"line {lineno}: expected 'monitor <label> @ <component> := <formula>'"
                )
            label, rest = rest.split("@", 1)
            component, rest = rest.split(":=", 1)
            label = _name(label, lineno)
            component = component.strip()
            expansion: Expansion = EAGER
            # only a trailing clause is one: a proposition may be named trigger
            head, sep, clause = rest.rpartition(" trigger ")
            clause = clause.strip()
            at = formula_at = raw.index(":=") + 2  # spec columns before the parsed text
            try:
                if sep and clause == "wildcard":
                    rest, expansion = head, WILDCARD
                elif sep and clause[:1] == "{" and clause[-1:] == "}":
                    at += len(rest) - len(clause) + 1
                    rest, expansion = head, _parse_trigger(clause[1:-1], lineno)
                    at = formula_at
                formula = ltl.parse(rest)
            except ltl.ParseError as exc:
                raise SpecError(f"line {lineno}, column {at + exc.column}: {exc.message}") from exc
            if label in monitors:
                raise DuplicateLabelError(f"line {lineno}: duplicate label {label!r}")
            monitors[label] = MonitorDecl(label, component, formula, expansion)
            label_at[label] = lineno
        else:
            raise SpecError(f"line {lineno}: unrecognized declaration {line!r}")
    for ap in sorted(ap_at.keys() & label_at.keys()):
        raise SpecError(f"lines {ap_at[ap]} and {label_at[ap]}: proposition {ap!r} is a label")
    return _validate(components, monitors)


def load_registry_file(path) -> Registry:
    with open(path, encoding="utf-8") as handle:
        return load_registry(handle.read())


def light_switch_family(rooms: int) -> Registry:
    """n-room switch/lamp spec: per-room sc_light plus the sc_ok conjunction."""
    if rooms < 1:
        raise SpecError("need at least one room")
    lines = []
    for i in range(rooms):
        lines.append(f"component switch_{i} {{ s{i} }}")
        lines.append(f"component lamp_{i} {{ l{i} }}")
        lines.append(f"monitor light_{i} @ lamp_{i} := l{i}")
        lines.append(
            f"monitor sc_light_{i} @ switch_{i} := G(s{i} -> X(light_{i} U !s{i}))"
        )
    conjunction = " & ".join(f"sc_light_{i}" for i in range(rooms))
    lines.append(f"monitor sc_ok @ switch_0 := {conjunction}")
    return load_registry("\n".join(lines))


def bundled(name: str) -> Registry:
    """Load a spec file shipped with the package (e.g. ``amiqual``); an
    unknown name raises ``FileNotFoundError``."""
    return load_registry_file(os.path.join(os.path.dirname(__file__), "specs", f"{name}.dspec"))
