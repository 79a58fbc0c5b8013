"""Output checks.  Each returns a list of problems; an empty list passes.

- replay verdicts: SHA-256 of ``verdicts.csv`` against the digest recorded
  for the default seed, and for any seed a sampled cross-check of
  finite-horizon monitors against the brute-force oracle;
- centralized synthesis: the exported automaton equals the reference up to
  state renumbering, with every guard evaluated over every event, so a
  guard with different text but the same meaning passes.
"""

from __future__ import annotations

import hashlib
import random
import re

# A finite-horizon verdict at round t is due by round t + horizon plus the
# delivery delays along its reference chain; samples keep this far from the
# trace end so that no verdict is still pending there.
ORACLE_MARGIN = 32


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_verdicts(path: str) -> dict[tuple[str, int], tuple[str, int]]:
    """(label, round) -> (verdict, delay) from a ``verdicts.csv``."""
    out = {}
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            t, label, verdict, delay = line.rstrip("\n").split(",")
            out[(label, int(t))] = (verdict, int(delay))
    return out


def sample_pairs(reg, rounds: int, seed: int, samples: int) -> list[tuple[str, int, int]]:
    """Seeded (label, round, horizon) samples over finite-horizon monitors."""
    horizons = {label: reg.horizon(label) for label in sorted(reg.monitors)}
    eligible = [l for l, h in horizons.items() if h is not None and h + ORACLE_MARGIN < rounds]
    rng = random.Random(f"oracle:{seed}")
    out = []
    for _ in range(samples):
        label = rng.choice(eligible)
        h = horizons[label]
        out.append((label, rng.randrange(rounds - h - ORACLE_MARGIN), h))
    return out


def oracle_errors(reg, trace, verdicts, pairs) -> list[str]:
    from decrv import oracle

    errors = []
    for label, t, h in pairs:
        want = str(oracle.evaluate3(reg.inline(label), trace[t : t + h + 1]))
        got = verdicts.get((label, t), ("missing", 0))[0]
        if got != want:
            errors.append(f"{label}@{t}: replay {got}, oracle {want}")
    return errors


def digest_errors(path: str, expected: str) -> list[str]:
    got = sha256(path)
    return [] if got == expected else [f"{path}: sha256 {got}, expected {expected}"]


# --- exported automata ------------------------------------------------------

_STATE = re.compile(r"^q(\d+) (TRUE|FALSE|UNKNOWN)$")
_EDGE = re.compile(r"^q(\d+) --(.*)--> q(\d+)$")
_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[!&|()])")


class GuardError(ValueError):
    pass


def _truth_table(text: str, masks: dict[str, int], full: int) -> int:
    """Bit e of the result is the guard's value on event e."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise GuardError(f"cannot parse guard {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def disjunction():
        v = conjunction()
        while peek() == "|":
            take()
            v |= conjunction()
        return v

    def conjunction():
        v = unary()
        while peek() == "&":
            take()
            v &= unary()
        return v

    def unary():
        tok = take() if peek() is not None else None
        if tok == "!":
            return full & ~unary()
        if tok == "(":
            v = disjunction()
            if take() != ")":
                raise GuardError(f"unbalanced guard {text!r}")
            return v
        if tok == "true":
            return full
        if tok == "false":
            return 0
        if tok in masks:
            return masks[tok]
        raise GuardError(f"unexpected {tok!r} in guard {text!r}")

    v = disjunction()
    if pos != len(tokens):
        raise GuardError(f"trailing tokens in guard {text!r}")
    return v


def parse_automaton(text: str, alphabet: list[str]):
    """(labels, delta) of a transition list, delta[q][event] over every
    assignment of the alphabet (bit i of the event is alphabet[i])."""
    n = len(alphabet)
    full = (1 << (1 << n)) - 1
    masks = {
        ap: sum(1 << e for e in range(1 << n) if e >> i & 1)
        for i, ap in enumerate(alphabet)
    }
    labels: dict[int, str] = {}
    tables: dict[int, list[tuple[int, int]]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if m := _STATE.match(line):
            labels[int(m[1])] = m[2]
        elif m := _EDGE.match(line):
            tables.setdefault(int(m[1]), []).append(
                (_truth_table(m[2], masks, full), int(m[3]))
            )
        else:
            raise GuardError(f"unexpected line {line!r}")
    delta = {}
    for q in labels:
        row = [None] * (1 << n)
        for table, dst in tables.get(q, []):
            for e in range(1 << n):
                if table >> e & 1:
                    if row[e] is not None:
                        raise GuardError(f"q{q}: event {e} has two successors")
                    row[e] = dst
        if None in row or any(d not in labels for d in row):
            raise GuardError(f"q{q}: transitions incomplete or dangling")
        delta[q] = row
    return labels, delta


def alphabet_of(*texts: str) -> list[str]:
    names = set()
    for text in texts:
        for line in text.splitlines():
            if m := _EDGE.match(line):
                names.update(_TOKEN.findall(m[2]))
    return sorted(names - {"!", "&", "|", "(", ")", "true", "false"})


def automaton_errors(text: str, reference: str) -> list[str]:
    """Is ``text`` the reference automaton up to renumbering of states?"""
    alphabet = alphabet_of(text, reference)
    try:
        got_labels, got = parse_automaton(text, alphabet)
    except GuardError as exc:
        return [str(exc)]
    ref_labels, ref = parse_automaton(reference, alphabet)
    if len(got_labels) != len(ref_labels):
        return [f"{len(got_labels)} states, expected {len(ref_labels)}"]
    mapping = {0: 0}
    queue = [0]
    while queue:
        q = queue.pop()
        r = mapping[q]
        if got_labels[q] != ref_labels[r]:
            return [f"q{q} is {got_labels[q]}, reference q{r} is {ref_labels[r]}"]
        for e, (dq, dr) in enumerate(zip(got[q], ref[r])):
            if dq not in mapping:
                mapping[dq] = dr
                queue.append(dq)
            elif mapping[dq] != dr:
                return [f"q{q} on event {e}: successor differs from the reference"]
    if len(mapping) != len(got_labels) or len(set(mapping.values())) != len(mapping):
        return ["states are unreachable or map onto one reference state"]
    return []
