"""Seeded generators of `.net` and `.patch` text for the benchmark workloads.

Every generator returns plain text; the program under test only ever sees
that text. A seed changes identifiers, declaration order and simulation
choices, never the shape of a net, so the work per query is the same for
every seed while the inputs differ. Known answers that follow from a net's
shape (state and edge counts, shortest trace lengths, coverability) are
returned next to the text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "respetri" / "data"


@dataclass(frozen=True)
class Expected:
    """Known answer for one forbidden predicate."""

    kind: str                     # safe | unsafe | unknown
    proof: str                    # ProofKind value
    trace_len: int | None = None  # shortest trace length, when unsafe and known


UNSAFE = "unsafe", "violation-trace"
SAFE_EXHAUSTIVE = "safe", "exhaustive-bounded"
SAFE_COVER = "safe", "coverability"
UNKNOWN = "unknown", "bound-exhausted"


@dataclass
class NetCase:
    name: str
    text: str
    expected: dict[str, Expected] = field(default_factory=dict)
    states: int | None = None       # reachable state count
    edges: int | None = None        # edge count of the reachability graph
    tree_nodes: int | None = None   # Karp-Miller tree size for `overflow`
    ends: tuple[str, str] = ("", "")  # first and last place of a pipeline


def _prefix(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


def _shuffled(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    rng.shuffle(lines)
    return lines


def chain(n: int, k: int, rng: random.Random) -> NetCase:
    """Pipeline of n places moving k tokens: C(n+k-1, k) states.

    Every state with a token in place i < n-1 enables one step there, so the
    edge count is (n-1) times the number of states with a token in place 0.
    """
    pre = _prefix(rng)
    p = [f"{pre}_p{i}" for i in range(n)]
    places = [f"place {p[0]} init {k}"] + [f"place {x}" for x in p[1:]]
    trans = [f"trans {pre}_t{i} in {p[i]}:1 out {p[i + 1]}:1" for i in range(n - 1)]
    forb = [
        f"forbidden deep := {p[-1]} >= {k}",
        f"forbidden shallow := {p[1]} >= 1",
        f"forbidden safe := {p[0]} >= {k + 1}",
    ]
    text = "\n".join(_shuffled(rng, places) + _shuffled(rng, trans) + forb) + "\n"
    return NetCase(
        f"chain({n},{k})", text,
        {"deep": Expected(*UNSAFE, k * (n - 1)),
         "shallow": Expected(*UNSAFE, 1),
         "safe": Expected(*SAFE_EXHAUSTIVE)},
        states=comb(n + k - 1, k), edges=(n - 1) * comb(n + k - 2, k - 1),
        ends=(p[0], p[-1]),
    )


def toggles(n: int, rng: random.Random, truncated: bool = False) -> NetCase:
    """n independent capacity-1 places, each with a source and a sink.

    2^n states and n * 2^n edges: every state enables exactly one of the two
    transitions of each place. Place `err` has no producer, so `overflow` is
    uncoverable. `safe` and `deep` are coverable once capacities are dropped,
    so a check cut short by the state bound can prove neither. The
    Karp-Miller tree for `overflow` has 3n * 2^(n-1) + 1 nodes.

    With truncated=True the answers are those of a check bounded to 50
    states (n >= 6): Karp-Miller decides `overflow`, the rest stay unknown.
    """
    pre = _prefix(rng)
    q = [f"{pre}_q{i}" for i in range(n)]
    places = [f"place {x} cap 1" for x in q] + [f"place {pre}_err"]
    trans = []
    for i, x in enumerate(q):
        trans.append(f"trans {pre}_src{i} out {x}:1")
        trans.append(f"trans {pre}_snk{i} in {x}:1")
    forb = [
        "forbidden deep := (" + " and ".join(f"{x} >= 1" for x in q) + ")",
        f"forbidden shallow := {q[rng.randrange(n)]} >= 1",
        f"forbidden safe := {q[0]} >= 2",
        f"forbidden overflow := {pre}_err >= 1",
    ]
    text = "\n".join(_shuffled(rng, places) + _shuffled(rng, trans) + forb) + "\n"
    if truncated:
        expected = {"deep": Expected(*UNKNOWN), "shallow": Expected(*UNSAFE, 1),
                    "safe": Expected(*UNKNOWN), "overflow": Expected(*SAFE_COVER)}
    else:
        expected = {"deep": Expected(*UNSAFE, n), "shallow": Expected(*UNSAFE, 1),
                    "safe": Expected(*SAFE_EXHAUSTIVE), "overflow": Expected(*SAFE_EXHAUSTIVE)}
    return NetCase(f"toggles({n})", text, expected, states=2 ** n, edges=n * 2 ** n,
                   tree_nodes=3 * n * 2 ** (n - 1) + 1)


# The shipped fixtures with three added predicates each. Graph sizes and
# shortest-trace lengths are re-derived by perfbench/selfcheck.py with the
# brute-force oracle in tests/oracles.py.
FIXTURES = {
    "traffic": dict(
        extra=("deep := (p1 <= 0 and p2 >= 3 and p3 <= 0 and p5 >= 2 and p6 >= 3)",
               "shallow := p3 >= 1", "safe := p1 >= 3"),
        lengths={"gridlock": 5, "deep": 23, "shallow": 1},
        states=861, edges=2186),
    "risk_scoring": dict(
        extra=("deep := (p1 >= 2 and p2 >= 2 and p3 <= 0 and p4 <= 0 and p6 >= 3)",
               "shallow := p3 >= 1", "safe := p1 >= 3"),
        lengths={"automation_capture": 3, "deep": 17, "shallow": 1},
        states=102, edges=203),
    "srs_symbolic": dict(
        extra=("deep := (pB >= 1 and pD >= 1 and p_dash >= 1 and p_policy <= 0)",
               "shallow := pB >= 1", "safe := pA >= 2"),
        lengths={"bad_state": 3, "deep": 5, "shallow": 1},
        states=25, edges=48),
}


def fixture_lines(name: str) -> list[str]:
    return [ln for ln in (DATA / f"{name}.net").read_text().splitlines() if ln.strip()]


def fixture(name: str, rng: random.Random) -> NetCase:
    """A shipped fixture plus deep, shallow and safe predicates, lines shuffled."""
    spec = FIXTURES[name]
    lines = fixture_lines(name) + [f"forbidden {e}" for e in spec["extra"]]
    expected = {n: Expected(*UNSAFE, k) for n, k in spec["lengths"].items()}
    expected["safe"] = Expected(*SAFE_EXHAUSTIVE)
    return NetCase(name, "\n".join(_shuffled(rng, lines)) + "\n", expected,
                   spec["states"], spec["edges"])


# ---------------------------------------------------------------------------
# Plain random nets (shaped like tests/oracles.py:random_net with plain=True)
# ---------------------------------------------------------------------------

@dataclass
class PlainNet:
    """Structure kept next to the text, so the oracle never reads the parser."""

    text: str
    places: list[str]
    init: dict[str, int]
    transitions: list[tuple[dict, dict, dict]]  # (inputs, outputs, reads)
    target: dict[str, int]                      # upward-closed: p >= n for all


def random_plain(shape: random.Random, rng: random.Random, tag: str) -> PlainNet:
    """<= 5 places, <= 5 transitions, <= 3 initial tokens, weights <= 2, no
    inhibitors, guards, capacities or counters; the target is a conjunction
    of 1-3 lower bounds. `shape` draws the net; `rng` only names its places
    and orders their declarations, so the work does not depend on it."""
    pre = f"{tag}{_prefix(rng)}_"
    pids = [f"{pre}{i}" for i in range(shape.randint(1, 5))]
    init = {p: shape.randint(0, 3) for p in pids}
    transitions = []
    for _ in range(shape.randint(1, 5)):
        ins = {p: shape.randint(1, 2)
               for p in shape.sample(pids, shape.randint(0, min(2, len(pids))))}
        outs = {p: shape.randint(1, 2)
                for p in shape.sample(pids, shape.randint(0, min(2, len(pids))))}
        reads = {shape.choice(pids): shape.randint(1, 2)} if shape.random() < 0.3 else {}
        transitions.append((ins, outs, reads))
    target: dict[str, int] = {}
    for _ in range(shape.randint(1, 3)):
        p = shape.choice(pids)
        target[p] = max(target.get(p, 0), shape.randint(1, 5))

    def arcs(kw, d):
        return f" {kw} " + " ".join(f"{p}:{w}" for p, w in d.items()) if d else ""

    lines = _shuffled(rng, [f"place {p} init {init[p]}" if init[p] else f"place {p}" for p in pids])
    for i, (ins, outs, reads) in enumerate(transitions):
        lines.append(f"trans {pre}t{i}" + arcs("in", ins) + arcs("out", outs) + arcs("read", reads))
    lines.append("forbidden goal := (" + " and ".join(f"{p} >= {n}" for p, n in target.items()) + ")")
    return PlainNet("\n".join(lines) + "\n", pids, init, transitions, target)


# ---------------------------------------------------------------------------
# Governance session
# ---------------------------------------------------------------------------

RING = 5     # stages s0..s4 in a ring
TOKENS = 2   # tokens, all in s0 initially


def session_net(rng: random.Random, tag: str) -> tuple[str, str]:
    """A ring of RING stages with modes, a ratelimit macro and audit rules.

    Mode `normal` runs the whole ring. Mode `strict` disables the step into
    the last stage and enables a shortcut around it, so `jam` (all tokens in
    the last stage) is reachable exactly while `normal` is active. `leak` is
    safe by token conservation; `early` is one firing away. No version the
    session patches produce can deadlock, so every simulation runs its full
    length. Transitions keep their declaration order for every seed: a
    simulation chooses among enabled transitions in that order, so another
    order would be another run, with other alarms and other costs. Returns
    (text, prefix).
    """
    pre = _prefix(rng)
    s = [f"{pre}_s{i}" for i in range(RING)]
    lines = [f'meta session "{tag}"', f"place {s[0]} init {TOKENS}"]
    lines += [f"place {x}" for x in s[1:]]
    lines += [f"trans {pre}_a{i} in {s[i]}:1 out {s[(i + 1) % RING]}:1" for i in range(RING)]
    lines += [
        f"trans {pre}_b3 in {s[3]}:1 out {s[0]}:1",
        f"ratelimit {pre}_a0 max 2 per 2",
        f"audit burst := rate {pre}_a1 max 1 per 3",
        f"audit crowd := occupancy {s[2]} >= 2",
        f"forbidden jam := {s[RING - 1]} >= {TOKENS}",
        f"forbidden leak := {s[0]} >= {TOKENS + 1}",
        f"forbidden early := {s[1]} >= 1",
    ]
    body = _shuffled(rng, lines[1:])
    trans = iter([x for x in lines[1:] if x.startswith("trans ")])
    body = [next(trans) if x.startswith("trans ") else x for x in body]
    # The first declared mode holds the token, so `normal` comes first.
    at = rng.randint(0, len(body))
    body[at:at] = [f"mode normal disable {pre}_b3", f"mode strict disable {pre}_a3"]
    return "\n".join(lines[:1] + body) + "\n", pre


def session_patches(rng: random.Random, pre: str) -> list[tuple[str, bool, bool]]:
    """Eight patches that leave the net as it started.

    Returns (patch text, strict mode after the patch, jam regresses). The
    capacity (1 on s3), inhibitor (s1 on a3) and guard (on a1) still let the
    tokens reach the last stage one at a time in mode normal.
    """
    ops = [
        (f"set capacity {pre}_s3 1", False, False),
        ("switch mode strict", True, False),
        (f"add arc inhibit {pre}_s1 {pre}_a3 2", True, False),
        ("switch mode normal", False, True),
        (f"set guard {pre}_a1 {pre}_s1 >= 1", False, False),
        (f"set capacity {pre}_s3 none", False, False),
        (f"remove arc inhibit {pre}_s1 {pre}_a3", False, False),
        (f"set guard {pre}_a1 none", False, False),
    ]
    out = []
    for n, (op, strict, regress) in enumerate(ops):
        text = f'author "ops-{rng.randrange(100)}"\nrationale "step {n}"\n{op}\n'
        out.append((text, strict, regress))
    return out
