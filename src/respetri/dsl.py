"""Textual model language: parser, canonical serializer, macro expansion.

The `.net` format is line-oriented. Keywords: `meta`, `place`, `trans` (with
`in/out/inhibit/read`, `guard`, `counted`), `forbidden`, `audit`, `mode`,
`override`, `ratelimit`. Comments start with `#` followed by a non-identifier
character; `#name` is a counter atom inside predicates.

Canonical serialization orders blocks as places, transitions, forbidden,
audit, modes, each sorted by identifier, and is byte-stable: it is the
model's identity (structural equality and the hash both read it), and
parse(serialize(m)) serializes to the same text.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace

from .errors import (
    MacroArity,
    ParseFailure,
    StructureFailure,
    UnknownTransitionInMacro,
)
from .net import (
    ARC_FIELDS,
    IDENT,
    _OPS,
    And,
    AuditRule,
    CounterAtom,
    CounterThreshold,
    Marking,
    ModeAtom,
    ModeDef,
    NetModel,
    Not,
    OccupancyThreshold,
    Or,
    PlaceDef,
    Predicate,
    PressureThreshold,
    RateThreshold,
    TokenAtom,
    TransitionDef,
    validate_net,
)


@dataclass(frozen=True)
class ModelSource:
    text: str
    origin: str = "<memory>"


@dataclass(frozen=True)
class ParseError:
    position: tuple[int, int]  # 1-based (line, column)
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self):
        line, col = self.position
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{line}:{col}: {self.message}{exp}"


@dataclass(frozen=True)
class RateLimit:
    """`ratelimit t max k per w` macro: at most k firings of t per w-tick window."""

    transition: str
    max_firings: int
    window: int


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<counter>\#{IDENT})
  | (?P<comment>\#.*)
  | (?P<ident>{IDENT})
  | (?P<int>-?\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op>:=|<=|>=|<|>|=|\(|\)|:)
    """,
    re.VERBOSE,
)

@dataclass
class Token:
    kind: str  # ident | int | string | op | counter
    value: str
    line: int
    col: int


def _tokenize_line(text: str, lineno: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise _Err((lineno, pos + 1), f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append(Token(kind, m.group(), lineno, m.start() + 1))
        pos = m.end()
    return tokens


class _Err(Exception):
    def __init__(self, position, message, expected=()):
        super().__init__(message)
        self.error = ParseError(position, message, tuple(expected))


class _Cursor:
    """Token stream over one line."""

    def __init__(self, tokens: list[Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.i = 0
        self.lineno = lineno
        self.line_len = line_len

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def _here(self):
        tok = self.peek()
        return (self.lineno, tok.col if tok else self.line_len + 1)

    def take(self, kind: str, value: str | None = None, expected=()) -> Token:
        tok = self.peek()
        what = value or kind
        if tok is None:
            raise _Err(self._here(), f"unexpected end of line, wanted {what}", expected or (what,))
        if tok.kind != kind or (value is not None and tok.value != value):
            raise _Err(self._here(), f"unexpected {tok.value!r}, wanted {what}", expected or (what,))
        self.i += 1
        return tok

    def take_ident(self) -> Token:
        return self.take("ident")

    def take_int(self, minimum: int | None = None) -> int:
        tok = self.take("int")
        v = int(tok.value)
        if minimum is not None and v < minimum:
            raise _Err((tok.line, tok.col), f"integer {v} out of range, must be >= {minimum}")
        return v

    def take_keyword(self, word: str) -> Token:
        return self.take("ident", word)

    def accept_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind == "ident" and tok.value == word:
            self.i += 1
            return True
        return False

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise _Err((tok.line, tok.col), f"trailing input {tok.value!r}")

    def take_string(self) -> str:
        return _unquote(self.take("string"))


# ---------------------------------------------------------------------------
# Strings: `\\`, `\"`, `\n` and `\uXXXX` (for the other line breaks) escape
# what would end the string or the line; any other character stands for itself.
# ---------------------------------------------------------------------------

_SPECIAL_RE = re.compile(r'[\\"\n\r\v\f\x1c-\x1e\x85\u2028\u2029]')
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|(.))")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}
_QUOTED = {c: "\\" + e for e, c in _ESCAPES.items()}


def _quote(s: str) -> str:
    return '"' + _SPECIAL_RE.sub(
        lambda m: _QUOTED.get(m.group()) or f"\\u{ord(m.group()):04x}", s) + '"'


def _unquote(tok: Token) -> str:
    def unescape(m):
        c = chr(int(m.group(1), 16)) if m.group(1) else _ESCAPES.get(m.group(2))
        if c is None or "\ud800" <= c <= "\udfff":  # a lone surrogate cannot be encoded
            raise _Err((tok.line, tok.col + 1 + m.start()), f"bad escape {m.group()!r}",
                       ("\\\\", '\\"', "\\n", "\\uXXXX"))
        return c
    return _ESCAPE_RE.sub(unescape, tok.value[1:-1])


# ---------------------------------------------------------------------------
# Predicate grammar: or_expr > and_expr > not_expr > atom
# ---------------------------------------------------------------------------

_CMP_OPS = tuple(_OPS)


def _parse_pred(cur: _Cursor) -> Predicate:
    return _parse_or(cur)


def _parse_or(cur: _Cursor) -> Predicate:
    terms = [_parse_and(cur)]
    while cur.accept_keyword("or"):
        terms.append(_parse_and(cur))
    return terms[0] if len(terms) == 1 else Or(tuple(terms))


def _parse_and(cur: _Cursor) -> Predicate:
    terms = [_parse_not(cur)]
    while cur.accept_keyword("and"):
        terms.append(_parse_not(cur))
    return terms[0] if len(terms) == 1 else And(tuple(terms))


def _parse_not(cur: _Cursor) -> Predicate:
    if cur.accept_keyword("not"):
        return Not(_parse_not(cur))
    return _parse_atom(cur)


def _take_cmp(cur: _Cursor) -> str:
    tok = cur.peek()
    if tok is None or tok.kind != "op" or tok.value not in _CMP_OPS:
        raise _Err(cur._here(), "expected comparison operator", _CMP_OPS)
    cur.i += 1
    return tok.value


def _parse_atom(cur: _Cursor) -> Predicate:
    tok = cur.peek()
    if tok is None:
        raise _Err(cur._here(), "expected predicate atom", ("identifier", "#identifier", "("))
    if tok.kind == "op" and tok.value == "(":
        cur.i += 1
        inner = _parse_or(cur)
        cur.take("op", ")")
        return inner
    if tok.kind == "counter":
        cur.i += 1
        op = _take_cmp(cur)
        value = cur.take_int()
        return CounterAtom(tok.value[1:], op, value)
    if tok.kind == "ident" and tok.value == "mode":
        cur.i += 1
        cur.take("op", "=")
        name = cur.take_ident()
        return ModeAtom(name.value)
    if tok.kind == "ident":
        cur.i += 1
        op = _take_cmp(cur)
        value = cur.take_int()
        return TokenAtom(tok.value, op, value)
    raise _Err((tok.line, tok.col), f"unexpected {tok.value!r} in predicate",
               ("identifier", "#identifier", "mode", "("))


def pred_and(*preds: Predicate) -> Predicate:
    """AND combinator that collapses a single operand (canonical shape)."""
    return preds[0] if len(preds) == 1 else And(tuple(preds))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@dataclass
class _Draft:
    meta: dict = field(default_factory=dict)
    places: list = field(default_factory=list)       # PlaceDef
    inits: dict = field(default_factory=dict)        # place id -> tokens
    transitions: list = field(default_factory=list)  # TransitionDef
    forbidden: list = field(default_factory=list)
    audits: list = field(default_factory=list)
    modes: list = field(default_factory=list)        # [id, disabled set, overrides dict]
    ratelimits: list = field(default_factory=list)


def _parse_lines(text: str, parse_line) -> None:
    """Run `parse_line` on a cursor over each non-blank line; a bad line
    yields one ParseError, and all of them are raised together at the end."""
    errors: list[ParseError] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            tokens = _tokenize_line(line, lineno)
            if tokens:
                cur = _Cursor(tokens, lineno, len(line))
                parse_line(cur)
                cur.expect_end()
        except _Err as e:
            errors.append(e.error)
    if errors:
        raise ParseFailure(errors)


def _parse_place(cur: _Cursor) -> tuple[PlaceDef, int]:
    """`<id> [cap k] [init n] [label "..."]`, after the `place` keyword."""
    name = cur.take_ident().value
    cap = None
    init = 0
    label = ""
    while not cur.at_end():
        if cur.accept_keyword("cap"):
            cap = cur.take_int(minimum=1)
        elif cur.accept_keyword("init"):
            init = cur.take_int(minimum=0)
        elif cur.accept_keyword("label"):
            label = cur.take_string()
        else:
            tok = cur.peek()
            raise _Err((tok.line, tok.col), f"unexpected {tok.value!r} in place declaration",
                       ("cap", "init", "label"))
    return PlaceDef(name, cap, label), init


_TRANS_WORDS = (*ARC_FIELDS, "guard", "counted")


def _parse_arc_list(cur: _Cursor) -> list[tuple[str, int]]:
    arcs = []
    while True:
        tok = cur.peek()
        if tok is None or tok.kind != "ident" or tok.value in _TRANS_WORDS:
            break
        place = cur.take_ident().value
        cur.take("op", ":")
        weight = cur.take_int(minimum=1)
        arcs.append((place, weight))
    return arcs


def _parse_trans(cur: _Cursor) -> TransitionDef:
    """`<id> [in|out|inhibit|read p:w ...] [guard pred] [counted]`, after `trans`."""
    name = cur.take_ident().value
    arcs: dict[str, list] = {}
    guard = None
    counted = False
    while not cur.at_end():
        tok = cur.peek()
        if tok.kind == "ident" and tok.value in ARC_FIELDS:
            cur.i += 1
            arcs.setdefault(ARC_FIELDS[tok.value], []).extend(_parse_arc_list(cur))
        elif cur.accept_keyword("guard"):
            guard = _parse_pred(cur)
        elif cur.accept_keyword("counted"):
            counted = True
        else:
            raise _Err((tok.line, tok.col), f"unexpected {tok.value!r} in transition declaration",
                       _TRANS_WORDS)
    return TransitionDef(name, guard=guard, counted=counted, **arcs)


def _parse_forbidden(cur: _Cursor) -> tuple[str, Predicate]:
    """`<name> := pred`, after the `forbidden` keyword."""
    name = cur.take_ident().value
    cur.take("op", ":=")
    return name, _parse_pred(cur)


def _parse_audit(cur: _Cursor) -> AuditRule:
    name = cur.take_ident().value
    cur.take("op", ":=")
    if cur.accept_keyword("counter"):
        t = cur.take_ident().value
        cur.take("op", ">")
        theta = cur.take_int(minimum=0)
        return CounterThreshold(name, t, theta)
    if cur.accept_keyword("rate"):
        t = cur.take_ident().value
        cur.take_keyword("max")
        k = cur.take_int(minimum=0)
        cur.take_keyword("per")
        w = cur.take_int(minimum=1)
        return RateThreshold(name, t, k, w)
    if cur.accept_keyword("occupancy"):
        p = cur.take_ident().value
        op = _take_cmp(cur)
        level = cur.take_int(minimum=0)
        return OccupancyThreshold(name, p, op, level)
    if cur.accept_keyword("pressure"):
        pred = cur.take_ident().value
        cur.take_keyword("within")
        dist = cur.take_int(minimum=0)
        return PressureThreshold(name, pred, dist)
    raise _Err(cur._here(), "expected audit rule kind",
               ("counter", "rate", "occupancy", "pressure"))


def _parse_line(cur: _Cursor, draft: _Draft):
    tok = cur.take_ident()
    kw = tok.value
    if kw == "meta":
        key = cur.take_ident().value
        draft.meta[key] = cur.take_string()
    elif kw == "place":
        place, init = _parse_place(cur)
        draft.places.append(place)
        draft.inits[place.id] = init
    elif kw == "trans":
        draft.transitions.append(_parse_trans(cur))
    elif kw == "forbidden":
        draft.forbidden.append(_parse_forbidden(cur))
    elif kw == "audit":
        draft.audits.append(_parse_audit(cur))
    elif kw == "mode":
        name = cur.take_ident().value
        disabled = []
        if cur.accept_keyword("disable"):
            while not cur.at_end():
                disabled.append(cur.take_ident().value)
        draft.modes.append([name, disabled, {}])
    elif kw == "override":
        mode = cur.take_ident().value
        trans = cur.take_ident().value
        cur.take("op", ":=")
        pred = _parse_pred(cur)
        for entry in draft.modes:
            if entry[0] == mode:
                entry[2][trans] = pred
                break
        else:
            raise _Err((tok.line, tok.col), f"override for undeclared mode {mode!r}")
    elif kw == "ratelimit":
        t = cur.take_ident().value
        cur.take_keyword("max")
        k = cur.take_int(minimum=1)
        cur.take_keyword("per")
        w = cur.take_int(minimum=1)
        draft.ratelimits.append(RateLimit(t, k, w))
    else:
        raise _Err((tok.line, tok.col), f"unknown keyword {kw!r}",
                   ("meta", "place", "trans", "forbidden", "audit", "mode", "override", "ratelimit"))


def parse_model(src: ModelSource | str) -> NetModel:
    """Parse and validate a model; macros are expanded.

    Raises ParseFailure with one ParseError per bad line, or StructureFailure
    when the parsed model violates net invariants.
    """
    if isinstance(src, str):
        src = ModelSource(src)
    draft = _Draft()
    _parse_lines(src.text, lambda cur: _parse_line(cur, draft))

    modes = tuple(
        ModeDef(mid, frozenset(dis), tuple(over.items()))
        for mid, dis, over in draft.modes
    )
    model = NetModel(
        places=tuple(draft.places),
        transitions=tuple(draft.transitions),
        initial=Marking.make(draft.inits),
        forbidden=tuple(draft.forbidden),
        audit_rules=tuple(draft.audits),
        modes=modes,
        metadata=tuple(draft.meta.items()),
    )
    model = expand_macros(model, draft.ratelimits)
    errs = validate_net(model)
    if errs:
        raise StructureFailure(errs)
    return model


# ---------------------------------------------------------------------------
# Macro expansion
# ---------------------------------------------------------------------------

def expand_macros(model: NetModel, ratelimits: list[RateLimit] | tuple = ()) -> NetModel:
    """Expand mode blocks and rate-limit macros into core-net primitives.

    Expansion is purely structural, idempotent (already-expanded structures
    are detected and skipped), and never renames user identifiers.

    `ratelimit t max k per w`: a budget place (k tokens) gates t; each firing
    parks a token in a (w+1)-stage return pipeline advanced by tick permits,
    one permit per tick, so t fires at most k times within any window of w
    consecutive tick intervals.
    """
    places = list(model.places)
    transitions = {t.id: t for t in model.transitions}
    tokens = dict(model.initial.tokens_map)

    if model.modes:
        existing = {p.id for p in places}
        fresh = [md for md in model.modes if md.place_id not in existing]
        none_existed = len(fresh) == len(model.modes)
        for md in model.modes:
            if md.place_id in existing:
                continue
            places.append(PlaceDef(md.place_id, capacity=1, label=f"mode {md.id}"))
            tokens[md.place_id] = 1 if (none_existed and md is model.modes[0]) else 0

    for rl in ratelimits:
        if rl.max_firings < 1 or rl.window < 1:
            raise MacroArity(f"ratelimit {rl.transition}: max {rl.max_firings} per {rl.window}")
        if rl.transition not in transitions:
            raise UnknownTransitionInMacro(f"ratelimit names unknown transition {rl.transition!r}")
        budget = f"{rl.transition}__budget"
        if any(p.id == budget for p in places):
            continue  # already expanded
        permit = f"{rl.transition}__permit"
        stages = [f"{rl.transition}__slot{i}" for i in range(1, rl.window + 2)]
        places.append(PlaceDef(budget, label=f"rate budget of {rl.transition}"))
        tokens[budget] = rl.max_firings
        places.append(PlaceDef(permit, capacity=1, label=f"tick permit of {rl.transition}"))
        tokens[permit] = 0
        for s in stages:
            places.append(PlaceDef(s))
            tokens[s] = 0
        t = transitions[rl.transition]
        transitions[rl.transition] = replace(
            t, inputs=t.inputs + ((budget, 1),), outputs=t.outputs + ((stages[0], 1),))
        transitions[f"{rl.transition}__tick"] = TransitionDef(
            f"{rl.transition}__tick", outputs=((permit, 1),))
        chain = stages + [budget]
        for i, s in enumerate(stages):
            transitions[f"{rl.transition}__adv{i + 1}"] = TransitionDef(
                f"{rl.transition}__adv{i + 1}",
                inputs=((s, 1), (permit, 1)),
                outputs=((chain[i + 1], 1),),
            )

    return replace(model, places=tuple(places), transitions=tuple(transitions.values()),
                   initial=Marking.make(tokens, dict(model.initial.counters_map)))


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

def format_predicate(pred: Predicate) -> str:
    if isinstance(pred, TokenAtom):
        return f"{pred.place} {pred.op} {pred.value}"
    if isinstance(pred, CounterAtom):
        return f"#{pred.transition} {pred.op} {pred.value}"
    if isinstance(pred, ModeAtom):
        return f"mode = {pred.mode}"
    if isinstance(pred, Not):
        return "not " + format_predicate(pred.operand)
    if isinstance(pred, (And, Or)):
        word = " and " if isinstance(pred, And) else " or "
        return "(" + word.join(map(format_predicate, pred.operands)) + ")"
    raise TypeError(f"not a predicate: {pred!r}")


def _place_line(p: PlaceDef, init: int) -> str:
    line = f"place {p.id}"
    if p.capacity is not None:
        line += f" cap {p.capacity}"
    if init:
        line += f" init {init}"
    if p.label:
        line += " label " + _quote(p.label)
    return line


def _trans_line(t: TransitionDef) -> str:
    line = f"trans {t.id}"
    for keyword, f in ARC_FIELDS.items():
        if arcs := getattr(t, f):
            line += f" {keyword} " + " ".join(f"{p}:{w}" for p, w in arcs)
    if t.guard is not None:
        line += " guard " + format_predicate(t.guard)
    if t.counted:
        line += " counted"
    return line


def _forbidden_line(name: str, pred: Predicate) -> str:
    return f"forbidden {name} := {format_predicate(pred)}"


def _format_audit(rule: AuditRule) -> str:
    if isinstance(rule, CounterThreshold):
        return f"audit {rule.id} := counter {rule.transition} > {rule.threshold}"
    if isinstance(rule, RateThreshold):
        return f"audit {rule.id} := rate {rule.transition} max {rule.max_firings} per {rule.window}"
    if isinstance(rule, OccupancyThreshold):
        return f"audit {rule.id} := occupancy {rule.place} {rule.op} {rule.level}"
    if isinstance(rule, PressureThreshold):
        return f"audit {rule.id} := pressure {rule.predicate} within {rule.max_distance}"
    raise TypeError(f"not an audit rule: {rule!r}")


def serialize_model(model: NetModel) -> ModelSource:
    """Canonical text form; parse(serialize(m)) is structurally equal to m."""
    init = model.initial.tokens_map
    lines = [f"meta {k} {_quote(v)}" for k, v in sorted(model.metadata)]
    lines += [_place_line(p, init.get(p.id, 0)) for p in sorted(model.places, key=lambda p: p.id)]
    lines += [_trans_line(t) for t in sorted(model.transitions, key=lambda t: t.id)]
    lines += [_forbidden_line(*kv) for kv in sorted(model.forbidden, key=lambda kv: kv[0])]
    lines += [_format_audit(r) for r in sorted(model.audit_rules, key=lambda r: r.id)]
    for md in sorted(model.modes, key=lambda m: m.id):
        line = f"mode {md.id}"
        if md.disabled:
            line += " disable " + " ".join(sorted(md.disabled))
        lines.append(line)
        for t, g in md.guard_overrides:
            lines.append(f"override {md.id} {t} := {format_predicate(g)}")
    return ModelSource("\n".join(lines) + "\n", "<serialized>")


# ---------------------------------------------------------------------------
# Structural equality and hashing
# ---------------------------------------------------------------------------

def structurally_equal(a: NetModel, b: NetModel) -> bool:
    """Equality of the canonical text, the one thing model_hash hashes."""
    return serialize_model(a).text == serialize_model(b).text


def model_hash(model: NetModel) -> str:
    """Content hash of the canonical serialization."""
    return hashlib.sha256(serialize_model(model).text.encode("utf-8")).hexdigest()
