"""Textual model and patch languages: parsers, canonical serializer, macro expansion.

The `.net` format is line-oriented. `_MODEL_LINES` owns its keywords (`meta`,
`place`, `trans`, `forbidden`, `audit`, `mode`, `override`, `ratelimit`), each
with its reader; `_read_clauses` owns the clause rules of `place` and `trans`
lines, read from one table each. Comments start with `#` followed by
a non-identifier character; `#name` is a counter atom inside predicates. No
word is reserved: one token of lookahead tells a keyword from an id, so
`in:1` in an arc list, `not >= 1` and `mode = 1` name places.

Canonical serialization orders blocks as places, transitions, forbidden,
audit, modes, each sorted by identifier, and is byte-stable: it is the
model's identity (structural equality and the hash both read it), and
parse(serialize(m)) serializes to the same text.

A `.patch` file holds an optional `author` and `rationale` and one edit op
per line; `add place|trans|forbidden` is `add ` and the model line it adds.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import (
    MacroArity,
    ParseFailure,
    UnknownTransitionInMacro,
)
from .net import (
    ARC_FIELDS,
    IDENT,
    MAX_NESTING,
    _AUDIT_MINIMA,
    _OPS,
    _is_int,
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
    compiled,
)


@dataclass(frozen=True)
class ModelSource:
    text: str


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
# Edit operations and patches: the `.patch` language
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AddPlace:
    place: PlaceDef
    init: int = 0


@dataclass(frozen=True)
class RemovePlace:
    place: str


@dataclass(frozen=True)
class AddTransition:
    transition: TransitionDef


@dataclass(frozen=True)
class RemoveTransition:
    transition: str


@dataclass(frozen=True)
class AddArc:
    kind: str  # in | out | inhibit | read
    place: str
    transition: str
    weight: int = 1


@dataclass(frozen=True)
class RemoveArc:
    kind: str
    place: str
    transition: str


@dataclass(frozen=True)
class SetGuard:
    transition: str
    guard: Optional[Predicate]


@dataclass(frozen=True)
class SetCapacity:
    place: str
    capacity: Optional[int]


@dataclass(frozen=True)
class AddForbidden:
    name: str
    predicate: Predicate


@dataclass(frozen=True)
class SwitchMode:
    mode: str


EditOp = Union[AddPlace, RemovePlace, AddTransition, RemoveTransition, AddArc,
               RemoveArc, SetGuard, SetCapacity, AddForbidden, SwitchMode]


@dataclass(frozen=True)
class Patch:
    ops: tuple[EditOp, ...]
    author: str = ""
    rationale: str = ""

    @property
    def id(self) -> str:
        body = "\n".join(format_op(op) for op in self.ops)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def to_text(self) -> str:
        lines = [f"{key} {_quote(value)}" for key, value in
                 (("author", self.author), ("rationale", self.rationale)) if value]
        lines += [format_op(op) for op in self.ops]
        return "\n".join(lines) + "\n"


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

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.i + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def here(self):
        tok = self.peek()
        return (self.lineno, tok.col if tok else self.line_len + 1)

    def take(self, kind: str, value: str | None = None, expected=()) -> Token:
        tok = self.peek()
        what = value or kind
        if tok is None:
            raise _Err(self.here(), f"unexpected end of line, wanted {what}", expected or (what,))
        if tok.kind != kind or (value is not None and tok.value != value):
            raise _Err(self.here(), f"unexpected {tok.value!r}, wanted {what}", expected or (what,))
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

    def at(self, kind: str, value: str | None = None, ahead: int = 0) -> bool:
        """True iff the token `ahead` places on is of this kind (and value)."""
        tok = self.peek(ahead)
        return tok is not None and tok.kind == kind and value in (None, tok.value)

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


def _parse_pred(cur: _Cursor, level: int = 1) -> Predicate:
    """The `or` of `and`s of operands at one level, read in a loop; only a
    parenthesis recurses, so the deepest predicate that parses is the same
    for every caller."""
    terms: list[Predicate] = []      # the `or` operands read so far
    factors: list[Predicate] = []    # the `and` operands of the current term
    while True:
        nots = 0
        while cur.at("ident", "not") and not _is_cmp(cur.peek(1)):  # `not >= 1` is an atom
            cur.i += 1
            nots += 1
        if level + nots > MAX_NESTING:
            raise _Err((cur.lineno, 1), "predicate nested too deeply")
        if cur.at("op", "("):
            cur.i += 1
            operand = _parse_pred(cur, level + nots + 1)
            cur.take("op", ")")
        else:
            operand = _parse_atom(cur)
        for _ in range(nots):
            operand = Not(operand)
        factors.append(operand)
        if not cur.accept_keyword("and"):
            terms.append(factors[0] if len(factors) == 1 else And(tuple(factors)))
            if not cur.accept_keyword("or"):
                return terms[0] if len(terms) == 1 else Or(tuple(terms))
            factors = []


def _is_cmp(tok: Token | None) -> bool:
    return tok is not None and tok.kind == "op" and tok.value in _CMP_OPS


def _take_cmp(cur: _Cursor) -> str:
    tok = cur.peek()
    if not _is_cmp(tok):
        raise _Err(cur.here(), "expected comparison operator", _CMP_OPS)
    cur.i += 1
    return tok.value


def _parse_atom(cur: _Cursor) -> Predicate:
    tok = cur.peek()
    if tok is None:
        raise _Err(cur.here(), "expected predicate atom", ("identifier", "#identifier", "("))
    if tok.kind == "counter":
        cur.i += 1
        op = _take_cmp(cur)
        value = cur.take_int()
        return CounterAtom(tok.value[1:], op, value)
    if tok.kind == "ident" and tok.value == "mode" and cur.at("op", "=", 1) and cur.at("ident", ahead=2):
        name = cur.peek(2).value
        cur.i += 3
        return ModeAtom(name)
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
# Line forms: one string both reads and writes the line of each audit rule and
# of each edit op but `add place|trans|forbidden` (`add ` and the model line
# it adds). A braced word is the field of that name; any other word is literal.
# ---------------------------------------------------------------------------

_AUDIT_HEAD = "audit {id} :="
_AUDIT_FORMS = {  # each follows the head
    CounterThreshold: "counter {transition} > {threshold}",
    RateThreshold: "rate {transition} max {max_firings} per {window}",
    OccupancyThreshold: "occupancy {place} {op} {level}",
    PressureThreshold: "pressure {predicate} within {max_distance}",
}
_OP_FORMS = {
    AddArc: "add arc {kind} {place} {transition} {weight}",
    RemovePlace: "remove place {place}",
    RemoveTransition: "remove trans {transition}",
    RemoveArc: "remove arc {kind} {place} {transition}",
    SetGuard: "set guard {transition} {guard}",
    SetCapacity: "set capacity {place} {capacity}",
    SwitchMode: "switch mode {mode}",
}


def _read_form(cur: _Cursor, form: str, start: int) -> dict:
    """The fields of `form`, read from its word `start` on."""
    fields = {}
    for word in form.split()[start:]:
        name = word[1:-1]
        if not word.startswith("{"):
            cur.take("ident" if word.isidentifier() else "op", word)
        elif name == "kind":
            at, kind = cur.here(), cur.take_ident().value
            if kind not in ARC_FIELDS:
                raise _Err(at, f"bad arc kind {kind!r}", tuple(ARC_FIELDS))
            fields[name] = kind
        elif name == "op":
            fields[name] = _take_cmp(cur)
        elif name == "guard":  # `none` clears it only when it ends the line: `none >= 1` is a guard
            fields[name] = None if cur.peek(1) is None and cur.accept_keyword("none") else _parse_pred(cur)
        elif name == "capacity":
            fields[name] = None if cur.accept_keyword("none") else cur.take_int(minimum=1)
        elif name == "weight":  # optional: a line that ends before it keeps the default
            if not cur.at_end():
                fields[name] = cur.take_int(minimum=1)
        elif name in _AUDIT_MINIMA:
            fields[name] = cur.take_int(minimum=_AUDIT_MINIMA[name])
        else:
            fields[name] = cur.take_ident().value
    return fields


def _write_form(form: str, obj) -> str:
    """`form` with each field replaced by obj's value of it."""
    def value(m):
        name, v = m[1], getattr(obj, m[1])
        if name in ("guard", "capacity") and v is None:
            return "none"
        return format_predicate(v) if name == "guard" else str(v)
    return re.sub(r"\{(\w+)\}", value, form)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

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


def _parse_arc_list(cur: _Cursor) -> list[tuple[str, int]]:
    """`p:w ...`; a clause word is a place when `:` follows it."""
    arcs = []
    while cur.at("ident") and (cur.peek().value not in _TRANS_CLAUSES or cur.at("op", ":", 1)):
        place = cur.take_ident().value
        cur.take("op", ":")
        arcs.append((place, cur.take_int(minimum=1)))
    return arcs


# A declaration's clauses: word -> (field, reader of what follows the word, or
# None for a flag, the word alone), in the order error messages list the words.
_PLACE_CLAUSES = {
    "cap": ("capacity", lambda cur: cur.take_int(minimum=1)),
    "init": ("init", lambda cur: cur.take_int(minimum=0)),
    "label": ("label", _Cursor.take_string),
}
_TRANS_CLAUSES = {
    **{word: (f, _parse_arc_list) for word, f in ARC_FIELDS.items()},
    "guard": ("guard", _parse_pred),
    "counted": ("counted", None),
}


def _read_clauses(cur: _Cursor, what: str, table: dict) -> dict:
    """The fields of the clauses up to the end of the line, in any order: an
    arc list accumulates, a flag may repeat, any other clause comes at most once."""
    fields: dict = {}
    while not cur.at_end():
        tok = cur.peek()
        if tok.kind != "ident" or tok.value not in table:
            raise _Err((tok.line, tok.col), f"unexpected {tok.value!r} in {what} declaration", tuple(table))
        cur.i += 1
        name, read = table[tok.value]
        if read is _parse_arc_list:
            fields.setdefault(name, []).extend(read(cur))
        elif read is not None and name in fields:
            raise _Err((tok.line, tok.col), f"second {tok.value!r} clause: a declaration has at most one")
        else:
            fields[name] = read(cur) if read else True
    return fields


def _parse_place(cur: _Cursor) -> tuple[PlaceDef, int]:
    """`<id> [cap k] [init n] [label "..."]`, after the `place` keyword."""
    name = cur.take_ident().value
    fields = _read_clauses(cur, "place", _PLACE_CLAUSES)
    init = fields.pop("init", 0)
    return PlaceDef(name, **fields), init


def _parse_trans(cur: _Cursor) -> TransitionDef:
    """`<id> [in|out|inhibit|read p:w ...] [guard pred] [counted]`, after `trans`."""
    return TransitionDef(cur.take_ident().value, **_read_clauses(cur, "transition", _TRANS_CLAUSES))


def _parse_named_pred(cur: _Cursor) -> tuple[str, Predicate]:
    """`<name> := pred`: a `forbidden` line after its keyword, an `override` line after its mode."""
    name = cur.take_ident().value
    cur.take("op", ":=")
    return name, _parse_pred(cur)


def _parse_audit(cur: _Cursor) -> AuditRule:
    """`<id> := <kind> ...`, after the `audit` keyword."""
    head = _read_form(cur, _AUDIT_HEAD, 1)
    for cls, form in _AUDIT_FORMS.items():
        if cur.accept_keyword(form.split()[0]):
            return cls(**head, **_read_form(cur, form, 1))
    raise _Err(cur.here(), "expected audit rule kind", tuple(f.split()[0] for f in _AUDIT_FORMS.values()))


def _parse_mode(cur: _Cursor) -> ModeDef:
    """`<id> [disable t ...]`, after the `mode` keyword."""
    name = cur.take_ident().value
    disabled = []
    if cur.accept_keyword("disable"):
        while not cur.at_end():
            disabled.append(cur.take_ident().value)
    return ModeDef(name, disabled)


def _parse_ratelimit(cur: _Cursor) -> RateLimit:
    """`<t> max k per w`, after the `ratelimit` keyword."""
    t = cur.take_ident().value
    cur.take("ident", "max")
    k = cur.take_int(minimum=1)
    cur.take("ident", "per")
    return RateLimit(t, k, cur.take_int(minimum=1))


# model keyword -> (the NetModel field its lines add to, reader of the rest of
# the line), in the order error messages list the keywords. `place` lines add
# (place, initial tokens) pairs and `ratelimit` lines the macros to expand;
# `override` has no reader: it rebuilds a mode read before it.
_MODEL_LINES = {
    "meta": ("metadata", lambda cur: (cur.take_ident().value, cur.take_string())),
    "place": ("places", _parse_place),
    "trans": ("transitions", _parse_trans),
    "forbidden": ("forbidden", _parse_named_pred),
    "audit": ("audit_rules", _parse_audit),
    "mode": ("modes", _parse_mode),
    "override": ("modes", None),
    "ratelimit": ("ratelimits", _parse_ratelimit),
}


def _parse_line(cur: _Cursor, lines: dict) -> None:
    """Read one model line into the list of its keyword's field in `lines`."""
    tok = cur.take_ident()
    if tok.value not in _MODEL_LINES:
        raise _Err((tok.line, tok.col), f"unknown keyword {tok.value!r}", tuple(_MODEL_LINES))
    name, read = _MODEL_LINES[tok.value]
    if read is not None:
        lines[name].append(read(cur))
        return
    at, mode = cur.here(), cur.take_ident().value
    override, modes = _parse_named_pred(cur), lines[name]
    i = next((i for i, md in enumerate(modes) if md.id == mode), None)
    if i is None:
        raise _Err(at, f"override for undeclared mode {mode!r}")
    modes[i] = replace(modes[i], guard_overrides=(*modes[i].guard_overrides, override))


def parse_model(src: ModelSource | str) -> NetModel:
    """Parse, validate and compile a model; macros are expanded.

    Raises ParseFailure with one ParseError per bad line, or StructureFailure
    (from `compiled`) when the parsed model violates net invariants.
    """
    model = _parse_model(src)
    compiled(model)
    return model


def _parse_model(src: ModelSource | str) -> NetModel:
    """parse_model without the validation, for a caller that validates a patched copy."""
    lines = {name: [] for name, _ in _MODEL_LINES.values()}
    _parse_lines(src if isinstance(src, str) else src.text, lambda cur: _parse_line(cur, lines))
    places, ratelimits = lines.pop("places"), lines.pop("ratelimits")
    model = NetModel(places=[p for p, _ in places], initial=Marking.make({p.id: n for p, n in places}), **lines)
    return expand_macros(model, ratelimits)


# ---------------------------------------------------------------------------
# Macro expansion
# ---------------------------------------------------------------------------

def expand_macros(model: NetModel, ratelimits: list[RateLimit] | tuple = ()) -> NetModel:
    """Expand mode blocks and rate-limit macros into core-net primitives.

    Expansion is purely structural and never renames user identifiers. Mode
    places that already exist are kept; the ids a ratelimit generates are
    appended as they are, so validate_net rejects one that is taken.

    `ratelimit t max k per w`: a budget place (k tokens) gates t; each firing
    parks a token in a (w+1)-stage return pipeline advanced by tick permits,
    one permit per tick, so t fires at most k times within any window of w
    consecutive tick intervals.
    """
    places = list(model.places)
    transitions = list(model.transitions)
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
        if not all(_is_int(v) and v >= 1 for v in (rl.max_firings, rl.window)):
            raise MacroArity(f"ratelimit {rl.transition}: max {rl.max_firings!r} per {rl.window!r}")
        i = next((i for i, t in enumerate(transitions) if t.id == rl.transition), None)
        if i is None:
            raise UnknownTransitionInMacro(f"ratelimit names unknown transition {rl.transition!r}")
        budget = f"{rl.transition}__budget"
        permit = f"{rl.transition}__permit"
        stages = [f"{rl.transition}__slot{j}" for j in range(1, rl.window + 2)]
        places.append(PlaceDef(budget, label=f"rate budget of {rl.transition}"))
        tokens[budget] = rl.max_firings
        places.append(PlaceDef(permit, capacity=1, label=f"tick permit of {rl.transition}"))
        tokens[permit] = 0
        for s in stages:
            places.append(PlaceDef(s))
            tokens[s] = 0
        t = transitions[i]
        transitions[i] = replace(t, inputs=t.inputs + ((budget, 1),), outputs=t.outputs + ((stages[0], 1),))
        transitions.append(TransitionDef(f"{rl.transition}__tick", outputs=((permit, 1),)))
        chain = stages + [budget]
        transitions += [TransitionDef(f"{rl.transition}__adv{j}", inputs=((s, 1), (permit, 1)),
                                      outputs=((chain[j], 1),)) for j, s in enumerate(stages, 1)]

    return replace(model, places=tuple(places), transitions=tuple(transitions),
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
    if type(rule) not in _AUDIT_FORMS:
        raise TypeError(f"not an audit rule: {rule!r}")
    return _write_form(f"{_AUDIT_HEAD} {_AUDIT_FORMS[type(rule)]}", rule)


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
    return ModelSource("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Structural equality and hashing
# ---------------------------------------------------------------------------

def structurally_equal(a: NetModel, b: NetModel) -> bool:
    """Equality of the canonical text, the one thing model_hash hashes."""
    return serialize_model(a).text == serialize_model(b).text


def model_hash(model: NetModel) -> str:
    """Content hash of the canonical serialization."""
    return hashlib.sha256(serialize_model(model).text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Patch text (.patch)
# ---------------------------------------------------------------------------

def format_op(op: EditOp) -> str:
    if isinstance(op, AddPlace):
        return "add " + _place_line(op.place, op.init)
    if isinstance(op, AddTransition):
        return "add " + _trans_line(op.transition)
    if isinstance(op, AddForbidden):
        return "add " + _forbidden_line(op.name, op.predicate)
    if type(op) not in _OP_FORMS:
        raise TypeError(f"not an edit op: {op!r}")
    return _write_form(_OP_FORMS[type(op)], op)


# (verb, the word after it) -> reader of the rest of the line, in the order
# error messages list the words
_OP_READERS = {
    ("add", "place"): lambda cur: AddPlace(*_parse_place(cur)),
    ("add", "trans"): lambda cur: AddTransition(_parse_trans(cur)),
    **{tuple(form.split()[:2]): lambda cur, cls=cls, form=form: cls(**_read_form(cur, form, 2))
       for cls, form in _OP_FORMS.items()},
    ("add", "forbidden"): lambda cur: AddForbidden(*_parse_named_pred(cur)),
}


def parse_patch(text: str) -> Patch:
    """Parse the `.patch` text format; `add place|trans|forbidden` is `add `
    followed by the model line it adds."""
    header = {"author": None, "rationale": None}
    verbs = tuple(dict.fromkeys(verb for verb, _ in _OP_READERS))
    ops: list[EditOp] = []

    def parse_line(cur: _Cursor):
        tok = cur.take_ident()
        if tok.value in header:
            if header[tok.value] is not None:
                raise _Err((tok.line, tok.col), f"second {tok.value!r} line: a patch has at most one")
            header[tok.value] = cur.take_string()
            return
        if tok.value not in verbs:
            raise _Err((tok.line, tok.col), f"unknown patch keyword {tok.value!r}", (*header, *verbs))
        readers = {what: read for (verb, what), read in _OP_READERS.items() if verb == tok.value}
        what = cur.peek()
        if not cur.at("ident") or what.value not in readers:
            raise _Err(cur.here(), f"cannot {tok.value} {what.value!r}" if what else f"nothing to {tok.value}",
                       tuple(readers))
        cur.i += 1
        ops.append(readers[what.value](cur))

    _parse_lines(text, parse_line)
    return Patch(tuple(ops), header["author"] or "", header["rationale"] or "")
