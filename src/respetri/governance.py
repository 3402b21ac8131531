"""Declarative, logged, verified structural edits to a net.

A Patch is an ordered list of edit operations applied atomically: either the
whole patch applies and the result validates, or the original model is
returned untouched (an exception is raised and nothing is mutated). Every
applied patch can be recorded in an append-only, hash-chained governance log.
"""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

from .analysis import (
    DEFAULT_BOUND,
    ExplorationBound,
    Verdict,
    VerdictKind,
    explore,
    graph_verdict,
)
from .dsl import (
    _Cursor,
    _Err,
    _forbidden_line,
    _parse_forbidden,
    _parse_lines,
    _parse_place,
    _parse_pred,
    _parse_trans,
    _place_line,
    _quote,
    _trans_line,
    format_predicate,
    model_hash,
)
from .errors import (
    DanglingReference,
    HashChainBroken,
    PatchError,
    ResultingModelInvalid,
    UnknownTarget,
)
from .net import (
    ARC_FIELDS,
    Marking,
    NetModel,
    PlaceDef,
    Predicate,
    TransitionDef,
    validate_net,
)


# ---------------------------------------------------------------------------
# Edit operations
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


def format_op(op: EditOp) -> str:
    if isinstance(op, AddPlace):
        return "add " + _place_line(op.place, op.init)
    if isinstance(op, RemovePlace):
        return f"remove place {op.place}"
    if isinstance(op, AddTransition):
        return "add " + _trans_line(op.transition)
    if isinstance(op, RemoveTransition):
        return f"remove trans {op.transition}"
    if isinstance(op, AddArc):
        return f"add arc {op.kind} {op.place} {op.transition} {op.weight}"
    if isinstance(op, RemoveArc):
        return f"remove arc {op.kind} {op.place} {op.transition}"
    if isinstance(op, SetGuard):
        rhs = format_predicate(op.guard) if op.guard is not None else "none"
        return f"set guard {op.transition} {rhs}"
    if isinstance(op, SetCapacity):
        rhs = str(op.capacity) if op.capacity is not None else "none"
        return f"set capacity {op.place} {rhs}"
    if isinstance(op, AddForbidden):
        return "add " + _forbidden_line(op.name, op.predicate)
    if isinstance(op, SwitchMode):
        return f"switch mode {op.mode}"
    raise TypeError(f"not an edit op: {op!r}")


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
# Patch text format (.patch)
# ---------------------------------------------------------------------------

def parse_patch(text: str) -> Patch:
    """Parse the `.patch` text format; `add place|trans|forbidden` is `add `
    followed by the model line it adds."""
    header = {"author": "", "rationale": ""}
    ops: list[EditOp] = []

    def parse_line(cur: _Cursor):
        tok = cur.take_ident()
        if tok.value in header:
            header[tok.value] = cur.take_string()
        elif tok.value == "add":
            ops.append(_parse_add(cur))
        elif tok.value == "remove":
            ops.append(_parse_remove(cur))
        elif tok.value == "set":
            ops.append(_parse_set(cur))
        elif tok.value == "switch":
            cur.take_keyword("mode")
            ops.append(SwitchMode(cur.take_ident().value))
        else:
            raise _Err((tok.line, tok.col), f"unknown patch keyword {tok.value!r}",
                       ("author", "rationale", "add", "remove", "set", "switch"))

    _parse_lines(text, parse_line)
    return Patch(tuple(ops), header["author"], header["rationale"])


def _take_arc(cur: _Cursor) -> tuple[str, str, str]:
    """`<kind> <place> <transition>` of an arc op."""
    at, kind = cur._here(), cur.take_ident().value
    if kind not in ARC_FIELDS:
        raise _Err(at, f"bad arc kind {kind!r}", tuple(ARC_FIELDS))
    return kind, cur.take_ident().value, cur.take_ident().value


def _parse_add(cur: _Cursor) -> EditOp:
    at, what = cur._here(), cur.take_ident().value
    if what == "place":
        return AddPlace(*_parse_place(cur))
    if what == "trans":
        return AddTransition(_parse_trans(cur))
    if what == "arc":
        return AddArc(*_take_arc(cur), cur.take_int(minimum=1) if not cur.at_end() else 1)
    if what == "forbidden":
        return AddForbidden(*_parse_forbidden(cur))
    raise _Err(at, f"cannot add {what!r}", ("place", "trans", "arc", "forbidden"))


def _parse_remove(cur: _Cursor) -> EditOp:
    at, what = cur._here(), cur.take_ident().value
    if what == "place":
        return RemovePlace(cur.take_ident().value)
    if what == "trans":
        return RemoveTransition(cur.take_ident().value)
    if what == "arc":
        return RemoveArc(*_take_arc(cur))
    raise _Err(at, f"cannot remove {what!r}", ("place", "trans", "arc"))


def _parse_set(cur: _Cursor) -> EditOp:
    at, what = cur._here(), cur.take_ident().value
    if what == "guard":
        t = cur.take_ident().value
        return SetGuard(t, None if cur.accept_keyword("none") else _parse_pred(cur))
    if what == "capacity":
        p = cur.take_ident().value
        return SetCapacity(p, None if cur.accept_keyword("none") else cur.take_int(minimum=1))
    raise _Err(at, f"cannot set {what!r}", ("guard", "capacity"))


# ---------------------------------------------------------------------------
# Applying patches
# ---------------------------------------------------------------------------

def apply_patch(model: NetModel, patch: Patch) -> NetModel:
    """Apply the ops left-to-right and validate; all-or-nothing.

    A patch whose result still references an id it removed (and did not add
    back) fails with DanglingReference, naming the referrers: removals never
    cascade. Any other invalid result fails with ResultingModelInvalid.
    """
    places = {p.id: p for p in model.places}
    transitions = {t.id: t for t in model.transitions}
    tokens = dict(model.initial.tokens_map)
    counters = dict(model.initial.counters_map)
    forbidden = list(model.forbidden)

    for op in patch.ops:
        if isinstance(op, AddPlace):
            if op.place.id in places or op.place.id in transitions:
                raise PatchError(f"identifier {op.place.id!r} already exists")
            places[op.place.id] = op.place
            tokens[op.place.id] = op.init
        elif isinstance(op, RemovePlace):
            if op.place not in places:
                raise UnknownTarget(f"no place {op.place!r}")
            del places[op.place]
            tokens.pop(op.place, None)
        elif isinstance(op, AddTransition):
            t = op.transition
            if t.id in transitions or t.id in places:
                raise PatchError(f"identifier {t.id!r} already exists")
            transitions[t.id] = t
        elif isinstance(op, RemoveTransition):
            if op.transition not in transitions:
                raise UnknownTarget(f"no transition {op.transition!r}")
            del transitions[op.transition]
            counters.pop(op.transition, None)
        elif isinstance(op, AddArc):
            if op.transition not in transitions:
                raise UnknownTarget(f"no transition {op.transition!r}")
            if op.place not in places:
                raise UnknownTarget(f"no place {op.place!r}")
            t = transitions[op.transition]
            arcs = getattr(t, ARC_FIELDS[op.kind])
            if any(p == op.place for p, _ in arcs):
                raise PatchError(f"{op.kind}-arc {op.place}->{op.transition} already present")
            transitions[op.transition] = replace(
                t, **{ARC_FIELDS[op.kind]: arcs + ((op.place, op.weight),)})
        elif isinstance(op, RemoveArc):
            if op.transition not in transitions:
                raise UnknownTarget(f"no transition {op.transition!r}")
            t = transitions[op.transition]
            arcs = getattr(t, ARC_FIELDS[op.kind])
            kept = tuple(a for a in arcs if a[0] != op.place)
            if len(kept) == len(arcs):
                raise UnknownTarget(f"no {op.kind}-arc {op.place}->{op.transition}")
            transitions[op.transition] = replace(t, **{ARC_FIELDS[op.kind]: kept})
        elif isinstance(op, SetGuard):
            if op.transition not in transitions:
                raise UnknownTarget(f"no transition {op.transition!r}")
            transitions[op.transition] = replace(transitions[op.transition], guard=op.guard)
        elif isinstance(op, SetCapacity):
            if op.place not in places:
                raise UnknownTarget(f"no place {op.place!r}")
            places[op.place] = replace(places[op.place], capacity=op.capacity)
        elif isinstance(op, AddForbidden):
            if any(n == op.name for n, _ in forbidden):
                raise PatchError(f"forbidden predicate {op.name!r} already exists")
            forbidden.append((op.name, op.predicate))
        elif isinstance(op, SwitchMode):
            if op.mode not in [m.id for m in model.modes]:
                raise UnknownTarget(f"no mode {op.mode!r}")
            for m in model.modes:
                tokens[m.place_id] = 1 if m.id == op.mode else 0
        else:
            raise TypeError(f"not an edit op: {op!r}")

    patched = replace(model, places=tuple(places.values()),
                      transitions=tuple(transitions.values()),
                      initial=Marking.make(tokens, counters), forbidden=tuple(forbidden))
    errs = validate_net(patched)
    gone = {*model.place_ids, *model.transition_ids} - places.keys() - transitions.keys()
    dangling = [e for e in errs if e.code == "UnknownEndpoint" and e.element in gone]
    if dangling:
        raise DanglingReference("removal leaves dangling references: " + "; ".join(map(str, dangling)))
    if errs:
        raise ResultingModelInvalid(errs)
    return patched


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    patch_id: str
    pre_hash: str
    post_hash: str
    verdicts_before: tuple[tuple[str, Verdict], ...]
    verdicts_after: tuple[tuple[str, Verdict], ...]
    states_before: int
    states_after: int
    regressions: tuple[str, ...]           # predicates that went Safe -> not Safe
    predicates_added: tuple[str, ...]
    predicates_removed: tuple[str, ...]


def _verdicts(model: NetModel, bound: Optional[ExplorationBound]):
    """Every forbidden verdict of the model and its state count, from one exploration."""
    if bound is None:
        return (), 0
    graph = explore(model, bound)
    return tuple((n, graph_verdict(model, graph, n)) for n, _ in model.forbidden), len(graph.states)


def patch_report(model: NetModel, post: NetModel, patch: Patch,
                 bound: Optional[ExplorationBound] = None) -> VerificationReport:
    """The report for `post = apply_patch(model, patch)`.

    With a bound, each side is explored once for all its verdicts and its
    state count; without one, the report records only the hashes and the
    change to the predicate set.
    """
    before, states_before = _verdicts(model, bound)
    after, states_after = _verdicts(post, bound)
    names_before = [n for n, _ in model.forbidden]
    names_after = [n for n, _ in post.forbidden]
    before_map = dict(before)
    return VerificationReport(
        patch_id=patch.id,
        pre_hash=model_hash(model),
        post_hash=model_hash(post),
        verdicts_before=before,
        verdicts_after=after,
        states_before=states_before,
        states_after=states_after,
        regressions=tuple(
            n for n, v in after
            if n in before_map
            and before_map[n].kind is VerdictKind.SAFE
            and v.kind is not VerdictKind.SAFE
        ),
        predicates_added=tuple(n for n in names_after if n not in names_before),
        predicates_removed=tuple(n for n in names_before if n not in names_after),
    )


def verify_patch(model: NetModel, patch: Patch,
                 bound: ExplorationBound = DEFAULT_BOUND) -> VerificationReport:
    """Before/after verdicts for every named forbidden predicate.

    Flags regressions (Safe before, Unsafe or Unknown after) and any change
    to the predicate set itself, which governance must see explicitly.
    """
    return patch_report(model, apply_patch(model, patch), patch, bound)


# ---------------------------------------------------------------------------
# Governance log
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogEntry:
    timestamp: str
    patch_id: str
    pre_hash: str
    post_hash: str
    author: str
    rationale: str
    verdicts: tuple[tuple[str, str], ...]  # predicate -> "kind/proof"

    def to_json(self) -> str:
        return json.dumps({
            "timestamp": self.timestamp,
            "patch_id": self.patch_id,
            "pre_hash": self.pre_hash,
            "post_hash": self.post_hash,
            "author": self.author,
            "rationale": self.rationale,
            "verdicts": dict(self.verdicts),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "LogEntry":
        """Raises ValueError unless the line is a JSON object of exactly the
        entry's fields, each a string but `verdicts`, an object of strings."""
        d = json.loads(line)
        names = [f.name for f in fields(cls)]
        if not isinstance(d, dict) or sorted(d) != sorted(names) or not isinstance(d["verdicts"], dict):
            raise ValueError("not a JSON object with the fields " + ", ".join(names))
        texts = [d[n] for n in names if n != "verdicts"] + list(d["verdicts"].values())
        if not all(isinstance(v, str) for v in texts):
            raise ValueError("every field but verdicts, and every verdict, must be a string")
        return cls(**{**d, "verdicts": tuple(sorted(d["verdicts"].items()))})


@dataclass(frozen=True)
class GovernanceLog:
    """Append-only sequence of patch records with chained model hashes."""

    entries: tuple[LogEntry, ...] = ()

    def verify_chain(self) -> bool:
        for prev, cur in zip(self.entries, self.entries[1:]):
            if prev.post_hash != cur.pre_hash:
                return False
        return True

    def to_jsonl(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.entries)

    @classmethod
    def from_jsonl(cls, text: str) -> "GovernanceLog":
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                if line.strip():
                    entries.append(LogEntry.from_json(line))
            except ValueError as e:  # json.JSONDecodeError included
                raise HashChainBroken(f"governance log line {lineno}: {e}") from None
        log = cls(tuple(entries))
        if not log.verify_chain():
            raise HashChainBroken("governance log hash chain does not verify")
        return log


def record_decision(log: GovernanceLog, model_pre: NetModel, model_post: NetModel,
                    patch: Patch, report: VerificationReport,
                    timestamp: Optional[str] = None) -> GovernanceLog:
    """Append an entry; the new entry's pre-hash must extend the chain."""
    pre_hash = model_hash(model_pre)
    post_hash = model_hash(model_post)
    if report.pre_hash != pre_hash or report.post_hash != post_hash:
        raise HashChainBroken("verification report does not match the supplied models")
    if log.entries and log.entries[-1].post_hash != pre_hash:
        raise HashChainBroken(
            "pre-model hash does not equal the previous entry's post-model hash")
    entry = LogEntry(
        timestamp=timestamp or datetime.datetime.now(datetime.timezone.utc).isoformat(),
        patch_id=patch.id,
        pre_hash=pre_hash,
        post_hash=post_hash,
        author=patch.author,
        rationale=patch.rationale,
        verdicts=tuple(sorted((n, f"{v.kind.value}/{v.proof.value}")
                              for n, v in report.verdicts_after)),
    )
    return GovernanceLog(log.entries + (entry,))


def replay_log(genesis: NetModel, patches: list[Patch]) -> NetModel:
    """Apply a recorded patch sequence to the genesis model."""
    model = genesis
    for p in patches:
        model = apply_patch(model, p)
    return model
