"""Declarative, logged, verified structural edits to a net.

A Patch is an ordered list of edit operations applied atomically: either the
whole patch applies and the result validates, or the original model is
returned untouched (an exception is raised and nothing is mutated). Every
applied patch can be recorded in an append-only, hash-chained governance log.
The patch language itself (edit ops, Patch, parse_patch, format_op) lives in
dsl, next to the model language, and is re-exported here.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, fields, replace
from typing import Optional

from .analysis import (
    DEFAULT_BOUND,
    ExplorationBound,
    Verdict,
    VerdictKind,
    _check_bound,
    check_all_forbidden,
    explore,
)
from .dsl import (
    AddArc,
    AddForbidden,
    AddPlace,
    AddTransition,
    EditOp,
    Patch,
    RemoveArc,
    RemovePlace,
    RemoveTransition,
    SetCapacity,
    SetGuard,
    SwitchMode,
    format_op,
    model_hash,
    parse_patch,
)
from .errors import (
    DanglingReference,
    HashChainBroken,
    PatchError,
    ResultingModelInvalid,
    StructureFailure,
    UnknownTarget,
)
from .net import ARC_FIELDS, Marking, NetModel, compiled


# ---------------------------------------------------------------------------
# Applying patches
# ---------------------------------------------------------------------------

def apply_patch(model: NetModel, patch: Patch) -> NetModel:
    """Apply the ops left-to-right, then validate and compile; all-or-nothing.

    A patch whose result still references an id it removed (and did not add
    back) fails with DanglingReference, naming the referrers: removals never
    cascade. Any other invalid result fails with ResultingModelInvalid and
    validate_net's errors, so a duplicate arc or id names DuplicateArc or
    DuplicateId. Re-adding an existing place or transition, or an arc kind
    outside in|out|inhibit|read, is a PatchError.
    """
    places = {p.id: p for p in model.places}
    transitions = {t.id: t for t in model.transitions}
    if len(places) < len(model.places) or len(transitions) < len(model.transitions):
        compiled(model)  # a repeated id: raises the input's StructureFailure
    tokens = dict(model.initial.tokens_map)
    counters = dict(model.initial.counters_map)
    forbidden = list(model.forbidden)

    for op in patch.ops:
        if isinstance(op, (RemoveTransition, AddArc, RemoveArc, SetGuard)) and op.transition not in transitions:
            raise UnknownTarget(f"no transition {op.transition!r}")
        if isinstance(op, (RemovePlace, AddArc, SetCapacity)) and op.place not in places:
            raise UnknownTarget(f"no place {op.place!r}")
        if isinstance(op, (AddArc, RemoveArc)) and op.kind not in ARC_FIELDS:
            raise PatchError(f"bad arc kind {op.kind!r}")
        if isinstance(op, AddPlace):
            if op.place.id in places:
                raise PatchError(f"identifier {op.place.id!r} already exists")
            places[op.place.id] = op.place
            tokens[op.place.id] = op.init
        elif isinstance(op, RemovePlace):
            del places[op.place]
            tokens.pop(op.place, None)
        elif isinstance(op, AddTransition):
            t = op.transition
            if t.id in transitions:
                raise PatchError(f"identifier {t.id!r} already exists")
            transitions[t.id] = t
        elif isinstance(op, RemoveTransition):
            del transitions[op.transition]
            counters.pop(op.transition, None)
        elif isinstance(op, AddArc):
            t = transitions[op.transition]
            arcs = getattr(t, ARC_FIELDS[op.kind])
            transitions[op.transition] = replace(
                t, **{ARC_FIELDS[op.kind]: arcs + ((op.place, op.weight),)})
        elif isinstance(op, RemoveArc):
            t = transitions[op.transition]
            arcs = getattr(t, ARC_FIELDS[op.kind])
            kept = tuple(a for a in arcs if a[0] != op.place)
            if len(kept) == len(arcs):
                raise UnknownTarget(f"no {op.kind}-arc {op.place}->{op.transition}")
            transitions[op.transition] = replace(t, **{ARC_FIELDS[op.kind]: kept})
        elif isinstance(op, SetGuard):
            transitions[op.transition] = replace(transitions[op.transition], guard=op.guard)
        elif isinstance(op, SetCapacity):
            places[op.place] = replace(places[op.place], capacity=op.capacity)
        elif isinstance(op, AddForbidden):
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
    try:
        compiled(patched)
    except StructureFailure as e:
        gone = {*model.place_ids, *model.transition_ids} - places.keys() - transitions.keys()
        dangling = [err for err in e.errors if err.code == "UnknownEndpoint" and err.element in gone]
        if dangling:
            raise DanglingReference("removal leaves dangling references: "
                                    + "; ".join(map(str, dangling))) from None
        raise ResultingModelInvalid(e.errors) from None
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
    return tuple(check_all_forbidden(model, bound).items()), len(explore(model, bound).states)


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
    _check_bound(bound)
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

    def __post_init__(self):
        """Raises ValueError unless every field but `verdicts`, and each
        verdict's predicate and value, is a string: the entry a log line holds."""
        texts = [getattr(self, f.name) for f in fields(self) if f.name != "verdicts"]
        if not all(isinstance(v, str) for v in texts + [v for pair in self.verdicts for v in pair]):
            raise ValueError("every field but verdicts, and every verdict, must be a string")

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps({**d, "verdicts": dict(self.verdicts)}, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "LogEntry":
        """Raises ValueError unless the line is a JSON object of exactly the
        entry's fields, `verdicts` an object, whose values make an entry."""
        d = json.loads(line)
        names = [f.name for f in fields(cls)]
        if not isinstance(d, dict) or sorted(d) != sorted(names) or not isinstance(d["verdicts"], dict):
            raise ValueError("not a JSON object with the fields " + ", ".join(names))
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
    """Append an entry; the report must be the patch's on these models, and
    the new entry's pre-hash must extend the chain."""
    pre_hash = model_hash(model_pre)
    post_hash = model_hash(model_post)
    if (report.patch_id, report.pre_hash, report.post_hash) != (patch.id, pre_hash, post_hash):
        raise HashChainBroken("verification report does not match the supplied patch and models")
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
