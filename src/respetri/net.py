"""Net data model and token-game firing semantics.

Supports weighted arcs, inhibitor and read (permit) arcs, capacity places,
marking guards, firing counters, and policy modes. Models and markings are
immutable values; every operation here is a pure function.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Union

from .errors import NotEnabled, UnknownPredicate, UnknownReference, UnknownTransition

MODE_PLACE_PREFIX = "mode_"

# What the text format reads as an identifier; every id must match it.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT)

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}

# arc keyword -> TransitionDef field, in canonical order
ARC_FIELDS = {"in": "inputs", "out": "outputs", "inhibit": "inhibitors", "read": "reads"}


def _check_op(self):
    if self.op not in _OPS:
        raise ValueError(f"bad comparison operator {self.op!r}")


def _check_operands(self):
    if len(self.operands) < 2:
        raise ValueError(f"{type(self).__name__} needs at least two operands, got {len(self.operands)}")


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenAtom:
    """tokens(place) <op> value"""

    place: str
    op: str
    value: int

    __post_init__ = _check_op


@dataclass(frozen=True)
class CounterAtom:
    """counter(transition) <op> value"""

    transition: str
    op: str
    value: int

    __post_init__ = _check_op


@dataclass(frozen=True)
class ModeAtom:
    """mode = name (true iff the named mode's place is marked)"""

    mode: str


@dataclass(frozen=True)
class Not:
    operand: "Predicate"


@dataclass(frozen=True)
class And:
    operands: tuple["Predicate", ...]

    __post_init__ = _check_operands


@dataclass(frozen=True)
class Or:
    operands: tuple["Predicate", ...]

    __post_init__ = _check_operands


Predicate = Union[TokenAtom, CounterAtom, ModeAtom, Not, And, Or]


def predicate_atoms(pred: Predicate) -> Iterable[Predicate]:
    """Yield every atom of the expression tree."""
    stack = [pred]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend(node.operands)
        elif isinstance(node, Not):
            stack.append(node.operand)
        else:
            yield node


def is_upward_closed(pred: Predicate) -> bool:
    """Syntactic upward-closure check (sound, not complete).

    A predicate qualifies iff it is NOT-free, contains no mode atoms, and all
    token/counter atoms use >= or >.
    """
    stack = [pred]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            return False
        if isinstance(node, ModeAtom):
            return False
        if isinstance(node, (And, Or)):
            stack.extend(node.operands)
        elif isinstance(node, (TokenAtom, CounterAtom)):
            if node.op not in (">=", ">"):
                return False
    return True


# ---------------------------------------------------------------------------
# Markings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Marking:
    """Total map place -> token count, plus counter values for counted transitions."""

    tokens: tuple[tuple[str, int], ...]
    counters: tuple[tuple[str, int], ...] = ()
    _tok: dict = field(init=False, repr=False, compare=False, default=None)
    _cnt: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(sorted(self.tokens)))
        object.__setattr__(self, "counters", tuple(sorted(self.counters)))
        object.__setattr__(self, "_tok", dict(self.tokens))
        object.__setattr__(self, "_cnt", dict(self.counters))

    @classmethod
    def make(cls, tokens: Mapping[str, int], counters: Mapping[str, int] | None = None) -> "Marking":
        return cls(tuple(tokens.items()), tuple((counters or {}).items()))

    def tokens_at(self, place: str) -> int:
        try:
            return self._tok[place]
        except KeyError:
            raise UnknownReference(f"unknown place {place!r}") from None

    def counter_of(self, transition: str) -> int:
        return self._cnt.get(transition, 0)

    @property
    def tokens_map(self) -> Mapping[str, int]:
        return self._tok

    @property
    def counters_map(self) -> Mapping[str, int]:
        return self._cnt

    def __hash__(self):
        return hash((self.tokens, self.counters))


def eval_predicate(pred: Predicate, m: Marking) -> bool:
    """Truth value of a predicate at a marking. Total and side-effect free."""
    if isinstance(pred, TokenAtom):
        return _OPS[pred.op](m.tokens_at(pred.place), pred.value)
    if isinstance(pred, CounterAtom):
        return _OPS[pred.op](m.counter_of(pred.transition), pred.value)
    if isinstance(pred, ModeAtom):
        return m.tokens_at(MODE_PLACE_PREFIX + pred.mode) >= 1
    if isinstance(pred, Not):
        return not eval_predicate(pred.operand, m)
    if isinstance(pred, And):
        return all(eval_predicate(p, m) for p in pred.operands)
    if isinstance(pred, Or):
        return any(eval_predicate(p, m) for p in pred.operands)
    raise TypeError(f"not a predicate: {pred!r}")


# ---------------------------------------------------------------------------
# Net structure
# ---------------------------------------------------------------------------

def _norm_arcs(arcs) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((str(p), int(w)) for p, w in arcs))


@dataclass(frozen=True)
class PlaceDef:
    id: str
    capacity: Optional[int] = None
    label: str = ""


@dataclass(frozen=True)
class TransitionDef:
    id: str
    inputs: tuple[tuple[str, int], ...] = ()
    outputs: tuple[tuple[str, int], ...] = ()
    inhibitors: tuple[tuple[str, int], ...] = ()
    reads: tuple[tuple[str, int], ...] = ()
    guard: Optional[Predicate] = None
    counted: bool = False

    def __post_init__(self):
        for f in ARC_FIELDS.values():
            object.__setattr__(self, f, _norm_arcs(getattr(self, f)))


@dataclass(frozen=True)
class ModeDef:
    id: str
    disabled: frozenset = frozenset()
    guard_overrides: tuple[tuple[str, Predicate], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "disabled", frozenset(self.disabled))
        object.__setattr__(self, "guard_overrides", tuple(sorted(self.guard_overrides, key=lambda kv: kv[0])))

    @property
    def place_id(self) -> str:
        return MODE_PLACE_PREFIX + self.id


# ---------------------------------------------------------------------------
# Audit rules (model-level declarations; evaluated by the audit module)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterThreshold:
    id: str
    transition: str
    threshold: int


@dataclass(frozen=True)
class RateThreshold:
    id: str
    transition: str
    max_firings: int
    window: int


@dataclass(frozen=True)
class OccupancyThreshold:
    id: str
    place: str
    op: str
    level: int

    __post_init__ = _check_op


@dataclass(frozen=True)
class PressureThreshold:
    id: str
    predicate: str
    max_distance: int


AuditRule = Union[CounterThreshold, RateThreshold, OccupancyThreshold, PressureThreshold]


@dataclass(frozen=True)
class NetModel:
    """Immutable net structure; the unit all analysis and simulation operates on.
    `initial` starts the counter of each counted transition it omits at 0."""

    places: tuple[PlaceDef, ...]
    transitions: tuple[TransitionDef, ...]
    initial: Marking
    forbidden: tuple[tuple[str, Predicate], ...] = ()
    audit_rules: tuple[AuditRule, ...] = ()
    modes: tuple[ModeDef, ...] = ()
    metadata: tuple[tuple[str, str], ...] = ()
    _pindex: dict = field(init=False, repr=False, compare=False, default=None)
    _tindex: dict = field(init=False, repr=False, compare=False, default=None)
    _compiled: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(self.places))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "forbidden", tuple(self.forbidden))
        object.__setattr__(self, "audit_rules", tuple(self.audit_rules))
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "metadata", tuple(sorted(self.metadata)))
        object.__setattr__(self, "_pindex", {p.id: p for p in self.places})
        object.__setattr__(self, "_tindex", {t.id: t for t in self.transitions})
        counters = self.initial.counters_map
        zeros = tuple((t.id, 0) for t in self.transitions if t.counted and t.id not in counters)
        if zeros:
            object.__setattr__(self, "initial", Marking(self.initial.tokens, self.initial.counters + zeros))

    # -- lookups ------------------------------------------------------------

    @property
    def place_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.places)

    @property
    def transition_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.transitions)

    def place(self, pid: str) -> PlaceDef:
        try:
            return self._pindex[pid]
        except KeyError:
            raise UnknownReference(f"unknown place {pid!r}") from None

    def transition(self, tid: str) -> TransitionDef:
        try:
            return self._tindex[tid]
        except KeyError:
            raise UnknownTransition(f"unknown transition {tid!r}") from None

    def has_place(self, pid: str) -> bool:
        return pid in self._pindex

    def has_transition(self, tid: str) -> bool:
        return tid in self._tindex

    def forbidden_predicate(self, name: str) -> Predicate:
        for n, p in self.forbidden:
            if n == name:
                return p
        raise UnknownPredicate(f"no forbidden predicate named {name!r}")

    @property
    def counted_transitions(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.transitions if t.counted)

    def active_mode(self, m: Marking) -> Optional[ModeDef]:
        """The mode whose place carries the token, or None for mode-free nets;
        UnknownReference unless m marks exactly one mode place."""
        marked = [md for md in self.modes if m.tokens_at(md.place_id) >= 1]
        if len(marked) != (1 if self.modes else 0):
            raise UnknownReference(f"expected exactly one marked mode place, found {len(marked)}")
        return marked[0] if marked else None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureError:
    code: str
    element: str
    message: str

    def __str__(self):
        return f"{self.code}({self.element}): {self.message}"


def _predicate_errors(model: NetModel, pred: Predicate, where: str) -> list[StructureError]:
    errs = []
    for atom in predicate_atoms(pred):
        if isinstance(atom, TokenAtom) and not model.has_place(atom.place):
            errs.append(StructureError("UnknownEndpoint", atom.place, f"{where} references unknown place"))
        elif isinstance(atom, CounterAtom) and not model.has_transition(atom.transition):
            errs.append(StructureError("UnknownEndpoint", atom.transition, f"{where} references unknown transition"))
        elif isinstance(atom, ModeAtom) and not any(m.id == atom.mode for m in model.modes):
            errs.append(StructureError("UnknownEndpoint", atom.mode, f"{where} references unknown mode"))
    return errs


# least value of each integer field of the audit rules
_AUDIT_MINIMA = {"threshold": 0, "max_firings": 0, "window": 1, "level": 0, "max_distance": 0}


def validate_net(model: NetModel) -> list[StructureError]:
    """Check every NetModel invariant; empty list iff the model is well-formed."""
    names = [n for n, _ in model.forbidden]
    ids = {"place": model.place_ids, "transition": model.transition_ids, "forbidden predicate": names,
           "audit rule": [r.id for r in model.audit_rules], "mode": [md.id for md in model.modes],
           "meta key": [k for k, _ in model.metadata]}
    errs = [StructureError("BadId", i, f"{kind} id must match {IDENT}")
            for kind, group in ids.items() for i in group if not _IDENT_RE.fullmatch(i)]
    seen: set[str] = set()
    for p in model.places:
        if p.id in seen:
            errs.append(StructureError("DuplicateId", p.id, "duplicate place identifier"))
        seen.add(p.id)
        if p.capacity is not None and p.capacity < 1:
            errs.append(StructureError("BadCapacity", p.id, f"capacity must be >= 1, got {p.capacity}"))
    for t in model.transitions:
        if t.id in seen:
            errs.append(StructureError("DuplicateId", t.id, "identifier already used"))
        seen.add(t.id)
        for role, f in ARC_FIELDS.items():
            role_places = set()
            for p, w in getattr(t, f):
                if not model.has_place(p):
                    errs.append(StructureError("UnknownEndpoint", p, f"{role}-arc of {t.id} targets unknown place"))
                if w < 1:
                    errs.append(StructureError("BadWeight", f"{t.id}/{p}", f"{role}-arc weight must be >= 1, got {w}"))
                if p in role_places:
                    errs.append(StructureError("DuplicateArc", f"{t.id}/{p}", f"duplicate {role}-arc"))
                role_places.add(p)
        # A place may be both input and inhibitor only when the combination is
        # satisfiable (threshold above the weight); otherwise t can never fire.
        inh = dict(t.inhibitors)
        for p, w in t.inputs:
            if p in inh and inh[p] <= w:
                errs.append(StructureError(
                    "RoleConflict", f"{t.id}/{p}",
                    f"inhibitor threshold {inh[p]} never admits the input weight {w}"))
        if t.guard is not None:
            errs.extend(_predicate_errors(model, t.guard, f"guard of {t.id}"))

    # initial marking: total, nonnegative, within capacities
    init = model.initial.tokens_map
    for p in model.places:
        if p.id not in init:
            errs.append(StructureError("BadInitial", p.id, "initial marking assigns no value"))
        else:
            v = init[p.id]
            if v < 0:
                errs.append(StructureError("BadInitial", p.id, f"negative initial tokens {v}"))
            if p.capacity is not None and v > p.capacity:
                errs.append(StructureError("BadInitial", p.id, f"initial tokens {v} exceed capacity {p.capacity}"))
    for pid in init:
        if not model.has_place(pid):
            errs.append(StructureError("UnknownEndpoint", pid, "initial marking names unknown place"))
    for tid, v in model.initial.counters_map.items():
        if not model.has_transition(tid):
            errs.append(StructureError("UnknownEndpoint", tid, "initial counter names unknown transition"))
        elif not model.transition(tid).counted:
            errs.append(StructureError("BadInitial", tid, "initial counter on a transition that is not counted"))
        elif v != 0:
            errs.append(StructureError("BadInitial", tid, f"initial counter {v} is not 0"))

    for name, pred in model.forbidden:
        errs.extend(_predicate_errors(model, pred, f"forbidden {name}"))
    for n in set(names):
        if names.count(n) > 1:
            errs.append(StructureError("DuplicateId", n, "duplicate forbidden predicate name"))

    for rule in model.audit_rules:
        if isinstance(rule, (CounterThreshold, RateThreshold)) and not model.has_transition(rule.transition):
            errs.append(StructureError("UnknownEndpoint", rule.transition, f"audit rule {rule.id} names unknown transition"))
        if isinstance(rule, OccupancyThreshold) and not model.has_place(rule.place):
            errs.append(StructureError("UnknownEndpoint", rule.place, f"audit rule {rule.id} names unknown place"))
        if isinstance(rule, PressureThreshold) and rule.predicate not in names:
            errs.append(StructureError("UnknownEndpoint", rule.predicate, f"audit rule {rule.id} names unknown predicate"))
        for f, least in _AUDIT_MINIMA.items():
            v = getattr(rule, f, least)
            if v < least:
                errs.append(StructureError("BadWeight", rule.id, f"{f} must be >= {least}, got {v}"))

    # modes: mode places and referenced transitions exist, and the mode places
    # hold one token that every transition gives back as often as it takes it
    # (a place invariant), so each reachable marking marks exactly one of them
    if model.modes:
        mode_places = {md.place_id for md in model.modes}
        for md in model.modes:
            if not model.has_place(md.place_id):
                errs.append(StructureError("ModeInvariant", md.id, f"mode place {md.place_id} missing (modes must be expanded)"))
                continue
            for t in md.disabled:
                if not model.has_transition(t):
                    errs.append(StructureError("UnknownEndpoint", t, f"mode {md.id} disables unknown transition"))
            for t, g in md.guard_overrides:
                if not model.has_transition(t):
                    errs.append(StructureError("UnknownEndpoint", t, f"mode {md.id} overrides unknown transition"))
                else:
                    errs.extend(_predicate_errors(model, g, f"mode {md.id} override for {t}"))
        tokens = sum(init.get(p, 0) for p in mode_places)
        if all(map(model.has_place, mode_places)) and tokens != 1:
            errs.append(StructureError("ModeInvariant", ",".join(md.id for md in model.modes),
                                       f"the mode places must start with one token, found {tokens}"))
        for t in model.transitions:
            taken, given = (sum(w for p, w in arcs if p in mode_places) for arcs in (t.inputs, t.outputs))
            if taken != given:
                errs.append(StructureError("ModeInvariant", t.id,
                                           f"takes {taken} and gives back {given} mode tokens"))
    return errs


# ---------------------------------------------------------------------------
# Compiled form and token game
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CompiledTransition:
    """A transition over state vectors; each pair is (vector index, value)."""

    id: str
    needs: tuple[tuple[int, int], ...]       # least tokens: inputs and reads
    inhibitors: tuple[tuple[int, int], ...]  # tokens that block firing
    limits: tuple[tuple[int, int], ...]      # most tokens that leave room for the outputs
    delta: tuple[tuple[int, int], ...]       # nonzero changes, counter included
    guard: Optional[Callable]


class CompiledNet:
    """A NetModel compiled to integer state vectors, built once per model.

    A state is a tuple of ints: the tokens of each place in declaration
    order, then the counter of each counted transition; `root` is the
    initial one. Transitions keep declaration order, which fixes the order
    of enabled sets, exploration and simulation choices. Guards and
    predicates become closures over the vector. Modes are structure too: a
    mode that disables a transition inhibits it from the mode place, and
    guard overrides fold into the transition's guard.
    """

    def __init__(self, model: NetModel):
        self.place_ids = model.place_ids
        self.counted = model.counted_transitions
        self.ids = model.transition_ids
        self._slot = {p: i for i, p in enumerate(self.place_ids)}
        self._counter = {t: len(self._slot) + i for i, t in enumerate(self.counted)}
        self._index = {t: i for i, t in enumerate(self.ids)}
        self.unbounded = tuple(i for i, p in enumerate(model.places) if p.capacity is None)
        self.transitions = tuple(self._compile(model, t) for t in model.transitions)
        self.root = self.state(model.initial)

    def place_index(self, pid: str) -> int:
        try:
            return self._slot[pid]
        except KeyError:
            raise UnknownReference(f"unknown place {pid!r}") from None

    def _compile(self, model: NetModel, t: TransitionDef) -> CompiledTransition:
        needs: dict[str, int] = {}
        delta: dict[str, int] = {}
        for p, w in t.inputs:
            needs[p] = max(needs.get(p, 0), w)
            delta[p] = delta.get(p, 0) - w
        for p, w in t.reads:
            needs[p] = max(needs.get(p, 0), w)
        for p, w in t.outputs:
            delta[p] = delta.get(p, 0) + w
        limits = tuple((self.place_index(p), cap - d) for p, d in delta.items()
                       if (cap := model.place(p).capacity) is not None)
        changes = tuple((self.place_index(p), d) for p, d in delta.items() if d)
        if t.counted:
            changes += ((self._counter[t.id], 1),)
        inhibitors = t.inhibitors + tuple((md.place_id, 1) for md in model.modes if t.id in md.disabled)
        guard = None if t.guard is None else self.predicate(t.guard)
        overrides = tuple((self.place_index(md.place_id), self.predicate(g))
                          for md in model.modes for tid, g in md.guard_overrides if tid == t.id)
        if overrides:
            base = guard or (lambda v: True)

            def guard(v):
                """The override of the marked mode, else the base guard."""
                for i, g in overrides:
                    if v[i]:
                        return g(v)
                return base(v)
        return CompiledTransition(
            t.id, tuple((self.place_index(p), w) for p, w in needs.items()),
            tuple((self.place_index(p), th) for p, th in inhibitors), limits, changes, guard)

    # -- vectors and markings ---------------------------------------------------

    def state(self, m: Marking) -> tuple[int, ...]:
        return (tuple(m.tokens_at(p) for p in self.place_ids)
                + tuple(m.counter_of(t) for t in self.counted))

    def describes(self, m: Marking) -> bool:
        """True iff m assigns exactly the model's places and counted transitions."""
        return m.tokens_map.keys() == self._slot.keys() and m.counters_map.keys() == self._counter.keys()

    def marking(self, v: tuple[int, ...]) -> Marking:
        return Marking(tuple(zip(self.place_ids, v)),
                       tuple(zip(self.counted, v[len(self.place_ids):])))

    def transition_index(self, tid: str) -> int:
        try:
            return self._index[tid]
        except KeyError:
            raise UnknownTransition(f"unknown transition {tid!r}") from None

    def predicate(self, pred: Predicate) -> Callable[[tuple], bool]:
        """The predicate as a test over state vectors (see eval_predicate)."""
        if isinstance(pred, TokenAtom):
            i, op, value = self.place_index(pred.place), _OPS[pred.op], pred.value
            return lambda v: op(v[i], value)
        if isinstance(pred, ModeAtom):
            i = self.place_index(MODE_PLACE_PREFIX + pred.mode)
            return lambda v: v[i] >= 1
        if isinstance(pred, CounterAtom):
            op, value, i = _OPS[pred.op], pred.value, self._counter.get(pred.transition)
            if i is None:
                return lambda v: op(0, value)
            return lambda v: op(v[i], value)
        if isinstance(pred, Not):
            f = self.predicate(pred.operand)
            return lambda v: not f(v)
        if isinstance(pred, And):
            fs = tuple(map(self.predicate, pred.operands))
            return lambda v: all(f(v) for f in fs)
        if isinstance(pred, Or):
            fs = tuple(map(self.predicate, pred.operands))
            return lambda v: any(f(v) for f in fs)
        raise TypeError(f"not a predicate: {pred!r}")

    # -- firing rule ------------------------------------------------------------

    def admits(self, t: CompiledTransition, v: tuple[int, ...]) -> bool:
        """The enabling rule: inputs, reads, inhibitors, guard, capacities."""
        for p, w in t.needs:
            if v[p] < w:
                return False
        for p, th in t.inhibitors:
            if v[p] >= th:
                return False
        if t.guard is not None and not t.guard(v):
            return False
        for p, top in t.limits:
            if v[p] > top:
                return False
        return True

    def enabled(self, v: tuple[int, ...]) -> list[int]:
        """Indices of the transitions enabled at v, in declaration order."""
        admits = self.admits
        return [i for i, t in enumerate(self.transitions) if admits(t, v)]

    def step(self, v: tuple[int, ...], i: int) -> tuple[int, ...]:
        """The successor of v under transition i, which must be enabled."""
        s = list(v)
        for p, d in self.transitions[i].delta:
            s[p] += d
        return tuple(s)


def compiled(model: NetModel) -> CompiledNet:
    """The model's compiled net, built on first use and kept on the model."""
    net = model._compiled
    if net is None:
        net = CompiledNet(model)
        object.__setattr__(model, "_compiled", net)
    return net


def is_enabled(model: NetModel, m: Marking, tid: str) -> bool:
    """True iff firing tid at m is admissible under the full semantics.

    Checks inputs, read arcs, inhibitor thresholds, the (mode-resolved) guard,
    mode-disabled sets, and output capacities (contact-free semantics).
    """
    model.active_mode(m)
    net = compiled(model)
    t = net.transitions[net.transition_index(tid)]
    return net.admits(t, net.state(m))


def enabled_set(model: NetModel, m: Marking) -> list[str]:
    """Enabled transitions in canonical (declaration) order."""
    model.active_mode(m)
    net = compiled(model)
    return [net.ids[i] for i in net.enabled(net.state(m))]


def fire(model: NetModel, m: Marking, tid: str) -> Marking:
    """Fire tid at m, returning the successor marking.

    Reads and inhibitors consume nothing; the transition's counter is
    incremented when it is counted.
    """
    model.active_mode(m)
    net = compiled(model)
    i = net.transition_index(tid)
    v = net.state(m)
    if not net.admits(net.transitions[i], v):
        raise NotEnabled(tid)
    return net.marking(net.step(v, i))


def eval_guard(model: NetModel, pred: Predicate, m: Marking) -> bool:
    """Evaluate a predicate at a marking, validating its references first."""
    errs = _predicate_errors(model, pred, "predicate")
    if errs:
        raise UnknownReference(str(errs[0]))
    return eval_predicate(pred, m)


def initial_marking(model: NetModel) -> Marking:
    """The model's initial marking (see NetModel)."""
    return model.initial
