"""Net data model and token-game firing semantics.

Supports weighted arcs, inhibitor and read (permit) arcs, capacity places,
marking guards, firing counters, and policy modes. Models and markings are
immutable values; every operation here is a pure function.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import NotEnabled, StructureFailure, UnknownPredicate, UnknownReference, UnknownTransition

MODE_PLACE_PREFIX = "mode_"

# What the text format reads as an identifier; every id must match it.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT)
# The most levels a predicate has: an atom is 1, and each And, Or and Not adds
# 1; in the text, the whole is level 1 and each `not` and `(` opens the next.
MAX_NESTING = 256

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


def _tree_eq(self, other):
    """== on predicate trees in one walk of both, without recursion, so any
    tree validate_net admits compares: operators by type and arity, atoms by value."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for (a, _, n), (b, _, m) in zip(_predicate_nodes(self), _predicate_nodes(other)):
        if type(a) is not type(b) or n != m or not n and a != b:
            return False
    return True


def _tree_repr(self):
    """The dataclass repr, built children first without recursion, so any
    tree validate_net admits prints."""
    def text(node, _, args):
        if isinstance(node, Not):
            return f"Not(operand={args[0]})"
        if isinstance(node, (And, Or)):
            return f"{type(node).__qualname__}(operands=({', '.join(args)}))"
        return repr(node)
    return _fold(_predicate_nodes(self), text)


def _tree_reduce(self):
    """Pickle and deepcopy the tree as the list of its nodes, each operator as
    its type and arity, so neither recurses."""
    nodes = tuple((type(node) if arity else node, level, arity) for node, level, arity in _predicate_nodes(self))
    return _rebuild, (nodes,)


def _rebuild(nodes):
    return _fold(nodes, lambda kind, _, args: kind(*args) if kind is Not else kind(tuple(args)) if args else kind)


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

    __eq__ = _tree_eq
    __repr__ = _tree_repr
    __reduce__ = _tree_reduce


@dataclass(frozen=True)
class And:
    operands: tuple["Predicate", ...]

    __post_init__ = _check_operands
    __eq__ = _tree_eq
    __repr__ = _tree_repr
    __reduce__ = _tree_reduce


@dataclass(frozen=True)
class Or:
    operands: tuple["Predicate", ...]

    __post_init__ = _check_operands
    __eq__ = _tree_eq
    __repr__ = _tree_repr
    __reduce__ = _tree_reduce


Predicate = Union[TokenAtom, CounterAtom, ModeAtom, Not, And, Or]


def _predicate_nodes(pred: Predicate) -> Iterable[tuple[Predicate, int, int]]:
    """Yield every node of the expression tree, operators and atoms, with its
    level (the whole is 1, an operand one below its operator) and its number
    of operands. An operator comes before its operands, and they come last
    one first: in reverse, each node follows its operands, in order."""
    stack = [(pred, 1)]
    while stack:
        node, level = stack.pop()
        operands = node.operands if isinstance(node, (And, Or)) else (node.operand,) if isinstance(node, Not) else ()
        yield node, level, len(operands)
        stack.extend((operand, level + 1) for operand in operands)


def _fold(nodes, visit):
    """The root's result, visiting the nodes `_predicate_nodes` yields in
    reverse, without recursion: visit(node, level, results) gets the results
    of the node's operands, in order."""
    results: list = []
    for node, level, arity in reversed(list(nodes)):
        k = len(results) - arity
        results[k:] = [visit(node, level, results[k:])]
    return results[0]


def predicate_atoms(pred: Predicate) -> Iterable[Predicate]:
    """Yield every atom of the expression tree."""
    return (node for node, _, arity in _predicate_nodes(pred) if not arity)


def is_upward_closed(pred: Predicate) -> bool:
    """Syntactic upward-closure check (sound, not complete).

    A predicate qualifies iff it is NOT-free, contains no mode atoms, and all
    token/counter atoms use >= or >.
    """
    return all(isinstance(node, (And, Or))
               or isinstance(node, (TokenAtom, CounterAtom)) and node.op in (">=", ">")
               for node, _, _ in _predicate_nodes(pred))


# ---------------------------------------------------------------------------
# Markings
# ---------------------------------------------------------------------------

# past the frozen dataclass's __setattr__, for the fields Marking sets itself
_new, _set = object.__new__, object.__setattr__


@dataclass(frozen=True)
class Marking:
    """Total map place -> token count, plus counter values for counted transitions.

    The hash is computed on first use and kept in `_hash`, which takes no
    part in ==, repr or the pickled state: string hashes differ between
    processes, so a kept value would be wrong where the marking is loaded."""

    tokens: tuple[tuple[str, int], ...]
    counters: tuple[tuple[str, int], ...] = ()
    _tok: dict = field(init=False, repr=False, compare=False, default=None)
    _cnt: dict = field(init=False, repr=False, compare=False, default=None)
    _hash: Optional[int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(sorted(self.tokens)))
        object.__setattr__(self, "counters", tuple(sorted(self.counters)))
        object.__setattr__(self, "_tok", dict(self.tokens))
        object.__setattr__(self, "_cnt", dict(self.counters))
        if len(self._tok) < len(self.tokens) or len(self._cnt) < len(self.counters):
            raise ValueError(f"marking assigns a place or counter more than once: {self.tokens} {self.counters}")

    @classmethod
    def make(cls, tokens: Mapping[str, int], counters: Mapping[str, int] | None = None) -> "Marking":
        return cls(tuple(tokens.items()), tuple((counters or {}).items()))

    @classmethod
    def _sorted(cls, tokens: tuple[tuple[str, int], ...], counters: tuple[tuple[str, int], ...]) -> "Marking":
        """The Marking of pairs already sorted by id, each id once, built
        without the sort and the check of `__post_init__`."""
        m = _new(cls)
        _set(m, "tokens", tokens)
        _set(m, "counters", counters)
        _set(m, "_tok", dict(tokens))
        _set(m, "_cnt", dict(counters))
        return m

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.tokens, self.counters))
            _set(self, "_hash", h)
        return h

    def __getstate__(self):
        return {"tokens": self.tokens, "counters": self.counters, "_tok": self._tok, "_cnt": self._cnt}

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
    """The arcs sorted by place, as given: validate_net judges ids and weights."""
    return tuple(sorted(((p, w) for p, w in arcs), key=lambda arc: str(arc[0])))


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
        zeros = tuple((tid, 0) for tid in dict.fromkeys(t.id for t in self.transitions if t.counted)
                      if tid not in counters)
        if zeros:
            object.__setattr__(self, "initial", Marking(self.initial.tokens, self.initial.counters + zeros))

    def __getstate__(self):
        """The fields without the compiled net, whose generated functions do not
        pickle: `compiled` rebuilds and revalidates it on first use."""
        return {**self.__dict__, "_compiled": None}

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


def _predicate_errors(model: NetModel, pred: Predicate, element: str, where: str) -> list[StructureError]:
    errs = []
    if max(level for _, level, _ in _predicate_nodes(pred)) > MAX_NESTING:
        errs.append(StructureError("BadPredicate", element, f"{where} nests more than {MAX_NESTING} levels"))
    for atom in predicate_atoms(pred):
        if isinstance(atom, TokenAtom) and not model.has_place(atom.place):
            errs.append(StructureError("UnknownEndpoint", atom.place, f"{where} references unknown place"))
        elif isinstance(atom, CounterAtom) and not model.has_transition(atom.transition):
            errs.append(StructureError("UnknownEndpoint", atom.transition, f"{where} references unknown transition"))
        elif isinstance(atom, ModeAtom) and not any(m.id == atom.mode for m in model.modes):
            errs.append(StructureError("UnknownEndpoint", atom.mode, f"{where} references unknown mode"))
        if isinstance(atom, (TokenAtom, CounterAtom)):
            ref = atom.place if isinstance(atom, TokenAtom) else atom.transition
            errs += _int_errors(atom.value, "BadWeight", ref, f"{where}: the value compared with {ref}")
    return errs


def _is_int(x) -> bool:
    """True for the values the text format writes as integers: ints, not bools."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_errors(v, code: str, element: str, what: str, least: float = -math.inf) -> list[StructureError]:
    """No error iff v is an int, not a bool, and at least `least`; else one, naming element."""
    if not _is_int(v):
        return [StructureError(code, element, f"{what} must be an int, got {v!r}")]
    if v < least:
        return [StructureError(code, element, f"{what} must be >= {least}, got {v}")]
    return []


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
    # places and transitions share one namespace; every other kind has its own
    ids["place or transition"] = ids.pop("place") + ids.pop("transition")
    ids["mode override"] = [f"{md.id}/{t}" for md in model.modes for t, _ in md.guard_overrides]
    errs += [StructureError("DuplicateId", i, f"{kind} id declared {n} times")
             for kind, group in ids.items() for i, n in Counter(group).items() if n > 1]
    for p in model.places:
        if p.capacity is not None:
            errs += _int_errors(p.capacity, "BadCapacity", p.id, "capacity", 1)
    for t in model.transitions:
        for role, f in ARC_FIELDS.items():
            role_places = set()
            for p, w in getattr(t, f):
                if not model.has_place(p):
                    errs.append(StructureError("UnknownEndpoint", p, f"{role}-arc of {t.id} targets unknown place"))
                errs += _int_errors(w, "BadWeight", f"{t.id}/{p}", f"{role}-arc weight", 1)
                if p in role_places:
                    errs.append(StructureError("DuplicateArc", f"{t.id}/{p}", f"duplicate {role}-arc"))
                role_places.add(p)
        # A place may be both input and inhibitor only when the combination is
        # satisfiable (threshold above the weight); otherwise t can never fire.
        # A weight that is not an int is a BadWeight alone.
        inh = dict(t.inhibitors)
        for p, w in t.inputs:
            if p in inh and _is_int(w) and _is_int(inh[p]) and inh[p] <= w:
                errs.append(StructureError(
                    "RoleConflict", f"{t.id}/{p}",
                    f"inhibitor threshold {inh[p]} never admits the input weight {w}"))
        if t.guard is not None:
            errs.extend(_predicate_errors(model, t.guard, t.id, f"guard of {t.id}"))

    # initial marking: total, nonnegative, within capacities
    init = model.initial.tokens_map
    for p in model.places:
        if p.id not in init:
            errs.append(StructureError("BadInitial", p.id, "initial marking assigns no value"))
        elif bad := _int_errors(init[p.id], "BadInitial", p.id, "initial tokens", 0):
            errs += bad
        elif _is_int(p.capacity) and init[p.id] > p.capacity:
            errs.append(StructureError("BadInitial", p.id, f"initial tokens {init[p.id]} exceed capacity {p.capacity}"))
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
        errs.extend(_predicate_errors(model, pred, name, f"forbidden {name}"))

    for rule in model.audit_rules:
        if isinstance(rule, (CounterThreshold, RateThreshold)) and not model.has_transition(rule.transition):
            errs.append(StructureError("UnknownEndpoint", rule.transition, f"audit rule {rule.id} names unknown transition"))
        if isinstance(rule, OccupancyThreshold) and not model.has_place(rule.place):
            errs.append(StructureError("UnknownEndpoint", rule.place, f"audit rule {rule.id} names unknown place"))
        if isinstance(rule, PressureThreshold) and rule.predicate not in names:
            errs.append(StructureError("UnknownEndpoint", rule.predicate, f"audit rule {rule.id} names unknown predicate"))
        for f, least in _AUDIT_MINIMA.items():
            errs += _int_errors(getattr(rule, f, least), "BadWeight", rule.id, f, least)

    # modes: mode places and referenced transitions exist, and the mode places
    # hold one token that every transition gives back as often as it takes it
    # (a place invariant), so each reachable marking marks exactly one of them
    if model.modes:
        mode_places = {md.place_id for md in model.modes}
        for md in model.modes:
            if not model.has_place(md.place_id):
                errs.append(StructureError("ModeInvariant", md.id, f"mode place {md.place_id} missing (modes must be expanded)"))
                continue
            for t in sorted(md.disabled, key=str):
                if not model.has_transition(t):
                    errs.append(StructureError("UnknownEndpoint", t, f"mode {md.id} disables unknown transition"))
            for t, g in md.guard_overrides:
                if not model.has_transition(t):
                    errs.append(StructureError("UnknownEndpoint", t, f"mode {md.id} overrides unknown transition"))
                else:
                    errs.extend(_predicate_errors(model, g, f"{md.id}/{t}", f"mode {md.id} override for {t}"))
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
    guard: Optional[Predicate]               # mode overrides folded in


class CompiledNet:
    """A valid NetModel compiled to integer state vectors, built once per model by `compiled`.

    A state is a tuple of ints: the tokens of each place in declaration
    order, then the counter of each counted transition; `root` is the
    initial one. Transitions keep declaration order, which fixes the order
    of enabled sets, exploration and simulation choices. Guards and
    predicates become expressions over the vector. Modes are structure too: a
    mode that disables a transition inhibits it from the mode place, and the
    overrides g_i of modes m_i fold into the guard Or(And(mode = m_i, g_i)...,
    And(not mode = m_1, ..., not mode = m_k, base)), exact as one mode place
    is marked at each state and at each marking `_successors_at` checks.
    `producers`, `consumers` and `requirers` hold per place a bitmask of the
    transitions, by index, with an out arc to it, an in arc, or an in or read
    arc from it: arcs, not changes, as a self-loop produces and consumes.

    The token game is one generated Python function, made on first use and
    kept here. `layer(frontier, states, index, edges, found, cut, room)`
    expands one breadth-first layer, each frontier state given by its
    position in `states`: per transition, an inlined test and update, then
    the bookkeeping of the successor. One `index.setdefault` finds a known
    state or adds a new one, which is appended to `states`, to the returned
    frontier and, as the position of its edge, to `found` while `states`
    holds fewer than `room`, and is removed from `index` again otherwise.
    Every edge kept is appended to the flat list `edges` as three ints,
    source position, transition index and target position, so the offset
    that `found` gets is where the discovering edge's source is.
    A state without room, or a successor over the cut, sets the returned
    truncation flag; the cut is tested only at the unbounded places the
    transition fills. `explore` runs it per layer, and `simulate` once per
    state its run visits, with no cut and no room limit; `successors(v)`
    runs it so over v alone, for `fire`, `is_enabled` and `enabled_set`.
    `scan(pred)` is a generator function over a list of states that yields
    the position of each one satisfying the predicate, kept per predicate
    object. The source holds only int literals (vector indices, weights,
    thresholds and capacity limits) and fixed names, each guard inlined in
    its transition's test. No id or other string of the model enters it, so
    nets of one structure share its code. Karp-Miller and backward
    coverability read `plain`, siphons, traps and cycles read the arc
    relations, and none of them generates the token game. `marking(v)`
    builds the Marking of a vector in one pass over the place and counter
    ids sorted once here.
    """

    def __init__(self, model: NetModel):
        self.place_ids = model.place_ids
        self.counted = model.counted_transitions
        self.ids = model.transition_ids
        self._slot = {p: i for i, p in enumerate(self.place_ids)}
        self._counter = {t: len(self._slot) + i for i, t in enumerate(self.counted)}
        self._index = {t: i for i, t in enumerate(self.ids)}
        # for `marking`: the place ids, then the counter ids, sorted, each with their vector positions
        self._by_id = [(tuple(sorted(ids)), tuple(ids[k] for k in sorted(ids))) for ids in (self._slot, self._counter)]
        self.unbounded = tuple(i for i, p in enumerate(model.places) if p.capacity is None)
        self.transitions = tuple(self._compile(model, t) for t in model.transitions)
        self.root = self.state(model.initial)
        self._scans: dict[int, tuple[Predicate, Callable]] = {}   # id(pred) -> (pred, scan)
        self.producers, self.consumers, self.requirers = ([0] * len(self._slot) for _ in range(3))
        for k, t in enumerate(model.transitions):
            for p, _ in t.outputs:
                self.producers[self._slot[p]] |= 1 << k
            for p, _ in t.inputs:
                self.consumers[self._slot[p]] |= 1 << k
            for p, _ in t.inputs + t.reads:
                self.requirers[self._slot[p]] |= 1 << k

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
        guard = t.guard
        if overrides := [(ModeAtom(md.id), g) for md in model.modes for tid, g in md.guard_overrides if tid == t.id]:
            rest = tuple(Not(mode) for mode, _ in overrides) + (() if guard is None else (guard,))
            guard = Or((*map(And, overrides), rest[0] if len(rest) == 1 else And(rest)))
        return CompiledTransition(
            t.id, tuple((self.place_index(p), w) for p, w in needs.items()),
            tuple((self.place_index(p), th) for p, th in inhibitors), limits, changes, guard)

    # -- vectors and markings ---------------------------------------------------

    def state(self, m: Marking) -> tuple[int, ...]:
        """m as a state vector, the only way a Marking enters the compiled form.
        UnknownReference, naming the first place or counter that differs, unless
        m assigns exactly the net's places and its counted transitions' counters."""
        tokens, counters = m.tokens_map, m.counters_map
        if tokens.keys() == self._slot.keys() and counters.keys() == self._counter.keys():
            return tuple(map(tokens.__getitem__, self.place_ids)) + tuple(map(counters.__getitem__, self.counted))
        for kind, have, want in (("place", tokens, self._slot), ("counter", counters, self._counter)):
            for k in [*want, *have]:
                if (k in have) != (k in want):
                    raise UnknownReference(f"unknown {kind} {k!r}")

    def marking(self, v: tuple[int, ...]) -> Marking:
        """The Marking of state vector v, in one pass: the id-sorted places
        and counters, each zipped with v read at its position."""
        (places, slots), (counters, positions) = self._by_id
        get = v.__getitem__
        return Marking._sorted(tuple(zip(places, map(get, slots))), tuple(zip(counters, map(get, positions))))

    def transition_index(self, tid: str) -> int:
        try:
            return self._index[tid]
        except KeyError:
            raise UnknownTransition(f"unknown transition {tid!r}") from None

    def scan(self, pred: Predicate) -> Callable[[list], Iterator[int]]:
        """The generated scan of pred (see the class docstring and eval_predicate).
        TypeError, naming the atom, when a compared value is not an int. Kept by
        the predicate's identity, not its hash, which recurses through the tree;
        the entry holds the predicate, so its id is not reused while kept."""
        entry = self._scans.get(id(pred))
        if entry is None:
            scan = _function(scan_source(self, pred), "scan")
            if len(self._scans) >= SCANS_KEPT:
                del self._scans[next(iter(self._scans))]
            entry = self._scans[id(pred)] = (pred, scan)
        return entry[1]

    def expression(self, pred: Predicate) -> tuple[list[str], str]:
        """The predicate as an expression over the state vector v, and the assignments to
        locals x<k> that it reads: CPython rejects source nested 200 parentheses deep, so
        each operator at a level that is a multiple of 50 is assigned to a local first."""
        lines: list[str] = []

        def term(node, level, args):
            if isinstance(node, ModeAtom):
                return f"v[{self.place_index(MODE_PLACE_PREFIX + node.mode):d}] >= 1"
            if isinstance(node, (TokenAtom, CounterAtom)):
                if not _is_int(node.value):
                    raise TypeError(f"the value compared must be an int: {node!r}")
                i = self.place_index(node.place) if isinstance(node, TokenAtom) else self._counter.get(node.transition)
                return f"{'0' if i is None else f'v[{i:d}]'} {'==' if node.op == '=' else node.op} {node.value:d}"
            if not isinstance(node, (Not, And, Or)):
                raise TypeError(f"not a predicate: {node!r}")
            test = f"(not {args[0]})" if isinstance(node, Not) else f"({f' {type(node).__name__.lower()} '.join(args)})"
            if level % 50:
                return test
            lines.append(f"x{len(lines)} = {test}")
            return f"x{len(lines) - 1}"

        return lines, _fold(_predicate_nodes(pred), term)

    @cached_property
    def plain(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
        """The plain projection that coverability decides: the root's place
        tokens, and per transition in index order (need, change) over the
        places, need being the largest input or read weight on each place.
        Counters, inhibitors, capacities and guards are dropped, so modes too
        (they compile to inhibitors and guards). That only removes conditions
        on firing, so the projection fires every sequence the net fires: a
        target it cannot cover is uncoverable in the net."""
        n = len(self.place_ids)
        rows = []
        for t in self.transitions:
            need, change = [0] * n, [0] * n
            for p, w in t.needs:
                need[p] = w
            for p, d in t.delta:
                if p < n:
                    change[p] = d
            rows.append((tuple(need), tuple(change)))
        return self.root[:n], tuple(rows)

    @cached_property
    def layer(self) -> Callable[..., tuple[list[int], bool]]:
        """The generated breadth-first layer (see the class docstring)."""
        return _function(layer_source(self), "layer")

    def successors(self, v: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """Each transition enabled at v, by index, with its successor, in
        declaration order: one layer over v alone, with no cut and no room limit."""
        states, edges = [v], []
        self.layer((0,), states, {v: 0}, edges, [], math.inf, math.inf)
        return [(t, states[b]) for t, b in zip(edges[1::3], edges[2::3])]


# the most scans a compiled net keeps, the oldest dropped first
SCANS_KEPT = 64

# source text -> code object; no id enters the source, so nets of one structure share it
_code = lru_cache(maxsize=256)(compile)


def _function(source: str, name: str) -> Callable:
    """The function that source defines, from cached code, in a fresh namespace that keeps
    no reference to it: dropping the net frees the function without the cycle collector."""
    namespace: dict = {}
    exec(_code(source, f"<{name}>", "exec"), namespace)
    return namespace.pop(name)


def layer_source(net: CompiledNet) -> str:
    """The source of `net.layer`: per state of the frontier and per transition,
    its test, guard inlined; its successor as a copy s of v updated in place,
    tested against `cut` at the unbounded places it fills; then the successor's
    bookkeeping. A transition that changes nothing leads back to its state.
    An edge is added as `edges += (a, i, b)`: the tuple is freed at once, so
    the flat list holds ints only. Numbers are formatted with `d`, which
    admits ints only."""
    lines = ["def layer(frontier, states, index, edges, found, cut, room):",
             "    nxt = []", "    truncated = False", "    n = len(states)",
             "    for a in frontier:", "        v = states[a]"]
    for i, t in enumerate(net.transitions):
        pad = "        "
        tests = [f"v[{p:d}] >= {w:d}" for p, w in t.needs]
        tests += [f"v[{p:d}] < {th:d}" for p, th in t.inhibitors]
        tests += [f"v[{p:d}] <= {top:d}" for p, top in t.limits]
        if t.guard is not None:
            assignments, guard = net.expression(t.guard)
            lines += [pad + line for line in assignments]
            tests.append(guard)
        if tests:
            lines.append(f"{pad}if {' and '.join(tests)}:")
            pad += "    "
        if not t.delta:
            lines.append(f"{pad}edges += (a, {i:d}, a)")
            continue
        lines.append(f"{pad}s = list(v)")
        lines += [f"{pad}s[{p:d}] += {d:d}" for p, d in t.delta]
        if fills := " or ".join(f"s[{p:d}] > cut" for p, d in t.delta if d > 0 and p in net.unbounded):
            lines += [f"{pad}if {fills}:", f"{pad}    truncated = True", f"{pad}else:"]
            pad += "    "
        lines += [pad + line for line in (
            "s = tuple(s)", "b = index.setdefault(s, n)",
            "if b < n:", f"    edges += (a, {i:d}, b)",
            "elif n < room:", "    states.append(s)", "    found.append(len(edges))", "    nxt.append(n)",
            f"    edges += (a, {i:d}, n)", "    n += 1",
            "else:", "    del index[s]", "    truncated = True")]
    lines.append("    return nxt, truncated")
    return "\n".join(lines) + "\n"


def scan_source(net: CompiledNet, pred: Predicate) -> str:
    """The source of `net.scan(pred)`."""
    lines, test = net.expression(pred)
    body = [*lines, f"if {test}:", "    yield i"]
    return "def scan(states):\n    for i, v in enumerate(states):\n" + "".join(f"        {line}\n" for line in body)


def compiled(model: NetModel) -> CompiledNet:
    """The model's compiled net, built on first use and kept on the model.
    The one validation gate: every engine runs only models that validate_net
    accepts, and each model object is validated once; a model it rejects
    raises StructureFailure with the errors, and nothing is kept."""
    net = model._compiled
    if net is None:
        if errs := validate_net(model):
            raise StructureFailure(errs)
        net = CompiledNet(model)
        object.__setattr__(model, "_compiled", net)
    return net


def _successors_at(model: NetModel, m: Marking) -> tuple[CompiledNet, list]:
    """The compiled net and the transitions enabled at m, each with its successor;
    UnknownReference unless m is a marking of the model (see CompiledNet.state)
    within every capacity, and on a net with modes marks exactly one mode place."""
    net = compiled(model)
    model.active_mode(m)
    v = net.state(m)
    for p, tokens in zip(model.places, v):
        if p.capacity is not None and tokens > p.capacity:
            raise UnknownReference(f"place {p.id!r} holds {tokens} tokens, above its capacity {p.capacity}")
    return net, net.successors(v)


def is_enabled(model: NetModel, m: Marking, tid: str) -> bool:
    """True iff firing tid at m is admissible under the full semantics.

    Checks inputs, read arcs, inhibitor thresholds, the (mode-resolved) guard,
    mode-disabled sets, and output capacities (contact-free semantics).
    """
    net, succ = _successors_at(model, m)
    i = net.transition_index(tid)
    return any(j == i for j, _ in succ)


def enabled_set(model: NetModel, m: Marking) -> list[str]:
    """Enabled transitions in canonical (declaration) order."""
    net, succ = _successors_at(model, m)
    return [net.ids[i] for i, _ in succ]


def fire(model: NetModel, m: Marking, tid: str) -> Marking:
    """Fire tid at m, returning the successor marking.

    Reads and inhibitors consume nothing; the transition's counter is
    incremented when it is counted.
    """
    net, succ = _successors_at(model, m)
    i = net.transition_index(tid)
    for j, s in succ:
        if j == i:
            return net.marking(s)
    raise NotEnabled(tid)


def initial_marking(model: NetModel) -> Marking:
    """The model's initial marking (see NetModel)."""
    return model.initial
