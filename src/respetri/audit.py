"""Seeded token-game simulation with audit rules, alarms, and drift reports.

A run is one interleaved firing sequence: one transition per step, chosen by
a policy. Identical inputs (including seeds) produce identical RunRecords.
The markings of a simulated run also hold its state vectors and the ids they
are over: audit rules, drift reports and the run log read the states and
build no Marking.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Optional, Union

from .analysis import (
    DEFAULT_BOUND,
    ExplorationBound,
    ReachGraph,
    _check_bound,
    explore,
    node_distances,
)
from .errors import PressureUnavailable, ScriptedFiringDisabled, UnknownReference, UnknownTransition
from .net import (
    AuditRule,
    CompiledNet,
    CounterThreshold,
    Marking,
    NetModel,
    OccupancyThreshold,
    Predicate,
    PressureThreshold,
    RateThreshold,
    _OPS,
    _is_int,
    compiled,
)


def _check_seed(self):
    # a seed of None would draw from OS entropy, and runs would not repeat
    if not _is_int(self.seed):
        raise TypeError(f"{type(self).__name__}.seed must be an int, got {self.seed!r}")


@dataclass(frozen=True)
class UniformRandom:
    """Pick uniformly among enabled transitions; the seed fixes every choice."""

    seed: int

    __post_init__ = _check_seed


@dataclass(frozen=True)
class Priority:
    """Prefer the earliest listed enabled transition; unlisted ties fall back
    to a seeded uniform choice. Every listed name must be a transition of
    the simulated model (see simulate)."""

    order: tuple[str, ...]
    seed: int = 0

    __post_init__ = _check_seed


@dataclass(frozen=True)
class Scripted:
    """Fire exactly the given sequence; fails fast on a disabled firing. Every
    name must be a transition of the simulated model (see simulate)."""

    firings: tuple[str, ...]


SimPolicy = Union[UniformRandom, Priority, Scripted]


@dataclass(frozen=True)
class Alarm:
    step: int
    rule_id: str
    observed: int


class _RunMarkings(tuple):
    """The markings of a simulated run: their tuple, which also keeps
    `states`, the state vector of each step, and `ids`, the (place ids,
    counted transitions) those vectors are over. It holds no net, so a
    dropped model frees its net while a run is kept, and it copies and
    pickles with both. Steps at one state share its Marking."""


@dataclass(frozen=True)
class RunRecord:
    """A run: its firings, the marking before the first and after each
    firing, the alarms raised, and the step of a deadlock. The markings of a
    run from `simulate` also hold each step's state vector and the place and
    counter ids it is over, which audit rules, drift reports and the run log
    read; they compare equal to, and hash like, the plain tuple. A run built
    by hand from a tuple of markings works wherever a simulated one does."""

    firings: tuple[str, ...]
    markings: tuple[Marking, ...]            # len = len(firings) + 1
    alarms: tuple[Alarm, ...] = ()
    deadlock_step: Optional[int] = None

    def __post_init__(self):
        if len(self.markings) != len(self.firings) + 1:
            raise ValueError(f"a run of {len(self.firings)} firings needs "
                             f"{len(self.firings) + 1} markings, got {len(self.markings)}")

    @property
    def steps(self) -> int:
        return len(self.firings)


def _run_states(net: CompiledNet, run: RunRecord) -> Iterable[tuple[int, ...]]:
    """The run's markings as state vectors of net; the only place they become
    states. A simulated run over net's ids hands back its states, which
    depend on nothing else; any other run goes through net.state once per
    marking, as it is reached, so a marking that is not one of net raises
    UnknownReference there."""
    markings = run.markings
    if isinstance(markings, _RunMarkings) and markings.ids == (net.place_ids, net.counted):
        return markings.states
    return map(net.state, markings)


def simulate(model: NetModel, policy: SimPolicy, steps: int,
             bound: ExplorationBound = DEFAULT_BOUND) -> RunRecord:
    """Run the token game for up to `steps` firings.

    Stops early at a deadlock (no enabled transition), recording the step at
    which it occurred. Audit rules declared on the model are evaluated over
    the finished run; pressure rules explore within `bound`. Before the first
    step, a value that is not a policy, a `bound` that is not an
    ExplorationBound, or a `steps` that is not an int (or is a bool), raises
    TypeError, a negative `steps` raises ValueError, and a Priority or
    Scripted policy that names a transition the model does not declare
    raises UnknownTransition, listing each such name once; a declared
    scripted transition that is disabled when its turn comes raises
    ScriptedFiringDisabled. The run's markings also hold the visited states
    (see RunRecord). Each state is expanded by the net's generated layer (see
    CompiledNet) once per run, however often the run returns to it.
    """
    _check_bound(bound)
    net = compiled(model)
    if not isinstance(policy, (UniformRandom, Priority, Scripted)):
        raise TypeError(f"not a simulation policy: {policy!r}")
    if not _is_int(steps):
        raise TypeError(f"steps must be an int, got {steps!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    named = policy.order if isinstance(policy, Priority) else getattr(policy, "firings", ())
    if unknown := [t for t in dict.fromkeys(named) if not model.has_transition(t)]:
        raise UnknownTransition(f"the policy names unknown transitions: {', '.join(map(repr, unknown))}")
    states, index = [net.root], {net.root: 0}     # what the run reached or met as successors
    path = [0]                                     # each step's state, by position in `states`
    firings: list[str] = []
    deadlock: Optional[int] = None
    rng = random.Random(getattr(policy, "seed", 0))
    script = list(policy.firings) if isinstance(policy, Scripted) else None
    limit = min(steps, len(script)) if script is not None else steps
    expanded: dict = {}     # position -> its edges: a revisited state is expanded once per run

    a = 0
    for step in range(1, limit + 1):
        edges = expanded.get(a)
        if edges is None:
            edges = expanded[a] = []
            net.layer((a,), states, index, edges, [], math.inf, math.inf)
        enabled = [net.ids[t] for t in edges[1::3]]
        if script is not None:
            t = script[step - 1]
            if t not in enabled:
                raise ScriptedFiringDisabled(step, t)
        elif not enabled:
            deadlock = step - 1
            break
        elif isinstance(policy, Priority):
            listed = [t for t in policy.order if t in enabled]
            t = listed[0] if listed else rng.choice(enabled)
        else:
            t = rng.choice(enabled)
        a = edges[3 * enabled.index(t) + 2]
        firings.append(t)
        path.append(a)

    built = {a: net.marking(states[a]) for a in dict.fromkeys(path)}
    markings = _RunMarkings(map(built.__getitem__, path))
    markings.states, markings.ids = tuple(map(states.__getitem__, path)), (net.place_ids, net.counted)
    run = RunRecord(tuple(firings), markings)
    return replace(run, alarms=tuple(evaluate_audit_rules(model, run, bound)),
                   deadlock_step=deadlock)


def _rule_condition(rule: AuditRule, model: NetModel, net: CompiledNet, firings: tuple[str, ...],
                    graph: Optional[ReachGraph]) -> Callable[[int, tuple], tuple[bool, int]]:
    """(holds, observed value) of one rule as a function of a step and its
    post-firing state."""
    if isinstance(rule, CounterThreshold):
        if rule.transition not in net.counted:       # its counter stays 0
            return lambda step, v: (0 > rule.threshold, 0)
        i = len(net.place_ids) + net.counted.index(rule.transition)
        return lambda step, v: (v[i] > rule.threshold, v[i])
    if isinstance(rule, RateThreshold):
        def rate(step, v):
            n = firings[max(0, step - rule.window):step].count(rule.transition)
            return n > rule.max_firings, n
        return rate
    if isinstance(rule, OccupancyThreshold):
        i, op = net.place_index(rule.place), _OPS[rule.op]
        return lambda step, v: (op(v[i], rule.level), v[i])
    if isinstance(rule, PressureThreshold):
        dist = node_distances(graph, model.forbidden_predicate(rule.predicate))
        index = graph.index

        def pressure(step, v):
            i = index.get(v)
            d = None if i is None else dist[i]
            return (False, -1) if d is None else (d <= rule.max_distance, d)
        return pressure
    raise TypeError(f"not an audit rule: {rule!r}")


def evaluate_audit_rules(model: NetModel, run: RunRecord,
                         bound: ExplorationBound = DEFAULT_BOUND) -> list[Alarm]:
    """Alarm entries for every step at which a rule's condition holds.

    Level semantics: the first crossing produces an alarm and so does every
    later step at which the condition still holds. Rate rules use a sliding
    window over the last w steps. Pressure rules explore on demand; markings
    outside a truncated graph simply produce no alarm. A marking that is not
    one of the model raises UnknownReference.
    """
    _check_bound(bound)
    net = compiled(model)
    pressured = any(isinstance(r, PressureThreshold) for r in model.audit_rules)
    graph = explore(model, bound) if pressured else None
    conditions = [(r.id, _rule_condition(r, model, net, run.firings, graph)) for r in model.audit_rules]
    alarms: list[Alarm] = []
    for step, v in enumerate(_run_states(net, run)):
        for rule_id, condition in conditions:
            holds, observed = condition(step, v)
            if holds:
                alarms.append(Alarm(step, rule_id, observed))
    return alarms


@dataclass(frozen=True)
class DriftReport:
    """Per-step distances to a forbidden predicate plus approach episodes."""

    pressures: tuple[int, ...]
    episodes: tuple[tuple[int, int], ...]  # [start, end] step ranges, inclusive
    truncated: bool


def drift_report(model: NetModel, run: RunRecord, predicate: Union[str, Predicate],
                 bound: ExplorationBound = DEFAULT_BOUND) -> DriftReport:
    """Pressure at each visited marking, with monotone-approach episodes.

    An approach episode is >= 3 consecutive strictly decreasing pressures.
    Raises PressureUnavailable when a visited marking lies outside the
    explored graph (possible only when the bound truncated it) or is not a
    marking of the model.
    """
    pred = model.forbidden_predicate(predicate) if isinstance(predicate, str) else predicate
    graph = explore(model, bound)
    dist, index = node_distances(graph, pred), graph.index
    series: list[int] = []
    try:
        for v in _run_states(graph.net, run):
            d = dist[index[v]]
            series.append(d if d is not None else -1)
    except KeyError:
        raise PressureUnavailable(
            f"marking at step {len(series)} is outside the explored graph (bound exhausted)") from None
    except UnknownReference as e:
        raise PressureUnavailable(f"marking at step {len(series)} is not a marking of the model: {e}") from None
    episodes = []
    start = 0
    for i in range(1, len(series) + 1):
        if not (i < len(series) and 0 <= series[i] < series[i - 1]):
            if i - start >= 3:
                episodes.append((start, i - 1))
            start = i
    return DriftReport(tuple(series), tuple(episodes), graph.truncated)


_ENCODER = json.JSONEncoder(sort_keys=True)   # json.dumps(rec, sort_keys=True), built once


def _line_format(places: Iterable[str], counters: Iterable[str]) -> str:
    """The %-format of one run-log line over the given ids, each in sorted
    order; it takes (alarms JSON, counter values, fired JSON, step, token
    values), all ints but the JSON, and gives json.dumps(record,
    sort_keys=True) of the line."""
    def obj(ids):
        return "{" + ", ".join(_ENCODER.encode(k).replace("%", "%%") + ": %d" for k in ids) + "}"
    return '{"alarms": %s, "counters": ' + obj(counters) + ', "fired": %s, "step": %d, "tokens": ' + obj(places) + "}"


def _picker(order: list[int]) -> Callable[[tuple], tuple]:
    """v -> tuple(v[i] for i in order); itemgetter gives a bare item for one index."""
    return itemgetter(*order) if len(order) > 1 else lambda v: tuple(v[i] for i in order)


def run_record_to_jsonl(run: RunRecord) -> str:
    """Line-delimited log: one record per step with marking, counters, alarms.
    Each line is json.dumps(record, sort_keys=True) of its record. A
    simulated run writes it from its states, also once its model is gone;
    a run built by hand encodes each record."""
    alarms_by_step: dict[int, list[dict]] = {}
    for a in run.alarms:
        alarms_by_step.setdefault(a.step, []).append({"rule": a.rule_id, "observed": a.observed})
    markings = run.markings
    if not isinstance(markings, _RunMarkings):
        records = ({"step": step, "fired": run.firings[step - 1] if step else None, "tokens": m.tokens_map,
                    "counters": m.counters_map, "alarms": alarms_by_step.get(step, [])}
                   for step, m in enumerate(markings))
        return "".join(_ENCODER.encode(rec) + "\n" for rec in records)
    place_ids, counted = markings.ids
    position = {k: i for i, k in enumerate(place_ids + counted)}   # places and transitions share one namespace
    places, counters = sorted(place_ids), sorted(counted)
    fmt = _line_format(places, counters)
    tokens = _picker([position[p] for p in places])
    counts = _picker([position[c] for c in counters])
    fired = ["null", *map(_ENCODER.encode, run.firings)]
    lines = []
    for step, v in enumerate(markings.states):
        alarms = alarms_by_step.get(step)
        lines.append(fmt % (_ENCODER.encode(alarms) if alarms else "[]", *counts(v), fired[step], step, *tokens(v)))
    return "\n".join(lines) + "\n"
