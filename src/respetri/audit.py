"""Seeded token-game simulation with audit rules, alarms, and drift reports.

A run is one interleaved firing sequence: one transition per step, chosen by
a policy. Identical inputs (including seeds) produce identical RunRecords.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Optional, Union

from .analysis import (
    DEFAULT_BOUND,
    ExplorationBound,
    explore,
    pressure_map,
)
from .errors import PressureUnavailable, ScriptedFiringDisabled, UnknownTransition
from .net import (
    AuditRule,
    CounterThreshold,
    Marking,
    NetModel,
    OccupancyThreshold,
    Predicate,
    PressureThreshold,
    RateThreshold,
    _OPS,
    compiled,
)


@dataclass(frozen=True)
class UniformRandom:
    """Pick uniformly among enabled transitions; the seed fixes every choice."""

    seed: int


@dataclass(frozen=True)
class Priority:
    """Prefer the earliest listed enabled transition; unlisted ties fall back
    to a seeded uniform choice. Every listed name must be a transition of
    the simulated model (see simulate)."""

    order: tuple[str, ...]
    seed: int = 0


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


@dataclass(frozen=True)
class RunRecord:
    firings: tuple[str, ...]
    markings: tuple[Marking, ...]            # len = len(firings) + 1
    alarms: tuple[Alarm, ...] = ()
    deadlock_step: Optional[int] = None

    @property
    def steps(self) -> int:
        return len(self.firings)


def simulate(model: NetModel, policy: SimPolicy, steps: int,
             bound: ExplorationBound = DEFAULT_BOUND) -> RunRecord:
    """Run the token game for up to `steps` firings.

    Stops early at a deadlock (no enabled transition), recording the step at
    which it occurred. Audit rules declared on the model are evaluated over
    the finished run; pressure rules explore within `bound`. Before the first
    step, a Priority or Scripted policy that names a transition the model
    does not declare raises UnknownTransition, listing each such name once;
    a declared scripted transition that is disabled when its turn comes
    raises ScriptedFiringDisabled.
    """
    net = compiled(model)
    named = policy.order if isinstance(policy, Priority) else getattr(policy, "firings", ())
    if unknown := [t for t in dict.fromkeys(named) if not model.has_transition(t)]:
        raise UnknownTransition(f"the policy names unknown transitions: {', '.join(map(repr, unknown))}")
    v = net.root
    states = [v]
    firings: list[str] = []
    deadlock: Optional[int] = None
    rng = random.Random(getattr(policy, "seed", 0))
    script = list(policy.firings) if isinstance(policy, Scripted) else None
    limit = min(steps, len(script)) if script is not None else steps

    for step in range(1, limit + 1):
        succ = net.successors(v, math.inf)
        enabled = [net.ids[i] for i, _ in succ]
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
        v = succ[enabled.index(t)][1]
        firings.append(t)
        states.append(v)

    run = RunRecord(tuple(firings), tuple(net.marking(s) for s in states))
    return replace(run, alarms=tuple(evaluate_audit_rules(model, run, bound)),
                   deadlock_step=deadlock)


def _rule_condition(rule: AuditRule, run: RunRecord, step: int,
                    pressures: Optional[Mapping]) -> tuple[bool, int]:
    """(holds, observed value) for one rule at one step (post-firing state)."""
    m = run.markings[step]
    if isinstance(rule, CounterThreshold):
        v = m.counter_of(rule.transition)
        return v > rule.threshold, v
    if isinstance(rule, RateThreshold):
        lo = max(0, step - rule.window)
        v = sum(1 for t in run.firings[lo:step] if t == rule.transition)
        return v > rule.max_firings, v
    if isinstance(rule, OccupancyThreshold):
        v = m.tokens_at(rule.place)
        return _OPS[rule.op](v, rule.level), v
    if isinstance(rule, PressureThreshold):
        d = pressures.get(m)
        if d is None:
            return False, -1
        return d <= rule.max_distance, d
    raise TypeError(f"not an audit rule: {rule!r}")


def evaluate_audit_rules(model: NetModel, run: RunRecord,
                         bound: ExplorationBound = DEFAULT_BOUND) -> list[Alarm]:
    """Alarm entries for every step at which a rule's condition holds.

    Level semantics: the first crossing produces an alarm and so does every
    later step at which the condition still holds. Rate rules use a sliding
    window over the last w steps. Pressure rules explore on demand; markings
    outside a truncated graph simply produce no alarm.
    """
    compiled(model)
    pressure_rules = [r for r in model.audit_rules if isinstance(r, PressureThreshold)]
    graph = explore(model, bound) if pressure_rules else None
    pressures = {r.id: pressure_map(graph, model.forbidden_predicate(r.predicate)) for r in pressure_rules}
    alarms: list[Alarm] = []
    for step in range(len(run.markings)):
        for rule in model.audit_rules:
            holds, observed = _rule_condition(rule, run, step, pressures.get(rule.id))
            if holds:
                alarms.append(Alarm(step, rule.id, observed))
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
    explored graph (possible only when the bound truncated it).
    """
    pred = model.forbidden_predicate(predicate) if isinstance(predicate, str) else predicate
    graph = explore(model, bound)
    dist = pressure_map(graph, pred)
    series: list[int] = []
    for i, m in enumerate(run.markings):
        try:
            d = dist[m]
        except KeyError:
            raise PressureUnavailable(
                f"marking at step {i} is outside the explored graph (bound exhausted)") from None
        series.append(d if d is not None else -1)
    episodes = []
    start = 0
    for i in range(1, len(series) + 1):
        if not (i < len(series) and 0 <= series[i] < series[i - 1]):
            if i - start >= 3:
                episodes.append((start, i - 1))
            start = i
    return DriftReport(tuple(series), tuple(episodes), graph.truncated)


_ENCODER = json.JSONEncoder(sort_keys=True)   # json.dumps(rec, sort_keys=True), built once


def run_record_to_jsonl(run: RunRecord) -> str:
    """Line-delimited log: one record per step with marking, counters, alarms."""
    alarms_by_step: dict[int, list[Alarm]] = {}
    for a in run.alarms:
        alarms_by_step.setdefault(a.step, []).append(a)
    lines = []
    for step, m in enumerate(run.markings):
        rec = {
            "step": step,
            "fired": run.firings[step - 1] if step > 0 else None,
            "tokens": dict(m.tokens),
            "counters": dict(m.counters),
            "alarms": [
                {"rule": a.rule_id, "observed": a.observed}
                for a in alarms_by_step.get(step, [])
            ],
        }
        lines.append(_ENCODER.encode(rec))
    return "\n".join(lines) + "\n"
