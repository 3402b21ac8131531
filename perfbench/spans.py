"""Spans around the public functions the benchmark calls, kept in memory.

`Tracer.install` replaces each traced function wherever a loaded respetri
module (or class) holds it, so calls between modules, such as analysis
calling `fire` or governance calling `check_forbidden`, are traced too.
Nothing under `src/` changes, and `uninstall` puts every original back.

A span is (name, start, end, parent span, query id). A layer's self time is
its span's duration minus the time its child spans cover; the loop is
serial, so child spans never overlap.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). Classes are given as "module:Class".
SPANS = [
    ("respetri.dsl", "parse_model", "dsl.parse_model"),
    ("respetri.dsl", "serialize_model", "dsl.serialize_model"),
    ("respetri.dsl", "model_hash", "dsl.model_hash"),
    ("respetri.net", "enabled_set", "net.enabled_set"),
    ("respetri.net", "fire", "net.fire"),
    ("respetri.analysis", "explore", "analysis.explore"),
    ("respetri.analysis", "check_forbidden", "analysis.check_forbidden"),
    ("respetri.analysis", "check_all_forbidden", "analysis.check_all_forbidden"),
    ("respetri.analysis", "violation_trace", "analysis.violation_trace"),
    ("respetri.analysis", "pressure_map", "analysis.pressure_map"),
    ("respetri.analysis", "karp_miller", "analysis.karp_miller"),
    ("respetri.analysis", "siphons_and_traps", "analysis.siphons_and_traps"),
    ("respetri.analysis", "find_cycles", "analysis.find_cycles"),
    ("respetri.audit", "simulate", "audit.simulate"),
    ("respetri.audit", "evaluate_audit_rules", "audit.evaluate_audit_rules"),
    ("respetri.audit", "drift_report", "audit.drift_report"),
    ("respetri.audit", "run_record_to_jsonl", "audit.run_record_to_jsonl"),
    ("respetri.governance", "parse_patch", "governance.parse_patch"),
    ("respetri.governance", "apply_patch", "governance.apply_patch"),
    ("respetri.governance", "verify_patch", "governance.verify_patch"),
    ("respetri.governance", "record_decision", "governance.record_decision"),
    ("respetri.governance", "replay_log", "governance.replay_log"),
    ("respetri.governance:GovernanceLog", "to_jsonl", "governance.log.to_jsonl"),
    ("respetri.governance:GovernanceLog", "from_jsonl", "governance.log.from_jsonl"),
]
# Called once per transition per marking: counted, not spanned.
COUNTED = [("respetri.net", "is_enabled", "net.is_enabled")]


def _text_lines(src) -> int:
    text = getattr(src, "text", src)
    return text.count("\n") + (not text.endswith("\n"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.stack = [-1]
        self.query_id = -1
        self.counts = defaultdict(float)        # (key, query id) -> total
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        starts, ends, names, parents, queries, stack = (
            self.start, self.end, self.name, self.parent, self.query, self.stack)

        def traced(*args, **kwargs):
            if self.query_id < 0:  # outside any query: the benchmark's own checks
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            queries.append(self.query_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.query_id >= 0:
                counts[name, self.query_id] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def add(self, key: str, value: float):
        self.counts[key, self.query_id] += value

    # -- installation -------------------------------------------------------

    def install(self, modules):
        """Wrap every SPANS/COUNTED target in the given respetri modules."""
        import importlib

        for target, attr, name in SPANS + COUNTED:
            modname, _, cls = target.partition(":")
            owner = importlib.import_module(modname)
            if cls:
                owner = getattr(owner, cls)
                raw = owner.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self._span(name, fn, OBSERVERS.get(name))
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
                continue
            fn = getattr(owner, attr)
            if (target, attr, name) in COUNTED:
                wrapped = self._counter(name + ".calls", fn)
            else:
                wrapped = self._span(name, fn, OBSERVERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """(durations, self times), indexed by span."""
        n = len(self.start)
        covered = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        return dur, [dur[i] - covered[i] for i in range(n)]

    def has_ancestor(self, i: int, name_id: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == name_id:
                return True
            p = self.parent[p]
        return False

    def write(self, path):
        """Spans as gzip CSV: id,name,start_s,end_s,parent,query."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start_s,end_s,parent,query\n")
            names, start, end, parent, query = self.names, self.start, self.end, self.parent, self.query
            for i in range(len(start)):
                f.write(f"{i},{names[self.name[i]]},{start[i]:.9f},{end[i]:.9f},{parent[i]},{query[i]}\n")


# Counts observed on a call's result, recorded per query.
def _explore(tr, graph, args):
    tr.add("analysis.explore.states", len(graph.nodes))
    tr.add("analysis.explore.edges", len(graph.edges))
    tr.add("analysis.explore.truncated", graph.truncated)


def _check(tr, verdict, args):
    tr.add("analysis.check_forbidden.unknown", verdict.kind.value == "unknown")


def _km(tr, result, args):
    tr.add("analysis.karp_miller.tree_nodes", len(result.tree_nodes))
    tr.add("analysis.karp_miller.safe", result.verdict.kind.value == "safe")


def _simulate(tr, run, args):
    tr.add("audit.simulate.steps", run.steps)
    tr.add("audit.alarms", len(run.alarms))


def _parse(tr, model, args):
    tr.add("dsl.parse_model.lines", _text_lines(args[0]))


def _record(tr, log, args):
    tr.add("governance.log.entries", 1)


OBSERVERS = {
    "analysis.explore": _explore,
    "analysis.check_forbidden": _check,
    "analysis.karp_miller": _km,
    "audit.simulate": _simulate,
    "dsl.parse_model": _parse,
    "governance.record_decision": _record,
}


def layer_metrics(tr: Tracer, unit: set[int], cycles: int) -> dict[str, float]:
    """Per-layer figures for one unit of work: the set-up plus one cycle.

    Call and work counts are taken from the queries in `unit` (the traced
    set-up and the first traced cycle), so they repeat exactly between runs.
    Self times add the set-up to the mean over `cycles` traced cycles. Rates
    and ratios use every traced span; a ratio with no base reads 0.
    """
    dur, self_t = tr.self_times()
    nid = {n: i for i, n in enumerate(tr.names)}
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    total = defaultdict(float)
    explore_in_verify = 0
    for i in range(len(dur)):
        name = tr.names[tr.name[i]]
        q = tr.query[i]
        total[name] += dur[i]
        share = 1.0 if q == 0 else 1.0 / cycles  # query 0 is the set-up
        self_ms[name] += self_t[i] * 1000 * share
        if q in unit:
            calls[name] += 1
        if name == "analysis.explore" and tr.has_ancestor(i, nid["governance.verify_patch"]):
            explore_in_verify += 1
    unit_count = defaultdict(float)
    all_count = defaultdict(float)
    for (key, q), v in tr.counts.items():
        all_count[key] += v
        if q in unit:
            unit_count[key] += v
    n_verify = sum(1 for i in range(len(dur)) if tr.name[i] == nid["governance.verify_patch"])

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in ("dsl.parse_model", "dsl.model_hash", "net.enabled_set", "net.fire",
                 "analysis.explore", "analysis.check_forbidden", "analysis.pressure_map",
                 "analysis.karp_miller", "audit.simulate", "governance.verify_patch"):
        out[name + ".calls"] = calls[name]
    for name in ("dsl.parse_model", "dsl.serialize_model", "dsl.model_hash", "net.enabled_set",
                 "net.fire", "analysis.explore", "analysis.check_forbidden",
                 "analysis.violation_trace", "analysis.pressure_map", "analysis.karp_miller",
                 "analysis.siphons_and_traps", "analysis.find_cycles",
                 "audit.evaluate_audit_rules", "audit.drift_report", "audit.run_record_to_jsonl",
                 "governance.parse_patch", "governance.apply_patch", "governance.verify_patch",
                 "governance.record_decision", "governance.replay_log"):
        out[name + ".self_ms"] = self_ms[name]
    out["governance.log_roundtrip.self_ms"] = (
        self_ms["governance.log.to_jsonl"] + self_ms["governance.log.from_jsonl"])
    out["net.is_enabled.calls"] = unit_count["net.is_enabled.calls"]
    for key in ("analysis.explore.states", "analysis.explore.edges",
                "analysis.karp_miller.tree_nodes", "audit.simulate.steps", "audit.alarms",
                "governance.log.entries"):
        out[key] = unit_count[key]
    states, edges = all_count["analysis.explore.states"], all_count["analysis.explore.edges"]
    n_explore = sum(1 for i in range(len(dur)) if tr.name[i] == nid["analysis.explore"])
    n_check = sum(1 for i in range(len(dur)) if tr.name[i] == nid["analysis.check_forbidden"])
    n_km = sum(1 for i in range(len(dur)) if tr.name[i] == nid["analysis.karp_miller"])
    out["dsl.parse_model.lines_per_s"] = ratio(all_count["dsl.parse_model.lines"],
                                               total["dsl.parse_model"])
    out["analysis.explore.states_per_s"] = ratio(states, total["analysis.explore"])
    out["analysis.explore.new_state_ratio"] = ratio(states, edges)
    out["analysis.explore.truncated_ratio"] = ratio(all_count["analysis.explore.truncated"], n_explore)
    out["analysis.check_forbidden.unknown_ratio"] = ratio(
        all_count["analysis.check_forbidden.unknown"], n_check)
    out["analysis.karp_miller.safe_ratio"] = ratio(all_count["analysis.karp_miller.safe"], n_km)
    out["audit.simulate.steps_per_s"] = ratio(all_count["audit.simulate.steps"],
                                              total["audit.simulate"])
    out["governance.verify_patch.explorations_per_call"] = ratio(explore_in_verify, n_verify)
    return out
