"""The four workloads: seeded inputs, the queries of one cycle, known answers.

A workload object is built from a seed; building it is the set-up (inputs
generated and parsed). `cycle(c)` yields the queries of cycle c in order.
Each query is one user-level operation: `run()` is timed, `check(result)`
is not. `check` raises Mismatch when any verdict, trace, state count, hash
or exit code differs from the known answer, and returns the work counts
the answer carries. Every cycle does the same work, so the counts of two
cycles, and of two runs with the same seed, must be equal.

Library calls go through the `respetri` package attributes (`r.explore`,
not a name imported into this module), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import respetri as r

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


class Mismatch(Exception):
    """An answer differs from the known one."""


def expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


def replay(model, run, pred=None) -> int:
    """Replay a trace or a simulated run through `fire`; returns its length.

    With a predicate, the last marking must satisfy it."""
    m = r.initial_marking(model)
    expect(run.markings[0] == m, "does not start at the initial marking")
    for t, nxt in zip(run.firings, run.markings[1:]):
        m = r.fire(model, m, t)
        expect(m == nxt, f"marking after {t} differs from fire()")
    expect(pred is None or r.eval_predicate(pred, m), "trace does not end in a violating marking")
    return len(run.firings)


def check_verdict(model, name: str, verdict, exp: gen.Expected) -> int:
    got = (verdict.kind.value, verdict.proof.value)
    expect(got == (exp.kind, exp.proof), f"{name}: {got} != {(exp.kind, exp.proof)}")
    if exp.kind != "unsafe":
        expect(verdict.trace is None, f"{name}: trace on a {exp.kind} verdict")
        return 0
    n = replay(model, verdict.trace, model.forbidden_predicate(name))
    expect(exp.trace_len is None or n == exp.trace_len,
           f"{name}: trace length {n} != {exp.trace_len}")
    return n


def check_graph(case: gen.NetCase, graph) -> dict:
    expect(not graph.truncated, f"{case.name}: exploration truncated")
    expect(len(graph.nodes) == case.states, f"{case.name}: {len(graph.nodes)} states != {case.states}")
    expect(len(graph.edges) == case.edges, f"{case.name}: {len(graph.edges)} edges != {case.edges}")
    return {"states": len(graph.nodes), "edges": len(graph.edges)}


# ---------------------------------------------------------------------------

class ReachBounded:
    """check_all_forbidden plus a root-pressure query on bounded nets."""

    # Sizes from 20 to 1,716 states, spread evenly on a log scale, so that
    # query latencies form a smooth spectrum: p50 and p90 then fall among
    # many queries of similar cost, not on the one query that sits at a rank.
    CHAINS = ((4, 3), (5, 3), (6, 3), (5, 4), (7, 3), (6, 4), (9, 3), (7, 4), (6, 5),
              (8, 4), (7, 5), (9, 4), (10, 4), (8, 5), (7, 6), (9, 5), (8, 6))
    TOGGLES = (5, 6, 7, 8, 9)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cases = [gen.chain(n, k, rng) for n, k in self.CHAINS]
        cases += [gen.toggles(n, rng) for n in self.TOGGLES]
        cases += [gen.fixture(name, rng) for name in gen.FIXTURES]
        self.models = [(case, r.parse_model(case.text)) for case in cases]

    def prepare(self):
        pass

    def cycle(self, c: int):
        for case, model in self.models:
            yield Query(case.name + ":check", lambda m=model: r.check_all_forbidden(m),
                        lambda v, case=case, m=model: self._check_all(case, m, v))
            yield Query(case.name + ":pressure", lambda m=model: self._pressure(m),
                        lambda res, case=case: self._check_pressure(case, res))
        # One single-predicate check, as `respetri check MODEL PRED` runs it.
        case, model = next((c, m) for c, m in self.models if c.name == "traffic")
        yield Query("traffic:gridlock", lambda: r.check_forbidden(model, "gridlock"),
                    lambda v: {"trace_firings": check_verdict(model, "gridlock", v,
                                                              case.expected["gridlock"])})

    @staticmethod
    def _pressure(model):
        """Distance from the initial marking to `deep`, as `check --pressure` computes it."""
        graph = r.explore(model)
        return graph, r.pressure_map(graph, model.forbidden_predicate("deep"))[graph.root]

    @staticmethod
    def _check_all(case, model, verdicts) -> dict:
        expect(set(verdicts) == set(case.expected), f"{case.name}: predicates {sorted(verdicts)}")
        firings = sum(check_verdict(model, n, v, case.expected[n]) for n, v in verdicts.items())
        return {"trace_firings": firings}

    @staticmethod
    def _check_pressure(case, res) -> dict:
        graph, dist = res
        want = case.expected["deep"].trace_len
        expect(dist == want, f"{case.name}: root pressure {dist} != {want}")
        return check_graph(case, graph)

    def memory_probe(self):
        """chain(10,8): 24,310 states and 102,960 edges."""
        case = gen.chain(10, 8, random.Random(0))
        return case, r.parse_model(case.text)


# ---------------------------------------------------------------------------

class CoverUnbounded:
    """Checks cut short by a 50-state bound, Karp-Miller, siphons and cycles."""

    BOUND = r.ExplorationBound(max_states=50)
    TOGGLES_CHECK = (6, 7, 8, 9)
    TOGGLES_KM = (6, 7, 8, 9, 10)
    CHAINS_STRUCT = (15, 20, 25, 30)
    RANDOM_NETS = 8

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.checks = [gen.toggles(n, rng, truncated=True) for n in self.TOGGLES_CHECK]
        self.km = [gen.toggles(n, rng) for n in self.TOGGLES_KM]
        self.struct = [(gen.chain(n, 1, rng), n) for n in self.CHAINS_STRUCT]
        self.random = [gen.random_plain(random.Random(i), rng, f"r{i}")
                       for i in range(self.RANDOM_NETS)]
        self.parsed = self._parse()

    def _parse(self):
        return {
            "checks": [r.parse_model(c.text) for c in self.checks],
            "km": [r.parse_model(c.text) for c in self.km],
            "struct": [r.parse_model(c.text) for c, _ in self.struct],
            "random": [r.parse_model(n.text) for n in self.random],
        }

    def prepare(self):
        self.coverable = [oracle.coverable(n) for n in self.random]

    def cycle(self, c: int):
        # Fresh model objects every cycle: nothing cached on a model carries over.
        parsed = self.parsed if c == 0 else self._parse()
        yield from self._checks(parsed)
        yield from self._km(parsed)
        yield from self._random(parsed)
        yield from self._struct(parsed)

    def _checks(self, parsed):
        for case, model in zip(self.checks, parsed["checks"]):
            for name, exp in case.expected.items():
                yield Query(f"{case.name}:{name}",
                            lambda m=model, n=name: r.check_forbidden(m, n, self.BOUND),
                            lambda v, m=model, n=name, e=exp: {
                                "trace_firings": check_verdict(m, n, v, e)})

    def _km(self, parsed):
        for case, model in zip(self.km, parsed["km"]):
            yield Query(case.name + ":karp_miller",
                        lambda m=model: r.karp_miller(m, m.forbidden_predicate("overflow"),
                                                      predicate_name="overflow"),
                        lambda res, case=case: self._check_km(case, res))

    @staticmethod
    def _check_km(case, res) -> dict:
        expect(res.verdict.kind.value == "safe", f"{case.name}: overflow {res.verdict}")
        expect(len(res.tree_nodes) == case.tree_nodes,
               f"{case.name}: {len(res.tree_nodes)} tree nodes != {case.tree_nodes}")
        return {"tree_nodes": len(res.tree_nodes)}

    def _random(self, parsed):
        for i, model in enumerate(parsed["random"]):
            cov = self.coverable[i]
            yield Query(f"random{i}:check", lambda m=model: r.check_forbidden(m, "goal", self.BOUND),
                        lambda v, m=model, cov=cov: self._check_random(m, v, cov))
            yield Query(f"random{i}:karp_miller",
                        lambda m=model: r.karp_miller(m, m.forbidden_predicate("goal")),
                        lambda res, m=model, cov=cov: self._check_random_km(m, res, cov))

    @staticmethod
    def _check_random(model, v, cov) -> dict:
        kind = v.kind.value
        if not cov:
            expect(kind == "safe", f"uncoverable goal answered {v}")
            return {}
        expect(kind in ("unsafe", "unknown"), f"coverable goal answered {v}")
        if kind == "unsafe":
            return {"trace_firings": replay(model, v.trace, model.forbidden_predicate("goal"))}
        return {}

    @staticmethod
    def _check_random_km(model, res, cov) -> dict:
        kind = res.verdict.kind.value
        expect(kind == ("unsafe" if cov else "safe"), f"Karp-Miller says {kind}, oracle {cov}")
        if res.verdict.trace is not None:
            replay(model, res.verdict.trace, model.forbidden_predicate("goal"))
        return {"tree_nodes": len(res.tree_nodes)}

    def _struct(self, parsed):
        for (case, n), model in zip(self.struct, parsed["struct"]):
            ends = ([(case.ends[0],)], [(case.ends[1],)])
            yield Query(f"chain({n},1):siphons", lambda m=model: r.siphons_and_traps(m),
                        lambda res, ends=ends: expect(res == ends, f"siphons/traps {res}") or {})
            yield Query(f"chain({n},1):cycles", lambda m=model: r.find_cycles(m),
                        lambda res: expect(res == [], "a pipeline has no cycles") or {})

    def memory_probe(self):
        return self.km[-1], r.parse_model(self.km[-1].text)


# ---------------------------------------------------------------------------

class GovernAudit:
    """A governance session: verified edits alternating with audited runs."""

    STEPS = 150
    SIM_SEED = 0

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.genesis_text, pre = gen.session_net(rng, f"{seed}-0")
        self.patches = gen.session_patches(rng, pre)
        self.ring = tuple(f"{pre}_a{i}" for i in range(gen.RING))
        # Simulation seeds and priorities come from a fixed generator, so
        # every --seed simulates the same runs under its own names.
        sims = random.Random(self.SIM_SEED)
        self.policies = []
        for _ in self.patches:
            order = list(self.ring)
            sims.shuffle(order)
            self.policies.append((r.UniformRandom(sims.randrange(1 << 30)),
                                  r.Priority(tuple(order), sims.randrange(1 << 30))))
        self.genesis = r.parse_model(self.genesis_text)

    def prepare(self):
        pass

    def cycle(self, c: int):
        if c == 0:
            genesis = self.genesis
        else:
            # A new session tag gives every model version of this cycle a new hash.
            tag = f'meta session "{self.seed}-{c}"'
            genesis = r.parse_model(self.genesis_text.replace(
                f'meta session "{self.seed}-0"', tag, 1))
        s = {"model": genesis, "log": r.GovernanceLog(), "patches": [], "strict": False}
        for n, (text, strict, regress) in enumerate(self.patches):
            yield Query(f"edit{n}", lambda t=text, n=n: self._edit(s, t, n),
                        lambda res, st=strict, rg=regress, n=n: self._check_edit(s, res, st, rg, n))
            for policy in self.policies[n]:
                yield Query(f"audit{n}:{type(policy).__name__}",
                            lambda p=policy: self._audit(s["model"], p), self._check_audit)
        yield Query("replay", lambda: r.model_hash(r.replay_log(genesis, s["patches"])),
                    lambda h: self._check_replay(s, genesis, h))

    @staticmethod
    def _edit(s, text, n):
        pre = s["model"]
        patch = r.parse_patch(text)
        report = r.verify_patch(pre, patch)
        post = r.apply_patch(pre, patch)
        log = r.record_decision(s["log"], pre, post, patch, report,
                                timestamp=f"2026-01-01T00:00:{n:02d}+00:00")
        back = r.GovernanceLog.from_jsonl(log.to_jsonl())
        canon = r.serialize_model(post).text
        digest = r.model_hash(post)
        again = r.parse_model(canon)
        stable = r.serialize_model(again).text == canon and r.model_hash(again) == digest
        s["model"], s["log"] = post, log
        s["patches"].append(patch)
        return pre, report, post, log, back, digest, stable

    def _check_edit(self, s, res, strict, regress, n) -> dict:
        pre, report, post, log, back, digest, stable = res
        expect(stable, "canonical text is not byte-stable")
        expect(back == log, "log changed in the JSONL round trip")
        expect(len(log.entries) == n + 1 and log.verify_chain(), "log chain")
        expect(report.pre_hash == r.model_hash(pre) and report.post_hash == digest, "report hashes")
        expect(report.regressions == (("jam",) if regress else ()), f"regressions {report.regressions}")
        firings = 0
        for model, verdicts, st in ((pre, report.verdicts_before, s["strict"]),
                                    (post, report.verdicts_after, strict)):
            want = {"jam": gen.Expected(*(gen.SAFE_EXHAUSTIVE if st else gen.UNSAFE)),
                    "leak": gen.Expected(*gen.SAFE_EXHAUSTIVE),
                    "early": gen.Expected(*gen.UNSAFE, 1)}
            expect({k for k, _ in verdicts} == set(want), "predicate set")
            firings += sum(check_verdict(model, k, v, want[k]) for k, v in verdicts)
        s["strict"] = strict
        return {"states": report.states_before + report.states_after,
                "trace_firings": firings, "log_entries": 1}

    def _audit(self, model, policy):
        run = r.simulate(model, policy, self.STEPS)
        drift = r.drift_report(model, run, "jam")
        return model, run, drift, r.run_record_to_jsonl(run)

    def _check_audit(self, res) -> dict:
        model, run, drift, jsonl = res
        replay(model, run)
        expect(run.deadlock_step is None and run.steps == self.STEPS, "the session net deadlocked")
        expect(list(run.alarms) == self._alarms(model, run), "alarms differ from the rules")
        expect(len(drift.pressures) == len(run.markings), "drift length")
        expect(jsonl.count("\n") == len(run.markings), "run log length")
        return {"steps": run.steps, "alarms": len(run.alarms)}

    @staticmethod
    def _alarms(model, run) -> list:
        out = []
        for step, m in enumerate(run.markings):
            for rule in model.audit_rules:
                if isinstance(rule, r.RateThreshold):
                    v = run.firings[max(0, step - rule.window):step].count(rule.transition)
                    hit = v > rule.max_firings
                else:
                    v = m.tokens_at(rule.place)
                    hit = {">=": v >= rule.level, ">": v > rule.level, "<=": v <= rule.level,
                           "<": v < rule.level, "=": v == rule.level}[rule.op]
                if hit:
                    out.append(r.Alarm(step, rule.id, v))
        return out

    @staticmethod
    def _check_replay(s, genesis, digest) -> dict:
        expect(digest == r.model_hash(s["model"]), "replay does not reproduce the final hash")
        expect(r.structurally_equal(genesis, s["model"]), "session did not return to genesis")
        return {"model_hash": digest}

    def memory_probe(self):
        return None, self.genesis


# ---------------------------------------------------------------------------

class CliCold:
    """`python -m respetri.cli` as a fresh subprocess per query.

    Fifteen calls per cycle: six checks, six simulations and three edits,
    each in its own working directory with its own RESPETRI_LOG. Exit codes
    follow the README table.
    """

    STEPS = 30
    REVERT = 'author "ops"\nrationale "drop the safeguards"\nremove arc inhibit p3 t4\nset guard t6 none\n'

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.workdir = OUT / f"work-{os.getpid()}"
        self.texts = {name: "\n".join(gen._shuffled(rng, gen.fixture_lines(name))) + "\n"
                      for name in gen.FIXTURES}
        self.patch = (gen.DATA / "traffic_safeguards.patch").read_text()
        models = {name: r.parse_model(t) for name, t in self.texts.items()}
        patched = r.apply_patch(models["traffic"], r.parse_patch(self.patch))
        self.texts["patched"] = "\n".join(
            gen._shuffled(rng, r.serialize_model(patched).text.splitlines())) + "\n"
        models["patched"] = r.parse_model(self.texts["patched"])
        self.models = models
        self.hashes = {name: r.model_hash(m) for name, m in models.items()}
        self.sims = []
        for name in gen.FIXTURES:
            order = gen._shuffled(rng, [t.id for t in models[name].transitions])
            self.sims.append((name, "uniform", rng.randrange(1000)))
            self.sims.append((name, "priority:" + ",".join(order), rng.randrange(1000)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.work_ms: list[float] = []
        self.seq = 0

    def prepare(self):
        self.expected_runs = {}
        for name, policy, seed in self.sims:
            if policy == "uniform":
                pol = r.UniformRandom(seed)
            else:
                pol = r.Priority(tuple(policy.split(":", 1)[1].split(",")), seed)
            self.expected_runs[name, policy] = r.simulate(self.models[name], pol, self.STEPS).firings
        srs = self.models["srs_symbolic"]
        siphons, traps = r.siphons_and_traps(srs)
        self.structure = {"cycles": [list(c) for c in r.find_cycles(srs)],
                          "siphons": [sorted(x) for x in siphons],
                          "traps": [sorted(x) for x in traps]}

    def cycle(self, c: int):
        verdicts = {"traffic": ("gridlock", "unsafe", 1),
                    "risk_scoring": ("automation_capture", "unsafe", 1),
                    "srs_symbolic": ("bad_state", "unsafe", 1),
                    "patched": ("gridlock", "safe", 0)}
        for name, (pred, kind, code) in verdicts.items():
            yield self._query(f"check {name}", {"model.net": self.texts[name]},
                              ["check", "model.net"], code,
                              lambda rep, name=name, pred=pred, kind=kind:
                              self._check_check(rep, name, pred, kind))
        yield self._query("check --pressure", {"model.net": self.texts["traffic"]},
                          ["check", "model.net", "gridlock", "--pressure", "gridlock"], 1,
                          self._check_pressure)
        yield self._query("check --cycles --siphons", {"model.net": self.texts["srs_symbolic"]},
                          ["check", "model.net", "--cycles", "--siphons"], 1,
                          self._check_structure)
        for name, policy, seed in self.sims:
            yield self._query(f"simulate {name} {policy}", {"model.net": self.texts[name]},
                              ["simulate", "model.net", "--steps", str(self.STEPS),
                               "--seed", str(seed), "--policy", policy], 0,
                              lambda rep, key=(name, policy): self._check_sim(rep, key))
        edits = (("traffic", self.patch, "patched", True, 0),
                 ("patched", self.REVERT, "traffic", True, 1),
                 ("traffic", self.patch, "patched", False, 0))
        for pre, patch, post, verify, code in edits:
            args = ["edit", "model.net", "change.patch"] + (["--verify"] if verify else [])
            yield self._query(" ".join(args), {"model.net": self.texts[pre], "change.patch": patch},
                              args, code,
                              lambda rep, pre=pre, post=post, verify=verify, code=code:
                              self._check_edit(rep, pre, post, verify, code))

    def _query(self, label, files, args, code, check_report) -> Query:
        state = {}

        def run():
            self.seq += 1
            d = self.workdir / f"q{self.seq}"
            d.mkdir(parents=True)
            for fname, text in files.items():
                (d / fname).write_text(text)
            env = dict(self.env, RESPETRI_LOG=str(d / "governance.jsonl"))
            state["dir"] = d
            return subprocess.run([sys.executable, "-m", "respetri.cli", *args], cwd=d, env=env,
                                  capture_output=True, text=True, timeout=120)

        def check(proc) -> dict:
            d = state["dir"]
            try:
                expect(proc.returncode == code, f"{label}: exit {proc.returncode} != {code}: "
                       + proc.stderr[-300:])
                rep = json.loads(proc.stdout)
                self.work_ms.append(rep["wall_time_ms"])
                counts = check_report(rep)
                if args[0] == "edit":
                    lines = (d / "governance.jsonl").read_text().splitlines()
                    expect(len(lines) == 1, "one log entry per edit")
                    out = r.parse_model((d / "model.patched.net").read_text())
                    expect(r.model_hash(out) == rep["results"]["post_hash"], "patched file hash")
                    counts["log_entries"] = len(lines)
                return counts
            finally:
                shutil.rmtree(d, ignore_errors=True)

        return Query(label, run, check)

    def _check_check(self, rep, name, pred, kind) -> dict:
        expect(rep["model_hash"] == self.hashes[name], f"{name}: report hash")
        expect(rep["results"]["verdicts"][pred]["kind"] == kind, f"{name}: verdict")
        return {}

    def _check_pressure(self, rep) -> dict:
        res = rep["results"]
        trace = res["verdicts"]["gridlock"]["trace"]["firings"]
        expect(len(trace) == gen.FIXTURES["traffic"]["lengths"]["gridlock"], "gridlock trace")
        expect(res["pressure"] == {"predicate": "gridlock", "distance": len(trace),
                                   "truncated": False}, f"pressure {res['pressure']}")
        return {"trace_firings": len(trace)}

    def _check_structure(self, rep) -> dict:
        res = rep["results"]
        got = {k: res[k] for k in self.structure}
        expect(got == self.structure, f"cycles/siphons/traps {got}")
        return {}

    def _check_sim(self, rep, key) -> dict:
        expect(rep["model_hash"] == self.hashes[key[0]], f"{key}: report hash")
        run = rep["results"]["run"]
        expect(tuple(run["firings"]) == self.expected_runs[key], f"{key}: run differs from the API")
        return {"steps": len(run["firings"]), "alarms": len(run["alarms"])}

    def _check_edit(self, rep, pre, post, verify, code) -> dict:
        res = rep["results"]
        expect(rep["model_hash"] == self.hashes[pre], "edit: report hash")
        expect(res["post_hash"] == self.hashes[post], "edit: post hash")
        expect(res["regressions"] == (["gridlock"] if code else []), "edit: regressions")
        if not verify:
            return {"model_hash": res["post_hash"]}
        before = "safe" if pre == "patched" else "unsafe"
        after = "safe" if post == "patched" else "unsafe"
        expect((res["verdicts_before"]["gridlock"]["kind"],
                res["verdicts_after"]["gridlock"]["kind"]) == (before, after), "edit: verdicts")
        return {"states": res["states_before"] + res["states_after"],
                "model_hash": res["post_hash"]}

    def memory_probe(self):
        return None, None


WORKLOADS = {
    "reach-bounded": ReachBounded,
    "cover-unbounded": CoverUnbounded,
    "govern-audit": GovernAudit,
    "cli-cold": CliCold,
}
