"""Simulation policies, audit alarms, drift reports."""

import copy
import gc
import hashlib
import json
import pickle
import random
import sys
import time
import weakref
from dataclasses import replace
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respetri import (
    Alarm,
    CounterAtom,
    CounterThreshold,
    ExplorationBound,
    Marking,
    NetModel,
    OccupancyThreshold,
    PlaceDef,
    PressureThreshold,
    PressureUnavailable,
    Priority,
    RateThreshold,
    RunRecord,
    Scripted,
    ScriptedFiringDisabled,
    TokenAtom,
    TransitionDef,
    UniformRandom,
    UnknownReference,
    UnknownTransition,
    drift_report,
    evaluate_audit_rules,
    explore,
    parse_model,
    run_record_to_jsonl,
    serialize_model,
    simulate,
)
from respetri.models import FixtureConfig, build_srs_symbolic_model, build_traffic_model
from respetri.net import CompiledNet, compiled
from oracles import random_net, random_predicate


def pulse_net(audit_rules=()):
    """One transition firing freely forever (counted)."""
    return NetModel(
        places=(PlaceDef("p"),),
        transitions=(TransitionDef("t", reads=(("p", 1),), counted=True),),
        initial=Marking.make({"p": 1}, {"t": 0}),
        audit_rules=tuple(audit_rules),
    )


class TestPolicies:
    def test_scripted_exact_sequence(self):
        m = build_srs_symbolic_model()
        run = simulate(m, Scripted(("tA", "t2", "tCD1", "tCD2")), 10)
        assert run.firings == ("tA", "t2", "tCD1", "tCD2")
        assert run.deadlock_step is None

    def test_scripted_disabled_firing_fails_fast(self):
        m = build_srs_symbolic_model()
        with pytest.raises(ScriptedFiringDisabled) as exc:
            simulate(m, Scripted(("t2",)), 5)
        assert exc.value.step == 1
        assert exc.value.transition == "t2"

    def test_a_policy_naming_an_unknown_transition_fails_before_the_first_step(self):
        m = build_srs_symbolic_model()
        with pytest.raises(UnknownTransition, match="^the policy names unknown transitions: 'ghost'$"):
            simulate(m, Scripted(("ghost",)), 3)
        for policy in (Priority(("ghost", "tA", "zz", "ghost")), Scripted(("tA", "ghost", "t2", "zz"))):
            with pytest.raises(UnknownTransition, match="^the policy names unknown transitions: 'ghost', 'zz'$"):
                simulate(m, policy, 0)

    def test_priority_prefers_earliest_listed(self):
        m = build_srs_symbolic_model()
        run = simulate(m, Priority(("tPol", "tA")), 1)
        assert run.firings == ("tPol",)

    def test_priority_falls_back_to_seeded_choice(self):
        m = build_srs_symbolic_model()
        a = simulate(m, Priority((), seed=5), 6)
        b = simulate(m, Priority((), seed=5), 6)
        assert a == b

    def test_uniform_deterministic_per_seed(self):
        m = build_traffic_model()
        a = simulate(m, UniformRandom(3), 25)
        b = simulate(m, UniformRandom(3), 25)
        assert a == b
        assert run_record_to_jsonl(a) == run_record_to_jsonl(b)

    def test_different_seeds_usually_differ(self):
        m = build_traffic_model()
        runs = {simulate(m, UniformRandom(s), 25).firings for s in range(6)}
        assert len(runs) > 1

    def test_deadlock_recorded(self):
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q")),
            transitions=(TransitionDef("t", inputs=(("p", 1),), outputs=(("q", 1),)),),
            initial=Marking.make({"p": 1, "q": 0}),
        )
        run = simulate(m, UniformRandom(0), 10)
        assert run.firings == ("t",)
        assert run.deadlock_step == 1

    def test_zero_steps(self):
        run = simulate(build_traffic_model(), UniformRandom(0), 0)
        assert run.firings == ()
        assert len(run.markings) == 1

    def test_steps_counts_the_firings(self):
        assert simulate(pulse_net(), UniformRandom(0), 0).steps == 0
        assert simulate(pulse_net(), UniformRandom(0), 7).steps == 7
        run = simulate(build_traffic_model(), UniformRandom(0), 7)   # deadlocks after 4 firings
        assert run.steps == run.deadlock_step == len(run.firings) == 4


class TestAuditRules:
    def test_counter_threshold_first_alarm_at_third_firing(self):
        m = pulse_net([CounterThreshold("c", "t", 2)])
        run = simulate(m, Scripted(("t", "t", "t")), 3)
        assert [a.step for a in run.alarms] == [3]
        assert run.alarms[0].observed == 3

    def test_counter_threshold_keeps_alarming(self):
        m = pulse_net([CounterThreshold("c", "t", 2)])
        run = simulate(m, Scripted(("t",) * 5), 5)
        assert [a.step for a in run.alarms] == [3, 4, 5]

    def test_rate_threshold_sliding_window(self):
        m = pulse_net([RateThreshold("r", "t", 2, 3)])
        run = simulate(m, Scripted(("t", "t", "t")), 3)
        assert [a.step for a in run.alarms] == [3]

    def test_rate_threshold_window_slides_out(self):
        m = NetModel(
            places=(PlaceDef("p"),),
            transitions=(
                TransitionDef("t", reads=(("p", 1),)),
                TransitionDef("idle", reads=(("p", 1),)),
            ),
            initial=Marking.make({"p": 1}),
            audit_rules=(RateThreshold("r", "t", 1, 2),),
        )
        run = simulate(m, Scripted(("t", "t", "idle", "idle", "t")), 5)
        # windows of 2: steps 2 (t,t) alarms; after idles, the lone t does not
        assert [a.step for a in run.alarms] == [2]

    def test_occupancy_threshold(self):
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q")),
            transitions=(TransitionDef("t", inputs=(("p", 1),), outputs=(("q", 1),)),),
            initial=Marking.make({"p": 2, "q": 0}),
            audit_rules=(OccupancyThreshold("o", "q", ">=", 2),),
        )
        run = simulate(m, Scripted(("t", "t")), 2)
        assert [a.step for a in run.alarms] == [2]

    def test_occupancy_rule_rejects_an_unknown_operator(self):
        # `!=` has no evaluator, and its canonical line would not parse back
        with pytest.raises(ValueError, match="bad comparison operator"):
            OccupancyThreshold("o", "q", "!=", 1)

    @pytest.mark.parametrize("op", ["<", "<=", "=", ">=", ">"])
    def test_occupancy_rule_round_trips_every_operator(self, op):
        m = parse_model(f"place q init 1\naudit o := occupancy q {op} 1\n")
        assert m.audit_rules == (OccupancyThreshold("o", "q", op, 1),)
        assert parse_model(serialize_model(m)) == m

    def test_pressure_threshold(self):
        cfg = FixtureConfig()
        m = build_srs_symbolic_model(cfg)
        m = NetModel(m.places, m.transitions, m.initial, m.forbidden,
                     audit_rules=(PressureThreshold("near", "bad_state", 1),),
                     metadata=m.metadata)
        run = simulate(m, Scripted(("tA", "t2")), 2)
        # after t2 the marking is one tBad firing away from p_bad
        assert any(a.rule_id == "near" and a.step == 2 and a.observed == 1
                   for a in run.alarms)

    def test_pressure_rule_explores_within_the_callers_bound(self):
        # A counted self-loop has one state per counter value, so only the
        # bound stops the exploration behind the pressure rule.
        m = NetModel(
            places=(PlaceDef("p"),),
            transitions=(TransitionDef("t", reads=(("p", 1),), counted=True),),
            initial=Marking.make({"p": 1}, {"t": 0}),
            forbidden=(("hot", CounterAtom("t", ">=", 3)),),
            audit_rules=(PressureThreshold("near", "hot", 1),),
        )
        started = time.perf_counter()
        run = simulate(m, Scripted(("t",) * 80), 80, ExplorationBound(max_states=50))
        assert time.perf_counter() - started < 1
        # The graph holds counters 0..49: steps 2..49 are within one firing
        # of `hot`; later markings lie outside the graph and raise no alarm.
        assert [a.step for a in run.alarms] == list(range(2, 50))
        assert {a.observed for a in run.alarms} == {0, 1}

    def test_srs_fixture_alarm_at_third_t2(self):
        cfg = FixtureConfig(thresholds={"theta": 2},
                            initial_tokens={"pA": 2, "p_permit": 3})
        m = build_srs_symbolic_model(cfg)
        run = simulate(m, Scripted(("tA", "t2", "tA", "t2", "tPol", "t2")), 6)
        assert [a.step for a in run.alarms if a.rule_id == "counter_alarm"] == [6]


class TestDriftReport:
    def test_series_and_episode(self):
        m = build_srs_symbolic_model()
        run = simulate(m, Scripted(("tA", "t2", "tBad")), 3)
        drift = drift_report(m, run, "bad_state")
        assert drift.pressures == (3, 2, 1, 0)
        assert drift.episodes == ((0, 3),)
        assert not drift.truncated

    def test_three_points_is_the_minimum_episode(self):
        m = build_srs_symbolic_model()
        run = simulate(m, Scripted(("tA", "t2")), 2)
        drift = drift_report(m, run, "bad_state")
        assert drift.pressures == (3, 2, 1)
        assert drift.episodes == ((0, 2),)

    def test_two_point_descent_is_no_episode(self):
        m = build_srs_symbolic_model()
        run = simulate(m, Scripted(("tA",)), 1)
        drift = drift_report(m, run, "bad_state")
        assert drift.pressures == (3, 2)
        assert drift.episodes == ()

    def test_unavailable_outside_truncated_graph(self):
        m = build_srs_symbolic_model()
        run = simulate(m, Scripted(("tA", "t2")), 2)
        tight = ExplorationBound(max_states=1, max_depth=10, max_tokens_per_place=8)
        with pytest.raises(PressureUnavailable):
            drift_report(m, run, "bad_state", tight)

    def test_predicate_object_accepted(self):
        m = build_srs_symbolic_model()
        run = simulate(m, Scripted(("tA",)), 1)
        drift = drift_report(m, run, TokenAtom("p_bad", ">=", 1))
        assert drift.pressures[0] == 3


class TestRunLog:
    def test_jsonl_structure(self):
        m = pulse_net([CounterThreshold("c", "t", 1)])
        run = simulate(m, Scripted(("t", "t")), 2)
        lines = run_record_to_jsonl(run).splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert records[0]["fired"] is None
        assert records[1]["fired"] == "t"
        assert records[2]["counters"] == {"t": 2}
        assert records[2]["alarms"] == [{"observed": 2, "rule": "c"}]

    def test_jsonl_bytes_are_pinned(self):
        """A counted transition and 20 alarms over 31 steps; the digest was
        taken before the encoder was built once per module."""
        m = build_srs_symbolic_model(FixtureConfig(initial_tokens={"pA": 4, "p_permit": 4}))
        run = simulate(m, UniformRandom(10), 40)
        assert (len(run.firings), len(run.alarms)) == (31, 20)
        assert hashlib.sha256(run_record_to_jsonl(run).encode()).hexdigest() == (
            "1517fbcdfbeae2f6dd69cb55d73b473f71dd54c6083cecf7013b9fa8b04fb112")

    def test_a_hand_built_run_logs_its_values_as_json_does(self):
        for value in (1.5, True, 2):
            m = Marking.make({"p": value, "q": 0}, {"t": value})
            assert run_record_to_jsonl(RunRecord((), (m,))) == json.dumps(
                {"step": 0, "fired": None, "tokens": {"p": value, "q": 0}, "counters": {"t": value},
                 "alarms": []}, sort_keys=True) + "\n"


def counted_net(seed: int) -> NetModel:
    """A random net with counted transitions, its places and counters
    declared against id order, a forbidden `bad` and one rule of each kind."""
    rng = random.Random(seed)
    m = random_net(rng)
    ts = [replace(t, counted=rng.random() < 0.5) for t in reversed(m.transitions)]
    counted = [t.id for t in ts if t.counted]
    tids = [t.id for t in ts]
    rules = (OccupancyThreshold("occ", rng.choice(m.place_ids), rng.choice([">=", "<", "="]), rng.randint(0, 3)),
             RateThreshold("rate", rng.choice(tids), 1, rng.randint(1, 4)),
             CounterThreshold("cnt", rng.choice(tids), rng.randint(0, 3)),
             PressureThreshold("pres", "bad", rng.randint(0, 3)))
    return NetModel(tuple(reversed(m.places)), tuple(ts),
                    Marking.make(m.initial.tokens_map, dict.fromkeys(counted, 0)),
                    forbidden=(("bad", random_predicate(rng, m)),), audit_rules=rules)


def reference_lines(run: RunRecord) -> list[str]:
    """The run log as json.dumps of each step's record, read from the markings."""
    alarms: dict[int, list] = {}
    for a in run.alarms:
        alarms.setdefault(a.step, []).append({"rule": a.rule_id, "observed": a.observed})
    return [json.dumps({"step": step, "fired": run.firings[step - 1] if step else None,
                        "tokens": dict(m.tokens), "counters": dict(m.counters),
                        "alarms": alarms.get(step, [])}, sort_keys=True)
            for step, m in enumerate(run.markings)]


def audited_srs_net() -> NetModel:
    """The SRS fixture with four tokens on pA and p_permit and a rule of each kind."""
    base = build_srs_symbolic_model(FixtureConfig(initial_tokens={"pA": 4, "p_permit": 4}))
    return replace(base, audit_rules=base.audit_rules + (
        PressureThreshold("near", "bad_state", 1), RateThreshold("r", "tA", 0, 2),
        OccupancyThreshold("o", "pB", ">=", 1)))


def state_calls(monkeypatch) -> list:
    """The markings passed to CompiledNet.state from now on."""
    calls = []
    state = CompiledNet.state
    monkeypatch.setattr(CompiledNet, "state", lambda net, m: calls.append(m) or state(net, m))
    return calls


class TestRunsHoldStates:
    def test_an_audited_run_builds_each_marking_once(self, monkeypatch):
        base = build_srs_symbolic_model(FixtureConfig(initial_tokens={"pA": 4, "p_permit": 4}))
        m = NetModel(base.places, base.transitions, base.initial, base.forbidden,
                     audit_rules=base.audit_rules + (
                         PressureThreshold("near", "bad_state", 1), RateThreshold("r", "tA", 0, 2),
                         OccupancyThreshold("o", "pB", ">=", 1)),
                     metadata=base.metadata)
        built = []      # every Marking made, by its constructor or from a compiled net's vector
        post_init, from_sorted = Marking.__post_init__, Marking._sorted
        monkeypatch.setattr(Marking, "__post_init__", lambda self: built.append(self) or post_init(self))
        monkeypatch.setattr(Marking, "_sorted", classmethod(
            lambda cls, *pairs: built.append(from_sorted(*pairs)) or built[-1]))
        run = simulate(m, UniformRandom(10), 40)
        assert len(built) == len(set(run.markings)) < len(run.markings)   # one per state, in simulate
        assert all(any(b is m for m in run.markings) for b in built)
        built.clear()
        alarms = evaluate_audit_rules(m, run)
        drift = drift_report(m, run, "bad_state")
        text = run_record_to_jsonl(run)
        assert built == []
        assert {a.rule_id for a in alarms} == {"counter_alarm", "near", "r", "o"} and tuple(alarms) == run.alarms
        assert len(drift.pressures) == len(run.markings) == run.steps + 1 == len(text.splitlines())
        assert run.markings[0] == m.initial
        assert pickle.loads(pickle.dumps(run)) == run == copy.deepcopy(run)

    def test_a_kept_run_does_not_keep_its_dropped_model_alive(self):
        gc.disable()
        try:
            model = replace(pulse_net([PressureThreshold("near", "many", 1)]),
                            forbidden=(("many", CounterAtom("t", ">=", 3)),))
            bound = ExplorationBound(max_states=10)
            run = simulate(model, UniformRandom(1), 8, bound)
            states = explore(model, bound).states             # the kept exploration's list
            held = sys.getrefcount(states)
            layer = weakref.ref(compiled(model).layer)
            text = run_record_to_jsonl(run)
            del model
            assert layer() is None and sys.getrefcount(states) == held - 1
            assert run_record_to_jsonl(run) == text           # still read from the states
        finally:
            gc.enable()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_a_simulated_run_and_its_hand_built_twin_agree(self, seed):
        model = counted_net(seed)
        bound = ExplorationBound(max_states=200, max_tokens_per_place=6)
        run = simulate(model, UniformRandom(seed), 25, bound)
        twin = RunRecord(run.firings, tuple(run.markings), run.alarms, run.deadlock_step)
        assert run == twin and twin == run and hash(run) == hash(twin)
        assert evaluate_audit_rules(model, twin, bound) == evaluate_audit_rules(model, run, bound) == list(run.alarms)
        drifts = []
        for r in (run, twin):
            try:
                drifts.append(drift_report(model, r, "bad", bound))
            except PressureUnavailable as e:
                drifts.append(str(e))
        assert drifts[0] == drifts[1]
        text = run_record_to_jsonl(run)
        assert text == run_record_to_jsonl(twin)
        assert text.splitlines() == reference_lines(run)

    def test_a_marking_of_another_net_is_not_read_in_part(self):
        m = pulse_net([CounterThreshold("c", "t", 0)])
        run = RunRecord(("t",), (m.initial, Marking.make({"p": 1, "q": 0}, {"t": 1})))
        with pytest.raises(UnknownReference, match="^unknown place 'q'$"):
            evaluate_audit_rules(m, run)
        with pytest.raises(PressureUnavailable, match="^marking at step 1 is not a marking of the model"):
            drift_report(m, run, CounterAtom("t", ">=", 3))

    @pytest.mark.parametrize("copied", [lambda run: pickle.loads(pickle.dumps(run)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_a_copied_run_still_reads_its_states(self, monkeypatch, copied):
        m = audited_srs_net()
        run = simulate(m, UniformRandom(10), 40)
        text, drift = run_record_to_jsonl(run), drift_report(m, run, "bad_state")
        assert text.splitlines() == reference_lines(run)
        again = copied(run)
        calls = state_calls(monkeypatch)
        assert again == run and run_record_to_jsonl(again) == text
        assert evaluate_audit_rules(m, again) == list(run.alarms) and len(run.alarms) > 20
        assert drift_report(m, again, "bad_state") == drift
        assert calls == []

    def test_a_run_reads_its_states_against_a_parsed_twin_of_its_model(self, monkeypatch):
        m = audited_srs_net()
        run = simulate(m, UniformRandom(10), 40)
        drift = drift_report(m, run, "bad_state")
        twin = parse_model(serialize_model(m).text)
        compiled(twin)
        calls = state_calls(monkeypatch)
        in_order = attrgetter("step", "rule_id")       # the canonical text sorts the rules
        assert sorted(evaluate_audit_rules(twin, run), key=in_order) == sorted(run.alarms, key=in_order)
        assert drift_report(twin, run, "bad_state") == drift
        assert calls == []

    def test_a_run_whose_model_is_gone_writes_its_log_from_its_states(self, monkeypatch):
        model = counted_net(7)          # places and counters declared against id order
        run = simulate(model, UniformRandom(7), 25, ExplorationBound(max_states=200, max_tokens_per_place=6))
        text = run_record_to_jsonl(run)
        assert text.splitlines() == reference_lines(run)
        net = weakref.ref(compiled(model))
        del model
        gc.collect()
        assert net() is None
        read = []
        for name in ("tokens_map", "counters_map"):
            prop = getattr(Marking, name)
            monkeypatch.setattr(Marking, name, property(lambda m, prop=prop: read.append(m) or prop.fget(m)))
        assert run_record_to_jsonl(run) == text
        assert read == []

    def test_a_run_against_a_model_of_other_ids_goes_through_its_markings(self):
        m = NetModel(places=(PlaceDef("p"), PlaceDef("q")),
                     transitions=(TransitionDef("t", reads=(("p", 1),), counted=True),),
                     initial=Marking.make({"p": 1, "q": 0}, {"t": 0}),
                     audit_rules=(OccupancyThreshold("o", "q", ">=", 1), CounterThreshold("c", "t", 1)))
        run = simulate(m, Scripted(("t", "t")), 2)
        assert run.alarms == (Alarm(2, "c", 2),)
        # the same ids in another order: the states are read through the markings
        assert evaluate_audit_rules(replace(m, places=m.places[::-1]), run) == list(run.alarms)
        fewer = replace(m, places=m.places[:1], initial=Marking.make({"p": 1}, {"t": 0}),
                        audit_rules=m.audit_rules[1:])
        with pytest.raises(UnknownReference, match="^unknown place 'q'$"):
            evaluate_audit_rules(fewer, run)
        with pytest.raises(PressureUnavailable, match="^marking at step 0 is not a marking of the model"):
            drift_report(fewer, run, CounterAtom("t", ">=", 3))
        uncounted = replace(m, transitions=(TransitionDef("t", reads=(("p", 1),)),),
                            initial=Marking.make({"p": 1, "q": 0}), audit_rules=m.audit_rules[:1])
        with pytest.raises(UnknownReference, match="^unknown counter 't'$"):
            evaluate_audit_rules(uncounted, run)

    @pytest.mark.parametrize("steps, error", [("3", TypeError), (True, TypeError), (2.0, TypeError),
                                              (None, TypeError), (-3, ValueError)])
    def test_steps_must_be_a_non_negative_int(self, steps, error):
        with pytest.raises(error, match="^steps must be"):
            simulate(pulse_net(), UniformRandom(1), steps)

    @pytest.mark.parametrize("seed", [None, True, 1.5, "1"])
    def test_a_seed_that_is_not_an_int_is_refused(self, seed):
        with pytest.raises(TypeError, match=r"^UniformRandom\.seed must be an int"):
            UniformRandom(seed)
        with pytest.raises(TypeError, match=r"^Priority\.seed must be an int"):
            Priority(("t",), seed)

    def test_a_run_holds_one_marking_more_than_its_firings(self):
        m = pulse_net().initial
        with pytest.raises(ValueError, match="^a run of 3 firings needs 4 markings, got 2$"):
            RunRecord(("t",) * 3, (m, m))
        with pytest.raises(ValueError, match="^a run of 0 firings needs 1 markings, got 0$"):
            RunRecord((), ())
