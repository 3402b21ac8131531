"""Simulation policies, audit alarms, drift reports."""

import hashlib
import json
import time

import pytest

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
    Scripted,
    ScriptedFiringDisabled,
    TokenAtom,
    TransitionDef,
    UniformRandom,
    drift_report,
    parse_model,
    run_record_to_jsonl,
    serialize_model,
    simulate,
)
from respetri.models import FixtureConfig, build_srs_symbolic_model, build_traffic_model


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
