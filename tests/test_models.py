"""Built-in fixtures: structure, verdict flips, golden serializations."""

from pathlib import Path

import pytest

from respetri import (
    Marking,
    NetModel,
    Pressure,
    ResultingModelInvalid,
    TokenAtom,
    UniformRandom,
    VerdictKind,
    check_forbidden,
    explore,
    find_cycles,
    initial_marking,
    parse_model,
    reachability_pressure,
    serialize_model,
    simulate,
    structurally_equal,
    validate_net,
)
from respetri.models import (
    FIXTURES,
    FixtureConfig,
    build_risk_scoring_model,
    build_srs_symbolic_model,
    build_traffic_model,
)

DATA = Path(__file__).parent.parent / "src" / "respetri" / "data"


class TestConfig:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            FixtureConfig(thresholds={"q": -1})

    def test_unknown_initial_place_rejected(self):
        with pytest.raises(ValueError):
            build_traffic_model(FixtureConfig(initial_tokens={"nope": 1}))

    @pytest.mark.parametrize("cfg, code", [
        (FixtureConfig(thresholds={"q": 2.5}), "BadWeight"),
        (FixtureConfig(initial_tokens={"p1": 5}), "BadInitial"),
        (FixtureConfig(thresholds={"r": 1}, safeguards_enabled=True), "RoleConflict"),
    ])
    def test_config_that_breaks_the_net_rejected(self, cfg, code):
        # a non-integer threshold, tokens over capacity 2, an inhibitor at
        # the input weight of t4: none of these is a model the text can hold
        with pytest.raises(ResultingModelInvalid) as info:
            build_traffic_model(cfg)
        assert [e.code for e in info.value.errors] == [code]

    @pytest.mark.parametrize("value", ["2", None, 2.5, True])
    @pytest.mark.parametrize("name, threshold", [("traffic", "q"), ("risk_scoring", "b"),
                                                 ("srs_symbolic", "theta")])
    @pytest.mark.parametrize("safeguards", [False, True])
    def test_a_threshold_that_is_not_an_int_is_an_invalid_model(self, name, threshold, value, safeguards):
        with pytest.raises(ResultingModelInvalid):
            FIXTURES[name](FixtureConfig(thresholds={threshold: value}, safeguards_enabled=safeguards))


class TestAllFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_validates_clean(self, name):
        for cfg in (FixtureConfig(), FixtureConfig(safeguards_enabled=True)):
            assert validate_net(FIXTURES[name](cfg)) == []

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_golden_files_match_builders(self, name):
        golden = (DATA / f"{name}.net").read_text()
        assert serialize_model(FIXTURES[name]()).text == golden
        assert serialize_model(parse_model(golden)).text == golden

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_builder_is_the_data_file(self, name):
        shipped = parse_model((DATA / f"{name}.net").read_text())
        assert FIXTURES[name]() == shipped
        for seed in range(5):
            assert (simulate(FIXTURES[name](), UniformRandom(seed), 12)
                    == simulate(shipped, UniformRandom(seed), 12))

    @pytest.mark.parametrize("name, threshold", [("traffic", "r"), ("risk_scoring", "b")])
    def test_safeguard_inhibitor_follows_its_threshold(self, name, threshold):
        m = FIXTURES[name](FixtureConfig(thresholds={threshold: 3}, safeguards_enabled=True))
        assert m.transition("t4").inhibitors == (("p3", 3),)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_verdict_flips_with_safeguards(self, name):
        unsafe = FIXTURES[name]()
        v = check_forbidden(unsafe, unsafe.forbidden[0][0])
        assert v.kind is VerdictKind.UNSAFE
        safe = FIXTURES[name](FixtureConfig(safeguards_enabled=True))
        v = check_forbidden(safe, safe.forbidden[0][0])
        assert v.kind is VerdictKind.SAFE


class TestTraffic:
    def test_counts(self):
        m = build_traffic_model()
        assert len(m.places) == 6
        assert len(m.transitions) == 6

    def test_displayed_cycle_present(self):
        assert ("p2", "t2", "p3", "t4", "p4", "t6") in find_cycles(build_traffic_model())

    def test_forbidden_uses_thresholds(self):
        m = build_traffic_model(FixtureConfig(thresholds={"q": 3, "r": 1, "e": 2}))
        from respetri import And, TokenAtom

        assert m.forbidden_predicate("gridlock") == And((
            TokenAtom("p1", ">=", 3), TokenAtom("p3", ">=", 1),
            TokenAtom("p4", "<=", 2)))

    def test_optional_data_conjunct(self):
        m = build_traffic_model(FixtureConfig(thresholds={"d": 2}))
        pred = m.forbidden_predicate("gridlock")
        assert len(pred.operands) == 4

    def test_trace_replayable(self):
        from respetri import eval_predicate, fire

        m = build_traffic_model()
        v = check_forbidden(m, "gridlock")
        mk = initial_marking(m)
        for t in v.trace.firings:
            mk = fire(m, mk, t)
        assert eval_predicate(m.forbidden_predicate("gridlock"), mk)

    def test_safeguard_structure(self):
        m = build_traffic_model(FixtureConfig(safeguards_enabled=True))
        assert dict(m.transition("t4").inhibitors) == {"p3": 2}
        assert m.transition("t6").guard is not None


class TestRiskScoring:
    def test_counts_and_cycle(self):
        m = build_risk_scoring_model()
        assert len(m.places) == 6
        assert len(m.transitions) == 6
        assert ("p2", "t2", "p3", "t4", "p4", "t6") in find_cycles(m)

    def test_forbidden_shape(self):
        from respetri import And, TokenAtom

        m = build_risk_scoring_model()
        assert m.forbidden_predicate("automation_capture") == And((
            TokenAtom("p1", "<=", 0), TokenAtom("p3", ">=", 2),
            TokenAtom("p4", "<=", 0), TokenAtom("p6", ">=", 1)))

    def test_reliance_only_flows_through_scoring(self):
        # p3 is produced only by t2 (t3 recycles it), and t4 consumes p3,
        # so any trace that fires t4 must fire t2 first.
        m = build_risk_scoring_model()
        producers = {t.id for t in m.transitions
                     if "p3" in dict(t.outputs) and "p3" not in dict(t.inputs)}
        assert producers == {"t2"}
        v = check_forbidden(m, "automation_capture")
        firings = v.trace.firings
        assert "t2" in firings
        if "t4" in firings:
            assert firings.index("t2") < firings.index("t4")


class TestSrsSymbolic:
    def test_drawn_initial_tokens(self):
        m = build_srs_symbolic_model()
        marked = {p for p, v in m.initial.tokens_map.items() if v > 0}
        assert marked == {"pA", "p_policy", "p_permit"}

    def test_t2_is_counted_and_guarded(self):
        m = build_srs_symbolic_model()
        t2 = m.transition("t2")
        assert t2.counted
        assert t2.guard is not None

    def test_initial_marking_without_the_t2_counter(self):
        # the model gives the counted t2 its counter, so the marking it
        # holds is a node of its own exploration
        m = build_srs_symbolic_model()
        m = NetModel(m.places, m.transitions, Marking.make(dict(m.initial.tokens_map)),
                     m.forbidden, m.audit_rules, m.modes, m.metadata)
        assert structurally_equal(m, parse_model(serialize_model(m).text))
        assert m.initial == initial_marking(m) == build_srs_symbolic_model().initial
        graph = explore(m)
        assert m.initial in graph
        assert reachability_pressure(graph, m.initial, TokenAtom("p_bad", ">=", 1)) == Pressure(3, False)

    def test_audit_rule_threshold_configurable(self):
        m = build_srs_symbolic_model(FixtureConfig(thresholds={"theta": 5}))
        assert m.audit_rules[0].threshold == 5

    def test_unsafe_trace_is_the_leak_path(self):
        m = build_srs_symbolic_model()
        v = check_forbidden(m, "bad_state")
        assert v.trace.firings in (("tA", "t2", "tBad"), ("tPol", "t2", "tBad"))

    def test_permit_gate_makes_safe(self):
        m = build_srs_symbolic_model(FixtureConfig(safeguards_enabled=True))
        v = check_forbidden(m, "bad_state")
        assert v.kind is VerdictKind.SAFE

    def test_patch_file_reproduces_safeguarded_traffic(self):
        from respetri import apply_patch, parse_patch, structurally_equal

        patch = parse_patch((DATA / "traffic_safeguards.patch").read_text())
        patched = apply_patch(build_traffic_model(), patch)
        assert structurally_equal(
            patched, build_traffic_model(FixtureConfig(safeguards_enabled=True)))
        assert patched == build_traffic_model(FixtureConfig(safeguards_enabled=True))
