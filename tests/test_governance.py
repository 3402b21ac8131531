"""Patches, verification reports, and the hash-chained governance log."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respetri import (
    DEFAULT_BOUND,
    AddArc,
    AddForbidden,
    AddPlace,
    AddTransition,
    CounterAtom,
    DanglingReference,
    GovernanceLog,
    HashChainBroken,
    ModeAtom,
    Not,
    Or,
    Patch,
    PlaceDef,
    RemoveArc,
    RemovePlace,
    RemoveTransition,
    ResultingModelInvalid,
    SetCapacity,
    SetGuard,
    SwitchMode,
    TokenAtom,
    TransitionDef,
    UnknownTarget,
    VerdictKind,
    apply_patch,
    initial_marking,
    model_hash,
    parse_model,
    parse_patch,
    record_decision,
    replay_log,
    serialize_model,
    structurally_equal,
    verify_patch,
)
from respetri.governance import replay_log as _replay  # noqa: F401 (re-export check)
from respetri.governance import EditOp, format_op, patch_report
from respetri.models import FIXTURES, FixtureConfig, build_traffic_model

DATA = Path(__file__).resolve().parent.parent / "src" / "respetri" / "data"

SAFEGUARD = Patch(
    ops=(AddArc("inhibit", "p3", "t4", 2),
         SetGuard("t6", TokenAtom("p4", ">=", 2))),
    author="ops",
    rationale="cap reliance conversion; keep a slack buffer",
)

MODAL = """\
place p init 1
place q
trans go in p:1 out q:1
trans back in q:1 out p:1
mode normal
mode strict disable back
"""


class TestApplyPatch:
    def test_empty_patch_is_identity(self):
        m = build_traffic_model()
        out = apply_patch(m, Patch(()))
        assert out is not m
        assert structurally_equal(m, out)
        assert model_hash(m) == model_hash(out)

    def test_add_and_remove_place(self):
        m = build_traffic_model()
        out = apply_patch(m, Patch((AddPlace(PlaceDef("buffer", capacity=2), init=1),)))
        assert out.has_place("buffer")
        assert out.initial.tokens_map["buffer"] == 1
        back = apply_patch(out, Patch((RemovePlace("buffer"),)))
        assert not back.has_place("buffer")

    def test_remove_referenced_place_dangles(self):
        m = build_traffic_model()
        with pytest.raises(DanglingReference):
            apply_patch(m, Patch((RemovePlace("p3"),)))

    def test_remove_place_referenced_by_forbidden_dangles(self):
        m = parse_model("place p init 1\nforbidden f := p >= 1\n")
        with pytest.raises(DanglingReference):
            apply_patch(m, Patch((RemovePlace("p"),)))

    @pytest.mark.parametrize("text, op, referrer", [
        ("trans u in q:1 guard p >= 1", RemovePlace("p"), "guard of u"),
        ("trans u in q:1 guard #t >= 1", RemoveTransition("t"), "guard of u"),
        ("audit o := occupancy p >= 1", RemovePlace("p"), "audit rule o"),
        ("mode a disable t\nmode b", RemoveTransition("t"), "mode a disables"),
        ("mode a\noverride a t := q >= 1", RemoveTransition("t"), "mode a overrides"),
    ], ids=["guard-token", "guard-counter", "occupancy", "mode-disable", "mode-override"])
    def test_every_referrer_kind_dangles(self, text, op, referrer):
        m = parse_model("place p init 1\nplace q\ntrans t out q:1 counted\n" + text + "\n")
        with pytest.raises(DanglingReference, match=referrer):
            apply_patch(m, Patch((op,)))

    def test_a_removal_added_back_does_not_dangle(self):
        m = build_traffic_model()
        out = apply_patch(m, Patch((RemovePlace("p3"), AddPlace(m.place("p3")))))
        assert structurally_equal(m, out)

    def test_removals_are_judged_on_the_result(self):
        # the place and its only referrer go in one patch, in either order
        m = parse_model("place p init 1\nplace q\ntrans t in p:1 out q:1\n")
        for ops in ((RemovePlace("p"), RemoveTransition("t")),
                    (RemoveTransition("t"), RemovePlace("p"))):
            assert apply_patch(m, Patch(ops)).place_ids == ("q",)

    def test_add_and_remove_transition(self):
        m = build_traffic_model()
        t = TransitionDef("t7", inputs=(("p5", 1),), outputs=(("p6", 1),))
        out = apply_patch(m, Patch((AddTransition(t),)))
        assert out.has_transition("t7")
        back = apply_patch(out, Patch((RemoveTransition("t7"),)))
        assert not back.has_transition("t7")

    def test_remove_transition_referenced_by_audit_dangles(self):
        m = parse_model("place p init 1\ntrans t in p:1 counted\n"
                        "audit c := counter t > 1\n")
        with pytest.raises(DanglingReference):
            apply_patch(m, Patch((RemoveTransition("t"),)))

    def test_arc_edits(self):
        m = build_traffic_model()
        out = apply_patch(m, Patch((AddArc("inhibit", "p3", "t4", 2),)))
        assert dict(out.transition("t4").inhibitors) == {"p3": 2}
        back = apply_patch(out, Patch((RemoveArc("inhibit", "p3", "t4"),)))
        assert back.transition("t4").inhibitors == ()

    def test_remove_missing_arc(self):
        with pytest.raises(UnknownTarget):
            apply_patch(build_traffic_model(),
                        Patch((RemoveArc("read", "p1", "t1"),)))

    def test_unknown_targets(self):
        m = build_traffic_model()
        for op in (RemovePlace("px"), RemoveTransition("tx"),
                   AddArc("in", "px", "t1"), SetGuard("tx", None),
                   SetCapacity("px", 1), SwitchMode("night")):
            with pytest.raises(UnknownTarget):
                apply_patch(m, Patch((op,)))

    def test_set_guard_and_clear(self):
        m = build_traffic_model()
        out = apply_patch(m, Patch((SetGuard("t6", TokenAtom("p4", ">=", 2)),)))
        assert out.transition("t6").guard == TokenAtom("p4", ">=", 2)
        cleared = apply_patch(out, Patch((SetGuard("t6", None),)))
        assert cleared.transition("t6").guard is None

    def test_set_capacity(self):
        m = build_traffic_model()
        out = apply_patch(m, Patch((SetCapacity("p6", 1),)))
        assert out.place("p6").capacity == 1
        out = apply_patch(m, Patch((SetCapacity("p6", None),)))
        assert out.place("p6").capacity is None

    def test_add_forbidden(self):
        m = build_traffic_model()
        out = apply_patch(m, Patch((AddForbidden("extra", TokenAtom("p5", ">=", 2)),)))
        assert out.forbidden_predicate("extra") == TokenAtom("p5", ">=", 2)

    def test_switch_mode(self):
        m = parse_model(MODAL)
        out = apply_patch(m, Patch((SwitchMode("strict"),)))
        assert out.initial.tokens_map["mode_strict"] == 1
        assert out.initial.tokens_map["mode_normal"] == 0
        assert out.active_mode(initial_marking(out)).id == "strict"

    def test_resulting_model_invalid_aborts(self):
        m = build_traffic_model()
        bad = Patch((SetCapacity("p1", 1),))  # initial marking has 2 tokens
        with pytest.raises(ResultingModelInvalid):
            apply_patch(m, bad)

    def test_atomicity_on_midway_failure(self):
        m = build_traffic_model()
        before = model_hash(m)
        with pytest.raises(UnknownTarget):
            apply_patch(m, Patch((SetCapacity("p6", 1), RemovePlace("nope"))))
        assert model_hash(m) == before

    def test_patch_id_depends_only_on_ops(self):
        a = Patch(SAFEGUARD.ops, author="x", rationale="y")
        assert a.id == SAFEGUARD.id
        assert Patch(()).id != SAFEGUARD.id


class TestPatchText:
    def test_round_trip(self):
        text = SAFEGUARD.to_text()
        again = parse_patch(text)
        assert again == SAFEGUARD

    def test_parse_all_op_kinds(self):
        text = (
            'add place buffer cap 2 init 1 label "spare"\n'
            "add trans t9 in buffer:1 out buffer:1 guard buffer >= 1\n"
            "add arc read buffer t9 1\n"
            "add forbidden f2 := buffer >= 2\n"
            "set guard t9 none\n"
            "set capacity buffer none\n"
            "remove arc read buffer t9\n"
            "remove trans t9\n"
            "remove place buffer\n"
        )
        patch = parse_patch(text)
        assert len(patch.ops) == 9
        again = parse_patch(patch.to_text())
        assert again.ops == patch.ops

    def test_parse_errors_collected(self):
        from respetri import ParseFailure

        with pytest.raises(ParseFailure) as exc:
            parse_patch("add gizmo x\nremove arc sideways p t\n")
        assert len(exc.value.errors) == 2

    @pytest.mark.parametrize("text, position", [
        ("add gizmo x", (1, 5)),
        ("add arc sideways p t", (1, 9)),
        ("remove arc sideways p t", (1, 12)),
        ("set colour t", (1, 5)),
        ("remove gizmo x", (1, 8)),
    ])
    def test_error_points_at_the_bad_word(self, text, position):
        from respetri import ParseFailure

        with pytest.raises(ParseFailure) as exc:
            parse_patch(text)
        assert [e.position for e in exc.value.errors] == [position]


    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.text())
    def test_any_author_and_rationale_round_trip(self, author, rationale):
        patch = Patch(SAFEGUARD.ops, author=author, rationale=rationale)
        assert parse_patch(patch.to_text()) == patch

    def test_add_lines_are_model_lines(self):
        m = build_traffic_model()
        model_lines = serialize_model(m).text.splitlines()
        init = m.initial.tokens_map
        ops = ([AddPlace(p, init[p.id]) for p in m.places]
               + [AddTransition(t) for t in m.transitions]
               + [AddForbidden(n, pred) for n, pred in m.forbidden])
        for op in ops:
            line = format_op(op)
            assert line.startswith("add ") and line[4:] in model_lines


class TestPinnedBytes:
    """Patch ids and model hashes that logs and reports already carry."""

    def test_safeguard_patch_id(self):
        text = (DATA / "traffic_safeguards.patch").read_text(encoding="utf-8")
        assert parse_patch(text).id == (
            "7a9cdee17829c19d2421727e1ae6edadfb017f6161a171574cf61f242ee9121d")

    def test_fixture_model_hashes(self):
        assert {name: model_hash(build()) for name, build in FIXTURES.items()} == {
            "traffic": "e092577d0eca0cb103a743d12352f3ad010485614431b18ea841e484a952d817",
            "risk_scoring": "ee706cdd1b2e18093da89a677573e2e166641b60c2c47424567fa3cb1e49e484",
            "srs_symbolic": "df68dfe7204856aa193ce57812f4a7bd8e1c9a15919f59e7b9a40776f87459bd",
        }

    def test_every_op_kind_round_trips(self):
        patch = Patch(
            ops=(AddPlace(PlaceDef("buffer", 2, 'say "hi"\\'), 1),
                 AddTransition(TransitionDef(
                     "t9", (("buffer", 1),), (("p1", 2),), (("p2", 1),), (("p3", 1),),
                     Or((TokenAtom("buffer", ">=", 1), Not(CounterAtom("t9", "<", 2)))),
                     counted=True)),
                 AddArc("read", "buffer", "t1", 3), AddForbidden("f2", TokenAtom("buffer", ">=", 2)),
                 SetGuard("t9", None), SetGuard("t1", ModeAtom("strict")),
                 SetCapacity("buffer", None), SetCapacity("p1", 4),
                 RemoveArc("inhibit", "p2", "t9"), RemoveTransition("t9"),
                 RemovePlace("buffer"), SwitchMode("strict")),
            author="ops\nteam", rationale="keep a \"slack\" buffer")
        assert {type(op) for op in patch.ops} == set(EditOp.__args__)
        assert parse_patch(patch.to_text()) == patch


class TestVerifyPatch:
    def test_safeguard_flips_unsafe_to_safe(self):
        m = build_traffic_model()
        report = verify_patch(m, SAFEGUARD)
        before = dict(report.verdicts_before)
        after = dict(report.verdicts_after)
        assert before["gridlock"].kind is VerdictKind.UNSAFE
        assert after["gridlock"].kind is VerdictKind.SAFE
        assert report.regressions == ()
        assert report.states_after < report.states_before

    def test_regression_flagged(self):
        safe = build_traffic_model(FixtureConfig(safeguards_enabled=True))
        weaken = Patch((SetGuard("t6", None), RemoveArc("inhibit", "p3", "t4")))
        report = verify_patch(safe, weaken)
        assert report.regressions == ("gridlock",)

    def test_predicate_set_changes_flagged(self):
        m = build_traffic_model()
        report = verify_patch(m, Patch((AddForbidden("extra", TokenAtom("p5", ">=", 9)),)))
        assert report.predicates_added == ("extra",)
        assert report.predicates_removed == ()

    def test_no_op_patch_keeps_verdicts(self):
        m = build_traffic_model()
        report = verify_patch(m, Patch(()))
        assert [ (n, v.kind) for n, v in report.verdicts_before ] == \
               [ (n, v.kind) for n, v in report.verdicts_after ]
        assert report.pre_hash == report.post_hash

    def test_patch_report_explores_only_with_a_bound(self):
        m = build_traffic_model()
        post = apply_patch(m, SAFEGUARD)
        assert patch_report(m, post, SAFEGUARD, DEFAULT_BOUND) == verify_patch(m, SAFEGUARD)
        bare = patch_report(m, post, SAFEGUARD)
        assert (bare.verdicts_before, bare.verdicts_after, bare.regressions) == ((), (), ())
        assert (bare.states_before, bare.states_after) == (0, 0)
        assert (bare.pre_hash, bare.post_hash) == (model_hash(m), model_hash(post))


class TestGovernanceLog:
    def _entry(self, model, patch):
        report = verify_patch(model, patch)
        post = apply_patch(model, patch)
        return post, report

    def test_chain_of_two(self):
        m0 = build_traffic_model()
        m1, r1 = self._entry(m0, Patch((SetCapacity("p5", 1),)))
        m2, r2 = self._entry(m1, SAFEGUARD)
        log = record_decision(GovernanceLog(), m0, m1, Patch((SetCapacity("p5", 1),)), r1)
        log = record_decision(log, m1, m2, SAFEGUARD, r2)
        assert len(log.entries) == 2
        assert log.verify_chain()
        assert log.entries[0].post_hash == log.entries[1].pre_hash

    def test_mismatched_pre_hash_rejected(self):
        m0 = build_traffic_model()
        m1, r1 = self._entry(m0, Patch((SetCapacity("p5", 1),)))
        log = record_decision(GovernanceLog(), m0, m1, Patch((SetCapacity("p5", 1),)), r1)
        # second entry claims to start from m0 again: breaks the chain
        m2, r2 = self._entry(m0, SAFEGUARD)
        with pytest.raises(HashChainBroken):
            record_decision(log, m0, m2, SAFEGUARD, r2)

    def test_jsonl_round_trip_and_tamper_detection(self):
        m0 = build_traffic_model()
        m1, r1 = self._entry(m0, SAFEGUARD)
        log = record_decision(GovernanceLog(), m0, m1, SAFEGUARD, r1)
        text = log.to_jsonl()
        assert GovernanceLog.from_jsonl(text) == log
        m2, r2 = self._entry(m1, Patch((SetCapacity("p5", 1),)))
        log2 = record_decision(log, m1, m2, Patch((SetCapacity("p5", 1),)), r2)
        # corrupt only the first entry's post-hash so the chain no longer links
        tampered = log2.to_jsonl().replace(model_hash(m1), "0" * 64, 1)
        with pytest.raises(HashChainBroken):
            GovernanceLog.from_jsonl(tampered)

    @pytest.mark.parametrize("corrupt", [
        lambda e: "not json",
        lambda e: '{"timestamp": "x"}',
        lambda e: "[1, 2]",
        lambda e: json.dumps({k: v for k, v in e.items() if k != "author"}),
        lambda e: json.dumps({**e, "note": "x"}),
        lambda e: json.dumps({**e, "verdicts": ["safe/exhaustive-bounded"]}),
        lambda e: json.dumps({**e, "patch_id": []}),
        lambda e: json.dumps({**e, "pre_hash": None}),
        lambda e: json.dumps({**e, "verdicts": {"gridlock": 3}}),
    ], ids=["not-json", "one-field", "array", "missing-field", "extra-field", "verdicts-list",
            "patch-id-list", "pre-hash-null", "verdict-number"])
    def test_a_line_that_is_not_an_entry_is_named(self, corrupt):
        m0 = build_traffic_model()
        m1, r1 = self._entry(m0, SAFEGUARD)
        good = record_decision(GovernanceLog(), m0, m1, SAFEGUARD, r1).to_jsonl().strip()
        with pytest.raises(HashChainBroken, match="line 3"):
            GovernanceLog.from_jsonl(f"{good}\n\n{corrupt(json.loads(good))}\n")

    def test_replay_reproduces_final_hash(self):
        m0 = build_traffic_model()
        patches = [Patch((SetCapacity("p5", 1),)), SAFEGUARD]
        model = m0
        log = GovernanceLog()
        for p in patches:
            report = verify_patch(model, p)
            post = apply_patch(model, p)
            log = record_decision(log, model, post, p, report)
            model = post
        assert model_hash(replay_log(m0, patches)) == log.entries[-1].post_hash
