"""Token-game semantics, validation, and marking invariants."""

import os
import pickle
import random
import re
import subprocess
import sys
import types
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respetri import (
    And,
    CounterAtom,
    CounterThreshold,
    Marking,
    ModeAtom,
    ModeDef,
    NetModel,
    Not,
    NotEnabled,
    OccupancyThreshold,
    Or,
    ParseFailure,
    Patch,
    PlaceDef,
    PressureThreshold,
    RateThreshold,
    Scripted,
    StructureFailure,
    TokenAtom,
    TransitionDef,
    UnknownReference,
    UnknownTransition,
    apply_patch,
    enabled_set,
    eval_predicate,
    explore,
    fire,
    initial_marking,
    is_enabled,
    is_upward_closed,
    model_hash,
    parse_model,
    serialize_model,
    simulate,
    validate_net,
)
from respetri.dsl import format_op, format_predicate
from respetri.net import compiled
from respetri.models import build_srs_symbolic_model, build_traffic_model

from oracles import random_net


def chain_net():
    return NetModel(
        places=(PlaceDef("p0"), PlaceDef("p1"), PlaceDef("p2")),
        transitions=(
            TransitionDef("t1", inputs=(("p0", 1),), outputs=(("p1", 1),)),
            TransitionDef("t2", inputs=(("p1", 1),), outputs=(("p2", 1),)),
        ),
        initial=Marking.make({"p0": 1, "p1": 0, "p2": 0}),
    )


class TestEnabling:
    def test_minimal_enabling(self):
        m = chain_net()
        assert is_enabled(m, initial_marking(m), "t1")

    def test_insufficient_tokens(self):
        m = chain_net()
        assert not is_enabled(m, initial_marking(m), "t2")

    def test_unknown_transition(self):
        m = chain_net()
        with pytest.raises(UnknownTransition):
            is_enabled(m, initial_marking(m), "nope")

    def test_enabled_set_order_and_content(self):
        m = chain_net()
        assert enabled_set(m, initial_marking(m)) == ["t1"]
        empty = NetModel(places=(PlaceDef("p"),), transitions=(),
                         initial=Marking.make({"p": 0}))
        assert enabled_set(empty, initial_marking(empty)) == []

    def test_srs_initial_enabled_set(self):
        m = build_srs_symbolic_model()
        mk = initial_marking(m)
        assert enabled_set(m, mk) == ["tA", "tPol"]
        assert not is_enabled(m, mk, "t2")  # pB empty despite the permit

    def test_weighted_input(self):
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q")),
            transitions=(TransitionDef("t", inputs=(("p", 2),), outputs=(("q", 1),)),),
            initial=Marking.make({"p": 1, "q": 0}),
        )
        assert not is_enabled(m, initial_marking(m), "t")
        m2 = fire(m, Marking.make({"p": 2, "q": 0}), "t")
        assert m2.tokens_map == {"p": 0, "q": 1}

    def test_inhibitor_blocks_at_threshold(self):
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q")),
            transitions=(TransitionDef("t", inputs=(("q", 1),),
                                       inhibitors=(("p", 2),)),),
            initial=Marking.make({"p": 0, "q": 1}),
        )
        assert is_enabled(m, Marking.make({"p": 1, "q": 1}), "t")
        assert not is_enabled(m, Marking.make({"p": 2, "q": 1}), "t")
        assert not is_enabled(m, Marking.make({"p": 3, "q": 1}), "t")

    def test_read_arc_requires_without_consuming(self):
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q")),
            transitions=(TransitionDef("t", reads=(("p", 1),), outputs=(("q", 1),)),),
            initial=Marking.make({"p": 1, "q": 0}),
        )
        assert not is_enabled(m, Marking.make({"p": 0, "q": 0}), "t")
        after = fire(m, initial_marking(m), "t")
        assert after.tokens_map == {"p": 1, "q": 1}

    def test_capacity_blocks_enabling(self):
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q", capacity=1)),
            transitions=(TransitionDef("t", inputs=(("p", 1),), outputs=(("q", 1),)),),
            initial=Marking.make({"p": 2, "q": 0}),
        )
        m1 = fire(m, initial_marking(m), "t")
        assert m1.tokens_map["q"] == 1
        assert not is_enabled(m, m1, "t")

    def test_guard_blocks(self):
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q")),
            transitions=(TransitionDef("t", inputs=(("p", 1),),
                                       guard=TokenAtom("q", ">=", 1)),),
            initial=Marking.make({"p": 1, "q": 0}),
        )
        assert not is_enabled(m, initial_marking(m), "t")
        assert is_enabled(m, Marking.make({"p": 1, "q": 1}), "t")


class TestFiring:
    def test_token_move(self):
        m = chain_net()
        m1 = fire(m, initial_marking(m), "t1")
        assert m1.tokens_map == {"p0": 0, "p1": 1, "p2": 0}

    def test_not_enabled(self):
        m = chain_net()
        with pytest.raises(NotEnabled):
            fire(m, initial_marking(m), "t2")

    def test_counter_increment(self):
        srs = build_srs_symbolic_model()
        mk = initial_marking(srs)
        assert mk.counter_of("t2") == 0
        mk = fire(srs, mk, "tA")
        before = dict(mk.tokens_map)
        mk = fire(srs, mk, "t2")
        assert mk.counter_of("t2") == 1
        assert mk.tokens_map["pB"] == before["pB"] - 1
        assert mk.tokens_map["p_permit"] == before["p_permit"] - 1
        assert mk.tokens_map["pC"] == before["pC"] + 1


class TestPredicates:
    def test_token_atom(self):
        assert eval_predicate(TokenAtom("p", ">=", 1), Marking.make({"p": 1}))
        assert not eval_predicate(TokenAtom("p", ">=", 1), Marking.make({"p": 0}))

    def test_counter_atom_with_threshold(self):
        m = Marking.make({}, {"t2": 3})
        assert eval_predicate(CounterAtom("t2", ">", 2), m)
        assert not eval_predicate(CounterAtom("t2", ">", 3), m)

    def test_negation(self):
        assert eval_predicate(Not(TokenAtom("p", ">=", 1)), Marking.make({"p": 0}))

    def test_upward_closed_classification(self):
        assert is_upward_closed(TokenAtom("p", ">=", 1))
        assert is_upward_closed(And((TokenAtom("p", ">", 0), CounterAtom("t", ">=", 2))))
        assert not is_upward_closed(TokenAtom("p", "<=", 1))
        assert not is_upward_closed(Not(TokenAtom("p", ">=", 1)))

    def test_mode_atoms_are_not_upward_closed(self):
        assert not is_upward_closed(ModeAtom("m"))
        assert not is_upward_closed(Or((TokenAtom("p", ">=", 1), ModeAtom("m"))))

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            TokenAtom("p", "!=", 1)

    def test_and_or_need_two_operands(self):
        # the text has no and/or of fewer than two terms, so neither has the API
        a = TokenAtom("p", ">=", 1)
        for build in (lambda: And(()), lambda: And((a,)), lambda: Or((a,))):
            with pytest.raises(ValueError):
                build()


class TestValidation:
    def test_duplicate_place_id(self):
        m = NetModel(places=(PlaceDef("p1"), PlaceDef("p1")), transitions=(),
                     initial=Marking.make({"p1": 0}))
        assert any(e.code == "DuplicateId" and e.element == "p1"
                   for e in validate_net(m))

    def test_unknown_endpoint(self):
        m = NetModel(places=(PlaceDef("p"),),
                     transitions=(TransitionDef("t", inputs=(("px", 1),)),),
                     initial=Marking.make({"p": 0}))
        assert any(e.code == "UnknownEndpoint" and e.element == "px"
                   for e in validate_net(m))

    def test_unsatisfiable_input_inhibitor_pair(self):
        def net(threshold):
            return NetModel(
                places=(PlaceDef("p"),),
                transitions=(TransitionDef("t", inputs=(("p", 1),),
                                           inhibitors=(("p", threshold),)),),
                initial=Marking.make({"p": 0}))
        assert any(e.code == "RoleConflict" for e in validate_net(net(1)))
        assert validate_net(net(2)) == []

    def test_initial_exceeds_capacity(self):
        m = NetModel(places=(PlaceDef("p", capacity=1),), transitions=(),
                     initial=Marking.make({"p": 2}))
        assert any(e.code == "BadInitial" for e in validate_net(m))

    def test_initial_must_be_total(self):
        m = NetModel(places=(PlaceDef("p"), PlaceDef("q")), transitions=(),
                     initial=Marking.make({"p": 0}))
        assert any(e.code == "BadInitial" and e.element == "q"
                   for e in validate_net(m))

    def test_mode_invariant_exactly_one_marked(self):
        m = NetModel(
            places=(PlaceDef("mode_a", capacity=1), PlaceDef("mode_b", capacity=1)),
            transitions=(),
            initial=Marking.make({"mode_a": 1, "mode_b": 1}),
            modes=(ModeDef("a"), ModeDef("b")),
        )
        assert any(e.code == "ModeInvariant" for e in validate_net(m))

    def test_mode_token_must_be_given_back(self):
        # y takes the mode token and gives none back, which would leave no
        # mode marked; a switch from mode a to mode b conserves it
        text = ("place p init 1\nplace q\ntrans x in p:1 out q:1\n{}\n"
                "mode a\nmode b disable x\nforbidden f := q >= 2\n")
        with pytest.raises(StructureFailure) as exc:
            parse_model(text.format("trans y in mode_a:1 out q:1"))
        assert [(e.code, e.element) for e in exc.value.errors] == [("ModeInvariant", "y")]
        parse_model(text.format("trans y in mode_a:1 out mode_b:1"))

    def test_unknown_disabled_transitions_are_listed_in_sorted_order_under_any_hash_seed(self):
        # ModeDef.disabled is a frozenset, whose order follows PYTHONHASHSEED
        code = ("from respetri import StructureFailure, parse_model\n"
                "try:\n    parse_model('place p init 1\\nmode m disable d a c b\\n')\n"
                "except StructureFailure as e:\n    print([(x.code, x.element) for x in e.errors])\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
                for seed in ("0", "1")}
        assert outs == {str([("UnknownEndpoint", t) for t in "abcd"]) + "\n"}

    def test_a_disabled_id_that_is_not_a_string_still_gets_its_error(self):
        m = NetModel(places=(PlaceDef("mode_m", capacity=1),), transitions=(),
                     initial=Marking.make({"mode_m": 1}), modes=(ModeDef("m", {"b", 3, "a"}),))
        assert [e.element for e in validate_net(m) if e.code == "UnknownEndpoint"] == [3, "a", "b"]

    def test_nonzero_initial_counter(self):
        # the text format starts every counter at 0, so a model that does not
        # would share its hash with a reparse that answers differently
        m = NetModel(places=(PlaceDef("p"),),
                     transitions=(TransitionDef("t", inputs=(("p", 1),), counted=True),),
                     initial=Marking.make({"p": 1}, {"t": 1}),
                     forbidden=(("hot", CounterAtom("t", ">=", 2)),))
        assert [(e.code, e.element) for e in validate_net(m)] == [("BadInitial", "t")]
        assert model_hash(parse_model(serialize_model(m))) == model_hash(m)

    def test_counted_transition_starts_at_zero(self):
        m = NetModel(places=(PlaceDef("p"),),
                     transitions=(TransitionDef("t", inputs=(("p", 1),), counted=True),),
                     initial=Marking.make({"p": 1}))
        assert m.initial.counters_map == {"t": 0}
        assert validate_net(m) == []

    def test_counter_on_uncounted_transition(self):
        # the text gives counters to counted transitions only
        m = NetModel(places=(PlaceDef("p"),),
                     transitions=(TransitionDef("t", inputs=(("p", 1),)),),
                     initial=Marking.make({"p": 1}, {"t": 0}))
        assert [(e.code, e.element) for e in validate_net(m)] == [("BadInitial", "t")]

    @pytest.mark.parametrize("edit, code, element", [
        (dict(places=(PlaceDef("p"), PlaceDef("my place")),
              initial=Marking.make({"p": 1, "my place": 0})), "BadId", "my place"),
        (dict(transitions=(TransitionDef("t-1", inputs=(("p", 1),)),)), "BadId", "t-1"),
        (dict(forbidden=(("g h", TokenAtom("p", ">=", 2)),)), "BadId", "g h"),
        (dict(audit_rules=(CounterThreshold("a:b", "t", 1),)), "BadId", "a:b"),
        (dict(places=(PlaceDef("p"), PlaceDef("mode_1x", capacity=1)),
              initial=Marking.make({"p": 1, "mode_1x": 1}), modes=(ModeDef("1x"),)), "BadId", "1x"),
        (dict(metadata=(("a key", "v"),)), "BadId", "a key"),
        (dict(audit_rules=(CounterThreshold("c", "t", -1),)), "BadWeight", "c"),
        (dict(audit_rules=(RateThreshold("r", "t", -1, 3),)), "BadWeight", "r"),
        (dict(audit_rules=(OccupancyThreshold("o", "p", ">=", -1),)), "BadWeight", "o"),
        (dict(forbidden=(("f", TokenAtom("p", ">=", 2)),),
              audit_rules=(PressureThreshold("s", "f", -1),)), "BadWeight", "s"),
        (dict(places=(PlaceDef("p", capacity=2.5),)), "BadCapacity", "p"),
        (dict(places=(PlaceDef("p", capacity=True),)), "BadCapacity", "p"),
        (dict(initial=Marking.make({"p": 1.5})), "BadInitial", "p"),
        (dict(initial=Marking.make({"p": True})), "BadInitial", "p"),
        (dict(forbidden=(("f", TokenAtom("p", ">=", 2.5)),)), "BadWeight", "p"),
        (dict(forbidden=(("f", TokenAtom("p", ">=", "2")),)), "BadWeight", "p"),
        (dict(forbidden=(("f", Not(CounterAtom("t", "<", 0.5))),)), "BadWeight", "t"),
        (dict(transitions=(TransitionDef("t", guard=TokenAtom("p", "=", True)),)), "BadWeight", "p"),
        (dict(places=(PlaceDef("p"), PlaceDef("mode_m", capacity=1)),
              initial=Marking.make({"p": 1, "mode_m": 1}),
              modes=(ModeDef("m", guard_overrides=(("t", TokenAtom("p", "<", 1.0)),)),)),
         "BadWeight", "p"),
        (dict(audit_rules=(CounterThreshold("c", "t", 1.5),)), "BadWeight", "c"),
        (dict(audit_rules=(CounterThreshold("c", "t", "2"),)), "BadWeight", "c"),
        (dict(audit_rules=(RateThreshold("r", "t", 1, True),)), "BadWeight", "r"),
        (dict(transitions=(TransitionDef("t", inputs=(("p", 1.5),)),)), "BadWeight", "t/p"),
        (dict(transitions=(TransitionDef("t", inputs=(("p", True),)),)), "BadWeight", "t/p"),
        (dict(transitions=(TransitionDef("t", outputs=(("p", "2"),)),)), "BadWeight", "t/p"),
    ])
    def test_what_the_parser_refuses_does_not_validate(self, edit, code, element):
        # each of these serializes to text that does not parse, or parses to
        # another model (a value "2" reads back as 2)
        base = dict(places=(PlaceDef("p"),), transitions=(TransitionDef("t", inputs=(("p", 1),)),),
                    initial=Marking.make({"p": 1}))
        m = NetModel(**{**base, **edit})
        assert [(e.code, e.element) for e in validate_net(m)] == [(code, element)]
        try:
            again = parse_model(serialize_model(m))
        except ParseFailure:
            return
        assert again != m

    def test_arc_ids_and_weights_are_kept_as_given(self):
        t = TransitionDef("t", inputs=(("q", True), ("p", 1.5)))
        assert t.inputs == (("p", 1.5), ("q", True))
        assert [type(w) for _, w in t.inputs] == [float, bool]
        m = NetModel(places=(PlaceDef("p"),), transitions=(TransitionDef("t", inputs=((3, 1), ("p", 1))),),
                     initial=Marking.make({"p": 1}))
        assert [(e.code, e.element) for e in validate_net(m)] == [("UnknownEndpoint", 3)]

    @pytest.mark.parametrize("edit, code, element", [
        (dict(places=(PlaceDef("p", capacity=0),), initial=Marking.make({"p": 0})), "BadCapacity", "p"),
        (dict(transitions=(TransitionDef("p"),)), "DuplicateId", "p"),
        (dict(transitions=(TransitionDef("t", inputs=(("p", 0),)),)), "BadWeight", "t/p"),
        (dict(transitions=(TransitionDef("t", inputs=(("p", 1), ("p", 2))),)), "DuplicateArc", "t/p"),
        (dict(initial=Marking.make({"p": -1})), "BadInitial", "p"),
        (dict(initial=Marking.make({"p": 1, "ghost": 0})), "UnknownEndpoint", "ghost"),
        (dict(initial=Marking.make({"p": 1}, {"ghost": 0})), "UnknownEndpoint", "ghost"),
        (dict(forbidden=(("f", TokenAtom("p", ">=", 1)), ("f", TokenAtom("p", ">=", 2)))),
         "DuplicateId", "f"),
        (dict(audit_rules=(PressureThreshold("s", "ghost", 1),)), "UnknownEndpoint", "ghost"),
        (dict(forbidden=(("f", ModeAtom("ghost")),)), "UnknownEndpoint", "ghost"),
        (dict(modes=(ModeDef("m"),)), "ModeInvariant", "m"),
        (dict(forbidden=(("f", TokenAtom("p", ">=", 1)),),
              audit_rules=(PressureThreshold("w", "f", 0), PressureThreshold("w", "f", 1))), "DuplicateId", "w"),
        (dict(places=(PlaceDef("p"), PlaceDef("mode_a", capacity=1)), initial=Marking.make({"p": 1, "mode_a": 1}),
              modes=(ModeDef("a"), ModeDef("a"))), "DuplicateId", "a"),
        (dict(metadata=(("k", "a"), ("k", "b"))), "DuplicateId", "k"),
        # an input weight that is not an int is not compared with the inhibitor's
        (dict(transitions=(TransitionDef("t", inputs=(("p", "2"),), inhibitors=(("p", 1),)),)),
         "BadWeight", "t/p"),
        (dict(transitions=(TransitionDef("t", inputs=(("p", None),), inhibitors=(("p", 1),)),)),
         "BadWeight", "t/p"),
    ])
    def test_each_rule_names_its_element(self, edit, code, element):
        base = dict(places=(PlaceDef("p"),), transitions=(TransitionDef("t", inputs=(("p", 1),)),),
                    initial=Marking.make({"p": 1}))
        m = NetModel(**{**base, **edit})
        assert [(e.code, e.element) for e in validate_net(m)] == [(code, element)]


class TestModes:
    TEXT = ("place p init 1\nplace q\ntrans x in p:1 out q:1\n"
            "trans sw in mode_a:1 out mode_b:1\nmode a\nmode b disable x\n")

    @pytest.mark.parametrize("marked", [(), ("mode_a", "mode_b")])
    def test_caller_marking_must_mark_one_mode(self, marked):
        m = parse_model(self.TEXT)
        tokens = {p: int(p in marked) for p in m.place_ids}
        mk = Marking.make(tokens)
        for call in (lambda: fire(m, mk, "x"), lambda: is_enabled(m, mk, "x"),
                     lambda: enabled_set(m, mk)):
            with pytest.raises(UnknownReference, match=f"found {len(marked)}"):
                call()

    @pytest.mark.parametrize("marked", [(), ("mode_a", "mode_b")], ids=["no-mode", "two-modes"])
    def test_where_the_token_game_raises_graph_membership_says_not_a_node(self, marked):
        m = parse_model(self.TEXT)
        mk = Marking.make({"p": 1, "q": 0, "mode_a": int("mode_a" in marked), "mode_b": int("mode_b" in marked)})
        with pytest.raises(UnknownReference, match=f"^expected exactly one marked mode place, found {len(marked)}$"):
            enabled_set(m, mk)
        graph = explore(m)
        assert mk not in graph and graph.position(mk) is None
        assert Marking.make({"p": 1, "q": 0, "mode_a": 1, "mode_b": 0}) in graph


def _random_walk(model, rng, steps=20):
    mk = initial_marking(model)
    seen = [mk]
    for _ in range(steps):
        en = enabled_set(model, mk)
        if not en:
            break
        mk = fire(model, mk, rng.choice(en))
        seen.append(mk)
    return seen


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_fire_succeeds_iff_enabled(self, seed):
        rng = random.Random(seed)
        model = random_net(rng)
        for mk in _random_walk(model, rng):
            for t in model.transitions:
                if is_enabled(model, mk, t.id):
                    fire(model, mk, t.id)
                else:
                    with pytest.raises(NotEnabled):
                        fire(model, mk, t.id)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_nonnegativity_and_capacity_along_walks(self, seed):
        rng = random.Random(seed)
        model = random_net(rng)
        caps = {p.id: p.capacity for p in model.places}
        for mk in _random_walk(model, rng):
            for p, v in mk.tokens_map.items():
                assert v >= 0
                if caps[p] is not None:
                    assert v <= caps[p]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_locality(self, seed):
        rng = random.Random(seed)
        model = random_net(rng)
        mk = initial_marking(model)
        for _ in range(10):
            en = enabled_set(model, mk)
            if not en:
                break
            tid = rng.choice(en)
            t = model.transition(tid)
            adjacent = {p for p, _ in t.inputs} | {p for p, _ in t.outputs}
            nxt = fire(model, mk, tid)
            for p in model.place_ids:
                if p not in adjacent:
                    assert nxt.tokens_map[p] == mk.tokens_map[p]
            mk = nxt

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_determinism(self, seed):
        rng = random.Random(seed)
        model = random_net(rng)
        mk = initial_marking(model)
        assert enabled_set(model, mk) == enabled_set(model, mk)
        for t in enabled_set(model, mk):
            assert fire(model, mk, t) == fire(model, mk, t)

    def test_counter_monotone_and_exact(self):
        srs = build_srs_symbolic_model()
        mk = initial_marking(srs)
        fired = 0
        rng = random.Random(4)
        for _ in range(30):
            en = enabled_set(srs, mk)
            if not en:
                break
            t = rng.choice(en)
            nxt = fire(srs, mk, t)
            fired += t == "t2"
            assert nxt.counter_of("t2") >= mk.counter_of("t2")
            assert nxt.counter_of("t2") == fired
            mk = nxt


class TestMarking:
    def test_value_semantics(self):
        a = Marking.make({"p": 1, "q": 0}, {"t": 2})
        b = Marking((("q", 0), ("p", 1)), (("t", 2),))
        assert a == b and hash(a) == hash(b)

    def test_unknown_place_lookup(self):
        from respetri import UnknownReference

        with pytest.raises(UnknownReference):
            Marking.make({"p": 1}).tokens_at("q")

    def test_token_game_names_a_place_the_marking_lacks(self):
        model, m = build_traffic_model(), Marking.make({"p1": 1})
        for call in (lambda: fire(model, m, "t1"), lambda: enabled_set(model, m),
                     lambda: is_enabled(model, m, "t1")):
            with pytest.raises(UnknownReference, match="unknown place 'p2'"):
                call()

    def test_token_game_refuses_a_marking_above_a_capacity(self):
        """Like a marking with no mode or two: no reachable marking has it, and
        graph membership answers that it is not a node."""
        model = parse_model("place a init 1\nplace b cap 1\nplace c\ntrans t in a:1 out c:1\n")
        over = Marking.make({"a": 1, "b": 3, "c": 0})
        for call in (lambda: fire(model, over, "t"), lambda: enabled_set(model, over),
                     lambda: is_enabled(model, over, "t")):
            with pytest.raises(UnknownReference, match="^place 'b' holds 3 tokens, above its capacity 1$"):
                call()
        assert over not in explore(model)
        full = Marking.make({"a": 1, "b": 1, "c": 0})
        assert enabled_set(model, full) == ["t"] and fire(model, full, "t").tokens_map == {"a": 0, "b": 1, "c": 1}

    def test_counter_defaults_to_zero(self):
        assert Marking.make({"p": 1}).counter_of("t") == 0

    def test_a_hashed_marking_pickled_under_one_hash_seed_is_a_key_under_another(self):
        """The hash is kept on first use, but not pickled: string hashes differ
        between processes, so a kept one would miss the equal key."""
        make = "Marking.make({'p': 1, 'q': 2}, {'t': 3})"
        dump = f"import pickle\nfrom respetri import Marking\nm = {make}\nhash(m)\nprint(pickle.dumps(m).hex())\n"
        load = (f"import pickle, sys\nfrom respetri import Marking\nkeys = {{{make}: 'found'}}\n"
                f"m = pickle.loads(bytes.fromhex(sys.stdin.read()))\nprint(keys[m], m in set(keys))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

        def run(code, seed, stdin=""):
            return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
                                  check=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
        assert run(load, "1", run(dump, "0")) == "found True\n"
        hashed, fresh = Marking.make({"p": 1, "q": 2}, {"t": 3}), Marking.make({"p": 1, "q": 2}, {"t": 3})
        hash(hashed)
        assert hashed == fresh and repr(hashed) == repr(fresh) and pickle.dumps(hashed) == pickle.dumps(fresh)

    def test_model_lookup_of_an_unknown_id(self):
        model = chain_net()
        assert model.place("p0") == PlaceDef("p0") and model.transition("t1").id == "t1"
        with pytest.raises(UnknownReference, match="^unknown place 'nope'$"):
            model.place("nope")
        with pytest.raises(UnknownTransition, match="^unknown transition 'p0'$"):
            model.transition("p0")


# Of no kind that a predicate, audit rule, edit op or policy dispatch knows; its id
# gets it through validation and the serializer's sort to the dispatch.
STRANGER = types.SimpleNamespace(id="stranger")


@pytest.mark.parametrize("call", [
    lambda: eval_predicate(STRANGER, initial_marking(chain_net())),
    lambda: compiled(chain_net()).scan(STRANGER),
    lambda: format_predicate(STRANGER),
    lambda: serialize_model(replace(chain_net(), audit_rules=(STRANGER,))),
    lambda: format_op(STRANGER),
    lambda: apply_patch(chain_net(), Patch((STRANGER,))),
    lambda: simulate(replace(chain_net(), audit_rules=(STRANGER,)), Scripted(()), 0),
], ids=["eval_predicate", "compiled-scan", "format_predicate", "serialize-audit-rule",
        "format_op", "apply_patch", "audit-rule-condition"])
def test_a_value_of_no_known_kind_is_a_type_error(call):
    with pytest.raises(TypeError, match=r"^not an? (predicate|audit rule|edit op): namespace\(id='stranger'\)$"):
        call()


@pytest.mark.parametrize("policy", ["uniform", None, STRANGER], ids=["str", "None", "stranger"])
def test_a_simulation_policy_of_no_known_kind_is_a_type_error(policy):
    with pytest.raises(TypeError, match=rf"^not a simulation policy: {re.escape(repr(policy))}$"):
        simulate(chain_net(), policy, 3)
