"""Model language: parsing, errors, macros, canonical serialization."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respetri import (
    And,
    CounterAtom,
    ExplorationBound,
    Marking,
    ModeAtom,
    NetModel,
    Not,
    Or,
    ParseFailure,
    PlaceDef,
    StructureFailure,
    TokenAtom,
    enabled_set,
    explore,
    fire,
    initial_marking,
    model_hash,
    parse_model,
    serialize_model,
    structurally_equal,
)
from respetri.dsl import RateLimit, expand_macros, format_predicate
from respetri.models import FIXTURES

from oracles import random_net

BASIC = """\
meta name "demo"
place p0 init 1
place p1
place p2 cap 2 label "sink"
trans t1 in p0:1 out p1:1
trans t2 in p1:1 out p2:1 counted
forbidden full := p2 >= 2
audit watch := counter t2 > 1
"""


class TestParsing:
    def test_basic_model(self):
        m = parse_model(BASIC)
        assert m.place_ids == ("p0", "p1", "p2")
        assert m.transition_ids == ("t1", "t2")
        assert m.place("p2").capacity == 2
        assert m.place("p2").label == "sink"
        assert m.transition("t2").counted
        assert m.initial.tokens_map == {"p0": 1, "p1": 0, "p2": 0}
        assert m.initial.counters_map == {"t2": 0}
        assert dict(m.metadata)["name"] == "demo"

    def test_comment_vs_counter_atom(self):
        text = (
            "place p init 1  # trailing comment\n"
            "# full-line comment\n"
            "trans t in p:1 counted\n"
            "forbidden busy := #t > 1\n"
        )
        m = parse_model(text)
        assert m.forbidden_predicate("busy") == CounterAtom("t", ">", 1)

    def test_predicate_grammar(self):
        m = parse_model(
            "place p init 1\nplace q\ntrans t in p:1 counted\n"
            "forbidden f := (p >= 1 and q <= 0) or not #t > 2\n"
        )
        pred = m.forbidden_predicate("f")
        assert isinstance(pred, Or)
        assert isinstance(pred.operands[0], And)
        assert pred.operands[1] == Not(CounterAtom("t", ">", 2))

    def test_errors_carry_positions_and_accumulate(self):
        bad = "place p init 1\nplacé x\ntrans t in p:0\n"
        with pytest.raises(ParseFailure) as exc:
            parse_model(bad)
        errors = exc.value.errors
        assert len(errors) == 2
        assert errors[0].position[0] == 2
        assert errors[1].position == (3, 14)  # the zero weight

    def test_expected_tokens_reported(self):
        with pytest.raises(ParseFailure) as exc:
            parse_model("banana p\n")
        assert "place" in exc.value.errors[0].expected

    def test_structure_failure_after_parse(self):
        with pytest.raises(StructureFailure) as exc:
            parse_model("place p\ntrans t in missing:1\n")
        assert any(e.code == "UnknownEndpoint" for e in exc.value.errors)

    def test_string_escapes_not_needed_for_plain_labels(self):
        m = parse_model('place p label "hello world"\n')
        assert m.place("p").label == "hello world"

    def test_string_escapes(self):
        m = parse_model('place p label "a\\"b\\\\c\\nd\\u2028e"\n')
        assert m.place("p").label == 'a"b\\c\nd\u2028e'
        text = serialize_model(m).text
        assert text == 'place p label "a\\"b\\\\c\\nd\\u2028e"\n'
        assert parse_model(text) == m

    def test_every_line_break_is_escaped(self):
        label = '\\"\n\r\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029'
        assert len(label.splitlines()) == 11  # one break per character, \r\n as one
        m = NetModel(places=(PlaceDef("p", None, label),), transitions=(),
                     initial=Marking.make({"p": 0}), metadata=(("note", label),))
        text = serialize_model(m).text
        assert len(text.splitlines()) == 2
        assert parse_model(text) == m

    def test_bad_escape_is_a_positioned_parse_error(self):
        for text, col in (('place p label "a\\qb"', 17), ('meta k "\\u12x"', 9),
                          ('meta k "ok \\ud800"', 12)):
            with pytest.raises(ParseFailure) as exc:
                parse_model(text + "\n")
            (error,) = exc.value.errors
            assert error.position == (1, col)
            assert "bad escape" in error.message


class TestModes:
    TEXT = (
        "place p init 1\n"
        "place q\n"
        "trans go in p:1 out q:1\n"
        "trans back in q:1 out p:1\n"
        "mode normal\n"
        "mode strict disable back\n"
        "override strict go := p >= 1 and q <= 0\n"
    )

    def test_mode_places_created_first_mode_active(self):
        m = parse_model(self.TEXT)
        assert m.has_place("mode_normal") and m.has_place("mode_strict")
        assert m.initial.tokens_map["mode_normal"] == 1
        assert m.initial.tokens_map["mode_strict"] == 0
        assert m.active_mode(initial_marking(m)).id == "normal"

    def test_disable_and_override_respected(self):
        m = parse_model(self.TEXT)
        mk = initial_marking(m)
        mk = fire(m, mk, "go")
        assert "back" in enabled_set(m, mk)
        # switch the token to strict mode by rebuilding the marking
        from respetri import Marking

        tokens = dict(mk.tokens_map)
        tokens["mode_normal"], tokens["mode_strict"] = 0, 1
        strict = Marking.make(tokens, dict(mk.counters_map))
        assert "back" not in enabled_set(m, strict)
        assert "go" not in enabled_set(m, strict)  # override wants q <= 0

    def test_mode_atom_in_predicate(self):
        m = parse_model(self.TEXT + "forbidden odd := mode = strict\n")
        assert m.forbidden_predicate("odd") == ModeAtom("strict")

    def test_expansion_idempotent(self):
        m = parse_model(self.TEXT)
        assert expand_macros(m) == m


class TestRateLimit:
    TEXT = (
        "place src init 6\n"
        "place done\n"
        "trans t in src:1 out done:1\n"
        "ratelimit t max 2 per 2\n"
    )

    def test_expansion_structure(self):
        m = parse_model(self.TEXT)
        for pid in ("t__budget", "t__permit", "t__slot1", "t__slot2", "t__slot3"):
            assert m.has_place(pid), pid
        assert m.initial.tokens_map["t__budget"] == 2
        assert m.has_transition("t__tick")
        assert dict(m.transition("t").inputs)["t__budget"] == 1

    def test_window_property_exhaustive(self):
        """In every reachable firing sequence, any contiguous segment with at
        most window-1 ticks fires t at most max times."""
        m = parse_model(self.TEXT)
        k, w = 2, 2
        violations = []

        def check(seq):
            for i in range(len(seq)):
                ticks = fires = 0
                for j in range(i, len(seq)):
                    ticks += seq[j] == "t__tick"
                    fires += seq[j] == "t"
                    if ticks <= w - 1 and fires > k:
                        violations.append(seq[i:j + 1])
                        return

        def dfs(mk, seq, depth):
            check(seq)
            if depth == 0:
                return
            for t in enabled_set(m, mk):
                dfs(fire(m, mk, t), seq + [t], depth - 1)

        dfs(initial_marking(m), [], 9)
        assert violations == []

    def test_burst_of_budget_allowed(self):
        m = parse_model(self.TEXT)
        mk = initial_marking(m)
        mk = fire(m, mk, "t")
        mk = fire(m, mk, "t")
        assert "t" not in enabled_set(m, mk)  # budget exhausted

    def test_macro_errors(self):
        from respetri.errors import UnknownTransitionInMacro

        with pytest.raises(UnknownTransitionInMacro):
            parse_model("place p\nratelimit ghost max 1 per 1\n")


class TestSerialization:
    def test_round_trip_fixtures(self):
        for build in FIXTURES.values():
            m = build()
            again = parse_model(serialize_model(m).text)
            assert structurally_equal(m, again)
            assert model_hash(m) == model_hash(again)

    def test_canonical_is_byte_stable(self):
        for build in FIXTURES.values():
            m = build()
            once = serialize_model(m).text
            assert serialize_model(parse_model(once)).text == once

    def test_declaration_order_is_irrelevant(self):
        a = parse_model("place a init 1\nplace b\ntrans t in a:1 out b:1\n")
        b = parse_model("place b\nplace a init 1\ntrans t out b:1 in a:1\n")
        assert structurally_equal(a, b)
        assert model_hash(a) == model_hash(b)

    def test_hash_changes_with_content(self):
        a = parse_model("place a init 1\n")
        b = parse_model("place a init 2\n")
        assert model_hash(a) != model_hash(b)

    def test_format_predicate_shapes(self):
        assert format_predicate(TokenAtom("p", ">=", 1)) == "p >= 1"
        assert format_predicate(
            And((TokenAtom("p", ">", 0), CounterAtom("t", "<=", 3)))
        ) == "(p > 0 and #t <= 3)"
        assert format_predicate(Not(ModeAtom("x"))) == "not mode = x"

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.text())
    def test_round_trip_any_label_and_meta_value(self, label, value):
        model = NetModel(places=(PlaceDef("p", None, label),), transitions=(),
                         initial=Marking.make({"p": 1}), metadata=(("note", value),))
        text = serialize_model(model).text
        assert len(text.splitlines()) == 2
        assert parse_model(text) == model

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_round_trip_random_models(self, seed):
        model = random_net(random.Random(seed))
        text = serialize_model(model).text
        again = parse_model(text)
        assert structurally_equal(model, again)
        assert serialize_model(again).text == text

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9), st.data())
    def test_round_trip_api_built_models(self, seed, data):
        # one transition counted with no counter in `initial`, and random
        # and/or/not trees as forbidden predicates and guards
        rng = random.Random(seed)
        net = random_net(rng)
        preds = _predicates(net.place_ids, net.transition_ids)
        counted = rng.randrange(len(net.transitions))
        transitions = tuple(
            replace(t, counted=i == counted, guard=data.draw(st.none() | preds))
            for i, t in enumerate(net.transitions))
        m = replace(net, transitions=transitions,
                    forbidden=tuple((f"f{i}", p) for i, p in
                                    enumerate(data.draw(st.lists(preds, max_size=3)))))
        assert "counted" in serialize_model(m).text
        again = parse_model(serialize_model(m).text)
        assert structurally_equal(m, again)
        assert model_hash(m) == model_hash(again)
        shuffled = replace(m, places=m.places[::-1], transitions=m.transitions[::-1])
        other = replace(m, forbidden=m.forbidden[1:])
        for a, b in ((m, again), (m, shuffled), (m, other), (again, other)):
            assert structurally_equal(a, b) == (model_hash(a) == model_hash(b))
        assert structurally_equal(m, shuffled)
        assert m.initial == initial_marking(m)
        assert m.initial in explore(m, ExplorationBound(max_states=50))


def _predicates(places, transitions):
    """Random predicate trees over the given places and transitions."""
    ops = ("<", "<=", "=", ">=", ">")
    atoms = (st.builds(TokenAtom, st.sampled_from(places), st.sampled_from(ops), st.integers(-1, 4))
             | st.builds(CounterAtom, st.sampled_from(transitions), st.sampled_from(ops),
                         st.integers(0, 4)))
    return st.recursive(atoms, lambda sub: (
        st.builds(Not, sub)
        | st.builds(And, st.lists(sub, min_size=2, max_size=3).map(tuple))
        | st.builds(Or, st.lists(sub, min_size=2, max_size=3).map(tuple))), max_leaves=6)
