"""Model language: parsing, errors, macros, canonical serialization."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respetri import (
    AddArc,
    AddForbidden,
    AddPlace,
    AddTransition,
    And,
    CounterAtom,
    CounterThreshold,
    ExplorationBound,
    Marking,
    ModeAtom,
    ModeDef,
    NetModel,
    Not,
    OccupancyThreshold,
    Or,
    ParseError,
    ParseFailure,
    Patch,
    PlaceDef,
    PressureThreshold,
    ProofKind,
    RateThreshold,
    RemoveArc,
    RemovePlace,
    RemoveTransition,
    SetCapacity,
    SetGuard,
    StructureFailure,
    SwitchMode,
    TokenAtom,
    TransitionDef,
    VerdictKind,
    check_all_forbidden,
    enabled_set,
    eval_predicate,
    explore,
    fire,
    initial_marking,
    model_hash,
    parse_model,
    parse_patch,
    serialize_model,
    structurally_equal,
    validate_net,
)
from respetri.dsl import MAX_NESTING, RateLimit, _quote, expand_macros, format_op, format_predicate
from respetri.net import ARC_FIELDS, IDENT, _OPS, compiled
from respetri.models import FIXTURES

from oracles import nested_predicate, random_net

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

    @pytest.mark.parametrize("text, position", [
        ("audit a := 5", (1, 12)),
        ("audit := counter t > 1", (1, 7)),
        ("audit a := counter t >= 1", (1, 22)),
        ("audit a := rate t max 1 per 0", (1, 29)),
        ("audit a := occupancy p == 1", (1, 25)),
        ("audit a := pressure f near 1", (1, 23)),
    ])
    def test_audit_error_points_at_the_bad_word(self, text, position):
        with pytest.raises(ParseFailure) as exc:
            parse_model(text + "\n")
        assert [e.position for e in exc.value.errors] == [position]

    @pytest.mark.parametrize("text, position, message", [
        ("mode a\noverride b t := p >= 1", (2, 10), "override for undeclared mode 'b'"),
        ("override a t := p >= 1\nmode a", (1, 10), "override for undeclared mode 'a'"),
        ('meta k "v" x', (1, 12), "trailing input 'x'"),
        ("forbidden f := p 1", (1, 18), "expected comparison operator"),
        ("forbidden f :=", (1, 15), "expected predicate atom"),
        ("forbidden f := 5 >= 1", (1, 16), "unexpected '5' in predicate"),
        ("meta k", (1, 7), "unexpected end of line, wanted string"),
    ], ids=["override-undeclared-mode", "override-before-its-mode", "trailing-input", "no-comparison", "empty-predicate",
            "non-atom", "meta-without-string"])
    def test_model_error_points_at_the_bad_word(self, text, position, message):
        with pytest.raises(ParseFailure) as exc:
            parse_model(text + "\n")
        assert [(e.position, e.message) for e in exc.value.errors] == [(position, message)]

    @pytest.mark.parametrize("line, col, word", [
        ("place p cap 2 init 1 cap 3", 22, "cap"),
        ("place p init 1 init 0", 16, "init"),
        ('place p label "a" label "b"', 19, "label"),
        ("trans t in p:1 out q:1 guard p >= 1 guard q >= 5", 37, "guard"),
        ('place p cap 2 init 1 cap 3 init 0 label "a" label "b"', 22, "cap"),
    ], ids=["cap", "init", "label", "guard", "first-repeat-is-the-error"])
    def test_a_repeated_clause_is_an_error_at_the_second(self, line, col, word):
        # a model line and the patch line that adds it read the same clauses
        message = f"second {word!r} clause: a declaration has at most one"
        for parse, text, at in ((parse_model, line, (1, col)), (parse_patch, "add " + line, (1, col + 4))):
            with pytest.raises(ParseFailure) as exc:
                parse(text)
            assert [(e.position, e.message) for e in exc.value.errors] == [(at, message)]

    def test_arc_clauses_of_one_role_accumulate(self):
        line = "trans t in p:1 in q:2 out r:1 out s:1 guard p >= 1"
        places = "place p\nplace q\nplace r\nplace s\n"
        for t in (parse_model(places + line).transition("t"), parse_patch("add " + line).ops[0].transition):
            assert (t.inputs, t.outputs) == ((("p", 1), ("q", 2)), (("r", 1), ("s", 1)))

    def test_an_unknown_keyword_lists_the_model_keywords_in_order(self):
        with pytest.raises(ParseFailure) as exc:
            parse_model("place p\n  banana p\n")
        assert exc.value.errors == [ParseError((2, 3), "unknown keyword 'banana'", (
            "meta", "place", "trans", "forbidden", "audit", "mode", "override", "ratelimit"))]

    def test_expected_tokens_reported(self):
        with pytest.raises(ParseFailure) as exc:
            parse_model("banana p\n")
        assert "place" in exc.value.errors[0].expected

    def test_structure_failure_after_parse(self):
        with pytest.raises(StructureFailure) as exc:
            parse_model("place p\ntrans t in missing:1\n")
        assert any(e.code == "UnknownEndpoint" for e in exc.value.errors)

    @pytest.mark.parametrize("text, element", [
        ('meta k "a"\nmeta k "b"\n', "k"),
        ("place src init 3\nplace t__budget\ntrans t in src:1\nratelimit t max 1 per 2\n", "t__budget"),
        ("place src init 3\ntrans t in src:1\ntrans t__tick\nratelimit t max 1 per 2\n", "t__tick"),
        ("place p init 1\nplace q\ntrans t in p:1 out q:1\nmode a\n"
         "override a t := p >= 1\noverride a t := p >= 5\n", "a/t"),
        ("place p\ntrans t counted\ntrans t counted\n", "t"),
    ], ids=["meta-key", "ratelimit-budget-place", "ratelimit-tick-transition", "override-twice",
            "counted-twice"])
    def test_duplicate_ids_are_rejected(self, text, element):
        # a macro never skips or overwrites a declaration, and every meta line is kept
        with pytest.raises(StructureFailure) as exc:
            parse_model(text)
        assert [(e.code, e.element) for e in exc.value.errors] == [("DuplicateId", element)]

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

    @pytest.mark.parametrize("max_firings, window", [
        (0, 3), (2, 0), ("2", 3), (2, 2.5), (True, 3), (2, False), (2, None),
    ], ids=["max-0", "per-0", "str-max", "float-window", "bool-max", "bool-window", "none-window"])
    def test_api_built_ratelimit_needs_positive_int_arguments(self, max_firings, window):
        from respetri.errors import MacroArity

        model = parse_model("place p init 1\ntrans t in p:1\n")
        with pytest.raises(MacroArity, match=f"^ratelimit t: max {max_firings!r} per {window!r}$"):
            expand_macros(model, [RateLimit("t", max_firings, window)])


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
        # one transition counted with no counter in `initial`, random
        # and/or/not trees as forbidden predicates and guards, and place and
        # transition ids drawn from the grammar's keywords
        rng = random.Random(seed)
        net = random_net(rng)
        net = _renamed(net, data.draw(st.permutations(KEYWORDS + net.place_ids + net.transition_ids)))
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


def _renamed(net, ids):
    """net with its places, then its transitions, renamed to the leading ids;
    guards are dropped."""
    new = dict(zip(net.place_ids + net.transition_ids, ids))

    def arcs(t):
        return {f: tuple((new[p], w) for p, w in getattr(t, f)) for f in ARC_FIELDS.values()}
    return replace(net, places=tuple(replace(p, id=new[p.id]) for p in net.places),
                   transitions=tuple(replace(t, id=new[t.id], guard=None, **arcs(t))
                                     for t in net.transitions),
                   initial=Marking.make({new[p]: v for p, v in net.initial.tokens_map.items()}))


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


# every word the .net and .patch grammars read as a keyword
KEYWORDS = (
    "meta", "place", "trans", "forbidden", "audit", "mode", "override", "ratelimit",
    "in", "out", "inhibit", "read", "guard", "counted", "cap", "init", "label",
    "and", "or", "not", "counter", "rate", "max", "per", "occupancy", "pressure", "within",
    "disable", "author", "rationale", "add", "remove", "set", "switch", "arc", "capacity", "none",
)


def _every_position(p, t, name):
    """A model with place p, transition t and the name of every other kind of
    id in each position the text gives it."""
    mode_place = ModeDef(name).place_id
    guard = And((TokenAtom(p, ">=", 1), Not(TokenAtom(p, "=", 0)),
                 Or((ModeAtom(name), CounterAtom(t, "<", 3)))))
    return NetModel(
        places=(PlaceDef(p, capacity=3, label=name), PlaceDef(mode_place, capacity=1),
                PlaceDef("mode_other", capacity=1)),
        transitions=(TransitionDef(t, inputs=((p, 1),), outputs=((p, 1),), inhibitors=((p, 2),),
                                   reads=((p, 1),), guard=guard, counted=True),
                     TransitionDef("sw", inputs=((mode_place, 1),), outputs=(("mode_other", 1),))),
        initial=Marking.make({p: 1, mode_place: 1, "mode_other": 0}),
        forbidden=((name, Or((Not(TokenAtom(p, "<", 2)), And((ModeAtom(name), CounterAtom(t, ">=", 2)))))),),
        audit_rules=(CounterThreshold(name, t, 1), RateThreshold("r", t, 1, 2),
                     OccupancyThreshold("o", p, "=", 1), PressureThreshold("s", name, 1)),
        modes=(ModeDef(name, frozenset({t}), ((t, Not(TokenAtom(p, "<=", 2))),)), ModeDef("other")),
        metadata=((name, "v"),))


class TestKeywordIds:
    @pytest.mark.parametrize("word", KEYWORDS)
    def test_model_text_round_trips(self, word):
        for m in (_every_position(word, "t", word), _every_position("p", word, word)):
            assert validate_net(m) == []
            text = serialize_model(m).text
            assert serialize_model(parse_model(text)).text == text

    @pytest.mark.parametrize("word", KEYWORDS)
    def test_patch_text_round_trips(self, word):
        atom = TokenAtom(word, ">=", 1)
        ops = (AddPlace(PlaceDef(word, capacity=2), 1),
               AddTransition(TransitionDef(word, inputs=((word, 1),), guard=atom)),
               *(AddArc(kind, word, word, 2) for kind in ARC_FIELDS),
               *(RemoveArc(kind, word, word) for kind in ARC_FIELDS),
               SetGuard(word, None), SetGuard(word, atom), SetGuard(word, Not(atom)),
               SetCapacity(word, None), SetCapacity(word, 3), AddForbidden(word, atom),
               SwitchMode(word), RemoveTransition(word), RemovePlace(word))
        patch = Patch(ops, author=word, rationale=word)
        assert parse_patch(patch.to_text()) == patch

    def test_lookahead_keeps_the_keyword_readings(self):
        m = parse_model("place p init 1\nplace not\nplace mode\n"
                        "trans t in p:1 out not:1 guard not not >= 1 and mode = 1\nmode m\n"
                        "forbidden f := mode = m and not mode >= 1\n")
        assert m.transition("t").guard == And((Not(TokenAtom("not", ">=", 1)),
                                               TokenAtom("mode", "=", 1)))
        assert m.forbidden_predicate("f") == And((ModeAtom("m"), Not(TokenAtom("mode", ">=", 1))))
        assert parse_patch("set guard t none\n").ops == (SetGuard("t", None),)
        assert parse_patch("set guard t none > 0\n").ops == (SetGuard("t", TokenAtom("none", ">", 0)),)


_IDS = st.sampled_from(KEYWORDS) | st.from_regex(IDENT, fullmatch=True)


def _ops(places, transitions):
    """Edit ops of all ten kinds over the given ids."""
    ids = st.sampled_from(places + transitions)
    preds = _predicates(places, transitions)
    guards = st.none() | st.builds(TokenAtom, st.just("none"), st.sampled_from(tuple(_OPS)),
                                   st.integers(0, 2)) | preds
    capacity = st.none() | st.integers(1, 5)
    arcs = st.lists(st.tuples(st.sampled_from(places), st.integers(1, 4)), max_size=2).map(tuple)
    kind = st.sampled_from(tuple(ARC_FIELDS))
    return st.one_of(
        st.builds(AddPlace, st.builds(PlaceDef, ids, capacity, st.text()), st.integers(0, 5)),
        st.builds(RemovePlace, ids),
        st.builds(AddTransition, st.builds(TransitionDef, ids, arcs, arcs, arcs, arcs, guards,
                                           st.booleans())),
        st.builds(RemoveTransition, ids),
        st.builds(AddArc, kind, ids, ids, st.integers(1, 3)),
        st.builds(RemoveArc, kind, ids, ids),
        st.builds(SetGuard, ids, guards),
        st.builds(SetCapacity, ids, capacity),
        st.builds(AddForbidden, ids, preds),
        st.builds(SwitchMode, ids))


class TestPatchRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_op_kind_round_trips(self, data):
        # plain ids and grammar keywords, guards over a place named `none`,
        # and `add arc` lines with and without a weight of 1
        places = data.draw(st.lists(_IDS, min_size=1, max_size=3))
        transitions = data.draw(st.lists(_IDS, min_size=1, max_size=3))
        ops = data.draw(st.lists(_ops(places, transitions), max_size=12))
        patch = Patch(tuple(ops), author=data.draw(st.text()), rationale=data.draw(st.text()))
        again = parse_patch(patch.to_text())
        assert again == patch
        assert again.id == patch.id
        bare = [format_op(op).removesuffix(" 1") if isinstance(op, AddArc) and op.weight == 1
                else format_op(op) for op in ops]
        assert parse_patch("".join(line + "\n" for line in bare)).ops == patch.ops

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_clause_word_ids_round_trip_in_any_clause_order(self, data):
        # every id is a clause or predicate word, and each `add place|trans`
        # line also parses back from its clauses shuffled, its arc lists split
        # into repeated clauses (some empty) and `counted` repeated
        words = st.lists(st.sampled_from(CLAUSE_WORDS), min_size=1, max_size=3)
        ops = data.draw(st.lists(_ops(data.draw(words), data.draw(words)), min_size=1, max_size=12))
        patch = Patch(tuple(ops), author=data.draw(st.text()), rationale=data.draw(st.text()))
        again = parse_patch(patch.to_text())
        assert again == patch
        assert again.id == patch.id
        for op in ops:
            if isinstance(op, (AddPlace, AddTransition)):
                line = "add " + _shuffled_clauses(data, op)
                assert parse_patch(line).ops == (op,), line


CLAUSE_WORDS = ("in", "out", "inhibit", "read", "guard", "counted", "cap", "init", "label",
                "none", "not", "mode", "and", "or")


def _shuffled_clauses(data, op):
    """The model line of an `add place|trans` op with its clauses in a drawn
    order; a role's arc clauses keep their order, as the arcs of a role do."""
    if isinstance(op, AddPlace):
        p = op.place
        clauses = [(w, f"{w} {v}") for w, v, given in (
            ("cap", p.capacity, p.capacity is not None),
            ("init", op.init, op.init or data.draw(st.booleans())),
            ("label", _quote(p.label), p.label or data.draw(st.booleans()))) if given]
        head = f"place {p.id}"
    else:
        t = op.transition
        clauses = []
        for word, f in ARC_FIELDS.items():
            arcs = [f"{q}:{w}" for q, w in getattr(t, f)]
            cuts = sorted(data.draw(st.lists(st.integers(0, len(arcs)), max_size=2)))
            for lo, hi in zip([0, *cuts], [*cuts, len(arcs)]):
                if lo < hi or data.draw(st.booleans()):
                    clauses.append((word, " ".join([word, *arcs[lo:hi]])))
        if t.guard is not None:
            clauses.append(("guard", "guard " + format_predicate(t.guard)))
        clauses += [("counted", "counted")] * (t.counted * data.draw(st.integers(1, 3)))
        head = f"trans {t.id}"
    # draw the order of the clause words, then give each slot its word's next clause
    order = data.draw(st.permutations([word for word, _ in clauses]))
    queues = {word: [text for w, text in clauses if w == word] for word, _ in clauses}
    return " ".join([head] + [queues[word].pop(0) for word in order])


FULL_GRAMMAR = """\
meta name "every line kind"
place p cap 4 init 2 label "source"
place q
trans a in p:1 out q:1 counted
trans b in q:1 out p:1 read p:1
trans go in mode_calm:1 out mode_busy:1
trans back in mode_busy:1 out mode_calm:1 inhibit q:3
mode calm disable b back
mode busy
override busy a := q < 2
override calm back := not p >= 1
ratelimit a max 2 per 3
forbidden full := q >= 2 and mode = busy
forbidden many := #a >= 3
audit c := counter a > 1
audit r := rate a max 1 per 2
audit o := occupancy q >= 2
audit s := pressure full within 1
"""


def test_every_line_kind_round_trips():
    m = parse_model(FULL_GRAMMAR)
    text = serialize_model(m).text
    assert "mode calm disable b back" in text and "override busy a := q < 2" in text
    again = parse_model(text)
    assert serialize_model(again).text == text
    assert structurally_equal(m, again)
    # the canonical text declares transitions in id order, which may pick
    # another shortest trace (traces still depend on declaration order)
    bound = ExplorationBound(max_states=2000)
    verdicts = [check_all_forbidden(x, bound) for x in (m, again)]
    assert [{n: (v.kind, v.proof, len(v.trace.firings)) for n, v in vs.items()} for vs in verdicts] \
        == 2 * [{"full": (VerdictKind.UNSAFE, ProofKind.VIOLATION_TRACE, 3),
                 "many": (VerdictKind.UNSAFE, ProofKind.VIOLATION_TRACE, 13)}]
    assert eval_predicate(ModeAtom("calm"), m.initial)
    assert not eval_predicate(ModeAtom("busy"), m.initial)


class TestNesting:
    @pytest.mark.parametrize("depth", [300, 2000])
    def test_a_predicate_nested_too_deeply_is_a_parse_error(self, depth):
        deep = nested_predicate(depth, "p")
        with pytest.raises(ParseFailure) as model_error:
            parse_model(f"place p\nforbidden f := {deep}\ntrans t in p:0\n")
        assert [str(e) for e in model_error.value.errors] == [
            "2:1: predicate nested too deeply", "3:14: integer 0 out of range, must be >= 1"]
        with pytest.raises(ParseFailure) as patch_error:
            parse_patch(f"set guard t {deep}\n")
        assert [str(e) for e in patch_error.value.errors] == ["1:1: predicate nested too deeply"]

    def test_the_deepest_admitted_predicate_parses_and_one_level_more_does_not(self):
        # the whole predicate is level 1, and each `(` and `not` opens the next
        for deepest, deeper in [(nested_predicate(MAX_NESTING - 1, "p"), nested_predicate(MAX_NESTING, "p")),
                                ("not " * (MAX_NESTING - 1) + "p >= 1", "not " * MAX_NESTING + "p >= 1"),
                                ("not (" * 127 + "not p >= 1" + ")" * 127, "not (" * 128 + "p >= 1" + ")" * 128)]:
            # compared by canonical text: == on trees this deep recurses past the limit under pytest
            text = serialize_model(parse_model(f"place p init 1\nforbidden f := {deepest}\n")).text
            assert serialize_model(parse_model(text)).text == text
            with pytest.raises(ParseFailure) as error:
                parse_model(f"place p init 1\nforbidden f := {deeper}\n")
            assert [str(e) for e in error.value.errors] == ["2:1: predicate nested too deeply"]
            assert error.value.errors[0].position == (2, 1)

    def test_the_limit_does_not_depend_on_the_callers_stack(self):
        text = f"place p init 1\nforbidden f := {nested_predicate(245, 'p')}\n"

        def parse_at_depth(frames):
            return parse_at_depth(frames - 1) if frames else parse_model(text)
        assert serialize_model(parse_at_depth(400)).text == serialize_model(parse_model(text)).text

    def test_245_levels_round_trip(self):
        # what parsed before deep nesting became a parse error still parses:
        # 245 levels, in a fresh interpreter, whose stack starts empty
        code = ("import sys; from respetri import model_hash, parse_model, serialize_model\n"
                "m = parse_model(sys.argv[1])\n"
                "again = parse_model(serialize_model(m).text)\n"
                "sys.exit(again.forbidden != m.forbidden or model_hash(again) != model_hash(m))\n")
        text = f"place p init 1\nforbidden f := {nested_predicate(245, 'p')}\n"
        src = Path(__file__).resolve().parent.parent / "src"
        r = subprocess.run([sys.executable, "-c", code, text], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(src)))
        assert r.returncode == 0, r.stderr[-2000:]


class TestNestingOfApiBuiltModels:
    """The parser's limit binds models built through the API too, so every
    model that validates round-trips, and compares and hashes: == walks a
    predicate tree without recursing."""

    BASE = "place p init 1\ntrans t in p:1 out p:1\nmode m\n"

    @staticmethod
    def chain(levels):
        """`p >= 1` under levels - 1 alternating And and Not nodes."""
        pred = TokenAtom("p", ">=", 1)
        for i in range(levels - 1):
            pred = Not(pred) if i % 2 else And((TokenAtom("p", ">=", 1), pred))
        return pred

    def model(self, where, levels):
        """The base model with a forbidden predicate, a guard or a mode override
        `levels` deep, and the element validate_net names for it."""
        base, pred = parse_model(self.BASE), self.chain(levels)
        return {
            "forbidden": ("f", replace(base, forbidden=(("f", pred),))),
            "guard": ("t", replace(base, transitions=(replace(base.transition("t"), guard=pred),))),
            "override": ("m/t", replace(base, modes=(ModeDef("m", (), (("t", pred),)),))),
        }[where]

    @pytest.mark.parametrize("where", ["forbidden", "guard", "override"])
    def test_the_deepest_admitted_predicate_validates_and_round_trips(self, where):
        _, model = self.model(where, MAX_NESTING)
        assert validate_net(model) == []
        text = serialize_model(model).text
        assert serialize_model(parse_model(text)).text == text

    def test_the_deepest_admitted_predicates_compare_and_hash(self):
        text = f"place p init 1\nforbidden f := {nested_predicate(MAX_NESTING - 1, 'p')}\n"
        head, _, tail = text.rpartition("p >= 1")   # the deepest atom
        a, b, twin = parse_model(text), parse_model(text), parse_model(f"{head}p >= 2{tail}")
        assert a == b and hash(a) == hash(b)
        assert a != twin and not a.forbidden_predicate("f") == twin.forbidden_predicate("f")
        chain = self.chain(MAX_NESTING)
        assert chain == self.chain(MAX_NESTING) and hash(chain) == hash(self.chain(MAX_NESTING))
        assert chain != self.chain(MAX_NESTING - 1)

    def test_predicates_compare_by_operator_arity_and_atom(self):
        p, q = TokenAtom("p", ">=", 1), TokenAtom("q", ">=", 1)
        assert And((p, Not(q))) == And((p, Not(q)))
        assert And((p, q)) != Or((p, q))
        assert And((p, q)) != And((p, q, q)) and And((p, p)) != And((p, p, p))
        assert And((p, q)) != And((p, And((q, q))))
        assert Not(p) != Not(CounterAtom("p", ">=", 1))
        assert Not(p) != p and And((p, q)) != (p, q)

    @pytest.mark.parametrize("where", ["forbidden", "guard", "override"])
    def test_one_level_more_is_a_structure_failure(self, where):
        element, model = self.model(where, MAX_NESTING + 1)
        with pytest.raises(StructureFailure) as exc:
            compiled(model)
        assert [(e.code, e.element) for e in exc.value.errors] == [("BadPredicate", element)]
