"""Differential test: the compiled engine against the reference semantics.

`explore`, `violation_trace`, `check_all_forbidden` and `verify_patch` run
on the compiled net; `oracles.oracle_bfs` re-derives the same breadth-first
graph from `oracle_enabled`/`oracle_fire` over token dicts. Node order, edge
order, depths, truncation and every predicate's trace must agree exactly.
`is_enabled`, `enabled_set`, `fire` and `simulate` run the same generated
layer over one state at a time, so they are checked against
`oracle_enabled`/`oracle_fire` one marking at a time, a simulated run
against `oracles.oracle_simulate`, and the layer's own data against
`oracles.reference_explore`, the plain breadth-first loop over
`oracle_enabled`/`oracle_fire`.
"""

import builtins
import gc
import io
import json
import math
import pickle
import random
import re
import sys
import tokenize
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respetri import (
    DEFAULT_BOUND,
    And,
    CounterAtom,
    ExplorationBound,
    Marking,
    ModeAtom,
    ModeDef,
    NetModel,
    Not,
    NotEnabled,
    Or,
    Patch,
    PlaceDef,
    PressureThreshold,
    Priority,
    RunRecord,
    Scripted,
    ScriptedFiringDisabled,
    StructureFailure,
    TokenAtom,
    TransitionDef,
    UniformRandom,
    apply_patch,
    check_all_forbidden,
    check_forbidden,
    drift_report,
    enabled_set,
    eval_predicate,
    evaluate_audit_rules,
    explore,
    find_cycles,
    fire,
    is_enabled,
    karp_miller,
    parse_model,
    parse_patch,
    pressure_map,
    simulate,
    siphons_and_traps,
    validate_net,
    verify_patch,
    violation_trace,
)
from respetri import cli
from respetri import net as net_module
from respetri.analysis import _backward_coverable, node_distances
from respetri.dsl import MAX_NESTING
from respetri.governance import patch_report
from respetri.models import FIXTURES, FixtureConfig
from respetri.net import compiled, layer_source, scan_source

from oracles import (_eval, marking_key, moded_net, oracle_bfs, oracle_enabled, oracle_fire, oracle_simulate,
                     oracle_trace, random_net, random_predicate, reference_explore)

DATA = Path(__file__).resolve().parent.parent / "src" / "respetri" / "data"

BOUNDS = (
    ExplorationBound(max_states=100_000, max_depth=10_000, max_tokens_per_place=5),
    ExplorationBound(max_states=7, max_depth=10_000, max_tokens_per_place=5),
    ExplorationBound(max_states=100_000, max_depth=2, max_tokens_per_place=5),
    ExplorationBound(max_states=100_000, max_depth=10_000, max_tokens_per_place=1),
)

# Modes with a disable set and a guard override, a rate-limited counted
# transition, inhibitors, read arcs and capacities. `up` is upward-closed,
# so a truncated check decides it by backward coverability; a Karp-Miller
# tree of this net's plain projection does not finish in 15 s.
RICH = """
place p init 2 cap 3
place q cap 2
place r
place s init 1
trans go in p:1 out q:1 guard #go < 4 counted
trans back in q:1 out p:1 inhibit r:2
trans grow read s:1 out r:1 guard #go < 3 and r < 3
trans drain in r:1 out s:1 guard s < 2
trans flip in s:1 out r:2 guard not (mode = strict)
mode normal
mode strict disable drain
override strict go := q <= 0 and #go < 3
ratelimit go max 2 per 2
forbidden many := r >= 3 and s <= 0
forbidden busy := q >= 2 and s = 0
forbidden counted := #go >= 3
forbidden never := p = 4
forbidden up := p >= 4
"""


def assert_matches_oracle(model: NetModel, bound: ExplorationBound):
    g = explore(model, bound)
    nodes, edges, depth, truncated = oracle_bfs(
        model, bound.max_states, bound.max_depth, bound.max_tokens_per_place)
    assert [marking_key(m) for m in g.nodes] == nodes
    assert [(marking_key(a), t, marking_key(b)) for a, t, b in g.edges] == edges
    assert [(marking_key(m), d) for m, d in g.depth.items()] == list(depth.items())
    assert g.truncated == truncated
    for name, pred in model.forbidden:
        trace = violation_trace(g, pred)
        got = None if trace is None else (trace.firings, [marking_key(m) for m in trace.markings])
        assert got == oracle_trace(nodes, edges, pred), name
    assert check_all_forbidden(model, bound) == {
        name: check_forbidden(model, name, bound) for name, _ in model.forbidden}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_fixtures(fixture, bound):
    assert_matches_oracle(FIXTURES[fixture](), bound)


@pytest.mark.parametrize("bound", BOUNDS)
def test_modes_overrides_ratelimit_counter_inhibitors_capacities(bound):
    model = parse_model(RICH)
    assert model.modes and model.counted_transitions and model.has_place("go__budget")
    assert_matches_oracle(model, bound)
    # the same net with the other mode holding the token
    strict = parse_model(RICH.replace("mode normal\nmode strict disable drain",
                                      "mode strict disable drain\nmode normal"))
    assert_matches_oracle(strict, bound)


def test_random_modes_disable_sets_and_overrides():
    """Three modes in a switch ring over random nets, each with random disable
    sets and guard overrides, some on transitions that have a guard too."""
    rng = random.Random(31)
    for _ in range(300):
        assert_matches_oracle(moded_net(rng), BOUNDS[0])


# Switch transitions move the mode token, so the mode changes during a run:
# after `tighten`, strict's disable set and override are in force.
SWITCH = """
place p init 2
place q
trans go in p:1 out q:1
trans back in q:1 out p:1
trans tighten in mode_normal:1 out mode_strict:1
trans relax in mode_strict:1 out mode_normal:1 guard q >= 1
mode normal
mode strict disable back
override strict go := q <= 0
forbidden both := q >= 2
forbidden late := mode = strict and p <= 0
"""


@pytest.mark.parametrize("bound", BOUNDS)
def test_switch_transitions_move_the_mode(bound):
    assert_matches_oracle(parse_model(SWITCH), bound)


def test_truncated_upward_closed_check_is_decided_by_coverability():
    # go and back move one token between p and q in the plain projection
    # too, so p + q stays 2 and p >= 4 is uncoverable
    v = check_forbidden(parse_model(RICH), "up", BOUNDS[1])
    assert (v.kind.value, v.proof.value) == ("safe", "coverability")


# What the plain projection keeps and drops: a read heavier than the input on
# the same place, a read on a place nothing changes, an inhibitor, a capacity,
# guards, a mode with a disable set and an override, and a counted transition.
PLAIN = """
place p init 2 cap 3
place q
place r init 1
trans a in p:1 read p:2 r:1 out q:2 counted
trans b in q:2 out p:1 inhibit r:3 guard q >= 2
trans c in r:1 out r:1 q:1 guard #a < 5
mode m1
mode m2 disable a
override m2 b := p <= 1
"""


def test_plain_keeps_needs_and_token_changes_only():
    net = compiled(parse_model(PLAIN))
    assert net.place_ids == ("p", "q", "r", "mode_m1", "mode_m2") and net.counted == ("a",)
    assert net.root == (2, 0, 1, 1, 0, 0)
    assert net.plain == ((2, 0, 1, 1, 0), (
        ((2, 0, 1, 0, 0), (-1, 2, 0, 0, 0)),
        ((0, 2, 0, 0, 0), (1, -2, 0, 0, 0)),
        ((0, 0, 1, 0, 0), (0, 1, 0, 0, 0)),
    ))


class _Untouchable:
    """Raises on any use."""

    def _fail(self, *args):
        raise AssertionError("coverability read CompiledNet.transitions")

    __iter__ = __len__ = __bool__ = __getitem__ = __getattr__ = _fail


@pytest.mark.parametrize("pred, covered, answer", [
    (TokenAtom("q", ">=", 3), True, ("unsafe", ("a", "c"), ("c",))),
    (TokenAtom("r", ">=", 2), False, ("safe", None, None)),
], ids=["coverable", "uncoverable"])
def test_coverability_reads_only_the_plain_projection(monkeypatch, pred, covered, answer):
    model = parse_model(PLAIN)
    net = compiled(model)
    net.plain, net.layer  # both are built from `transitions`, before it goes
    monkeypatch.setattr(net, "transitions", _Untouchable())
    result, reference = karp_miller(model, pred), karp_miller(parse_model(PLAIN), pred)
    assert result == reference and len(result.tree_nodes) == 13
    v = result.verdict
    assert (v.kind.value, v.trace and v.trace.firings, result.covering_path) == answer
    assert _backward_coverable(model, pred, 1000) is covered


def test_random_nets():
    rng = random.Random(2024)
    for i in range(80):
        base = random_net(rng, plain=i % 4 == 0)
        forbidden = tuple((f"f{j}", random_predicate(rng, base, upward_closed=j == 0))
                          for j in range(3))
        model = NetModel(base.places, base.transitions, base.initial, forbidden=forbidden)
        for bound in BOUNDS:
            assert_matches_oracle(model, bound)


@pytest.mark.parametrize("bound", BOUNDS[:2])
def test_verify_patch_state_counts_come_from_one_exploration(bound):
    model = FIXTURES["traffic"]()
    patch = parse_patch((DATA / "traffic_safeguards.patch").read_text())
    report = verify_patch(model, patch, bound)
    post = apply_patch(model, patch)
    assert report.states_before == len(explore(model, bound).nodes)
    assert report.states_after == len(explore(post, bound).nodes)
    assert dict(report.verdicts_before) == check_all_forbidden(model, bound)
    assert dict(report.verdicts_after) == check_all_forbidden(post, bound)


# Ids that are names of the generated code or of the compiled net: `v` is the
# state, `s` the successor, `cut` the token cut, `append` and `tuple` calls of
# the layer, `successors` the net's one-state method and `x0` the local a deep
# guard is assigned to. Ids never enter the source, so they cannot clash with
# it. Built through the API, as `out` is an arc keyword of the text.
NAMESAKES = NetModel(
    places=(PlaceDef("v"), PlaceDef("s", capacity=2), PlaceDef("out"), PlaceDef("cut")),
    transitions=(
        TransitionDef("x0", inputs=(("v", 1),), outputs=(("s", 1),), guard=TokenAtom("out", "<", 2)),
        TransitionDef("successors", inputs=(("s", 1),), outputs=(("out", 2),),
                      inhibitors=(("cut", 2),)),
        TransitionDef("append", reads=(("out", 1),), outputs=(("cut", 1),), guard=TokenAtom("v", "<=", 1)),
        TransitionDef("tuple", inputs=(("out", 1),), outputs=(("v", 1),), guard=TokenAtom("cut", "<", 3)),
    ),
    initial=Marking.make({"v": 2, "s": 0, "out": 0, "cut": 0}),
    forbidden=(("v_full", TokenAtom("v", ">=", 3)), ("out_many", TokenAtom("out", ">=", 4))),
)

# The root already holds more tokens than two of the bounds' cuts allow: `p`
# has 7 and `q` 2 against cuts of 5 and 1, so every successor is checked at
# every unbounded place, not only at those its transition fills.
ABOVE_CUT = """
place p init 7
place q init 2
place r cap 3
trans shed in p:2
trans a in p:1 out q:1
trans b in q:2 out r:1
trans c in r:1 out p:1
trans idle read q:1 out r:1 guard r < 2
forbidden low := p <= 2
forbidden full := r >= 3
"""


@pytest.mark.parametrize("bound", BOUNDS)
def test_ids_named_like_the_generated_code(bound):
    assert validate_net(NAMESAKES) == []
    assert_matches_oracle(NAMESAKES, bound)


@pytest.mark.parametrize("bound", BOUNDS)
def test_root_beyond_the_token_cut(bound):
    model = parse_model(ABOVE_CUT)
    assert explore(model, bound).states[0][0] > bound.max_tokens_per_place
    assert_matches_oracle(model, bound)


def token_game_models():
    yield parse_model(RICH)
    yield parse_model(SWITCH)
    yield NAMESAKES
    rng = random.Random(11)
    for i in range(40):
        yield random_net(rng, plain=i % 4 == 0)


def assert_replays(model: NetModel, run):
    """Every firing of the run is enabled under the reference semantics and
    leads to the next marking."""
    transitions = {t.id: t for t in model.transitions}
    for a, t, b in zip(run.markings, run.firings, run.markings[1:]):
        tokens, counters = dict(a.tokens_map), dict(a.counters_map)
        assert oracle_enabled(model, tokens, counters, transitions[t])
        assert oracle_fire(tokens, counters, transitions[t]) == (dict(b.tokens_map), dict(b.counters_map))


def graph_data(graph) -> tuple:
    """What `explore` holds of a graph, as `reference_explore` returns it: the
    flat edge list regrouped into (source, transition, target) triples, and
    each discovering edge's flat offset as its triple's position."""
    triples = iter(graph.state_edges)
    return (graph.truncated, graph.states, graph.index, list(zip(triples, triples, triples)),
            [e // 3 for e in graph.discovered_by])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("random", "moded", "counted")),
       st.integers(1, 60), st.integers(0, 4), st.integers(0, 3))
def test_the_generated_layer_gives_the_reference_loops_graph(seed, kind, max_states, max_depth, cut):
    """Guards, modes, inhibitors, capacities and counters, under state bounds
    that cut inside a layer, depth bounds that stop at a frontier, and token
    cuts that the root may already exceed."""
    rng = random.Random(seed)
    model = (random_net(rng) if kind == "random" else moded_net(rng) if kind == "moded"
             else with_counters_and_modes(rng, random_net(rng)))
    graph = explore(model, ExplorationBound(max_states, max_depth, cut))
    assert graph_data(graph) == reference_explore(model, max_states, max_depth, cut)
    assert list(graph.index.values()) == list(range(len(graph.states)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("random", "moded", "counted")))
def test_a_compiled_nets_marking_is_the_constructors(seed, kind):
    """`marking(v)` skips the sort and the duplicate check of `Marking(...)`,
    and nothing tells the two apart: ==, hash, repr, both maps in order, and
    the pickled bytes."""
    rng = random.Random(seed)
    model = (random_net(rng) if kind == "random" else moded_net(rng) if kind == "moded"
             else with_counters_and_modes(rng, random_net(rng)))
    # these nets declare their ids in sorted order; shuffled, a vector is not
    model = replace(model, places=rng.sample(model.places, len(model.places)),
                    transitions=rng.sample(model.transitions, len(model.transitions)))
    net = compiled(model)
    n = len(net.place_ids)
    for v in explore(model, ExplorationBound(max_states=30)).states:
        fast, made = net.marking(v), Marking(tuple(zip(net.place_ids, v)), tuple(zip(net.counted, v[n:])))
        assert fast == made and hash(fast) == hash(made) and repr(fast) == repr(made)
        assert list(fast.tokens_map.items()) == list(made.tokens_map.items())
        assert list(fast.counters_map.items()) == list(made.counters_map.items())
        assert pickle.dumps(fast) == pickle.dumps(made) and pickle.loads(pickle.dumps(fast)) == made


def test_an_exploration_allocates_about_one_tracked_object_per_state():
    """The edges are one flat list of ints, and a state is one tuple, so with
    the cycle collector off the count of tracked objects grows by about the
    states, plus one frontier list per layer: no tuple per edge."""
    n, k = 10, 8
    lines = [f"place p0 init {k}"] + [f"place p{i}" for i in range(1, n)]
    lines += [f"trans t{i} in p{i}:1 out p{i + 1}:1" for i in range(n - 1)]
    model = parse_model("\n".join(lines) + "\n")
    compiled(model).layer           # generated before counting
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        graph = explore(model)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    layers = k * (n - 1) + 1        # the root's, then one per firing that moves all k tokens to p9
    edges = (n - 1) * math.comb(n + k - 2, k - 1)
    assert (len(graph.states), len(graph.state_edges)) == (math.comb(n + k - 1, k), 3 * edges)
    assert grown <= len(graph.states) + layers + 64


# From the root, in one layer: `fill` finds a new state, the last one with
# room under a 2-state bound; `spill` finds another, which is cut; `refill`
# leads to the state `fill` found; `respill` finds `spill`'s state again.
CUT_THEN_KNOWN = """
place a init 1
place b
place c
trans fill read a:1 out b:1
trans spill read a:1 out c:1
trans refill in a:1 out a:1 b:1
trans respill read a:1 out c:1
"""


@pytest.mark.parametrize("max_depth", [1, 2, 10])
def test_a_state_cut_for_room_is_not_kept_in_the_index(max_depth):
    model = parse_model(CUT_THEN_KNOWN)
    graph = explore(model, ExplorationBound(max_states=2, max_depth=max_depth))
    assert graph_data(graph) == reference_explore(model, 2, max_depth, 64)
    assert graph_data(graph) == (True, [(1, 0, 0), (1, 1, 0)], {(1, 0, 0): 0, (1, 1, 0): 1},
                                 [(0, 0, 1), (0, 2, 1)], [-1, 0])


def test_a_used_model_pickles_and_is_compiled_again_on_first_use():
    """After `explore`, `fire`, `simulate` and a scan, the compiled net holds
    generated functions, which do not pickle; the model pickles without it."""
    model = FIXTURES["traffic"]()
    graph = explore(model, BOUNDS[0])
    fire(model, model.initial, enabled_set(model, model.initial)[0])
    simulate(model, UniformRandom(0), 10)
    assert violation_trace(graph, model.forbidden[0][1]) is not None
    twin = pickle.loads(pickle.dumps(model))
    assert twin == model and twin._compiled is None and model._compiled is not None
    assert check_all_forbidden(twin, BOUNDS[0]) == check_all_forbidden(model, BOUNDS[0])


def test_is_enabled_enabled_set_and_fire_against_the_oracle():
    for model in token_game_models():
        for m in explore(model, BOUNDS[0]).nodes:
            tokens, counters = dict(m.tokens_map), dict(m.counters_map)
            expected = [t.id for t in model.transitions if oracle_enabled(model, tokens, counters, t)]
            assert enabled_set(model, m) == expected
            for t in model.transitions:
                assert is_enabled(model, m, t.id) == (t.id in expected)
                if t.id in expected:
                    after = fire(model, m, t.id)
                    assert (after.tokens_map, after.counters_map) == oracle_fire(tokens, counters, t)
                else:
                    with pytest.raises(NotEnabled):
                        fire(model, m, t.id)


def test_simulate_replays_under_every_policy():
    for k, model in enumerate(token_game_models()):
        ids = [t.id for t in model.transitions]
        uniform = simulate(model, UniformRandom(seed=k), 30)
        priority = simulate(model, Priority(tuple(reversed(ids)), seed=k), 30)
        scripted = simulate(model, Scripted(uniform.firings), 30)
        assert scripted.markings == uniform.markings
        for run in (uniform, priority, scripted):
            assert_replays(model, run)
            if run.deadlock_step is not None:
                assert enabled_set(model, run.markings[-1]) == []


def with_counters_and_modes(rng: random.Random, model: NetModel) -> NetModel:
    """The model with some transitions counted, and two modes with a switch
    from the first to the second, so that every kind of atom reads a value."""
    transitions = tuple(replace(t, counted=rng.random() < 0.5) for t in model.transitions)
    switch = TransitionDef("switch", inputs=(("mode_a", 1),), outputs=(("mode_b", 1),))
    return replace(model, places=model.places + (PlaceDef("mode_a"), PlaceDef("mode_b")),
                   transitions=transitions + (switch,), modes=(ModeDef("a"), ModeDef("b")),
                   initial=Marking.make({**model.initial.tokens_map, "mode_a": 1, "mode_b": 0}))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("random", "moded", "counted")), st.integers(0, 200))
def test_simulate_gives_the_reference_run(seed, kind, steps):
    """Three runs of one model, under UniformRandom, Priority and Scripted (the
    first run's firings, sometimes with a firing put in): each has the
    firings, markings and deadlock step of `oracles.oracle_simulate`, or its
    ScriptedFiringDisabled. Each run expands every state it reads the enabled
    set at once in the layer, however often it returns to it: not once per
    step, and not never because an earlier run expanded it."""
    rng = random.Random(seed)
    model = (random_net(rng) if kind == "random" else moded_net(rng) if kind == "moded"
             else with_counters_and_modes(rng, random_net(rng)))
    ids = list(model.transition_ids)
    net = compiled(model)
    layer, expanded = net.layer, []

    def counting(frontier, states, *args):
        expanded.extend(states[a] for a in frontier)
        return layer(frontier, states, *args)
    net.layer = counting
    script = list(oracle_simulate(model, UniformRandom(seed), steps)[0])
    if rng.random() < 0.5:
        script.insert(rng.randint(0, len(script)), rng.choice(ids))
    order = tuple(rng.sample(ids, rng.randint(0, len(ids))))
    for policy in (UniformRandom(seed), Priority(order, seed), Scripted(tuple(script))):
        expanded.clear()
        try:
            firings, keys, deadlock, read = oracle_simulate(model, policy, steps)
        except ScriptedFiringDisabled as e:
            with pytest.raises(ScriptedFiringDisabled) as raised:
                simulate(model, policy, steps)
            assert (raised.value.step, raised.value.transition) == (e.step, e.transition)
            continue
        run = simulate(model, policy, steps)
        assert (run.firings, [marking_key(m) for m in run.markings], run.deadlock_step) == (firings, keys, deadlock)
        assert sorted(marking_key(net.marking(v)) for v in expanded) == sorted(set(read))


def random_tree(rng: random.Random, model: NetModel, depth: int = 3):
    """A random Not/And/Or tree over token, counter and mode atoms; a counter
    atom names any transition, counted or not."""
    if depth == 0 or rng.random() < 0.3:
        op, value = rng.choice(("<", "<=", "=", ">=", ">")), rng.randint(0, 3)
        return rng.choice((TokenAtom(rng.choice(model.place_ids), op, value),
                           CounterAtom(rng.choice(model.transition_ids), op, value),
                           ModeAtom(rng.choice(model.modes).id)))
    if rng.random() < 0.3:
        return Not(random_tree(rng, model, depth - 1))
    return rng.choice((And, Or))(tuple(random_tree(rng, model, depth - 1) for _ in range(rng.randint(2, 3))))


def test_the_predicate_evaluations_are_one_semantics():
    """eval_predicate over markings, the compiled scan over state vectors and
    the reference evaluator agree on every explored marking."""
    rng = random.Random(2121)
    seen = set()
    for _ in range(60):
        model = with_counters_and_modes(rng, random_net(rng))
        net = compiled(model)
        markings = explore(model, ExplorationBound(max_states=60, max_tokens_per_place=4)).nodes
        for _ in range(10):
            pred = random_tree(rng, model)
            hits = set(net.scan(pred)([net.state(m) for m in markings]))
            for i, m in enumerate(markings):
                want = _eval(pred, m.tokens_map, m.counters_map)
                assert eval_predicate(pred, m) == (i in hits) == want, (pred, m)
                seen.add(want)
    assert seen == {False, True}


# Every comparison, and a transition `u` that is not counted, so `#u` atoms
# compile to constants; `g` has no arcs, so it is enabled iff its guard holds.
PREDICATE_NET = parse_model("""
place p
place q
trans c in p:1 out q:1 counted
trans u in q:1 out p:1
trans g
mode a
mode b
""")
_COMPARISONS = st.sampled_from(("<", "<=", "=", ">=", ">"))
_ATOMS = st.one_of(
    st.builds(TokenAtom, st.sampled_from(("p", "q", "mode_a")), _COMPARISONS, st.integers(0, 3)),
    st.builds(CounterAtom, st.sampled_from(("c", "u")), _COMPARISONS, st.integers(0, 3)),
    st.builds(ModeAtom, st.sampled_from(("a", "b"))))
_PREDICATES = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.builds(Not, inner),
    *(st.builds(op, st.lists(inner, min_size=2, max_size=3).map(tuple)) for op in (And, Or))), max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(_PREDICATES, st.lists(st.tuples(*[st.integers(0, 3)] * 5), min_size=1, max_size=8))
def test_generated_predicates_and_inlined_guards_agree_with_eval_predicate(pred, states):
    """The state vectors are p, q, mode_a, mode_b and the counter of c."""
    model = replace(PREDICATE_NET, transitions=tuple(
        replace(t, guard=pred) if t.id == "g" else t for t in PREDICATE_NET.transitions))
    net = compiled(model)
    hits, g = list(net.scan(pred)(states)), net.transition_index("g")
    assert hits == [i for i, v in enumerate(states) if eval_predicate(pred, net.marking(v))], pred
    for i, v in enumerate(states):
        assert any(j == g for j, _ in net.successors(v)) == (i in hits), (pred, v)


def deep_predicate(levels: int, outer: tuple[str, str], inner: str) -> str:
    """`inner` under levels - 1 parentheses, each joining outer[0] with `or`
    or outer[1] with `and`, alternately: where outer[0] is false and outer[1]
    true, the innermost atom decides."""
    pred = inner
    for i in reversed(range(levels - 1)):
        pred = f"({outer[i % 2]} {('or', 'and')[i % 2]} {pred})"
    return pred


# A guard, a mode override and forbidden predicates MAX_NESTING levels deep.
# The override folds into go's guard two levels deeper, and `#back` is a
# counter of a transition that is not counted.
DEEP = f"""
place p init 2
place q
place r cap 2
trans go in p:1 out q:1 guard {deep_predicate(MAX_NESTING, ("q >= 2", "p >= 1"), "r <= 0")}
trans back in q:1 out p:1
trans fill read q:1 out r:1
trans drain in r:1
trans tighten in mode_normal:1 out mode_strict:1
trans relax in mode_strict:1 out mode_normal:1
mode normal
mode strict disable drain
override strict go := {deep_predicate(MAX_NESTING, ("r >= 2", "#back <= 0"), "p = 1")}
forbidden deep := {deep_predicate(MAX_NESTING, ("p >= 3", "q >= 1"), "r = 2")}
forbidden never := {deep_predicate(MAX_NESTING, ("p >= 3", "q >= 1"), "r >= 3")}
forbidden negated := {"not " * (MAX_NESTING - 1)}q >= 1
"""


def test_guards_overrides_and_predicates_at_the_deepest_admitted_nesting():
    model = parse_model(DEEP)
    assert {max(level for _, level, _ in net_module._predicate_nodes(pred))
            for pred in (model.transition("go").guard, model.modes[1].guard_overrides[0][1],
                         *(pred for _, pred in model.forbidden))} == {MAX_NESTING}
    for bound in BOUNDS:
        assert_matches_oracle(model, bound)
    assert {name: v.kind.value for name, v in check_all_forbidden(model, BOUNDS[0]).items()} == {
        "deep": "unsafe", "never": "safe", "negated": "unsafe"}


SHAPE = """
place {p} init 2
place {q} cap 3
trans {go} in {p}:1 out {q}:1 guard {q} < 2 or #{go} = 0
trans {back} in {q}:1 out {p}:1
forbidden {bad} := {q} >= 2 and not {p} = 0
"""


def test_nets_of_one_structure_share_their_code():
    models = [parse_model(SHAPE.format(**dict(zip(("p", "q", "go", "back", "bad"), ids))))
              for ids in (("p", "q", "go", "back", "bad"), ("left", "right", "run", "undo", "worst"))]
    layers = [compiled(m).layer for m in models]
    scans = [compiled(m).scan(m.forbidden[0][1]) for m in models]
    for first, second in (layers, scans):
        assert first is not second and first.__code__ is second.__code__


@pytest.mark.parametrize("value", [1.5, "1", None, True], ids=repr)
@pytest.mark.parametrize("use", [
    lambda model, pred: violation_trace(explore(model), pred),
    lambda model, pred: node_distances(explore(model), pred),
    lambda model, pred: pressure_map(explore(model), pred),
    lambda model, pred: drift_report(model, simulate(model, Scripted(()), 0), pred),
    lambda model, pred: compiled(model).scan(pred),
], ids=["violation_trace", "node_distances", "pressure_map", "drift_report", "compiled-scan"])
def test_a_compared_value_that_is_not_an_int_is_a_type_error(use, value):
    model = parse_model(SWITCH)
    for atom in (TokenAtom("q", ">=", value), CounterAtom("go", "<", value)):
        with pytest.raises(TypeError, match=f"^the value compared must be an int: {re.escape(repr(atom))}$"):
            use(model, Or((TokenAtom("p", ">=", 9), Not(atom))))


# What each generated source may hold besides int literals and operators:
# its own fixed names, and the locals x<k> that a guard or predicate deeper
# than 50 levels is assigned to.
PREDICATE_NAMES = {"v", "if", "and", "or", "not"}
LAYER_NAMES = PREDICATE_NAMES | {"def", "layer", "frontier", "states", "index", "edges", "found", "cut", "room",
                                 "nxt", "truncated", "False", "True", "for", "in", "a", "s", "list", "tuple",
                                 "append", "n", "len", "b", "setdefault", "elif", "else", "del", "return"}
SCAN_NAMES = PREDICATE_NAMES | {"def", "scan", "states", "for", "i", "in", "enumerate", "yield"}
HOISTED = re.compile(r"x(0|[1-9][0-9]*)")


def test_kernel_source_holds_only_ints_and_fixed_names():
    """The layer and the scans of each net's forbidden predicates."""
    fixtures = [f() for f in FIXTURES.values()]
    hoisted = {"layer": set(), "scan": set()}
    for model in (*token_game_models(), parse_model(ABOVE_CUT), parse_model(DEEP), *fixtures):
        net = compiled(model)
        sources = [("layer", LAYER_NAMES, layer_source(net))]
        sources += [("scan", SCAN_NAMES, scan_source(net, pred)) for _, pred in model.forbidden]
        for kind, names, source in sources:
            assert isinstance(source, str)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                assert tok.type != tokenize.STRING, (kind, tok)
                if tok.type == tokenize.NAME:
                    assert tok.string in names or HOISTED.fullmatch(tok.string), (kind, tok)
                    hoisted[kind].update(HOISTED.findall(tok.string))
                elif tok.type == tokenize.NUMBER:
                    assert tok.string.isdigit(), (kind, tok)
            if model in fixtures:
                ids = (*model.place_ids, *model.transition_ids, *(n for n, _ in model.forbidden))
                assert [i for i in ids if i in source] == [], kind
    # DEEP's go: a base guard and an override each deeper than 250 levels;
    # its forbidden `deep` and `never`: 256 levels, so x0 to x4
    assert hoisted == {"layer": {str(k) for k in range(10)}, "scan": {str(k) for k in range(5)}}


def test_the_layer_source_grows_with_the_transitions_not_with_places_times_transitions():
    """Each successor is a copied list updated in place: chain(n, 1) has n
    places and n - 1 transitions, each changing two places, so doubling n
    about doubles the source. A tuple display per successor gives about 4x."""
    def chain(n):
        lines = ["place p0 init 1"] + [f"place p{i}" for i in range(1, n)]
        lines += [f"trans t{i} in p{i}:1 out p{i + 1}:1" for i in range(n - 1)]
        return parse_model("\n".join(lines) + "\n")
    small, large = (len(layer_source(compiled(chain(n)))) for n in (50, 100))
    assert large <= 2.2 * small


UNCOVERABLE = """
place a init 1
place b
place err
trans go in a:1 out b:1
trans back in b:1 out a:1 inhibit err:1
forbidden bad := err >= 1
"""


def test_kernel_is_generated_on_first_use_and_once(monkeypatch):
    """The layer is the net's one generated token game: `explore` generates
    it, once, and firing then generates nothing; on a fresh model, firing
    generates it and `simulate` and `explore` reuse it."""
    calls = []
    real = net_module.layer_source
    monkeypatch.setattr(net_module, "layer_source", lambda net: calls.append("layer_source") or real(net))
    model = parse_model(UNCOVERABLE)
    pred = model.forbidden_predicate("bad")
    assert karp_miller(model, pred).verdict.kind.value == "safe"
    assert _backward_coverable(model, pred, 50) is False
    siphons_and_traps(model)
    find_cycles(model)
    assert calls == [] and "layer" not in vars(compiled(model))
    first, second = explore(model), explore(model, BOUNDS[0])   # a second exploration
    assert first.states == second.states
    assert calls == ["layer_source"]
    fire(model, model.initial, "go")
    enabled_set(model, model.initial)
    assert calls == ["layer_source"]
    fresh = parse_model(UNCOVERABLE)
    fire(fresh, fresh.initial, "go")
    simulate(fresh, UniformRandom(0), 5)
    explore(fresh, BOUNDS[0])
    assert calls == ["layer_source"] * 2
    for net in (compiled(model), compiled(fresh)):
        assert [name for name, value in vars(net).items() if callable(value)] == ["layer"]


def test_a_dropped_model_frees_its_kernel_without_the_cycle_collector():
    """The layer, which exploration and firing both ran, and the kept scans."""
    gc.disable()
    try:
        model = parse_model(RICH)
        violation_trace(explore(model, BOUNDS[0]), model.forbidden[0][1])
        fire(model, model.initial, enabled_set(model, model.initial)[0])
        net = compiled(model)
        generated = [weakref.ref(f) for f in (net.layer, net.scan(model.forbidden[1][1]))]
        del model, net
        assert [f() for f in generated] == [None] * 2
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# One exploration per (model, bound): `explore` keeps the latest graph's data,
# keyed on the model's compiled net (held weakly) and the bound. Each test
# first explores a fresh model object, so none depends on what ran before.
# ---------------------------------------------------------------------------

def expansions(model: NetModel) -> list:
    """From now on, the states the model's explorations expand: the frontier
    states, by position, that `explore` hands to the generated layer (these
    nets' roots are within the bounds' token cuts, so every state goes
    through it). Firing and simulation run the layer too, over one state with
    no room limit; those calls are not counted."""
    net = compiled(model)
    layer, expanded = net.layer, []

    def counting(frontier, states, index, edges, found, cut, room):
        if room < math.inf:
            expanded.extend(frontier)
        return layer(frontier, states, index, edges, found, cut, room)
    net.layer = counting
    return expanded


AUDITED = RICH + "audit near := pressure many within 2\n"
SMALL = "place a init 2\nplace b\nplace c\ntrans t in a:1 out b:1\ntrans u in b:1 out c:1\n"
OTHER = "place a init 2\nplace b\ntrans t in a:1 out b:1\n"


def test_check_all_forbidden_then_explore_explores_once():
    model = parse_model(RICH)
    expanded = expansions(model)
    verdicts = check_all_forbidden(model, BOUNDS[0])
    once = len(expanded)
    assert once == len(explore(model, replace(BOUNDS[0])).states) > 0
    assert check_forbidden(model, "up", BOUNDS[0]) == verdicts["up"]
    assert_matches_oracle(model, BOUNDS[0])
    assert len(expanded) == once


def test_an_unequal_bound_or_another_model_object_explores_again():
    model = parse_model(RICH)
    expanded = expansions(model)
    explore(model, BOUNDS[0])
    once = len(expanded)
    explore(model, BOUNDS[2])
    again = len(expanded) - once
    twin = parse_model(RICH)
    twin_expanded = expansions(twin)
    assert explore(twin, BOUNDS[2]).states == explore(model, BOUNDS[2]).states
    assert len(twin_expanded) == again > 0 and len(expanded) == once + 2 * again


def test_a_later_model_never_gets_a_dropped_models_graph(monkeypatch):
    """CPython may give a new net a dropped one's id; here every object has
    the same id, so a key made from ids would match the dropped net's."""
    want = list(explore(parse_model(OTHER), BOUNDS[0]).states)
    monkeypatch.setattr(builtins, "id", lambda obj: 0)
    model = parse_model(SMALL)
    explore(model, BOUNDS[0])
    net = weakref.ref(compiled(model))
    del model
    assert net() is None
    assert explore(parse_model(OTHER), BOUNDS[0]).states == want


def test_dropping_the_model_frees_the_kept_exploration():
    gc.disable()
    try:
        model = parse_model(SMALL)
        states = explore(model, BOUNDS[0]).states   # the kept data's list
        held = sys.getrefcount(states)
        del model
        assert sys.getrefcount(states) == held - 1
    finally:
        gc.enable()

@pytest.mark.parametrize("same_model", [True, False], ids=["other-bound", "other-model"])
def test_a_new_exploration_frees_the_kept_one_before_it_explores(same_model):
    model = parse_model(SMALL)
    states = explore(model, BOUNDS[0]).states   # the kept data's list
    held = sys.getrefcount(states)
    after = model if same_model else parse_model(OTHER)
    layer, seen = compiled(after).layer, []

    def counting(*args):
        seen.append(sys.getrefcount(states))
        return layer(*args)
    compiled(after).layer = counting
    explore(after, BOUNDS[2])
    assert seen and set(seen) == {held - 1}


def test_simulate_with_a_pressure_rule_then_drift_report_explores_once():
    model = parse_model(AUDITED)
    expanded = expansions(model)
    bound = ExplorationBound(max_tokens_per_place=40)   # r grows without limit
    run = simulate(model, UniformRandom(1), 30, bound)
    once = len(expanded)
    report = drift_report(model, run, "many", bound)
    assert once == len(explore(model, bound).states) == len(expanded)
    near = [a.observed for a in run.alarms if a.rule_id == "near"]
    assert near == [d for d in report.pressures if 0 <= d <= 2] != []


def test_patch_report_explores_each_side_once():
    model = parse_model((DATA / "traffic.net").read_text())
    patch = parse_patch((DATA / "traffic_safeguards.patch").read_text())
    post = apply_patch(model, patch)
    before, after = expansions(model), expansions(post)
    report = patch_report(model, post, patch, BOUNDS[0])
    assert (len(before), len(after)) == (report.states_before, report.states_after)
    assert report.states_before > 0 and report.states_after > 0


@pytest.mark.parametrize("argv", [["--pressure", "many"], ["up", "--pressure", "many"]],
                         ids=["all-predicates", "one-predicate"])
def test_check_with_pressure_explores_once(argv, tmp_path, monkeypatch, capsys):
    path = tmp_path / "rich.net"
    path.write_text(RICH)
    parsed = []

    def parse(text):
        model = parse_model(text)
        parsed.append((model, expansions(model)))
        return model
    monkeypatch.setattr(cli, "parse_model", parse)
    with pytest.raises(SystemExit):
        cli.main(["check", str(path), *argv])
    (model, expanded), = parsed
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["pressure"]["predicate"] == "many" and results["verdicts"]
    assert len(expanded) == len(explore(model, DEFAULT_BOUND).states) > 0


# ---------------------------------------------------------------------------
# The validation gate: `compiled` runs validate_net once per model object, so
# no engine runs a model that validate_net rejects.
# ---------------------------------------------------------------------------

def _gate_model(**fields):
    """A one-transition net p -> q, with the given NetModel fields replaced."""
    base = dict(places=(PlaceDef("p"), PlaceDef("q")),
                transitions=(TransitionDef("t", inputs=(("p", 1),), outputs=(("q", 1),)),),
                initial=Marking.make({"p": 1, "q": 0}),
                forbidden=(("f", TokenAtom("q", ">=", 1)),))
    return NetModel(**{**base, **fields})


TWICE_P = _gate_model(places=(PlaceDef("p"), PlaceDef("p"), PlaceDef("q")))
TWICE_P_CAPPED_FIRST = _gate_model(places=(PlaceDef("p", 5), PlaceDef("p"), PlaceDef("q")))
# the guard would admit either override, the text keeps both and a reparse the last
OVERRIDE_TWICE = _gate_model(
    places=(PlaceDef("p"), PlaceDef("q"), PlaceDef("mode_a")),
    initial=Marking.make({"p": 1, "q": 0, "mode_a": 1}),
    modes=(ModeDef("a", guard_overrides=(("t", TokenAtom("p", ">=", 1)),
                                          ("t", TokenAtom("p", ">=", 5)))),))
# the counter's zero is added once, so the model builds and validate_net judges the id
COUNTED_TWICE = _gate_model(
    transitions=(TransitionDef("t", inputs=(("p", 1),), outputs=(("q", 1),), counted=True),) * 2)
TWO_W = _gate_model(audit_rules=(PressureThreshold("w", "f", 1), PressureThreshold("w", "f", 1)))
UNKNOWN_IN_PREDICATE = _gate_model(forbidden=(("f", TokenAtom("nowhere", ">=", 1)),))
ARC_TO_NOWHERE = _gate_model(
    transitions=(TransitionDef("t", inputs=(("p", 1),), outputs=(("nowhere", 1),)),))


@pytest.mark.parametrize("model, run, code", [
    (TWICE_P, lambda m: explore(m), "DuplicateId"),
    (TWO_W, lambda m: simulate(m, Scripted(("t",)), 1), "DuplicateId"),
    (TWO_W, lambda m: evaluate_audit_rules(m, RunRecord((), (m.initial,))), "DuplicateId"),
    (UNKNOWN_IN_PREDICATE, lambda m: simulate(m, UniformRandom(0), 3), "UnknownEndpoint"),
    (TWICE_P, lambda m: fire(m, m.initial, "t"), "DuplicateId"),
    (TWICE_P, lambda m: enabled_set(m, m.initial), "DuplicateId"),
    (TWICE_P, lambda m: is_enabled(m, m.initial, "t"), "DuplicateId"),
    (ARC_TO_NOWHERE, lambda m: siphons_and_traps(m), "UnknownEndpoint"),
    (ARC_TO_NOWHERE, lambda m: find_cycles(m), "UnknownEndpoint"),
    (replace(TWICE_P, forbidden=()), lambda m: check_all_forbidden(m), "DuplicateId"),
    (TWICE_P_CAPPED_FIRST, lambda m: apply_patch(m, Patch(())), "DuplicateId"),
    (OVERRIDE_TWICE, lambda m: check_forbidden(m, "f"), "DuplicateId"),
    (COUNTED_TWICE, lambda m: explore(m), "DuplicateId"),
], ids=["explore-place-twice", "simulate-two-rules-w", "audit-two-rules-w",
        "simulate-predicate-on-unknown-place", "fire", "enabled_set", "is_enabled",
        "siphons-arc-to-unknown-place", "cycles-arc-to-unknown-place",
        "check-all-without-predicates", "empty-patch-place-twice", "mode-overrides-t-twice",
        "explore-counted-transition-twice"])
def test_no_engine_runs_a_model_that_validate_net_rejects(model, run, code):
    errors = validate_net(model)
    assert code in [e.code for e in errors]
    for _ in range(2):  # nothing is kept from a failed check, so it fails again
        with pytest.raises(StructureFailure) as info:
            run(model)
        assert info.value.errors == errors
    assert model._compiled is None


def test_a_marking_assigns_each_place_and_counter_once():
    for tokens, counters in (((("p", 1), ("p", 2), ("q", 0)), ()),
                             ((("p", 1),), (("t", 0), ("t", 1)))):
        with pytest.raises(ValueError, match="more than once"):
            Marking(tokens, counters)


def test_each_model_is_validated_once(monkeypatch):
    calls = []
    real = net_module.validate_net
    monkeypatch.setattr(net_module, "validate_net", lambda m: calls.append(m) or real(m))
    model = parse_model(UNCOVERABLE)
    explore(model)
    check_all_forbidden(model)
    simulate(model, UniformRandom(0), 5)
    karp_miller(model, model.forbidden_predicate("bad"))
    siphons_and_traps(model)
    find_cycles(model)
    assert calls == [model]
    api_built = _gate_model()
    assert fire(api_built, api_built.initial, "t") == Marking.make({"p": 0, "q": 1})
    check_forbidden(api_built, "f")
    assert calls == [model, api_built]
    for name, build in FIXTURES.items():
        for cfg in (FixtureConfig(), FixtureConfig(safeguards_enabled=True)):
            calls.clear()
            fixture = build(cfg)
            explore(fixture)
            assert calls == [fixture], (name, cfg)
