"""Differential test: the compiled engine against the reference semantics.

`explore`, `violation_trace`, `check_all_forbidden` and `verify_patch` run
on the compiled net; `oracles.oracle_bfs` re-derives the same breadth-first
graph from `oracle_enabled`/`oracle_fire` over token dicts. Node order, edge
order, depths, truncation and every predicate's trace must agree exactly.
"""

import random
from pathlib import Path

import pytest

from respetri import (
    ExplorationBound,
    NetModel,
    apply_patch,
    check_all_forbidden,
    check_forbidden,
    explore,
    parse_model,
    parse_patch,
    verify_patch,
    violation_trace,
)
from respetri.models import FIXTURES

from oracles import marking_key, oracle_bfs, oracle_trace, random_net, random_predicate

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
