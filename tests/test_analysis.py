"""Exploration, verdicts, coverability, structural analysis, pressure."""

import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from respetri import (
    And,
    CounterAtom,
    ExplorationBound,
    Marking,
    NetModel,
    NodeNotInGraph,
    Not,
    NotUpwardClosed,
    Or,
    PlaceDef,
    ProofKind,
    TokenAtom,
    TransitionDef,
    UniformRandom,
    UnknownReference,
    VerdictKind,
    ViolationTrace,
    check_all_forbidden,
    check_forbidden,
    enabled_set,
    eval_predicate,
    evaluate_audit_rules,
    explore,
    find_cycles,
    fire,
    initial_marking,
    is_enabled,
    is_upward_closed,
    karp_miller,
    parse_model,
    pressure_map,
    reachability_pressure,
    simulate,
    siphons_and_traps,
    violation_trace,
)
from respetri.analysis import _backward_coverable, _target_basis, node_distances
from respetri.net import compiled, predicate_atoms
from respetri.models import FIXTURES, build_risk_scoring_model, build_srs_symbolic_model, build_traffic_model

from oracles import (marking_key, oracle_bfs, oracle_cycles, oracle_karp_miller, oracle_siphons_traps,
                     oracle_verdict, random_net, random_predicate)

WIDE = ExplorationBound(max_states=10**6, max_depth=10**5, max_tokens_per_place=32)


def chain_net():
    return NetModel(
        places=(PlaceDef("p0"), PlaceDef("p1"), PlaceDef("p2")),
        transitions=(
            TransitionDef("t1", inputs=(("p0", 1),), outputs=(("p1", 1),)),
            TransitionDef("t2", inputs=(("p1", 1),), outputs=(("p2", 1),)),
        ),
        initial=Marking.make({"p0": 1, "p1": 0, "p2": 0}),
        forbidden=(("leak", TokenAtom("p2", ">=", 1)),),
    )


def source_net():
    return NetModel(
        places=(PlaceDef("p"),),
        transitions=(TransitionDef("t", outputs=(("p", 1),)),),
        initial=Marking.make({"p": 0}),
        forbidden=(("flood", TokenAtom("p", ">=", 10)),),
    )


class TestExplore:
    def test_chain_graph(self):
        g = explore(chain_net())
        assert len(g.nodes) == 3
        assert len(g.edges) == 2
        assert not g.truncated
        assert g.depth[g.root] == 0

    def test_a_depth_lookup_builds_no_marking(self):
        g = explore(build_traffic_model())
        assert g.depth[g.root] == 0
        assert "nodes" not in g.__dict__

    def test_depth_and_prefixes_match_the_oracle_levels(self):
        """`depth` reads as the node -> BFS level dict, and nodes_within_depth(d)
        is the set of nodes at level <= d, for every d from -1 to one past the
        deepest level, on untruncated, state-cut and depth-cut graphs."""
        rng = random.Random(2030)
        models = [b() for b in FIXTURES.values()] + [chain_net()] + [toggles_net(n) for n in range(3, 8)]
        models += [random_net(rng, plain=i % 2 == 0) for i in range(120)]
        bounds = {"untruncated": ExplorationBound(100_000, 10_000, 5),
                  "state-cut": ExplorationBound(7, 10_000, 5),
                  "depth-cut": ExplorationBound(100_000, 2, 5)}
        seen = set()
        for model in models:
            for kind, bound in bounds.items():
                g = explore(model, bound)
                _, _, levels, _ = oracle_bfs(model, bound.max_states, bound.max_depth,
                                             bound.max_tokens_per_place)
                want = {m: levels[marking_key(m)] for m in g.nodes}
                assert dict(g.depth) == want and g.depth == want and len(g.depth) == len(want)
                for d in range(-1, max(want.values()) + 2):
                    assert g.nodes_within_depth(d) == frozenset(m for m, dep in want.items() if dep <= d)
                if g.truncated == (kind != "untruncated"):
                    seen.add(kind)
        assert seen == set(bounds)

    def test_monotone_prefix(self):
        g = explore(build_traffic_model())
        max_d = max(g.depth.values())
        for d in range(max_d + 1):
            assert g.nodes_within_depth(d) <= g.nodes_within_depth(d + 1)

    def test_depth_bound_truncates(self):
        g = explore(chain_net(), ExplorationBound(max_depth=1))
        assert g.truncated
        assert max(g.depth.values()) == 1

    @pytest.mark.parametrize("field", ["max_states", "max_depth", "max_tokens_per_place"])
    def test_a_bound_field_is_an_int(self, field):
        for bad in ("5", None, 2.5, True):
            with pytest.raises(TypeError, match=rf"^ExplorationBound\.{field} must be an int, got {bad!r}$"):
                ExplorationBound(**{field: bad})
        assert getattr(ExplorationBound(**{field: -1}), field) == -1

    def test_state_bound_truncates_but_keeps_edges_to_known_nodes(self):
        g = explore(build_traffic_model(), ExplorationBound(max_states=5))
        assert g.truncated
        assert len(g.nodes) == 5
        for a, _t, b in g.edges:
            assert a in g and b in g

    def test_token_cap_cuts_frontier(self):
        g = explore(source_net(), ExplorationBound(max_tokens_per_place=3))
        assert g.truncated
        assert len(g.nodes) == 4  # p = 0..3
        assert max(m.tokens_map["p"] for m in g.nodes) == 3

    def test_capacitated_place_ignores_token_cap(self):
        m = NetModel(
            places=(PlaceDef("p", capacity=5),),
            transitions=(TransitionDef("t", outputs=(("p", 1),)),),
            initial=Marking.make({"p": 0}),
        )
        g = explore(m, ExplorationBound(max_tokens_per_place=2))
        assert not g.truncated
        assert len(g.nodes) == 6

    def test_worker_confluence(self):
        model = build_traffic_model()
        g1 = explore(model, WIDE, workers=1)
        g3 = explore(build_traffic_model(), WIDE, workers=3)   # explores again
        assert g1.nodes == g3.nodes
        assert g1.edges == g3.edges
        assert g1.depth == g3.depth
        assert g1.truncated == g3.truncated


class TestVerdicts:
    def test_unsafe_with_minimal_trace(self):
        v = check_forbidden(chain_net(), "leak")
        assert v.kind is VerdictKind.UNSAFE
        assert v.proof is ProofKind.VIOLATION_TRACE
        assert v.trace.firings == ("t1", "t2")
        assert v.trace.markings[-1].tokens_map["p2"] == 1

    def test_safe_exhaustive(self):
        m = chain_net()
        m = NetModel(m.places, m.transitions, m.initial,
                     forbidden=(("huge", TokenAtom("p2", ">=", 5)),))
        v = check_forbidden(m, "huge")
        assert v.kind is VerdictKind.SAFE
        assert v.proof is ProofKind.EXHAUSTIVE_BOUNDED

    def test_unknown_when_bound_exhausted(self):
        m = source_net()
        m = NetModel(m.places, m.transitions, m.initial,
                     forbidden=(("never", TokenAtom("p", "=", 999)),))
        v = check_forbidden(m, "never", ExplorationBound(max_tokens_per_place=4))
        assert v.kind is VerdictKind.UNKNOWN
        assert v.proof is ProofKind.BOUND_EXHAUSTED

    def test_safe_by_coverability_on_truncated_graph(self):
        # an unbounded feeder place plus an unreachable target place
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q")),
            transitions=(TransitionDef("t", outputs=(("p", 1),)),),
            initial=Marking.make({"p": 0, "q": 0}),
            forbidden=(("qq", TokenAtom("q", ">=", 1)),),
        )
        v = check_forbidden(m, "qq", ExplorationBound(max_tokens_per_place=4))
        assert v.kind is VerdictKind.SAFE
        assert v.proof is ProofKind.COVERABILITY

    def test_unsafe_beyond_bound_found_by_trace_length(self):
        v = check_forbidden(source_net(), "flood", WIDE)
        assert v.kind is VerdictKind.UNSAFE
        assert len(v.trace.firings) == 10

    def test_no_forbidden_predicates_give_no_verdicts(self):
        assert check_all_forbidden(replace(chain_net(), forbidden=())) == {}

    def test_unknown_predicate_name(self):
        from respetri import UnknownPredicate

        with pytest.raises(UnknownPredicate):
            check_forbidden(chain_net(), "nope")

    def test_root_violation_gives_empty_trace(self):
        m = NetModel(places=(PlaceDef("p"),), transitions=(),
                     initial=Marking.make({"p": 1}),
                     forbidden=(("now", TokenAtom("p", ">=", 1)),))
        v = check_forbidden(m, "now")
        assert v.kind is VerdictKind.UNSAFE
        assert v.trace.firings == ()

    def test_violation_trace_none_when_unreachable(self):
        g = explore(chain_net())
        assert violation_trace(g, TokenAtom("p2", ">=", 5)) is None

    @pytest.mark.parametrize("firings, markings", [((), ()), (("t1",), (Marking.make({"p": 1}),))],
                             ids=["no-markings", "one-marking-short"])
    def test_a_trace_needs_one_marking_more_than_firings(self, firings, markings):
        with pytest.raises(ValueError, match=r"^a trace of \d firings needs \d markings, got \d$"):
            ViolationTrace(firings, markings)


def toggles_net(n: int) -> NetModel:
    """n capacity-1 places, each with a source and a sink, and a place
    `err` that nothing produces into: 2^n reachable markings."""
    q = [f"q{i}" for i in range(n)]
    lines = [f"place {x} cap 1" for x in q] + ["place err"]
    for i, x in enumerate(q):
        lines += [f"trans src{i} out {x}:1", f"trans snk{i} in {x}:1"]
    lines += [
        "forbidden deep := (" + " and ".join(f"{x} >= 1" for x in q) + ")",
        f"forbidden shallow := q{n // 2} >= 1",
        "forbidden safe := q0 >= 2",
        "forbidden overflow := err >= 1",
    ]
    return parse_model("\n".join(lines) + "\n")


INHIBITED = ("place p init 1\nplace q\nplace blk init 1\n"
             "trans t in p:1 out q:1 inhibit blk:1\nforbidden f := q >= 1\n")


def plain_case(seed: int):
    """A random plain net with a random upward-closed predicate `goal`."""
    rng = random.Random(seed)
    base = random_net(rng, plain=True)
    pred = random_predicate(rng, base, upward_closed=True)
    return NetModel(base.places, base.transitions, base.initial, forbidden=(("goal", pred),))


class TestBackwardCoverability:
    """The fallback of a truncated check: backward search within max_states expansions."""

    def test_toggles_20_within_a_50_state_bound(self):
        model = toggles_net(20)
        bound = ExplorationBound(max_states=50)
        verdicts = {name: check_forbidden(model, name, bound) for name, _ in model.forbidden}
        assert (verdicts["overflow"].kind, verdicts["overflow"].proof) == (
            VerdictKind.SAFE, ProofKind.COVERABILITY)
        # both are coverable once capacities are dropped
        for name in ("deep", "safe"):
            assert (verdicts[name].kind, verdicts[name].proof) == (
                VerdictKind.UNKNOWN, ProofKind.BOUND_EXHAUSTED)
        assert verdicts["shallow"].kind is VerdictKind.UNSAFE
        assert verdicts["shallow"].trace.firings == ("src10",)

    def test_budget_counts_basis_expansions(self):
        # a pipeline a -> b -> c -> d beside a source that truncates every
        # exploration: d >= 2 is uncoverable from one token, and the proof
        # expands each placement of two tokens on the pipeline
        m = parse_model("place a init 1\nplace b\nplace c\nplace d\nplace x\n"
                        "trans t1 in a:1 out b:1\ntrans t2 in b:1 out c:1\n"
                        "trans t3 in c:1 out d:1\ntrans gen out x:1\n"
                        "forbidden dd := d >= 2\n")
        pred = m.forbidden_predicate("dd")
        needed = next(k for k in range(100) if _backward_coverable(m, pred, k) is not None)
        assert needed == 10
        assert _backward_coverable(m, pred, needed) is False
        assert _backward_coverable(m, pred, needed - 1) is None
        assert _backward_coverable(m, pred, -1) is None  # a negative budget expands nothing
        assert check_forbidden(m, "dd", ExplorationBound(max_states=needed)).kind is VerdictKind.SAFE
        assert check_forbidden(m, "dd", ExplorationBound(max_states=needed - 1)).kind is VerdictKind.UNKNOWN
        assert check_forbidden(m, "dd", ExplorationBound(max_states=-1)).kind is VerdictKind.UNKNOWN

    def test_a_wide_basis_does_not_outrun_the_bound(self):
        # eight tokens on a ten-place pipeline under a 5-token cut: the root is
        # over the cut, so the exploration stops at once, and a budget of
        # 100,000 expansions grows a basis whose scans ran for minutes. Run in
        # a child, so that a search that outruns its bound fails here instead
        # of hanging.
        text = ("place p0 init 8\n" + "".join(f"place p{i}\ntrans t{i} in p{i - 1}:1 out p{i}:1\n" for i in range(1, 10))
                + "forbidden deep := p9 >= 8\n")
        code = ("import sys; from respetri import ExplorationBound, check_forbidden, parse_model\n"
                "bound = ExplorationBound(max_states=100_000, max_tokens_per_place=5)\n"
                "v = check_forbidden(parse_model(sys.argv[1]), 'deep', bound)\n"
                "print(v.kind.value, v.proof.value)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        r = subprocess.run([sys.executable, "-c", code, text], capture_output=True, text=True, timeout=30,
                           env=dict(os.environ, PYTHONPATH=str(src)))
        assert (r.returncode, r.stdout) == (0, "unknown bound-exhausted\n"), r.stderr[-2000:]

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**9))
    def test_agrees_with_karp_miller_and_oracle(self, seed):
        model = plain_case(seed)
        pred = model.forbidden_predicate("goal")
        covered = _backward_coverable(model, pred, 10**6)
        assert covered is not None
        expected = oracle_verdict(model, pred, 5)
        if expected == "unknown":
            return  # not bounded within the cap: the oracle does not decide
        assert covered == (expected == "unsafe")
        assert karp_miller(model, pred).verdict.kind.value == expected

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 3))
    def test_spent_budget_gives_unknown_never_a_wrong_safe(self, seed, budget):
        model = plain_case(seed)
        pred = model.forbidden_predicate("goal")
        covered = _backward_coverable(model, pred, 10**6)
        assert _backward_coverable(model, pred, budget) in (None, covered)
        v = check_forbidden(model, "goal", ExplorationBound(max_states=budget))
        if covered:
            assert v.kind is not VerdictKind.SAFE
        elif v.proof is ProofKind.BOUND_EXHAUSTED:
            assert _backward_coverable(model, pred, budget) is None


class TestKarpMiller:
    def test_rejects_non_upward_closed(self):
        with pytest.raises(NotUpwardClosed):
            karp_miller(chain_net(), TokenAtom("p2", "<=", 1))

    def test_rejects_counter_atoms(self):
        from respetri import CounterAtom

        with pytest.raises(NotUpwardClosed):
            karp_miller(chain_net(), CounterAtom("t2", ">=", 1))

    @pytest.mark.parametrize("pred, basis", [
        (TokenAtom("p1", ">", 0), [(0, 1, 0)]),
        (Or((TokenAtom("p0", ">=", 2), And((TokenAtom("p1", ">=", 1), TokenAtom("p2", ">", 1))))),
         [(2, 0, 0), (0, 1, 2)]),
        (TokenAtom("p1", ">=", -3), [(0, 0, 0)]),
        (And((TokenAtom("p1", ">=", 1), CounterAtom("t2", ">=", 1))), None),
        (TokenAtom("p1", "=", 1), None),
        (Or((TokenAtom("p1", ">=", 1), Not(TokenAtom("p2", "<", 1)))), None),
        # two atoms on one place need the larger count, not the sum
        (And((TokenAtom("p1", ">=", 2), TokenAtom("p1", ">", 2), TokenAtom("p0", ">=", 1))), [(1, 3, 0)]),
        (And((Or((TokenAtom("p0", ">=", 1), TokenAtom("p1", ">=", 2))),
              Or((TokenAtom("p1", ">=", 1), TokenAtom("p2", ">=", 1))))),
         [(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 2, 1)]),
    ])
    def test_target_basis_takes_only_upward_closed_token_predicates(self, pred, basis):
        assert _target_basis(pred, compiled(chain_net())) == basis
        upward = is_upward_closed(pred) and not any(
            isinstance(a, CounterAtom) for a in predicate_atoms(pred))
        assert upward == (basis is not None)

    def test_unknown_place_is_named(self):
        from respetri import UnknownReference

        with pytest.raises(UnknownReference, match="ghost"):
            karp_miller(build_traffic_model(), TokenAtom("ghost", ">=", 1))

    def test_source_net_unsafe_via_omega(self):
        cov = karp_miller(source_net(), TokenAtom("p", ">=", 10))
        assert cov.verdict.kind is VerdictKind.UNSAFE
        assert any(math.inf in node for node in cov.tree_nodes)
        assert cov.covering_path is not None
        # witness is concrete and replayable
        assert len(cov.verdict.trace.firings) == 10

    def test_bounded_net_safe(self):
        cov = karp_miller(chain_net(), TokenAtom("p2", ">=", 2))
        assert cov.verdict.kind is VerdictKind.SAFE

    def test_acceleration_by_hand(self):
        # t2 refills x, of which the root holds more than node 1: only the
        # child is above the root, and y goes to omega
        pump = parse_model("place x init 1\nplace y\nplace z\n"
                           "trans t1 in x:1 out z:1\ntrans t2 in z:1 out x:1 y:1\n")
        assert karp_miller(pump, TokenAtom("y", ">=", 2)).tree_nodes[2] == (1, math.inf, 0)
        # b's child is above the root, which lifts x and y; only then is it
        # above node 1 too, which lifts z: acceleration takes two rounds
        chained = parse_model("place x init 1\nplace y init 1\nplace z init 3\n"
                              "trans a in z:2 out x:2 y:1\ntrans b in x:2 out x:1 z:2\n")
        assert karp_miller(chained, TokenAtom("y", ">=", 2)).tree_nodes[2] == (math.inf,) * 3

    def test_acceleration_by_a_minimal_ancestor_that_is_neither_root_nor_parent(self):
        # t3's child y=1 w=1 is above node 1 (y=1) only: neither the root nor
        # the parent z=1 lifts w, so node 1 must stay among node 2's minimal markings
        net = parse_model("place x init 1\nplace y\nplace z\nplace w\n"
                          "trans t1 in x:1 out y:1\ntrans t2 in y:1 out z:1\n"
                          "trans t3 in z:1 out y:1 w:1\n")
        pred = TokenAtom("w", ">=", 5)
        cov = karp_miller(net, pred)
        assert cov.tree_nodes[3] == (0, 1, 0, math.inf)
        assert (cov.tree_nodes, cov.tree_edges, cov.covering_path) == oracle_karp_miller(net, pred)

    def test_toggles_tree_size_in_closed_form(self):
        for n in range(3, 9):
            model = toggles_net(n)
            cov = karp_miller(model, model.forbidden_predicate("overflow"))
            assert len(cov.tree_nodes) == 3 * n * 2 ** (n - 1) + 1

    def test_node_budget(self):
        model = toggles_net(8)   # a tree of 3,073 nodes
        pred = model.forbidden_predicate("overflow")
        whole = karp_miller(model, pred, bound=ExplorationBound(max_states=3073))
        assert whole.verdict.kind is VerdictKind.SAFE
        cut = karp_miller(model, pred, bound=ExplorationBound(max_states=3072))
        assert (cut.verdict.kind, cut.verdict.proof) == (VerdictKind.UNKNOWN, ProofKind.BOUND_EXHAUSTED)
        assert cut.covering_path is None
        assert len(cut.tree_nodes) == 3072

    def test_every_budget_cuts_the_same_tree(self):
        # most of this tree's children change only omega places: a budget
        # must still stop it before such a child, at the same node
        model = toggles_net(4)
        pred = model.forbidden_predicate("overflow")
        full = karp_miller(model, pred)
        assert len(full.tree_nodes) == 97
        for k in range(1, len(full.tree_nodes)):
            cut = karp_miller(model, pred, bound=ExplorationBound(max_states=k))
            assert (cut.verdict.kind, cut.verdict.proof) == (VerdictKind.UNKNOWN, ProofKind.BOUND_EXHAUSTED)
            assert (cut.tree_nodes, cut.tree_edges) == (full.tree_nodes[:k], full.tree_edges[:k - 1])
        whole = karp_miller(model, pred, bound=ExplorationBound(max_states=len(full.tree_nodes)))
        assert (whole.verdict, whole.tree_nodes, whole.tree_edges) == (full.verdict, full.tree_nodes,
                                                                       full.tree_edges)

    @pytest.mark.parametrize("arcs", ["in a:2 out a:2 b:1", "read a:2 out b:1"])
    def test_a_weighted_need_is_not_met_by_a_place_that_is_not_empty(self, arcs):
        # a holds 1 token, not 0, and t needs 2: t is disabled at the root
        net = parse_model(f"place a init 1\nplace b\ntrans t {arcs}\n")
        pred = TokenAtom("b", ">=", 1)
        cov = karp_miller(net, pred, bound=ExplorationBound(max_states=10))
        assert cov.tree_nodes == [(1, 0)]
        assert cov.verdict.kind is VerdictKind.SAFE
        assert (cov.tree_nodes, cov.tree_edges, cov.covering_path) == oracle_karp_miller(net, pred)

    def test_a_child_that_changes_only_omega_places_is_its_parent(self):
        # at (w, 0, 1), g and h give the node itself and k lifts q to omega;
        # h changes nothing, so at the root too its child is the root
        net = parse_model("place p init 1\nplace q\nplace s init 1\n"
                          "trans g in p:1 out p:2\ntrans h read s:1 in p:1 out p:1\n"
                          "trans k in p:1 out q:1\n")
        pred = TokenAtom("q", ">=", 3)
        cov = karp_miller(net, pred)
        w = math.inf
        assert cov.tree_nodes[:7] == [(1, 0, 1), (w, 0, 1), (1, 0, 1), (0, 1, 1),
                                      (w, 0, 1), (w, 0, 1), (w, w, 1)]
        assert cov.tree_edges[:6] == [(0, "g", 1), (0, "h", 2), (0, "k", 3),
                                      (1, "g", 4), (1, "h", 5), (1, "k", 6)]
        assert cov.verdict.kind is VerdictKind.UNSAFE
        assert (cov.tree_nodes, cov.tree_edges, cov.covering_path) == oracle_karp_miller(net, pred)

    def test_spurious_covering_path_gives_safe_not_unsafe(self):
        # t fires only in the projection, which drops the inhibitor
        m = parse_model(INHIBITED)
        cov = karp_miller(m, m.forbidden_predicate("f"), predicate_name="f")
        assert (cov.verdict.kind, cov.verdict.proof) == (VerdictKind.SAFE, ProofKind.EXHAUSTIVE_BOUNDED)
        assert cov.covering_path == ("t",)
        assert check_forbidden(m, "f").kind is VerdictKind.SAFE

    def test_spurious_covering_path_gives_unknown_when_every_witness_search_is_cut(self):
        # gen fills r past every token cut of the witness search
        m = parse_model(INHIBITED + "place r\ntrans gen out r:1\n")
        cov = karp_miller(m, m.forbidden_predicate("f"))
        assert (cov.verdict.kind, cov.verdict.proof) == (VerdictKind.UNKNOWN, ProofKind.BOUND_EXHAUSTED)
        assert cov.covering_path == ("t",)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_unsafe_always_replays_and_safe_is_never_wrong(self, seed):
        rng = random.Random(seed)
        model = random_net(rng)
        pred = random_predicate(rng, model, upward_closed=True)
        v = karp_miller(model, pred, bound=ExplorationBound(max_states=5000)).verdict
        if v.kind is VerdictKind.UNSAFE:
            m = model.initial
            for t in v.trace.firings:
                m = fire(model, m, t)
            assert eval_predicate(pred, m)
        elif v.kind is VerdictKind.SAFE:
            assert oracle_verdict(model, pred, 5) != "unsafe"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    def test_same_tree_as_the_classical_loop(self, seed, plain):
        rng = random.Random(seed)
        model = random_net(rng, plain=plain)
        pred = random_predicate(rng, model, upward_closed=True)
        cov = karp_miller(model, pred, bound=ExplorationBound(max_states=5000))
        # a tree cut by the budget may be huge, and the classical loop has none
        assume(cov.covering_path is not None or cov.verdict.kind is not VerdictKind.UNKNOWN)
        assert (cov.tree_nodes, cov.tree_edges, cov.covering_path) == oracle_karp_miller(model, pred)

    def test_same_tree_as_the_classical_loop_on_toggles_and_fixtures(self):
        cases = [(m, m.forbidden_predicate(name)) for m in map(toggles_net, range(3, 11))
                 for name in ("overflow", "deep", "safe")]
        for build in (build_traffic_model, build_risk_scoring_model, build_srs_symbolic_model):
            m = build()
            cases += [(m, TokenAtom(p, ">=", k)) for p in m.place_ids for k in (1, 4)]
        for model, pred in cases:
            cov = karp_miller(model, pred)
            assert (cov.tree_nodes, cov.tree_edges, cov.covering_path) == oracle_karp_miller(model, pred)


class TestCycles:
    def test_traffic_loop_present_canonical_rotation(self):
        cycles = find_cycles(build_traffic_model())
        assert ("p2", "t2", "p3", "t4", "p4", "t6") in cycles
        assert ("p3", "t3") in cycles  # codification self-loop

    def test_acyclic_net(self):
        assert find_cycles(chain_net()) == []

    def test_length_bound(self):
        m = build_traffic_model()
        short = find_cycles(m, max_length=2)
        assert all(len(c) <= 2 for c in short)
        assert set(short) <= set(find_cycles(m))

    def test_read_arcs_count_as_dependencies(self):
        m = NetModel(
            places=(PlaceDef("p"),),
            transitions=(TransitionDef("t", reads=(("p", 1),), outputs=(("p", 1),)),),
            initial=Marking.make({"p": 1}),
        )
        assert ("p", "t") in find_cycles(m)

    def test_a_negative_length_bound_is_refused_by_name(self):
        with pytest.raises(ValueError, match="max_length"):
            find_cycles(build_traffic_model(), -1)

    def test_a_non_int_length_bound_is_refused_by_name(self):
        for bad in (2.5, True):
            with pytest.raises(TypeError, match="max_length"):
                find_cycles(build_traffic_model(), bad)

    def test_zero_and_none_length_bounds(self):
        m = build_traffic_model()
        assert find_cycles(m, 0) == []
        assert set(find_cycles(m, None)) >= set(find_cycles(m))

    def test_arcs_that_change_nothing_still_make_cycles(self):
        assert find_cycles(SELF_LOOPS) == [("p", "t"), ("q", "u"), ("r", "w")]

    def test_matches_the_brute_force_oracle(self):
        for i in range(300):
            model = random_net(random.Random(i))
            for bound in (*range(7), None):
                assert find_cycles(model, bound) == oracle_cycles(model, bound), (i, bound)

    def test_declaration_order_is_irrelevant(self):
        rng = random.Random(5)
        models = [b() for b in FIXTURES.values()] + [wide_net(rng) for _ in range(20)]
        for model in models:
            want = find_cycles(model)
            for _ in range(3):
                assert find_cycles(shuffled(model, rng)) == want


def net_of(*lines: str) -> NetModel:
    return parse_model("\n".join(lines) + "\n")


# a self-loop, a net change of -1 and a read loop: each place is a siphon and
# a trap, and each pair a cycle, though only u changes a marking
SELF_LOOPS = net_of("place p init 1", "place q init 2", "place r", "trans t in p:1 out p:1",
                    "trans u in q:2 out q:1", "trans w read r:1 out r:1")


def wide_net(rng: random.Random) -> NetModel:
    """8-12 places, 3-12 transitions with inputs, outputs and read arcs."""
    pids = [f"q{i}" for i in range(rng.randint(8, 12))]

    def arcs(verb: str, most: int) -> str:
        chosen = rng.sample(pids, rng.randint(0, most))
        return f" {verb} " + " ".join(f"{p}:1" for p in chosen) if chosen else ""

    return net_of(*(f"place {p}" for p in pids),
                  *(f"trans t{j}{arcs('in', 3)}{arcs('out', 3)}{arcs('read', 2)}"
                    for j in range(rng.randint(3, 12))))


def shuffled(model: NetModel, rng: random.Random) -> NetModel:
    return replace(model, places=tuple(rng.sample(model.places, len(model.places))),
                   transitions=tuple(rng.sample(model.transitions, len(model.transitions))))


class TestSiphonsTraps:
    def test_hand_example(self):
        # t consumes p and produces q: {p} is a siphon, {q} is a trap
        m = NetModel(
            places=(PlaceDef("p"), PlaceDef("q")),
            transitions=(TransitionDef("t", inputs=(("p", 1),), outputs=(("q", 1),)),),
            initial=Marking.make({"p": 1, "q": 0}),
        )
        siphons, traps = siphons_and_traps(m, max_size=2)
        assert ("p",) in siphons
        assert ("q",) in traps

    def test_against_oracle_on_random_nets(self):
        rng = random.Random(31)
        for _ in range(300):
            model = random_net(rng)
            for k in range(6):
                assert siphons_and_traps(model, k) == oracle_siphons_traps(model, k)
        for _ in range(60):
            model = wide_net(rng)
            for k in range(5):
                assert siphons_and_traps(model, k) == oracle_siphons_traps(model, k)

    def test_results_are_minimal(self):
        siphons, traps = siphons_and_traps(build_traffic_model(), max_size=4)
        for group in (siphons, traps):
            for s in group:
                assert not any(set(o) < set(s) for o in group)

    def test_declaration_order_is_irrelevant(self):
        rng = random.Random(5)
        models = [b() for b in FIXTURES.values()] + [wide_net(rng) for _ in range(20)]
        for model in models:
            want = siphons_and_traps(model, 5)
            for _ in range(3):
                assert siphons_and_traps(shuffled(model, rng), 5) == want

    def test_arcs_that_change_nothing_still_count(self):
        assert siphons_and_traps(SELF_LOOPS) == ([("p",), ("q",), ("r",)], [("p",), ("q",), ("r",)])

    def test_fixtures_at_size_six(self):
        got = {name: siphons_and_traps(build(), 6) for name, build in FIXTURES.items()}
        assert got == {
            "traffic": ([("p1",), ("p2", "p3", "p5")],
                        [("p2", "p5", "p6"), ("p2", "p3", "p4", "p5")]),
            "risk_scoring": ([("p1", "p3"), ("p2", "p3", "p4", "p5"), ("p2", "p3", "p5", "p6")],
                             [("p2", "p6"), ("p2", "p3", "p4", "p5")]),
            "srs_symbolic": ([("pA",), ("p_permit",), ("p_policy",)],
                             [("p_bad",), ("p_dash",), ("p_flag",)]),
        }

    def test_siphon_reached_only_through_a_later_input_place(self):
        # {c, d} is the one siphon; the producers of c and d each also take
        # from a place (a, b) that a source transition refills
        m = net_of("place a", "place b", "place c", "place d",
                "trans t in a:1 d:1 out c:1", "trans u in b:1 c:1 out d:1",
                "trans v out a:1", "trans w out b:1")
        assert siphons_and_traps(m)[0] == [("c", "d")]
        assert siphons_and_traps(m, 1)[0] == []

    def test_a_read_arc_can_be_the_only_way_to_mend_a_siphon(self):
        m = net_of("place a", "place b", "trans t read a:1 out b:1", "trans u in b:1 out a:1")
        assert siphons_and_traps(m) == ([("a", "b")], [("a",)])

    def test_trap_mended_through_one_output_of_two(self):
        # x drains a, so no trap holds a; {b, d} is the one trap
        m = net_of("place a", "place b", "place d",
                "trans t in b:1 out a:1 d:1", "trans u in d:1 out a:1 b:1", "trans x in a:1")
        assert siphons_and_traps(m)[1] == [("b", "d")]

    def test_size_zero_and_one(self):
        m = net_of("place p init 1", "place q", "trans t in p:1 out q:1")
        assert siphons_and_traps(m, 0) == ([], [])
        assert siphons_and_traps(m, 1) == ([("p",)], [("q",)])

    def test_a_long_pipeline_is_searched_only_along_its_arcs(self):
        n = 200
        m = net_of(*(f"place p{i:03d}" for i in range(n)),
                *(f"trans t{i:03d} in p{i:03d}:1 out p{i + 1:03d}:1" for i in range(n - 1)))
        start = time.perf_counter()
        assert siphons_and_traps(m) == ([("p000",)], [(f"p{n - 1:03d}",)])
        assert time.perf_counter() - start < 1.0

    def test_a_negative_size_is_refused_by_name(self):
        with pytest.raises(ValueError, match="max_size"):
            siphons_and_traps(build_traffic_model(), -1)

    def test_a_float_size_is_refused_by_name(self):
        with pytest.raises(TypeError, match="max_size"):
            siphons_and_traps(build_traffic_model(), 2.5)

    def test_a_bool_size_is_refused_by_name(self):
        with pytest.raises(TypeError, match="max_size"):
            siphons_and_traps(build_traffic_model(), True)


class TestPressure:
    def test_chain_pressures(self):
        m = chain_net()
        g = explore(m)
        pred = m.forbidden_predicate("leak")
        dist = pressure_map(g, pred)
        trace = violation_trace(g, pred)
        assert [dist[mk] for mk in trace.markings] == [2, 1, 0]

    def test_unreachable_predicate_gives_none(self):
        m = chain_net()
        g = explore(m)
        p = reachability_pressure(g, g.root, TokenAtom("p2", ">=", 5))
        assert p.distance is None
        assert not p.truncated

    def test_a_marking_over_other_places_has_no_position(self):
        """Membership and the token game accept the same markings: one over
        other places or counters is no node, and fire, is_enabled and
        enabled_set raise UnknownReference naming what differs."""
        model = chain_net()
        g = explore(model)
        dist = pressure_map(g, model.forbidden_predicate("leak"))
        others = {"place 'p2'": Marking.make({"p0": 1, "p1": 0}),
                  "place 'x'": Marking.make({"p0": 1, "p1": 0, "p2": 0, "x": 0}),
                  "counter 't1'": Marking.make({"p0": 1, "p1": 0, "p2": 0}, {"t1": 0})}
        for m in (*others.values(), Marking.make({"p0": 9, "p1": 0, "p2": 0})):
            assert g.position(m) is None
            assert m not in g
            with pytest.raises(KeyError):
                dist[m]
            assert m not in dist and dist.get(m) is None
        assert "p0" not in dist
        assert g.position(g.root) == 0
        assert enabled_set(model, Marking.make({"p0": 9, "p1": 0, "p2": 0})) == ["t1"]
        srs = build_srs_symbolic_model()
        assert srs.initial.counters == (("t2", 0),) and srs.initial in explore(srs)
        cases = [(model, m, what) for what, m in others.items()]
        cases += [(srs, Marking(srs.initial.tokens), "counter 't2'"),
                  (srs, Marking(srs.initial.tokens + (("zz", 0),), srs.initial.counters), "place 'zz'")]
        for net, m, what in cases:
            assert m not in explore(net)
            t = net.transition_ids[0]
            for call in (lambda: fire(net, m, t), lambda: is_enabled(net, m, t), lambda: enabled_set(net, m)):
                with pytest.raises(UnknownReference, match=f"^unknown {what}$"):
                    call()

    def test_a_value_that_is_not_a_marking_is_not_a_node(self):
        model = chain_net()
        g = explore(model)
        pred = model.forbidden_predicate("leak")
        dist = pressure_map(g, pred)
        for key in ("x", None, 0, [], g.states[0]):
            assert g.position(key) is None
            assert key not in g and key not in g.depth and key not in dist
            assert g.depth.get(key) is None and dist.get(key) is None
            with pytest.raises(NodeNotInGraph):
                reachability_pressure(g, key, pred)

    def test_root_builds_one_marking(self):
        model = build_traffic_model()
        g = explore(model)
        assert g.root == model.initial
        assert "nodes" not in g.__dict__
        assert g.root == g.nodes[0]

    def test_map_equals_the_distances_by_position(self):
        """The pressure view reads as the node -> distance dict, in discovery
        order, under a bound that explores everything and one that cuts."""
        rng = random.Random(1919)
        cases = [(m, pred) for m in [b() for b in FIXTURES.values()] + [chain_net()]
                 + [toggles_net(n) for n in range(3, 8)] for _, pred in m.forbidden]
        for _ in range(120):
            model = random_net(rng)
            cases.append((model, random_predicate(rng, model)))
        cut = ExplorationBound(max_states=40, max_depth=6, max_tokens_per_place=3)
        truncated = set()
        for model, pred in cases:
            for bound in (WIDE, cut):
                g = explore(model, bound)
                want = dict(zip(g.nodes, node_distances(g, pred)))
                dist = pressure_map(g, pred)
                assert dict(dist) == want and dist == want and dict(dist.items()) == want
                assert list(dist) == g.nodes and len(dist) == len(g.nodes)
                assert all(m in dist and dist.get(m) == d for m, d in want.items())
                truncated.add(g.truncated)
        assert truncated == {False, True}

    def test_node_not_in_graph(self):
        g = explore(chain_net())
        with pytest.raises(NodeNotInGraph):
            reachability_pressure(g, Marking.make({"p0": 9, "p1": 0, "p2": 0}),
                                  TokenAtom("p2", ">=", 1))

    def test_pressure_decreases_along_shortest_trace(self):
        m = build_traffic_model()
        g = explore(m)
        pred = m.forbidden_predicate("gridlock")
        trace = violation_trace(g, pred)
        dist = pressure_map(g, pred)
        series = [dist[mk] for mk in trace.markings]
        assert series == list(range(len(series) - 1, -1, -1))


@pytest.mark.parametrize("call, bad", [
    (lambda: explore(chain_net(), None), None),
    (lambda: check_forbidden(chain_net(), "leak", "x"), "x"),
    (lambda: karp_miller(chain_net(), TokenAtom("p2", ">=", 1), bound="x"), "x"),
    (lambda: check_all_forbidden(replace(chain_net(), forbidden=()), 5), 5),
    (lambda: simulate(chain_net(), UniformRandom(1), 2, bound=5), 5),
    (lambda: evaluate_audit_rules(chain_net(), simulate(chain_net(), UniformRandom(1), 2), {}), {}),
], ids=["explore", "check_forbidden", "karp_miller", "check_all_forbidden-no-predicates",
        "simulate-no-pressure-rule", "evaluate_audit_rules-no-pressure-rule"])
def test_a_bound_that_is_not_an_exploration_bound_is_a_type_error(call, bad):
    with pytest.raises(TypeError, match=rf"^bound must be an ExplorationBound, got {re.escape(repr(bad))}$"):
        call()
