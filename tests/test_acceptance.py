"""The eight acceptance criteria, one test (and one printed verdict line) each.

Verdict lines are collected here and printed by the pytest_terminal_summary
hook in conftest.py, which writes past pytest's output capture.
"""

import functools
import random

from respetri import (
    ExplorationBound,
    NetModel,
    Patch,
    SetCapacity,
    UniformRandom,
    VerdictKind,
    apply_patch,
    check_forbidden,
    explore,
    eval_predicate,
    find_cycles,
    fire,
    initial_marking,
    karp_miller,
    model_hash,
    parse_model,
    parse_patch,
    pressure_map,
    record_decision,
    replay_log,
    run_record_to_jsonl,
    serialize_model,
    simulate,
    structurally_equal,
    verify_patch,
    violation_trace,
    GovernanceLog,
    PlaceDef,
    Scripted,
    TokenAtom,
    TransitionDef,
    Marking,
)
from respetri.models import (
    FIXTURES,
    FixtureConfig,
    build_risk_scoring_model,
    build_srs_symbolic_model,
    build_traffic_model,
)

from oracles import (
    marking_key,
    oracle_explore,
    oracle_verdict,
    random_net,
    random_predicate,
)

CAP = 5
BOUND = ExplorationBound(max_states=10**6, max_depth=10**5, max_tokens_per_place=CAP)


RESULTS = []


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((number, "FAIL", description))
                raise
            RESULTS.append((number, "PASS", description))
        return wrapper
    return decorate


def bounded_random_nets(rng, count, *, plain=False):
    """Random nets whose cap-cut enumeration is exhaustive (not truncated)."""
    kept = []
    while len(kept) < count:
        model = random_net(rng, plain=plain)
        nodes, edges, truncated = oracle_explore(model, CAP)
        if not truncated:
            kept.append((model, nodes, edges))
    return kept


@criterion(1, "explore and check_forbidden agree exactly with the brute-force "
              "oracle on 500 random nets, 3 predicates each")
def test_1_semantics_oracle_equivalence():
    rng = random.Random(20260826)
    for model, nodes_o, edges_o in bounded_random_nets(rng, 500):
        g = explore(model, BOUND)
        assert {marking_key(m) for m in g.nodes} == nodes_o
        assert {(marking_key(a), t, marking_key(b)) for a, t, b in g.edges} == edges_o
        assert not g.truncated
        for _ in range(3):
            pred = random_predicate(rng, model)
            named = NetModel(model.places, model.transitions, model.initial,
                             forbidden=(("f", pred),))
            verdict = check_forbidden(named, "f", BOUND)
            assert verdict.kind.value == oracle_verdict(model, pred, CAP)
            if verdict.trace is not None:
                mk = initial_marking(named)
                for t in verdict.trace.firings:
                    mk = fire(named, mk, t)
                assert eval_predicate(pred, mk)


@criterion(2, "traffic fixture is Unsafe with a replayable gridlock trace and "
              "Safe/ExhaustiveBounded once safeguarded")
def test_2_def1_invariant_both_directions():
    unsafe = build_traffic_model()
    v = check_forbidden(unsafe, "gridlock")
    assert v.kind is VerdictKind.UNSAFE
    mk = initial_marking(unsafe)
    for t in v.trace.firings:
        mk = fire(unsafe, mk, t)
    assert mk.tokens_map["p1"] >= 2      # M(p1) >= q
    assert mk.tokens_map["p3"] >= 2      # M(p3) >= r
    assert mk.tokens_map["p4"] <= 0      # M(p4) <= e
    safe = build_traffic_model(FixtureConfig(safeguards_enabled=True))
    v = check_forbidden(safe, "gridlock")
    assert v.kind is VerdictKind.SAFE
    assert v.proof.value == "exhaustive-bounded"


@criterion(3, "Karp-Miller agrees with exhaustive verdicts on 200 bounded "
              "plain nets and accelerates a source net to Unsafe")
def test_3_coverability_agreement():
    rng = random.Random(31337)
    checked = 0
    while checked < 200:
        model = random_net(rng, plain=True)
        pred = random_predicate(rng, model, upward_closed=True)
        expected = oracle_verdict(model, pred, CAP)
        if expected == "unknown":
            continue  # not bounded within the cap
        cov = karp_miller(model, pred)
        assert cov.verdict.kind.value == expected
        checked += 1
    source = NetModel(places=(PlaceDef("p"),),
                      transitions=(TransitionDef("t", outputs=(("p", 1),)),),
                      initial=Marking.make({"p": 0}))
    cov = karp_miller(source, TokenAtom("p", ">=", 10))
    assert cov.verdict.kind is VerdictKind.UNSAFE
    assert any(float("inf") in node for node in cov.tree_nodes)


@criterion(4, "both feedback fixtures are 6-place/6-transition and contain "
              "the cycle (p2, t2, p3, t4, p4, t6)")
def test_4_paper_structure_checks():
    for build in (build_traffic_model, build_risk_scoring_model):
        model = build()
        assert len(model.places) == 6
        assert len(model.transitions) == 6
        assert ("p2", "t2", "p3", "t4", "p4", "t6") in find_cycles(model)


@criterion(5, "counter alarm first fires at the third t2 firing (theta=2) and "
              "pressure falls by exactly 1 per step to 0 along a shortest trace")
def test_5_auditing_and_pressure():
    cfg = FixtureConfig(thresholds={"theta": 2},
                        initial_tokens={"pA": 2, "p_permit": 3})
    model = build_srs_symbolic_model(cfg)
    script = ("tA", "t2", "tA", "t2", "tPol", "t2")
    run = simulate(model, Scripted(script), len(script))
    third_t2_step = [i + 1 for i, t in enumerate(script) if t == "t2"][2]
    alarms = [a.step for a in run.alarms if a.rule_id == "counter_alarm"]
    assert alarms[0] == third_t2_step

    default = build_srs_symbolic_model()
    graph = explore(default)
    pred = default.forbidden_predicate("bad_state")
    trace = violation_trace(graph, pred)
    dist = pressure_map(graph, pred)
    series = [dist[m] for m in trace.markings]
    assert series == list(range(len(trace.firings), -1, -1))
    assert series[-1] == 0


@criterion(6, "nodes-within-depth-d is monotone in d for every explored graph")
def test_6_monotone_prefix_law():
    rng = random.Random(606)
    models = [build() for build in FIXTURES.values()]
    models += [random_net(rng) for _ in range(30)]
    for model in models:
        g = explore(model, BOUND)
        max_d = max(g.depth.values())
        for d in range(max_d + 1):
            assert g.nodes_within_depth(d) <= g.nodes_within_depth(d + 1)


@criterion(7, "parse/serialize round-trips 500 models and the fixtures; seeds "
              "and worker counts never change any output")
def test_7_round_trip_and_determinism():
    rng = random.Random(707)
    for _ in range(500):
        model = random_net(rng)
        text = serialize_model(model).text
        again = parse_model(text)
        assert structurally_equal(model, again)
        assert serialize_model(again).text == text
    for build in FIXTURES.values():
        model = build()
        text = serialize_model(model).text
        assert structurally_equal(model, parse_model(text))
        assert serialize_model(parse_model(text)).text == text

    traffic = build_traffic_model()
    a = simulate(traffic, UniformRandom(99), 40)
    b = simulate(traffic, UniformRandom(99), 40)
    assert a == b
    assert run_record_to_jsonl(a) == run_record_to_jsonl(b)

    g1 = explore(traffic, workers=1)
    g4 = explore(build_traffic_model(), workers=4)   # another model object explores again
    assert g1.nodes == g4.nodes
    assert g1.edges == g4.edges
    assert g1.depth == g4.depth
    assert g1.truncated == g4.truncated


@criterion(8, "replaying the logged patch sequence reproduces the final model "
              "hash and the safeguard patch flips Unsafe to Safe")
def test_8_governance_chain():
    genesis = build_traffic_model()
    safeguard = parse_patch(
        "add arc inhibit p3 t4 2\nset guard t6 p4 >= 2\n")
    patches = [Patch((SetCapacity("p5", 1),)), safeguard]

    log = GovernanceLog()
    model = genesis
    for patch in patches:
        report = verify_patch(model, patch)
        post = apply_patch(model, patch)
        log = record_decision(log, model, post, patch, report)
        model = post
    assert log.verify_chain()
    assert model_hash(replay_log(genesis, patches)) == log.entries[-1].post_hash

    report = verify_patch(genesis, safeguard)
    assert dict(report.verdicts_before)["gridlock"].kind is VerdictKind.UNSAFE
    assert dict(report.verdicts_after)["gridlock"].kind is VerdictKind.SAFE
