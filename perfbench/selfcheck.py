"""Re-derive the benchmark's known answers with the brute-force oracles.

    python3 perfbench/selfcheck.py

Checks, on small instances, that the closed forms and constants in gen.py
agree with tests/oracles.py (which never calls the library's token game):
state and edge counts, shortest trace lengths, safe predicates, the
coverability oracle in oracle.py, and the governance session's verdicts.
It also reproduces chain(10,8): 24,310 states and 102,960 edges. It is not
part of a timed run; run it after changing a generator.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import respetri as r  # noqa: E402
from oracles import _eval, oracle_explore, oracle_verdict  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402

CAP = 64


def need(cond, *what):
    if not cond:
        raise SystemExit(f"MISMATCH {what}")


def shortest(model, pred, nodes, edges):
    """BFS distance from the initial marking to a node satisfying pred, or None."""
    succ = {}
    for a, _t, b in edges:
        succ.setdefault(a, []).append(b)
    counters = {t.id: 0 for t in model.transitions if t.counted}
    root = (tuple(sorted(model.initial.tokens_map.items())), tuple(sorted(counters.items())))
    need(root in nodes, "root")
    dist = {root: 0}
    queue = deque([root])
    while queue:
        k = queue.popleft()
        if _eval(pred, dict(k[0]), dict(k[1])):
            return dist[k]
        for k2 in succ.get(k, ()):
            if k2 not in dist:
                dist[k2] = dist[k] + 1
                queue.append(k2)
    return None


def check_case(case: gen.NetCase):
    model = r.parse_model(case.text)
    nodes, edges, truncated = oracle_explore(model, CAP)
    need(not truncated, case.name)
    need((len(nodes), len(edges)) == (case.states, case.edges),
         case.name, len(nodes), len(edges), case.states, case.edges)
    for name, exp in case.expected.items():
        d = shortest(model, model.forbidden_predicate(name), nodes, edges)
        if exp.kind == "safe":
            need(d is None, case.name, name, d)
        else:
            need(d is not None and exp.trace_len in (None, d), case.name, name, d, exp.trace_len)
    print(f"ok {case.name}: {case.states} states, {case.edges} edges")


def main():
    rng = random.Random(0)
    for n, k in ((3, 2), (4, 3), (5, 4), (6, 4), (6, 6)):
        check_case(gen.chain(n, k, rng))
    for n in range(3, 9):
        case = gen.toggles(n, rng)
        check_case(case)
        km = r.karp_miller(r.parse_model(case.text),
                           r.parse_model(case.text).forbidden_predicate("overflow"))
        need(len(km.tree_nodes) == case.tree_nodes, case.name, len(km.tree_nodes))
    for name in gen.FIXTURES:
        check_case(gen.fixture(name, rng))

    big = gen.chain(10, 8, rng)
    graph = r.explore(r.parse_model(big.text))
    need((len(graph.nodes), len(graph.edges)) == (24_310, 102_960) == (big.states, big.edges),
         big.name, len(graph.nodes), len(graph.edges))
    print("ok chain(10,8): 24310 states, 102960 edges")

    decided = 0
    for i in range(300):
        net = gen.random_plain(random.Random(i), rng, f"x{i}")
        model = r.parse_model(net.text)
        verdict = oracle_verdict(model, model.forbidden_predicate("goal"), 12)
        if verdict != "unknown":
            decided += 1
            need(oracle.coverable(net) == (verdict == "unsafe"), net.text, verdict)
    print(f"ok coverability oracle agrees on {decided} decided random nets")

    text, pre = gen.session_net(rng, "selfcheck")
    model = r.parse_model(text)
    for n, (ptext, strict, _regress) in enumerate([(None, False, False)]
                                                  + gen.session_patches(rng, pre)):
        if ptext is not None:
            model = r.apply_patch(model, r.parse_patch(ptext))
        for pred, want in (("jam", "safe" if strict else "unsafe"), ("leak", "safe"),
                           ("early", "unsafe")):
            got = oracle_verdict(model, model.forbidden_predicate(pred), CAP)
            need(got == want, n, pred, got, want)
    print("ok governance session verdicts")


if __name__ == "__main__":
    main()
