"""Independent reference implementations used to cross-check the library.

Everything here re-derives the semantics from the data structures alone and
deliberately avoids calling the library's enabling/firing/exploration code,
so agreement between the two is meaningful evidence. The library's policy
and error types are data here: `oracle_simulate` reads a policy's fields and
raises the library's ScriptedFiringDisabled.
"""

from __future__ import annotations

import math
import operator
import random
from collections import deque
from itertools import combinations

from respetri.audit import Priority, Scripted
from respetri.errors import ScriptedFiringDisabled
from respetri.net import (
    And,
    CounterAtom,
    Marking,
    ModeAtom,
    ModeDef,
    NetModel,
    Not,
    Or,
    PlaceDef,
    TokenAtom,
    TransitionDef,
)

MODE_PREFIX = "mode_"


# ---------------------------------------------------------------------------
# Reference semantics (state = (tokens dict, counters dict))
# ---------------------------------------------------------------------------

def _eval(pred, tokens, counters):
    if isinstance(pred, TokenAtom):
        lhs = tokens[pred.place]
    elif isinstance(pred, CounterAtom):
        lhs = counters.get(pred.transition, 0)
    elif isinstance(pred, ModeAtom):
        return tokens[MODE_PREFIX + pred.mode] >= 1
    elif isinstance(pred, Not):
        return not _eval(pred.operand, tokens, counters)
    elif isinstance(pred, And):
        return all(_eval(p, tokens, counters) for p in pred.operands)
    elif isinstance(pred, Or):
        return any(_eval(p, tokens, counters) for p in pred.operands)
    else:
        raise TypeError(pred)
    return {"<": lhs < pred.value, "<=": lhs <= pred.value, "=": lhs == pred.value,
            ">=": lhs >= pred.value, ">": lhs > pred.value}[pred.op]


def _active_mode(model: NetModel, tokens):
    if not model.modes:
        return None
    marked = [md for md in model.modes if tokens[MODE_PREFIX + md.id] >= 1]
    assert len(marked) == 1
    return marked[0]


def oracle_enabled(model: NetModel, tokens, counters, t: TransitionDef) -> bool:
    for p, w in t.inputs:
        if tokens[p] < w:
            return False
    for p, w in t.reads:
        if tokens[p] < w:
            return False
    for p, th in t.inhibitors:
        if tokens[p] >= th:
            return False
    mode = _active_mode(model, tokens)
    if mode is not None and t.id in mode.disabled:
        return False
    guard = t.guard
    if mode is not None:
        for tid, g in mode.guard_overrides:
            if tid == t.id:
                guard = g
    if guard is not None and not _eval(guard, tokens, counters):
        return False
    after = dict(tokens)
    for p, w in t.inputs:
        after[p] -= w
    for p, w in t.outputs:
        after[p] += w
    for place in model.places:
        if place.capacity is not None and after[place.id] > place.capacity:
            return False
    return True


def oracle_fire(tokens, counters, t: TransitionDef):
    tokens = dict(tokens)
    for p, w in t.inputs:
        tokens[p] -= w
    for p, w in t.outputs:
        tokens[p] += w
    counters = dict(counters)
    if t.counted:
        counters[t.id] = counters.get(t.id, 0) + 1
    return tokens, counters


def _key(tokens, counters):
    return (tuple(sorted(tokens.items())), tuple(sorted(counters.items())))


def oracle_explore(model: NetModel, token_cap: int):
    """Full enumeration of the cap-cut reachable set.

    Returns (nodes, edges, truncated) where nodes/edges use
    (sorted-token-tuple, sorted-counter-tuple) keys. A successor pushing any
    uncapacitated place above token_cap is discarded and sets truncated.
    """
    tokens0 = dict(model.initial.tokens_map)
    counters0 = {t.id: model.initial.counters_map.get(t.id, 0)
                 for t in model.transitions if t.counted}
    root = _key(tokens0, counters0)
    nodes = {root}
    edges = set()
    truncated = False
    stack = [(tokens0, counters0)]
    while stack:
        tokens, counters = stack.pop()
        k = _key(tokens, counters)
        for t in model.transitions:
            if not oracle_enabled(model, tokens, counters, t):
                continue
            t2, c2 = oracle_fire(tokens, counters, t)
            if any(t2[p.id] > token_cap for p in model.places if p.capacity is None):
                truncated = True
                continue
            k2 = _key(t2, c2)
            edges.add((k, t.id, k2))
            if k2 not in nodes:
                nodes.add(k2)
                stack.append((t2, c2))
    return nodes, edges, truncated


def oracle_verdict(model: NetModel, pred, token_cap: int) -> str:
    """'unsafe' | 'safe' | 'unknown' over the cap-cut enumeration."""
    nodes, _edges, truncated = oracle_explore(model, token_cap)
    for tok, cnt in nodes:
        if _eval(pred, dict(tok), dict(cnt)):
            return "unsafe"
    return "unknown" if truncated else "safe"


def oracle_bfs(model: NetModel, max_states: int, max_depth: int, token_cap: int):
    """Breadth-first exploration under the reference semantics and explore's bounds.

    Returns (nodes, edges, depth, truncated): nodes in discovery order and
    edges in generation order, both keyed as by _key; depth maps each node
    to its BFS layer. A successor over token_cap on an uncapacitated place
    is cut, a new node beyond max_states is dropped, and layers at
    max_depth are not expanded; each sets truncated when it loses a firing.
    """
    tokens0 = dict(model.initial.tokens_map)
    counters0 = {t.id: model.initial.counters_map.get(t.id, 0)
                 for t in model.transitions if t.counted}
    root = _key(tokens0, counters0)
    nodes, edges, depth = [root], [], {root: 0}
    truncated = False
    frontier = [(tokens0, counters0)]
    d = 0
    while frontier:
        if d >= max_depth:
            truncated = truncated or any(oracle_enabled(model, tok, cnt, t)
                                         for tok, cnt in frontier for t in model.transitions)
            break
        next_frontier = []
        for tokens, counters in frontier:
            k = _key(tokens, counters)
            for t in model.transitions:
                if not oracle_enabled(model, tokens, counters, t):
                    continue
                t2, c2 = oracle_fire(tokens, counters, t)
                if any(t2[p.id] > token_cap for p in model.places if p.capacity is None):
                    truncated = True
                    continue
                k2 = _key(t2, c2)
                if k2 not in depth:
                    if len(nodes) >= max_states:
                        truncated = True
                        continue
                    depth[k2] = d + 1
                    nodes.append(k2)
                    next_frontier.append((t2, c2))
                edges.append((k, t.id, k2))
        frontier = next_frontier
        d += 1
    return nodes, edges, depth, truncated


def reference_explore(model: NetModel, max_states: int, max_depth: int, token_cap: int):
    """The breadth-first loop that `explore` ran before its layers were
    generated, over `oracle_enabled`/`oracle_fire`: a reference for the
    generated layer, by the same positions. A state is a vector, the tokens
    of each place in declaration order, then the counter of each counted
    transition. Returns (truncated, states, index, state_edges,
    discovered_by) as `explore` holds them."""
    places = model.place_ids
    counted = [t.id for t in model.transitions if t.counted]
    unbounded = [p.id for p in model.places if p.capacity is None]
    root = tuple(model.initial.tokens_map[p] for p in places) + tuple(model.initial.counters_map[t] for t in counted)
    states, index, discovered_by, state_edges = [root], {root: 0}, [-1], []
    truncated = False

    def successors(v):
        tokens, counters = dict(zip(places, v)), dict(zip(counted, v[len(places):]))
        out = []
        for i, t in enumerate(model.transitions):
            if oracle_enabled(model, tokens, counters, t):
                t2, c2 = oracle_fire(tokens, counters, t)
                s = tuple(t2[p] for p in places) + tuple(c2[c] for c in counted)
                out.append((i, None if any(t2[p] > token_cap for p in unbounded) else s))
        return out
    frontier = [0]
    d = 0
    while frontier:
        if d >= max_depth:
            truncated = truncated or any(successors(states[a]) for a in frontier)
            break
        next_frontier = []
        for a in frontier:
            for t, s in successors(states[a]):
                if s is None:
                    truncated = True
                    continue
                b = index.get(s)
                if b is None:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    b = index[s] = len(states)
                    states.append(s)
                    discovered_by.append(len(state_edges))
                    next_frontier.append(b)
                state_edges.append((a, t, b))
        frontier = next_frontier
        d += 1
    return truncated, states, index, state_edges, discovered_by


def oracle_simulate(model: NetModel, policy, steps: int):
    """The run `simulate` makes, under `oracle_enabled`/`oracle_fire`, with
    the same choices of a `random.Random` seeded by the policy: Scripted
    fires its firings in turn and raises ScriptedFiringDisabled at the first
    disabled one; Priority takes the first listed enabled transition, else a
    uniform choice; UniformRandom a uniform choice. Returns (firings, marking
    keys as by marking_key, deadlock_step, the key of each marking at which
    the enabled set was read, in order)."""
    transitions = {t.id: t for t in model.transitions}
    tokens, counters = dict(model.initial.tokens_map), dict(model.initial.counters_map)
    keys = [_key(tokens, counters)]
    firings, read, deadlock = [], [], None
    rng = random.Random(getattr(policy, "seed", 0))
    script = policy.firings if isinstance(policy, Scripted) else None
    for step in range(1, (steps if script is None else min(steps, len(script))) + 1):
        read.append(keys[-1])
        enabled = [t.id for t in model.transitions if oracle_enabled(model, tokens, counters, t)]
        if script is not None:
            tid = script[step - 1]
            if tid not in enabled:
                raise ScriptedFiringDisabled(step, tid)
        elif not enabled:
            deadlock = step - 1
            break
        else:
            listed = [t for t in policy.order if t in enabled] if isinstance(policy, Priority) else []
            tid = listed[0] if listed else rng.choice(enabled)
        tokens, counters = oracle_fire(tokens, counters, transitions[tid])
        firings.append(tid)
        keys.append(_key(tokens, counters))
    return tuple(firings), keys, deadlock, read


def oracle_trace(nodes, edges, pred):
    """Shortest trace to a node satisfying pred: a BFS from the root over
    edges in generation order, stopping at the first satisfying node.
    Returns (firings, node keys) or None."""
    succ = {k: [] for k in nodes}
    for a, t, b in edges:
        succ[a].append((t, b))
    root = nodes[0]
    holds = lambda k: _eval(pred, dict(k[0]), dict(k[1]))  # noqa: E731
    parent = {}
    queue = [root]
    target = root if holds(root) else None
    seen = {root}
    while queue and target is None:
        k = queue.pop(0)
        for t, k2 in succ[k]:
            if k2 in seen:
                continue
            seen.add(k2)
            parent[k2] = (k, t)
            if holds(k2):
                target = k2
                break
            queue.append(k2)
    if target is None:
        return None
    firings, path = [], [target]
    while path[-1] in parent:
        k, t = parent[path[-1]]
        firings.append(t)
        path.append(k)
    return tuple(reversed(firings)), list(reversed(path))


def oracle_karp_miller(model: NetModel, target):
    """The classical Karp-Miller loop, one ancestor and one place at a time.

    A differential reference for `respetri.analysis.karp_miller`, derived
    from the model alone: each transition needs its input and read weights
    and changes tokens by its outputs less its inputs, in declaration order,
    over the plain projection (no inhibitors, guards, capacities, counters
    or modes). It walks the parent chain per child, lifting in place until
    a whole pass lifts nothing, then scans every tree node for the first one
    at which `_eval` finds the target, with omega as infinity. Returns
    (tree_nodes, tree_edges, covering_path).
    """
    places = model.place_ids
    n = len(places)
    rows = []
    for t in model.transitions:
        needs, delta = [0] * n, [0] * n
        for p, w in t.inputs + t.reads:
            needs[places.index(p)] = max(needs[places.index(p)], w)
        for p, w in t.inputs:
            delta[places.index(p)] -= w
        for p, w in t.outputs:
            delta[places.index(p)] += w
        rows.append((t.id, needs, delta))
    root = tuple(model.initial.tokens_map[p] for p in places)

    tree_nodes = [root]
    tree_edges = []
    parents = [-1]
    seen = {root: 0}
    worklist = deque([0])
    le = operator.le

    while worklist:
        node = worklist.popleft()
        m = tree_nodes[node]
        for tid, needs, delta in rows:
            if any(x < w for x, w in zip(m, needs)):
                continue
            m2 = [x + d for x, d in zip(m, delta)]
            changed = True
            while changed:
                changed = False
                anc = node
                while anc >= 0:
                    am = tree_nodes[anc]
                    if all(map(le, am, m2)):
                        for i in range(n):
                            if am[i] < m2[i] != math.inf:
                                m2[i] = math.inf
                                changed = True
                    anc = parents[anc]
            m2 = tuple(m2)
            child = len(tree_nodes)
            tree_nodes.append(m2)
            tree_edges.append((node, tid, child))
            parents.append(node)
            if m2 not in seen:
                seen[m2] = child
                worklist.append(child)

    covering = next((i for i, m in enumerate(tree_nodes)
                     if _eval(target, dict(zip(places, m)), {})), None)
    if covering is None:
        return tree_nodes, tree_edges, None
    path = []
    i = covering
    while i > 0:
        path.append(tree_edges[i - 1][1])
        i = parents[i]
    return tree_nodes, tree_edges, tuple(reversed(path))


def marking_key(m: Marking):
    return (m.tokens, m.counters)


# ---------------------------------------------------------------------------
# Structural oracles
# ---------------------------------------------------------------------------

def oracle_siphons_traps(model: NetModel, max_size: int):
    """All minimal siphons/traps up to max_size by direct subset testing."""
    places = sorted(p.id for p in model.places)

    def producers(s):
        return {t.id for t in model.transitions if any(p in s for p, _ in t.outputs)}

    def consumers(s):
        return {t.id for t in model.transitions if any(p in s for p, _ in t.inputs)}

    def requirers(s):
        return consumers(s) | {
            t.id for t in model.transitions if any(p in s for p, _ in t.reads)
        }

    def collect(hit):
        found = []
        for size in range(1, max_size + 1):
            for combo in combinations(places, size):
                s = set(combo)
                if any(set(f) <= s for f in found):
                    continue
                if hit(s):
                    found.append(tuple(sorted(s)))
        return sorted(found, key=lambda c: (len(c), c))

    siphons = collect(lambda s: producers(s) <= requirers(s))
    traps = collect(lambda s: consumers(s) <= producers(s))
    return siphons, traps


def oracle_cycles(model: NetModel, max_length):
    """All elementary cycles of the bipartite net graph of at most max_length
    nodes (None for no cap), by brute force: from each node, a depth-first
    search over the nodes with larger ids that closes a path back to it.
    Each cycle thus starts at its smallest id, so it is canonically rotated."""
    succ = {n: set() for n in model.place_ids + model.transition_ids}
    for t in model.transitions:
        for p, _ in t.inputs + t.reads:
            succ[p].add(t.id)
        for p, _ in t.outputs:
            succ[t.id].add(p)
    cap = math.inf if max_length is None else max_length
    found = []

    def extend(path):
        for n in succ[path[-1]]:
            if n == path[0] and len(path) <= cap:
                found.append(tuple(path))
            elif n > path[0] and n not in path and len(path) < cap:
                extend(path + [n])

    for start in succ:
        extend([start])
    return sorted(found, key=lambda c: (len(c), c))


# ---------------------------------------------------------------------------
# Random model generator
# ---------------------------------------------------------------------------

def random_net(rng: random.Random, *, plain: bool = False) -> NetModel:
    """Small random net (<= 5 places, <= 5 transitions, <= 3 initial tokens).

    With plain=True only inputs/outputs/reads with weights are generated
    (no inhibitors, guards, capacities, or counters) — the class on which
    the coverability projection is exact.
    """
    n_places = rng.randint(1, 5)
    n_trans = rng.randint(1, 5)
    pids = [f"P{i}" for i in range(n_places)]
    places = []
    for pid in pids:
        cap = rng.choice([None, None, None, rng.randint(1, 4)]) if not plain else None
        places.append(PlaceDef(pid, capacity=cap))
    caps = {p.id: p.capacity for p in places}
    init = {p: rng.randint(0, 3) for p in pids}
    for p in pids:
        if caps[p] is not None:
            init[p] = min(init[p], caps[p])

    transitions = []
    for i in range(n_trans):
        inputs = tuple((p, rng.randint(1, 2))
                       for p in rng.sample(pids, rng.randint(0, min(2, n_places))))
        outputs = tuple((p, rng.randint(1, 2))
                        for p in rng.sample(pids, rng.randint(0, min(2, n_places))))
        reads = ()
        inhibitors = ()
        guard = None
        if rng.random() < 0.3:
            reads = ((rng.choice(pids), rng.randint(1, 2)),)
        if not plain:
            in_map = dict(inputs)
            if rng.random() < 0.3:
                p = rng.choice(pids)
                # keep satisfiable when p is also an input
                th = rng.randint(in_map.get(p, 0) + 1, in_map.get(p, 0) + 3)
                inhibitors = ((p, th),)
            if rng.random() < 0.2:
                guard = TokenAtom(rng.choice(pids), rng.choice(["<", "<=", ">=", ">"]),
                                  rng.randint(0, 3))
        # Counted transitions are excluded: a counter on a loop makes the
        # marking space infinite under a pure token cap, so exhaustive
        # enumeration would never finish. Counters are covered by the
        # fixture and unit tests instead.
        transitions.append(TransitionDef(f"T{i}", inputs, outputs, inhibitors,
                                         reads, guard, False))

    return NetModel(places=tuple(places), transitions=tuple(transitions),
                    initial=Marking.make(init))


def moded_net(rng: random.Random) -> NetModel:
    """A `random_net` with three modes a, b and c in a switch ring (a to b to
    c to a), a random initial mode, and per mode a random set of disabled
    transitions and random guard overrides on the net's transitions."""
    model = random_net(rng)
    names = ("a", "b", "c")
    switches = tuple(TransitionDef(f"to_{b}", inputs=((f"{MODE_PREFIX}{a}", 1),),
                                   outputs=((f"{MODE_PREFIX}{b}", 1),))
                     for a, b in zip(names, names[1:] + names[:1]))
    tids = [t.id for t in model.transitions]
    modes = tuple(ModeDef(name,
                          frozenset(t for t in tids if rng.random() < 0.2),
                          tuple((t, random_predicate(rng, model)) for t in tids if rng.random() < 0.4))
                  for name in names)
    first = rng.choice(names)
    return NetModel(
        places=model.places + tuple(PlaceDef(MODE_PREFIX + name) for name in names),
        transitions=model.transitions + switches,
        initial=Marking.make({**model.initial.tokens_map,
                              **{MODE_PREFIX + name: int(name == first) for name in names}}),
        modes=modes)


def random_predicate(rng: random.Random, model: NetModel, *,
                     upward_closed: bool = False):
    """1-3 random token atoms joined by a random connective."""
    ops = (">=", ">") if upward_closed else ("<", "<=", "=", ">=", ">")
    atoms = [
        TokenAtom(rng.choice(model.place_ids), rng.choice(ops), rng.randint(0, 4))
        for _ in range(rng.randint(1, 3))
    ]
    if len(atoms) == 1:
        return atoms[0]
    return rng.choice([And, Or])(tuple(atoms))


def nested_predicate(depth: int, place: str) -> str:
    """`place >= 1` inside `depth` levels of alternating `or` and `and`, in the text format."""
    pred = f"{place} >= 1"
    for i in range(depth):
        pred = f"({place} >= 1 {'and' if i % 2 else 'or'} {pred})"
    return pred
