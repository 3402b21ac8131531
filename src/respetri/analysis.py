"""Reachability and coverability engines with forbidden-marking verdicts.

Exploration is breadth-first in declaration order and deterministic: a
model declared in one order always gives the same node set, edge set and
verdicts, but a trace can depend on the order in which transitions are
declared (ROADMAP.md plans id order). The `workers` argument of `explore` is
ignored. Counterexamples are shortest traces, replayable through the token
game.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_right
from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Optional

import networkx as nx

from .errors import NodeNotInGraph, NotUpwardClosed, UnknownReference
from .net import (
    CompiledNet,
    CounterAtom,
    Marking,
    NetModel,
    Or,
    Predicate,
    TokenAtom,
    _is_int,
    compiled,
    is_upward_closed,
    predicate_atoms,
)


@dataclass(frozen=True)
class ExplorationBound:
    max_states: int = 1_000_000
    max_depth: int = 10_000
    max_tokens_per_place: int = 64

    def __post_init__(self):
        for f in fields(self):
            if not _is_int(v := getattr(self, f.name)):
                raise TypeError(f"ExplorationBound.{f.name} must be an int, got {v!r}")


DEFAULT_BOUND = ExplorationBound()


def _check_bound(bound: object) -> None:
    """TypeError unless bound is an ExplorationBound: the engines that take a
    bound call this before any work."""
    if not isinstance(bound, ExplorationBound):
        raise TypeError(f"bound must be an ExplorationBound, got {bound!r}")


class VerdictKind(str, Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"
    UNKNOWN = "unknown"


class ProofKind(str, Enum):
    EXHAUSTIVE_BOUNDED = "exhaustive-bounded"
    COVERABILITY = "coverability"
    VIOLATION_TRACE = "violation-trace"
    BOUND_EXHAUSTED = "bound-exhausted"


@dataclass(frozen=True)
class ViolationTrace:
    """A firing sequence from the initial marking to a violating marking."""

    firings: tuple[str, ...]
    markings: tuple[Marking, ...]

    def __post_init__(self):
        if len(self.markings) != len(self.firings) + 1:
            raise ValueError(f"a trace of {len(self.firings)} firings needs "
                             f"{len(self.firings) + 1} markings, got {len(self.markings)}")


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    proof: ProofKind
    checked_predicate: str
    trace: Optional[ViolationTrace] = None

    def __str__(self):
        return f"{self.checked_predicate}: {self.kind.value}/{self.proof.value}"


class _NodeMap(Mapping):
    """Read-only node -> value mapping over a list by position: a lookup goes
    through `graph.position`, and only iteration builds the node markings."""

    def __init__(self, graph: ReachGraph, values: list):
        self._graph, self._values = graph, values

    def __getitem__(self, m: Marking):
        i = self._graph.position(m)
        if i is None:
            raise KeyError(m)
        return self._values[i]

    def __iter__(self) -> Iterator[Marking]:
        return iter(self._graph.nodes)

    def __len__(self) -> int:
        return len(self._values)


@dataclass(eq=False)
class ReachGraph:
    """Explored marking graph; every edge (m, t, m') satisfies m' = fire(m, t).

    Held as compiled-net state vectors in BFS discovery order; the edges as
    one flat list of ints, each edge three entries (source position,
    transition index, target position), in the order the layers found them;
    and per state the flat offset of the edge that discovered it, where its
    source is (-1 for the root). The Marking views are built on
    first use and cached; `root` builds only the first marking. `depth`, like
    `pressure_map`, is a read-only view by position: a lookup builds no
    Marking, and a key that is not a node (or not a Marking) is missing.
    A graph is read-only: the graphs of repeated `explore` calls share their
    lists and index (see explore).
    """

    net: CompiledNet
    bound: ExplorationBound
    truncated: bool
    states: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    state_edges: list[int]
    discovered_by: list[int]

    @cached_property
    def nodes(self) -> list[Marking]:
        return [self.net.marking(s) for s in self.states]

    @cached_property
    def root(self) -> Marking:
        return self.net.marking(self.states[0])

    @cached_property
    def edges(self) -> list[tuple[Marking, str, Marking]]:
        nodes, ids, triples = self.nodes, self.net.ids, iter(self.state_edges)
        return [(nodes[a], ids[t], nodes[b]) for a, t, b in zip(triples, triples, triples)]

    @cached_property
    def depth(self) -> Mapping[Marking, int]:
        levels = [0]
        for e in self.discovered_by[1:]:
            levels.append(levels[self.state_edges[e]] + 1)
        return _NodeMap(self, levels)

    def position(self, m: object) -> Optional[int]:
        """Position of m in `states`, or None when m is not a node."""
        if not isinstance(m, Marking):
            return None
        try:
            return self.index.get(self.net.state(m))
        except UnknownReference:
            return None

    def __contains__(self, m: object) -> bool:
        return self.position(m) is not None

    def nodes_within_depth(self, d: int) -> frozenset[Marking]:
        return frozenset(self.nodes[:bisect_right(self.depth._values, d)])


# The latest exploration: its compiled net, held weakly, to (bound, graph
# data); at most one entry, so at most one graph outlives its callers.
_latest: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def explore(model: NetModel, bound: ExplorationBound = DEFAULT_BOUND, workers: int = 1) -> ReachGraph:
    """Breadth-first exploration of the reachable marking set.

    Bounds never fail; exceeding one sets the truncation flag. Exploration
    runs serially over the compiled net. `workers` changes nothing; it is
    kept for the callers that pass it, such as the acceptance test that
    checks the graph is worker-count invariant (`explore(..., workers=4)`).

    Each layer is one call of the net's generated `layer` (see CompiledNet).
    It tests a successor against the token cut only at the places its
    transition fills, which is exact once every state is within the cut, so
    a root beyond the cut is expanded first by `successors` (the layer with
    no cut), each successor checked in Python at every unbounded place. A
    frontier at the depth limit goes through a layer with no room: it adds
    no state, and any enabled transition leaves an edge or sets the flag.
    The edges go to one flat list, three ints each, so exploring allocates
    no object per edge (see ReachGraph).

    The latest exploration is kept: a call with the same model object and an
    equal bound gets a new ReachGraph over the same (read-only) data without
    exploring again. Any other call drops it first, so at most one graph
    outlives its callers. Its key holds the compiled net weakly, so dropping
    the model still frees the net, and the kept data with it; a later net at
    the same address never matches.
    """
    _check_bound(bound)
    net = compiled(model)
    kept = _latest.get(net)
    if kept is not None and kept[0] == bound:
        return ReachGraph(net, bound, *kept[1])
    del kept
    _latest.clear()     # frees the kept graph before the next one is explored
    root = net.root
    states = [root]
    index = {root: 0}
    discovered_by = [-1]
    state_edges: list[int] = []
    truncated = False
    cut = bound.max_tokens_per_place
    frontier = [0]
    d = 0
    if bound.max_depth > 0 and any(root[p] > cut for p in net.unbounded):
        frontier = []
        for t, s in net.successors(root):
            if any(s[p] > cut for p in net.unbounded):
                truncated = True
                continue
            b = index.get(s)
            if b is None:
                if len(states) >= bound.max_states:
                    truncated = True
                    continue
                b = index[s] = len(states)
                states.append(s)
                discovered_by.append(len(state_edges))
                frontier.append(b)
            state_edges += (0, t, b)
        d = 1
    layer = net.layer
    while frontier:
        if d >= bound.max_depth:
            probe: list[int] = []
            truncated = truncated or layer(frontier, states, index, probe, [], cut, 0)[1] or bool(probe)
            break
        frontier, cut_short = layer(frontier, states, index, state_edges, discovered_by, cut, bound.max_states)
        truncated = truncated or cut_short
        d += 1
    data = (truncated, states, index, state_edges, discovered_by)
    _latest[net] = (bound, data)
    return ReachGraph(net, bound, *data)


def violation_trace(graph: ReachGraph, predicate: Predicate) -> Optional[ViolationTrace]:
    """Shortest trace (BFS layers, canonical tie-break) to a satisfying node.

    Nodes are stored in BFS discovery order, so the first satisfying node
    is the one a breadth-first search from the root reaches first, and the
    edges that discovered each node form the shortest path back to the root.
    """
    target = next(graph.net.scan(predicate)(graph.states), None)
    if target is None:
        return None
    firings: list[str] = []
    path = [target]
    while path[-1]:
        e = graph.discovered_by[path[-1]]
        firings.append(graph.net.ids[graph.state_edges[e + 1]])
        path.append(graph.state_edges[e])
    markings = tuple(graph.net.marking(graph.states[i]) for i in reversed(path))
    return ViolationTrace(tuple(reversed(firings)), markings)


def _explored_verdict(graph: ReachGraph, pred: Predicate, name: str) -> Optional[Verdict]:
    """Unsafe with the shortest trace when a node of the graph satisfies the
    predicate, Safe/ExhaustiveBounded when the exploration is untruncated,
    else None."""
    trace = violation_trace(graph, pred)
    if trace is not None:
        return Verdict(VerdictKind.UNSAFE, ProofKind.VIOLATION_TRACE, name, trace)
    if not graph.truncated:
        return Verdict(VerdictKind.SAFE, ProofKind.EXHAUSTIVE_BOUNDED, name)
    return None


def check_forbidden(model: NetModel, predicate_name: str,
                    bound: ExplorationBound = DEFAULT_BOUND) -> Verdict:
    """Verdict for one named forbidden predicate: the only code that turns an
    exploration into a verdict.

    Unsafe carries a minimal-length replayable trace. Safe/ExhaustiveBounded
    requires an untruncated exploration; Safe/Coverability is attempted for
    upward-closed token-only predicates when the bound was exhausted, by
    backward coverability within `max_states` basis expansions and their
    comparison charge (see _backward_coverable). `explore` alone shares one
    exploration among the checks of a model and bound.
    """
    pred = model.forbidden_predicate(predicate_name)
    if verdict := _explored_verdict(explore(model, bound), pred, predicate_name):
        return verdict
    if _backward_coverable(model, pred, bound.max_states) is False:
        return Verdict(VerdictKind.SAFE, ProofKind.COVERABILITY, predicate_name)
    return Verdict(VerdictKind.UNKNOWN, ProofKind.BOUND_EXHAUSTED, predicate_name)


# ---------------------------------------------------------------------------
# Karp-Miller coverability
# ---------------------------------------------------------------------------

OMEGA = math.inf


@dataclass
class CoverabilityResult:
    verdict: Verdict
    tree_nodes: list[tuple]              # omega-markings in place order
    tree_edges: list[tuple[int, str, int]]
    covering_path: Optional[tuple[str, ...]] = None


def _target_basis(pred: Predicate, net: CompiledNet) -> Optional[list[tuple[int, ...]]]:
    """Minimal markings of the predicate as place vectors, via DNF, or None
    unless it is upward-closed and over tokens only (what coverability can
    decide). An atom is a unit vector, And the pointwise max, Or the union."""
    if not is_upward_closed(pred) or any(isinstance(a, CounterAtom) for a in predicate_atoms(pred)):
        return None
    n = len(net.place_ids)

    def rec(node) -> list[tuple[int, ...]]:
        if isinstance(node, TokenAtom):  # with >= or >
            vec = [0] * n
            vec[net.place_index(node.place)] = max(node.value if node.op == ">=" else node.value + 1, 0)
            return [tuple(vec)]
        parts = [rec(op) for op in node.operands]
        if isinstance(node, Or):
            return [vec for part in parts for vec in part]
        combos = [(0,) * n]
        for part in parts:
            combos = [tuple(map(max, a, b)) for a in combos for b in part]
        return combos

    return rec(pred)


COMPARISONS_PER_EXPANSION = 64   # basis elements a search may scan per expansion of its budget


def _backward_coverable(model: NetModel, target: Predicate, budget: int) -> Optional[bool]:
    """Whether the plain projection (`CompiledNet.plain`) can cover the
    target; None when the budget runs out or the target is not upward-closed
    and over tokens only. False proves the target uncoverable in the full net.

    Backward search over a minimal basis of the markings from which the
    target can be covered (Abdulla, Cerans, Jonsson and Tsay, LICS 1996).
    Basis elements are expanded breadth-first, at most `budget` of them.
    Each scan of the basis costs its size, and the search also stops once
    the scans have cost more than COMPARISONS_PER_EXPANSION * budget, so a
    large basis cannot outrun the budget.
    """
    net = compiled(model)
    targets = _target_basis(target, net)
    if targets is None:
        return None
    root, rows = net.plain
    le, sub = operator.le, operator.sub
    basis: dict[tuple[int, ...], None] = {}   # a minimal antichain, insertion-ordered
    queue: deque[tuple[int, ...]] = deque()
    compared = 0

    def add(m: tuple[int, ...]) -> bool:
        """Keep m unless the basis covers it; True iff the root covers m."""
        nonlocal compared
        compared += len(basis)
        if any(all(map(le, b, m)) for b in basis):
            return False
        compared += len(basis)
        for b in [b for b in basis if all(map(le, m, b))]:
            del basis[b]
        basis[m] = None
        queue.append(m)
        return all(map(le, m, root))

    for m in targets:
        if add(m):
            return True
    expanded = 0
    while queue:
        m = queue.popleft()
        if m not in basis:
            continue  # replaced by a smaller element
        if expanded >= budget or compared > COMPARISONS_PER_EXPANSION * budget:
            return None
        expanded += 1
        for need, delta in rows:
            if add(tuple(map(max, need, map(sub, m, delta)))):
                return True
    return False


def karp_miller(model: NetModel, target: Predicate, *,
                bound: ExplorationBound = DEFAULT_BOUND,
                predicate_name: str = "<target>") -> CoverabilityResult:
    """Classical Karp-Miller tree with omega-acceleration.

    The tree is built over the plain projection of the net
    (`CompiledNet.plain`), so an uncoverable verdict is sound for the full
    net. A tree that would grow past `bound.max_states` nodes stops with
    Unknown and no covering path. When the projection covers the target, bounded
    exploration under the full semantics decides the verdict. It searches
    for a marking that satisfies the target with token cuts of c, 4c and
    16c, where c is the target's largest minimal-marking entry plus 2, and
    at most `min(bound.max_states, 200_000)` states each. The first search
    that finds one gives Unsafe with its shortest trace; the first that
    finishes untruncated without one gives Safe (the covering path is
    spurious); Unknown when every search is cut short. Never Unsafe without
    a trace.

    Acceleration compares a child only with the minimal markings on its
    path. If a <= a' are both on the path and a' <= m2, then a <= m2 too,
    and a lifts every place that a' lifts, in every round below: a' decides
    nothing. So each node waiting to be expanded carries the minimal
    markings on its path, itself included. A child's set is its parent's,
    plus the child unless some ancestor is <= it, minus the markings it is
    <= (expanded markings are unique, so the set is an antichain).

    The comparisons work on place bitmasks. An expanded node m is compared
    once with each minimal marking a, at its first child that needs it: a
    node with no child, or whose children are all m itself (see below), is
    compared with none. `above` holds the places where a[i] > m[i], `below`
    those where a[i] < m[i] (omega compares as infinity). A child
    m2 = m + delta differs from m only on the places delta changes, so its
    fail mask (a[i] > m2[i]) and lift mask (a[i] < m2[i]) are those of m
    elsewhere, recomputed there. With `fin` the finite places of m2, a is
    <= m2 iff its fail mask misses `fin`; the lift masks of those markings,
    restricted to `fin`, go to omega, and rounds repeat over the others
    until one lifts nothing. If none is <= m2, nothing is lifted, and
    m2 <= a iff a's lift mask is empty: the child's set comes from the same
    masks. Each marking's lift is a monotone, inflationary operator on m2,
    so rounds of simultaneous lifts reach the same least common fixpoint as
    lifting one ancestor at a time in any order: the tree is the classical
    one, node for node.

    Two rules spare most children that work without changing the tree:
    - Enabling reads the `empty` mask of an expanded node, the places where
      it holds 0 tokens (omega is never empty). A transition whose needed
      places meet it is disabled; only needs of weight > 1 are then compared
      place by place. A need of weight 1 fails exactly on an empty place.
    - A transition that changes only places where m is omega has m itself
      as its child, since omega +- d = omega, so that child is appended
      without masks, lifts or a `seen` lookup. Nothing would lift it: when
      m was built, the lifts ran until no ancestor <= m was below m on a
      finite place, so each such ancestor equals m on m's finite places,
      and the first round lifts nothing. And m is already in `seen`, so the
      child is not expanded. The node budget is checked first, so a budget
      cuts the tree at the same node.
    """
    _check_bound(bound)
    net = compiled(model)
    targets = _target_basis(target, net)
    if targets is None:
        raise NotUpwardClosed(
            "coverability targets must be upward-closed and use no counter or mode atoms")
    root, plain = net.plain
    rows = []
    for tid, (need, change) in zip(net.ids, plain):
        needed = sum(1 << p for p, w in enumerate(need) if w)
        heavy = tuple((p, w) for p, w in enumerate(need) if w > 1)
        delta = tuple((p, d, 1 << p) for p, d in enumerate(change) if d)
        changed = sum(bit for _, _, bit in delta)
        rows.append((tid, needed, heavy, delta, changed, ~changed))

    unknown = Verdict(VerdictKind.UNKNOWN, ProofKind.BOUND_EXHAUSTED, predicate_name)
    tree_nodes: list[tuple] = [root]
    tree_edges: list[tuple[int, str, int]] = []
    seen: dict[tuple, int] = {root: 0}   # first occurrence of each marking, in tree order
    # each node waiting to be expanded, with the minimal markings on its path
    worklist = deque([(0, (root,))])

    while worklist:
        node, minimal = worklist.popleft()
        m = tree_nodes[node]
        ancestors = None                 # (marking, above, below) of each minimal marking
        finite = sum(1 << i for i, x in enumerate(m) if x != OMEGA)
        empty = sum(1 << i for i, x in enumerate(m) if not x)
        for tid, needed, heavy, delta, changed, off in rows:
            if needed & empty or heavy and any(m[p] < w for p, w in heavy):
                continue
            if len(tree_nodes) >= bound.max_states:
                return CoverabilityResult(unknown, tree_nodes, tree_edges)
            if not changed & finite:     # omega +- d = omega: the child is m
                tree_edges.append((node, tid, len(tree_nodes)))
                tree_nodes.append(m)
                continue
            if ancestors is None:        # made at the first child that compares
                ancestors = []
                for am in minimal:
                    above = below = 0
                    for i, (x, y) in enumerate(zip(am, m)):
                        if x > y:
                            above |= 1 << i
                        elif x < y:
                            below |= 1 << i
                    ancestors.append((am, above, below))
            m2 = list(m)
            for p, d, _ in delta:
                m2[p] += d
            # the first round of lifts, as each ancestor's masks are made
            fin, grow, rest = finite, 0, []
            for am, above, below in ancestors:
                fail, lift = above & off, below & off
                for p, _, bit in delta:
                    if am[p] > m2[p]:
                        fail |= bit
                    elif am[p] < m2[p]:
                        lift |= bit
                if fail & fin:
                    rest.append((am, fail, lift))
                else:
                    grow |= lift
            grow &= fin
            while grow:                  # later rounds, over the ancestors not yet <= m2
                fin ^= grow
                pending, grow, rest = rest, 0, []
                for am, fail, lift in pending:
                    if fail & fin:
                        rest.append((am, fail, lift))
                    else:
                        grow |= lift
                grow &= fin
            lifted = finite ^ fin
            while lifted:
                low = lifted & -lifted
                m2[low.bit_length() - 1] = OMEGA
                lifted ^= low
            m2 = tuple(m2)
            child = len(tree_nodes)
            tree_nodes.append(m2)
            tree_edges.append((node, tid, child))
            if m2 not in seen:
                seen[m2] = child
                if len(rest) < len(ancestors):   # some ancestor is <= m2
                    worklist.append((child, minimal))
                else:
                    # nothing was lifted, so m2 is minimal on its path, and the
                    # ancestors with an empty lift mask are >= m2
                    worklist.append((child, tuple(am for am, _, lift in rest if lift) + (m2,)))

    le = operator.le
    # the first covering occurrence of a marking is the first covering node
    covering = next((i for m, i in seen.items()
                     if any(all(map(le, t, m)) for t in targets)), None)
    if covering is None:
        verdict = Verdict(VerdictKind.SAFE, ProofKind.COVERABILITY, predicate_name)
        return CoverabilityResult(verdict, tree_nodes, tree_edges)

    path = []
    i = covering
    while i > 0:
        i, tid, _ = tree_edges[i - 1]      # the edge into node i, from its parent
        path.append(tid)
    cap = max(map(max, targets), default=1) + 2
    for cut in (cap, cap * 4, cap * 16):
        graph = explore(model, ExplorationBound(max_states=min(bound.max_states, 200_000),
                                                max_depth=bound.max_depth,
                                                max_tokens_per_place=cut))
        if verdict := _explored_verdict(graph, target, predicate_name):
            break
    else:
        verdict = unknown
    return CoverabilityResult(verdict, tree_nodes, tree_edges, tuple(reversed(path)))


# ---------------------------------------------------------------------------
# Structural analysis
# ---------------------------------------------------------------------------

def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def find_cycles(model: NetModel, max_length: Optional[int] = 16) -> list[tuple[str, ...]]:
    """Elementary cycles of the bipartite net graph, canonically rotated.

    Cycles alternate place and transition identifiers; each is rotated so its
    smallest identifier comes first. Length is counted in nodes and capped at
    max_length (None for no cap).
    """
    if max_length is not None:
        if not _is_int(max_length):
            raise TypeError(f"max_length must be an int or None, got {max_length!r}")
        if max_length < 0:
            raise ValueError(f"max_length must be >= 0, got {max_length}")
    net = compiled(model)
    g = nx.DiGraph()
    for p, requirers, producers in zip(net.place_ids, net.requirers, net.producers):
        for k in _bits(requirers):
            g.add_edge(p, net.ids[k])
        for k in _bits(producers):
            g.add_edge(net.ids[k], p)
    out = set()
    for cycle in nx.simple_cycles(g, length_bound=max_length):
        k = cycle.index(min(cycle))
        out.add(tuple(cycle[k:] + cycle[:k]))
    return sorted(out, key=lambda c: (len(c), c))


def siphons_and_traps(model: NetModel, max_size: int = 4) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """Minimal siphons and traps of at most max_size places, by size, then ids.

    A siphon stays empty once emptied: every transition producing into the
    set also requires tokens from it (as input or read place). A trap stays
    marked once marked: every transition consuming from the set also
    produces into it. Guards and inhibitors are ignored (structural notions).
    Larger minimal sets are not reported; max_size 0 gives ([], []).

    The search grows a set only by the places that can mend it. A set S that
    is not a hit has a lowest transition t it breaks (t produces into S but
    does not require from S, for a siphon); S grows by each place that t
    requires from (produces into, for a trap). Exact: t also produces into
    any minimal siphon S* that contains S, so it requires from some place of
    S* outside S, and the branch on that place stays inside S*. So every
    minimal set of at most max_size places is reached, and no set visited has
    more, which keeps the worst case at the order of a scan of all subsets.
    As any transition may be the lowest, declaration order does not matter.
    """
    if not _is_int(max_size):
        raise TypeError(f"max_size must be an int, got {max_size!r}")
    if max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    net = compiled(model)
    if max_size == 0:
        return [], []

    def search(into: list[int], within: list[int]) -> list[tuple[str, ...]]:
        """Minimal place sets whose `into` transitions all lie in `within`,
        by size, then in lexicographic order."""
        fixers: dict[int, list[int]] = {}   # transition index -> places whose `within` holds it
        for i, w in enumerate(within):
            for k in _bits(w):
                fixers.setdefault(k, []).append(i)
        # (place bitmask, its `into` and `within` unions, size)
        stack = [(1 << i, into[i], within[i], 1) for i in range(len(into))]
        seen = {s for s, _, _, _ in stack}
        hits = []
        while stack:
            s, a, b, size = stack.pop()
            broken = a & ~b
            if not broken:
                hits.append((size, tuple(sorted(net.place_ids[k] for k in _bits(s))), s))
            elif size < max_size:
                for i in fixers.get((broken & -broken).bit_length() - 1, ()):
                    s2 = s | 1 << i
                    if s2 not in seen:
                        seen.add(s2)
                        stack.append((s2, a | into[i], b | within[i], size + 1))
        minimal: list[int] = []   # place bitmasks of the sets kept
        found = []
        for _, ids, s in sorted(hits):
            if not any(m & s == m for m in minimal):
                minimal.append(s)
                found.append(ids)
        return found

    return search(net.producers, net.requirers), search(net.consumers, net.producers)


# ---------------------------------------------------------------------------
# Reachability pressure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pressure:
    """Distance in firings to the nearest satisfying marking in the graph.

    distance is None when no explored marking satisfies the predicate; the
    truncated flag distinguishes proven-safe from merely unexplored.
    """

    distance: Optional[int]
    truncated: bool


def node_distances(graph: ReachGraph, predicate: Predicate) -> list[Optional[int]]:
    """Minimum firings from each node, by position, to any satisfying node (reverse BFS)."""
    scan = graph.net.scan(predicate)
    preds: list[list[int]] = [[] for _ in graph.states]
    edges = graph.state_edges
    for a, b in zip(edges[::3], edges[2::3]):
        preds[b].append(a)
    dist: list[Optional[int]] = [None] * len(graph.states)
    queue = deque(scan(graph.states))
    for i in queue:
        dist[i] = 0
    while queue:
        b = queue.popleft()
        for a in preds[b]:
            if dist[a] is None:
                dist[a] = dist[b] + 1
                queue.append(a)
    return dist


def pressure_map(graph: ReachGraph, predicate: Predicate) -> Mapping[Marking, Optional[int]]:
    """Minimum firings from every node to any satisfying node, as a read-only
    mapping in discovery order."""
    return _NodeMap(graph, node_distances(graph, predicate))


def reachability_pressure(graph: ReachGraph, m: Marking, predicate: Predicate) -> Pressure:
    """Pressure of one marking; raises NodeNotInGraph for unexplored markings."""
    if m not in graph:
        raise NodeNotInGraph("marking is not a node of the explored graph")
    return Pressure(pressure_map(graph, predicate)[m], graph.truncated)


def check_all_forbidden(model: NetModel,
                        bound: ExplorationBound = DEFAULT_BOUND) -> dict[str, Verdict]:
    """`check_forbidden` for every named forbidden predicate of the model, in
    declaration order; they share one exploration through `explore`."""
    _check_bound(bound)
    compiled(model)
    return {name: check_forbidden(model, name, bound) for name, _ in model.forbidden}
