"""Reference answers the benchmark checks the program against.

`coverable` decides coverability for plain nets by backward search over a
minimal basis of an upward-closed set (Abdulla, Cerans, Jonsson and Tsay,
LICS 1996). It reads the generator's own description of a net, never the
program's parser or data structures.
"""

from __future__ import annotations


def coverable(net) -> bool:
    """True iff some reachable marking of the plain net covers net.target."""
    places = net.places
    rows = []
    for ins, outs, reads in net.transitions:
        need = tuple(max(ins.get(p, 0), reads.get(p, 0)) for p in places)
        delta = tuple(outs.get(p, 0) - ins.get(p, 0) for p in places)
        rows.append((need, delta))
    init = tuple(net.init[p] for p in places)
    basis = [tuple(net.target.get(p, 0) for p in places)]
    frontier = list(basis)
    while frontier:
        if any(all(a >= b for a, b in zip(init, m)) for m in frontier):
            return True
        new = []
        for m in frontier:
            for need, delta in rows:
                pre = tuple(max(n, x - d) for n, x, d in zip(need, m, delta))
                if any(all(a <= b for a, b in zip(old, pre)) for old in basis + new):
                    continue
                new = [x for x in new if not all(a <= b for a, b in zip(pre, x))]
                new.append(pre)
        basis = [x for x in basis if not any(all(a <= b for a, b in zip(n, x)) for n in new)]
        basis += new
        frontier = new
    return False
