"""respetri benchmark: one workload, one closed-loop client, known answers.

    python3 perfbench/run.py --workload reach-bounded --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from `src/`, as
source; nothing is installed. Each query is timed alone and its answer is
checked against a known one outside the timed region.

A cycle is a fixed list of queries; runs are made of whole cycles, so each
query appears equally often and the percentiles do not depend on where a
run stopped. A run ends at the cycle boundary nearest to --seconds.

--trace 0 prints the end-to-end metrics. It runs at least MIN_QUERIES
queries, so p90 always has at least ten samples above it. setup_s is the
median of SETUP_SAMPLES fresh processes, each timed from spawn until its
inputs are generated and parsed. Times are adjusted for host speed (see
hostspeed.py); the measured figures are printed above the result line. The
run and the processes it starts stay on one CPU.

--trace 1 prints the per-layer metrics. It runs whole cycles untraced for a
third of --seconds, then wraps the library's public functions (see spans.py),
sets the workload up again and runs whole cycles traced for the rest. Spans
go to .perfbench-out/spans-<workload>-<seed>.csv.gz.

Both modes print a work-count fingerprint of one cycle and fail the run if
two cycles, or two runs with the same seed, disagree on it.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_QUERIES = 100
SETUP_SAMPLES = 9
SETUP_REFS = 20   # reference() timings a set-up process makes once it is ready
PROBE_SAMPLES = 5
FINGERPRINT_KEYS = ("queries", "states", "edges", "tree_nodes", "steps", "alarms",
                    "log_entries", "trace_firings", "model_hash")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("reach-bounded", "cover-unbounded", "govern-audit", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="Set the workload up, print 'ready' and exit (times setup_s).")
    return ap.parse_args(argv)


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Loop:
    """Runs cycles of queries, times each query, checks each answer."""

    def __init__(self, mismatch, tracer=None):
        self.mismatch = mismatch    # the exception type of a wrong answer
        self.tracer = tracer
        self.latency: list[tuple[int, int, float]] = []   # (cycle, position, seconds)
        self.ref: list[float] = []                        # reference() seconds before each query
        self.cycle_counts: list[dict] = []                # one per complete cycle
        self.first_qids: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.next_qid = 1

    def fail(self, label, exc):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {label}: {exc!r}", file=sys.stderr)
            if not isinstance(exc, self.mismatch):
                traceback.print_exception(exc, file=sys.stderr)

    def run(self, wl, deadline, min_queries=0):
        """Run whole cycles, so every query appears equally often. Before each
        new cycle, stop once min_queries are done and the deadline is less
        than half a cycle away; at least one cycle runs."""
        began = time.perf_counter()
        c = 0
        while True:
            counts = {k: 0 for k in FINGERPRINT_KEYS}
            for pos, q in enumerate(wl.cycle(c)):
                self.attempted += 1
                counts["queries"] += 1
                if self.tracer is not None:
                    self.tracer.query_id = self.next_qid
                    if c == 0:
                        self.first_qids.add(self.next_qid)
                self.next_qid += 1
                self.ref.append(hostspeed.time_reference())
                t = time.perf_counter()
                try:
                    res = q.run()
                except Exception as e:  # a query that raises is a failed query
                    self.latency.append((c, pos, time.perf_counter() - t))
                    self.fail(q.label, e)
                    continue
                finally:
                    if self.tracer is not None:
                        self.tracer.query_id = -1
                self.latency.append((c, pos, time.perf_counter() - t))
                try:
                    for k, v in q.check(res).items():
                        counts[k] = v if k == "model_hash" else counts[k] + v
                except Exception as e:
                    self.fail(q.label, e)
                del res  # no result outlives its check, so peak memory is per query
            self.cycle_counts.append(counts)
            c += 1
            now = time.perf_counter()
            if len(self.latency) >= min_queries and now + (now - began) / c / 2 >= deadline:
                self.ref.append(hostspeed.time_reference())   # the one after the last query
                return

    def adjusted(self) -> list[tuple[int, int, float]]:
        """The latencies adjusted for host speed (see hostspeed.py)."""
        return [(c, pos, s * hostspeed.scale(hostspeed.around(self.ref, i)))
                for i, (c, pos, s) in enumerate(self.latency)]


def fingerprint_problems(loops, path: Path) -> list[str]:
    """Compare every cycle's work counts with the first; persist and compare per seed."""
    cycles = [cc for lp in loops for cc in lp.cycle_counts]
    if not cycles:
        return ["no complete cycle"]
    fp = cycles[0]
    problems = []
    strip = lambda d: {k: v for k, v in d.items() if k != "model_hash"}  # noqa: E731
    for i, cc in enumerate(cycles[1:], 1):
        if strip(cc) != strip(fp):
            problems.append(f"cycle {i} did different work: {cc} != {fp}")
    for lp in loops[1:]:
        if lp.cycle_counts and lp.cycle_counts[0] != fp:
            problems.append(f"traced cycle differs from untraced: {lp.cycle_counts[0]} != {fp}")
    if path.exists():
        prev = json.loads(path.read_text())
        if prev != fp:
            problems.append(f"fingerprint differs from an earlier run with this seed: {prev}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fp, sort_keys=True) + "\n")
    return problems


def setup_samples(args) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh process until its set-up is done, each
    with the median reference() time the same process measured right after."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t
            ref = p.stdout.read()
            if p.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up process failed")
        out.append((elapsed, float(ref)))
    return out


def cli_probes(env) -> dict:
    """Interpreter start and import cost, each the median of PROBE_SAMPLES children."""
    interp, imp, nx = [], [], []
    for _ in range(PROBE_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        interp.append((time.perf_counter() - t) * 1000)
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import respetri"],
                           check=True, env=env, cwd=ROOT, capture_output=True, text=True)
        cumulative = {}
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000
        imp.append(cumulative["respetri"])
        nx.append(cumulative["networkx"])
    return {"cli.interpreter_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imp),
            "cli.import_networkx_ms": statistics.median(nx)}


def memory_probe(wl, loop) -> float:
    """tracemalloc peak of one exploration of the workload's largest net, per state."""
    import tracemalloc

    import respetri as r

    case, model = wl.memory_probe()
    if model is None:
        return 0.0
    loop.attempted += 1
    tracemalloc.start()
    try:
        graph = r.explore(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if case is not None and (len(graph.nodes), len(graph.edges)) != (case.states, case.edges):
        loop.fail(f"memory probe {case.name}",
                  loop.mismatch(f"{len(graph.nodes)} states, {len(graph.edges)} edges"))
    return peak / len(graph.nodes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "respetri" / "__init__.py").is_file():
        print(f"error: no respetri sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    hostspeed.pin()
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        print(statistics.median(hostspeed.time_reference() for _ in range(SETUP_REFS)))
        return 0
    start = time.perf_counter()
    try:
        if args.trace:
            metrics, loops = traced_run(args, cls, wl, start)
        else:
            metrics, loops = timed_run(args, wl)
    finally:
        shutil.rmtree(workloads.OUT / f"work-{os.getpid()}", ignore_errors=True)

    problems = fingerprint_problems(
        loops, workloads.OUT / "fingerprints" / f"{args.workload}-{args.seed}.json")
    for p in problems:
        print(f"FINGERPRINT {p}", file=sys.stderr)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    fp = loops[-1].cycle_counts[0] if loops[-1].cycle_counts else {}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"failed_ratio {failed / max(attempted, 1):.6f} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timed_run(args, wl):
    import workloads

    samples = setup_samples(args)
    wl.prepare()
    loop = Loop(workloads.Mismatch)
    loop.run(wl, time.perf_counter() + args.seconds, MIN_QUERIES)
    measured = {"setup_s": statistics.median(t for t, _ in samples)}
    measured.update(latency_metrics(sorted(s for _, _, s in loop.latency)))
    adjusted = {"setup_s": statistics.median(t * hostspeed.scale([ref]) for t, ref in samples)}
    adjusted.update(latency_metrics(sorted(s for _, _, s in loop.adjusted())))
    print(f"queries {len(loop.latency)}, cycles {len(loop.cycle_counts)}, set-up samples "
          + ", ".join(f"{t:.3f}" for t, _ in samples))
    print(f"reference() median {statistics.median(loop.ref) * 1000:.4f} ms over the run, "
          f"{statistics.median(ref for _, ref in samples) * 1000:.4f} ms in the set-up "
          f"processes; REF_MS {hostspeed.REF_MS}")
    print("measured " + ", ".join(f"{k} {v:.6f}" for k, v in measured.items()))
    metrics = {
        "setup_s": (adjusted["setup_s"], "s"),
        "query_p50_ms": (adjusted["query_p50_ms"], "ms"),
        "query_p90_ms": (adjusted["query_p90_ms"], "ms"),
        "queries_per_s": (adjusted["queries_per_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, [loop]


def latency_metrics(lat: list[float]) -> dict[str, float]:
    """p50, p90 and throughput of sorted per-query seconds."""
    return {"query_p50_ms": percentile(lat, 0.5) * 1000,
            "query_p90_ms": percentile(lat, 0.9) * 1000,
            "queries_per_s": len(lat) / sum(lat)}


def traced_run(args, cls, wl, start):
    import spans
    import workloads

    wl.prepare()
    plain = Loop(workloads.Mismatch)
    plain.run(wl, start + args.seconds / 3)

    tr = spans.Tracer()
    tr.install([m for name, m in sys.modules.items()
                if name == "respetri" or name.startswith("respetri.")])
    try:
        tr.query_id = 0
        wl = cls(args.seed)          # the set-up, traced as query 0
        tr.query_id = -1
        wl.prepare()
        traced = Loop(workloads.Mismatch, tr)
        traced.run(wl, start + args.seconds)
    finally:
        tr.uninstall()

    n_cycles = len(traced.cycle_counts)
    layers = spans.layer_metrics(tr, {0} | traced.first_qids, n_cycles)
    layers["analysis.explore.bytes_per_state"] = memory_probe(wl, traced)
    cli = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.import_networkx_ms": 0.0,
           "cli.work_ms": 0.0}
    if args.workload == "cli-cold":
        cli.update(cli_probes(wl.env))
        cli["cli.work_ms"] = statistics.median(wl.work_ms)
    layers.update(cli)
    layers["trace.overhead_pct"] = overhead_pct(plain, traced)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    tr.write(workloads.OUT / f"spans-{args.workload}-{args.seed}.csv.gz")
    print(f"spans {len(tr.start)}, untraced cycles {len(plain.cycle_counts)}, "
          f"traced cycles {n_cycles}")
    return {k: (v, UNITS.get(k) or unit_of(k)) for k, v in sorted(layers.items())}, [plain, traced]


def overhead_pct(plain, traced) -> float:
    """Traced versus untraced time for the same queries (medians by position),
    both adjusted for host speed."""
    def medians(loop):
        by_pos = {}
        for _, pos, s in loop.adjusted():
            by_pos.setdefault(pos, []).append(s)
        return {pos: statistics.median(v) for pos, v in by_pos.items()}

    a, b = medians(plain), medians(traced)
    common = a.keys() & b.keys()
    return 100 * (sum(b[p] for p in common) / sum(a[p] for p in common) - 1)


UNITS = {"analysis.explore.bytes_per_state": "B", "trace.overhead_pct": "%"}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio") or name.endswith("_per_call"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
