"""Command-line front end: check, simulate, and edit with JSON reports.

Exit codes are a stable contract:

* ``check``   — 0 all safe, 1 any unsafe, 2 any unknown (none unsafe),
  3 usage, parse or I/O error.
* ``simulate`` — 0 run completed, 3 usage, parse or I/O error, 4 a scripted
  firing was disabled.
* ``edit``    — 0 patch applied, 1 ``--verify`` found a safe-to-not-safe
  regression, 3 any error (atomic: nothing is written on failure).

Reports are JSON with sorted keys; the ``wall_time_ms`` field is the only
non-deterministic part and must be excluded when diffing runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

import click

from . import __version__
from .analysis import (
    DEFAULT_BOUND,
    ExplorationBound,
    Verdict,
    explore,
    find_cycles,
    graph_verdict,
    node_distances,
    siphons_and_traps,
)
from .audit import (
    Priority,
    RunRecord,
    Scripted,
    UniformRandom,
    drift_report,
    simulate,
)
from .dsl import ModelSource, model_hash, parse_model, serialize_model
from .errors import (
    ParseFailure,
    PressureUnavailable,
    RespetriError,
    ScriptedFiringDisabled,
    StructureFailure,
    UnknownPredicate,
)
from .governance import (
    GovernanceLog,
    apply_patch,
    parse_patch,
    patch_report,
    record_decision,
)
from .net import NetModel

DEFAULT_LOG_PATH = "respetri-governance.jsonl"


class _Fail(click.ClickException):
    """A command failure with an explicit exit code."""

    def __init__(self, message: str, code: int = 3):
        super().__init__(message)
        self.exit_code = code


def _load_model(path: str) -> NetModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _Fail(f"cannot read model {path!r}: {e}", 3)
    try:
        return parse_model(ModelSource(text, origin=path))
    except (ParseFailure, StructureFailure) as e:
        details = "\n".join(f"  {path}:{err}" for err in e.errors)
        raise _Fail(f"model {path!r} does not parse:\n{details}", 3)


def _bound(states: int, depth: int, tokens: int) -> ExplorationBound:
    return ExplorationBound(max_states=states, max_depth=depth,
                            max_tokens_per_place=tokens)


def _verdict_json(v: Verdict) -> dict:
    d = {
        "kind": v.kind.value,
        "proof": v.proof.value,
        "predicate": v.checked_predicate,
    }
    if v.trace is not None:
        d["trace"] = {
            "firings": list(v.trace.firings),
            "markings": [dict(m.tokens_map) for m in v.trace.markings],
        }
    return d


def _run_json(run: RunRecord) -> dict:
    return {
        "firings": list(run.firings),
        "markings": [
            {"tokens": dict(m.tokens_map), "counters": dict(m.counters_map)}
            for m in run.markings
        ],
        "alarms": [
            {"step": a.step, "rule": a.rule_id, "observed": a.observed}
            for a in run.alarms
        ],
        "deadlock_step": run.deadlock_step,
    }


def _emit_report(command: str, model: NetModel, parameters: dict, results: dict,
                 started: float, report_path: Optional[str]) -> None:
    report = {
        "version": __version__,
        "command": command,
        "model_hash": model_hash(model),
        "parameters": parameters,
        "results": results,
        "wall_time_ms": round((time.monotonic() - started) * 1000, 3),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if report_path:
        Path(report_path).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _bound_options(f):
    f = click.option("--bound-states", type=click.IntRange(min=0), default=DEFAULT_BOUND.max_states,
                     show_default=True, help="State-count exploration bound.")(f)
    f = click.option("--bound-depth", type=click.IntRange(min=0), default=DEFAULT_BOUND.max_depth,
                     show_default=True, help="Depth (firing-count) bound.")(f)
    f = click.option("--bound-tokens", type=click.IntRange(min=0),
                     default=DEFAULT_BOUND.max_tokens_per_place, show_default=True,
                     help="Per-place token cap; successors beyond it are cut.")(f)
    return f


@click.group()
@click.version_option(__version__)
def cli():
    """Reachability checking, simulation, and governed edits for token nets."""


@cli.command("check")
@click.argument("model_path", metavar="MODEL")
@click.argument("predicate", required=False)
@_bound_options
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for compatibility; exploration runs serially "
                   "(output is worker-invariant).")
@click.option("--cycles", is_flag=True, help="Include feedback cycles in the report.")
@click.option("--siphons", is_flag=True, help="Include minimal siphons and traps.")
@click.option("--pressure", "pressure_pred", metavar="PREDICATE",
              help="Include the initial marking's distance to PREDICATE.")
@click.option("--report", "report_path", metavar="PATH",
              help="Write the JSON report to PATH instead of stdout.")
def cmd_check(model_path, predicate, bound_states, bound_depth, bound_tokens,
              workers, cycles, siphons, pressure_pred, report_path):
    """Verdict for one named forbidden predicate, or all of them."""
    started = time.monotonic()
    model = _load_model(model_path)
    bound = _bound(bound_states, bound_depth, bound_tokens)
    names = [predicate] if predicate else [n for n, _ in model.forbidden]
    try:
        if predicate:
            model.forbidden_predicate(predicate)
        pred = model.forbidden_predicate(pressure_pred) if pressure_pred else None
    except UnknownPredicate as e:
        raise _Fail(str(e), 3)
    graph = explore(model, bound, workers=workers) if names or pred is not None else None
    verdicts = {name: _verdict_json(graph_verdict(model, graph, name)) for name in names}
    results: dict = {"verdicts": verdicts}
    if cycles:
        results["cycles"] = [list(c) for c in find_cycles(model)]
    if siphons:
        s, t = siphons_and_traps(model)
        results["siphons"] = [sorted(x) for x in s]
        results["traps"] = [sorted(x) for x in t]
    if pred is not None:
        results["pressure"] = {"predicate": pressure_pred,
                               "distance": node_distances(graph, pred)[0],
                               "truncated": graph.truncated}
    _emit_report("check", model, {
        "model": model_path, "predicate": predicate,
        "bound": {"states": bound_states, "depth": bound_depth, "tokens": bound_tokens},
        "workers": workers,
    }, results, started, report_path)
    kinds = {v["kind"] for v in verdicts.values()}
    if "unsafe" in kinds:
        return 1
    if "unknown" in kinds:
        return 2
    return 0


def _parse_policy(spec: str, seed: int):
    if spec == "uniform":
        return UniformRandom(seed)
    kind, sep, rest = spec.partition(":")
    names = tuple(x for x in rest.split(",") if x)
    if kind == "priority" and sep:
        return Priority(names, seed)
    if kind == "scripted" and sep:
        return Scripted(names)
    raise _Fail(f"bad --policy {spec!r}; use uniform, priority:t1,t2 or scripted:t1,t2", 3)


@cli.command("simulate")
@click.argument("model_path", metavar="MODEL")
@click.option("--steps", type=click.IntRange(min=0), default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--policy", default="uniform", show_default=True,
              help="uniform | priority:t1,t2,... | scripted:t1,t2,...")
@click.option("--pressure", "pressure_pred", metavar="PREDICATE",
              help="Attach a drift report against PREDICATE.")
@_bound_options
@click.option("--report", "report_path", metavar="PATH")
def cmd_simulate(model_path, steps, seed, policy, pressure_pred,
                 bound_states, bound_depth, bound_tokens, report_path):
    """Deterministic seeded run with audit alarms."""
    started = time.monotonic()
    model = _load_model(model_path)
    pol = _parse_policy(policy, seed)
    bound = _bound(bound_states, bound_depth, bound_tokens)
    try:
        run = simulate(model, pol, steps, bound)
    except ScriptedFiringDisabled as e:
        raise _Fail(str(e), 4)
    results: dict = {"run": _run_json(run)}
    if pressure_pred:
        try:
            drift = drift_report(model, run, pressure_pred, bound)
        except (UnknownPredicate, PressureUnavailable) as e:
            raise _Fail(str(e), 3)
        results["drift"] = {
            "predicate": pressure_pred,
            "pressures": list(drift.pressures),
            "episodes": [list(ep) for ep in drift.episodes],
            "truncated": drift.truncated,
        }
    _emit_report("simulate", model, {
        "model": model_path, "steps": steps, "seed": seed, "policy": policy,
    }, results, started, report_path)
    return 0


@cli.command("edit")
@click.argument("model_path", metavar="MODEL")
@click.argument("patch_path", metavar="PATCH")
@click.option("--verify", is_flag=True,
              help="Compute before/after verdicts; exit 1 on a regression.")
@_bound_options
@click.option("--report", "report_path", metavar="PATH")
def cmd_edit(model_path, patch_path, verify, bound_states, bound_depth,
             bound_tokens, report_path):
    """Apply a patch file, log the decision, write the patched model.

    The patched model lands next to the input as ``<stem>.patched.net``; the
    governance log path comes from $RESPETRI_LOG (default
    ``respetri-governance.jsonl`` in the working directory). The input model
    file is never modified.
    """
    started = time.monotonic()
    model = _load_model(model_path)
    try:
        patch_text = Path(patch_path).read_text(encoding="utf-8")
    except OSError as e:
        raise _Fail(f"cannot read patch {patch_path!r}: {e}", 3)
    try:
        patch = parse_patch(patch_text)
    except ParseFailure as e:
        details = "\n".join(f"  {patch_path}:{err}" for err in e.errors)
        raise _Fail(f"patch {patch_path!r} does not parse:\n{details}", 3)

    bound = _bound(bound_states, bound_depth, bound_tokens)
    try:
        patched = apply_patch(model, patch)
        vreport = patch_report(model, patched, patch, bound if verify else None)
    except RespetriError as e:
        raise _Fail(f"patch failed: {e}", 3)

    log_path = Path(os.environ.get("RESPETRI_LOG", DEFAULT_LOG_PATH))
    try:
        log = (GovernanceLog.from_jsonl(log_path.read_text(encoding="utf-8"))
               if log_path.exists() else GovernanceLog())
        log = record_decision(log, model, patched, patch, vreport)
    except RespetriError as e:
        raise _Fail(f"governance log update failed: {e}", 3)

    out_path = Path(model_path).with_suffix("").with_name(
        Path(model_path).stem + ".patched.net")
    out_path.write_text(serialize_model(patched).text, encoding="utf-8")
    log_path.write_text(log.to_jsonl(), encoding="utf-8")

    results = {
        "patch_id": vreport.patch_id,
        "pre_hash": vreport.pre_hash,
        "post_hash": vreport.post_hash,
        "output_model": str(out_path),
        "log": str(log_path),
        "predicates_added": list(vreport.predicates_added),
        "predicates_removed": list(vreport.predicates_removed),
        "regressions": list(vreport.regressions),
    }
    if verify:
        results["verdicts_before"] = {n: _verdict_json(v)
                                      for n, v in vreport.verdicts_before}
        results["verdicts_after"] = {n: _verdict_json(v)
                                     for n, v in vreport.verdicts_after}
        results["states_before"] = vreport.states_before
        results["states_after"] = vreport.states_after
    _emit_report("edit", model, {
        "model": model_path, "patch": patch_path, "verify": verify,
    }, results, started, report_path)
    if verify and vreport.regressions:
        return 1
    return 0


def main(argv=None):
    """Console entry point with the documented exit-code mapping."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as e:
        click.echo(f"error: {e.format_message()}", err=True)
        sys.exit(3)
    except click.ClickException as e:
        e.show()
        sys.exit(e.exit_code)
    except click.exceptions.Abort:
        sys.exit(3)
    except OSError as e:  # a report, model or log path that cannot be written or read
        click.echo(f"error: {e}", err=True)
        sys.exit(3)
    sys.exit(rv if isinstance(rv, int) else 0)


if __name__ == "__main__":
    main()
