"""Command-line front end: check, simulate, and edit with JSON reports.

Exit codes are a stable contract:

* ``check``   — 0 all safe, 1 any unsafe, 2 any unknown (none unsafe),
  3 usage, parse or I/O error.
* ``simulate`` — 0 run completed, 3 usage, parse or I/O error, 4 a scripted
  firing was disabled.
* ``edit``    — 0 patch applied, 1 ``--verify`` found a safe-to-not-safe
  regression, 3 any error (nothing is written when a check fails).

``edit`` checks the patch and the log before it writes, then replaces the
log and then the patched model, each through a temporary file in the same
directory and ``os.replace``, so a failed write leaves that file as it was
and no temporary file. Only a failed model write after the log write
leaves anything changed: the log then records a decision whose patched
model is not on disk (an earlier ``<stem>.patched.net`` stays as it was);
replaying the patch on the input model (``replay_log``) rebuilds it, with
the hash that the log entry names.

Reports are JSON with sorted keys; the ``wall_time_ms`` field is the only
non-deterministic part and must be excluded when diffing runs. A failure
prints ``error: `` and its message on stderr; a usage error is one line.
Every library error (a ``RespetriError``) exits 3, except a disabled
scripted firing (4).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import (
    DEFAULT_BOUND,
    ExplorationBound,
    Verdict,
    check_all_forbidden,
    check_forbidden,
    explore,
    find_cycles,
    pressure_map,
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
from .dsl import model_hash, parse_model, parse_patch, serialize_model
from .errors import (
    ParseFailure,
    RespetriError,
    ScriptedFiringDisabled,
    StructureFailure,
)
from .governance import (
    GovernanceLog,
    apply_patch,
    patch_report,
    record_decision,
)
from .net import NetModel

DEFAULT_LOG_PATH = "respetri-governance.jsonl"


class _Fail(Exception):
    """A command failure: `main` prints the message after `error: ` and exits with code."""

    def __init__(self, message: str, code: int = 3):
        super().__init__(message)
        self.code = code


def _read(path: str, what: str, parse):
    """parse() of the UTF-8 text at path; a failure to read or parse names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _Fail(f"cannot read {what} {path!r}: {e}")
    try:
        return parse(text)
    except (ParseFailure, StructureFailure) as e:
        details = "\n".join(f"  {path}:{err}" for err in e.errors)
        raise _Fail(f"{what} {path!r} does not parse:\n{details}")
    except RespetriError as e:  # a ratelimit macro that names no transition
        raise _Fail(f"{what} {path!r} does not parse: {e}")


def _replace(path: Path, text: str) -> None:
    """Write text to a temporary file beside path, then move it onto path: path
    holds its old content or the new, and the temporary file never stays."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as e:
        raise _Fail(f"cannot write {str(path)!r}: {e.strerror or e}")
    finally:
        if tmp.exists():  # False, not an error, when the parent is no directory
            tmp.unlink()


def _bound(args) -> ExplorationBound:
    return ExplorationBound(args.bound_states, args.bound_depth, args.bound_tokens)


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


def _emit_report(args, started: float, model: NetModel, parameters: dict, results: dict) -> None:
    report = {
        "version": __version__,
        "command": args.command,
        "model_hash": model_hash(model),
        "parameters": {"model": args.model, **parameters},
        "results": results,
        "wall_time_ms": round((time.monotonic() - started) * 1000, 3),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _count(text: str) -> int:
    """The value of --bound-* and --steps: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


# A command returns its model, its report parameters besides MODEL, its
# results and its exit code; `main` writes the report.

def cmd_check(args):
    """Verdict for one named forbidden predicate, or all of them."""
    model = _read(args.model, "model", parse_model)
    bound = _bound(args)
    if args.predicate:
        model.forbidden_predicate(args.predicate)
    pred = model.forbidden_predicate(args.pressure) if args.pressure else None
    checked = ({args.predicate: check_forbidden(model, args.predicate, bound)} if args.predicate
               else check_all_forbidden(model, bound))
    verdicts = {name: _verdict_json(v) for name, v in checked.items()}
    results: dict = {"verdicts": verdicts}
    if args.cycles:
        results["cycles"] = [list(c) for c in find_cycles(model)]
    if args.siphons:
        s, t = siphons_and_traps(model)
        results["siphons"] = [list(x) for x in s]
        results["traps"] = [list(x) for x in t]
    if pred is not None:
        graph = explore(model, bound)  # the verdicts' exploration, handed back by explore
        results["pressure"] = {"predicate": args.pressure,
                               "distance": pressure_map(graph, pred)[graph.root],
                               "truncated": graph.truncated}
    kinds = {v["kind"] for v in verdicts.values()}
    code = 1 if "unsafe" in kinds else 2 if "unknown" in kinds else 0
    parameters = {"predicate": args.predicate, "bound": {
        "states": args.bound_states, "depth": args.bound_depth, "tokens": args.bound_tokens}}
    return model, parameters, results, code


def _parse_policy(spec: str, seed: int):
    """The --policy of `simulate`; `simulate` checks the transitions it names."""
    if spec == "uniform":
        return UniformRandom(seed)
    kind, sep, rest = spec.partition(":")
    if kind not in ("priority", "scripted") or not sep:
        raise _Fail(f"bad --policy {spec!r}; use uniform, priority:t1,t2 or scripted:t1,t2")
    names = tuple(x for x in rest.split(",") if x)
    return Priority(names, seed) if kind == "priority" else Scripted(names)


def cmd_simulate(args):
    """Deterministic seeded run with audit alarms."""
    model = _read(args.model, "model", parse_model)
    pol = _parse_policy(args.policy, args.seed)
    bound = _bound(args)
    try:
        run = simulate(model, pol, args.steps, bound)
    except ScriptedFiringDisabled as e:
        raise _Fail(str(e), 4)
    results: dict = {"run": _run_json(run)}
    if args.pressure:
        drift = drift_report(model, run, args.pressure, bound)
        results["drift"] = {
            "predicate": args.pressure,
            "pressures": list(drift.pressures),
            "episodes": [list(ep) for ep in drift.episodes],
            "truncated": drift.truncated,
        }
    return model, {"steps": args.steps, "seed": args.seed, "policy": args.policy}, results, 0


def cmd_edit(args):
    """Apply a patch file, log the decision, write the patched model.

    The patched model lands next to the input as ``<stem>.patched.net``; the
    governance log path comes from $RESPETRI_LOG (when unset or empty,
    ``respetri-governance.jsonl`` in the working directory). The input model
    file is never modified.
    """
    model = _read(args.model, "model", parse_model)
    patch = _read(args.patch, "patch", parse_patch)
    bound = _bound(args)
    try:
        patched = apply_patch(model, patch)
        vreport = patch_report(model, patched, patch, bound if args.verify else None)
    except RespetriError as e:
        raise _Fail(f"patch failed: {e}")

    log_path = Path(os.environ.get("RESPETRI_LOG") or DEFAULT_LOG_PATH)
    try:
        log = (GovernanceLog.from_jsonl(log_path.read_text(encoding="utf-8"))
               if log_path.exists() else GovernanceLog())
        log = record_decision(log, model, patched, patch, vreport)
    except (RespetriError, UnicodeDecodeError) as e:
        raise _Fail(f"governance log update failed: {e}")

    out_path = Path(args.model).with_name(Path(args.model).stem + ".patched.net")
    _replace(log_path, log.to_jsonl())
    _replace(out_path, serialize_model(patched).text)

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
    if args.verify:
        results["verdicts_before"] = {n: _verdict_json(v)
                                      for n, v in vreport.verdicts_before}
        results["verdicts_after"] = {n: _verdict_json(v)
                                     for n, v in vreport.verdicts_after}
        results["states_before"] = vreport.states_before
        results["states_after"] = vreport.states_after
    code = 1 if args.verify and vreport.regressions else 0
    return model, {"patch": args.patch, "verify": args.verify}, results, code


class _Parser(argparse.ArgumentParser):
    """A usage error is a command failure, so it exits 3 with one `error:` line."""

    def error(self, message):
        raise _Fail(message)


class _CommandParser(_Parser):
    """Options and arguments in any order: the command dispatch passes no
    namespace and gets an intermixed parse, which calls back with one (plain
    argparse would leave PREDICATE empty in `check MODEL --cycles PRED`)."""

    def parse_known_args(self, args=None, namespace=None):
        if namespace is None:
            return self.parse_known_intermixed_args(args, argparse.Namespace())
        return super().parse_known_args(args, namespace)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="respetri", allow_abbrev=False, description=(
        "Reachability checking, simulation, and governed edits for token nets."))
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    # not required: argparse would report a missing command before an unknown option
    commands = parser.add_subparsers(dest="command", parser_class=_CommandParser)

    def command(run) -> argparse.ArgumentParser:
        """The subcommand `run` answers, with MODEL and the options every command shares."""
        sub = commands.add_parser(run.__name__.removeprefix("cmd_"), allow_abbrev=False,
                                  help=run.__doc__.splitlines()[0], description=run.__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
        sub.set_defaults(run=run)
        sub.add_argument("model", metavar="MODEL")
        for flag, default, what in (
                ("--bound-states", DEFAULT_BOUND.max_states, "State-count exploration bound"),
                ("--bound-depth", DEFAULT_BOUND.max_depth, "Depth (firing-count) bound"),
                ("--bound-tokens", DEFAULT_BOUND.max_tokens_per_place,
                 "Per-place token cap; successors beyond it are cut")):
            sub.add_argument(flag, type=_count, default=default, metavar="N",
                             help=f"{what} (default: %(default)s).")
        sub.add_argument("--report", metavar="PATH",
                         help="Write the JSON report to PATH instead of stdout.")
        return sub

    check = command(cmd_check)
    check.add_argument("predicate", metavar="PREDICATE", nargs="?")
    check.add_argument("--cycles", action="store_true", help="Include feedback cycles in the report.")
    check.add_argument("--siphons", action="store_true", help="Include minimal siphons and traps.")
    check.add_argument("--pressure", metavar="PREDICATE",
                       help="Include the initial marking's distance to PREDICATE.")

    sim = command(cmd_simulate)
    sim.add_argument("--steps", type=_count, default=20, metavar="N",
                     help="Firings to run (default: %(default)s).")
    sim.add_argument("--seed", type=int, default=0, help="Random seed (default: %(default)s).")
    sim.add_argument("--policy", default="uniform",
                     help="uniform | priority:t1,t2,... | scripted:t1,t2,... (default: %(default)s)")
    sim.add_argument("--pressure", metavar="PREDICATE",
                     help="Attach a drift report against PREDICATE.")

    edit = command(cmd_edit)
    edit.add_argument("patch", metavar="PATCH")
    edit.add_argument("--verify", action="store_true",
                      help="Compute before/after verdicts; exit 1 on a regression.")
    return parser


def main(argv=None):
    """Console entry point with the documented exit-code mapping."""
    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise _Fail("the following arguments are required: command")
        started = time.monotonic()
        if args.report:  # an unwritable report fails before `edit` writes anything
            report = Path(args.report)
            target = report if report.exists() else report.parent
            error = (errno.EISDIR if report.is_dir() else
                     errno.ENOENT if not target.exists() else
                     errno.ENOTDIR if not target.is_dir() and target != report else
                     None if os.access(target, os.W_OK) else errno.EACCES)
            if error:
                raise _Fail(f"cannot write {args.report!r}: {os.strerror(error)}")
        model, parameters, results, code = args.run(args)
        _emit_report(args, started, model, parameters, results)
    except _Fail as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(e.code)
    except (RespetriError, OSError) as e:  # a library error, or writing the report, the model or the log
        print(f"error: {e}", file=sys.stderr)
        sys.exit(3)
    except KeyboardInterrupt:
        sys.exit(3)
    sys.exit(code)


if __name__ == "__main__":
    main()
