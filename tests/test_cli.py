"""Command-line interface: exit codes, report determinism, file handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from respetri.dsl import MAX_NESTING

from oracles import nested_predicate

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "respetri" / "data"


def run_cli(*args, cwd, env=None):
    # The child runs in ``cwd``, where a relative PYTHONPATH entry such as
    # ``src`` no longer points at the checkout, so the checkout's ``src`` goes
    # first as an absolute path; entries already set stay after it.
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else []))
    return subprocess.run(
        [sys.executable, "-m", "respetri.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=full_env,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "traffic.net").write_text((DATA / "traffic.net").read_text())
    (tmp_path / "srs.net").write_text((DATA / "srs_symbolic.net").read_text())
    (tmp_path / "safeguards.patch").write_text(
        (DATA / "traffic_safeguards.patch").read_text())
    return tmp_path


def report_of(result, path=None):
    text = path.read_text() if path else result.stdout
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        stderr_tail = "\n".join(result.stderr.splitlines()[-10:])
        pytest.fail(
            f"report is not JSON ({exc}); the CLI exited "
            f"{result.returncode}, stderr ends:\n{stderr_tail}")


class TestCheck:
    def test_unsafe_exit_1_with_trace(self, workdir):
        r = run_cli("check", "traffic.net", cwd=workdir)
        assert r.returncode == 1
        rep = report_of(r)
        verdict = rep["results"]["verdicts"]["gridlock"]
        assert verdict["kind"] == "unsafe"
        assert verdict["trace"]["firings"]

    def test_safe_exit_0(self, workdir):
        run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir)
        r = run_cli("check", "traffic.patched.net", cwd=workdir)
        assert r.returncode == 0
        assert report_of(r)["results"]["verdicts"]["gridlock"]["kind"] == "safe"

    def test_unknown_exit_2(self, workdir):
        (workdir / "unbounded.net").write_text(
            "place p init 1\ntrans t in p:1 out p:1 counted\n"
            "forbidden f := #t >= 50\n")
        r = run_cli("check", "unbounded.net", "--bound-states", "30", cwd=workdir)
        assert r.returncode == 2
        assert report_of(r)["results"]["verdicts"]["f"]["kind"] == "unknown"

    def test_missing_file_exit_3(self, workdir):
        assert run_cli("check", "missing.net", cwd=workdir).returncode == 3

    def test_parse_error_exit_3_with_position(self, workdir):
        (workdir / "bad.net").write_text("place p\ntrans t in p:0\n")
        r = run_cli("check", "bad.net", cwd=workdir)
        assert r.returncode == 3
        assert "2:" in r.stderr

    def test_bad_macro_exit_3(self, workdir):
        (workdir / "macro.net").write_text("place p init 1\nratelimit ghost max 1 per 1\n")
        r = run_cli("check", "macro.net", cwd=workdir)
        assert r.returncode == 3
        assert r.stderr == ("error: model 'macro.net' does not parse: "
                            "ratelimit names unknown transition 'ghost'\n")

    @pytest.mark.parametrize("text", [
        'meta k "a"\nmeta k "b"\n',
        "place src init 3\nplace t__budget\ntrans t in src:1\nratelimit t max 1 per 2\n",
        "place src init 3\ntrans t in src:1\ntrans t__tick\nratelimit t max 1 per 2\n",
        "place p init 1\nplace q\ntrans t in p:1 out q:1\nmode a\n"
        "override a t := p >= 1\noverride a t := p >= 5\n",
        "place p\ntrans t counted\ntrans t counted\n",
    ], ids=["meta-key", "ratelimit-budget-place", "ratelimit-tick-transition", "override-twice",
            "counted-twice"])
    def test_duplicate_id_exit_3(self, workdir, text):
        (workdir / "dup.net").write_text(text)
        r = run_cli("check", "dup.net", cwd=workdir)
        assert r.returncode == 3 and r.stdout == ""
        lines = r.stderr.splitlines()
        assert [line for line in lines if line.startswith("error: ")] == ["error: model 'dup.net' does not parse:"]
        assert len(lines) == 2 and "DuplicateId" in lines[1]

    def test_unknown_predicate_exit_3(self, workdir):
        assert run_cli("check", "traffic.net", "ghost", cwd=workdir).returncode == 3

    def test_usage_error_exit_3(self, workdir):
        assert run_cli("check", "traffic.net", "--bogus", cwd=workdir).returncode == 3

    def test_options_and_arguments_in_any_order(self, workdir):
        r = run_cli("check", "--cycles", "traffic.net", "--bound-depth", "40", "gridlock",
                    cwd=workdir)
        assert r.returncode == 1
        rep = report_of(r)
        assert list(rep["results"]["verdicts"]) == ["gridlock"] and rep["results"]["cycles"]
        assert rep["parameters"]["bound"]["depth"] == 40

    def test_analysis_flags(self, workdir):
        r = run_cli("check", "traffic.net", "--cycles", "--siphons",
                    "--pressure", "gridlock", cwd=workdir)
        rep = report_of(r)
        assert ["p2", "t2", "p3", "t4", "p4", "t6"] in rep["results"]["cycles"]
        assert "siphons" in rep["results"] and "traps" in rep["results"]
        assert rep["results"]["pressure"]["distance"] == 5

    def test_report_written_to_file(self, workdir):
        out = workdir / "report.json"
        run_cli("check", "traffic.net", "--report", str(out), cwd=workdir)
        assert report_of(None, out)["command"] == "check"

    @pytest.mark.parametrize("option", ["--bound-states", "--bound-depth", "--bound-tokens"])
    def test_negative_bound_exit_3(self, workdir, option):
        r = run_cli("check", "traffic.net", option, "-5", cwd=workdir)
        assert r.returncode == 3
        assert option in r.stderr


@pytest.mark.parametrize("args", [
    (), ("chek", "traffic.net"), ("check",), ("edit", "traffic.net"),
    ("check", "traffic.net", "--workers", "2"), ("check", "traffic.net", "--bound-s", "5"),
    ("check", "traffic.net", "--bound-depth", "x"), ("check", "traffic.net", "--bound-tokens", "2.5"),
    ("simulate", "traffic.net", "--steps", "-1"), ("simulate", "traffic.net", "--steps", "1.5"),
    ("simulate", "traffic.net", "--seed", "x"), ("check", "traffic.net", "gridlock", "extra"),
])
def test_usage_errors_exit_3_with_one_line(workdir, args):
    r = run_cli(*args, cwd=workdir)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (("--vers",), "unrecognized arguments: --vers"),
    ((), "the following arguments are required: command"),
])
def test_usage_error_names_the_fault(workdir, args, message):
    r = run_cli(*args, cwd=workdir)
    assert r.returncode == 3
    assert r.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [("--help",), ("--version",), ("check", "--help"),
                                  ("simulate", "--help"), ("edit", "--help")])
def test_help_and_version_exit_0(workdir, args):
    r = run_cli(*args, cwd=workdir)
    assert r.returncode == 0 and r.stderr == ""
    assert "respetri" in r.stdout


def test_the_cli_runs_on_the_standard_library():
    r = subprocess.run([sys.executable, "-c",
                        "import respetri.cli, sys; assert 'click' not in sys.modules"],
                       env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_unreadable_model_exit_3_naming_it(workdir):
    (workdir / "latin1.net").write_bytes("place caf\xe9\n".encode("latin-1"))
    r = run_cli("check", "latin1.net", cwd=workdir)
    assert r.returncode == 3
    assert r.stderr.startswith("error: cannot read model 'latin1.net': ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_unwritable_report_exit_3(workdir, command):
    r = run_cli(command, "traffic.net", "--report", str(workdir / "missing" / "r.json"),
                cwd=workdir)
    assert r.returncode == 3
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


class TestSimulate:
    def test_zero_steps_exit_0(self, workdir):
        r = run_cli("simulate", "srs.net", "--steps", "0", cwd=workdir)
        assert r.returncode == 0
        assert report_of(r)["results"]["run"]["firings"] == []

    def test_same_seed_identical_modulo_wall_time(self, workdir):
        runs = []
        for _ in range(2):
            r = run_cli("simulate", "traffic.net", "--steps", "30",
                        "--seed", "11", cwd=workdir)
            rep = report_of(r)
            rep.pop("wall_time_ms")
            runs.append(rep)
        assert runs[0] == runs[1]

    def test_scripted_policy_and_alarms(self, workdir):
        r = run_cli("simulate", "srs.net", "--steps", "6",
                    "--policy", "scripted:tA,t2,tBad", cwd=workdir)
        assert r.returncode == 0
        rep = report_of(r)
        assert rep["results"]["run"]["firings"] == ["tA", "t2", "tBad"]

    def test_scripted_disabled_exit_4(self, workdir):
        r = run_cli("simulate", "srs.net", "--steps", "3",
                    "--policy", "scripted:tBad", cwd=workdir)
        assert r.returncode == 4

    @pytest.mark.parametrize("policy", ["priority:ghost", "scripted:ghost", "scripted:tA,ghost,t2,zz"])
    def test_policy_naming_unknown_transitions_exit_3(self, workdir, policy):
        r = run_cli("simulate", "srs.net", "--policy", policy, cwd=workdir)
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "'ghost'" in r.stderr and "'tA'" not in r.stderr
        assert ("'zz'" in r.stderr) == ("zz" in policy)

    def test_bad_policy_exit_3(self, workdir):
        r = run_cli("simulate", "srs.net", "--policy", "sideways", cwd=workdir)
        assert r.returncode == 3

    def test_pressure_drift_attached(self, workdir):
        r = run_cli("simulate", "srs.net", "--steps", "3",
                    "--policy", "scripted:tA,t2,tBad",
                    "--pressure", "bad_state", cwd=workdir)
        rep = report_of(r)
        assert rep["results"]["drift"]["pressures"] == [3, 2, 1, 0]


    def test_bounds_apply_to_audit_rules(self, workdir):
        (workdir / "pulse.net").write_text(
            "place p init 1\n"
            "trans t read p:1 counted\n"
            "forbidden hot := #t >= 3\n"
            "audit near := pressure hot within 1\n")
        r = run_cli("simulate", "pulse.net", "--steps", "80", "--bound-states", "50",
                    cwd=workdir)
        assert r.returncode == 0
        alarms = report_of(r)["results"]["run"]["alarms"]
        assert [a["step"] for a in alarms] == list(range(2, 50))


class TestEdit:
    def test_edit_verify_flow(self, workdir):
        env = {"RESPETRI_LOG": str(workdir / "gov.jsonl")}
        before = (workdir / "traffic.net").read_text()
        r = run_cli("edit", "traffic.net", "safeguards.patch", "--verify",
                    cwd=workdir, env=env)
        assert r.returncode == 0
        rep = report_of(r)
        assert rep["results"]["verdicts_before"]["gridlock"]["kind"] == "unsafe"
        assert rep["results"]["verdicts_after"]["gridlock"]["kind"] == "safe"
        assert (workdir / "traffic.patched.net").exists()
        assert (workdir / "traffic.net").read_text() == before  # input untouched
        log_lines = (workdir / "gov.jsonl").read_text().splitlines()
        assert len(log_lines) == 1
        entry = json.loads(log_lines[0])
        assert entry["post_hash"] == rep["results"]["post_hash"]

    def test_regression_exit_1(self, workdir):
        env = {"RESPETRI_LOG": str(workdir / "gov.jsonl")}
        run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir, env=env)
        (workdir / "weaken.patch").write_text(
            "set guard t6 none\nremove arc inhibit p3 t4\n")
        r = run_cli("edit", "traffic.patched.net", "weaken.patch", "--verify",
                    cwd=workdir, env=env)
        assert r.returncode == 1
        assert report_of(r)["results"]["regressions"] == ["gridlock"]

    def test_an_empty_log_variable_means_the_default_log(self, workdir):
        r = run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir, env={"RESPETRI_LOG": ""})
        assert r.returncode == 0, r.stderr
        assert len((workdir / "respetri-governance.jsonl").read_text().splitlines()) == 1

    def test_dangling_patch_exit_3_no_write(self, workdir):
        (workdir / "bad.patch").write_text("remove place p3\n")
        r = run_cli("edit", "traffic.net", "bad.patch", cwd=workdir,
                    env={"RESPETRI_LOG": str(workdir / "gov.jsonl")})
        assert r.returncode == 3
        assert not (workdir / "traffic.patched.net").exists()
        assert not (workdir / "gov.jsonl").exists()

    @pytest.mark.parametrize("log_text", ["not json\n", '{"timestamp": "x"}\n'])
    def test_corrupt_log_exit_3_no_write(self, workdir, log_text):
        log = workdir / "gov.jsonl"
        log.write_text(log_text)
        r = run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir,
                    env={"RESPETRI_LOG": str(log)})
        assert r.returncode == 3
        assert "line 1" in r.stderr and "Traceback" not in r.stderr
        assert not (workdir / "traffic.patched.net").exists()
        assert log.read_text() == log_text

    def test_undecodable_log_exit_3_no_write(self, workdir):
        log = workdir / "gov.jsonl"
        log.write_bytes(b"\xff\n")
        r = run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir,
                    env={"RESPETRI_LOG": str(log)})
        assert r.returncode == 3
        assert r.stderr.startswith("error: governance log update failed: ")
        assert "Traceback" not in r.stderr
        assert not (workdir / "traffic.patched.net").exists()

    def test_unreadable_log_exit_3(self, workdir):
        (workdir / "gov").mkdir()
        r = run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir,
                    env={"RESPETRI_LOG": str(workdir / "gov")})
        assert r.returncode == 3
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
        assert not (workdir / "traffic.patched.net").exists()

    def test_a_failed_log_write_leaves_nothing_behind(self, workdir):
        r = run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir,
                    env={"RESPETRI_LOG": "nodir/gov.jsonl"})
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert sorted(p.name for p in workdir.iterdir()) == ["safeguards.patch", "srs.net", "traffic.net"]

    @pytest.mark.parametrize("report, reason", [("nodir/r.json", "No such file or directory"),
                                                ("adir", "Is a directory")])
    def test_an_unwritable_report_fails_before_any_write(self, workdir, report, reason):
        (workdir / "adir").mkdir()
        r = run_cli("edit", "traffic.net", "safeguards.patch", "--report", report, cwd=workdir,
                    env={"RESPETRI_LOG": "gov.jsonl"})
        assert r.returncode == 3
        assert r.stdout == "" and r.stderr == f"error: cannot write {report!r}: {reason}\n"
        assert sorted(p.name for p in workdir.iterdir()) == [
            "adir", "safeguards.patch", "srs.net", "traffic.net"]
        assert list((workdir / "adir").iterdir()) == []

    def test_a_report_to_dev_null_is_written_and_the_edit_applied(self, workdir):
        r = run_cli("edit", "traffic.net", "safeguards.patch", "--report", os.devnull,
                    cwd=workdir, env={"RESPETRI_LOG": "gov.jsonl"})
        assert r.returncode == 0 and r.stdout == "" and r.stderr == ""
        assert (workdir / "traffic.patched.net").is_file() and (workdir / "gov.jsonl").is_file()
        assert not Path(os.devnull).is_file()

    def test_a_report_path_that_is_a_symlink_is_written_through(self, workdir):
        (workdir / "out").mkdir()
        (workdir / "r.json").symlink_to(workdir / "out" / "target.json")
        r = run_cli("edit", "traffic.net", "safeguards.patch", "--report", "r.json",
                    cwd=workdir, env={"RESPETRI_LOG": "gov.jsonl"})
        assert r.returncode == 0
        assert (workdir / "r.json").is_symlink()
        assert report_of(r, workdir / "out" / "target.json")["command"] == "edit"

    def test_a_failed_model_write_after_the_log_write_leaves_the_log_entry(self, workdir):
        (workdir / "traffic.patched.net").mkdir()
        r = run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir,
                    env={"RESPETRI_LOG": "gov.jsonl"})
        assert r.returncode == 3
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert sorted(p.name for p in workdir.iterdir()) == [
            "gov.jsonl", "safeguards.patch", "srs.net", "traffic.net", "traffic.patched.net"]
        assert (workdir / "traffic.patched.net").is_dir()
        assert len((workdir / "gov.jsonl").read_text().splitlines()) == 1

    def test_log_chain_grows(self, workdir):
        env = {"RESPETRI_LOG": str(workdir / "gov.jsonl")}
        run_cli("edit", "traffic.net", "safeguards.patch", cwd=workdir, env=env)
        (workdir / "cap.patch").write_text("set capacity p5 1\n")
        r = run_cli("edit", "traffic.patched.net", "cap.patch", cwd=workdir, env=env)
        assert r.returncode == 0
        lines = [json.loads(x) for x in
                 (workdir / "gov.jsonl").read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["post_hash"] == lines[1]["pre_hash"]


@pytest.mark.parametrize("args, exit_code", [(["check"], 1), (["simulate", "--pressure", "deep"], 0)])
def test_the_deepest_admitted_predicate_runs_and_one_level_more_is_exit_3(workdir, args, exit_code):
    # p1 starts with two tokens, so `deep` holds at the initial marking
    text = (workdir / "traffic.net").read_text()
    for depth in (MAX_NESTING - 1, MAX_NESTING):
        (workdir / f"deep{depth}.net").write_text(f"{text}forbidden deep := {nested_predicate(depth, 'p1')}\n")
    r = run_cli(*args, f"deep{MAX_NESTING - 1}.net", cwd=workdir)
    assert r.returncode == exit_code, r.stderr[-2000:]
    results = report_of(r)["results"]
    if args[0] == "check":
        assert results["verdicts"]["deep"]["kind"] == "unsafe"
    else:
        assert results["drift"]["predicate"] == "deep" and results["drift"]["pressures"][0] == 0
    r = run_cli(*args, f"deep{MAX_NESTING}.net", cwd=workdir)
    assert r.returncode == 3 and r.stdout == ""
    line = text.count("\n") + 1
    assert r.stderr.splitlines()[1:] == [f"  deep{MAX_NESTING}.net:{line}:1: predicate nested too deeply"]


@pytest.mark.parametrize("command", ["check", "simulate", "edit"])
def test_a_predicate_nested_too_deeply_is_a_parse_error_exit_3(workdir, command):
    # the parser recurses with each level; past the interpreter's limit the
    # line is a parse error, not a traceback with exit 1 ("unsafe")
    deep = f"{nested_predicate(300, 'p1')}\n"
    env = {"RESPETRI_LOG": str(workdir / "gov.jsonl")}
    if command == "edit":
        (workdir / "deep.patch").write_text(f"set guard t1 {deep}")
        r = run_cli("edit", "traffic.net", "deep.patch", cwd=workdir, env=env)
        name, line = "deep.patch", 1
    else:
        text = (workdir / "traffic.net").read_text()
        (workdir / "deep.net").write_text(f"{text}forbidden deep := {deep}")
        r = run_cli(command, "deep.net", cwd=workdir, env=env)
        name, line = "deep.net", text.count("\n") + 1
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr.splitlines()[1:] == [f"  {name}:{line}:1: predicate nested too deeply"]
    assert not (workdir / "traffic.patched.net").exists() and not (workdir / "gov.jsonl").exists()
