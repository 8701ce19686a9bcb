"""Command-line interface: artifacts, validation, determinism."""

import argparse
import csv
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from nanodr import cli, simulator, stackelberg
from nanodr.cli import main
from nanodr.domain import ConfigurationError, InvariantViolation
from nanodr.scenario_io import (SyntheticSpec, default_nanogrid_params,
                                synthetic_params)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_writes_consistent_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["run", "--slots", "24", "--out", str(out)])
    assert rc == 0
    # stdout is summary.txt, byte for byte.
    assert capsys.readouterr().out.encode() == _read(out / "summary.txt")
    assert (out / "summary.json").exists()
    assert (out / "series.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    profit = math.fsum(float(r["profit"]) for r in rows)
    assert profit == pytest.approx(summary["pme_profit_total_cent"],
                                   rel=1e-12, abs=1e-9)
    n = summary["nanogrids"]
    trade = 0.0
    for r in rows:
        p_s, p_b = float(r["p_s"]), float(r["p_b"])
        for i in range(n):
            tp = float(r[f"tp_{i + 1}"])
            trade += p_s * tp if tp >= 0 else p_b * tp
    assert trade == pytest.approx(summary["energy_cost_total_cent"],
                                  rel=1e-10, abs=1e-6)
    assert summary["comfort_violations"] == 0
    assert summary["battery_violations"] == 0


def _reference_csvs(report, traces, out_dir):
    """series.csv and traces.csv in their format, written row by row with
    csv.writer from the report and each slot's solver trace alone."""
    fmt = lambda x: repr(float(x))
    n = len(report.outcomes[0].followers)
    with open(out_dir / "series.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "p_s", "p_b", "y", "e_batt", "residual",
                         "profit", "converged", "iterations"]
                        + [f"t_{i + 1}" for i in range(n)]
                        + [f"e_{i + 1}" for i in range(n)]
                        + [f"tp_{i + 1}" for i in range(n)])
        for o in report.outcomes:
            writer.writerow(
                [str(o.slot), fmt(o.leader.p_s), fmt(o.leader.p_b),
                 fmt(o.leader.y), fmt(o.next_state.e_batt),
                 fmt(o.grid_residual), fmt(o.pme_profit),
                 str(int(o.converged)), str(o.iterations)]
                + [fmt(t) for t in o.next_state.t]
                + [fmt(f.e) for f in o.followers]
                + [fmt(f.tp) for f in o.followers])
    with open(out_dir / "traces.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "iter", "p_s", "p_b", "y", "g_ps", "g_pb",
                         "g_y", "step_s", "step_b", "step_y", "dist_s",
                         "dist_b", "dist_y"]
                        + [f"e_{i + 1}" for i in range(n)])
        for o, trace in zip(report.outcomes, traces, strict=True):
            for m, (*scalars, es) in enumerate(trace.records, start=1):
                writer.writerow(
                    [str(o.slot), str(m)] + [fmt(x) for x in scalars[:6]]
                    + [fmt(x) for x in stackelberg._step_sizes(m)]
                    + [fmt(x) for x in scalars[6:]]
                    + [fmt(e) for e in es])


def _traced_run(tmp_path, monkeypatch, flags):
    """``run --traces`` with ``flags``: its report, each slot's trace as the
    solver returned it, and its artifact directory."""
    reports, traces = [], []
    simulate, solve = cli.run, simulator.solve_slot

    def keep_report(*args, **kwargs):
        reports.append(simulate(*args, **kwargs))
        return reports[-1]

    def keep_trace(*args, **kwargs):
        solution = solve(*args, **kwargs)
        traces.append(solution.trace)
        return solution

    monkeypatch.setattr(cli, "run", keep_report)
    monkeypatch.setattr(simulator, "solve_slot", keep_trace)
    out = tmp_path / "tr"
    assert main(["run", *flags, "--out", str(out), "--traces"]) == 0
    return reports[0], traces, out


def _assert_reference_csvs(report, traces, out, tmp_path):
    ref = tmp_path / "ref"
    ref.mkdir()
    _reference_csvs(report, traces, ref)
    for name in ("series.csv", "traces.csv"):
        assert _read(out / name) == _read(ref / name)


def test_run_emits_traces_on_request(tmp_path, monkeypatch):
    report, traces, out = _traced_run(tmp_path, monkeypatch, ["--slots", "6"])
    with open(out / "traces.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert {"slot", "iter", "p_s", "g_ps", "dist_y"} <= set(rows[0])
    # Both files are byte-equal to the same rows written by csv.writer.
    _assert_reference_csvs(report, traces, out, tmp_path)


def test_traces_match_the_reference_when_the_draws_change_mid_slot(tmp_path,
                                                                   monkeypatch):
    # At n=20 the loop re-certifies its trust box inside a slot: records of
    # one box share a draws tuple, and the tuple changes between rows.
    report, traces, out = _traced_run(tmp_path, monkeypatch,
                                      ["--slots", "24", "--followers", "20"])
    draws = [[id(rec[-1]) for rec in trace.records] for trace in traces]
    assert any(1 < len(set(ids)) < len(ids) for ids in draws)
    _assert_reference_csvs(report, traces, out, tmp_path)


@pytest.mark.parametrize("error, code", [
    (InvariantViolation("injected"), 3),
    (ConfigurationError("injected"), 2),
])
def test_failed_traced_run_changes_no_artifact(error, code, tmp_path,
                                               monkeypatch, capsys):
    out = tmp_path / "tr"
    assert main(["run", "--slots", "6", "--out", str(out), "--traces"]) == 0
    before = {p.name: _read(p) for p in out.iterdir()}
    solve, calls = simulator.solve_slot, []

    def fail_mid_horizon(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise error
        return solve(*args, **kwargs)

    # Slots 0-2 reach the trace writer before slot 3 fails; another seed
    # would write other rows.
    monkeypatch.setattr(simulator, "solve_slot", fail_mid_horizon)
    forks = _count_forks(monkeypatch)
    assert main(["run", "--seed", "2", "--slots", "6", "--out", str(out),
                 "--traces"]) == code
    assert "injected" in capsys.readouterr().err
    assert {p.name: _read(p) for p in out.iterdir()} == before
    # The writer process was started, and it was reaped.
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    """The pids of the children this process forks from now on."""
    fork, forks = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_a_failed_writer_process_changes_no_artifact(tmp_path, monkeypatch,
                                                     capsys):
    out = tmp_path / "tr"
    assert main(["run", "--slots", "6", "--out", str(out), "--traces"]) == 0
    before = {p.name: _read(p) for p in out.iterdir()}
    parent, trace_rows = os.getpid(), cli._trace_rows

    def no_space(fh, n):
        # The writer process inherits this through the fork; only it fails.
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return trace_rows(fh, n)

    monkeypatch.setattr(cli, "_trace_rows", no_space)
    forks = _count_forks(monkeypatch)
    assert main(["run", "--seed", "2", "--slots", "6", "--out", str(out),
                 "--traces"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and os.strerror(errno.ENOSPC) in err
    assert "traces.csv" in err and "Traceback" not in err
    assert {p.name: _read(p) for p in out.iterdir()} == before
    assert not list(out.glob(".traces.csv.*.tmp"))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_writer_that_left_first_is_named_instead_of_the_broken_pipe(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "tr"
    assert main(["run", "--slots", "6", "--out", str(out), "--traces"]) == 0
    before = {p.name: _read(p) for p in out.iterdir()}
    parent, trace_rows = os.getpid(), cli._trace_rows

    def no_space(fh, n):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return trace_rows(fh, n)

    solve, write, broken = simulator.solve_slot, os.write, []

    def after_the_writer_left(*args, **kwargs):
        # Once forked, the writer has exited (unreaped) before the next
        # slot is solved, so that slot's send finds no reader.
        deadline = time.monotonic() + 60.0
        while forks and os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT
                                  | os.WNOHANG) is None:
            assert time.monotonic() < deadline, "the writer did not exit"
            time.sleep(0.001)
        return solve(*args, **kwargs)

    def counting_write(fd, data):
        try:
            return write(fd, data)
        except BrokenPipeError:
            broken.append(fd)
            raise

    monkeypatch.setattr(cli, "_trace_rows", no_space)
    monkeypatch.setattr(simulator, "solve_slot", after_the_writer_left)
    monkeypatch.setattr(os, "write", counting_write)
    forks = _count_forks(monkeypatch)
    assert main(["run", "--seed", "2", "--slots", "6", "--out", str(out),
                 "--traces"]) == 2
    assert len(broken) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and os.strerror(errno.ENOSPC) in err
    assert "traces.csv" in err and "Traceback" not in err
    assert {p.name: _read(p) for p in out.iterdir()} == before
    assert not list(out.glob(".traces.csv.*.tmp"))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_without_iterations_writes_the_header_and_forks_nothing(
        tmp_path, monkeypatch):
    solve = simulator.solve_slot
    monkeypatch.setattr(simulator, "solve_slot", lambda *args, **kwargs: solve(
        *args, **kwargs)._replace(trace=stackelberg.IterationTrace((), True)))
    forks = _count_forks(monkeypatch)
    out = tmp_path / "tr"
    assert main(["run", "--slots", "6", "--out", str(out), "--traces"]) == 0
    assert forks == []
    assert _read(out / "traces.csv").decode().split("\r\n") == [
        "slot,iter,p_s,p_b,y,g_ps,g_pb,g_y,step_s,step_b,step_y,dist_s,dist_b,"
        "dist_y,e_1,e_2,e_3,e_4,e_5", ""]


def test_traces_are_written_in_process_without_fork(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    report, traces, out = _traced_run(tmp_path, monkeypatch,
                                      ["--slots", "24", "--followers", "20"])
    assert any(trace.records for trace in traces)
    _assert_reference_csvs(report, traces, out, tmp_path)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the open files in /proc/self/fd")
def test_a_failed_fork_closes_its_pipe_and_changes_no_artifact(tmp_path,
                                                               monkeypatch,
                                                               capsys):
    out = tmp_path / "tr"
    assert main(["run", "--slots", "6", "--out", str(out), "--traces"]) == 0
    before = {p.name: _read(p) for p in out.iterdir()}

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    capsys.readouterr()
    open_files = len(os.listdir("/proc/self/fd"))
    assert main(["run", "--seed", "2", "--slots", "6", "--out", str(out),
                 "--traces"]) == 2
    assert len(os.listdir("/proc/self/fd")) == open_files
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {errno.EAGAIN}] ")
    assert os.strerror(errno.EAGAIN) in err and "Traceback" not in err
    assert {p.name: _read(p) for p in out.iterdir()} == before
    assert not list(out.glob(".traces.csv.*.tmp"))


def _env_with_src():
    """This environment, with the checkout's ``src`` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


_AFFINITY = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                               reason="no CPU affinity API")


def _record_writer_cpus(monkeypatch, path):
    """Have the writer process write the CPUs it may run on to ``path``,
    once it has placed itself."""
    parent, trace_rows = os.getpid(), cli._trace_rows

    def recording(fh, n):
        if os.getpid() != parent:
            path.write_text(" ".join(map(str, sorted(os.sched_getaffinity(0)))))
        return trace_rows(fh, n)

    monkeypatch.setattr(cli, "_trace_rows", recording)


def _cpus(path):
    return set(map(int, path.read_text().split()))


@_AFFINITY
def test_the_writer_runs_off_the_cpu_the_solver_forked_it_on(tmp_path,
                                                             monkeypatch):
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        pytest.skip("this process may run on one CPU only")
    this_cpu, read = cli._this_cpu, []
    monkeypatch.setattr(cli, "_this_cpu", lambda: read.append(this_cpu()) or read[-1])
    _record_writer_cpus(monkeypatch, tmp_path / "cpus")
    report, traces, out = _traced_run(tmp_path, monkeypatch,
                                      ["--slots", "24", "--followers", "20"])
    # Read once, just before the one fork, and a CPU this process may use.
    assert len(read) == 1 and read[0] in allowed
    writer = _cpus(tmp_path / "cpus")
    assert writer and read[0] not in writer
    assert writer == allowed - {read[0]}
    _assert_reference_csvs(report, traces, out, tmp_path)


@_AFFINITY
def test_a_writer_allowed_one_cpu_keeps_it(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    script = (
        "import os, sys\n"
        "from nanodr import cli\n"
        f"os.sched_setaffinity(0, {{{cpu}}})\n"
        "parent, trace_rows = os.getpid(), cli._trace_rows\n"
        "def recording(fh, n):\n"
        "    if os.getpid() != parent:\n"
        "        with open(sys.argv[1], 'w') as out:\n"
        "            out.write(' '.join(map(str, sorted(os.sched_getaffinity(0)))))\n"
        "    return trace_rows(fh, n)\n"
        "cli._trace_rows = recording\n"
        "sys.exit(cli.main(['run', '--slots', '24', '--traces', '--out', sys.argv[2]]))\n")
    one = tmp_path / "one"
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "cpus"), str(one)],
                   env=_env_with_src(), check=True, capture_output=True)
    assert _cpus(tmp_path / "cpus") == {cpu}
    here = tmp_path / "here"
    assert main(["run", "--slots", "24", "--traces", "--out", str(here)]) == 0
    for name in ("traces.csv", "series.csv", "summary.txt"):
        assert _read(one / name) == _read(here / name)


@_AFFINITY
def test_a_refused_affinity_leaves_the_writer_where_it_was(tmp_path, monkeypatch):
    plain = tmp_path / "plain"
    assert main(["run", "--slots", "24", "--traces", "--out", str(plain)]) == 0
    asked = tmp_path / "asked"

    def refuse(pid, cpus):
        asked.touch()
        raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    _record_writer_cpus(monkeypatch, tmp_path / "cpus")
    out = tmp_path / "tr"
    assert main(["run", "--slots", "24", "--traces", "--out", str(out)]) == 0
    assert _read(out / "traces.csv") == _read(plain / "traces.csv")
    allowed = os.sched_getaffinity(0)
    assert _cpus(tmp_path / "cpus") == allowed
    # The writer asked, unless this process may run on one CPU only.
    assert asked.exists() == (len(allowed) > 1)


# SHA-256 of stdout and of every artifact of three commands on each
# committed example scenario, keyed by its file and then by the command:
# n=2 over 24 slots, whose traces.csv has 110 rows over 7 free slots, and
# n=20 over 48 slots, with 1,882 rows over 12.  These bytes come from IEEE
# arithmetic (every square is a product), math.fsum and float repr alone,
# so they should hold wherever CPython runs; they were taken on Python
# 3.11, x86-64 and glibc only.
_EXAMPLE_DIGESTS = {
    "docs/example_scenario.csv": {
        ("run", "--traces"): {
            "stdout": "24eb0fd3059a235e4ec8c6e4a7d7381ee427c13c78c75fb0ccfcc72278bfba31",
            "series.csv": "c4ad99ca2179a2ba933c615b6758ccc9b79be31a4f9e45b421c547974b212f63",
            "summary.json": "bb84c93a83f4bc6784411ad2ac80ea02d4caa870de4f2255ed23c3f69cc505c5",
            "summary.txt": "24eb0fd3059a235e4ec8c6e4a7d7381ee427c13c78c75fb0ccfcc72278bfba31",
            "traces.csv": "06762a397b9ef7b45d573a78212b1b141fb2854b2440b6de374446a5497b2a3f",
        },
        ("compare",): {
            "stdout": "1d9842dd12faf0e7c35d7f0eae6474f9bad50e871c52b2842f831222eb04daeb",
            "comparison.csv": "3725d844467f8ee7263edfe415d56079a4ce86a7f61c0b7a8f34ae35364607ff",
        },
        ("sweep", "--param", "gamma", "--values", "0.005,0.01,0.02"): {
            "stdout": "e3054782b427186a7afab4d21e4687591a5c235cb95a2657acc3ff5242b97731",
            "sweep.csv": "0addb4a5734287e34cadea0633d0c1ea32679996eced7b147b679f746b8ccb72",
        },
    },
    "docs/example_scenario_n20.csv": {
        ("run", "--traces"): {
            "stdout": "6819fc1d2af1c4b02d4d57510bde269e79fb380d288cb8820b6b126d35840813",
            "series.csv": "88d10db90d4e9865f763b3f46ecb55dcd5d04e09967cc19d9a7f778ceb5d5cec",
            "summary.json": "600eceaef2cb78f0a8a205f27402e913d86dcef9f0d7bddcc36a1749f5eeb765",
            "summary.txt": "6819fc1d2af1c4b02d4d57510bde269e79fb380d288cb8820b6b126d35840813",
            "traces.csv": "42b62b9c0ea64ad8ae13fe7246b9c44787e356215c46634aa52c93d16d1ab683",
        },
        ("compare",): {
            "stdout": "3ea3774d3a242fe43016c848ab4cd48cb6098de8d673de2c938248947af2e7a2",
            "comparison.csv": "d7bf25db75e0e23eed82993cd4907f09893cd09229e9d836db4c11d313450679",
        },
        ("sweep", "--param", "gamma", "--values", "0.005,0.01,0.02"): {
            "stdout": "985a5da23f84dc3dbb28c4e21c41afd743a74f5a8869c136e7d7786fd94ebb8e",
            "sweep.csv": "6551eb0f5d4db70aa7e368e018c2fc2238a99f2756c8ae23df1927078ff7680f",
        },
    },
}


@pytest.mark.parametrize("scenario, command", [
    pytest.param(scenario, command,
                 id=command[0] + ("-n20" if scenario.endswith("_n20.csv") else ""))
    for scenario, commands in _EXAMPLE_DIGESTS.items() for command in commands])
def test_example_scenario_artifacts_are_pinned_byte_for_byte(scenario, command,
                                                             tmp_path, monkeypatch,
                                                             capsys):
    # summary.txt names the scenario path as given: run from the checkout.
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    out = tmp_path / "out"
    assert main([*command, "--scenario", scenario, "--out", str(out)]) == 0
    sha = lambda data: hashlib.sha256(data).hexdigest()
    digests = {"stdout": sha(capsys.readouterr().out.encode())}
    digests.update((p.name, sha(_read(p))) for p in out.iterdir()
                   if p.name != "timing.csv")
    assert digests == _EXAMPLE_DIGESTS[scenario][command]


def test_traced_run_memory_does_not_grow_with_the_horizon(tmp_path):
    _assert_traced_memory_does_not_grow(tmp_path)


def test_in_process_traced_run_memory_does_not_grow_with_the_horizon(
        tmp_path, monkeypatch):
    # Without os.fork the rows are formatted in this process too.
    monkeypatch.delattr(os, "fork")
    _assert_traced_memory_does_not_grow(tmp_path)


def _assert_traced_memory_does_not_grow(tmp_path):
    # The generator imports NumPy on first use; a warm-up run does that and
    # fills the process's caches, so neither measured run pays for them.
    import numpy  # noqa: F401

    argv = ["run", "--followers", "5", "--slots", "120", "--out"]
    assert main([*argv, str(tmp_path / "warm")]) == 0

    def peak_mb(*extra):
        tracemalloc.start()
        try:
            assert main([*argv, *extra]) == 0
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    untraced = peak_mb(str(tmp_path / "plain"))
    traced = peak_mb(str(tmp_path / "traced"), "--traces")
    # Holding the horizon's iteration records costs about 1.9 MB here;
    # streaming each slot's rows costs about 0.01 MB.
    assert traced - untraced < 0.5, (traced, untraced)


def test_importing_the_cli_leaves_numpy_unloaded():
    code = "import sys, nanodr.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=_env_with_src(), check=True)


def test_check_bounds_prints_without_artifacts(tmp_path, capsys):
    rc = main(["check-bounds", "--slots", "12"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "v_max" in text
    assert "theta_floor" in text


def test_n_sweep_profit_nondecreasing(tmp_path):
    out = tmp_path / "nsw"
    rc = main(["sweep", "--slots", "24", "--param", "n", "--values", "1,3,5",
               "--out", str(out)])
    assert rc == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    profits = [float(r["trading_profit"]) for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(profits, profits[1:]))
    with open(out / "timing.csv") as fh:
        timing = list(csv.DictReader(fh))
    assert len(timing) == 3
    assert all(float(r["wall_time_s"]) > 0.0 for r in timing)


def test_invalid_override_rejected_naming_bound(tmp_path, capsys):
    rc = main(["run", "--slots", "6", "--v-i", "50.0", "--out",
               str(tmp_path / "x")])
    assert rc == 2
    assert "maximum stabilizing weight" in capsys.readouterr().err


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--slots", "24", "--out", str(a)]) == 0
    assert main(["run", "--slots", "24", "--out", str(b)]) == 0
    for name in ("summary.txt", "summary.json", "series.csv"):
        assert _read(a / name) == _read(b / name)


def test_compare_table_rows_and_blanks(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--slots", "12", "--followers", "2", "--out",
               str(out), "--cases", "1,4,5"])
    assert rc == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["case"] for r in rows] == ["1", "4", "5"]
    welfare = rows[-1]
    assert welfare["trading_profit"] == ""
    assert welfare["energy_cost"] == ""
    assert welfare["discomfort_cost"] != ""
    assert welfare["aggregate_cost"] != ""


_EXAMPLE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "docs", "example_scenario.csv")


def test_compare_reports_each_case_violations(tmp_path, capsys):
    # Every comfort target above t_max = 77: the fixed-point cases track it
    # out of the band, which they count rather than refuse; the proposed
    # case keeps the band.
    with open(_EXAMPLE, newline="") as fh:
        rows = list(csv.reader(fh))
    hot = [rows[0]] + [[("79.5" if name.startswith("t_opt_") else cell)
                        for name, cell in zip(rows[0], row)] for row in rows[1:]]
    scenario = tmp_path / "hot.csv"
    with open(scenario, "w", newline="") as fh:
        csv.writer(fh).writerows(hot)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario), "--cases", "1,2,4",
                 "--out", str(out)]) == 0
    with open(out / "comparison.csv") as fh:
        table = list(csv.DictReader(fh))
    assert [(r["case"], r["comfort_violations"], r["battery_violations"])
            for r in table] == [("1", "19", "0"), ("2", "19", "0"), ("4", "0", "0")]
    # The console table carries the same columns.
    header = capsys.readouterr().out.splitlines()[0].split()
    assert header[-2:] == ["comfort_violations", "battery_violations"]


def test_compare_single_case(tmp_path):
    out = tmp_path / "one"
    rc = main(["compare", "--slots", "6", "--followers", "1", "--out",
               str(out), "--cases", "proposed"])
    assert rc == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["name"] == "PROPOSED"


@pytest.mark.parametrize("cases, named", [
    ("1,1", "1 (FIXED_POINT_FORECAST_PRICE)"),
    ("1, FIXED_POINT_FORECAST_PRICE", "1 (FIXED_POINT_FORECAST_PRICE)"),
    ("proposed,3,4", "4 (PROPOSED)"),
], ids=["by-number", "by-name", "apart"])
def test_compare_refuses_a_case_named_twice(cases, named, tmp_path, capsys):
    # A repeated case would run twice and write the same row twice.
    out = tmp_path / "twice"
    rc = main(["compare", "--slots", "4", "--followers", "2", "--out",
               str(out), "--cases", cases])
    assert rc == 2
    assert capsys.readouterr().err == f"error: case {named} named twice\n"
    assert not out.exists()


def test_sweep_writes_rows_and_skips_bad_values(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--slots", "6", "--followers", "1", "--param", "t_max",
               "--values", "77,66.5", "--out", str(out)])
    assert rc == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("skipped")
    assert "assumption" in rows[1]["status"]
    assert (out / "timing.csv").exists()


@pytest.mark.parametrize("values, named", [
    ("abc", "'abc'"),
    ("0.01,x", "'x'"),
])
def test_sweep_non_numeric_value_is_a_usage_error(values, named, tmp_path,
                                                  capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--slots", "4", "--followers", "1", "--param", "gamma",
               "--values", values, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"sweep value {named} is not a number" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("param", ["gamma", "epsilon", "t_min", "t_max"])
def test_sweep_nan_value_is_a_usage_error(param, tmp_path, capsys):
    # nan != nan, so a repeat check alone would let "nan,nan" through.
    out = tmp_path / "sw"
    rc = main(["sweep", "--slots", "4", "--followers", "1", "--param", param,
               "--values", "nan,nan", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: sweep value 'nan' is not a number\n"
    assert not out.exists()


def test_sweep_on_a_missing_scenario_makes_no_directory(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--scenario", str(tmp_path / "missing.csv"), "--param",
               "gamma", "--values", "0.01", "--out", str(out)])
    assert rc == 2
    assert "missing.csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", ["0.01,0.01,1e-2", "0.01,0.02,1e-2"])
def test_sweep_refuses_a_value_given_twice(values, tmp_path, capsys):
    # Values compare as numbers: a repeat would write the same row twice.
    out = tmp_path / "sw"
    rc = main(["sweep", "--slots", "4", "--followers", "1", "--param", "gamma",
               "--values", values, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: sweep value 0.01 given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("given, swept, flag", [
    (["--followers", "2", "--gamma", "0.5"], "gamma", "--gamma"),
    (["--followers", "7"], "n", "--followers"),
    (["--followers", "2", "--t-min", "60"], "t_min", "--t-min"),
    ("gamma = 0.5", "gamma", "--gamma"),
    ("followers = 7", "n", "--followers"),
], ids=["gamma", "n", "t_min", "gamma-config", "n-config"])
def test_sweep_refuses_the_swept_parameters_own_flag(given, swept, flag,
                                                     tmp_path, capsys):
    # The swept values come from --values alone: the parameter's own flag
    # or --config key would be silently overridden, so it is refused
    # before --out is made.
    if isinstance(given, str):
        config = tmp_path / "sweep.cfg"
        config.write_text(given + "\n")
        given = ["--config", str(config)]
    out = tmp_path / "sw"
    rc = main(["sweep", "--slots", "4", *given, "--param", swept, "--values",
               "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {flag} sets the swept parameter {swept}; give it in --values "
        f"only\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "2.5", "-1"])
def test_n_sweep_rejects_a_non_count(value, tmp_path, capsys):
    # A valid value first: every value is checked before any is run.
    rc = main(["sweep", "--slots", "4", "--param", "n", "--values", f"1,{value}",
               "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "n must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_n_sweep_on_a_scenario_file_makes_no_directory(tmp_path, capsys):
    scenario = tmp_path / "scen.csv"
    assert main(["gen-scenario", "--slots", "4", "--followers", "2",
                 "--out", str(scenario)]) == 0
    rc = main(["sweep", "--scenario", str(scenario), "--param", "n",
               "--values", "1", "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "the n sweep needs a synthetic scenario" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_sweep_artifact_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--slots", "12", "--followers", "2", "--param", "gamma",
            "--values", "0.005,0.01"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read(a / "sweep.csv") == _read(b / "sweep.csv")


def test_config_file_supplies_the_sweep_parameter_and_values(tmp_path):
    # param and values are keys like any other, so the file alone can
    # name the sweep; it writes what the same flags write.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("param = gamma\nvalues = 0.005,0.01\n")
    common = ["--slots", "4", "--followers", "2"]
    from_file, from_flags = tmp_path / "file", tmp_path / "flags"
    assert main(["sweep", "--config", str(cfg), *common, "--out",
                 str(from_file)]) == 0
    assert main(["sweep", *common, "--param", "gamma", "--values", "0.005,0.01",
                 "--out", str(from_flags)]) == 0
    assert _read(from_file / "sweep.csv") == _read(from_flags / "sweep.csv")


@pytest.mark.parametrize("given, missing", [
    (["--values", "0.01"], "param"),
    (["--param", "gamma"], "values"),
    ([], "param"),
])
def test_sweep_without_param_or_values_makes_no_directory(given, missing,
                                                          tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--slots", "4", "--followers", "2", *given, "--out",
               str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: sweep needs --{missing}, on the command line or as "
        f"{missing} = ... in --config\n")
    assert not out.exists()


def test_gen_scenario_roundtrip(tmp_path):
    path = tmp_path / "scen.csv"
    assert main(["gen-scenario", "--seed", "5", "--slots", "8", "--followers",
                 "2", "--out", str(path)]) == 0
    out = tmp_path / "fromfile"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slots"] == 8
    assert summary["source"].startswith("file:")


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "nanodr.cfg"
    cfg.write_text("slots = 6\nfollowers = 1\n# comment\nseed = 5\n")
    out = tmp_path / "cfg_run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slots"] == 6
    assert summary["source"] == "synthetic:seed=5"
    # Explicit flags beat the config file.
    out2 = tmp_path / "cfg_run2"
    assert main(["run", "--config", str(cfg), "--slots", "4", "--out",
                 str(out2)]) == 0
    assert json.loads((out2 / "summary.json").read_text())["slots"] == 4


def test_config_file_with_a_byte_order_mark(tmp_path):
    # Spreadsheet tools and Windows Notepad start a UTF-8 file with a BOM.
    text = "slots = 6\nfollowers = 2\ngamma = 0.02\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text)
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for cfg in (plain, bom):
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / cfg.stem)]) == 0
    for name in ("summary.txt", "series.csv"):
        assert _read(tmp_path / "bom" / name) == _read(tmp_path / "plain" / name)


def test_config_file_supplies_string_flags(tmp_path):
    out = tmp_path / "from_file"
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(f"out = {out}\ncases = 1,2\nslots = 6\nfollowers = 1\n")
    assert main(["compare", "--config", str(cfg)]) == 0
    with open(out / "comparison.csv") as fh:
        assert [r["case"] for r in csv.DictReader(fh)] == ["1", "2"]
    # An explicit --out beats the file's.
    explicit = tmp_path / "explicit"
    assert main(["compare", "--config", str(cfg), "--out", str(explicit)]) == 0
    assert (explicit / "comparison.csv").exists()
    assert sorted(os.listdir(out)) == ["comparison.csv"]


def test_config_file_flag_and_bad_value(tmp_path, capsys):
    cfg = tmp_path / "flag.cfg"
    cfg.write_text("traces = true\nslots = 2\nfollowers = 1\n")
    traced = tmp_path / "traced"
    assert main(["run", "--config", str(cfg), "--out", str(traced)]) == 0
    assert (traced / "traces.csv").exists()
    capsys.readouterr()
    out = tmp_path / "nothing"
    # A value the flag's own type rejects is a usage error (exit 2).
    for text, named in (("gamma = abc\n", "--gamma"),
                        ("traces = maybe\n", "traces")):
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    assert not out.exists()


def test_cooling_mode_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "cooling", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    cfg = tmp_path / "cool.cfg"
    cfg.write_text("mode = cooling\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"{cfg}:1: unknown key 'mode'" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("slots = 4\nfollowers = 1\nslots = 6\n", "slots"),
    # Both spellings name the same key.
    ("no-polish = true\n# again\nno_polish = false\n", "no_polish"),
], ids=["slots", "no_polish"])
def test_config_key_given_twice_is_refused(text, key, tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: {cfg}:3: {key} given twice, on lines 1 and 3\n")
    assert not out.exists()


def test_non_finite_scenario_value_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "scen.csv"
    assert main(["gen-scenario", "--slots", "6", "--followers", "2", "--out",
                 str(path)]) == 0
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[4].split(",")
    row[header.index("g_t")] = "inf"
    lines[4] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'g_t' is not finite at slot 3" in capsys.readouterr().err


def test_conflicting_scenario_sources_rejected(tmp_path, capsys):
    path = tmp_path / "scen.csv"
    assert main(["gen-scenario", "--slots", "4", "--followers", "1", "--out",
                 str(path)]) == 0
    rc = main(["run", "--scenario", str(path), "--seed", "3", "--out",
               str(tmp_path / "o")])
    assert rc == 2
    assert "exactly one scenario source" in capsys.readouterr().err


def test_scenario_error_is_actionable(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("slot,m_s\n0,1\n")
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing columns" in capsys.readouterr().err


@pytest.mark.parametrize("verb, extra", [
    ("run", []),
    ("compare", ["--cases", "1"]),
    ("sweep", ["--param", "gamma", "--values", "0.01"]),
    ("gen-scenario", []),
])
def test_unwritable_out_is_a_usage_error(verb, extra, tmp_path, monkeypatch,
                                         capsys):
    # An artifact path that cannot be created exits 2 with one error line,
    # not a traceback under exit 1 (the bound-violation code), before any
    # slot is solved.
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a slot was solved")

    monkeypatch.setattr(cli, "run", refuse)
    monkeypatch.setattr(cli, "run_case", refuse)
    rc = main([verb, "--slots", "4", "--followers", "1", "--out", ""] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag, field", [
    ("--theta", "theta"),
    ("--v-p", "v_p"),
    ("--gamma", "gamma"),
    ("--epsilon", "epsilon"),
    ("--l-max", "l_max"),
    ("--c-b", "c_b"),
    ("--batt-min", "e_min"),
    ("--v-i", "v_i"),
    ("--gamma-shift", "gamma_shift"),
    ("--rho", "rho"),
    ("--min-gap", "min_gap"),
])
def test_nan_override_is_a_usage_error(flag, field, tmp_path, capsys):
    # Every range check is a comparison, which NaN passes; the records
    # reject it by name before anything runs.
    out = tmp_path / "o"
    rc = main(["run", "--slots", "4", "--followers", "2", flag, "nan",
               "--out", str(out)])
    assert rc == 2
    assert f"error: {field} must be a number, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_interchange_limit_still_runs(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--slots", "4", "--followers", "2", "--l-max", "inf",
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["comfort_violations"] == 0


@pytest.mark.parametrize("flag, value, field", [
    ("--v-p", "inf", "v_p"),
    ("--v-p", "-inf", "v_p"),
    ("--v-i", "inf", "v_i"),
    ("--v-i", "-inf", "v_i"),
    ("--c-b", "inf", "c_b"),
    ("--gamma", "inf", "gamma"),
    ("--batt-max", "inf", "e_max_cap"),
    ("--batt-min", "-inf", "e_min"),
    ("--t-max", "inf", "t_max"),
    ("--t-min", "-inf", "t_min"),
])
def test_infinite_override_names_its_field(flag, value, field, tmp_path, capsys):
    # An infinite value passes the range checks and would turn a derived
    # window into nan; the record refuses it under the flag's own field.
    # ``flag=value`` keeps argparse from reading "-inf" as an option.
    out = tmp_path / "o"
    rc = main(["run", "--slots", "2", "--followers", "2", f"{flag}={value}",
               "--out", str(out)])
    assert rc == 2
    assert f"error: {field} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_a_scenario_file_carries_no_buildings(tmp_path):
    # A generated file keeps the series but not the buildings' epsilon, so
    # the file path and the seed path play different games.  ROADMAP item 8
    # has the file carry its buildings; the first assertion then changes on
    # purpose.
    path = str(tmp_path / "s.csv")
    assert main(["gen-scenario", "--seed", "1", "--out", path]) == 0

    def setup(*flags):
        return cli.Setup(cli.build_parser().parse_args(["run", *flags]))

    from_file, from_seed = setup("--scenario", path), setup("--seed", "1")
    assert all(p == default_nanogrid_params(0.955) for p in from_file.ng_params)
    assert len(from_file.ng_params) == from_file.scenario.n == 5
    assert from_seed.ng_params == list(synthetic_params(SyntheticSpec(seed=1)))
    assert from_file.ng_params != from_seed.ng_params
    # --epsilon sets every building on both paths.
    for flags in (("--scenario", path), ("--seed", "1")):
        assert all(p.epsilon == 0.95
                   for p in setup(*flags, "--epsilon", "0.95").ng_params)


@pytest.mark.parametrize("verb", ["run", "compare", "check-bounds", "gen-scenario",
                                  "sweep"])
def test_negative_seed_is_a_configuration_error(verb, tmp_path, monkeypatch, capsys):
    # NumPy refuses a negative seed with a traceback; the spec names it first.
    monkeypatch.chdir(tmp_path)
    extra = ["--param", "gamma", "--values", "0.01"] if verb == "sweep" else []
    out = [] if verb == "check-bounds" else ["--out", "o"]
    # No swept value can cure the seed, so the sweep refuses it up front too.
    rc = main([verb, "--seed", "-1", "--slots", "4"] + out + extra)
    assert rc == 2
    assert capsys.readouterr().err == "error: need seed >= 0, got seed=-1\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb, extra", [
    ("run", []),
    ("compare", ["--cases", "1,4,5"]),
    ("check-bounds", []),
    ("sweep", ["--param", "gamma", "--values", "0.01"]),
])
def test_binding_interchange_limit_is_a_configuration_error(verb, extra, tmp_path,
                                                            capsys):
    # The comfort certificate needs l_max to leave the draw box at
    # [0, e_max]; a binding limit is refused before anything runs (a sweep
    # whose every row it refuses included).
    out = ["--out", str(tmp_path / "o")] if verb != "check-bounds" else []
    rc = main([verb, "--slots", "48", "--followers", "6", "--l-max", "2.5"]
              + out + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: l_max=2.5 binds the draw box of nanogrid 0 at slot ")
    assert not (tmp_path / "o").exists()


def test_binding_interchange_limit_names_the_limit_that_runs(tmp_path, capsys):
    # One ulp below the tightest limit of the seed-3 week, the refusal names
    # that tightest limit, and run accepts it.
    rc = main(["run", "--seed", "3", "--l-max", "6.358229958946733",
               "--out", str(tmp_path / "below")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: l_max=6.358229958946733 binds the draw box "
                          "of nanogrid 1 at slot 44: ")
    assert err.endswith("; the smallest l_max accepted for nanogrid 1 in "
                        "every slot is 6.358229958946734\n")
    assert main(["run", "--seed", "3", "--l-max", "6.358229958946734",
                 "--out", str(tmp_path / "edge")]) == 0


@pytest.mark.parametrize("fault, swept, message", [
    (["--rho", "0"], ["gamma", "0.01,0.02"], "rho must be positive, got 0.0"),
    (["--c-b", "-1"], ["epsilon", "0.95"], "c_b must be nonnegative, got -1.0"),
    (["--max-iters", "0"], ["n", "1"], "max_iters must be >= 1, got 0"),
    (["--v-p", "1e9"], ["gamma", "0.01"],
     "aggregator: v_p=1000000000.0 exceeds the maximum stabilizing weight"),
], ids=["rho", "c_b", "max_iters", "v_p"])
def test_sweep_refuses_a_fault_no_value_cures(fault, swept, message, tmp_path,
                                              monkeypatch, capsys):
    # A solver, battery or control flag that refuses every row is refused
    # as run refuses it: exit 2, run's message and no --out.
    monkeypatch.chdir(tmp_path)
    shape = ["--slots", "4", "--followers", "2"]
    assert main(["run", *shape, *fault, "--out", "r"]) == 2
    want = capsys.readouterr().err
    assert want.startswith(f"error: {message}") and want.count("\n") == 1
    param, values = swept
    if param == "n":  # --followers is the n sweep's own flag
        shape = shape[:2]
    rc = main(["sweep", *shape, *fault, "--param", param, "--values", values,
               "--out", "o"])
    assert rc == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "o").exists()


def _scenario_with_band(tmp_path, width, slots=None):
    """A generated 4-slot, 2-nanogrid scenario whose grid band is ``width``
    wide at the listed slots (every slot when None)."""
    path = tmp_path / "band.csv"
    assert main(["gen-scenario", "--slots", "4", "--followers", "2", "--out",
                 str(path)]) == 0
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for k in range(4) if slots is None else slots:
        row = lines[k + 1].split(",")
        row[header.index("m_s")] = repr(float(row[header.index("m_b")]) + width)
        lines[k + 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("verb, extra", [
    ("run", ["--out", "o"]),
    ("compare", ["--out", "o", "--cases", "1,2"]),
    ("check-bounds", []),
    ("sweep", ["--out", "o", "--param", "gamma", "--values", "0.01"]),
])
def test_band_narrower_than_min_gap_is_refused_before_any_slot(
        verb, extra, tmp_path, monkeypatch, capsys):
    # Only slot 2 is narrow: the error names it and min_gap, and nothing is
    # solved first (the sweep's only row is refused, so the sweep is too).
    path = _scenario_with_band(tmp_path, 0.005, slots=[2])
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a slot was solved")

    monkeypatch.setattr(cli, "run", refuse)
    monkeypatch.setattr(cli, "run_case", refuse)
    rc = main([verb, "--scenario", str(path)] + extra)
    want = "grid price band [3.0, 3.005] at slot 2 narrower than min_gap=0.01"
    assert rc == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not (tmp_path / "o").exists()
    # A synthetic scenario with a min_gap wider than every band: slot 0.
    rc = main([verb, "--slots", "4", "--followers", "2", "--min-gap", "1000"]
              + extra)
    err = capsys.readouterr().err
    assert rc == 2
    assert "at slot 0 narrower than min_gap=1000.0" in err
    assert not (tmp_path / "o").exists()


def test_cases_without_posted_prices_ignore_the_band(tmp_path, capsys):
    path = _scenario_with_band(tmp_path, 0.005, slots=[2])
    assert main(["compare", "--scenario", str(path), "--cases", "1,5",
                 "--out", str(tmp_path / "o")]) == 0
    assert main(["compare", "--scenario", str(path), "--cases", "1,5,4",
                 "--out", str(tmp_path / "o4")]) == 2
    assert "at slot 2 narrower than min_gap" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--gamma", "0"], ["--c-b", "0", "--v-i", "0.1"]])
def test_flat_envelope_is_named_as_a_band(extra, tmp_path, capsys):
    # m_s == m_b in every slot would make the certified weights infinite;
    # the band check names the cause first.
    path = _scenario_with_band(tmp_path, 0.0)
    assert main(["check-bounds", "--scenario", str(path)] + extra) == 2
    assert capsys.readouterr().err == (
        "error: grid price band [3.0, 3.0] at slot 0 narrower than min_gap=0.01\n")


@pytest.mark.parametrize("extra, named", [
    (["--gamma", "0"], "nanogrid 0: the price envelope is flat (every m_s and "
                       "m_b equal), so the maximum stabilizing weight v_max is "
                       "unbounded; set --v-i"),
    (["--c-b", "0", "--v-i", "0.1"],
     "aggregator: the price envelope is flat (every m_s and m_b equal), so the "
     "maximum stabilizing weight v_p_max is unbounded; set --v-p"),
])
def test_flat_envelope_default_weight_names_the_flag(extra, named, tmp_path,
                                                     capsys):
    # Cases 1 and 5 post no prices, so no band check runs; with gamma = 0
    # (or c_b = 0) a flat envelope leaves the default weight unbounded.
    path = _scenario_with_band(tmp_path, 0.0)
    argv = ["compare", "--scenario", str(path), "--cases", "1,5"] + extra
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "o").exists()
    # Explicit weights keep running.
    weights = ["--v-i", "0.1"] if "--gamma" in extra else ["--v-p", "0.1"]
    assert main(argv + weights + ["--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("argv", [
    ["gen-scenario", "--gamma", "0.02"],
    ["gen-scenario", "--scenario", "x.csv"],
    ["check-bounds", "--rho", "0.1"],
    ["gen-scenario", "--config", "gamma.cfg"],
])
def test_each_command_takes_only_the_flags_it_reads(argv, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gamma.cfg").write_text("gamma = 0.02\nslots = 4\nfollowers = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--slots", "4", "--followers", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if "--config" in argv:
        assert "gamma.cfg:1: unknown key 'gamma'" in err
        # The same file is a valid run configuration.
        assert main(["run", "--config", "gamma.cfg", "--out", "o"]) == 0
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["slots"] == 4
    else:
        assert f"unrecognized arguments: {argv[1]} {argv[2]}" in err
    assert not (tmp_path / "scenario.csv").exists()


def _store(option, type_=float, default=None):
    return (option,), option[2:].replace("-", "_"), type_, default, "_StoreAction", False


_GENERATOR_FLAGS = [
    (("-h", "--help"), "help", None, argparse.SUPPRESS, "_HelpAction", False),
    _store("--config", None), _store("--seed", int), _store("--slots", int),
    _store("--followers", int),
]
_MODEL_FLAGS = [_store("--scenario", None)] + [_store(option) for option in (
    "--epsilon", "--eta", "--e-max", "--t-min", "--t-max",
    "--l-max", "--gamma", "--batt-min", "--batt-max", "--u-cmax", "--u-dmax",
    "--c-b", "--v-i", "--gamma-shift", "--v-p", "--theta", "--min-gap")]
_SOLVER_FLAGS = [
    _store("--rho"), _store("--max-iters", int),
    (("--no-polish",), "no_polish", None, False, "_StoreTrueAction", False),
]
_OUT = _store("--out", None, "out")


_FLAGS = {
    "run": _GENERATOR_FLAGS + _MODEL_FLAGS + _SOLVER_FLAGS + [
        _OUT, (("--traces",), "traces", None, False, "_StoreTrueAction", False)],
    "compare": _GENERATOR_FLAGS + _MODEL_FLAGS + _SOLVER_FLAGS + [
        _OUT, _store("--cases", None, "1,2,3,4,5")],
    "sweep": _GENERATOR_FLAGS + _MODEL_FLAGS + _SOLVER_FLAGS + [
        _OUT, _store("--param", None), _store("--values", None)],
    "check-bounds": _GENERATOR_FLAGS + _MODEL_FLAGS,
    "gen-scenario": _GENERATOR_FLAGS + [_store("--out", None, "scenario.csv")],
}


@pytest.mark.parametrize("command", _FLAGS)
def test_each_command_keeps_its_flags(command):
    # Option strings, dest, type, default, action and whether required, in
    # the parser's order (which is also --help's).
    sub, = (action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(_FLAGS)
    assert [(tuple(a.option_strings), a.dest, a.type, a.default,
             type(a).__name__, a.required)
            for a in sub.choices[command]._actions] == _FLAGS[command]
