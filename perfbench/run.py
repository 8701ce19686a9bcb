"""The nanodr benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload month5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --steadiness [--workload cluster50]
    python3 perfbench/run.py --self-test [--workload compare5]

Run from the root of a checkout.  Each repetition is a fresh process
(``worker.py``) started by this single-threaded process, one at a time: a
closed loop with one client.  A repetition calls ``nanodr.cli.main`` for
``gen-scenario`` (the seeded inputs, written to CSV) and then for the
workload's command on that CSV.  With ``--trace 0`` the run repeats
untraced repetitions while the next one still ends within ``--seconds``, and
prints the end-to-end metrics.  With ``--trace 1`` it repeats rounds of one
untraced and one traced repetition, and prints the per-layer metrics of the
traced ones.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Everything the run writes goes under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 150.0  # no repetition starts that could end past this
CASES = (1, 2, 3, 4, 5)
STEADY_RUNS = 10  # runs per workload in --steadiness, one seed each


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "compare"
    n: int
    slots: int
    traces: bool
    why: str

    def argv(self, seed: int) -> tuple[list[str], list[str]]:
        gen = ["gen-scenario", "--seed", str(seed), "--slots", str(self.slots),
               "--followers", str(self.n), "--out", "scenario.csv"]
        cmd = [self.command, "--scenario", "scenario.csv", "--out", "out"]
        if self.traces:
            cmd.append("--traces")
        if self.command == "compare":
            cmd += ["--cases", ",".join(map(str, CASES))]
        return gen, cmd


WORKLOADS = {
    "month5": Workload(
        "run", 5, 720, True,
        "paper setup, 5 nanogrids over a 720-slot month with --traces: per-slot "
        "loop, polish, slot builds and trace writing dominate"),
    "cluster50": Workload(
        "run", 50, 100, False,
        "50 nanogrids over 100 slots: the follower sweep dominates and "
        "iteration-cap hits make the slot-latency tail"),
    "compare5": Workload(
        "compare", 5, 240, False,
        "all five comparison cases at n=5 over 240 slots: the only workload "
        "that runs the baselines; cases 1, 2 and 5 skip follower responses"),
}

# End-to-end metrics: unit and which way is better.
END_TO_END = {
    "command_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "slots_per_s": ("1/s", "higher"),
    "slot_ms_p50": ("ms", "lower"),
    "slot_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "solved_slot_frac": ("ratio", "higher"),
}

# Per-layer metrics: unit, and the end-to-end metric and workload each should
# move.  Those marked False are printed but left out of the JSON line because
# only compare5 reaches them; elsewhere they would read an unmeasured zero.
LAYERS = {
    "scenario_io.generate_ms": ("ms", "setup_s on cluster50, month5", True),
    "scenario_io.save_ms": ("ms", "setup_s on cluster50, month5", True),
    "scenario_io.load_ms": ("ms", "setup_s on cluster50, month5", True),
    "scenario_io.csv_bytes": ("bytes", "setup_s on cluster50, month5", True),
    "policy.default_policy_ms": ("ms", "setup_s, most on month5", True),
    "domain.check_assumptions_ms": ("ms", "setup_s, most on month5", True),
    "domain.slot_build_us": ("us", "slots_per_s on month5", True),
    "domain.slot_builds": ("count", "slots_per_s on month5", True),
    "simulator.loop_self_ms": ("ms", "slots_per_s on month5", True),
    "simulator.update_queues_us": ("us", "slots_per_s on month5", True),
    "simulator.loop_share": ("ratio", "slots_per_s on month5", True),
    "nanogrid.responses": ("count", "slots_per_s, slot_ms_p90 on cluster50", True),
    "nanogrid.response_us": ("us", "slots_per_s, slot_ms_p90 on cluster50", True),
    "nanogrid.self_share": ("ratio", "slots_per_s, slot_ms_p90 on cluster50", True),
    "pme.subgradient_calls": ("count", "slots_per_s on month5", True),
    "pme.subgradient_us": ("us", "slots_per_s on month5", True),
    "stackelberg.iterations_total": ("count", "slot_ms_p90 on cluster50, slots_per_s on month5", True),
    "stackelberg.iterations_p50": ("count", "slot_ms_p50 on cluster50, month5", True),
    "stackelberg.iterations_max": ("count", "slot_ms_p90 on cluster50", True),
    "stackelberg.cap_hits": ("count", "solved_slot_frac on cluster50", True),
    "stackelberg.converged_ratio": ("ratio", "solved_slot_frac on cluster50", True),
    "stackelberg.polish_sweeps_total": ("count", "slot_ms_p90 on cluster50, slots_per_s on month5", True),
    "stackelberg.loop_self_ms": ("ms", "slots_per_s on month5, slot_ms_p90 on cluster50", True),
    "stackelberg.polish_ms": ("ms", "slots_per_s on month5, slot_ms_p90 on cluster50", True),
    "cli.write_ms": ("ms", "command_s, peak_rss_mb on month5", True),
    "cli.artifact_bytes": ("bytes", "command_s, peak_rss_mb on month5", True),
    "trace.unaccounted_ms": ("ms", "wall time inside main() that no span covers", True),
    "trace.overhead_s": ("s", "traced command_s minus untraced command_s", True),
    "trace.spans": ("count", "spans recorded by one traced repetition", True),
    "baselines.case1_s": ("s", "command_s on compare5", False),
    "baselines.case2_s": ("s", "command_s on compare5", False),
    "baselines.case3_s": ("s", "command_s on compare5", False),
    "baselines.case4_s": ("s", "command_s on compare5", False),
    "baselines.case5_s": ("s", "command_s on compare5", False),
    "baselines.welfare_slot_ms": ("ms", "command_s on compare5", False),
}
# Exact counts that must repeat between two runs of the same code and seed.
CANARY_KEYS = ("slots", "iterations", "cap_hits", "polish_sweeps",
               "follower_responses", "subgradient_calls", "slot_builds")


class RepFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def run_rep(workload: Workload, seed: int, workdir: Path, *, trace: bool,
            timeout: float,
            extra_points: list[list[str]] | None = None) -> dict[str, Any]:
    """One repetition in a fresh worker process; returns its result.json."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gen, cmd = workload.argv(seed)
    spec = {"root": str(ROOT), "workdir": str(workdir), "run_id": workdir.name,
            "gen_argv": gen, "cmd_argv": cmd, "scenario_csv": "scenario.csv",
            "cases": list(CASES), "trace": trace,
            "extra_points": extra_points or []}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                                  stdout=out, stderr=err, env=env, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise RepFailed(f"repetition timed out after {timeout:.0f} s") from None
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-5:]
        raise RepFailed(f"worker exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(result_path.read_text())


def _source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_reference(name: str, seed: int, reps: list[dict[str, Any]]) -> list[str]:
    """Artifacts and canaries must repeat across repetitions and across runs.

    The first run of a (workload, seed, source) triple in a checkout stores
    a reference under ``.bench_out/reference``; later runs compare to it.
    """
    problems = []
    first = reps[0]
    for rep in reps[1:]:
        if rep["scenario_hash"] != first["scenario_hash"]:
            problems.append("scenario.csv differs between repetitions of one seed")
        if rep["hashes"] != first["hashes"]:
            problems.append("result artifacts differ between repetitions of one seed")
        common = rep["canaries"].keys() & first["canaries"].keys()
        if any(rep["canaries"][k] != first["canaries"][k] for k in common):
            problems.append(f"canaries differ: {first['canaries']} vs {rep['canaries']}")
    ref_path = OUT / "reference" / f"{name}-seed{seed}.json"
    canaries: dict[str, int] = {}
    for rep in reps:
        canaries.update(rep["canaries"])
    mine = {"source": _source_fingerprint(), "scenario_hash": first["scenario_hash"],
            "hashes": first["hashes"], "canaries": canaries}
    if ref_path.exists():
        ref = json.loads(ref_path.read_text())
        if ref["source"] == mine["source"]:
            if ref["scenario_hash"] != mine["scenario_hash"] or ref["hashes"] != mine["hashes"]:
                problems.append(f"artifacts differ from the earlier run recorded in {ref_path.name}")
            common = ref["canaries"].keys() & mine["canaries"].keys()
            if any(ref["canaries"][k] != mine["canaries"][k] for k in common):
                problems.append(f"canaries differ from the earlier run recorded in {ref_path.name}")
            mine["canaries"] = {**ref["canaries"], **mine["canaries"]}
    if not problems:
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = ref_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(mine, indent=1))
        os.replace(tmp, ref_path)
    return problems


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def environment(name: str, seed: int) -> dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: the checkout is not a git repository"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    w = WORKLOADS[name]
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, "source": _source_fingerprint(),
            "workload": name, "seed": seed, "n": w.n, "slots": w.slots,
            "command": " ".join(w.argv(seed)[1])}


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict[str, Any], dict[str, Any]]:
    """Repeat the workload for ``seconds``; returns (JSON line, full record)."""
    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = OUT / "work" / tag
    started = time.perf_counter()
    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    failures: list[str] = []

    def rep(kind: str, index: int) -> None:
        t0 = time.perf_counter()
        try:
            result = run_rep(workload, seed, work / f"{kind}{index}", trace=kind == "traced",
                             timeout=RUN_LIMIT_S + 20.0 - (t0 - started))
        except RepFailed as exc:
            failures.append(f"{kind} repetition {index}: {exc}")
            return
        (traced if kind == "traced" else plain).append(result)
        if kind == "traced":
            shutil.copy(work / f"{kind}{index}" / "spans.csv", OUT / "results" / f"{tag}-spans.csv")

    # Rounds repeat until the next one would end past ``seconds``.
    kinds = ["plain", "traced"] if trace else ["plain"]
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    longest_round = 0.0
    index = 0
    while not failures:
        elapsed = time.perf_counter() - started
        if index and (elapsed + longest_round > min(seconds, RUN_LIMIT_S)):
            break
        for kind in kinds:
            rep(kind, index)
        if trace:  # alternate which goes first, so the overhead has no order bias
            kinds.reverse()
        longest_round = max(longest_round, time.perf_counter() - started - elapsed)
        index += 1
    shutil.rmtree(work, ignore_errors=True)

    full = plain + traced
    problems = list(failures)
    for r in full:
        problems += r["problems"]
    if full:
        problems += check_reference(name, seed, full)
    absent = sorted({a for r in full for a in r["absent"]})
    record: dict[str, Any] = {"environment": environment(name, seed),
                              "seconds": seconds, "trace": trace,
                              "wall_s": time.perf_counter() - started,
                              "problems": problems, "absent_wrap_points": absent}
    line: dict[str, Any] = {"correct": not problems, "attempted": len(full) + len(failures),
                            "failed": len(failures) + sum(1 for r in full if r["problems"]),
                            "metrics": {}}
    if not plain or (trace and not traced):
        return line, record

    # Each repetition reports its times both as measured and scaled to the
    # nominal host speed (README, "Host speed"); the JSON line carries the
    # scaled ones.
    def end_to_end(prefix: str) -> dict[str, float]:
        slot_ms = [x for r in plain for x in r[prefix + "slot_ms"]]
        return {
            "command_s": _median([r[prefix + "command_s"] for r in plain]),
            "setup_s": _median([r[prefix + "setup_s"] for r in plain]),
            "slots_per_s": _median([len(r["slot_ms"]) / r[prefix + "command_s"]
                                    for r in plain]),
            "slot_ms_p50": float(np.percentile(slot_ms, 50)),
            "slot_ms_p90": float(np.percentile(slot_ms, 90)),
        }

    slots = sum(len(r["slot_ms"]) for r in plain)
    failed_slots = sum(r["failed_slots"] for r in plain)
    wall = end_to_end("")
    e2e = end_to_end("scaled_")
    e2e["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in plain])
    e2e["solved_slot_frac"] = 1.0 - failed_slots / slots
    record.update({"end_to_end": e2e, "wall": wall,
                   "host_scale": _median([r["host_scale"] for r in full]),
                   "probe_samples": sum(r["probe_samples"] for r in full),
                   "failed_slot_frac": failed_slots / slots,
                   "slot_samples": slots,
                   "repetitions": [{k: r[k] for k in ("command_s", "scaled_command_s", "setup_s",
                                                      "scaled_setup_s", "host_scale")}
                                   for r in plain],
                   "canaries": plain[0]["canaries"]})
    if trace:
        layers = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            _median([r["scaled_command_s"] for r in traced]) - e2e["command_s"])
        record.update({"layers": layers, "canaries": traced[0]["canaries"],
                       "traced_repetitions": len(traced)})
        line["metrics"] = {k: {"value": layers[k], "unit": unit}
                           for k, (unit, _, listed) in LAYERS.items() if listed}
    else:
        line["metrics"] = {k: {"value": e2e[k], "unit": unit}
                           for k, (unit, _) in END_TO_END.items()}
    return line, record


def print_report(line: dict[str, Any], record: dict[str, Any]) -> None:
    env = record["environment"]
    print(f"workload {env['workload']}: {env['command']} (n={env['n']}, T={env['slots']}, "
          f"seed={env['seed']})")
    print(f"environment: nproc={env['nproc']} usable_cpus={env['usable_cpus']} "
          f"cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
          f"commit={env['commit']}")
    if "end_to_end" in record:
        print(f"repetitions: {len(record['repetitions'])} untraced, "
              f"{record.get('traced_repetitions', 0)} traced; "
              f"slot latency over {record['slot_samples']} slot-solver calls")
        print(f"host scale {record['host_scale']:.4f} (median over repetitions of the "
              f"nominal over the mean speed probe; {record['probe_samples']} samples)")
        for key, value in record["end_to_end"].items():
            unit = END_TO_END[key][0]
            raw = (f"  (wall {record['wall'][key]:.6g} {unit})"
                   if key in record["wall"] else "")
            print(f"  {key} = {value:.6g} {unit}{raw}")
        print(f"  failed_slot_frac = {record['failed_slot_frac']:.6g} ratio "
              f"(iteration-cap hits, raised slots and bound breaks)")
        print(f"canaries: {json.dumps(record['canaries'], sort_keys=True)}")
    absent = set(record["absent_wrap_points"])
    for point in sorted(absent):
        print(f"absent wrap point: {point} (its metrics read 0)")
    for key, value in record.get("layers", {}).items():
        unit, moves, listed = LAYERS[key]
        if not listed and not value:
            print(f"  {key}: not reached by this workload")
        else:
            print(f"  {key} = {value:.6g} {unit}  -> {moves}")
    print(f"correctness gate: {'pass' if line['correct'] else 'FAIL'}")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")


# ---------------------------------------------------------------------------
# Steadiness and self-test
# ---------------------------------------------------------------------------


def _bench_json() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def steadiness(names: list[str], first_seed: int, seconds: float) -> int:
    """Run each workload STEADY_RUNS times on successive seeds; report spread vs bound.

    Every end-to-end metric, ``setup_s`` included, is steady when its spread
    (interquartile range over median) is below a third of its bound.  A run
    whose host-scaled and wall figures differ by more than a metric's bound
    is flagged: its verdict rests on the host-speed scaling.
    """
    bounds = {m["name"]: m["bound"] for m in _bench_json()["end_to_end"]}
    summary: dict[str, Any] = {}
    steady = True
    flagged = 0
    for name in names:
        values: dict[str, list[float]] = {k: [] for k in END_TO_END}
        walls: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + STEADY_RUNS):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", "0"], capture_output=True, text=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(f"{name} seed {seed}: run failed or incorrect", file=sys.stderr)
                return 1
            for k in END_TO_END:
                values[k].append(line["metrics"][k]["value"])
            record_path = proc.stdout.strip().splitlines()[-2].removeprefix("record: ")
            wall = json.loads((ROOT / record_path).read_text())["wall"]
            for k, v in wall.items():
                walls.setdefault(k, []).append(v)
            apart = {k: abs(line["metrics"][k]["value"] / v - 1.0) for k, v in wall.items()}
            wide = [k for k, d in apart.items() if d > bounds[k]]
            flagged += bool(wide)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={line['metrics'][k]['value']:.5g}" for k in END_TO_END)
                + (f"  FLAG scaled and wall differ by more than the bound on {', '.join(wide)}"
                   f" ({max(apart.values()):.3f})" if wide else ""), flush=True)
        summary[name] = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "steady" if spread < bounds[k] / 3 else (
                "within bound" if spread <= bounds[k] else "TOO WIDE")
            steady = steady and spread < bounds[k] / 3
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds[k], "values": vals}
            text = (f"  {name:9s} {k:16s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                    f"spread={spread:.4f} bound={bounds[k]} {verdict}")
            if k in walls:
                w1, wmed, w3 = statistics.quantiles(walls[k], n=4)
                entry.update(wall_median=wmed, wall_spread=(w3 - w1) / wmed,
                             wall_values=walls[k])
                text += f" (wall median={wmed:.6g} spread={entry['wall_spread']:.4f})"
            summary[name][k] = entry
            print(text)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steadiness-{int(time.time())}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"steadiness summary written to {path.relative_to(ROOT)}; "
          f"{'every spread below a third of its bound' if steady else 'NOT steady'}; "
          f"{flagged} run(s) flagged for scaled and wall figures apart by more than a bound")
    return 0 if steady else 1


def self_test(names: list[str], seed: int) -> int:
    """Contract consistency, canary repeatability and absent-point handling."""
    failures = []
    bench = _bench_json()
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py")
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != {
            k: u for k, (u, _) in END_TO_END.items()}:
        failures.append("BENCHMARK.json end_to_end differs from run.py")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != {
            k: u for k, (u, _, listed) in LAYERS.items() if listed}:
        failures.append("BENCHMARK.json per_layer differs from run.py")
    missing = ["selftest.missing", "nanodr.stackelberg", "_removed_by_a_later_version"]
    for name in names:
        work = OUT / "work" / f"selftest-{name}-{os.getpid()}"
        try:
            reps = [run_rep(WORKLOADS[name], seed, work / f"traced{i}", trace=True,
                            timeout=RUN_LIMIT_S, extra_points=[missing])
                    for i in range(2)]
        except RepFailed as exc:
            failures.append(f"{name}: {exc}")
            continue
        finally:
            shutil.rmtree(work, ignore_errors=True)
        a, b = (r["canaries"] for r in reps)
        print(f"{name}: canaries {json.dumps(a, sort_keys=True)}")
        if a != b or set(a) != set(CANARY_KEYS):
            failures.append(f"{name}: canaries differ between two runs: {a} vs {b}")
        if reps[0]["hashes"] != reps[1]["hashes"]:
            failures.append(f"{name}: result artifacts differ between two runs")
        for r in reps:
            failures += [f"{name}: {p}" for p in r["problems"]]
            if ".".join(missing[1:]) not in r["absent"]:
                failures.append(f"{name}: a missing wrap point was not reported absent")
            if set(r["layers"]) != set(LAYERS) - {"trace.overhead_s"}:
                failures.append(f"{name}: traced run lacks layer metrics")
    for f in failures:
        print(f"FAIL {f}")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="scenario seed; 1 is the reference week")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help=f"run each workload on {STEADY_RUNS} successive seeds and "
                             "report spreads")
    parser.add_argument("--self-test", dest="self_test", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "nanodr" / "cli.py").is_file():
        print(f"error: no nanodr sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.steadiness:
        return steadiness(names, args.seed, args.seconds)
    if args.self_test:
        return self_test(names, args.seed)
    if not args.workload:
        parser.error("--workload is required")
    line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record["result"] = line
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    print_report(line, record)
    print(f"record: {path.relative_to(ROOT)}")
    if not line["metrics"]:
        print("error: no repetition finished; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
