"""One benchmark repetition, run in a fresh process.

    python3 perfbench/worker.py '<json spec>'

``run.py`` starts one worker at a time.  The spec names the checkout root, a
working directory, the two command lines (``gen-scenario``, then ``run`` or
``compare``) and whether to trace.  The worker imports ``nanodr`` from the
checkout's ``src/``, wraps the calls into each module from outside (nothing
in ``src/`` changes), calls ``nanodr.cli.main`` for both commands, checks the
outputs and writes ``result.json`` into the working directory.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import math
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from gate import (artifact_hashes, check_compare_artifacts, check_report,
                  check_run_artifacts, file_hash)
from tracing import Tracer

# Layer spans of the traced run: (span name, module, attribute).  A function
# imported by name into several modules is wrapped at each module that calls
# it.  A point missing from the program (deleted or renamed by a later
# version) is reported as absent and its metrics read zero.
LAYER_POINTS = (
    ("scenario_io.generate", "nanodr.cli", "generate_synthetic"),
    ("scenario_io.save", "nanodr.cli", "save_scenario"),
    ("scenario_io.load", "nanodr.cli", "load_scenario"),
    ("policy.default_policy", "nanodr.cli", "default_policy"),
    ("domain.check_assumptions", "nanodr.scenario_io", "check_assumptions"),
    ("domain.check_assumptions", "nanodr.simulator", "check_assumptions"),
    ("domain.slot", "nanodr.domain", "Scenario.slot"),
    ("simulator.update_queues", "nanodr.simulator", "update_queues"),
    ("stackelberg.solve", "nanodr.stackelberg", "_solve_with_responder"),
    ("stackelberg.solve", "nanodr.baselines", "_solve_with_responder"),
    ("stackelberg.polish", "nanodr.stackelberg", "_polish"),
    ("pme.subgradients", "nanodr.stackelberg", "subgradients"),
    ("baselines.welfare_slot", "nanodr.baselines", "_solve_welfare_slot"),
)
# Follower responses, timed at the responder calls stackelberg makes and
# counted n per call.  FixedResponder (comparison case 2) replays
# pre-committed draws and is not a follower response.
RESPONDER_POINTS = (
    ("nanogrid.respond", "nanodr.stackelberg", "QueueResponder.respond_full"),
    ("nanogrid.respond", "nanodr.stackelberg", "QueueResponder.respond"),
)
# The horizon loop: spans around it and around each slot-solver call.  These
# are installed in untraced repetitions too, because the slot latencies,
# the set-up time and the correctness gate are read from them.
RUN_POINTS = (("simulator.run", "nanodr.cli", "run"),
              ("simulator.run", "nanodr.baselines", "run"))
SLOT_POINTS = (("simulator.slot", "nanodr.simulator", "solve_slot"),)
CASE_POINTS = (("baselines.case", "nanodr.cli", "run_case"),)


# Times are quoted at the host speed at which probe_work() takes this long,
# about what it took where the benchmark was built (README, "Host speed").
PROBE_NOMINAL_S = 3e-4


@dataclass(frozen=True, slots=True)
class _Point:
    x: float
    y: float


def _score(p: _Point, q: _Point) -> float:
    return p.x * q.y - p.y * q.x if p.x > q.x else abs(p.y - q.y) + 0.5 * q.x


def _probe_pass(steps: int) -> float:
    acc = 0.0
    prev = _Point(0.0, 1.0)
    for i in range(steps):
        p = _Point((i % 97) * 0.01, (i % 13) * 0.25)
        vals = sorted((p.x, p.y, prev.x, prev.y))
        acc += _score(p, prev) + max(vals) - min(vals) + math.fsum(vals)
        prev = p
    return acc


def probe_work() -> float:
    """Time a fixed sliver of pure-Python work (about 0.3 ms).

    It uses what the simulator's hot loops use (small frozen dataclasses,
    attribute reads, calls, float arithmetic, min/max, fsum, sorting short
    lists) and shares no code with nanodr.  It is kept apart from nanodr's
    heap: the garbage collector is off while it runs, so none of nanodr's
    collections lands inside it; every object it makes is freed before it
    returns, so it leaves the collector's count as it found it; and a short
    untimed pass first brings its few cache lines back.  A change to
    nanodr's memory use thus leaves it alone, while a change in the host's
    speed moves both.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_pass(8)
        started = time.perf_counter()
        _probe_pass(80)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the host's speed while the commands run.

    A timer signal, 5 ms after the start and then every 50 ms, runs
    ``probe_work`` on the command's own thread, between two bytecodes of
    whatever runs, and keeps when it ran and how long it took.  The probe
    adds the same share, about 0.7 %, to every timed command.
    """

    FIRST_S = 0.005
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, duration)

    def _tick(self, signum: int, frame: Any) -> None:
        self.samples.append((time.perf_counter(), probe_work()))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.FIRST_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class HostScale:
    """Scales wall times to the nominal host speed, moment by moment.

    The host's speed can change within a second, so a time is scaled by the
    probes taken near it: the factor at time ``t`` is ``PROBE_NOMINAL_S``
    over the median probe time within ``WINDOW_S`` of ``t`` (over every
    probe, where none is that near).
    """

    WINDOW_S = 0.25
    STEP_S = 0.05

    def __init__(self, samples: list[tuple[float, float]]):
        self.at = np.array([t for t, _ in samples])
        self.took = np.array([d for _, d in samples])

    def factor(self, t: float) -> float:
        lo, hi = np.searchsorted(self.at, [t - self.WINDOW_S, t + self.WINDOW_S])
        near = self.took[lo:hi] if hi > lo else self.took
        return PROBE_NOMINAL_S / float(np.median(near))

    def duration(self, start: float, end: float) -> float:
        """The scaled length of [start, end], summed over steps of STEP_S."""
        steps = max(1, math.ceil((end - start) / self.STEP_S))
        width = (end - start) / steps
        return width * sum(self.factor(start + (k + 0.5) * width) for k in range(steps))


def _responses(result: Any) -> int:
    # respond_full returns (draws, slopes); respond returns the draws.
    return len(result[0]) if isinstance(result, tuple) else len(result)


class Probe:
    """What the slot-solver boundary and the horizon loop hand back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.first_slot: float | None = None
        self.outcomes: list[tuple[int, bool, int]] = []  # iterations, converged, sweeps
        # report, run() arguments, index of its first slot in ``outcomes``
        self.runs: list[tuple[Any, dict[str, Any], int]] = []

    def _before_slot(self) -> None:
        if self.first_slot is None:
            self.first_slot = time.perf_counter()

    def _after_slot(self, solution: Any) -> None:
        trace = getattr(solution, "trace", None)
        self.outcomes.append((int(getattr(trace, "iterations", 0)),
                              bool(getattr(trace, "converged", True)),
                              int(getattr(trace, "polish_sweeps", 0))))

    def wrap_slot(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return self.tracer.wrap(name, fn, before=self._before_slot,
                                after=self._after_slot)

    def wrap_run(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(fn)

        def run(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            solver = bound.arguments.get("slot_solver")
            if solver is not None:
                bound.arguments["slot_solver"] = self.wrap_slot("simulator.slot", solver)
            first = len(self.outcomes)
            report = fn(*bound.args, **bound.kwargs)
            self.runs.append((report, dict(bound.arguments), first))
            return report

        return self.tracer.wrap(name, run)

    def wrap_cases(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        per_case: dict[Any, Callable[..., Any]] = {}

        def run_case(case: Any, *args: Any, **kwargs: Any) -> Any:
            number = getattr(case, "value", case)
            if number not in per_case:
                per_case[number] = self.tracer.wrap(f"{name}{number}", fn)
            return per_case[number](case, *args, **kwargs)

        return run_case


def _install(points: Any, make: Callable[[str, Callable[..., Any]], Callable[..., Any]]) -> list[str]:
    absent = []
    for name, module_name, attr in points:
        try:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        setattr(owner, leaf, make(name, fn))
    return absent


def install(tracer: Tracer, probe: Probe, traced: bool,
            extra_points: list[list[str]]) -> list[str]:
    """Wrap the program's functions; returns the wrap points it could not find."""
    absent = _install(RUN_POINTS, probe.wrap_run)
    absent += _install(SLOT_POINTS, probe.wrap_slot)
    if traced:
        absent += _install(tuple(LAYER_POINTS) + tuple(map(tuple, extra_points)),
                           tracer.wrap)
        absent += _install(RESPONDER_POINTS,
                           lambda name, fn: tracer.wrap(name, fn, count=_responses))
        absent += _install(CASE_POINTS, probe.wrap_cases)
    return absent


def layer_metrics(tracer: Tracer, probe: Probe, command_s: float,
                  csv_bytes: int, artifact_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced repetition (times in the named unit)."""
    spans = tracer.summary()

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("calls", 0))

    def mean_us(name: str, per: int | None = None) -> float:
        n = calls(name) if per is None else per
        return 1e6 * total(name) / n if n else 0.0

    game = [o for o in probe.outcomes if o[0] > 0]  # slots the game loop solved
    iterations = [o[0] for o in game]
    responses = tracer.counts.get("nanogrid.respond", 0)
    loop = total("simulator.run")
    # Writing the artifacts is the tail of the command after the last horizon
    # returns; no wrapped function runs in it.
    run_ends = tracer.times("simulator.run")[1]
    write_s = tracer.times("cli.main")[1][-1] - run_ends[-1] if len(run_ends) else 0.0
    metrics = {
        "scenario_io.generate_ms": 1e3 * total("scenario_io.generate"),
        "scenario_io.save_ms": 1e3 * total("scenario_io.save"),
        "scenario_io.load_ms": 1e3 * total("scenario_io.load"),
        "scenario_io.csv_bytes": csv_bytes,
        "policy.default_policy_ms": 1e3 * total("policy.default_policy"),
        "domain.check_assumptions_ms": 1e3 * total("domain.check_assumptions"),
        "domain.slot_build_us": mean_us("domain.slot"),
        "domain.slot_builds": calls("domain.slot"),
        "simulator.loop_self_ms": 1e3 * own("simulator.run"),
        "simulator.update_queues_us": mean_us("simulator.update_queues"),
        "simulator.loop_share": (loop - total("simulator.slot")) / loop if loop else 0.0,
        "nanogrid.responses": responses,
        "nanogrid.response_us": mean_us("nanogrid.respond", responses),
        "nanogrid.self_share": own("nanogrid.respond") / command_s,
        "pme.subgradient_calls": calls("pme.subgradients"),
        "pme.subgradient_us": mean_us("pme.subgradients"),
        "stackelberg.iterations_total": sum(iterations),
        "stackelberg.iterations_p50": float(np.median(iterations)) if iterations else 0.0,
        "stackelberg.iterations_max": max(iterations, default=0),
        "stackelberg.cap_hits": sum(1 for o in game if not o[1]),
        "stackelberg.converged_ratio": (sum(1 for o in game if o[1]) / len(game)
                                        if game else 1.0),
        "stackelberg.polish_sweeps_total": sum(o[2] for o in game),
        "stackelberg.loop_self_ms": 1e3 * own("stackelberg.solve"),
        "stackelberg.polish_ms": 1e3 * total("stackelberg.polish"),
        "cli.write_ms": 1e3 * write_s,
        "cli.artifact_bytes": artifact_bytes,
        "trace.unaccounted_ms": 1e3 * (own("cli.main") - write_s),
        "trace.spans": len(tracer.start),
    }
    for number in range(1, 6):
        metrics[f"baselines.case{number}_s"] = total(f"baselines.case{number}")
    metrics["baselines.welfare_slot_ms"] = 1e3 * total("baselines.welfare_slot") / max(
        1, calls("baselines.welfare_slot"))
    return metrics


def _gate(spec: dict[str, Any], probe: Probe, rcs: list[int]) -> tuple[list[str], set[int]]:
    """Problems found, and the slots (indices into ``probe.outcomes``) that broke a bound."""
    problems = [f"{argv[0]} exited {rc}"
                for rc, argv in zip(rcs, (spec["gen_argv"], spec["cmd_argv"])) if rc != 0]
    broken: set[int] = set()
    for index, (report, args, first) in enumerate(probe.runs):
        where = f"horizon {index + 1}"
        found, slots = check_report(report, args["scenario"], args["ng_params"],
                                    args["pme_params"], args["config"].min_gap, where)
        problems += found
        broken |= {first + k for k in slots}
    if any(rc != 0 for rc in rcs) or not probe.runs:
        problems.append("no artifacts checked: a command failed or no horizon returned")
    elif spec["cmd_argv"][0] == "run":
        args = probe.runs[0][1]
        problems += check_run_artifacts("out", spec["scenario_csv"], args["config"].min_gap,
                                        args["pme_params"].u_cmax, args["pme_params"].u_dmax)
    else:
        problems += check_compare_artifacts("out", spec["cases"])
    return problems, broken


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import nanodr
    from nanodr import cli

    if not os.path.abspath(nanodr.__file__).startswith(os.path.join(src, "")):
        print(f"nanodr imported from {nanodr.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer(spec["run_id"])
    probe = Probe(tracer)
    absent = install(tracer, probe, spec["trace"], spec.get("extra_points", []))
    command = tracer.wrap("cli.main", cli.main)
    os.chdir(spec["workdir"])

    with SpeedProbe() as speed:
        rcs = [command(spec["gen_argv"]), command(spec["cmd_argv"])]
    main_starts, main_ends = tracer.times("cli.main")
    main_durations = main_ends - main_starts
    if probe.first_slot is None:
        print("no slot started", file=sys.stderr)
        return 1
    host = HostScale(speed.samples)
    result: dict[str, Any] = {
        "setup_s": float(main_durations[0] + probe.first_slot - main_starts[1]),
        "scaled_setup_s": (host.duration(main_starts[0], main_ends[0])
                           + host.duration(main_starts[1], probe.first_slot)),
        "host_scale": PROBE_NOMINAL_S / float(np.mean(host.took)),
        "probe_samples": len(host.took),
        "absent": absent,
        "scenario_hash": file_hash(spec["scenario_csv"]),
    }
    game = [o for o in probe.outcomes if o[0] > 0]
    problems, broken = _gate(spec, probe, rcs)
    capped = {i for i, o in enumerate(probe.outcomes) if not o[1]}
    slot_starts, slot_ends = tracer.times("simulator.slot")
    slot_s = slot_ends - slot_starts
    failed_slots = len(slot_s) - len(probe.outcomes) + len(capped | broken)
    command_s = float(main_durations.sum())
    result.update({
        "command_s": command_s,
        "scaled_command_s": sum(host.duration(a, b) for a, b in zip(main_starts, main_ends)),
        "slot_ms": (1e3 * slot_s).tolist(),
        "scaled_slot_ms": [1e3 * host.duration(a, b) for a, b in zip(slot_starts, slot_ends)],
        "failed_slots": failed_slots,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "hashes": artifact_hashes("out") if os.path.isdir("out") else {},
        "canaries": {"slots": len(slot_s),
                     "iterations": sum(o[0] for o in game),
                     "cap_hits": sum(1 for o in game if not o[1]),
                     "polish_sweeps": sum(o[2] for o in game)},
    })
    if spec["trace"]:
        csv_bytes = os.path.getsize(spec["scenario_csv"])
        artifact_bytes = sum(os.path.getsize(os.path.join("out", f))
                             for f in os.listdir("out"))
        layers = layer_metrics(tracer, probe, command_s, csv_bytes, artifact_bytes)
        result["layers"] = layers
        result["canaries"].update({
            "follower_responses": layers["nanogrid.responses"],
            "subgradient_calls": layers["pme.subgradient_calls"],
            "slot_builds": layers["domain.slot_builds"],
        })
        tracer.write("spans.csv")
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
