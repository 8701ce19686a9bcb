"""The benchmark's wrap points all resolve in the package, and what it
reads from the program's records still reads.

``perfbench/worker.py`` times the program by wrapping module attributes
from outside, and reports a point it cannot find as absent, with its
metrics at zero, rather than failing.  So a rename in ``src/`` could zero a
per-layer metric without anything failing; this test fails instead.  It
reads the worker's point tables and wraps nothing.  Its correctness gate
and its slot probe read the horizon's reports and the slot solutions; the
last tests feed them the desk's.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from nanodr import cli, simulator
from nanodr.baselines import CaseId, run_case

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TABLES = ("RUN_POINTS", "SLOT_POINTS", "LAYER_POINTS", "RESPONDER_POINTS",
          "CASE_POINTS")


def _worker():
    # The worker imports its sibling modules by plain name.  Nothing is
    # written under perfbench/, not even a bytecode cache.
    sys.path.insert(0, str(BENCH))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                      BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up by name.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
    return module


WORKER = _worker()


@pytest.mark.parametrize("table", TABLES)
def test_every_wrap_point_resolves(table):
    points = getattr(WORKER, table)
    assert points
    absent = []
    for _name, module_name, attr in points:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            absent.append(f"{module_name}.{attr}")
    assert not absent, f"{table}: absent wrap points {absent}"


# -- what the worker reads from the program's records -------------------------


def _desk():
    """The desk command's setup (the reference week's defaults) over 24
    slots."""
    return cli.Setup(cli.build_parser().parse_args(["run", "--slots", "24"]))


@pytest.mark.parametrize("case", ["run", *(c.name for c in CaseId)])
def test_the_gate_passes_the_desk_run_and_every_case(case):
    # The worker checks every RunReport the horizon loop returns; a record
    # change that breaks that check fails here, not only in the benchmark.
    setup = _desk()
    if case == "run":
        report = setup.simulate()
    else:
        report = run_case(CaseId[case], setup.scenario, setup.ng_params,
                          setup.bundle.ng_controls, setup.pme_params,
                          setup.bundle.pme_control, setup.config)
    assert len(report.outcomes) == 24
    problems, broken = WORKER.check_report(report, setup.scenario,
                                           setup.ng_params, setup.pme_params,
                                           setup.config.min_gap, case)
    assert problems == [] and broken == set()


def test_the_probe_reads_each_slot_solution(monkeypatch):
    # The worker's slot point hands each SlotSolution to the probe, which
    # keeps (iterations, converged, polish sweeps).  The desk has slots
    # solved in closed form and slots the loop and the polish solve.
    solutions = []
    solve = simulator.solve_slot

    def point(*args):
        solutions.append(solve(*args))
        return solutions[-1]

    monkeypatch.setattr(simulator, "solve_slot", point)
    _desk().simulate()
    probe = WORKER.Probe(WORKER.Tracer("test"))
    for solution in solutions:
        probe._after_slot(solution)
    assert probe.outcomes == [(s.trace.iterations, s.trace.converged,
                               s.trace.polish_sweeps) for s in solutions]
    assert (0, True, 0) in probe.outcomes
    assert any(iterations > 0 and sweeps > 0
               for iterations, _, sweeps in probe.outcomes)
