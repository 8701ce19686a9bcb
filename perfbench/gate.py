"""Correctness gate applied to every benchmark repetition.

Two sources are checked.  The artifacts the command wrote (``summary.json``,
``series.csv``, ``traces.csv``, ``comparison.csv``) are read back from disk,
and every ``RunReport`` the horizon loop returned is checked in memory, which
covers the comparison cases that write no per-slot series.  Each check
returns a list of problems; an empty list means the repetition is correct.

Checked: every number finite; zero comfort and battery violations; every
slot's prices inside ``[m_b, m_s]`` with ``p_s - p_b >= min_gap``; the
charge ``y`` inside the battery rate limits ``[-u_dmax, u_cmax]``; and
``aggregate = discomfort + energy - profit``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from typing import Any, Sequence

_TOL = 1e-9
NOT_HASHED = ("timing.csv",)  # wall-clock sidecar, the one non-deterministic output


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


# Numbers are written with repr(float), so a non-finite value is a cell that
# reads nan, inf or -inf.
_NON_FINITE_CELL = re.compile(rb"(?:^|,)[+-]?(?:nan|inf)(?:,|\r?$)", re.M | re.I)


def _finite_text(path: str) -> list[str]:
    with open(path, "rb") as fh:
        match = _NON_FINITE_CELL.search(fh.read())
    if match is None:
        return []
    return [f"{os.path.basename(path)}: non-finite cell {match.group().strip(b',').decode()!r}"]


def check_leader_row(k: int, p_s: float, p_b: float, y: float, m_s: float,
                     m_b: float, min_gap: float, u_cmax: float,
                     u_dmax: float, where: str) -> list[str]:
    problems = []
    if not all(math.isfinite(v) for v in (p_s, p_b, y)):
        problems.append(f"{where} slot {k}: non-finite leader action")
    if not (m_b - _TOL <= p_b and p_s <= m_s + _TOL):
        problems.append(f"{where} slot {k}: prices ({p_s}, {p_b}) outside [{m_b}, {m_s}]")
    if p_s - p_b < min_gap - 1e-12:
        problems.append(f"{where} slot {k}: p_s - p_b = {p_s - p_b} < min_gap {min_gap}")
    if not -u_dmax - _TOL <= y <= u_cmax + _TOL:
        problems.append(f"{where} slot {k}: y = {y} outside [{-u_dmax}, {u_cmax}]")
    return problems


def scenario_bands(scenario_csv: str) -> tuple[list[float], list[float]]:
    """The (m_s, m_b) series of a scenario file, read independently of the program."""
    with open(scenario_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["m_s"]) for r in rows], [float(r["m_b"]) for r in rows]


def check_run_artifacts(out_dir: str, scenario_csv: str, min_gap: float,
                        u_cmax: float, u_dmax: float) -> list[str]:
    """Artifacts of ``nanodr run``."""
    problems: list[str] = []
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    for key, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"summary.json: {key} = {value}")
    if summary["comfort_violations"] or summary["battery_violations"]:
        problems.append(f"summary.json: {summary['comfort_violations']} comfort and "
                        f"{summary['battery_violations']} battery violations")
    if not _close(summary["aggregate_cost_cent"],
                  summary["discomfort_total_cent"] + summary["energy_cost_total_cent"]
                  - summary["pme_profit_total_cent"]):
        problems.append("summary.json: aggregate != discomfort + energy - profit")

    m_s, m_b = scenario_bands(scenario_csv)
    series = os.path.join(out_dir, "series.csv")
    problems += _finite_text(series)
    with open(series, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(m_s):
        problems.append(f"series.csv: {len(rows)} rows for {len(m_s)} slots")
    for row in rows:
        k = int(row["slot"])
        problems += check_leader_row(k, float(row["p_s"]), float(row["p_b"]),
                                     float(row["y"]), m_s[k], m_b[k], min_gap,
                                     u_cmax, u_dmax, "series.csv")
    traces = os.path.join(out_dir, "traces.csv")
    if os.path.exists(traces):
        problems += _finite_text(traces)
        with open(traces, "rb") as fh:
            records = sum(1 for _ in fh) - 1
        iterations = sum(int(r["iterations"]) for r in rows)
        if records != iterations:
            problems.append(f"traces.csv: {records} records for {iterations} iterations")
    return problems


def check_compare_artifacts(out_dir: str, cases: Sequence[int]) -> list[str]:
    """The table of ``nanodr compare``; blank transfer columns skip the identity."""
    path = os.path.join(out_dir, "comparison.csv")
    problems = _finite_text(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["case"]) for r in rows] != list(cases):
        problems.append(f"comparison.csv: cases {[r['case'] for r in rows]}, want {list(cases)}")
    for r in rows:
        if r["trading_profit"] and not _close(
                float(r["aggregate_cost"]),
                float(r["discomfort_cost"]) + float(r["energy_cost"])
                - float(r["trading_profit"])):
            problems.append(f"comparison.csv: case {r['case']} aggregate != "
                            f"discomfort + energy - profit")
    return problems


def check_report(report: Any, scenario: Any, ng_params: Sequence[Any],
                 pme_params: Any, min_gap: float, where: str) -> tuple[list[str], set[int]]:
    """In-memory check of one horizon; also returns the slots that broke a bound."""
    problems: list[str] = []
    broken: set[int] = set()
    totals = (report.pme_profit_total, report.energy_cost_total,
              report.discomfort_total, report.aggregate_cost, report.tatd)
    if not all(math.isfinite(v) for v in totals):
        problems.append(f"{where}: non-finite totals {totals}")
    if not _close(report.aggregate_cost, report.discomfort_total
                  + report.energy_cost_total - report.pme_profit_total):
        problems.append(f"{where}: aggregate != discomfort + energy - profit")
    if report.comfort_violations or report.battery_violations:
        problems.append(f"{where}: {report.comfort_violations} comfort and "
                        f"{report.battery_violations} battery violations")
    for k, o in enumerate(report.outcomes):
        state = o.next_state
        if not all(p.t_min - _TOL <= t <= p.t_max + _TOL
                   for t, p in zip(state.t, ng_params)):
            broken.add(k)
        if not pme_params.e_min - _TOL <= state.e_batt <= pme_params.e_max_cap + _TOL:
            broken.add(k)
        if not all(math.isfinite(t) for t in state.t) or not all(
                math.isfinite(f.e) for f in o.followers):
            problems.append(f"{where} slot {k}: non-finite state or draw")
        problems += check_leader_row(k, o.leader.p_s, o.leader.p_b, o.leader.y,
                                     scenario.m_s[k], scenario.m_b[k], min_gap,
                                     pme_params.u_cmax, pme_params.u_dmax, where)
    if broken:
        problems.append(f"{where}: {len(broken)} slots outside a comfort or battery bound")
    return problems, broken


def file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_hashes(out_dir: str) -> dict[str, str]:
    """sha256 of every result artifact; the timing sidecar is left out."""
    return {name: file_hash(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir)) if name not in NOT_HASHED}
