"""Scenario ingestion, CSV persistence, and seeded synthetic generation.

CSV schema (one header row, one row per slot):

    slot,m_s,m_b,g_t,rp_1..rp_n,d_1..d_n,t_out_1..t_out_n,t_opt_1..t_opt_n

``slot`` must run 0..T-1 in order; per-nanogrid columns use 1-based
suffixes.  Numbers are plain decimals written with ``repr`` so a
save/load round trip is bit-identical.  ``docs/example_scenario.csv``
holds a small golden file.

The synthetic generator produces a heating-season setup: a sinusoidal
outdoor temperature day shape with per-building offsets, a double-peaked
base load, a midday solar bell plus wind noise for renewables, a slowly
moving comfort target, a flat grid buying price with a peaked selling
price, and uniform net generation for the aggregator.  Profiles are
clipped so the comfort-guarantee assumptions hold against the default
building parameters and the interchange limit never binds the draw box.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .domain import (
    NanogridParams,
    PmeParams,
    Scenario,
    ScenarioError,
    check_assumptions,
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Size, horizon and seed of the seeded synthetic scenario generator."""

    n: int = 5
    slots: int = 72
    seed: int = 1                # default selects the reference winter week

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ScenarioError(f"need n >= 0, got n={self.n}")
        if self.slots < 1:
            raise ScenarioError(f"need slots >= 1, got slots={self.slots}")
        if self.seed < 0:
            raise ScenarioError(f"need seed >= 0, got seed={self.seed}")


def default_nanogrid_params(epsilon: float) -> NanogridParams:
    """Standard single-building constants used across the experiments."""
    return NanogridParams(epsilon=epsilon, eta=15.0, e_max=5.0, t_min=66.0,
                          t_max=77.0, l_max=10.0, gamma=0.01)


def default_pme_params() -> PmeParams:
    """Standard aggregator battery constants used across the experiments."""
    return PmeParams(e_min=2.0, e_max_cap=16.0, u_cmax=1.0, u_dmax=1.0, c_b=0.01)


def _bell(hour: float, center: float, width: float) -> float:
    dist = abs(hour - center)
    dist = min(dist, 24.0 - dist)
    return math.exp(-((dist / width) ** 2))


def generate_synthetic(spec: SyntheticSpec) -> tuple[Scenario, list[NanogridParams]]:
    """Deterministic scenario for the given spec and its buildings'
    parameters; same seed, same pair.

    The seed's ``SeedSequence`` spawns two streams: the first draws each
    building's thermal inertia ε uniformly from [0.93, 0.98] (the other
    constants are ``default_nanogrid_params``'), the second the series.

    Day shapes: a deep-winter sinusoidal outdoor temperature with small
    per-building offsets, a small double-peaked base load, a midday solar
    bell plus wind noise, a slowly moving comfort target, and a selling
    price that is cheap off-peak with narrow morning and evening peaks and
    a slight midday solar dip.  The generated series are validated against
    the drawn buildings so the comfort certificates apply.
    """
    import numpy as np  # only the generator needs NumPy: importing it is slow
    buildings_seed, series_seed = np.random.SeedSequence(spec.seed).spawn(2)
    eps = np.random.default_rng(buildings_seed).uniform(0.93, 0.98, size=spec.n)
    buildings = [default_nanogrid_params(float(e)) for e in eps]
    rng = np.random.default_rng(series_seed)
    n, slots = spec.n, spec.slots
    hours = np.arange(slots) % 24
    # A day shape: _bell on the 24 NumPy-int hours, looked up per slot; the
    # same bits as on ``hours`` itself (Python ints would round apart).
    shape = lambda c, w: np.array([_bell(h, c, w) for h in np.arange(24)])[hours]

    offsets = rng.uniform(-1.5, 1.5, size=n)
    phases = rng.uniform(-0.8, 0.8, size=n)
    day = np.sin(2.0 * math.pi * (hours - 9.0) / 24.0)
    solar = 3.6 * shape(13.0, 3.5)
    morning, evening = shape(8.0, 2.2), shape(19.0, 2.8)

    rp = np.zeros((slots, n))
    d = np.zeros((slots, n))
    t_out = np.zeros((slots, n))
    t_opt = np.zeros((slots, n))
    for i in range(n):
        t_out[:, i] = 8.0 + offsets[i] + 9.0 * day + rng.normal(0.0, 1.0, size=slots)
        wind = rng.uniform(0.0, 0.8, size=slots)
        rp[:, i] = solar * rng.uniform(0.7, 1.0, size=slots) + wind
        d[:, i] = (0.6 + 0.6 * morning + 0.9 * evening
                   + rng.normal(0.0, 0.08, size=slots))
        t_opt[:, i] = (70.5 + 1.5 * np.sin(2.0 * math.pi * (hours - 10.0) / 24.0
                                           + phases[i])
                       + rng.normal(0.0, 0.2, size=slots))

    # Clips keep the comfort assumptions valid for the default parameters and
    # leave the interchange limit slack (d - rp and rp - d both well under
    # l_max - e_max).
    t_out = np.clip(t_out, -4.0, 20.0)  # the day-shape mean 8 ± 12
    rp = np.clip(rp, 0.0, 4.5)
    d = np.clip(d, 0.1, 2.5)
    t_opt = np.clip(t_opt, 68.0, 75.0)

    evening_peak, morning_peak = shape(18.5, 1.8), shape(8.0, 1.5)
    midday_dip = shape(13.5, 2.5)
    m_s = (4.2 + 12.0 * evening_peak + 6.0 * morning_peak - 0.2 * midday_dip
           + rng.normal(0.0, 0.2, size=slots))
    m_s = np.clip(m_s, 4.0, 15.0)  # at least 1 cent/kWh above m_b
    m_b = np.full(slots, 3.0)
    g_t = rng.uniform(-15.0, 25.0, size=slots)

    scenario = Scenario.from_series(
        n=n, slots=slots,
        rp=rp.tolist(), d=d.tolist(), t_out=t_out.tolist(), t_opt=t_opt.tolist(),
        m_s=m_s.tolist(), m_b=m_b.tolist(), g_t=g_t.tolist(),
    )
    check_assumptions(scenario, buildings)
    return scenario, buildings


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def _headers(n: int) -> list[str]:
    cols = ["slot", "m_s", "m_b", "g_t"]
    for group in ("rp", "d", "t_out", "t_opt"):
        cols.extend(f"{group}_{i + 1}" for i in range(n))
    return cols


def save_scenario(scenario: Scenario, path: str) -> None:
    """Write a scenario as CSV, byte for byte as ``csv.writer`` would (no
    ``repr`` needs quoting); numbers round-trip exactly through load."""
    s = scenario
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_headers(s.n)) + "\r\n")
        fh.writelines(
            ",".join((str(k), *map(repr, chain((m_s, m_b, g_t), *grids)))) + "\r\n"
            for k, (m_s, m_b, g_t, *grids) in enumerate(
                zip(s.m_s, s.m_b, s.g_t, s.rp, s.d, s.t_out, s.t_opt)))


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario CSV.

    Parse failures name the row and column; invariant violations name the
    constraint and slot (via Scenario construction).
    """
    # utf-8-sig: a byte-order mark, as spreadsheet tools write, is no header.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ScenarioError(f"{path}: empty file") from None
        rows = list(reader)

    header = [h.strip() for h in header]
    # Before n is counted, or a doubled rp_1 would read as a missing rp_2.
    if len(set(header)) < len(header):
        duplicated = sorted({h for h in header if header.count(h) > 1})
        raise ScenarioError(f"{path}: bad header (duplicated columns: {duplicated})")
    n = sum(1 for h in header if h.startswith("rp_"))
    expected = _headers(n)
    missing = [h for h in expected if h not in header]
    unknown = [h for h in header if h not in expected]
    if missing or unknown:
        detail = []
        if missing:
            detail.append(f"missing columns: {missing}")
        if unknown:
            detail.append(f"unexpected columns: {unknown}")
        raise ScenarioError(
            f"{path}: bad header ({'; '.join(detail)}); expected exactly: "
            f"{','.join(expected)}"
        )
    index = {h: j for j, h in enumerate(header)}

    def cell(row_vals: list[str], row_no: int, col: str) -> float:
        j = index[col]
        if j >= len(row_vals):
            raise ScenarioError(f"{path}: row {row_no} is short, no column {col!r}")
        text = row_vals[j].strip()
        try:
            return float(text)
        except ValueError:
            raise ScenarioError(
                f"{path}: row {row_no}, column {col!r}: could not parse "
                f"{text!r} as a number"
            ) from None

    slots = len(rows)
    if slots == 0:
        raise ScenarioError(f"{path}: no data rows")
    # Parse a row's cells in ``expected`` order in one pass.  A row that
    # fails is walked cell by cell, which names its first bad cell.
    pick = itemgetter(*(index[h] for h in expected))
    width = len(header)
    table = []
    for k, row in enumerate(rows):
        row_no = k + 2  # 1-based, after the header
        if len(row) > width:  # a short row names its first missing cell
            raise ScenarioError(f"{path}: row {row_no} has {len(row)} cells, "
                                f"the header {width}")
        try:
            vals = list(map(float, pick(row)))
        except (IndexError, ValueError):
            vals = []
        slot_val = vals[0] if vals else cell(row, row_no, "slot")
        if slot_val != k:
            raise ScenarioError(
                f"{path}: row {row_no}: slot index {slot_val} out of order, "
                f"expected {k}"
            )
        table.append(vals or [cell(row, row_no, col) for col in expected])
    del rows  # not kept alive beside the table and the frozen tuples
    line = lambda j: [vals[j] for vals in table]
    grid = lambda g: [vals[4 + g * n:4 + (g + 1) * n] for vals in table]
    return Scenario.from_series(n=n, slots=slots, rp=grid(0), d=grid(1),
                                t_out=grid(2), t_opt=grid(3), m_s=line(1),
                                m_b=line(2), g_t=line(3))
