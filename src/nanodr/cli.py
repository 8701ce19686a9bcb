"""Batch command-line interface.

Verbs:

    run           simulate one scenario and write summary + per-slot series
    compare       run the comparison cases and write a one-row-per-case table
    sweep         re-run over a parameter grid and write plot-ready columns
    check-bounds  print the certified tuning windows without running
    gen-scenario  write a synthetic scenario CSV

Scenario source is either ``--scenario FILE`` or the seeded synthetic
generator (default).  Each command takes only the flags it reads:
``gen-scenario`` the generator's, ``check-bounds`` no solver knobs.  A
``--config FILE`` of ``key=value`` lines (keys equal to the command's own
long flag names, ``#`` comments) supplies defaults; explicit flags win.
All result artifacts are deterministic for a fixed seed/config; wall-clock
timings go to a separate ``timing.csv`` sidecar, which is the only
non-deterministic output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import replace
from typing import Iterable, Iterator, NamedTuple, Sequence

from .baselines import CaseId, run_case
from .domain import (
    ConfigurationError,
    InvariantViolation,
    NanogridParams,
    Scenario,
    ScenarioError,
)
from .policy import PolicyBundle, default_policy
from .scenario_io import (
    SyntheticSpec,
    default_nanogrid_params,
    default_pme_params,
    generate_synthetic,
    load_scenario,
    save_scenario,
    synthetic_params,
)
from .simulator import RunReport, TraceSink, run
from .stackelberg import GameConfig, IterationTrace, _step_sizes, check_band

_CASE_BY_NUMBER = {c.value: c for c in CaseId}


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


class _Flag(NamedTuple):
    """The flag ``--name`` (``_`` written ``-``), with dest ``name``, that
    sets the record field ``field`` (``name`` when None)."""

    name: str
    field: str | None = None
    type: type = float
    help: str | None = None


# One table per record the flags set, in the parser's order.
_SPEC_FLAGS = (_Flag("seed", type=int, help="synthetic generator seed"),
               _Flag("slots", type=int, help="synthetic horizon length"),
               _Flag("followers", "n", int, "synthetic nanogrid count"))
# Building parameters, applied to every nanogrid.
_NANOGRID_FLAGS = (_Flag("epsilon", help="thermal inertia for all nanogrids"),
                   *map(_Flag, ("eta", "e_max", "t_min", "t_max", "l_max", "gamma")))
_BATTERY_FLAGS = (_Flag("batt_min", "e_min"), _Flag("batt_max", "e_max_cap"),
                  *map(_Flag, ("u_cmax", "u_dmax", "c_b")))
# default_policy's keywords (defaults: weights at maximum, shifts at the
# floor); the nanogrids' two take one value per nanogrid.
_NANOGRID_CONTROL_FLAGS = tuple(map(_Flag, ("v_i", "gamma_shift")))
_PME_CONTROL_FLAGS = tuple(map(_Flag, ("v_p", "theta")))
# GameConfig's knobs.  min_gap comes first: check-bounds solves no slot and
# takes it alone, for the price band check.
_GAME_FLAGS = (_Flag("min_gap"), _Flag("rho"), _Flag("max_iters", type=int))


def _option(flag: _Flag) -> str:
    return "--" + flag.name.replace("_", "-")


def _overrides(args: argparse.Namespace, table: Iterable[_Flag]) -> dict[str, object]:
    """The table's flags that were given, keyed by the fields they set."""
    return {flag.field or flag.name: value for flag in table
            if (value := getattr(args, flag.name, None)) is not None}


def _add_flags(p: argparse.ArgumentParser, flags: Iterable[_Flag]) -> None:
    for flag in flags:
        p.add_argument(_option(flag), dest=flag.name, type=flag.type, help=flag.help)


def _add_scenario_args(p: argparse.ArgumentParser, model: bool = True,
                       solver: bool = True) -> None:
    """``--config`` and the generator's flags; with ``model`` the rest a
    ``Setup`` reads; with ``solver`` the slot solver's knobs."""
    p.add_argument("--config", metavar="FILE",
                   help="key=value defaults file (keys match the command's long flags)")
    _add_flags(p, _SPEC_FLAGS)
    if not model:
        return
    p.add_argument("--scenario", metavar="FILE",
                   help="scenario CSV; omit to use the synthetic generator")
    _add_flags(p, (*_NANOGRID_FLAGS, *_BATTERY_FLAGS, *_NANOGRID_CONTROL_FLAGS,
                   *_PME_CONTROL_FLAGS, *(_GAME_FLAGS if solver else _GAME_FLAGS[:1])))
    if solver:
        p.add_argument("--no-polish", dest="no_polish", action="store_true")


_ON_OFF = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_config_file(args: argparse.Namespace,
                      parser: argparse.ArgumentParser) -> dict[str, object]:
    """The ``--config`` file's ``key = value`` lines as the command's defaults.

    Keys are the command's long flags (``-`` or ``_``).  Values stay text, so
    argparse converts each with its flag's own type when it parses the
    command line again, and a bad one exits 2 naming the flag.  An on/off
    flag takes true/false, yes/no or 1/0.
    """
    try:
        with open(args.config, encoding="utf-8-sig") as fh:  # a BOM is no key
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    keys = vars(args).keys() - {"command", "func", "config"}
    defaults: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{args.config}:{no}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in keys:
            parser.error(f"{args.config}:{no}: unknown key {key!r}")
        if key in line_of:
            parser.error(f"{args.config}:{no}: {key} given twice, on lines "
                         f"{line_of[key]} and {no}")
        line_of[key] = no
        if isinstance(getattr(args, key), bool):
            if value.lower() not in _ON_OFF:
                parser.error(f"{args.config}:{no}: {key} takes true or false, "
                             f"got {value!r}")
            defaults[key] = _ON_OFF[value.lower()]
        else:
            defaults[key] = value
    return defaults


def _scenario_source(args: argparse.Namespace
                     ) -> tuple[Scenario, str, list[NanogridParams]]:
    """The scenario, its source label and its buildings' parameters, read
    from ``--scenario`` or made by the generator from its flags."""
    if args.scenario:
        clashes = [_option(flag) for flag in _SPEC_FLAGS
                   if getattr(args, flag.name) is not None]
        if clashes:
            raise ConfigurationError(
                f"exactly one scenario source: --scenario conflicts with "
                f"{', '.join(clashes)}"
            )
        scenario = load_scenario(args.scenario)
        return (scenario, f"file:{args.scenario}",
                [default_nanogrid_params(0.955) for _ in range(scenario.n)])
    spec = SyntheticSpec(**_overrides(args, _SPEC_FLAGS))
    return (generate_synthetic(spec), f"synthetic:seed={spec.seed}",
            list(synthetic_params(spec)))


class Setup:
    """Everything a command needs, assembled and validated.

    ``posts_prices`` says whether the command runs an aggregator that posts
    prices; then every slot's grid price band must be at least ``min_gap``
    wide, and this is checked before the certified windows are derived (a
    flat envelope makes them infinite) and before any slot is solved.
    ``source`` is ``_scenario_source(args)`` when the caller already has it.
    """

    def __init__(self, args: argparse.Namespace, posts_prices: bool = True,
                 source: tuple[Scenario, str, list[NanogridParams]] | None = None):
        self.scenario, self.source, params = source or _scenario_source(args)
        self.config = GameConfig(**_overrides(args, _GAME_FLAGS),
                                 polish=not getattr(args, "no_polish", False))
        if posts_prices:
            bands = zip(self.scenario.m_s, self.scenario.m_b)
            for k, (m_s, m_b) in enumerate(bands):
                check_band(m_s, m_b, self.config.min_gap, slot=k)
        building = _overrides(args, _NANOGRID_FLAGS)
        self.ng_params = [replace(p, **building) for p in params] if building else params
        self.pme_params = replace(default_pme_params(), **_overrides(args, _BATTERY_FLAGS))
        per_nanogrid = {key: [value] * self.scenario.n for key, value
                        in _overrides(args, _NANOGRID_CONTROL_FLAGS).items()}
        self.bundle: PolicyBundle = default_policy(
            self.scenario, self.ng_params, self.pme_params, **per_nanogrid,
            **_overrides(args, _PME_CONTROL_FLAGS))

    def simulate(self, trace_sink: TraceSink | None = None) -> RunReport:
        return run(self.scenario, self.ng_params, self.bundle.ng_controls,
                   self.pme_params, self.bundle.pme_control, self.config,
                   trace_sink=trace_sink)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _summary_pairs(report: RunReport, setup: Setup) -> list[tuple[str, object]]:
    return [
        ("source", setup.source),
        ("nanogrids", setup.scenario.n),
        ("slots", setup.scenario.slots),
        ("pme_profit_total_cent", report.pme_profit_total),
        ("energy_cost_total_cent", report.energy_cost_total),
        ("discomfort_total_cent", report.discomfort_total),
        ("aggregate_cost_cent", report.aggregate_cost),
        ("tatd_f", report.tatd),
        ("total_hvac_kwh", report.total_hvac),
        ("comfort_violations", report.comfort_violations),
        ("battery_violations", report.battery_violations),
        ("median_iterations", report.median_iterations),
        ("max_iterations", max(report.iterations)),
        ("all_converged", report.all_converged),
    ]


def _write_summary(report: RunReport, setup: Setup, out_dir: str) -> None:
    pairs = _summary_pairs(report, setup)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {value}\n")
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(dict(pairs), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cells(values: Iterable[float]) -> str:
    """Floats formatted as by ``_fmt`` and joined into CSV cells.

    A ``repr`` of a float holds no comma, quote or line break, so the
    default ``excel`` dialect of ``csv.writer`` would write these cells
    unquoted too.  Mapping the builtins skips a Python call per cell.
    """
    return ",".join(map(repr, map(float, values)))


def _write_series(report: RunReport, setup: Setup, out_dir: str) -> None:
    n = setup.scenario.n
    headers = (["slot", "p_s", "p_b", "y", "e_batt", "residual", "profit",
                "converged", "iterations"]
               + [f"t_{i + 1}" for i in range(n)]
               + [f"e_{i + 1}" for i in range(n)]
               + [f"tp_{i + 1}" for i in range(n)])
    # As csv.writer writes it: one write per row, each ending in CRLF.
    with open(os.path.join(out_dir, "series.csv"), "w", newline="") as fh:
        fh.write(",".join(headers) + "\r\n")
        fh.writelines(
            ",".join((str(o.slot),
                      _cells((o.leader.p_s, o.leader.p_b, o.leader.y,
                              o.next_state.e_batt, o.grid_residual, o.pme_profit)),
                      str(int(o.converged)), str(o.iterations),
                      *map(_fmt, o.next_state.t),
                      *(_fmt(f.e) for f in o.followers),
                      *(_fmt(f.tp) for f in o.followers))) + "\r\n"
            for o in report.outcomes)


@contextmanager
def _traces_csv(setup: Setup, out_dir: str) -> Iterator[TraceSink]:
    """Stream ``traces.csv``, one write per slot, from the sink it yields.

    The rows go to a temporary file in ``out_dir`` that replaces
    ``traces.csv`` only when the body completes; on any exception it is
    closed and removed, so a failed run leaves ``traces.csv`` as it was.
    """
    n = setup.scenario.n
    headers = (["slot", "iter", "p_s", "p_b", "y", "g_ps", "g_pb", "g_y",
                "step_s", "step_b", "step_y", "dist_s", "dist_b", "dist_y"]
               + [f"e_{i + 1}" for i in range(n)])
    # The step triple depends only on the iteration index, so its text is
    # formatted once per index.  Consecutive records of a trust box with
    # nothing free share their draws tuple, formatted once per run of them,
    # matched by identity, as 0.0 == -0.0.  A tuple's text leads with its
    # comma (n = 0: no text).
    cells = lambda values: "," + _cells(values) if values else ""
    steps_text: dict[int, str] = {}
    # A record's scalars are floats, so %r writes them as _fmt does.
    row = "%d,%d,%r,%r,%r,%r,%r,%r%s,%r,%r,%r%s\r\n"

    def slot_rows(k: int, trace: IterationTrace) -> Iterable[str]:
        last = draws = None
        for m, (p_s, p_b, y, g_ps, g_pb, g_y, d_s, d_b, d_y,
                es) in enumerate(trace.records, start=1):
            if es is not last:
                last, draws = es, cells(es)
            step = steps_text.get(m)
            if step is None:
                step = steps_text[m] = cells(_step_sizes(m))
            yield row % (k, m, p_s, p_b, y, g_ps, g_pb, g_y, step,
                         d_s, d_b, d_y, draws)

    tmp = os.path.join(out_dir, f".traces.csv.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(",".join(headers) + "\r\n")
            yield lambda k, trace: fh.write("".join(slot_rows(k, trace)))
        os.replace(tmp, os.path.join(out_dir, "traces.csv"))
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    setup = Setup(args)
    os.makedirs(args.out, exist_ok=True)
    with _traces_csv(setup, args.out) if args.traces else nullcontext() as sink:
        report = setup.simulate(sink)
        _write_summary(report, setup, args.out)
        _write_series(report, setup, args.out)
    for key, value in _summary_pairs(report, setup):
        print(f"{key} = {value}")
    return 0


def _parse_cases(text: str) -> list[CaseId]:
    cases = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            case = _CASE_BY_NUMBER[int(token)]
        except (ValueError, KeyError):
            try:
                case = CaseId[token.upper()]
            except KeyError:
                raise ConfigurationError(
                    f"unknown case {token!r}; use 1-5 or names "
                    f"{[c.name for c in CaseId]}"
                ) from None
        if case in cases:
            raise ConfigurationError(f"case {case.value} ({case.name}) named twice")
        cases.append(case)
    if not cases:
        raise ConfigurationError("empty case list")
    return cases


# The compare and sweep tables' columns for a run's five totals.
_ECONOMICS = ("trading_profit", "energy_cost", "discomfort_cost",
              "aggregate_cost", "tatd")


def _economics(report: RunReport) -> dict[str, str]:
    return dict(zip(_ECONOMICS, map(_fmt, (
        report.pme_profit_total, report.energy_cost_total,
        report.discomfort_total, report.aggregate_cost, report.tatd))))


def _cmd_compare(args: argparse.Namespace) -> int:
    cases = _parse_cases(args.cases)
    setup = Setup(args, posts_prices=any(case.posts_prices for case in cases))
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for case in cases:
        report = run_case(case, setup.scenario, setup.ng_params,
                          setup.bundle.ng_controls, setup.pme_params,
                          setup.bundle.pme_control, setup.config)
        row = {"case": case.value, "name": case.name, **_economics(report)}
        if case is CaseId.SOCIAL_WELFARE:
            # The cooperative case has no prices, so its internal transfer
            # columns (the first two) stay blank in the table.
            row.update(dict.fromkeys(_ECONOMICS[:2], ""))
        # Only the proposed case refuses a breach; the others count theirs.
        row.update(comfort_violations=report.comfort_violations,
                   battery_violations=report.battery_violations)
        rows.append(row)
    headers = ("case", "name", *_ECONOMICS, "comfort_violations",
               "battery_violations")
    with open(os.path.join(args.out, "comparison.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=headers)
        writer.writeheader()
        writer.writerows(rows)
    widths = {h: max(len(h), max(len(str(r[h])) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers))
    for r in rows:
        print("  ".join(str(r[h]).ljust(widths[h]) for h in headers))
    return 0


_SWEEPABLE = ("gamma", "epsilon", "t_min", "t_max", "n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Not required by argparse, so that a --config file can supply them.
    for flag in ("param", "values"):
        if getattr(args, flag) is None:
            raise ConfigurationError(f"sweep needs --{flag}, on the command "
                                     f"line or as {flag} = ... in --config")
    if args.param not in _SWEEPABLE:
        raise ConfigurationError(
            f"unsupported sweep parameter {args.param!r}; choose from {_SWEEPABLE}"
        )
    # The swept parameter takes its values from --values alone, not from
    # its own flag or --config key.
    swept = "followers" if args.param == "n" else args.param
    if getattr(args, swept) is not None:
        raise ConfigurationError(f"{_option(_Flag(swept))} sets the swept "
                                 f"parameter {args.param}; give it in --values only")
    values = []
    for token in args.values.split(","):
        if token.strip():
            try:
                value = float(token)
                if math.isnan(value) and args.param != "n":
                    raise ValueError
            except ValueError:
                raise ConfigurationError(
                    f"sweep value {token.strip()!r} is not a number") from None
            if value in values:
                raise ConfigurationError(f"sweep value {value!r} given twice")
            values.append(value)
    if not values:
        raise ConfigurationError("empty sweep value list")
    if args.param == "n":
        if args.scenario:
            raise ConfigurationError("the n sweep needs a synthetic scenario")
        for value in values:
            if not value.is_integer() or value < 0:
                raise ConfigurationError(f"n must be a nonnegative integer, got {value}")
        source = None
    else:
        # Every row reads the same scenario: read or made once, before --out.
        source = _scenario_source(args)
    # Every row is set up before --out is made; a fault that refuses every
    # row is refused as run refuses it, and the others are skipped rows.
    setups: list[Setup | Exception] = []
    for value in values:
        sweep_args = argparse.Namespace(**vars(args))
        setattr(sweep_args, swept, int(value) if args.param == "n" else value)
        try:
            setups.append(Setup(sweep_args, source=source))
        except (ConfigurationError, ScenarioError) as exc:
            setups.append(exc)
    if all(isinstance(setup, Exception) for setup in setups):
        raise setups[0]
    os.makedirs(args.out, exist_ok=True)
    rows = []
    timing = []
    for value, setup in zip(values, setups):
        point = {"param": args.param, "value": _fmt(value)}
        if isinstance(setup, Exception):
            rows.append({**point, "status": f"skipped: {setup}"})
            print(f"warning: {args.param}={value} skipped: {setup}", file=sys.stderr)
            continue
        started = time.perf_counter()
        report = setup.simulate()
        elapsed = time.perf_counter() - started
        rows.append({**point, "status": "ok", **_economics(report),
                     "total_hvac": _fmt(report.total_hvac),
                     "median_iterations": _fmt(report.median_iterations)})
        timing.append({**point, "wall_time_s": _fmt(elapsed),
                       "slots": setup.scenario.slots,
                       "per_slot_ms": _fmt(1000.0 * elapsed / setup.scenario.slots)})
    headers = ("param", "value", "status", *_ECONOMICS, "total_hvac",
               "median_iterations")
    with open(os.path.join(args.out, "sweep.csv"), "w", newline="") as fh:
        # A skipped row has only its first three cells.
        writer = csv.DictWriter(fh, fieldnames=headers, restval="")
        writer.writeheader()
        writer.writerows(rows)
    # Wall-clock sidecar: the single non-deterministic output, kept apart so
    # the result artifacts stay byte-identical across reruns.
    with open(os.path.join(args.out, "timing.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["param", "value", "wall_time_s",
                                                "slots", "per_slot_ms"])
        writer.writeheader()
        writer.writerows(timing)
    for r in rows:
        print(f"{r['param']}={r['value']}: status={r['status']} "
              f"aggregate={r.get('aggregate_cost', '')} tatd={r.get('tatd', '')}")
    return 0


def _cmd_check_bounds(args: argparse.Namespace) -> int:
    bundle = Setup(args).bundle
    for i, (bounds, control) in enumerate(zip(bundle.follower_bounds,
                                              bundle.ng_controls)):
        print(f"nanogrid {i}:")
        print(f"  v_max       = {bounds.v_max!r}")
        print(f"  shift_floor = {bounds.gamma_min!r}")
        print(f"  shift_ceil  = {bounds.gamma_max!r}")
        print(f"  opt_span    = {bounds.opt_span!r}")
        print(f"  swing       = {bounds.swing!r}")
        print(f"  drift_bound = {bounds.drift_bound!r}")
        print(f"  using v_i={control.v_i!r} gamma_shift={control.gamma_shift!r}")
    lb = bundle.leader_bounds
    print("aggregator:")
    print(f"  v_p_max     = {lb.v_p_max!r}")
    print(f"  theta_floor = {lb.theta_min!r}")
    print(f"  theta_ceil  = {lb.theta_max!r}")
    print(f"  c_min/c_max = {lb.c_min!r} / {lb.c_max!r}")
    print(f"  drift_bound = {lb.drift_bound!r}")
    print(f"  using v_p={bundle.pme_control.v_p!r} theta={bundle.pme_control.theta!r}")
    return 0


def _cmd_gen_scenario(args: argparse.Namespace) -> int:
    scenario = generate_synthetic(SyntheticSpec(**_overrides(args, _SPEC_FLAGS)))
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_scenario(scenario, args.out)
    print(f"wrote {scenario.slots} slots x {scenario.n} nanogrids to {args.out}")
    return 0


def build_parser(defaults: dict[str, object] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` replaces the commands' flag defaults."""
    parser = argparse.ArgumentParser(
        prog="nanodr",
        description="Bilevel online energy management simulator "
                    "(bidirectional pricing + HVAC demand response).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_cmp = sub.add_parser("compare", help="run comparison cases")
    p_swp = sub.add_parser("sweep", help="sweep one parameter")
    for p in (p_run, p_cmp, p_swp):
        _add_scenario_args(p)
        p.add_argument("--out", default="out", help="artifact directory")
    p_run.add_argument("--traces", action="store_true",
                       help="also write per-iteration traces.csv")
    p_run.set_defaults(func=_cmd_run)

    p_cmp.add_argument("--cases", default="1,2,3,4,5",
                       help="comma list of case numbers or names")
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp.add_argument("--param", help=f"one of {', '.join(_SWEEPABLE)}")
    p_swp.add_argument("--values", help="comma list of values")
    p_swp.set_defaults(func=_cmd_sweep)

    p_chk = sub.add_parser("check-bounds",
                           help="print certified tuning windows")
    _add_scenario_args(p_chk, solver=False)
    p_chk.set_defaults(func=_cmd_check_bounds)

    p_gen = sub.add_parser("gen-scenario", help="write a synthetic scenario CSV")
    _add_scenario_args(p_gen, model=False)
    p_gen.add_argument("--out", default="scenario.csv", help="output CSV path")
    p_gen.set_defaults(func=_cmd_gen_scenario)
    if defaults:
        for p in (p_run, p_cmp, p_swp, p_chk, p_gen):
            p.set_defaults(**defaults)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # Parse again with the file's values as defaults: explicit flags
        # still win, and argparse converts and checks each file value.
        args = build_parser(_read_config_file(args, parser)).parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ScenarioError, OSError) as exc:
        # OSError: an unreadable scenario or an unwritable ``--out``.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
