"""Core data types and physical/economic primitives.

The system: a set of nanogrids (single buildings with rooftop renewables,
an inelastic base load and an HVAC unit) trade energy with an aggregator
that posts a selling price ``p_s`` and a buying price ``p_b`` each slot,
operates a battery, and settles any residual imbalance with the main grid
at prices ``m_s`` / ``m_b``.  All energy quantities are kWh per one-hour
slot, temperatures are in degrees Fahrenheit and money is in cents.

The model is heating-only: HVAC input raises the indoor temperature, which
follows a first-order inertial model,

    T' = eps * T + (1 - eps) * (T_out + eta * e)

and every rule built on it (the follower decision rule, the comfort
assumptions and the tuning certificates) assumes that sign.

Battery energy follows E' = E + y with y the signed charge for the slot.

Both controllers run on shifted copies of their physical state ("virtual
queues"): H = T + gamma_shift for each nanogrid and B = E + theta for the
battery.  Keeping those queues bounded is what enforces the comfort band
and the battery capacity window without any forecast.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Sequence


class ConfigurationError(ValueError):
    """Parameters, controls or assumptions are inconsistent."""


class ScenarioError(ValueError):
    """Scenario data is malformed or makes a slot infeasible."""


class InvariantViolation(RuntimeError):
    """A guaranteed runtime bound was broken (indicates a bug or bad controls)."""


# ---------------------------------------------------------------------------
# Parameter and control records
# ---------------------------------------------------------------------------


def _reject_non_finite(record: object, infinite_ok: tuple[str, ...] = ()) -> None:
    """Raise ConfigurationError naming the first field of a record that is
    NaN, or infinite and not in ``infinite_ok``.

    Every range check is a comparison, and a comparison with NaN is false,
    so without this a NaN would pass them all.  An infinite parameter or
    control passes them too, and turns the certified windows derived from it
    into nan.
    """
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            if math.isnan(value):
                raise ConfigurationError(f"{field.name} must be a number, got nan")
            if field.name not in infinite_ok:
                raise ConfigurationError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True, slots=True)
class NanogridParams:
    """Physical constants of one nanogrid's HVAC and interconnection."""

    epsilon: float  # thermal inertia, open interval (0, 1)
    eta: float      # °F gained per kWh of HVAC input
    e_max: float    # rated HVAC draw per slot (kWh)
    t_min: float    # comfort band floor (°F)
    t_max: float    # comfort band ceiling (°F)
    l_max: float    # interchange limit with the aggregator (kWh per slot)
    gamma: float    # discomfort weight (cent / °F²)

    def __post_init__(self) -> None:
        # An infinite l_max is the documented "no interchange limit".
        _reject_non_finite(self, infinite_ok=("l_max",))
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.eta <= 0.0:
            raise ConfigurationError(f"eta must be positive, got {self.eta}")
        if self.e_max <= 0.0:
            raise ConfigurationError(f"e_max must be positive, got {self.e_max}")
        if self.l_max <= 0.0:
            raise ConfigurationError(f"l_max must be positive, got {self.l_max}")
        if self.gamma < 0.0:
            raise ConfigurationError(f"gamma must be nonnegative, got {self.gamma}")
        if not self.t_min < self.t_max:
            raise ConfigurationError(
                f"comfort band is empty: t_min={self.t_min} >= t_max={self.t_max}"
            )


@dataclass(frozen=True, slots=True)
class NanogridControl:
    """Per-nanogrid controller tuning: trade-off weight and queue shift."""

    v_i: float          # weight on economic cost vs queue stability (> 0)
    gamma_shift: float  # constant shift defining the virtual queue H = T + gamma_shift (°F)

    def __post_init__(self) -> None:
        _reject_non_finite(self)
        if self.v_i <= 0.0:
            raise ConfigurationError(f"v_i must be positive, got {self.v_i}")


@dataclass(frozen=True, slots=True)
class PmeParams:
    """Battery constants of the aggregator."""

    e_min: float      # minimum battery energy (kWh)
    e_max_cap: float  # maximum battery energy (kWh)
    u_cmax: float     # max charge per slot (kWh)
    u_dmax: float     # max discharge per slot (kWh)
    c_b: float        # quadratic amortized battery-use cost coefficient (cent / kWh²)

    def __post_init__(self) -> None:
        _reject_non_finite(self)
        if not self.e_min < self.e_max_cap:
            raise ConfigurationError(
                f"battery window is empty: e_min={self.e_min} >= e_max_cap={self.e_max_cap}"
            )
        if self.u_cmax <= 0.0 or self.u_dmax <= 0.0:
            raise ConfigurationError("charge/discharge limits must be positive")
        if self.c_b < 0.0:
            raise ConfigurationError(f"c_b must be nonnegative, got {self.c_b}")
        if not self.e_max_cap - self.e_min > self.u_cmax + self.u_dmax:
            # Needed so a positive stabilizing weight v_p exists at all.
            raise ConfigurationError(
                "battery window must exceed one slot of full charge plus full "
                f"discharge: {self.e_max_cap} - {self.e_min} <= "
                f"{self.u_cmax} + {self.u_dmax}"
            )


@dataclass(frozen=True, slots=True)
class PmeControl:
    """Aggregator controller tuning."""

    v_p: float    # weight on profit vs battery-queue stability (> 0)
    theta: float  # constant shift defining the virtual queue B = E + theta (kWh)

    def __post_init__(self) -> None:
        _reject_non_finite(self)
        if self.v_p <= 0.0:
            raise ConfigurationError(f"v_p must be positive, got {self.v_p}")


# ---------------------------------------------------------------------------
# Actions and state
# ---------------------------------------------------------------------------


class LeaderAction(NamedTuple):
    """Aggregator decision for one slot: both prices and battery charge.
    Tuple-backed, as is FollowerAction: a dataclass sets each field by call."""

    p_s: float  # selling price (cent/kWh)
    p_b: float  # buying price (cent/kWh)
    y: float    # battery charge (+) / discharge (−) amount (kWh)


class FollowerAction(NamedTuple):
    """Nanogrid decision for one slot."""

    e: float   # HVAC consumption (kWh)
    tp: float  # signed power injected from the aggregator, tp = d + e - rp (kWh)


@dataclass(frozen=True, slots=True)
class SlotState:
    """Joint physical + queue state entering a slot.

    ``h[i] == t[i] + gamma_shift_i`` and ``b == e_batt + theta`` hold exactly;
    updates maintain them (see simulator.update_queues).
    """

    t: tuple[float, ...]  # indoor temperature per nanogrid (°F)
    h: tuple[float, ...]  # virtual temperature queue per nanogrid (°F)
    e_batt: float         # battery energy (kWh)
    b: float              # virtual battery queue (kWh)


@dataclass(frozen=True, slots=True)
class FollowerSlot:
    """Exogenous data one nanogrid sees in one slot."""

    rp: float     # renewable output (kWh)
    d: float      # base load (kWh)
    t_out: float  # outdoor temperature (°F)
    t_opt: float  # comfort target for the temperature reached at the end of the slot (°F)


@dataclass(frozen=True, slots=True)
class SlotData:
    """All exogenous data for one slot."""

    m_s: float  # main-grid selling price (cent/kWh)
    m_b: float  # main-grid buying price (cent/kWh)
    g_t: float  # aggregator net generation, output minus local load (kWh)
    followers: tuple[FollowerSlot, ...]


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Exogenous time series for a whole run.

    Per-slot, per-nanogrid series are indexed ``series[k][i]``.  ``t_opt[k]``
    is the comfort target against which the temperature reached at the end of
    slot ``k`` is scored.  Construction validates shape, finiteness, the
    price band and the sign of ``rp`` and ``d``; no other code path builds
    an unvalidated Scenario.
    """

    n: int
    slots: int
    rp: tuple[tuple[float, ...], ...]     # renewable output (kWh)
    d: tuple[tuple[float, ...], ...]      # base load (kWh)
    t_out: tuple[tuple[float, ...], ...]  # outdoor temperature (°F)
    t_opt: tuple[tuple[float, ...], ...]  # optimum comfort temperature (°F)
    m_s: tuple[float, ...]                # main-grid selling price (cent/kWh)
    m_b: tuple[float, ...]                # main-grid buying price (cent/kWh)
    g_t: tuple[float, ...]                # aggregator net generation (kWh)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ScenarioError(f"nanogrid count must be nonnegative, got {self.n}")
        if self.slots < 1:
            raise ScenarioError(f"slot count must be at least 1, got {self.slots}")
        for name in ("rp", "d", "t_out", "t_opt"):
            series = getattr(self, name)
            if len(series) != self.slots:
                raise ScenarioError(
                    f"series {name!r} has {len(series)} slots, expected {self.slots}"
                )
            for k, row in enumerate(series):
                if len(row) != self.n:
                    raise ScenarioError(
                        f"series {name!r} row {k} has {len(row)} columns, expected {self.n}"
                    )
        for name in ("m_s", "m_b", "g_t"):
            series = getattr(self, name)
            if len(series) != self.slots:
                raise ScenarioError(
                    f"series {name!r} has {len(series)} slots, expected {self.slots}"
                )
        # Every cell finite, every band nonempty, no rp or d negative; only a
        # scenario that fails is walked slot by slot, to name its first fault.
        try:
            ok = (all(map(math.isfinite, chain(self.m_s, self.m_b, self.g_t, *self.rp,
                                               *self.d, *self.t_out, *self.t_opt)))
                  and all(map(operator.le, self.m_b, self.m_s))
                  and min(chain(*self.rp, *self.d), default=0.0) >= 0.0)
        except TypeError:  # a cell that is no number: walk to the first fault
            ok = False
        if ok:
            return
        for k in range(self.slots):
            for name in ("m_s", "m_b", "g_t"):
                x = getattr(self, name)[k]
                if not math.isfinite(x):
                    raise ScenarioError(f"series {name!r} is not finite at slot {k}: {x}")
            for name in ("rp", "d", "t_out", "t_opt"):
                for i, x in enumerate(getattr(self, name)[k]):
                    if not math.isfinite(x):
                        raise ScenarioError(f"series {name!r} is not finite at "
                                            f"slot {k}, nanogrid {i}: {x}")
            if self.m_b[k] > self.m_s[k]:
                raise ScenarioError(
                    f"main-grid price band is empty at slot {k}: "
                    f"m_b={self.m_b[k]} > m_s={self.m_s[k]}"
                )
            for i in range(self.n):
                if self.rp[k][i] < 0.0:
                    raise ScenarioError(f"rp negative at slot {k}, nanogrid {i}")
                if self.d[k][i] < 0.0:
                    raise ScenarioError(f"d negative at slot {k}, nanogrid {i}")

    @classmethod
    def from_series(cls, n, slots, rp, d, t_out, t_opt, m_s, m_b, g_t) -> "Scenario":
        """Build a Scenario from any nested sequences, freezing them to tuples."""
        grid = lambda s: tuple(tuple(map(float, row)) for row in s)
        line = lambda s: tuple(map(float, s))
        return cls(n, slots, grid(rp), grid(d), grid(t_out), grid(t_opt),
                   line(m_s), line(m_b), line(g_t))

    @cached_property
    def _slot_memo(self) -> list[SlotData | None]:
        """Each slot's ``SlotData`` once ``slot`` has built it.  Kept in the
        instance ``__dict__``, so no field, ``__eq__`` or ``replace`` sees it."""
        return [None] * self.slots

    def slot(self, k: int) -> SlotData:
        """Slot k's exogenous data, built on its first request and the same
        object on every later one: a run asks each slot once, and the
        comparison cases and sweep rows on one scenario share them."""
        memo = self._slot_memo
        data = memo[k]
        if data is None:
            data = memo[k] = SlotData(
                m_s=self.m_s[k],
                m_b=self.m_b[k],
                g_t=self.g_t[k],
                followers=tuple(map(FollowerSlot, self.rp[k], self.d[k],
                                    self.t_out[k], self.t_opt[k])),
            )
        return data


def _binds(l_max: float, e_max: float, rp: float, d: float) -> bool:
    """Whether l_max narrows one slot's draw box below [0, e_max], tested as
    the box edges round.  Monotone in l_max: rounding is."""
    return l_max - d + rp < e_max or -l_max - d + rp > 0.0


def _tightest_l_max(e_max: float, rp: float, d: float) -> float:
    """The smallest l_max that ``_binds`` accepts in one slot, by ulp steps."""
    l_max = max(e_max + d - rp, rp - d)
    while _binds(l_max, e_max, rp, d):
        l_max = math.nextafter(l_max, math.inf)
    while not _binds(below := math.nextafter(l_max, 0.0), e_max, rp, d):
        l_max = below
    return l_max


def check_assumptions(scenario: Scenario, params: Sequence[NanogridParams]) -> None:
    """Check the comfort-guarantee assumptions for every nanogrid of a scenario.

    (a) outdoor temperature never exceeds the comfort ceiling;
    (b) full HVAC power can lift even the coldest outdoor air to the floor;
    (c) the comfort band is wider than the worst one-slot temperature swing.

    Besides (a)-(c) the certificate needs the interchange limit to leave the
    draw box at [0, e_max]: l_max >= e_max + d - rp and l_max >= rp - d in
    every slot, tested as the box edges round, so an accepted l_max leaves
    the box exactly [0, e_max] and the solvers take that box.  Call this
    when binding a scenario to nanogrid parameters; the runtime guarantees
    are void without it.  Raises ConfigurationError naming the violated
    assumption; a binding l_max is refused with the smallest one accepted.
    """
    if len(params) != scenario.n:
        raise ConfigurationError(
            f"got {len(params)} parameter sets for {scenario.n} nanogrids"
        )
    for i, p in enumerate(params):
        t_out_min = min(row[i] for row in scenario.t_out)
        t_out_max = max(row[i] for row in scenario.t_out)
        if t_out_max > p.t_max:
            raise ConfigurationError(
                f"assumption (a) violated for nanogrid {i}: "
                f"max outdoor temperature {t_out_max} > t_max {p.t_max}"
            )
        if p.eta * p.e_max + t_out_min < p.t_min:
            raise ConfigurationError(
                f"assumption (b) violated for nanogrid {i}: "
                f"eta*e_max + min outdoor temperature "
                f"{p.eta * p.e_max + t_out_min} < t_min {p.t_min}"
            )
        swing = (1.0 - p.epsilon) * (t_out_max + p.eta * p.e_max - t_out_min)
        if not p.t_max - p.t_min > swing:
            raise ConfigurationError(
                f"assumption (c) violated for nanogrid {i}: comfort band "
                f"{p.t_max - p.t_min} not wider than worst one-slot "
                f"swing {swing}"
            )
        cells = [(scenario.rp[k][i], scenario.d[k][i]) for k in range(scenario.slots)]
        for k, (rp, d) in enumerate(cells):
            if _binds(p.l_max, p.e_max, rp, d):
                gap = rp - d
                tightest = max(_tightest_l_max(p.e_max, *cell) for cell in cells)
                raise ConfigurationError(
                    f"l_max={p.l_max} binds the draw box of nanogrid {i} at "
                    f"slot {k}: the comfort certificate needs l_max >= "
                    f"e_max + d - rp = {p.e_max - gap} and l_max >= rp - d = {gap}; "
                    f"the smallest l_max accepted for nanogrid {i} in every "
                    f"slot is {tightest}"
                )


# ---------------------------------------------------------------------------
# Primitive functions
# ---------------------------------------------------------------------------


def thermal_step(t: float, t_out: float, e: float, params: NanogridParams) -> float:
    """One slot of the first-order indoor temperature model: the HVAC draw
    adds eta*e to the effective outdoor temperature."""
    eps = params.epsilon
    return eps * t + (1.0 - eps) * (t_out + params.eta * e)


def bilinear_trade_cost(tp: float, p_s: float, p_b: float) -> float:
    """Cost of a signed trade: buy at p_s when tp > 0, get paid p_b when tp < 0.

    It settles a nanogrid's interchange at the aggregator's prices, and the
    aggregator's residual with the main grid at (m_s, m_b).  Equals
    0.5*(p_s - p_b)*|tp| + 0.5*(p_s + p_b)*tp, the split-price form the
    relaxed follower objective uses.
    """
    if tp >= 0.0:
        return p_s * tp
    return p_b * tp


def battery_cost(y: float, c_b: float) -> float:
    """Amortized per-slot cost of charging or discharging by y."""
    return 0.5 * c_b * y * y


def _trade_sums(p_s: float, p_b: float,
                tps: Sequence[float]) -> tuple[float, float]:
    """Trading revenue and total interchange, summed in follower order.

    The aggregator's profit, its surrogate and the solver's memo all take
    their trade terms from here, so they agree to the last bit.
    """
    revenue = 0.0
    total = 0.0
    for tp in tps:
        revenue += p_s * tp if tp >= 0.0 else p_b * tp
        total += tp
    return revenue, total


def pme_profit(action: LeaderAction, tps: Sequence[float], g_t: float,
               m_s: float, m_b: float, c_b: float) -> float:
    """Aggregator net profit for one slot.

    Revenue from trading with the nanogrids, minus battery-use cost, minus
    the cost of settling the net residual sum(tp) - g_t + y with the main grid.
    """
    revenue, total_tp = _trade_sums(action.p_s, action.p_b, tps)
    residual = total_tp - g_t + action.y
    return revenue - battery_cost(action.y, c_b) - bilinear_trade_cost(residual, m_s, m_b)


def clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x
