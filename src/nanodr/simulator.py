"""Outer time loop: per-slot game solve, state updates and accounting.

Each slot is solved to its equilibrium, the physical states (indoor
temperatures, battery energy) and their shifted queue copies advance by
their difference equations, and economics are accumulated into a RunReport.

The queue copies are stored in exactly-shifted form (H = T + gamma_shift,
B = E + theta) so the identities cannot drift over long horizons; every
step the recursive queue updates are checked against the shifted physical
updates and a disagreement beyond rounding raises InvariantViolation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

from .domain import (
    ConfigurationError,
    FollowerAction,
    InvariantViolation,
    LeaderAction,
    NanogridControl,
    NanogridParams,
    PmeControl,
    PmeParams,
    Scenario,
    SlotData,
    SlotState,
    bilinear_trade_cost,
    check_assumptions,
    pme_profit,
    thermal_step,
)
from .nanogrid import follower_models
from .stackelberg import GameConfig, IterationTrace, SlotSolution, solve_slot

_IDENTITY_TOL = 1e-12


class SlotOutcome(NamedTuple):
    """Everything one slot produced: actions, costs, and the state it left.
    Tuple-backed like the actions, and built by ``run`` with ``tuple.__new__``."""

    slot: int
    leader: LeaderAction
    followers: tuple[FollowerAction, ...]
    next_state: SlotState
    pme_profit: float     # cent
    grid_residual: float  # kWh, sum(tp) - g_t + y
    converged: bool
    iterations: int


@dataclass(frozen=True)
class RunReport:
    """Aggregated economics over a whole horizon, with every slot's outcome."""

    pme_profit_total: float    # cent
    energy_cost_total: float   # cent, nanogrids' trading cost
    discomfort_total: float    # cent
    aggregate_cost: float      # discomfort + energy cost - profit
    tatd: float                # mean |T - target| over nanogrids and slots (°F)
    comfort_violations: int
    battery_violations: int
    outcomes: tuple[SlotOutcome, ...]

    @property
    def iterations(self) -> tuple[int, ...]:
        return tuple(o.iterations for o in self.outcomes)

    @property
    def median_iterations(self) -> float:
        return statistics.median(self.iterations)

    @property
    def all_converged(self) -> bool:
        return all(o.converged for o in self.outcomes)

    @property
    def total_hvac(self) -> float:
        return math.fsum(f.e for o in self.outcomes for f in o.followers)


def update_queues(state: SlotState, followers: Sequence[FollowerAction],
                  leader: LeaderAction, slot: SlotData,
                  ng_params: Sequence[NanogridParams],
                  ng_controls: Sequence[NanogridControl],
                  pme_control: PmeControl) -> SlotState:
    """Advance physical states and queues by one slot.

    Temperatures move by the inertial model, the battery by its balance
    equation; each queue's own recursion is evaluated and compared against
    the shifted physical value before the shifted form is stored.
    """
    t_next: list[float] = []
    h_next: list[float] = []
    for t, h, (e, _), fs, p, c in zip(state.t, state.h, followers,
                                      slot.followers, ng_params, ng_controls):
        t_new = thermal_step(t, fs.t_out, e, p)
        h_recursive = (p.epsilon * h
                       + (1.0 - p.epsilon) * (c.gamma_shift + fs.t_out + p.eta * e))
        h_shifted = t_new + c.gamma_shift
        if not abs(h_recursive - h_shifted) <= _IDENTITY_TOL:
            raise InvariantViolation(
                f"temperature queue identity broke for nanogrid {len(t_next)}: "
                f"recursive {h_recursive} vs shifted {h_shifted}"
            )
        t_next.append(t_new)
        h_next.append(h_shifted)

    e_new = state.e_batt + leader.y
    b_recursive = state.b + leader.y
    b_shifted = e_new + pme_control.theta
    if not abs(b_recursive - b_shifted) <= _IDENTITY_TOL:
        raise InvariantViolation(
            f"battery queue identity broke: recursive {b_recursive} "
            f"vs shifted {b_shifted}"
        )
    return SlotState(t=tuple(t_next), h=tuple(h_next), e_batt=e_new, b=b_shifted)


SlotSolver = Callable[[SlotState, SlotData], SlotSolution]
TraceSink = Callable[[int, IterationTrace], None]


def run(scenario: Scenario, ng_params: Sequence[NanogridParams],
        ng_controls: Sequence[NanogridControl], pme_params: PmeParams,
        pme_control: PmeControl, config: GameConfig = GameConfig(),
        trace_sink: TraceSink | None = None,
        slot_solver: SlotSolver | None = None) -> RunReport:
    """Simulate the whole horizon and aggregate the economics.

    The comfort-guarantee assumptions are checked first.  Every run starts
    with each temperature at the middle of its comfort band and the battery
    at the middle of its window.  The default per-slot policy is the
    equilibrium solve, which reads the buildings' constants from one
    ``follower_models`` tuple built here, before the first slot; it carries
    the bound certificates, so a comfort or battery breach raises
    InvariantViolation naming the slot.  ``slot_solver`` substitutes a
    policy that carries none (the comparison cases); its breaches are only
    counted.
    ``trace_sink(k, trace)`` gets each slot's ``IterationTrace`` once its
    bounds pass, outside the solve; the run keeps no trace of its own.
    """
    n = scenario.n
    if len(ng_params) != n or len(ng_controls) != n:
        raise ConfigurationError(
            f"need {n} parameter and control sets, got "
            f"{len(ng_params)} and {len(ng_controls)}"
        )
    check_assumptions(scenario, ng_params)

    strict = slot_solver is None
    if strict:
        models = follower_models(ng_params, ng_controls)

        def slot_solver(state: SlotState, slot: SlotData) -> SlotSolution:
            return solve_slot(state, slot, models, pme_params, pme_control,
                              config)

    t0 = tuple(0.5 * (p.t_min + p.t_max) for p in ng_params)
    e0 = 0.5 * (pme_params.e_min + pme_params.e_max_cap)
    state = SlotState(
        t=t0,
        h=tuple(t + c.gamma_shift for t, c in zip(t0, ng_controls)),
        e_batt=e0,
        b=e0 + pme_control.theta,
    )

    tol = 1e-9
    outcomes: list[SlotOutcome] = []
    profit_sum = 0.0
    energy_sum = 0.0
    discomfort_sum = 0.0
    tatd_sum = 0.0
    comfort_violations = 0
    battery_violations = 0

    for k in range(scenario.slots):
        slot = scenario.slot(k)
        leader, followers, trace = slot_solver(state, slot)

        next_state = update_queues(state, followers, leader, slot, ng_params,
                                   ng_controls, pme_control)
        tps = [tp for _, tp in followers]
        profit = pme_profit(leader, tps, slot.g_t, slot.m_s, slot.m_b,
                            pme_params.c_b)
        residual = math.fsum(tps) - slot.g_t + leader.y

        # One pass over the buildings: the comfort check and each one's
        # discomfort and |T - t_opt| terms, summed below with fsum.
        discomfort: list[float] = []
        deviation: list[float] = []
        for t, fs, p in zip(next_state.t, slot.followers, ng_params):
            if not p.t_min - tol <= t <= p.t_max + tol:
                comfort_violations += 1
                if strict:
                    raise InvariantViolation(
                        f"comfort bound violated at slot {k}, nanogrid "
                        f"{len(discomfort)}: T={t} outside [{p.t_min}, {p.t_max}]"
                    )
            gap = t - fs.t_opt
            discomfort.append(p.gamma * (gap * gap))
            deviation.append(abs(gap))
        if not pme_params.e_min - tol <= next_state.e_batt <= pme_params.e_max_cap + tol:
            battery_violations += 1
            if strict:
                raise InvariantViolation(
                    f"battery bound violated at slot {k}: "
                    f"E={next_state.e_batt} outside "
                    f"[{pme_params.e_min}, {pme_params.e_max_cap}]"
                )
        if trace_sink is not None:
            trace_sink(k, trace)

        outcomes.append(tuple.__new__(SlotOutcome, (
            k, leader, followers, next_state, profit, residual,
            trace.converged, trace.iterations)))

        profit_sum += profit
        energy_sum += math.fsum(map(bilinear_trade_cost, tps,
                                    repeat(leader.p_s), repeat(leader.p_b)))
        discomfort_sum += math.fsum(discomfort)
        tatd_sum += math.fsum(deviation)
        state = next_state

    tatd = tatd_sum / (n * scenario.slots) if n > 0 else 0.0
    return RunReport(
        pme_profit_total=profit_sum,
        energy_cost_total=energy_sum,
        discomfort_total=discomfort_sum,
        aggregate_cost=discomfort_sum + energy_sum - profit_sum,
        tatd=tatd,
        comfort_violations=comfort_violations,
        battery_violations=battery_violations,
        outcomes=tuple(outcomes),
    )
