"""Comparison strategies for the economic-benefit evaluation.

Five cases share the simulator loop and differ only in the per-slot policy:

1. Fixed-point comfort tracking, all trades valued at the main-grid prices,
   no battery play (a perfect-price-forecast upper baseline).
2. The same inelastic comfort tracking, but the aggregator optimizes its
   prices and battery against it in real time.  The draws do not answer the
   prices, so this is the solver's closed form against fixed draws (an
   untraded price at the loop's start); only ``min_gap`` applies.
3. The myopic game: the same leader/follower iteration with both queue
   pressures zeroed.  Dropping the future coupling does not drop the hard
   constraints, which are enforceable slot by slot: each draw box is
   tightened so the next temperature stays inside the comfort band, and the
   charge box so the battery stays inside its window.
4. The proposed queue-aware game.
5. Cooperative welfare: no prices; all HVAC draws and the battery charge
   jointly minimize the social cost (grid settlement + battery use +
   discomfort) plus every queue's drift, each drift weighted exactly as its
   own agent weights it (divided by that agent's trade-off weight), so the
   cooperative run keeps the same queue discipline as the game.  Solved
   exactly per slot through the one multiplier of the settlement kink.

Cases 1, 2 and 5 synthesize bookkeeping prices equal to the main-grid pair;
internal transfers cancel in the aggregate, so the aggregate cost of case 5
is exactly its social-cost total.
"""

from __future__ import annotations

import enum
import math
from dataclasses import replace
from typing import Sequence

from .domain import (
    FollowerSlot,
    LeaderAction,
    NanogridControl,
    NanogridParams,
    PmeControl,
    PmeParams,
    Scenario,
    ScenarioError,
    SlotData,
    SlotState,
    clamp,
)
from .nanogrid import FollowerModel, follower_models, follower_rule
from .simulator import RunReport, run
from .stackelberg import (
    GameConfig,
    QueueResponder,
    SlotSolution,
    _against_fixed_draws,
    _follower_actions,
    _solve_with_responder,
)


class CaseId(enum.Enum):
    FIXED_POINT_FORECAST_PRICE = 1
    FIXED_POINT_REAL_TIME_PRICE = 2
    MYOPIC_GAME = 3
    PROPOSED = 4
    SOCIAL_WELFARE = 5

    @property
    def posts_prices(self) -> bool:
        """Whether the aggregator posts prices inside the grid band; cases
        1 and 5 only book the band's edges."""
        return self in (CaseId.FIXED_POINT_REAL_TIME_PRICE, CaseId.MYOPIC_GAME,
                        CaseId.PROPOSED)


def _draw_to(target: float, t: float, fs: FollowerSlot,
             params: NanogridParams) -> float:
    """The draw that moves the temperature from ``t`` to ``target`` in one
    slot: the thermal step solved for the draw, unclamped."""
    eps = params.epsilon
    return ((target - eps * t) / (1.0 - eps) - fs.t_out) / params.eta


def _tracking_draw(t: float, fs: FollowerSlot, params: NanogridParams) -> float:
    """Draw that lands the end-of-slot temperature exactly on the target,
    clamped to the draw box [0, e_max]."""
    return clamp(_draw_to(fs.t_opt, t, fs, params), 0.0, params.e_max)


def _at_grid_prices(es: Sequence[float], y: float,
                    slot: SlotData) -> SlotSolution:
    """Draws ``es`` and charge ``y`` booked at the grid pair (m_s, m_b)."""
    tps = [fs.d + e - fs.rp for e, fs in zip(es, slot.followers)]
    return SlotSolution(LeaderAction(slot.m_s, slot.m_b, y),
                        _follower_actions(es, tps))


def _comfort_box(t: float, fs: FollowerSlot,
                 params: NanogridParams) -> tuple[float, float]:
    """[0, e_max] tightened so the next temperature stays inside the band."""
    lo = max(0.0, _draw_to(params.t_min, t, fs, params))
    hi = min(params.e_max, _draw_to(params.t_max, t, fs, params))
    if lo > hi:
        if lo - hi <= 1e-9:
            # Snap to a point of [0, e_max]: a floor need just above e_max
            # snaps to e_max itself.
            lo = hi = min(lo, params.e_max)
        else:
            raise ScenarioError(
                f"comfort band cannot be held this slot: draw box "
                f"[{lo}, {hi}] is empty"
            )
    return lo, hi


# ---------------------------------------------------------------------------
# Case 5: cooperative per-slot minimization
# ---------------------------------------------------------------------------


def _solve_welfare_slot(state: SlotState, slot: SlotData,
                        models: Sequence[FollowerModel],
                        pme_params: PmeParams,
                        pme_control: PmeControl) -> tuple[list[float], float]:
    """Joint minimizer of the cooperative drift-plus-penalty for one slot;
    ``models`` are the run's building constants (``follower_models``).

    Up to a constant the objective is sum_j (q_j*x_j**2 + l_j*x_j) over the
    draws and the charge, each in its box, plus the settlement of the
    residual r = base + sum_j x_j, which is max(m_b*r, m_s*r).  So a single
    multiplier lam in [m_b, m_s] decides the slot (the KKT argument of the
    water-filling example, Boyd & Vandenberghe, Convex Optimization, 5.5):
    each coordinate is clamp(-(l + lam)/(2q), lo, hi), and r(lam) is
    nonincreasing and piecewise linear between the coordinates' breakpoints.
    lam = m_s if r(m_s) >= 0, lam = m_b if r(m_b) <= 0, else r(lam) = 0.  A
    flat coordinate (q = 0: a draw at gamma = 0, the charge at c_b = 0)
    jumps from hi to lo at lam = -l; when the zero of r falls on such a
    jump, the flat coordinates there fill the residual in index order
    (draws, then the charge).
    """
    coords = []  # (q, l, lo, hi): the draws, then the charge
    for h, t, fs, model in zip(state.h, state.t, slot.followers, models):
        # Cooperative draw cost: the follower's price-free objective / v_i.
        rule = follower_rule(h, t, fs, model)
        coords.append((rule.vg * rule.oe * rule.oe / rule.v, rule.le / rule.v,
                        rule.at_lo[0], rule.at_hi[0]))
    coords.append((0.5 * pme_params.c_b, state.b / pme_control.v_p,
                   -pme_params.u_dmax, pme_params.u_cmax))
    base = math.fsum(fs.d - fs.rp for fs in slot.followers) - slot.g_t

    def at(lam: float, below: bool) -> tuple[list[float], float]:
        # Coordinates at lam and their residual; a flat coordinate at its
        # jump takes its limit from below (hi) or from above (lo).
        xs = [clamp(-(l + lam) / (2.0 * q), lo, hi) if q > 0.0
              else hi if l + lam < 0.0 or (below and l + lam == 0.0) else lo
              for q, l, lo, hi in coords]
        return xs, base + math.fsum(xs)

    m_s, m_b = slot.m_s, slot.m_b
    kinks = []
    for q, l, lo, hi in coords:
        kinks += [-l - 2.0 * q * lo, -l - 2.0 * q * hi] if q > 0.0 else [-l]
    pts = sorted({m_b, m_s, *(k for k in kinks if m_b < k < m_s)})
    prev = r_prev = 0.0
    for lam in pts:
        xs, r = at(lam, below=False)
        if r <= 0.0:
            break
        prev, r_prev = lam, r
    else:  # r(m_s) > 0: lam = m_s
        return xs[:-1], xs[-1]
    r_below = at(lam, below=True)[1]
    if lam == pts[0] or r_below >= 0.0:
        # lam is the multiplier; the flat coordinates at their jump fill
        # the residual (all of them up to hi when lam = m_b and r stays < 0).
        for j, (q, l, lo, hi) in enumerate(coords):
            if q == 0.0 and l + lam == 0.0 and r < 0.0:
                step = min(hi - lo, -r)
                xs[j] += step
                r += step
    else:
        # r is linear between the last two breakpoints: interpolate its zero.
        lam = prev + (lam - prev) * r_prev / (r_prev - r_below)
        xs = at(lam, below=False)[0]
    return xs[:-1], xs[-1]


# ---------------------------------------------------------------------------
# Case dispatch
# ---------------------------------------------------------------------------


def run_case(case: CaseId, scenario: Scenario,
             ng_params: Sequence[NanogridParams],
             ng_controls: Sequence[NanogridControl],
             pme_params: PmeParams, pme_control: PmeControl,
             config: GameConfig = GameConfig()) -> RunReport:
    """Run one comparison case over the scenario and report its economics.

    The proposed case runs the simulator's own certified solve, which fails
    hard on a comfort or battery breach; the other cases substitute their
    per-slot policy, which carries no certificate, so their breaches are
    only counted.
    """
    models = follower_models(ng_params, ng_controls)  # cases 3 and 5

    if case is CaseId.FIXED_POINT_FORECAST_PRICE:
        def solver(state: SlotState, slot: SlotData) -> SlotSolution:
            es = tuple(map(_tracking_draw, state.t, slot.followers, ng_params))
            return _at_grid_prices(es, 0.0, slot)

    elif case is CaseId.FIXED_POINT_REAL_TIME_PRICE:
        def solver(state: SlotState, slot: SlotData) -> SlotSolution:
            es = tuple(map(_tracking_draw, state.t, slot.followers, ng_params))
            tps = [fs.d + e - fs.rp for e, fs in zip(es, slot.followers)]
            return _against_fixed_draws(es, tps, state.b, slot,
                                        pme_params.c_b, pme_control.v_p,
                                        (-pme_params.u_dmax, pme_params.u_cmax),
                                        config.min_gap)

    elif case is CaseId.MYOPIC_GAME:
        def solver(state: SlotState, slot: SlotData) -> SlotSolution:
            boxes = [
                _comfort_box(state.t[i], fs, p)
                for i, (p, fs) in enumerate(zip(ng_params, slot.followers))
            ]
            # Myopic play: no queue pressure on the followers.
            responder = QueueResponder(replace(state, h=(0.0,) * len(state.h)),
                                       slot, models, boxes=boxes)
            y_box = (max(-pme_params.u_dmax, pme_params.e_min - state.e_batt),
                     min(pme_params.u_cmax, pme_params.e_max_cap - state.e_batt))
            return _solve_with_responder(responder, 0.0, slot, pme_params,
                                         pme_control, config, y_box=y_box)

    elif case is CaseId.SOCIAL_WELFARE:
        def solver(state: SlotState, slot: SlotData) -> SlotSolution:
            es, y = _solve_welfare_slot(state, slot, models, pme_params,
                                        pme_control)
            # Bookkeeping prices at the grid pair; internal transfers cancel,
            # so the aggregate cost equals the social-cost total.
            return _at_grid_prices(es, y, slot)

    else:  # PROPOSED: the simulator's own certified solve
        solver = None

    return run(scenario, ng_params, ng_controls, pme_params, pme_control,
               config, slot_solver=solver)
