"""Comparison cases: transfer cancellation, welfare solver, case behavior."""

import random

import pytest

from nanodr.baselines import (
    CaseId,
    _solve_welfare_slot,
    _welfare_objective,
    run_case,
    social_welfare_cost,
)
from nanodr.domain import (
    FollowerSlot,
    LeaderAction,
    NanogridParams,
    SlotData,
    SlotState,
    bilinear_trade_cost,
    pme_profit,
    thermal_step,
)
from nanodr.nanogrid import feasible_box
from nanodr.policy import default_policy
from nanodr.scenario_io import (
    SyntheticSpec,
    default_pme_params,
    generate_synthetic,
    synthetic_params,
)
from nanodr.simulator import run
from nanodr.stackelberg import GameConfig, solve_slot

PME = default_pme_params()


def _setup(seed=3, slots=24, n=3):
    spec = SyntheticSpec(seed=seed, slots=slots, n=n)
    scen = generate_synthetic(spec)
    params = synthetic_params(spec)
    bundle = default_policy(scen, params, PME)
    return scen, params, bundle


# -- social cost ------------------------------------------------------------


def test_social_cost_zero_at_perfect_idle():
    params = [NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                             t_max=77.0, l_max=10.0, gamma=0.01)]
    slot = SlotData(m_s=12.0, m_b=3.0, g_t=0.0,
                    followers=(FollowerSlot(rp=1.0, d=1.0, t_out=70.0,
                                            t_opt=70.0),))
    got = social_welfare_cost([0.0], 0.0, [70.0], slot, params, PME)
    assert got == 0.0


def test_social_cost_quadratic_slice_in_charge():
    params = [NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                             t_max=77.0, l_max=10.0, gamma=0.01)]
    slot = SlotData(m_s=12.0, m_b=3.0, g_t=-5.0,
                    followers=(FollowerSlot(rp=1.0, d=1.0, t_out=30.0,
                                            t_opt=70.0),))
    # With the residual pinned positive, the y-slice is settle-linear plus
    # the battery quadratic: its second difference recovers c_b exactly.
    f = lambda y: social_welfare_cost([2.0], y, [70.0], slot, params, PME)
    h = 0.25
    second = (f(0.5 + h) - 2.0 * f(0.5) + f(0.5 - h)) / (h * h)
    assert second == pytest.approx(PME.c_b, rel=1e-9)


def test_internal_transfers_cancel():
    # Aggregate accounting at any band prices equals the social cost.
    rng = random.Random(51)
    scen, params, bundle = _setup()
    for _ in range(200):
        k = rng.randrange(scen.slots)
        slot = scen.slot(k)
        ts = [rng.uniform(p.t_min, p.t_max) for p in params]
        es = []
        for fs, p in zip(slot.followers, params):
            lo, hi = feasible_box(fs, p)
            es.append(rng.uniform(lo, hi))
        y = rng.uniform(-PME.u_dmax, PME.u_cmax)
        p_b = rng.uniform(slot.m_b, slot.m_s - 0.02)
        p_s = rng.uniform(p_b + 0.01, slot.m_s)
        action = LeaderAction(p_s=p_s, p_b=p_b, y=y)
        tps = [fs.d + e - fs.rp for fs, e in zip(slot.followers, es)]
        trade = sum(bilinear_trade_cost(tp, p_s, p_b) for tp in tps)
        discomfort = sum(
            p.gamma * (thermal_step(t, fs.t_out, e, p) - fs.t_opt) ** 2
            for t, e, fs, p in zip(ts, es, slot.followers, params)
        )
        profit = pme_profit(action, tps, slot.g_t, slot.m_s, slot.m_b, PME.c_b)
        aggregate = discomfort + trade - profit
        social = social_welfare_cost(es, y, ts, slot, params, PME)
        assert aggregate == pytest.approx(social, rel=1e-9, abs=1e-9)


# -- welfare solver ---------------------------------------------------------


def test_welfare_solution_beats_equilibrium_pointwise():
    # At the same state, the cooperative minimizer cannot be worse than the
    # equilibrium actions under the same drift-plus-penalty.
    scen, params, bundle = _setup(seed=2, slots=12, n=3)
    pmec = bundle.pme_control
    controls = bundle.ng_controls
    t = [0.5 * (p.t_min + p.t_max) for p in params]
    e_batt = 0.5 * (PME.e_min + PME.e_max_cap)
    state = SlotState(t=tuple(t),
                      h=tuple(x + c.gamma_shift for x, c in zip(t, controls)),
                      e_batt=e_batt, b=e_batt + pmec.theta)
    cfg = GameConfig()
    for k in range(scen.slots):
        slot = scen.slot(k)
        sol = solve_slot(state, slot, params, controls, PME, pmec, cfg)
        es4 = [f.e for f in sol.followers]
        es5, y5 = _solve_welfare_slot(state, slot, params, controls, PME,
                                      pmec)
        j4 = _welfare_objective(es4, sol.leader.y, state, slot, params,
                                controls, PME, pmec)
        j5 = _welfare_objective(es5, y5, state, slot, params, controls, PME,
                                pmec)
        assert j5 <= j4 + 1e-9


# -- case behavior ----------------------------------------------------------


def test_tracking_case_pins_temperature():
    scen, params, bundle = _setup(seed=4, slots=24, n=2)
    rep = run_case(CaseId.FIXED_POINT_FORECAST_PRICE, scen, params,
                   bundle.ng_controls, PME, bundle.pme_control, GameConfig())
    # Perfect tracking after the first approach slots: discomfort stays tiny.
    assert rep.tatd < 0.2
    assert rep.discomfort_total < 1.0
    assert all(y == 0.0 for y in rep.y_series)


def test_real_time_pricing_case_beats_forecast_case_for_the_aggregator():
    scen, params, bundle = _setup(seed=4, slots=24, n=2)
    base = run_case(CaseId.FIXED_POINT_FORECAST_PRICE, scen, params,
                    bundle.ng_controls, PME, bundle.pme_control, GameConfig())
    rtp = run_case(CaseId.FIXED_POINT_REAL_TIME_PRICE, scen, params,
                   bundle.ng_controls, PME, bundle.pme_control, GameConfig())
    assert rtp.pme_profit_total >= base.pme_profit_total - 1e-9
    assert rtp.aggregate_cost <= base.aggregate_cost + 1e-9


def test_myopic_case_respects_hard_constraints():
    scen, params, bundle = _setup(seed=6, slots=24, n=3)
    rep = run_case(CaseId.MYOPIC_GAME, scen, params, bundle.ng_controls, PME,
                   bundle.pme_control, GameConfig())
    assert rep.comfort_violations == 0
    assert rep.battery_violations == 0
    # Myopic play hugs the cheap side of the band, far from the target.
    assert rep.tatd > 1.0


def test_welfare_case_blanks_nothing_in_report_but_balances():
    scen, params, bundle = _setup(seed=7, slots=12, n=2)
    rep = run_case(CaseId.SOCIAL_WELFARE, scen, params, bundle.ng_controls,
                   PME, bundle.pme_control, GameConfig())
    # Internal transfers cancel: the aggregate equals the social-cost total.
    social = 0.0
    t = [0.5 * (p.t_min + p.t_max) for p in params]
    for o in rep.outcomes:
        slot = scen.slot(o.slot)
        social += social_welfare_cost([f.e for f in o.followers], o.leader.y,
                                      t, slot, params, PME)
        t = list(o.next_state.t)
    assert rep.aggregate_cost == pytest.approx(social, rel=1e-9, abs=1e-6)


def test_proposed_case_delegates_to_simulator():
    scen, params, bundle = _setup(seed=8, slots=12, n=2)
    via_case = run_case(CaseId.PROPOSED, scen, params, bundle.ng_controls,
                        PME, bundle.pme_control, GameConfig())
    direct = run(scen, params, bundle.ng_controls, PME, bundle.pme_control,
                 GameConfig())
    assert via_case.aggregate_cost == direct.aggregate_cost
    assert via_case.p_s_series == direct.p_s_series
