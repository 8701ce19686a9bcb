"""Time loop: queue updates, accounting, bound enforcement."""

import dataclasses
import math

import pytest

from nanodr.baselines import CaseId, run_case
from nanodr.domain import (
    FollowerAction,
    InvariantViolation,
    LeaderAction,
    NanogridControl,
    NanogridParams,
    PmeControl,
    PmeParams,
    Scenario,
    SlotState,
    bilinear_trade_cost,
)
from nanodr.policy import default_policy
from nanodr.scenario_io import (
    SyntheticSpec,
    default_pme_params,
    generate_synthetic,
    synthetic_params,
)
from nanodr import simulator
from nanodr.simulator import SlotOutcome, run, update_queues
from nanodr.stackelberg import GameConfig, IterationTrace, SlotSolution

from oracles import report_totals

PARAMS = NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                        t_max=77.0, l_max=10.0, gamma=0.01)
CONTROL = NanogridControl(v_i=0.35, gamma_shift=-76.0)
PME = PmeParams(e_min=2.0, e_max_cap=16.0, u_cmax=1.0, u_dmax=1.0, c_b=0.01)
PMEC = PmeControl(v_p=1.0, theta=-18.5)

_EMPTY = IterationTrace(records=(), converged=True)


def _scenario_const(n=1, slots=3, t_out=30.0, m_s=12.0, m_b=3.0, g_t=0.0):
    return Scenario.from_series(
        n=n, slots=slots,
        rp=[[1.0] * n] * slots, d=[[1.0] * n] * slots,
        t_out=[[t_out] * n] * slots, t_opt=[[70.0] * n] * slots,
        m_s=[m_s] * slots, m_b=[m_b] * slots, g_t=[g_t] * slots,
    )


def _state(t=70.0, e=9.0):
    return SlotState(t=(t,), h=(t + CONTROL.gamma_shift,), e_batt=e,
                     b=e + PMEC.theta)


def test_update_queues_identities_hold():
    scen = _scenario_const()
    state = _state()
    nxt = update_queues(state, [FollowerAction(e=2.0, tp=2.0)],
                        LeaderAction(p_s=10.0, p_b=5.0, y=0.5), scen.slot(0),
                        [PARAMS], [CONTROL], PMEC)
    assert nxt.h[0] == nxt.t[0] + CONTROL.gamma_shift
    assert nxt.b == nxt.e_batt + PMEC.theta
    # Queue recursion agrees with the shifted physical update.
    recursive = (PARAMS.epsilon * state.h[0]
                 + (1 - PARAMS.epsilon) * (CONTROL.gamma_shift + 30.0 + 15.0 * 2.0))
    assert abs(recursive - nxt.h[0]) <= 1e-12
    assert nxt.e_batt == state.e_batt + 0.5


@pytest.mark.parametrize("queue", ["h", "b"])
def test_nan_queue_breaks_the_identity_check(queue):
    scen = _scenario_const()
    state = _state()
    if queue == "h":
        state = SlotState(t=state.t, h=(math.nan,), e_batt=state.e_batt, b=state.b)
    else:
        state = SlotState(t=state.t, h=state.h, e_batt=state.e_batt, b=math.nan)
    with pytest.raises(InvariantViolation, match="identity"):
        update_queues(state, [FollowerAction(e=2.0, tp=2.0)],
                      LeaderAction(p_s=10.0, p_b=5.0, y=0.5), scen.slot(0),
                      [PARAMS], [CONTROL], PMEC)


def test_idle_battery_keeps_queue():
    scen = _scenario_const()
    state = _state()
    nxt = update_queues(state, [FollowerAction(e=0.0, tp=0.0)],
                        LeaderAction(p_s=10.0, p_b=5.0, y=0.0), scen.slot(0),
                        [PARAMS], [CONTROL], PMEC)
    assert nxt.b == state.b
    assert nxt.e_batt == state.e_batt


def test_idle_hvac_contracts_to_outdoor_temperature():
    scen = _scenario_const(t_out=30.0)
    state = _state(t=70.0)
    t = state.t[0]
    for _ in range(200):
        nxt = update_queues(state, [FollowerAction(e=0.0, tp=0.0)],
                            LeaderAction(p_s=10.0, p_b=5.0, y=0.0),
                            scen.slot(0), [PARAMS], [CONTROL], PMEC)
        state = nxt
    assert state.t[0] == pytest.approx(30.0, abs=(70.0 - 30.0) * PARAMS.epsilon ** 190)


def test_single_slot_idle_run_is_neutral():
    scen = Scenario.from_series(n=0, slots=1, rp=[[]], d=[[]], t_out=[[]],
                                t_opt=[[]], m_s=[12.0], m_b=[3.0], g_t=[0.0])

    def idle(state, slot):
        return SlotSolution(leader=LeaderAction(p_s=12.0, p_b=3.0, y=0.0),
                            followers=(), trace=_EMPTY)

    # The battery starts at the middle of its window, 9 kWh.
    rep = run(scen, [], [], PME, PMEC, GameConfig(), slot_solver=idle)
    assert rep.pme_profit_total == 0.0
    assert [o.next_state.e_batt for o in rep.outcomes] == [9.0]
    assert rep.aggregate_cost == 0.0
    assert rep.tatd == 0.0


def test_run_totals_match_outcome_reaccumulation():
    spec = SyntheticSpec(seed=3, slots=24, n=3)
    scen = generate_synthetic(spec)
    params = synthetic_params(spec)
    pme = default_pme_params()
    bundle = default_policy(scen, params, pme)
    rep = run(scen, params, bundle.ng_controls, pme, bundle.pme_control,
              GameConfig())
    profit = math.fsum(o.pme_profit for o in rep.outcomes)
    # Each slot's costs, recomputed from its actions and the state it left.
    energy = math.fsum(
        sum(bilinear_trade_cost(f.tp, o.leader.p_s, o.leader.p_b)
            for f in o.followers)
        for o in rep.outcomes)
    discomfort = math.fsum(
        sum(p.gamma * (t - scen.t_opt[o.slot][i]) ** 2
            for i, (p, t) in enumerate(zip(params, o.next_state.t)))
        for o in rep.outcomes)
    assert rep.pme_profit_total == pytest.approx(profit, rel=1e-12, abs=1e-9)
    assert rep.energy_cost_total == pytest.approx(energy, rel=1e-12, abs=1e-9)
    assert rep.discomfort_total == pytest.approx(discomfort, rel=1e-12, abs=1e-9)
    assert rep.aggregate_cost == pytest.approx(discomfort + energy - profit,
                                               rel=1e-12, abs=1e-9)
    tatd = math.fsum(
        abs(o.next_state.t[i] - scen.t_opt[o.slot][i])
        for o in rep.outcomes for i in range(scen.n)
    ) / (scen.n * scen.slots)
    assert rep.tatd == pytest.approx(tatd, rel=1e-12, abs=1e-12)


def _desk(gamma=None):
    """The reference week (seed 1, n=5, 72 slots) with its default policy;
    ``gamma`` replaces every building's discomfort weight."""
    spec = SyntheticSpec()
    scen = generate_synthetic(spec)
    params = synthetic_params(spec)
    if gamma is not None:
        params = [dataclasses.replace(p, gamma=gamma) for p in params]
    pme = default_pme_params()
    return scen, params, pme, default_policy(scen, params, pme)


@pytest.mark.parametrize("case, gamma", [
    (None, None), (None, 0.0), *((case, None) for case in CaseId),
], ids=["desk", "gamma0", *(case.name for case in CaseId)])
def test_run_totals_are_the_per_slot_sums_bit_for_bit(case, gamma):
    # None is the plain run; the cases are compare's on the same scenario.
    scen, params, pme, bundle = _desk(gamma)
    args = (scen, params, bundle.ng_controls, pme, bundle.pme_control)
    rep = run(*args) if case is None else run_case(case, *args)
    want = report_totals(rep.outcomes, scen, params)
    assert {name: getattr(rep, name).hex() for name in want} == {
        name: value.hex() for name, value in want.items()}


def test_slot_outcome_keeps_its_fields_in_order():
    assert SlotOutcome._fields == (
        "slot", "leader", "followers", "next_state", "pme_profit",
        "grid_residual", "converged", "iterations")


def test_standard_run_respects_both_bound_certificates():
    spec = SyntheticSpec(seed=5, slots=24)
    scen = generate_synthetic(spec)
    params = synthetic_params(spec)
    pme = default_pme_params()
    bundle = default_policy(scen, params, pme)
    rep = run(scen, params, bundle.ng_controls, pme, bundle.pme_control,
              GameConfig())
    assert rep.comfort_violations == 0
    assert rep.battery_violations == 0
    for o in rep.outcomes:
        for i, t in enumerate(o.next_state.t):
            assert params[i].t_min <= t <= params[i].t_max
        assert pme.e_min <= o.next_state.e_batt <= pme.e_max_cap


def test_time_average_charge_is_window_bounded():
    # Total signed charge equals the battery state change, so its magnitude
    # can never exceed the window width.
    spec = SyntheticSpec(seed=9, slots=48, n=2)
    scen = generate_synthetic(spec)
    params = synthetic_params(spec)
    pme = default_pme_params()
    bundle = default_policy(scen, params, pme)
    rep = run(scen, params, bundle.ng_controls, pme, bundle.pme_control,
              GameConfig())
    total = math.fsum(o.leader.y for o in rep.outcomes)
    assert abs(total) <= pme.e_max_cap - pme.e_min + 1e-9
    assert abs(total / scen.slots) <= (pme.e_max_cap - pme.e_min) / scen.slots + 1e-9


def test_battery_bound_violation_raises_with_slot(monkeypatch):
    # A breach under the run's own certified solve is refused; the same
    # policy substituted as slot_solver carries no certificate, so the run
    # counts both slots' breaches.
    scen = _scenario_const(slots=2, g_t=0.0)

    def reckless(state, slot, *rest):
        return SlotSolution(leader=LeaderAction(p_s=10.0, p_b=5.0, y=8.0),
                            followers=(FollowerAction(e=0.0, tp=0.0),),
                            trace=_EMPTY)

    monkeypatch.setattr(simulator, "solve_slot", reckless)
    # From the middle of the window, 9 kWh, y = 8 ends slot 0 at 17 > 16.
    with pytest.raises(InvariantViolation, match="slot 0"):
        run(scen, [PARAMS], [CONTROL], PME, PMEC, GameConfig())
    assert run(scen, [PARAMS], [CONTROL], PME, PMEC, GameConfig(),
               slot_solver=reckless).battery_violations == 2


@pytest.mark.parametrize("strict, sunk", [(False, 3), (True, 2)])
def test_trace_sink_gets_each_checked_slot_in_order(strict, sunk, monkeypatch):
    # strict: the policy runs as the run's own solve, which refuses a
    # breach; otherwise it is substituted and the breach is counted.
    scen = _scenario_const(slots=3)
    traces = [IterationTrace(records=(), converged=True) for _ in range(3)]
    solved, calls = [], []

    def charge_last(state, slot, *rest):
        # y = 8 from the 9 kWh midpoint ends the last slot at 17 > 16.
        k = len(solved)
        solved.append(k)
        return SlotSolution(leader=LeaderAction(p_s=10.0, p_b=5.0,
                                                y=8.0 if k == 2 else 0.0),
                            followers=(FollowerAction(e=0.0, tp=0.0),),
                            trace=traces[k])

    if strict:
        monkeypatch.setattr(simulator, "solve_slot", charge_last)

    def simulate():
        return run(scen, [PARAMS], [CONTROL], PME, PMEC, GameConfig(),
                   slot_solver=None if strict else charge_last,
                   trace_sink=lambda k, trace: calls.append((k, trace)))

    if strict:
        with pytest.raises(InvariantViolation, match="slot 2"):
            simulate()
    else:
        assert simulate().battery_violations == 1
    # The solver's own trace objects, once per slot, in slot order; the
    # slot whose bound check raises reaches no sink.
    assert [k for k, _ in calls] == list(range(sunk))
    assert all(trace is traces[k] for k, trace in calls)
