"""Comparison cases: transfer cancellation, welfare solver, case behavior."""

import collections
import dataclasses
import random

import pytest

from nanodr import baselines
from nanodr.baselines import (
    CaseId,
    _comfort_box,
    _solve_welfare_slot,
    _tracking_draw,
    run_case,
)
from nanodr.domain import (
    ConfigurationError,
    FollowerAction,
    FollowerSlot,
    LeaderAction,
    NanogridControl,
    NanogridParams,
    PmeControl,
    PmeParams,
    ScenarioError,
    SlotData,
    SlotState,
    bilinear_trade_cost,
    pme_profit,
    thermal_step,
)
from nanodr.nanogrid import follower_models, follower_rule
from nanodr.policy import default_policy
from nanodr.scenario_io import (
    SyntheticSpec,
    default_pme_params,
    generate_synthetic,
    synthetic_params,
)
from nanodr.simulator import run
from nanodr.stackelberg import GameConfig, IterationTrace, solve_slot

from oracles import (
    fixed_draws_rule,
    interchange_box,
    social_cost,
    tightest_l_max,
    welfare_dual_bound,
    welfare_objective,
)

PME = default_pme_params()


def _setup(seed=3, slots=24, n=3):
    spec = SyntheticSpec(seed=seed, slots=slots, n=n)
    scen = generate_synthetic(spec)
    params = synthetic_params(spec)
    bundle = default_policy(scen, params, PME)
    return scen, params, bundle


# -- social cost ------------------------------------------------------------
#
# The package has no social-cost function: case 5 solves its own objective
# in closed form.  These check the NumPy oracle the welfare tests lean on.


def test_social_cost_zero_at_perfect_idle():
    params = [NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                             t_max=77.0, l_max=10.0, gamma=0.01)]
    slot = SlotData(m_s=12.0, m_b=3.0, g_t=0.0,
                    followers=(FollowerSlot(rp=1.0, d=1.0, t_out=70.0,
                                            t_opt=70.0),))
    got = social_cost([0.0], 0.0, [70.0], slot, params, PME)
    assert got == 0.0


def test_social_cost_quadratic_slice_in_charge():
    params = [NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                             t_max=77.0, l_max=10.0, gamma=0.01)]
    slot = SlotData(m_s=12.0, m_b=3.0, g_t=-5.0,
                    followers=(FollowerSlot(rp=1.0, d=1.0, t_out=30.0,
                                            t_opt=70.0),))
    # With the residual pinned positive, the y-slice is settle-linear plus
    # the battery quadratic: its second difference recovers c_b exactly.
    f = lambda y: social_cost([2.0], y, [70.0], slot, params, PME)
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
            lo, hi = interchange_box(fs, p)
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
        social = social_cost(es, y, ts, slot, params, PME)
        assert aggregate == pytest.approx(social, rel=1e-9, abs=1e-9)


# -- welfare solver ---------------------------------------------------------


@pytest.mark.parametrize("c_b", [0.01, 0.0])
@pytest.mark.parametrize("gamma", [0.01, 0.0])
def test_welfare_solution_beats_equilibrium_pointwise(gamma, c_b):
    # At the same state, the cooperative minimizer cannot be worse than the
    # equilibrium actions under the same drift-plus-penalty.
    scen, params, _ = _setup(seed=2, slots=12, n=3)
    params = tuple(dataclasses.replace(p, gamma=gamma) for p in params)
    pme = dataclasses.replace(PME, c_b=c_b)
    bundle = default_policy(scen, params, pme)
    pmec = bundle.pme_control
    controls = bundle.ng_controls
    t = [0.5 * (p.t_min + p.t_max) for p in params]
    e_batt = 0.5 * (pme.e_min + pme.e_max_cap)
    state = SlotState(t=tuple(t),
                      h=tuple(x + c.gamma_shift for x, c in zip(t, controls)),
                      e_batt=e_batt, b=e_batt + pmec.theta)
    cfg = GameConfig()
    for k in range(scen.slots):
        slot = scen.slot(k)
        sol = solve_slot(state, slot, follower_models(params, controls), pme,
                         pmec, cfg)
        es4 = [f.e for f in sol.followers]
        es5, y5 = _solve_welfare_slot(state, slot,
                                      follower_models(params, controls), pme,
                                      pmec)
        j4 = welfare_objective(es4, sol.leader.y, state, slot, params,
                               controls, pme, pmec)
        j5 = welfare_objective(es5, y5, state, slot, params, controls, pme,
                               pmec)
        assert j5 <= j4 + 1e-9


def _random_welfare_instance(rng):
    """One cooperative slot: n in {0..5}, gamma and c_b sometimes zero, and
    each interchange limit one that ``run`` accepts, half of them the
    smallest."""
    params, controls, followers, ts = [], [], [], []
    for _ in range(rng.choice([0, 1, 2, 3, 5])):
        e_max = rng.uniform(2.0, 8.0)
        fs = FollowerSlot(rp=rng.uniform(0.0, 5.0), d=rng.uniform(0.0, 5.0),
                          t_out=rng.uniform(10.0, 60.0),
                          t_opt=rng.uniform(66.0, 78.0))
        l_max = tightest_l_max(fs.rp, fs.d, e_max)
        if rng.random() < 0.5:
            l_max += rng.uniform(0.0, 10.0)
        params.append(NanogridParams(
            epsilon=rng.uniform(0.9, 0.985), eta=rng.uniform(8.0, 20.0),
            e_max=e_max, t_min=60.0, t_max=85.0, l_max=l_max,
            gamma=rng.choice([0.0, rng.uniform(0.002, 0.08)])))
        controls.append(NanogridControl(v_i=rng.uniform(0.05, 2.0),
                                        gamma_shift=rng.uniform(-90.0, -40.0)))
        ts.append(rng.uniform(62.0, 83.0))
        followers.append(fs)
    m_b = rng.uniform(1.0, 6.0)
    slot = SlotData(m_s=m_b + rng.uniform(0.5, 10.0), m_b=m_b,
                    g_t=rng.uniform(-15.0, 15.0), followers=tuple(followers))
    pme = PmeParams(e_min=0.0, e_max_cap=100.0, u_cmax=rng.uniform(1.0, 10.0),
                    u_dmax=rng.uniform(1.0, 10.0),
                    c_b=rng.choice([0.0, rng.uniform(0.01, 1.0)]))
    pmec = PmeControl(v_p=rng.uniform(0.5, 5.0), theta=0.0)
    state = SlotState(t=tuple(ts),
                      h=tuple(t + c.gamma_shift for t, c in zip(ts, controls)),
                      e_batt=50.0, b=rng.uniform(-60.0, 10.0))
    return state, slot, params, controls, pme, pmec


def test_welfare_solve_meets_the_dual_bound():
    # Weak duality: no action beats the oracle's bound, so an action at the
    # bound is optimal.  Branches are read off the oracle's multiplier.
    rng = random.Random(5)
    branches = collections.Counter()
    for _ in range(1000):
        inst = _random_welfare_instance(rng)
        state, slot, params, controls, pme, pmec = inst
        es, y = _solve_welfare_slot(state, slot,
                                    follower_models(params, controls), pme,
                                    pmec)
        j = welfare_objective(es, y, *inst)
        bound, lam = welfare_dual_bound(*inst)
        assert abs(j - bound) <= 1e-9 * (1.0 + abs(j))
        assert len(es) == len(params)
        for e, fs, p in zip(es, slot.followers, params):
            assert interchange_box(fs, p) == (0.0, p.e_max)
            assert 0.0 <= e <= p.e_max
        assert -pme.u_dmax <= y <= pme.u_cmax
        flats = [p.epsilon * (1.0 - p.epsilon) * h * p.eta / c.v_i
                 for p, c, h in zip(params, controls, state.h)
                 if p.gamma == 0.0]
        if pme.c_b == 0.0:
            flats.append(state.b / pmec.v_p)
        if lam >= slot.m_s - 1e-9:
            branches["m_s"] += 1
        elif lam <= slot.m_b + 1e-9:
            branches["m_b"] += 1
        elif any(abs(lam + l) <= 1e-9 for l in flats):
            branches["jump"] += 1
        else:
            branches["interior"] += 1
    assert min(branches[k] for k in ("m_s", "m_b", "jump", "interior")) >= 20


# -- case behavior ----------------------------------------------------------


def test_tracking_case_pins_temperature():
    scen, params, bundle = _setup(seed=4, slots=24, n=2)
    rep = run_case(CaseId.FIXED_POINT_FORECAST_PRICE, scen, params,
                   bundle.ng_controls, PME, bundle.pme_control, GameConfig())
    # Perfect tracking after the first approach slots: discomfort stays tiny.
    assert rep.tatd < 0.2
    assert rep.discomfort_total < 1.0
    assert all(o.leader.y == 0.0 for o in rep.outcomes)


def _first_state(params, bundle):
    """The state every run starts from: mid-band temperatures, mid-window
    battery."""
    t = [0.5 * (p.t_min + p.t_max) for p in params]
    e_batt = 0.5 * (PME.e_min + PME.e_max_cap)
    return SlotState(t=tuple(t), h=tuple(x + c.gamma_shift for x, c
                                         in zip(t, bundle.ng_controls)),
                     e_batt=e_batt, b=e_batt + bundle.pme_control.theta)


@pytest.mark.parametrize("case", [CaseId.FIXED_POINT_FORECAST_PRICE,
                                  CaseId.SOCIAL_WELFARE])
def test_grid_priced_cases_book_at_the_grid_pair(case, monkeypatch):
    # Cases 1 and 5 post no prices: each slot books its draws and charge
    # at (m_s, m_b) with the empty trace, and each action is
    # (e, d + e - rp), bit for bit.
    scen, params, bundle = _setup(seed=4, slots=24, n=3)
    models = follower_models(params, bundle.ng_controls)
    traces = []

    def traced(*args, **kwargs):
        return run(*args, **kwargs, trace_sink=lambda k, tr: traces.append(tr))

    monkeypatch.setattr(baselines, "run", traced)
    rep = run_case(case, scen, params, bundle.ng_controls, PME,
                   bundle.pme_control, GameConfig())
    assert traces == [IterationTrace(records=(), converged=True)] * 24
    state = _first_state(params, bundle)
    for o in rep.outcomes:
        slot = scen.slot(o.slot)
        if case is CaseId.SOCIAL_WELFARE:
            es, y = _solve_welfare_slot(state, slot, models, PME,
                                        bundle.pme_control)
        else:
            es = [_tracking_draw(x, fs, p)
                  for x, fs, p in zip(state.t, slot.followers, params)]
            y = 0.0
        want = [slot.m_s, slot.m_b, y]
        for e, fs in zip(es, slot.followers):
            want += [e, fs.d + e - fs.rp]
        got = [*o.leader, *(x for f in o.followers for x in f)]
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert all(type(f) is FollowerAction for f in o.followers)
        state = o.next_state


def test_real_time_pricing_case_beats_forecast_case_for_the_aggregator():
    scen, params, bundle = _setup(seed=4, slots=24, n=2)
    base = run_case(CaseId.FIXED_POINT_FORECAST_PRICE, scen, params,
                    bundle.ng_controls, PME, bundle.pme_control, GameConfig())
    rtp = run_case(CaseId.FIXED_POINT_REAL_TIME_PRICE, scen, params,
                   bundle.ng_controls, PME, bundle.pme_control, GameConfig())
    assert rtp.pme_profit_total >= base.pme_profit_total - 1e-9
    assert rtp.aggregate_cost <= base.aggregate_cost + 1e-9


def _check_real_time_actions(rep, scen, params, bundle, min_gap):
    """Every slot's draws are the tracking draws, and its leader action is
    the closed form against them: a traded price at its band edge (p_s if
    some interchange is >= 0, p_b if some is < 0), an untraded one at the
    loop's projected start, and the exact charge.  Returns the number of
    slots with no buyer and with no seller."""
    pmec = bundle.pme_control
    state = _first_state(params, bundle)
    untraded = collections.Counter()
    for k, o in enumerate(rep.outcomes):
        slot = scen.slot(k)
        es = [_tracking_draw(x, fs, p)
              for x, fs, p in zip(state.t, slot.followers, params)]
        assert [f.e for f in o.followers] == es
        tps = [fs.d + e - fs.rp for fs, e in zip(slot.followers, es)]
        untraded["p_s"] += all(tp < 0.0 for tp in tps)
        untraded["p_b"] += all(tp >= 0.0 for tp in tps)
        want = fixed_draws_rule(tps, state.b, slot, pmec.v_p, PME.c_b,
                                (-PME.u_dmax, PME.u_cmax), min_gap)
        got = (o.leader.p_s, o.leader.p_b, o.leader.y)
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        state = o.next_state
    return untraded


def test_real_time_pricing_case_is_the_closed_form():
    # Fixed draws leave the leader a linear problem in each price.  This
    # run has slots with a seller and slots without one; every slot has a
    # buyer, as in every generated scenario.
    scen, params, bundle = _setup(seed=4, slots=24, n=3)
    rep = run_case(CaseId.FIXED_POINT_REAL_TIME_PRICE, scen, params,
                   bundle.ng_controls, PME, bundle.pme_control, GameConfig())
    untraded = _check_real_time_actions(rep, scen, params, bundle,
                                        GameConfig().min_gap)
    assert 0 < untraded["p_b"] < 24 and untraded["p_s"] == 0, untraded


def test_real_time_pricing_case_checks_min_gap():
    scen, params, bundle = _setup(seed=4, slots=24, n=2)
    width = min(s - b for s, b in zip(scen.m_s, scen.m_b))

    def run_with(gap):
        return run_case(CaseId.FIXED_POINT_REAL_TIME_PRICE, scen, params,
                        bundle.ng_controls, PME, bundle.pme_control,
                        GameConfig(min_gap=gap))

    # A band exactly min_gap wide is accepted, and the untraded prices
    # start from the gap given.
    _check_real_time_actions(run_with(width), scen, params, bundle, width)
    with pytest.raises(ConfigurationError, match="min_gap"):
        run_with(width * (1.0 + 1e-6))


def test_myopic_case_respects_hard_constraints():
    scen, params, bundle = _setup(seed=6, slots=24, n=3)
    rep = run_case(CaseId.MYOPIC_GAME, scen, params, bundle.ng_controls, PME,
                   bundle.pme_control, GameConfig())
    assert rep.comfort_violations == 0
    assert rep.battery_violations == 0
    # Myopic play hugs the cheap side of the band, far from the target.
    assert rep.tatd > 1.0


def test_every_draw_box_keeps_the_box_contract():
    # The follower rule relies on its box lying in [0, e_max] or being a
    # single point (``follower_rule``); every box here lies in [0, e_max],
    # snapped points too.  The default box is (0.0, e_max); each case-3
    # comfort box is checked at random states whose floor draw is drawn
    # around [0, e_max], and at the two snap edges: a floor need up to 1e-9
    # above e_max (snapped to e_max), and a ceiling need up to 1e-9 below
    # zero (snapped to zero).
    rng = random.Random(101)
    kinds = collections.Counter()
    for _ in range(4000):
        eps, eta = rng.uniform(0.9, 0.985), rng.uniform(8.0, 20.0)
        e_max, t_min = rng.uniform(2.0, 8.0), rng.uniform(60.0, 70.0)
        params = NanogridParams(epsilon=eps, eta=eta, e_max=e_max, t_min=t_min,
                                t_max=t_min + rng.uniform(0.01, 2.0),
                                l_max=20.0, gamma=rng.choice([0.0, 0.02]))
        t = rng.uniform(params.t_min, params.t_max)
        kind = rng.choice(["random", "random", "floor", "ceil"])
        if kind == "ceil":  # (t_max - eps*t)/(1-eps) - t_out = -eta*x
            t_out = ((params.t_max - eps * t) / (1.0 - eps)
                     + eta * rng.uniform(0.0, 1e-9))
        else:  # (t_min - eps*t)/(1-eps) - t_out = eta*x
            x = (e_max + rng.uniform(0.0, 1e-9) if kind == "floor"
                 else rng.uniform(-e_max, 2.0 * e_max))
            t_out = (params.t_min - eps * t) / (1.0 - eps) - eta * x
        fs = FollowerSlot(rp=1.0, d=2.0, t_out=t_out, t_opt=70.0)
        rule = follower_rule(t - 50.0, t, fs, *follower_models(
            [params], [NanogridControl(v_i=1.0, gamma_shift=-50.0)]))
        assert (rule.at_lo[0], rule.at_hi[0]) == (0.0, e_max)
        try:
            lo, hi = _comfort_box(t, fs, params)
        except ScenarioError:
            kinds["refused"] += 1
            continue
        assert 0.0 <= lo <= hi <= e_max, (lo, hi, e_max)
        if lo == hi:
            kinds[kind + (" at e_max" if lo == e_max else " point")] += 1
        else:
            kinds["open" if 0.0 < lo and hi < e_max else "edge"] += 1
    # Snapped to e_max, snapped at zero, open, clamped at an edge, refused.
    assert kinds["floor at e_max"] > 200 and kinds["ceil point"] > 200
    assert kinds["open"] > 200 and kinds["edge"] > 200
    assert kinds["refused"] > 100


def test_welfare_case_blanks_nothing_in_report_but_balances():
    scen, params, bundle = _setup(seed=7, slots=12, n=2)
    rep = run_case(CaseId.SOCIAL_WELFARE, scen, params, bundle.ng_controls,
                   PME, bundle.pme_control, GameConfig())
    # Internal transfers cancel: the aggregate equals the social-cost total.
    social = 0.0
    t = [0.5 * (p.t_min + p.t_max) for p in params]
    for o in rep.outcomes:
        slot = scen.slot(o.slot)
        social += social_cost([f.e for f in o.followers], o.leader.y, t,
                              slot, params, PME)
        t = list(o.next_state.t)
    assert rep.aggregate_cost == pytest.approx(social, rel=1e-9, abs=1e-6)


def test_proposed_case_delegates_to_simulator():
    scen, params, bundle = _setup(seed=8, slots=12, n=2)
    via_case = run_case(CaseId.PROPOSED, scen, params, bundle.ng_controls,
                        PME, bundle.pme_control, GameConfig())
    direct = run(scen, params, bundle.ng_controls, PME, bundle.pme_control,
                 GameConfig())
    assert via_case.aggregate_cost == direct.aggregate_cost
    assert ([o.leader for o in via_case.outcomes]
            == [o.leader for o in direct.outcomes])


def _bits(x):
    """A slot outcome's numbers, every float as its hex string."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, SlotState):
        x = dataclasses.astuple(x)
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return x


@pytest.mark.parametrize("seed, slots, n", [(1, 72, 5), (1, 48, 20)],
                         ids=["desk", "n20"])
def test_cases_sharing_a_scenario_match_cases_run_alone(seed, slots, n):
    # compare runs every case on one Scenario, which keeps the slots it
    # built; a case run after the others must see exactly what it sees on
    # a fresh copy.  The shared scenario runs the cases forward, then back,
    # so each case also runs after all the others.
    scen, params, bundle = _setup(seed=seed, slots=slots, n=n)
    args = (params, bundle.ng_controls, PME, bundle.pme_control, GameConfig())
    alone = {case: _bits(run_case(case, dataclasses.replace(scen), *args).outcomes)
             for case in CaseId}
    for case in [*CaseId, *reversed(CaseId)]:
        assert _bits(run_case(case, scen, *args).outcomes) == alone[case], case
