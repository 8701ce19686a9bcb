"""Core types and primitive functions.

Covers the worked numeric examples for the thermal step, the bilinear trade
cost, the battery cost and the aggregator profit, plus the validation paths
of every parameter record and the scenario container.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from nanodr import domain
from nanodr.domain import (
    ConfigurationError,
    FollowerSlot,
    LeaderAction,
    NanogridControl,
    NanogridParams,
    PmeControl,
    PmeParams,
    Scenario,
    ScenarioError,
    battery_cost,
    bilinear_trade_cost,
    check_assumptions,
    pme_profit,
    thermal_step,
)
from nanodr.scenario_io import SyntheticSpec, generate_synthetic

from oracles import interchange_box, tightest_l_max

PARAMS = NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                        t_max=77.0, l_max=10.0, gamma=0.01)


# -- thermal step -----------------------------------------------------------


def test_thermal_step_fixed_point():
    assert thermal_step(70.0, 70.0, 0.0, PARAMS) == pytest.approx(70.0, abs=1e-12)


def test_thermal_step_heating_arithmetic():
    # 0.95*70 + 0.05*(30 + 15*5) = 71.75
    assert thermal_step(70.0, 30.0, 5.0, PARAMS) == pytest.approx(71.75, abs=1e-12)


@given(st.floats(0.0, 5.0), st.floats(1e-6, 4.99))
def test_thermal_step_increasing_in_draw(e_hi, gap):
    e_lo = e_hi - gap
    if e_lo < 0.0:
        return
    lo = thermal_step(70.0, 30.0, e_lo, PARAMS)
    hi = thermal_step(70.0, 30.0, e_hi, PARAMS)
    assert hi > lo


@given(st.floats(-20.0, 77.0), st.floats(0.001, 30.0))
def test_thermal_step_increasing_in_outdoor(t_out, bump):
    lo = thermal_step(70.0, t_out, 2.0, PARAMS)
    hi = thermal_step(70.0, t_out + bump, 2.0, PARAMS)
    assert hi > lo


# -- trade cost -------------------------------------------------------------


def test_trade_cost_branches():
    assert bilinear_trade_cost(0.0, 10.0, 5.0) == 0.0
    assert bilinear_trade_cost(2.0, 10.0, 5.0) == pytest.approx(20.0)
    assert bilinear_trade_cost(-2.0, 10.0, 5.0) == pytest.approx(-10.0)


@given(st.floats(-50.0, 50.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_trade_cost_split_price_identity(tp, p_lo, spread):
    p_b = p_lo
    p_s = p_lo + spread
    direct = bilinear_trade_cost(tp, p_s, p_b)
    split = 0.5 * (p_s - p_b) * abs(tp) + 0.5 * (p_s + p_b) * tp
    assert direct == pytest.approx(split, rel=1e-12, abs=1e-12)


# -- battery cost -----------------------------------------------------------


def test_battery_cost_values():
    assert battery_cost(0.0, 0.01) == 0.0
    assert battery_cost(1.0, 0.01) == pytest.approx(0.005)
    assert battery_cost(-1.0, 0.01) == pytest.approx(0.005)


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_battery_cost_symmetric_and_convex(y1, y2):
    c_b = 0.01
    assert battery_cost(y1, c_b) == battery_cost(-y1, c_b)
    mid = battery_cost(0.5 * (y1 + y2), c_b)
    assert mid <= 0.5 * (battery_cost(y1, c_b) + battery_cost(y2, c_b)) + 1e-12


# -- aggregator profit ------------------------------------------------------


def test_pme_profit_all_zero():
    action = LeaderAction(p_s=10.0, p_b=5.0, y=0.0)
    assert pme_profit(action, [0.0], 0.0, 12.0, 3.0, 0.01) == 0.0


def test_pme_profit_balanced_residual():
    # One buyer of 2 kWh at p_s=10, own generation covers it: profit is pure
    # revenue.
    action = LeaderAction(p_s=10.0, p_b=5.0, y=0.0)
    assert pme_profit(action, [2.0], 2.0, 12.0, 3.0, 0.01) == pytest.approx(20.0)


def test_pme_profit_grid_purchase():
    # Same sale but the 2 kWh must be bought from the grid at 12.
    action = LeaderAction(p_s=10.0, p_b=5.0, y=0.0)
    assert pme_profit(action, [2.0], 0.0, 12.0, 3.0, 0.01) == pytest.approx(-4.0)


# -- parameter validation ---------------------------------------------------


def test_nanogrid_params_validation():
    with pytest.raises(ConfigurationError):
        NanogridParams(epsilon=1.0, eta=15.0, e_max=5.0, t_min=66.0,
                       t_max=77.0, l_max=10.0, gamma=0.01)
    with pytest.raises(ConfigurationError):
        NanogridParams(epsilon=0.95, eta=-1.0, e_max=5.0, t_min=66.0,
                       t_max=77.0, l_max=10.0, gamma=0.01)
    with pytest.raises(ConfigurationError):
        NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=77.0,
                       t_max=66.0, l_max=10.0, gamma=0.01)
    with pytest.raises(ConfigurationError):
        NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                       t_max=77.0, l_max=10.0, gamma=-0.1)


def test_pme_params_validation():
    with pytest.raises(ConfigurationError):
        PmeParams(e_min=16.0, e_max_cap=2.0, u_cmax=1.0, u_dmax=1.0, c_b=0.01)
    with pytest.raises(ConfigurationError):
        PmeParams(e_min=2.0, e_max_cap=16.0, u_cmax=0.0, u_dmax=1.0, c_b=0.01)
    # Window must exceed one slot of full charge plus discharge.
    with pytest.raises(ConfigurationError):
        PmeParams(e_min=2.0, e_max_cap=4.0, u_cmax=1.0, u_dmax=1.0, c_b=0.01)


def test_control_validation():
    with pytest.raises(ConfigurationError):
        NanogridControl(v_i=0.0, gamma_shift=-75.0)
    with pytest.raises(ConfigurationError):
        PmeControl(v_p=-1.0, theta=-18.0)


# -- scenario ---------------------------------------------------------------


def _tiny_scenario(m_s=10.0, m_b=3.0, rp=1.0, d=1.0):
    return Scenario.from_series(
        n=1, slots=2,
        rp=[[rp], [rp]], d=[[d], [d]], t_out=[[30.0], [30.0]],
        t_opt=[[70.0], [70.0]], m_s=[m_s, m_s], m_b=[m_b, m_b], g_t=[0.0, 0.0],
    )


def test_scenario_valid_roundtrip_access():
    scen = _tiny_scenario()
    slot = scen.slot(1)
    assert slot.m_s == 10.0
    assert slot.followers[0].t_opt == 70.0


def test_scenario_builds_each_slot_once_on_request(monkeypatch):
    scen = generate_synthetic(SyntheticSpec(seed=4, slots=12, n=3))
    built = []

    def counted(*cells):
        built.append(cells)
        return FollowerSlot(*cells)

    monkeypatch.setattr(domain, "FollowerSlot", counted)
    # Slot k is built at its first request, not before, and kept.
    slot = scen.slot(5)
    assert len(built) == 3
    assert scen.slot(5) is slot and scen.slot(-7) is slot
    assert len(built) == 3
    for k in range(scen.slots):
        got = scen.slot(k)
        assert scen.slot(k) is got
        assert (got.m_s, got.m_b, got.g_t) == (scen.m_s[k], scen.m_b[k],
                                               scen.g_t[k])
        assert [(f.rp, f.d, f.t_out, f.t_opt) for f in got.followers] == list(
            zip(scen.rp[k], scen.d[k], scen.t_out[k], scen.t_opt[k]))
    assert len(built) == 3 * scen.slots
    # The kept slots are no field: a copy compares and hashes alike, and
    # builds its own.
    copy = replace(scen)
    assert copy == scen and hash(copy) == hash(scen)
    assert copy.slot(5) == slot and copy.slot(5) is not slot


def test_scenario_rejects_empty_price_band():
    with pytest.raises(ScenarioError, match="slot 0"):
        _tiny_scenario(m_s=2.0, m_b=3.0)


def test_scenario_rejects_negative_series():
    with pytest.raises(ScenarioError, match="rp negative"):
        _tiny_scenario(rp=-0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_scenario_rejects_non_finite_values(bad):
    def scenario(**bad_series):
        series = dict(rp=[[1.0, 1.0]] * 3, d=[[1.0, 1.0]] * 3,
                      t_out=[[30.0, 30.0]] * 3, t_opt=[[70.0, 70.0]] * 3,
                      m_s=[10.0] * 3, m_b=[3.0] * 3, g_t=[0.0] * 3)
        series.update(bad_series)
        return Scenario.from_series(n=2, slots=3, **series)

    with pytest.raises(ScenarioError, match=r"'g_t' is not finite at slot 2"):
        scenario(g_t=[0.0, 0.0, bad])
    with pytest.raises(ScenarioError, match=r"'m_b' is not finite at slot 0"):
        scenario(m_b=[bad, 3.0, 3.0])
    with pytest.raises(ScenarioError,
                       match=r"'t_out' is not finite at slot 1, nanogrid 1"):
        scenario(t_out=[[30.0, 30.0], [30.0, bad], [30.0, 30.0]])
    with pytest.raises(ScenarioError,
                       match=r"'rp' is not finite at slot 0, nanogrid 0"):
        scenario(rp=[[bad, 1.0], [1.0, 1.0], [1.0, 1.0]])


def test_scenario_reports_the_first_of_two_defects():
    # The walk that names a defect goes slot by slot: finiteness, then the
    # price band, then rp and d, so the earlier slot wins, and within a slot
    # a non-finite cell wins over an empty band.
    def scenario(**bad_series):
        series = dict(rp=[[1.0]] * 3, d=[[1.0]] * 3, t_out=[[30.0]] * 3,
                      t_opt=[[70.0]] * 3, m_s=[10.0] * 3, m_b=[3.0] * 3,
                      g_t=[0.0] * 3)
        series.update(bad_series)
        return Scenario.from_series(n=1, slots=3, **series)

    nan = float("nan")
    with pytest.raises(ScenarioError) as exc:
        scenario(rp=[[1.0], [-1.0], [1.0]], t_opt=[[70.0], [70.0], [nan]])
    assert str(exc.value) == "rp negative at slot 1, nanogrid 0"
    with pytest.raises(ScenarioError) as exc:
        scenario(d=[[1.0], [nan], [1.0]], m_b=[3.0, 12.0, 3.0])
    assert str(exc.value) == "series 'd' is not finite at slot 1, nanogrid 0: nan"
    # A cell that is no number, in a later slot, does not hide the defect.
    with pytest.raises(ScenarioError) as exc:
        Scenario(1, 2, rp=((-1.0,), (1.0,)), d=((1.0,),) * 2, t_out=((30.0,),) * 2,
                 t_opt=((70.0,),) * 2, m_s=(10.0, None), m_b=(3.0, 3.0),
                 g_t=(0.0, 0.0))
    assert str(exc.value) == "rp negative at slot 0, nanogrid 0"


def test_scenario_rejects_ragged_rows():
    with pytest.raises(ScenarioError, match="row 1"):
        Scenario.from_series(
            n=1, slots=2,
            rp=[[1.0], [1.0, 2.0]], d=[[1.0], [1.0]],
            t_out=[[30.0], [30.0]], t_opt=[[70.0], [70.0]],
            m_s=[10.0, 10.0], m_b=[3.0, 3.0], g_t=[0.0, 0.0],
        )


def test_assumption_checks_name_the_assumption():
    params = [PARAMS]
    hot = Scenario.from_series(
        n=1, slots=1, rp=[[0.0]], d=[[1.0]], t_out=[[80.0]], t_opt=[[70.0]],
        m_s=[10.0], m_b=[3.0], g_t=[0.0],
    )
    with pytest.raises(ConfigurationError, match=r"assumption \(a\)"):
        check_assumptions(hot, params)
    warm_spell = Scenario.from_series(
        n=1, slots=2, rp=[[0.0], [0.0]], d=[[1.0], [1.0]],
        t_out=[[30.0], [80.0]], t_opt=[[70.0], [70.0]], m_s=[14.0, 14.0],
        m_b=[3.0, 3.0], g_t=[0.0, 0.0],
    )
    with pytest.raises(ConfigurationError,
                       match=r"^assumption \(a\) violated for nanogrid 0: max "
                             r"outdoor temperature 80\.0 > t_max 77\.0$"):
        check_assumptions(warm_spell, params)

    frigid = Scenario.from_series(
        n=1, slots=1, rp=[[0.0]], d=[[1.0]], t_out=[[-20.0]], t_opt=[[70.0]],
        m_s=[10.0], m_b=[3.0], g_t=[0.0],
    )
    with pytest.raises(ConfigurationError, match=r"assumption \(b\)"):
        check_assumptions(frigid, params)

    sluggish = [NanogridParams(epsilon=0.5, eta=15.0, e_max=5.0, t_min=66.0,
                               t_max=77.0, l_max=10.0, gamma=0.01)]
    mild = Scenario.from_series(
        n=1, slots=1, rp=[[0.0]], d=[[1.0]], t_out=[[40.0]], t_opt=[[70.0]],
        m_s=[10.0], m_b=[3.0], g_t=[0.0],
    )
    with pytest.raises(ConfigurationError, match=r"assumption \(c\)"):
        check_assumptions(mild, sluggish)


def test_assumption_checks_refuse_a_binding_interchange_limit():
    # The draw box must stay [0, e_max]: l_max >= e_max + d - rp (buying at
    # rated power) and l_max >= rp - d (selling the surplus at zero draw).
    scen = Scenario.from_series(
        n=2, slots=3, rp=[[1.0, 1.0], [1.0, 1.0], [1.0, 9.0]],
        d=[[1.0, 1.0], [1.0, 3.0], [1.0, 1.0]], t_out=[[40.0, 40.0]] * 3,
        t_opt=[[70.0, 70.0]] * 3, m_s=[10.0] * 3, m_b=[3.0] * 3, g_t=[0.0] * 3,
    )
    with_limit = lambda l_max: [replace(PARAMS, l_max=l_max)] * 2
    check_assumptions(scen, with_limit(8.0))  # both edges exactly met
    check_assumptions(scen, with_limit(math.inf))
    # The refusal names the smallest accepted l_max: one ulp below 8.0,
    # -l_max - d rounds to -9.0, so the selling edge -l_max - d + rp is 0.0.
    with pytest.raises(ConfigurationError,
                       match=r"l_max=7\.5 binds the draw box of nanogrid 1 at "
                             r"slot 2: .* rp - d = 8\.0; the smallest l_max "
                             r"accepted for nanogrid 1 in every slot is "
                             r"7\.999999999999999$"):
        check_assumptions(scen, with_limit(7.5))
    with pytest.raises(ConfigurationError,
                       match=r"nanogrid 1 at slot 1: .* e_max \+ d - rp = 7\.0 "
                             r".*; the smallest l_max accepted for nanogrid 1 "
                             r"in every slot is 7\.999999999999999$"):
        check_assumptions(scen, with_limit(6.5))


def test_interchange_check_is_exact_at_the_edge():
    # check_assumptions accepts an l_max exactly when the box edges, each
    # rounded as written, give (0.0, e_max), so [0, e_max] is the draw box
    # of every accepted input; one ulp below the smallest such l_max is
    # refused by name, and the refusal names that smallest l_max.
    rng = random.Random(113)
    for _ in range(2000):
        rp, d = rng.uniform(0.0, 12.0), rng.uniform(0.0, 6.0)
        e_max = rng.uniform(1.0, 8.0)
        slot = FollowerSlot(rp=rp, d=d, t_out=60.0, t_opt=70.0)
        scen = Scenario.from_series(n=1, slots=1, rp=[[rp]], d=[[d]],
                                    t_out=[[60.0]], t_opt=[[70.0]],
                                    m_s=[10.0], m_b=[3.0], g_t=[0.0])
        edge = tightest_l_max(rp, d, e_max)
        start = max(e_max + d - rp, rp - d)
        for l_max in {edge, math.nextafter(edge, 0.0), start,
                      math.nextafter(start, 0.0), math.nextafter(start, math.inf)}:
            params = replace(PARAMS, e_max=e_max, l_max=l_max)
            box = interchange_box(slot, params)
            if l_max >= edge:
                check_assumptions(scen, [params])
                assert repr(box) == repr((0.0, e_max))
            else:
                with pytest.raises(ConfigurationError,
                                   match=rf"^l_max={l_max!r} binds the draw box"
                                   ) as exc:
                    check_assumptions(scen, [params])
                assert box != (0.0, e_max)
                # The refusal names the tightest l_max, which is accepted.
                named = float(str(exc.value).rsplit(" ", 1)[1])
                assert named == edge
                check_assumptions(scen, [replace(params, l_max=named)])


@pytest.mark.parametrize("make", [
    lambda: replace(PARAMS, gamma=math.inf),
    lambda: replace(PARAMS, t_min=-math.inf),
    lambda: NanogridControl(v_i=math.inf, gamma_shift=-75.0),
    lambda: PmeParams(e_min=2.0, e_max_cap=math.inf, u_cmax=1.0, u_dmax=1.0,
                      c_b=0.01),
    lambda: PmeControl(v_p=1.0, theta=-math.inf),
], ids=["gamma", "t_min", "v_i", "e_max_cap", "theta"])
def test_records_refuse_infinite_values_by_name(make):
    with pytest.raises(ConfigurationError, match=r"\w+ must be finite, got -?inf"):
        make()


def test_infinite_interchange_limit_is_allowed():
    assert replace(PARAMS, l_max=math.inf).l_max == math.inf
