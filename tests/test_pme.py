"""Leader surrogate, exact charge step, subgradients, certified windows."""

import random

import numpy as np
import pytest

from nanodr.domain import (
    ConfigurationError,
    FollowerAction,
    LeaderAction,
    PmeControl,
    PmeParams,
    Scenario,
    _trade_sums,
    pme_profit,
)
from nanodr.nanogrid import follower_models, follower_rule, respond
from nanodr.pme import _close_pro_prime, subgradients
from nanodr.policy import _leader_bounds, default_policy
from nanodr.stackelberg import _argmin_charge

from oracles import (
    brute_force_charge,
    interior_follower_instance,
    leader_surrogate,
    profit_from_definition,
)

PME = PmeParams(e_min=2.0, e_max_cap=16.0, u_cmax=1.0, u_dmax=1.0, c_b=0.01)
CONTROL = PmeControl(v_p=1.0, theta=-18.0)


def _surrogate(action, tps, b, g_t, m_s, m_b, v_p, c_b):
    """The package's surrogate: its trade sums closed in y, as the solver
    evaluates them."""
    return _close_pro_prime(*_trade_sums(action.p_s, action.p_b, tps), action.y,
                            b, g_t, m_s, m_b, v_p, c_b)


def _charge(b, m, control, params):
    """The exact charge step with the settlement residual positive over the
    whole charge box, so ``m`` is the marginal grid price throughout."""
    g_t = -params.u_dmax - 5.0  # residual = y - g_t > 0 for every y in the box
    return _argmin_charge([], b, g_t, m, m - 1.0, control.v_p, params.c_b,
                          -params.u_dmax, params.u_cmax)


def _answers(folks, p_s, p_b):
    """Each follower's action at the prices from the package's rule;
    ``folks`` holds (params, control, t, h, slot) per follower."""
    rules = [follower_rule(h, t, slot, *follower_models([params], [ctl]))
             for params, ctl, t, h, slot in folks]
    es, _ = respond(rules, p_s, p_b)
    return [FollowerAction(e=e, tp=f[4].d + e - f[4].rp) for e, f in zip(es, folks)]


# -- surrogate objective ----------------------------------------------------


def test_surrogate_zero_at_idle():
    action = LeaderAction(p_s=10.0, p_b=5.0, y=0.0)
    assert _surrogate(action, [0.0, 0.0], 0.0, 0.0, 12.0, 3.0, 1.0, PME.c_b) == 0.0


def test_surrogate_is_pressure_minus_weighted_profit():
    rng = random.Random(13)
    for _ in range(300):
        m_b = rng.uniform(1.0, 6.0)
        m_s = m_b + rng.uniform(0.5, 10.0)
        p_b = rng.uniform(m_b, m_s - 0.02)
        p_s = rng.uniform(p_b + 0.01, m_s)
        y = rng.uniform(-PME.u_dmax, PME.u_cmax)
        action = LeaderAction(p_s=p_s, p_b=p_b, y=y)
        tps = [rng.uniform(-6.0, 6.0) for _ in range(rng.randrange(0, 6))]
        b = rng.uniform(-20.0, 0.0)
        g_t = rng.uniform(-15.0, 25.0)
        v_p = rng.uniform(0.2, 2.0)
        control = PmeControl(v_p=v_p, theta=-18.0)
        surrogate = _surrogate(action, tps, b, g_t, m_s, m_b, control.v_p, PME.c_b)
        profit = pme_profit(action, tps, g_t, m_s, m_b, PME.c_b)
        assert surrogate == pytest.approx(b * y - v_p * profit, rel=1e-11, abs=1e-11)
        assert surrogate == pytest.approx(
            leader_surrogate(p_s, p_b, y, tps, b, g_t, m_s, m_b, v_p, PME.c_b),
            rel=1e-11, abs=1e-11)
        assert profit == pytest.approx(
            profit_from_definition(p_s, p_b, y, tps, g_t, m_s, m_b, PME.c_b),
            rel=1e-11, abs=1e-11)


def test_surrogate_hand_computed_point():
    # One buyer of 2 kWh, balanced by own generation except the charge.
    action = LeaderAction(p_s=10.0, p_b=5.0, y=0.5)
    got = _surrogate(action, [2.0], -6.0, 2.0, 12.0, 3.0, 1.5, PME.c_b)
    # b*y - v*p_s*tp + v*(m_s*residual + 0.5*c_b*y^2), residual = 0.5
    want = -6.0 * 0.5 - 1.5 * 20.0 + 1.5 * (12.0 * 0.5 + 0.5 * 0.01 * 0.25)
    assert got == pytest.approx(want, abs=1e-12)


# -- exact charge step ------------------------------------------------------


def test_charge_interior_zero():
    control = PmeControl(v_p=1.25, theta=-18.0)
    assert _charge(-1.25 * 8.0, 8.0, control, PME) == pytest.approx(0.0)


def test_charge_saturates_on_pressure():
    assert _charge(50.0, 8.0, CONTROL, PME) == -PME.u_dmax
    assert _charge(-50.0, 8.0, CONTROL, PME) == PME.u_cmax


def test_charge_matches_brute_force():
    rng = random.Random(19)
    for _ in range(300):
        b = rng.uniform(-25.0, 5.0)
        m = rng.uniform(1.0, 15.0)
        v_p = rng.uniform(0.2, 2.0)
        c_b = rng.choice([0.0, rng.uniform(0.001, 0.2)])
        params = PmeParams(e_min=2.0, e_max_cap=16.0,
                           u_cmax=rng.uniform(0.5, 3.0),
                           u_dmax=rng.uniform(0.5, 3.0), c_b=c_b)
        control = PmeControl(v_p=v_p, theta=-18.0)
        y = _charge(b, m, control, params)
        mine = (b + v_p * m) * y + 0.5 * v_p * c_b * y * y
        _, best_val = brute_force_charge(b, m, v_p, c_b, params.u_dmax,
                                         params.u_cmax, points=20_001)
        assert mine <= best_val + 1e-10


def test_charge_degenerate_cost_picks_endpoint_by_sign():
    params = PmeParams(e_min=2.0, e_max_cap=16.0, u_cmax=1.0, u_dmax=1.0, c_b=0.0)
    assert _charge(1.0, 8.0, CONTROL, params) == -1.0
    assert _charge(-20.0, 8.0, CONTROL, params) == 1.0
    # A flat objective ties every charge; the smallest candidate wins.
    assert _charge(-8.0, 8.0, CONTROL, params) == -1.0


def test_charge_takes_the_kink_between_the_branches():
    # Below the kink the grid buys back at m_b, above it sells at m_s: with
    # b + v_p*m_b < 0 < b + v_p*m_s the surrogate bottoms out at the kink.
    rng = random.Random(23)
    for _ in range(200):
        tps = [rng.uniform(-4.0, 4.0) for _ in range(3)]
        kink = rng.uniform(-0.9, 0.9)
        g_t = kink + sum(tps)
        m_b, m_s, v_p = 3.0, 12.0, rng.uniform(0.5, 1.5)
        b = -v_p * rng.uniform(m_b + 0.5, m_s - 0.5)
        c_b = rng.choice([0.0, 0.01])
        y = _argmin_charge(tps, b, g_t, m_s, m_b, v_p, c_b, -1.0, 1.0)
        assert y == pytest.approx(kink, abs=1e-12)
        grid = np.linspace(-1.0, 1.0, 20_001)
        values = leader_surrogate(m_s, m_b, grid, tps, b, g_t, m_s, m_b, v_p, c_b)
        mine = leader_surrogate(m_s, m_b, y, tps, b, g_t, m_s, m_b, v_p, c_b)
        assert mine <= float(np.min(values)) + 1e-10


# -- subgradients -----------------------------------------------------------


def test_subgradients_empty_follower_set():
    g_ps, g_pb, g_y = subgradients(10.0, 5.0, 0.3, [], -6.0, -2.0, 12.0, 3.0,
                                   CONTROL, PME, [], free=[])
    assert g_ps == 0.0
    assert g_pb == 0.0
    # Residual 0 - (-2) + 0.3 > 0 so the selling price is marginal.
    assert g_y == pytest.approx(-6.0 + 0.01 * 1.0 * 0.3 + 1.0 * 12.0)


def test_subgradients_balance_point_uses_buying_price():
    _, _, g_y = subgradients(10.0, 5.0, 0.0, [0.0], 0.0, 0.0, 12.0, 3.0,
                             CONTROL, PME, [0.0], free=[0])
    assert g_y == pytest.approx(0.0 + 0.0 + 1.0 * 3.0)


def test_subgradient_sign_with_buyers():
    # Pinned buyers: raising the selling price only raises revenue.
    g_ps, g_pb, _ = subgradients(10.0, 5.0, 0.0, [2.0, 1.0], -6.0, 0.0, 12.0,
                                 3.0, CONTROL, PME, [0.0, 0.0], free=[0, 1])
    assert g_ps == pytest.approx(-1.0 * 3.0)
    assert g_ps < 0.0
    assert g_pb == 0.0


def test_restricted_subgradients_keep_signed_zeros():
    # Only a nonzero sensitivity adds a term, so leaving pinned followers
    # (sensitivity 0.0) out of ``free`` gives the full sum bit for bit; the
    # restricted call takes the free followers' sensitivities in ``free``
    # order.
    # Zero interchanges and prices at a band edge make the signed zeros
    # that traces.csv prints as 0.0 or -0.0.
    rng = random.Random(41)
    zeros = 0
    for _ in range(3000):
        n = rng.randint(0, 5)
        tps = [rng.choice([0.0, -0.0, 1.5, -2.0, 0.25]) for _ in range(n)]
        hbars = [rng.choice([0.0, 0.0, 0.7]) for _ in range(n)]
        free = [i for i in range(n) if hbars[i] != 0.0 or rng.random() < 0.3]
        p_s = rng.choice([12.0, 8.0, 3.0])
        p_b = rng.choice([3.0, 5.0, 12.0])
        g_t = rng.choice([-3.0, 0.0, 3.0])
        assert all(hbars[i].hex() == (0.0).hex() for i in range(n)
                   if i not in free)
        free_hbars = [hbars[i] for i in free]
        args = (p_s, p_b, 0.0, tps, -6.0, g_t, 12.0, 3.0, CONTROL, PME)
        full = subgradients(*args, hbars, free=range(len(tps)))
        restricted = subgradients(*args, free_hbars, free=free)
        assert repr(restricted) == repr(full)
        zeros += full[0] == 0.0 or full[1] == 0.0
    assert zeros > 500


def test_subgradients_match_finite_differences_at_interior_points():
    rng = random.Random(37)
    checked = 0
    while checked < 30:
        buyers = [interior_follower_instance(rng, buyer=True)
                  for _ in range(rng.randrange(1, 3))]
        sellers = [interior_follower_instance(rng, buyer=False)
                   for _ in range(rng.randrange(1, 3))]
        folks = buyers + sellers
        p_s = buyers[0][5]
        p_b = buyers[0][6]
        ok = all(abs(f[5] - p_s) < 1e-9 and abs(f[6] - p_b) < 1e-9 for f in folks)
        if not ok:
            # Rebuild all followers at a common price pair.
            folks = [(f[0], f[1], f[2], f[3], f[4], p_s, p_b) for f in folks]
        v_p = rng.uniform(0.5, 1.5)
        control = PmeControl(v_p=v_p, theta=-18.0)
        b = rng.uniform(-20.0, -5.0)
        y = rng.uniform(-0.8, 0.8)
        m_s, m_b = 14.0, 3.0

        def answer(ps, pb):
            slopes = [follower_rule(h, t, slot,
                                    *follower_models([params], [ctl])).hbar
                      for params, ctl, t, h, slot, _, _ in folks]
            return _answers([f[:5] for f in folks], ps, pb), slopes

        acts, slopes = answer(p_s, p_b)
        tps = [a.tp for a in acts]
        # Keep only instances with a clean residual sign and stable regimes.
        g_t = sum(tps) + y - rng.choice([-8.0, 8.0])
        residual = sum(tps) - g_t + y
        if abs(residual) < 0.5:
            continue
        h_step = 1e-5

        def pro(ps, pb, yy):
            a, _ = answer(ps, pb)
            return leader_surrogate(ps, pb, yy, [x.tp for x in a], b, g_t,
                                    m_s, m_b, v_p, PME.c_b)

        base_acts = [a.e for a in acts]
        moved = answer(p_s + h_step, p_b)[0]
        stable = all(abs(m.e - e0) < 1.0 and 0.0 < m.e < 5.0
                     for m, e0 in zip(moved, base_acts))
        if not stable:
            continue

        g_ps, g_pb, g_y = subgradients(p_s, p_b, y, tps, b, g_t, m_s, m_b,
                                       control, PME, slopes,
                                       free=range(len(tps)))
        fd_ps = (pro(p_s + h_step, p_b, y) - pro(p_s - h_step, p_b, y)) / (2 * h_step)
        fd_pb = (pro(p_s, p_b + h_step, y) - pro(p_s, p_b - h_step, y)) / (2 * h_step)
        fd_y = (pro(p_s, p_b, y + h_step) - pro(p_s, p_b, y - h_step)) / (2 * h_step)
        assert g_ps == pytest.approx(fd_ps, rel=1e-4, abs=1e-6)
        assert g_pb == pytest.approx(fd_pb, rel=1e-4, abs=1e-6)
        assert g_y == pytest.approx(fd_y, rel=1e-4, abs=1e-6)
        checked += 1


def test_surrogate_strictly_convex_in_charge():
    rng = random.Random(43)
    for _ in range(100):
        tps = [rng.uniform(-4.0, 4.0) for _ in range(3)]
        b = rng.uniform(-20.0, -2.0)
        g_t = rng.uniform(-10.0, 10.0)
        v_p = rng.uniform(0.3, 1.5)
        y = rng.uniform(-0.7, 0.7)
        h = 0.05
        f = lambda yy: _surrogate(LeaderAction(p_s=10.0, p_b=5.0, y=yy), tps, b,
                                  g_t, 12.0, 3.0, v_p, PME.c_b)
        second = f(y + h) - 2.0 * f(y) + f(y - h)
        assert second > 0.0


def test_price_hessian_positive_at_interior_regime():
    # With every follower strictly inside an affine response branch, the
    # finite-difference Hessian of the surrogate in the two prices is
    # diagonal and positive.
    rng = random.Random(47)
    checked = 0
    while checked < 25:
        buyer_pack = interior_follower_instance(rng, buyer=True)
        seller_pack = interior_follower_instance(rng, buyer=False)
        p_s, p_b = buyer_pack[5], buyer_pack[6]
        folks = [buyer_pack[:5], seller_pack[:5]]
        y = 0.0
        v_p = 1.0
        b = -10.0

        def answer(ps, pb):
            return _answers(folks, ps, pb)

        acts = answer(p_s, p_b)
        if not all(0.5 < a.e < 4.5 for a in acts):
            continue
        tps = [a.tp for a in acts]
        g_t = sum(tps) + y - 6.0  # positive residual regime
        step = 1e-4

        def pro(ps, pb):
            a = answer(ps, pb)
            return leader_surrogate(ps, pb, y, [x.tp for x in a], b, g_t,
                                    14.0, 3.0, v_p, PME.c_b)

        probe = [answer(p_s + s1, p_b + s2)
                 for s1 in (-step, step) for s2 in (-step, step)]
        if not all(0.0 < a.e < 5.0 for row in probe for a in row):
            continue
        f00 = pro(p_s, p_b)
        d_ss = (pro(p_s + step, p_b) - 2 * f00 + pro(p_s - step, p_b)) / step ** 2
        d_bb = (pro(p_s, p_b + step) - 2 * f00 + pro(p_s, p_b - step)) / step ** 2
        d_sb = (pro(p_s + step, p_b + step) - pro(p_s + step, p_b - step)
                - pro(p_s - step, p_b + step) + pro(p_s - step, p_b - step)) \
            / (4 * step ** 2)
        assert d_ss > 0.0
        assert d_bb > 0.0
        # Off-diagonal vanishes; positive definiteness follows.
        assert abs(d_sb) <= 1e-4 * max(d_ss, d_bb)
        assert d_ss * d_bb - d_sb * d_sb > 0.0
        checked += 1


# -- certified windows ------------------------------------------------------


def test_leader_bounds_standard_formula():
    bounds = _leader_bounds(PME, 1.0, m_s_max=14.0, m_b_min=3.0)
    spread = 14.0 - 3.0
    assert bounds.c_min == pytest.approx(-0.01)
    assert bounds.c_max == pytest.approx(0.01)
    assert bounds.v_p_max == pytest.approx(12.0 / (spread + 0.02))
    assert bounds.v_p_max > 0.0
    assert bounds.theta_min == pytest.approx(1.0 - 16.0 - 3.0 + 0.01)
    assert bounds.theta_max == pytest.approx(-1.0 - 2.0 - 14.0 - 0.01)
    assert bounds.drift_bound == pytest.approx(0.5)


def test_leader_bounds_symmetric_without_use_cost():
    params = PmeParams(e_min=2.0, e_max_cap=16.0, u_cmax=1.0, u_dmax=1.0, c_b=0.0)
    bounds = _leader_bounds(params, 1.0, 14.0, 3.0)
    assert bounds.c_min == -bounds.c_max == 0.0


def test_theta_window_nonempty_below_v_p_max():
    rng = random.Random(41)
    for _ in range(300):
        u_c = rng.uniform(0.2, 3.0)
        u_d = rng.uniform(0.2, 3.0)
        gap = rng.uniform(0.1, 20.0)
        params = PmeParams(e_min=rng.uniform(0.0, 5.0),
                           e_max_cap=rng.uniform(0.0, 5.0) + u_c + u_d + gap + 5.0,
                           u_cmax=u_c, u_dmax=u_d, c_b=rng.uniform(0.0, 0.2))
        m_b_min = rng.uniform(1.0, 6.0)
        m_s_max = m_b_min + rng.uniform(0.0, 12.0)
        probe = _leader_bounds(params, 1.0, m_s_max, m_b_min)
        v_p = rng.uniform(0.01, 1.0) * min(probe.v_p_max, 10.0)
        bounds = _leader_bounds(params, v_p, m_s_max, m_b_min)
        assert bounds.theta_min <= bounds.theta_max + 1e-9


def test_validate_leader_control_names_bound():
    # The policy checks each override against the certified windows.
    scenario = Scenario.from_series(n=0, slots=2, rp=[[], []], d=[[], []],
                                    t_out=[[], []], t_opt=[[], []],
                                    m_s=[14.0, 14.0], m_b=[3.0, 3.0],
                                    g_t=[0.0, 0.0])
    bounds = _leader_bounds(PME, None, 14.0, 3.0)
    assert default_policy(scenario, [], PME).leader_bounds == bounds
    v_p, low, high = bounds.v_p_max * 1.5, bounds.theta_min - 1.0, bounds.theta_max + 1.0
    with pytest.raises(ConfigurationError) as exc:
        default_policy(scenario, [], PME, v_p=v_p)
    assert str(exc.value) == (f"aggregator: v_p={v_p} exceeds the maximum "
                              f"stabilizing weight v_p_max={bounds.v_p_max}")
    with pytest.raises(ConfigurationError) as exc:
        default_policy(scenario, [], PME, theta=low)
    assert str(exc.value) == (f"aggregator: theta={low} below the certified "
                              f"shift floor {bounds.theta_min}")
    with pytest.raises(ConfigurationError) as exc:
        default_policy(scenario, [], PME, theta=high)
    assert str(exc.value) == (f"aggregator: theta={high} above the certified "
                              f"shift ceiling {bounds.theta_max}")
