"""Follower decision rule: thresholds, objective, best response, windows."""

import collections
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nanodr.baselines import _comfort_box
from nanodr.domain import (
    ConfigurationError,
    FollowerSlot,
    LeaderAction,
    NanogridControl,
    NanogridParams,
    Scenario,
    ScenarioError,
    SlotData,
    SlotState,
    thermal_step,
)
from nanodr.nanogrid import (FollowerRule, box_corners, follower_models,
                             follower_rule, pinned_draw, respond)
from nanodr.policy import _follower_bounds, default_policy
from nanodr.scenario_io import default_pme_params
from nanodr.stackelberg import QueueResponder

from oracles import (
    brute_force_follower,
    follower_objective_grid,
    interchange_box,
    random_follower_instance,
    reference_pinned_draw,
    reference_response,
    reference_rule,
)

PARAMS = NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                        t_max=77.0, l_max=10.0, gamma=0.01)
CONTROL = NanogridControl(v_i=0.4, gamma_shift=-75.0)


def _draw(h, t, slot, leader, params, control):
    """The package's draw at the leader's prices: one rule, built and
    evaluated as a solve does, on the box the oracles search (``l_max`` may
    bind it)."""
    box = interchange_box(slot, params)
    model, = follower_models([params], [control])
    es, _ = respond([follower_rule(h, t, slot, model, box)],
                    leader.p_s, leader.p_b)
    return es[0]


def _rule_value(e, h, t, slot, leader, params, control):
    """The package's objective at draw ``e``, as ``respond`` evaluates a
    fixed candidate: the rule built on the one-point box [e, e]."""
    r = follower_rule(h, t, slot, *follower_models([params], [control]),
                      box=(e, e))
    _, base, tp, abs_tp = r.at_lo
    return base + r.v * (0.5 * (leader.p_s - leader.p_b) * abs_tp
                         + 0.5 * (leader.p_s + leader.p_b) * tp)


def _oracle_value(e, h, t, slot, leader, params, control):
    return float(follower_objective_grid(e, h, t, slot, leader, params, control))


# -- thresholds -------------------------------------------------------------


def test_thresholds_vanish_without_discomfort_weight():
    params = NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                            t_max=77.0, l_max=10.0, gamma=0.0)
    slot = FollowerSlot(rp=1.0, d=2.0, t_out=30.0, t_opt=70.0)
    rule = follower_rule(-5.0, 70.0, slot, *follower_models([params], [CONTROL]))
    # alpha and beta are zero: both levels are the bare drift pressure.
    pressure = -params.epsilon * (1 - params.epsilon) * -5.0 * params.eta
    assert rule.zero_level == pressure
    assert rule.rated_level == pressure
    assert not rule.has_vertex
    assert math.isinf(rule.hbar) and rule.hbar > 0.0


def test_beta_alpha_identity_on_random_draws():
    rng = random.Random(7)
    for _ in range(200):
        params, control, t, h, slot, _ = random_follower_instance(rng)
        if params.gamma == 0.0:
            continue
        rule = follower_rule(h, t, slot, *follower_models([params], [control]))
        one = 1.0 - params.epsilon
        gap = 2.0 * control.v_i * params.gamma * one * one \
            * params.eta * params.eta * params.e_max
        # beta - alpha, as the difference of the two levels.
        assert rule.zero_level - rule.rated_level == pytest.approx(
            gap, rel=1e-12, abs=1e-12)


def test_vartheta_cancels_at_aligned_temperatures():
    slot = FollowerSlot(rp=1.0, d=2.0, t_out=70.0, t_opt=70.0)
    rule = follower_rule(0.0, 70.0, slot, *follower_models([PARAMS], [CONTROL]))
    assert rule.vartheta == pytest.approx(0.0, abs=1e-12)


def test_delta_equals_scaled_vertex_to_kink_distance():
    rng = random.Random(11)
    for _ in range(200):
        params, control, t, h, slot, _ = random_follower_instance(rng)
        if params.gamma == 0.0:
            continue
        rule = follower_rule(h, t, slot, *follower_models([params], [control]))
        kink = slot.rp - slot.d
        assert rule.delta == pytest.approx((rule.vartheta - kink) / rule.hbar,
                                           rel=1e-9, abs=1e-9)


# -- objective --------------------------------------------------------------


def test_objective_zero_at_balanced_idle():
    slot = FollowerSlot(rp=2.0, d=2.0, t_out=30.0, t_opt=70.0)
    leader = LeaderAction(p_s=10.0, p_b=5.0, y=0.0)
    assert _rule_value(0.0, 0.0, 70.0, slot, leader, PARAMS, CONTROL) == 0.0


def test_objective_matches_term_by_term_restatement():
    rng = random.Random(3)
    for _ in range(100):
        params, control, t, h, slot, leader = random_follower_instance(rng)
        lo, hi = interchange_box(slot, params)
        e = rng.uniform(lo, hi)
        got = _rule_value(e, h, t, slot, leader, params, control)
        eps, one, eta, v = params.epsilon, 1.0 - params.epsilon, params.eta, control.v_i
        term_quad = v * params.gamma * one ** 2 * (eta * e) ** 2
        term_lin = (eps * one * h + 2.0 * v * params.gamma * one
                    * (one * slot.t_out + eps * t - slot.t_opt)) * eta * e
        tp = slot.d - slot.rp + e
        term_trade = v * (0.5 * (leader.p_s - leader.p_b) * abs(tp)
                          + 0.5 * (leader.p_s + leader.p_b) * tp)
        assert got == pytest.approx(term_quad + term_lin + term_trade,
                                    rel=1e-12, abs=1e-12)


def test_objective_increment_matches_drift_bound_form():
    # The cost of drawing e over drawing nothing must equal the queue-drift
    # pressure plus the weighted instantaneous cost increment.
    rng = random.Random(5)
    for _ in range(100):
        params, control, t, h, slot, leader = random_follower_instance(rng)
        lo, hi = interchange_box(slot, params)
        if lo > 0.0:
            continue
        e = rng.uniform(lo, hi)
        got = (_rule_value(e, h, t, slot, leader, params, control)
               - _rule_value(0.0, h, t, slot, leader, params, control))
        eps, one, eta, v = params.epsilon, 1.0 - params.epsilon, params.eta, control.v_i
        t_with = thermal_step(t, slot.t_out, e, params)
        t_without = thermal_step(t, slot.t_out, 0.0, params)
        drift = eps * one * h * eta * e
        discomfort = v * params.gamma * ((t_with - slot.t_opt) ** 2
                                         - (t_without - slot.t_opt) ** 2)
        trade = v * ((0.5 * (leader.p_s - leader.p_b) * abs(slot.d - slot.rp + e)
                      + 0.5 * (leader.p_s + leader.p_b) * (slot.d - slot.rp + e))
                     - (0.5 * (leader.p_s - leader.p_b) * abs(slot.d - slot.rp)
                        + 0.5 * (leader.p_s + leader.p_b) * (slot.d - slot.rp)))
        assert got == pytest.approx(drift + discomfort + trade, rel=1e-9, abs=1e-9)


# -- best response ----------------------------------------------------------


def test_zero_draw_threshold_case():
    # Hot state: strong pressure against heating; buying price cannot beat it.
    slot = FollowerSlot(rp=1.0, d=2.0, t_out=40.0, t_opt=70.0)
    control = NanogridControl(v_i=0.4, gamma_shift=-70.0)
    t = 76.5
    h = t + control.gamma_shift
    leader = LeaderAction(p_s=10.0, p_b=5.0, y=0.0)
    rule = follower_rule(h, t, slot, *follower_models([PARAMS], [control]))
    assert control.v_i * leader.p_b > rule.zero_level  # case fires
    assert _draw(h, t, slot, leader, PARAMS, control) == 0.0


def test_full_power_threshold_case():
    # Cold state far below the queue's hold level: any selling price loses.
    slot = FollowerSlot(rp=1.0, d=2.0, t_out=30.0, t_opt=70.0)
    control = NanogridControl(v_i=0.4, gamma_shift=-75.0)
    t = 66.2
    h = t + control.gamma_shift
    leader = LeaderAction(p_s=10.0, p_b=5.0, y=0.0)
    rule = follower_rule(h, t, slot, *follower_models([PARAMS], [control]))
    assert control.v_i * leader.p_s < rule.rated_level  # case fires
    assert _draw(h, t, slot, leader, PARAMS, control) == PARAMS.e_max


def _hex_rule(v, at_lo, at_kink, at_hi, has_vertex, *rest):
    """A ``FollowerRule`` from the ``float.hex`` strings of its fields."""
    def fixed(c):
        return tuple(map(float.fromhex, c))
    return FollowerRule(float.fromhex(v), fixed(at_lo), fixed(at_kink),
                        fixed(at_hi), has_vertex, *map(float.fromhex, rest))


# Two rules of the seed-1 month at n = 5 (``run --slots 720``), at prices
# the solver asked, where a rate gate fires and the vertex the thresholds
# pick lies inside the box, one rounding away from an edge.  Its value
# there beats the edge's, so without the gate ``respond`` would answer
# 1.1368683772161603e-13 (idle) or 4.999999999999773 (rated power), with
# slope hbar.
_GATED = {
    "idle": ("0x1.45139a940cf7cp+3", "0x1.587b56c430086p+2", 0.0, _hex_rule(
        "0x1.4f439fd71c789p-2",
        ("0x0.0p+0", "0x0.0p+0", "-0x1.21bbe3dba81b0p-4", "0x1.21bbe3dba81b0p-4"),
        ("0x1.21bbe3dba81b0p-4", "-0x1.fe9274c623e02p-4", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.4000000000000p+2", "-0x1.193d6c9dc3563p+3", "0x1.3b791070915f9p+2",
         "0x1.3b791070915f9p+2"),
        True, "0x1.c32465e880fcdp+0", "0x1.c0d35c10567d7p+0",
        "0x1.5874eec2fd320p+2", "0x1.e6de03642704ap+9", "0x1.69d02506d128ap+7",
        "0x1.ad235bf49f52ap-9", "0x1.0d2bb53593b2ep-1", "-0x1.c32465e880fcdp+0",
        "-0x1.21bbe3dba81b0p-4")),
    "rated": ("0x1.634a6e2fde120p+3", "0x1.1fd70a3d70a3dp+3", 5.0, _hex_rule(
        "0x1.5b401302af788p-2",
        ("0x0.0p+0", "0x0.0p+0", "0x1.2ba4274bceca0p-3", "0x1.2ba4274bceca0p-3"),
        ("0x0.0p+0", "0x0.0p+0", "0x1.2ba4274bceca0p-3", "0x1.2ba4274bceca0p-3"),
        ("0x1.4000000000000p+2", "-0x1.2da490d23b1cap+4", "0x1.495d213a5e765p+2",
         "0x1.495d213a5e765p+2"),
        True, "0x1.e352ff14dbb19p+1", "0x1.e1eed058ae438p+1",
        "0x1.6458b2fe1e2abp+3", "0x1.b239de6512f31p+10", "0x1.37f9a0c7c1057p+7",
        "0x1.bc7af99d09900p-9", "0x1.21dfde28da88cp-1", "-0x1.e352ff14dbb19p+1",
        "0x1.2ba4274bceca0p-3")),
}


@pytest.mark.parametrize("case", sorted(_GATED))
def test_rate_gates_keep_the_edge_draw(case):
    # respond's rate gates are not restated by its lo < vertex < hi test:
    # rounding can put the vertex just inside the box while the gate fires.
    p_s, p_b, edge, rule = _GATED[case]
    p_s, p_b = float.fromhex(p_s), float.fromhex(p_b)
    v = rule.v
    if case == "idle":
        assert v * p_b > rule.zero_level
        vertex = rule.vartheta - p_b * rule.hbar
    else:
        assert v * p_s < rule.rated_level
        vertex = rule.vartheta - p_s * rule.hbar
    assert rule.at_lo[0] < vertex < rule.at_hi[0]
    es, slopes = respond([rule], p_s, p_b)
    assert _hex(es) == [edge.hex()]
    assert _hex(slopes) == [(0.0).hex()]
    # pinned_draw leaves the gates out, so it declines to pin this draw.
    assert pinned_draw(rule, box_corners(p_s, p_s, p_b, p_b)) is None


def test_best_response_matches_brute_force():
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        params, control, t, h, slot, leader = random_follower_instance(rng)
        e = _draw(h, t, slot, leader, params, control)
        mine = _oracle_value(e, h, t, slot, leader, params, control)
        _, best_val = brute_force_follower(h, t, slot, leader, params, control,
                                           points=20_001)
        assert mine <= best_val + 1e-8 * (1.0 + abs(best_val))
        checked += 1
    assert checked == 200


def test_best_response_monotone_in_prices():
    rng = random.Random(23)
    for _ in range(150):
        params, control, t, h, slot, leader = random_follower_instance(rng)
        e = _draw(h, t, slot, leader, params, control)
        bumped_s = LeaderAction(p_s=leader.p_s + 0.5, p_b=leader.p_b, y=0.0)
        assert _draw(h, t, slot, bumped_s, params, control) <= e + 1e-9
        if leader.p_b + 0.5 < leader.p_s:
            bumped_b = LeaderAction(p_s=leader.p_s, p_b=leader.p_b + 0.5, y=0.0)
            assert _draw(h, t, slot, bumped_b, params, control) <= e + 1e-9


def test_gamma_zero_best_response_is_edge_or_kink():
    params = NanogridParams(epsilon=0.95, eta=15.0, e_max=5.0, t_min=66.0,
                            t_max=77.0, l_max=10.0, gamma=0.0)
    rng = random.Random(29)
    for _ in range(100):
        _, control, t, h, slot, leader = random_follower_instance(rng)
        e = _draw(h, t, slot, leader, params, control)
        lo, hi = interchange_box(slot, params)
        kink = min(max(slot.rp - slot.d, lo), hi)
        assert min(abs(e - lo), abs(e - hi), abs(e - kink)) < 1e-12
        mine = _oracle_value(e, h, t, slot, leader, params, control)
        _, best_val = brute_force_follower(h, t, slot, leader, params, control,
                                           points=20_001)
        assert mine <= best_val + 1e-8 * (1.0 + abs(best_val))


def test_threshold_cases_agree_with_unclamped_argmin():
    # Whenever a shortcut fires, the grid argmin over the full rated range
    # [0, e_max] sits at the corresponding endpoint.
    rng = random.Random(43)
    fired = 0
    for _ in range(400):
        params, control, t, h, slot, leader = random_follower_instance(rng)
        if params.gamma == 0.0:
            continue
        wide = NanogridParams(epsilon=params.epsilon, eta=params.eta,
                              e_max=params.e_max, t_min=params.t_min,
                              t_max=params.t_max, l_max=50.0,
                              gamma=params.gamma)
        rule = follower_rule(h, t, slot, *follower_models([wide], [control]))
        if control.v_i * leader.p_b > rule.zero_level:
            endpoint = 0.0
        elif control.v_i * leader.p_s < rule.rated_level:
            endpoint = wide.e_max
        else:
            continue
        grid_e, _ = brute_force_follower(h, t, slot, leader, wide, control,
                                         points=20_001)
        assert abs(grid_e - endpoint) <= wide.e_max / 20_000 + 1e-12
        assert _draw(h, t, slot, leader, wide, control) == endpoint
        fired += 1
    assert fired > 50


# -- bit-exact decision rule ------------------------------------------------


def _instances(rng, count, binding_l_max):
    """Random follower problems; with ``binding_l_max`` the interchange limit
    cuts the draw box inside [0, e_max]."""
    out = []
    while len(out) < count:
        params, control, t, h, slot, leader = random_follower_instance(rng)
        if binding_l_max:
            params = replace(params, l_max=rng.uniform(0.3, 3.0))
            lo, hi = interchange_box(slot, params)
            if not (lo <= hi and (lo > 0.0 or hi < params.e_max)):
                continue
        out.append((params, control, t, h, slot, leader))
    return out


def _boxes(rng, group, myopic):
    """Each follower's interchange box (``l_max`` may bind it), passed to
    the package's rule explicitly; with ``myopic`` a random sub-box of it,
    as the myopic game tightens its boxes."""
    boxes = [interchange_box(slot, params) for params, _, _, _, slot, _ in group]
    if myopic:
        for i, (lo, hi) in enumerate(boxes):
            sub_lo = lo + rng.choice([0.0, rng.random()]) * (hi - lo)
            sub_hi = sub_lo + rng.choice([0.0, 1.0, rng.random()]) * (hi - sub_lo)
            # The sum can round one ulp above hi; the myopic game's boxes
            # never leave [0, e_max] (the box contract of follower_rule).
            boxes[i] = (sub_lo, min(sub_hi, hi))
    return boxes


def _prices_near_delta(rng, group, myopic):
    """Each follower's own prices, plus p_s and then p_b at its rule's delta
    and a few ULPs either side, where the branch vertex meets the kink."""
    prices = [(leader.p_s, leader.p_b) for *_, leader in group]
    for params, control, t, h, slot, _ in group:
        if params.gamma == 0.0:
            continue
        h = 0.0 if myopic else h
        delta = follower_rule(h, t, slot,
                              *follower_models([params], [control])).delta
        for k in range(-4, 5):
            p = delta
            for _ in range(abs(k)):
                p = math.nextafter(p, math.copysign(math.inf, k))
            gap = rng.uniform(0.01, 6.0)
            prices.append((p, p - gap))
            prices.append((p + gap, p))
    return prices


@pytest.mark.parametrize("case", ["random", "binding_l_max", "myopic_boxes"])
def test_queue_responder_is_bit_exact_with_reference_rule(case):
    rng = random.Random({"random": 61, "binding_l_max": 67, "myopic_boxes": 71}[case])
    myopic = case == "myopic_boxes"  # queue term dropped, tightened boxes
    compared = in_band = 0
    mixed = 0  # groups with both gamma == 0 and gamma > 0 followers
    for _ in range(30):
        group = _instances(rng, 8, binding_l_max=case == "binding_l_max")
        mixed += 0 < sum(p.gamma == 0.0 for p, *_ in group) < len(group)
        boxes = _boxes(rng, group, myopic)
        state = SlotState(t=tuple(g[2] for g in group), h=tuple(g[3] for g in group),
                          e_batt=0.0, b=0.0)
        slot = SlotData(m_s=20.0, m_b=1.0, g_t=0.0,
                        followers=tuple(g[4] for g in group))
        if myopic:  # as case 3 plays: no queue pressure
            state = replace(state, h=(0.0,) * len(group))
        responder = QueueResponder(state, slot, follower_models(
            [g[0] for g in group], [g[1] for g in group]), boxes=boxes)
        rules = [follower_rule(0.0 if myopic else h, t, fs,
                               *follower_models([params], [control]), boxes[i])
                 for i, (params, control, t, h, fs, _) in enumerate(group)]
        for p_s, p_b in _prices_near_delta(rng, group, myopic):
            expected = [
                reference_response(0.0 if myopic else h, t, fs, p_s, p_b, params,
                                   control, boxes[i] if myopic else None)
                for i, (params, control, t, h, fs, _) in enumerate(group)
            ]
            if slot.m_b <= min(p_s, p_b) and max(p_s, p_b) <= slot.m_s:
                es, tps, slopes = responder.respond_full(p_s, p_b)
                assert tps == [fs.d + e - fs.rp for fs, e in zip(slot.followers, es)]
                free = responder.free
                in_band += 1
            else:
                # The responder answers in-band prices only; elsewhere the
                # same rules are evaluated directly.
                es, slopes = respond(rules, p_s, p_b)
                free = range(len(group))
            assert list(es) == [e for e, _ in expected]
            # Slopes come in ``free`` order; a pinned follower's is 0.0.
            assert list(slopes) == [expected[i][1] for i in free]
            assert all(s == 0.0 for i, (_, s) in enumerate(expected)
                       if i not in free)
            compared += len(group)
    assert compared > 10_000 and mixed > 20
    assert in_band > 250


def _nudge(rng, x):
    """``x`` moved by a few ULPs or by a few parts in 1e9 (about the
    certificate's margin), either way."""
    if rng.random() < 0.5:
        for _ in range(rng.randint(0, 3)):
            x = math.nextafter(x, rng.choice([-math.inf, math.inf]))
        return x
    return x * (1.0 + rng.randint(-4, 4) * 1e-9)


def _band_near_boundary(rng, rule):
    """A price band that puts ``rule`` within a few margins of one of its
    certificate's boundaries: a threshold test that flips at a band edge,
    or two fixed candidates with different draws that tie at a corner."""
    width = rng.uniform(0.5, 10.0)
    kind = rng.choice(["zero", "rated", "tie", "tie"])
    if kind == "zero" and rule.has_vertex:
        m_b = _nudge(rng, rule.zero_level / rule.v)
        return m_b, m_b + width
    if kind == "rated" and rule.has_vertex:
        m_s = _nudge(rng, rule.rated_level / rule.v)
        return m_s - width, m_s
    w, c = rng.sample([rule.at_lo, rule.at_kink, rule.at_hi], 2)
    if w[0] == c[0]:
        return None
    db, da, dt = c[1] - w[1], c[3] - w[3], c[2] - w[2]
    v = rule.v
    corner = rng.choice(["gap", "-gap", "s", "b"])
    if corner in ("s", "b"):  # p_s = p_b at the top or bottom edge
        if dt == 0.0:
            return None
        edge = _nudge(rng, -db / (v * dt))
        return (edge - width, edge) if corner == "s" else (edge, edge + width)
    # (p_s, p_b) = (m_s, m_b) or (m_b, m_s): the gap in m_s at a fixed m_b.
    m_b = rng.uniform(1.0, 6.0)
    slope = 0.5 * v * (da + dt if corner == "gap" else dt - da)
    if slope == 0.0:
        return None
    rest = db + 0.5 * v * m_b * (dt - da if corner == "gap" else dt + da)
    return m_b, _nudge(rng, -rest / slope)


def _corner_prices(ps_lo, ps_hi, pb_lo, pb_hi):
    """A price box's four corners and the point one ULP inside each (on a
    side of zero width, the corner itself)."""
    def inward(x, to):
        return x if x == to else math.nextafter(x, to)
    return [pair
            for p_s, s_to in ((ps_hi, ps_lo), (ps_lo, ps_hi))
            for p_b, b_to in ((pb_lo, pb_hi), (pb_hi, pb_lo))
            for pair in ((p_s, p_b), (inward(p_s, s_to), inward(p_b, b_to)))]


def _breakpoints(rule):
    """The prices where ``rule``'s threshold tests flip: its zero and rated
    levels, delta, and where its branch vertex crosses a draw-box edge."""
    points = [rule.delta, rule.zero_level / rule.v, rule.rated_level / rule.v]
    if math.isfinite(rule.hbar):
        points += [(rule.vartheta - rule.at_lo[0]) / rule.hbar,
                   (rule.vartheta - rule.at_hi[0]) / rule.hbar]
    return points


def _sub_boxes(rng, rules, m_b, m_s):
    """Price boxes (ps_lo, ps_hi, pb_lo, pb_hi) inside the band [m_b, m_s]²:
    a random one, a line box (one side, or both, of zero width), and two
    with one edge on a follower's breakpoint in the band, nudged by a few
    ULPs or parts in 1e9 half the time."""
    def span():
        return sorted((rng.uniform(m_b, m_s), rng.uniform(m_b, m_s)))

    in_band = [p for r in rules for p in _breakpoints(r) if m_b <= p <= m_s]
    boxes = []
    for kind in ("random", "line", "breakpoint", "breakpoint"):
        ps, pb = span(), span()
        if kind == "line":
            for side in rng.choice([[ps], [pb], [ps, pb]]):
                side[1] = side[0]
        elif kind == "breakpoint" and in_band:
            edge = rng.choice(in_band)
            if rng.random() < 0.5:
                edge = min(max(_nudge(rng, edge), m_b), m_s)
            side = rng.choice([ps, pb])
            side[rng.randrange(2)] = edge
            side.sort()
        boxes.append((*ps, *pb))
    return boxes


def _chunk_boxes(rng, rules, m_b, m_s):
    """Line boxes shaped like the hulls of the polish's runs of scan points,
    one along each price: both ends on in-band breakpoints with at least one
    other breakpoint between them, at a fixed other price that keeps p_s
    above p_b, as on the polish's lines."""
    pts = sorted({p for r in rules for p in _breakpoints(r) if m_b < p < m_s})
    if len(pts) < 3:
        return []
    boxes = []
    for along_s in (True, False):
        i = rng.randrange(len(pts) - 2)
        a, b = pts[i], pts[rng.randrange(i + 2, len(pts))]
        if along_s:
            price = rng.uniform(m_b, a)
            boxes.append((a, b, price, price))
        else:
            price = rng.uniform(b, m_s)
            boxes.append((price, price, a, b))
    return boxes


def _hex(values):
    # float.hex tells -0.0 from 0.0, which == does not.
    return [float(x).hex() for x in values]


def _assert_matches_reference(responder, group, slot, boxes, myopic, prices):
    """``responder``'s answers at ``prices`` are the reference rule's draws,
    interchanges and slopes, bit for bit; returns the last interchanges.
    The responder's slopes are the free followers', in ``free`` order; every
    pinned follower's reference slope is 0.0."""
    for p_s, p_b in prices:
        expected = [
            reference_response(0.0 if myopic else h, t, fs, p_s, p_b, params,
                               control, boxes[i] if myopic else None)
            for i, (params, control, t, h, fs, _) in enumerate(group)
        ]
        es, tps, slopes = responder.respond_full(p_s, p_b)
        assert _hex(es) == _hex(e for e, _ in expected)
        assert _hex(tps) == _hex(fs.d + e - fs.rp
                                 for fs, (e, _) in zip(slot.followers, expected))
        slopes_ref = _hex(s for _, s in expected)
        assert _hex(slopes) == [slopes_ref[i] for i in responder.free]
        assert all(s == (0.0).hex() for i, s in enumerate(slopes_ref)
                   if i not in responder.free)
    return tps


@pytest.mark.parametrize("case", ["random", "binding_l_max", "myopic_boxes",
                                  "near_boundary"])
def test_pinned_followers_are_bit_exact_over_the_band(case):
    # Followers the responder certifies as pinned skip evaluation at in-band
    # prices; each answer must still equal the full rule's, bit for bit.
    # So must the answers of the responder restricted to a sub-box of the
    # band, which certifies the followers still free on that box; among
    # them line boxes shaped like the polish's runs of scan points.
    seed = {"random": 79, "binding_l_max": 83, "myopic_boxes": 89,
            "near_boundary": 97}[case]
    rng = random.Random(seed)
    box_rng = random.Random(seed + 1)  # leaves the band draws as they were
    myopic = case == "myopic_boxes"
    size = 3 if case == "near_boundary" else 6
    certified = uncertified = in_band = 0
    box_certified = lines = runs = runs_pinning = 0
    for _ in range(400 if case == "near_boundary" else 150):
        group = _instances(rng, size, binding_l_max=case == "binding_l_max")
        boxes = _boxes(rng, group, myopic)
        rules = [follower_rule(0.0 if myopic else h, t, fs,
                               *follower_models([params], [control]), boxes[i])
                 for i, (params, control, t, h, fs, _) in enumerate(group)]
        m_b = rng.uniform(1.0, 6.0)
        m_s = m_b + rng.uniform(0.5, 10.0)
        if rng.random() < 0.5:
            # Centre the band on one follower's price breakpoint instead.
            centre = rng.choice(_breakpoints(rules[rng.randrange(size)]))
            m_b, m_s = centre - rng.uniform(0.1, 5.0), centre + rng.uniform(0.1, 5.0)
        if case == "near_boundary":
            band = _band_near_boundary(rng, rules[0])
            if band is None or not band[0] <= band[1]:
                continue
            m_b, m_s = band
        state = SlotState(t=tuple(g[2] for g in group), h=tuple(g[3] for g in group),
                          e_batt=0.0, b=0.0)
        slot = SlotData(m_s=m_s, m_b=m_b, g_t=0.0,
                        followers=tuple(g[4] for g in group))
        if myopic:  # as case 3 plays: no queue pressure
            state = replace(state, h=(0.0,) * len(group))
        responder = QueueResponder(state, slot, follower_models(
            [g[0] for g in group], [g[1] for g in group]), boxes=boxes)
        assert responder.box == (m_b, m_s, m_b, m_s)
        uncertified += len(responder.free)
        certified += size - len(responder.free)
        prices = _corner_prices(m_b, m_s, m_b, m_s)
        for _ in range(16):
            prices.append((rng.uniform(m_b, m_s), rng.uniform(m_b, m_s)))
        _assert_matches_reference(responder, group, slot, boxes, myopic, prices)
        in_band += 16
        if not responder.free:
            continue
        sub_boxes = _sub_boxes(box_rng, rules, m_b, m_s)
        chunks = _chunk_boxes(box_rng, rules, m_b, m_s)
        for box in sub_boxes + chunks:
            sub = responder.restrict(*box)
            assert sub.box == box and set(sub.free) <= set(responder.free)
            box_certified += len(responder.free) - len(sub.free)
            lines += box[0] == box[1] or box[2] == box[3]
            if box in chunks:
                runs += 1
                runs_pinning += len(sub.free) < len(responder.free)
            ps_lo, ps_hi, pb_lo, pb_hi = box
            prices = _corner_prices(*box)
            for _ in range(4):
                prices.append((box_rng.uniform(ps_lo, ps_hi),
                               box_rng.uniform(pb_lo, pb_hi)))
            _assert_matches_reference(sub, group, slot, boxes, myopic, prices)
    assert in_band >= 2000
    assert certified >= 100 and uncertified >= 100
    assert box_certified >= 200 and lines >= 50
    # Chunk-shaped lines: 108-152 per case, 74-141 of them pin a follower
    # free on the band.
    assert runs >= 100 and runs_pinning >= 60


def _signed_price_box(rng):
    """A price box (ps_lo, ps_hi, pb_lo, pb_hi) whose prices may be negative
    or cross zero (``Scenario`` asks only m_b <= m_s); each side has zero
    width a quarter of the time."""
    def side():
        a = rng.uniform(-10.0, 10.0)
        return (a, a) if rng.random() < 0.25 else sorted((a, rng.uniform(-10.0, 10.0)))
    return (*side(), *side())


def _exact_value(v, candidate, p_s, p_b):
    # A fixed candidate's value at (p_s, p_b), with no rounding at all.
    _, base, tp, abs_tp = map(Fraction, candidate)
    return base + Fraction(v) * ((p_s - p_b) / 2 * abs_tp + (p_s + p_b) / 2 * tp)


def test_fixed_candidate_gaps_are_smallest_at_the_deciding_corner():
    # pinned_draw tests a rival fixed candidate c against the winner w at
    # one corner of the price box: (ps_lo, pb_lo) when c's draw is larger,
    # (ps_hi, pb_hi) when it is smaller.  In exact arithmetic that corner's
    # gap is the smallest over the box, for every pair of fixed candidates
    # with different draws: the box's four corners, since the gap is affine
    # in the prices, and a few points inside as well.
    rng = random.Random(103)
    pairs = zero_gamma = lines = signed = 0
    for _ in range(60):
        myopic = rng.random() < 0.5
        group = _instances(rng, 3, binding_l_max=rng.random() < 0.5)
        boxes = _boxes(rng, group, myopic)
        for i, (params, control, t, h, fs, _) in enumerate(group):
            rule = follower_rule(0.0 if myopic else h, t, fs,
                                 *follower_models([params], [control]), boxes[i])
            zero_gamma += not rule.has_vertex
            fixed = (rule.at_lo, rule.at_kink, rule.at_hi)
            for _ in range(3):
                ps_lo, ps_hi, pb_lo, pb_hi = box = _signed_price_box(rng)
                lines += ps_lo == ps_hi or pb_lo == pb_hi
                signed += min(box) < 0.0
                ps_lo, ps_hi, pb_lo, pb_hi = map(Fraction, box)
                points = [(ps_lo, pb_lo), (ps_lo, pb_hi), (ps_hi, pb_lo),
                          (ps_hi, pb_hi)]
                for _ in range(2):
                    points.append(tuple(lo + (hi - lo) * Fraction(rng.random())
                                        for lo, hi in ((ps_lo, ps_hi),
                                                       (pb_lo, pb_hi))))
                values = [[_exact_value(rule.v, c, *point) for point in points]
                          for c in fixed]
                for w, c in itertools.permutations(range(3), 2):
                    if fixed[c][0] == fixed[w][0]:
                        continue
                    gaps = [vc - vw for vc, vw in zip(values[c], values[w])]
                    deciding = 0 if fixed[c][0] > fixed[w][0] else 3
                    assert gaps[deciding] == min(gaps)
                    pairs += 1
    assert pairs >= 1000 and zero_gamma >= 20 and lines >= 100 and signed >= 300


@pytest.mark.parametrize("dominant", ["rival", "winner"])
def test_margin_covers_each_candidates_trade_term(dominant):
    # Idle (draw 0, interchange 0) against rated power (interchange e_max),
    # whose base all but cancels its trade term v*p_s*e_max at a tiny p_s.
    # With the band [m_b, m_s]² = [tiny, 10]², rated power is the rival and
    # (m_b, m_b) its deciding corner; with [-10, tiny]², it is the winner
    # and the rival's deciding corner is (m_s, m_s).  In both the exact gap
    # at that corner is 1e-16, and the gap does not depend on p_b, but at
    # p_b = ±10 respond's rounded half gap and half sum are off by up to
    # half an ulp of 10, times v*e_max, which picks the other draw at some
    # prices.  Only rated power's own v*reach*|tp| term in the margin keeps
    # the certificate from pinning the draw.
    rule = follower_rule(-5e-9, 70.0, FollowerSlot(rp=2.0, d=2.0, t_out=50.0,
                                                    t_opt=70.0),
                         *follower_models([replace(PARAMS, gamma=0.0)], [CONTROL]))
    assert rule.at_lo == rule.at_kink == (0.0, 0.0, 0.0, 0.0)
    _, base, tp, _ = rule.at_hi
    if dominant == "rival":
        m_b, m_s = (1e-16 - base) / (rule.v * tp), 10.0
        p_s = m_b
    else:
        m_b, m_s = -10.0, (-1e-16 - base) / (rule.v * tp)
        p_s = m_s
    draws = {respond([rule], p_s, m_b + (m_s - m_b) * j / 999)[0][0]
             for j in range(1000)}
    assert draws == {0.0, PARAMS.e_max}
    assert pinned_draw(rule, box_corners(m_b, m_s, m_b, m_s)) is None


def test_best_response_is_bit_exact_with_reference_rule():
    rng = random.Random(73)
    for params, control, t, h, slot, leader in _instances(rng, 500, False):
        e, _ = reference_response(h, t, slot, leader.p_s, leader.p_b, params,
                                  control)
        assert _draw(h, t, slot, leader, params, control) == e


# -- certified windows ------------------------------------------------------


def test_swing_formula_example():
    # (1-eps)*(t_out_max + eta*e_max - t_out_min) with a 20 degree span.
    bounds = _follower_bounds(PARAMS, 0.3, t_out_min=30.0, t_out_max=50.0,
                              t_opt=[70.0, 71.0], p_s_max=14.0, p_b_min=3.0)
    assert bounds.swing == pytest.approx(0.05 * 95.0, abs=1e-12)


def test_constant_target_has_zero_span():
    bounds = _follower_bounds(PARAMS, 0.3, t_out_min=30.0, t_out_max=50.0,
                              t_opt=[70.0, 70.0, 70.0], p_s_max=14.0,
                              p_b_min=3.0)
    assert bounds.opt_span == 0.0


def test_v_max_positive_for_standard_constants():
    for eps in (0.93, 0.95, 0.98):
        params = NanogridParams(epsilon=eps, eta=15.0, e_max=5.0, t_min=66.0,
                                t_max=77.0, l_max=10.0, gamma=0.01)
        bounds = _follower_bounds(params, None, t_out_min=20.0,
                                  t_out_max=55.0, t_opt=[69.0, 73.0],
                                  p_s_max=14.0, p_b_min=3.0)
        assert bounds.v_max > 0.0
        assert bounds.gamma_min <= bounds.gamma_max + 1e-9


def test_window_nonempty_for_any_weight_below_max():
    rng = random.Random(31)
    for _ in range(200):
        eps = rng.uniform(0.9, 0.985)
        params = NanogridParams(epsilon=eps, eta=rng.uniform(8.0, 20.0),
                                e_max=rng.uniform(2.0, 8.0), t_min=64.0,
                                t_max=80.0, l_max=15.0,
                                gamma=rng.uniform(0.0, 0.08))
        out_min = rng.uniform(0.0, 40.0)
        out_max = out_min + rng.uniform(0.0, 25.0)
        if out_max > params.t_max:
            continue
        if params.eta * params.e_max + out_min < params.t_min:
            continue
        swing = (1 - eps) * (out_max + params.eta * params.e_max - out_min)
        if swing >= params.t_max - params.t_min:
            continue
        p_b_min = rng.uniform(1.0, 5.0)
        p_s_max = p_b_min + rng.uniform(0.5, 12.0)
        t_opt = [rng.uniform(66.0, 78.0) for _ in range(4)]
        bounds = _follower_bounds(params, None, out_min, out_max, t_opt,
                                  p_s_max, p_b_min)
        frac = rng.uniform(0.05, 1.0)
        scaled = _follower_bounds(params, frac * bounds.v_max, out_min,
                                  out_max, t_opt, p_s_max, p_b_min)
        assert scaled.gamma_min <= scaled.gamma_max + 1e-9


def test_validate_control_names_violated_bound():
    # The policy checks each override against the certified windows.
    scenario = Scenario.from_series(
        n=1, slots=2, rp=[[1.0], [1.0]], d=[[1.0], [1.0]],
        t_out=[[20.0], [55.0]], t_opt=[[70.0], [70.0]], m_s=[14.0, 14.0],
        m_b=[3.0, 3.0], g_t=[0.0, 0.0])
    pme = default_pme_params()
    bounds = default_policy(scenario, [PARAMS], pme).follower_bounds[0]
    assert bounds == _follower_bounds(
        PARAMS, None, t_out_min=20.0, t_out_max=55.0, t_opt=[70.0, 70.0],
        p_s_max=14.0, p_b_min=3.0)
    v_i, low, high = bounds.v_max * 2.0, bounds.gamma_min - 1.0, bounds.gamma_max + 1.0
    with pytest.raises(ConfigurationError) as exc:
        default_policy(scenario, [PARAMS], pme, v_i=[v_i])
    assert str(exc.value) == (f"nanogrid 0: v_i={v_i} exceeds the maximum "
                              f"stabilizing weight v_max={bounds.v_max}")
    with pytest.raises(ConfigurationError) as exc:
        default_policy(scenario, [PARAMS], pme, gamma_shift=[low])
    assert str(exc.value) == (f"nanogrid 0: gamma_shift={low} below the "
                              f"certified shift floor {bounds.gamma_min}")
    with pytest.raises(ConfigurationError) as exc:
        default_policy(scenario, [PARAMS], pme, gamma_shift=[high])
    assert str(exc.value) == (f"nanogrid 0: gamma_shift={high} above the "
                              f"certified shift ceiling {bounds.gamma_max}")


def _rule_bits(field):
    """A rule field in bits: floats by ``float.hex``, tuples field by field."""
    if isinstance(field, tuple):
        return tuple(map(_rule_bits, field))
    return field if isinstance(field, bool) else float.hex(field)


def test_rules_from_the_run_record_are_bit_exact_with_the_reference():
    # follower_rule reads each building's constants from the run's
    # follower_models; every field must equal the rule restated from the
    # params and control, bit for bit: gamma = 0 and > 0, h < 0, h = 0 and
    # h > 0, the default box, single-point boxes and case 3's comfort boxes.
    rng = random.Random(131)
    kinds = collections.Counter()
    for _ in range(4000):
        params, control, t, h, slot, _ = random_follower_instance(rng)
        h = rng.choice((-abs(h), 0.0, abs(h), -rng.uniform(0.0, 1e-6)))
        box_kind = rng.choice(("default", "point", "comfort"))
        if box_kind == "point":
            e = rng.choice((0.0, params.e_max, rng.uniform(0.0, params.e_max)))
            box = (e, e)
        elif box_kind == "comfort":
            params = replace(params, t_min=t - rng.uniform(0.0, 2.0),
                             t_max=t + rng.uniform(0.0, 2.0))
            try:
                box = _comfort_box(t, slot, params)
            except ScenarioError:
                box_kind, box = "refused", None
        else:
            box = None
        kinds[box_kind, params.gamma == 0.0, (h > 0.0) - (h < 0.0)] += 1
        model, = follower_models([params], [control])
        rule = follower_rule(h, t, slot, model, box)
        assert type(rule) is FollowerRule
        assert _rule_bits(tuple(rule)) == _rule_bits(
            reference_rule(h, t, slot, params, control, box))
    # Every box kind meets both gamma regimes and every sign of h.
    for box_kind in ("default", "point", "comfort"):
        for zero_gamma in (False, True):
            for sign in (-1, 0, 1):
                assert kinds[box_kind, zero_gamma, sign] >= 40


@pytest.mark.parametrize("shape", ["box", "ps-line", "pb-line"])
def test_per_box_corners_certify_as_per_call_corners(shape):
    # The responder computes a box's corner terms once (box_corners) and
    # certifies every follower against them; each answer must be the one
    # the certificate gives with the terms computed per call.
    rng = random.Random({"box": 139, "ps-line": 149, "pb-line": 151}[shape])
    rules = []
    for _ in range(60):
        params, control, t, h, slot, _ = random_follower_instance(rng)
        box = rng.choice((None, interchange_box(slot, params)))
        rules.append(follower_rule(h, t, slot,
                                   *follower_models([params], [control]), box))
    pinned = declined = 0
    for _ in range(400):
        m_b = rng.uniform(-6.0, 6.0)
        m_s = m_b + rng.uniform(0.01, 10.0)
        ps_lo, ps_hi = sorted(rng.uniform(m_b, m_s) for _ in range(2))
        pb_lo, pb_hi = sorted(rng.uniform(m_b, m_s) for _ in range(2))
        if shape == "ps-line":
            ps_hi = ps_lo
        elif shape == "pb-line":
            pb_hi = pb_lo
        corners = box_corners(ps_lo, ps_hi, pb_lo, pb_hi)
        for rule in rules:
            got = pinned_draw(rule, corners)
            want = reference_pinned_draw(rule, ps_lo, ps_hi, pb_lo, pb_hi)
            if want is None:
                assert got is None
                declined += 1
            else:
                assert float.hex(got) == float.hex(want)
                pinned += 1
    # Observed 22,662-23,533 pinned and 467-1,338 declined.
    assert pinned >= 10000 and declined >= 200
