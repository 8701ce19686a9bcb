"""Independent oracles and random-instance builders shared by the tests.

The brute-force evaluators re-implement the objectives directly from their
closed definitions (vectorized), deliberately sharing no code with the
package's solvers.  ``shadowed_scans`` checks the polish's line scans
against ``reference_scan`` in place, while a solve runs.
"""

import contextlib
import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np

from nanodr import stackelberg
from nanodr.domain import FollowerSlot, LeaderAction, NanogridControl, NanogridParams


def random_follower_instance(rng: random.Random):
    """One random follower decision problem with in-band prices."""
    eps = rng.uniform(0.9, 0.985)
    eta = rng.uniform(8.0, 20.0)
    e_max = rng.uniform(2.0, 8.0)
    gamma = rng.choice([0.0, rng.uniform(0.002, 0.08)])
    params = NanogridParams(epsilon=eps, eta=eta, e_max=e_max, t_min=60.0,
                            t_max=85.0, l_max=rng.uniform(6.0, 20.0),
                            gamma=gamma)
    control = NanogridControl(v_i=rng.uniform(0.05, 2.0),
                              gamma_shift=rng.uniform(-90.0, -40.0))
    t = rng.uniform(62.0, 83.0)
    h = t + control.gamma_shift
    slot = FollowerSlot(rp=rng.uniform(0.0, 5.0), d=rng.uniform(0.0, 5.0),
                        t_out=rng.uniform(10.0, 60.0),
                        t_opt=rng.uniform(66.0, 78.0))
    m_b = rng.uniform(1.0, 6.0)
    m_s = m_b + rng.uniform(0.5, 10.0)
    p_b = rng.uniform(m_b, m_s - 0.01)
    p_s = rng.uniform(p_b + 0.01, m_s)
    leader = LeaderAction(p_s=p_s, p_b=p_b, y=0.0)
    return params, control, t, h, slot, leader


def interchange_box(slot, params):
    """HVAC draw interval allowed by the rated power and the interchange
    limit, each edge rounded as written: [max(-l_max - d + rp, 0),
    min(l_max - d + rp, e_max)].  Empty when the limit cannot absorb the
    renewable surplus even at zero draw."""
    return (max(-params.l_max - slot.d + slot.rp, 0.0),
            min(params.l_max - slot.d + slot.rp, params.e_max))


def tightest_l_max(rp, d, e_max):
    """The smallest l_max whose interchange box is exactly (0.0, e_max),
    found one ulp at a time from max(e_max + d - rp, rp - d)."""
    slot = FollowerSlot(rp=rp, d=d, t_out=0.0, t_opt=0.0)
    params = NanogridParams(epsilon=0.5, eta=1.0, e_max=e_max, t_min=0.0,
                            t_max=1.0, l_max=1.0, gamma=0.0)

    def exact(l_max):
        return interchange_box(slot, replace(params, l_max=l_max)) == (0.0, e_max)

    l_max = max(e_max + d - rp, rp - d)
    while not exact(l_max):
        l_max = math.nextafter(l_max, math.inf)
    while exact(below := math.nextafter(l_max, 0.0)):
        l_max = below
    return l_max


def follower_objective_grid(e, h, t, slot, leader, params, control):
    """Vectorized re-statement of the follower's per-slot cost."""
    eps = params.epsilon
    one = 1.0 - eps
    eta = params.eta
    v = control.v_i
    quad = v * params.gamma * (one * eta * e) ** 2
    lin = (eps * one * h
           + 2.0 * v * params.gamma * one
           * (one * slot.t_out + eps * t - slot.t_opt)) * eta * e
    tp = slot.d - slot.rp + e
    trade = v * (0.5 * (leader.p_s - leader.p_b) * np.abs(tp)
                 + 0.5 * (leader.p_s + leader.p_b) * tp)
    return quad + lin + trade


def brute_force_follower(h, t, slot, leader, params, control, points=100_000):
    """Grid argmin of the follower cost over the interchange box."""
    lo, hi = interchange_box(slot, params)
    grid = np.linspace(lo, hi, points)
    values = follower_objective_grid(grid, h, t, slot, leader, params, control)
    idx = int(np.argmin(values))
    return float(grid[idx]), float(values[idx])


def charge_objective_grid(y, b, m_price, v_p, c_b):
    return (b + v_p * m_price) * y + 0.5 * v_p * c_b * y * y


def brute_force_charge(b, m_price, v_p, c_b, u_dmax, u_cmax, points=100_000):
    grid = np.linspace(-u_dmax, u_cmax, points)
    values = charge_objective_grid(grid, b, m_price, v_p, c_b)
    idx = int(np.argmin(values))
    return float(grid[idx]), float(values[idx])


def leader_surrogate(p_s, p_b, y, tps, b, g_t, m_s, m_b, v_p, c_b):
    """Re-statement of the leader's per-slot surrogate from its definition.

    ``y`` may be an array: a grid of charges is evaluated in one call.
    """
    revenue = sum(p_s * max(tp, 0.0) + p_b * min(tp, 0.0) for tp in tps)
    residual = sum(tps) - g_t + y
    settle = m_s * np.maximum(residual, 0.0) + m_b * np.minimum(residual, 0.0)
    return b * y - v_p * revenue + v_p * (settle + 0.5 * c_b * y * y)


def brute_force_fixed_draws(tps, b, g_t, m_s, m_b, v_p, c_b, y_lo, y_hi,
                            min_gap, points=401):
    """Smallest ``leader_surrogate`` value over a grid, the interchanges
    ``tps`` held fixed: p_s and p_b each on ``points`` points of the band
    [m_b, m_s], in pairs with p_s - p_b >= min_gap (the pair of band edges
    always), and y on 20,001 points of [y_lo, y_hi] plus the settlement kink
    and each branch's vertex inside it.  With the interchanges fixed the
    surrogate is a price term plus a charge term, so the grid's minimum is
    the charge grid's minimum at one price pair plus the price grid's
    minimum at that charge."""
    ys = np.linspace(y_lo, y_hi, 20_001)
    extra = [g_t - math.fsum(tps)]
    if c_b > 0.0:
        extra += [-(b + v_p * m) / (v_p * c_b) for m in (m_s, m_b)]
    ys = np.append(ys, [x for x in extra if y_lo < x < y_hi])
    charge = leader_surrogate(m_s, m_b, ys, tps, b, g_t, m_s, m_b, v_p, c_b)
    y = float(ys[int(np.argmin(charge))])
    grid = np.linspace(m_b, m_s, points)
    p_s, p_b = np.meshgrid(grid, grid, indexing="ij")
    keep = p_s - p_b >= min_gap - 1e-12
    p_s = np.append(p_s[keep], m_s)
    p_b = np.append(p_b[keep], m_b)
    return float(np.min(leader_surrogate(p_s, p_b, y, tps, b, g_t, m_s, m_b,
                                         v_p, c_b)))


def profit_from_definition(p_s, p_b, y, tps, g_t, m_s, m_b, c_b):
    revenue = sum(p_s * max(tp, 0.0) + p_b * min(tp, 0.0) for tp in tps)
    residual = sum(tps) - g_t + y
    settle = m_s * max(residual, 0.0) + m_b * min(residual, 0.0)
    return revenue - 0.5 * c_b * y * y - settle


def report_totals(outcomes, scenario, ng_params):
    """``RunReport``'s five totals, re-accumulated slot by slot with each
    slot's sums written as generator expressions over indices, and the
    comfort targets read from the scenario's columns, not ``Scenario.slot``.

    fsum is correctly rounded, so the horizon loop's totals must equal these
    bit for bit, however it gathers each slot's terms.
    """
    n = scenario.n
    profit_sum = energy_sum = discomfort_sum = tatd_sum = 0.0
    for o in outcomes:
        t, t_opt = o.next_state.t, scenario.t_opt[o.slot]
        profit_sum += o.pme_profit
        energy_sum += math.fsum(
            (o.leader.p_s if f.tp >= 0.0 else o.leader.p_b) * f.tp
            for f in o.followers)
        discomfort_sum += math.fsum(
            p.gamma * (t[i] - t_opt[i]) ** 2 for i, p in enumerate(ng_params))
        tatd_sum += math.fsum(abs(t[i] - t_opt[i]) for i in range(n))
    return {
        "pme_profit_total": profit_sum,
        "energy_cost_total": energy_sum,
        "discomfort_total": discomfort_sum,
        "aggregate_cost": discomfort_sum + energy_sum - profit_sum,
        "tatd": tatd_sum / (n * scenario.slots) if n > 0 else 0.0,
    }


def interior_follower_instance(rng: random.Random, buyer: bool):
    """A follower whose best response is a strictly interior branch vertex.

    Built backwards: pick the wanted draw and prices, then solve for the
    comfort target that places the branch vertex exactly there, keeping a
    safe margin from the box edges and the interchange sign change.
    """
    eps = rng.uniform(0.93, 0.97)
    eta = rng.uniform(10.0, 16.0)
    e_max = 5.0
    gamma = rng.uniform(0.01, 0.05)
    params = NanogridParams(epsilon=eps, eta=eta, e_max=e_max, t_min=60.0,
                            t_max=85.0, l_max=25.0, gamma=gamma)
    control = NanogridControl(v_i=rng.uniform(0.2, 0.8),
                              gamma_shift=rng.uniform(-80.0, -60.0))
    t = rng.uniform(68.0, 76.0)
    h = t + control.gamma_shift
    target_e = rng.uniform(1.5, 3.5)
    m_b = 3.0
    m_s = 14.0
    p_b = rng.uniform(4.0, 7.0)
    p_s = rng.uniform(p_b + 2.0, 12.0)
    price = p_s if buyer else p_b
    one = 1.0 - eps
    t_out = rng.uniform(20.0, 50.0)
    # vartheta = target_e + price*hbar  =>  solve for the comfort target.
    hbar = 1.0 / (2.0 * gamma * one * one * eta * eta)
    vartheta = target_e + price * hbar
    t_opt = (vartheta + eps * h / (2.0 * control.v_i * gamma * one * eta)) \
        * one * eta + eps * t + one * t_out
    # Buyers need tp = d - rp + e > 0 with margin; sellers the opposite.
    if buyer:
        d, rp = 4.0, 1.0
    else:
        d, rp = 1.0, 4.0 + target_e + 1.0
    slot = FollowerSlot(rp=rp, d=d, t_out=t_out, t_opt=t_opt)
    return params, control, t, h, slot, p_s, p_b


def reference_response(h, t, slot, p_s, p_b, params, control, box=None):
    """Four-candidate follower rule, restated in full as a bit-exact reference.

    Returns (draw, price sensitivity) by comparing the objective at the box
    edges, the clamped interchange kink and the clamped branch candidate the
    price thresholds select, in ascending (draw, sensitivity) order with a
    strict comparison.  Every floating-point operation is written out in the
    order the package's rule must reproduce.
    """
    def clip(x, lo, hi):
        return lo if x < lo else hi if x > hi else x

    eps = params.epsilon
    one = 1.0 - eps
    eta = params.eta
    gam = params.gamma
    v = control.v_i
    if box is None:
        lo, hi = interchange_box(slot, params)
        if lo > hi and lo - hi <= 1e-12:
            hi = lo
    else:
        lo, hi = box
    kink = slot.rp - slot.d

    def objective(e):
        quad = v * gam * (one * eta * e) ** 2
        lin = (eps * one * h
               + 2.0 * v * gam * one * (one * slot.t_out + eps * t - slot.t_opt)
               ) * eta * e
        tp = slot.d - slot.rp + e
        trade = v * (0.5 * (p_s - p_b) * abs(tp) + 0.5 * (p_s + p_b) * tp)
        return quad + lin + trade

    if gam == 0.0:
        candidates = [(lo, 0.0), (clip(kink, lo, hi), 0.0), (hi, 0.0)]
    else:
        mismatch = one * slot.t_out + eps * t - slot.t_opt
        alpha = 2.0 * v * gam * one * eta * mismatch
        beta = alpha + 2.0 * v * gam * one * one * eta * eta * params.e_max
        hbar = 1.0 / (2.0 * gam * one * one * eta * eta)
        vartheta = -mismatch / (one * eta) - eps * h / (2.0 * v * gam * one * eta)
        delta = (-2.0 * gam * one * eta * mismatch
                 - eps * one * h * eta / v
                 - 2.0 * gam * one * one * eta * eta * (slot.rp - slot.d))
        pressure = -eps * one * h * eta
        if v * p_b > pressure - alpha:
            free, slope = 0.0, 0.0
        elif v * p_s < pressure - beta:
            free, slope = params.e_max, 0.0
        elif delta > p_s:
            free, slope = vartheta - p_s * hbar, hbar
        elif delta < p_b:
            free, slope = vartheta - p_b * hbar, hbar
        else:
            free, slope = kink, 0.0
        if not lo < free < hi:
            slope = 0.0
        candidates = [(lo, 0.0), (clip(free, lo, hi), slope),
                      (clip(kink, lo, hi), 0.0), (hi, 0.0)]

    best_e, best_slope, best_val = lo, 0.0, float("inf")
    for cand, cand_slope in sorted(candidates):
        val = objective(cand)
        if val < best_val:
            best_e, best_slope, best_val = cand, cand_slope, val
    return best_e, best_slope


def reference_rule(h, t, slot, params, control, box=None):
    """The follower's price-free rule, restated from ``params`` and
    ``control`` with every product computed in place, as a plain tuple in
    ``FollowerRule``'s field order.

    The package builds the rule from per-run building constants; each of
    them must be the left-most prefix of an expression here, so the two
    agree bit for bit.
    """
    lo, hi = (0.0, params.e_max) if box is None else box
    eps = params.epsilon
    one = 1.0 - eps
    eta = params.eta
    gam = params.gamma
    v = control.v_i
    vg = v * gam
    oe = one * eta
    mismatch = one * slot.t_out + eps * t - slot.t_opt
    le = (eps * one * h + 2.0 * v * gam * one * mismatch) * eta
    dr = slot.d - slot.rp
    kink = min(max(slot.rp - slot.d, lo), hi)

    def fixed(e):
        return (e, vg * (oe * e) ** 2 + le * e, dr + e, abs(dr + e))

    if gam == 0.0:
        alpha = beta = 0.0
        vartheta = (-mismatch / (one * eta) if h == 0.0
                    else -math.copysign(math.inf, h))
        delta = -eps * one * h * eta / v
        hbar = math.inf
    else:
        alpha = 2.0 * v * gam * one * eta * mismatch
        beta = alpha + 2.0 * v * gam * one * one * eta * eta * params.e_max
        hbar = 1.0 / (2.0 * gam * one * one * eta * eta)
        vartheta = -mismatch / (one * eta) - eps * h / (2.0 * v * gam * one * eta)
        delta = (-2.0 * gam * one * eta * mismatch
                 - eps * one * h * eta / v
                 - 2.0 * gam * one * one * eta * eta * (slot.rp - slot.d))
    pressure = -eps * one * h * eta
    return (v, fixed(lo), fixed(kink), fixed(hi), gam != 0.0, pressure - alpha,
            pressure - beta, delta, vartheta, hbar, vg, oe, le, dr)


def reference_pinned_draw(rule, ps_lo, ps_hi, pb_lo, pb_hi):
    """``nanogrid.pinned_draw``'s certificate with its corner terms (the
    half gap and half sum at (ps_lo, pb_lo) and (ps_hi, pb_hi), and the
    box's reach) computed per call, restated from its docstring."""
    v, at_lo, at_kink, at_hi, has_vertex = rule[:5]
    delta, vartheta, hbar = rule[7:10]
    lo, hi = at_lo[0], at_hi[0]
    if has_vertex and lo < hi:
        for reachable, p_lo, p_hi in ((delta > ps_lo, ps_lo, ps_hi),
                                      (delta < pb_hi, pb_lo, pb_hi)):
            if reachable and not (vartheta - p_hi * hbar >= hi
                                  or vartheta - p_lo * hbar <= lo):
                return None

    def value(c, g, s):
        return c[1] + v * (g * c[3] + s * c[2])

    g_lo, s_lo = 0.5 * (ps_lo - pb_lo), 0.5 * (ps_lo + pb_lo)
    g_hi, s_hi = 0.5 * (ps_hi - pb_hi), 0.5 * (ps_hi + pb_hi)
    reach = max(-ps_lo, ps_hi, -pb_lo, pb_hi)
    w = at_lo
    for c in (at_kink, at_hi):
        if value(c, g_lo, s_lo) < value(w, g_lo, s_lo):
            w = c
    for c in (at_lo, at_kink, at_hi):
        if c[0] == w[0]:
            continue
        g, s = (g_lo, s_lo) if c[0] > w[0] else (g_hi, s_hi)
        gap = value(c, g, s) - value(w, g, s)
        if not gap > 1e-9 * (abs(w[1]) + abs(c[1]) + v * reach * (w[3] + c[3])):
            return None
    return w[0]


def social_cost(es, y, ts, slot, ng_params, pme_params):
    """Cooperative cost of a joint action, restated from its definitions:
    battery use, grid settlement of the residual and the discomfort of each
    next temperature.  Internal payments between the parties cancel out."""
    es, ts = np.asarray(es, dtype=float), np.asarray(ts, dtype=float)
    eps = np.array([p.epsilon for p in ng_params])
    eta = np.array([p.eta for p in ng_params])
    gamma = np.array([p.gamma for p in ng_params])
    t_out = np.array([fs.t_out for fs in slot.followers])
    t_opt = np.array([fs.t_opt for fs in slot.followers])
    net = np.array([fs.d - fs.rp for fs in slot.followers])
    t_next = eps * ts + (1.0 - eps) * (t_out + eta * es)
    residual = float(np.sum(net + es)) - slot.g_t + y
    settle = slot.m_s * residual if residual >= 0.0 else slot.m_b * residual
    return (0.5 * pme_params.c_b * y * y + settle
            + float(np.sum(gamma * (t_next - t_opt) ** 2)))


def welfare_objective(es, y, state, slot, ng_params, ng_controls, pme_params,
                      pme_control):
    """Cooperative drift-plus-penalty of a joint action: the social cost
    plus every queue's drift term, each divided by its own agent's weight."""
    eps = np.array([p.epsilon for p in ng_params])
    eta = np.array([p.eta for p in ng_params])
    v_i = np.array([c.v_i for c in ng_controls])
    drift = (state.b * y / pme_control.v_p
             + float(np.sum(eps * (1.0 - eps) * np.asarray(state.h, dtype=float)
                            * eta * np.asarray(es, dtype=float) / v_i)))
    return drift + social_cost(es, y, state.t, slot, ng_params, pme_params)


def welfare_dual_bound(state, slot, ng_params, ng_controls, pme_params,
                       pme_control):
    """Weak-duality lower bound on one slot's cooperative objective.

    The objective is restated from its definitions: per draw, the drift
    pressure plus the discomfort of the next temperature, a quadratic
    q*e**2 + l*e + c; the charge's drift and battery cost; and the
    settlement of the residual, max over lam in [m_b, m_s] of lam*residual.
    Swapping min and max gives the concave dual
    g(lam) = lam*base + sum(c) + sum_j min over the box of q*x**2 + (l+lam)*x,
    maximized here by bisection on its supergradient to ~1e-14 in lam.
    Returns (bound, lam).
    """
    q, lin, lo, hi = [], [], [], []
    const = 0.0
    base = -slot.g_t
    for h, t, fs, p, c in zip(state.h, state.t, slot.followers, ng_params,
                              ng_controls):
        one = 1.0 - p.epsilon
        mismatch = p.epsilon * t + one * fs.t_out - fs.t_opt
        q.append(p.gamma * (one * p.eta) ** 2)
        lin.append(p.epsilon * one * h * p.eta / c.v_i
                   + 2.0 * p.gamma * mismatch * one * p.eta)
        const += p.gamma * mismatch ** 2
        box = interchange_box(fs, p)
        lo.append(box[0])
        hi.append(box[1])
        base += fs.d - fs.rp
    q.append(0.5 * pme_params.c_b)
    lin.append(state.b / pme_control.v_p)
    lo.append(-pme_params.u_dmax)
    hi.append(pme_params.u_cmax)
    q, lin, lo, hi = map(np.array, (q, lin, lo, hi))
    curved = q > 0.0
    safe_q = np.where(curved, q, 1.0)

    def inner(lam):
        slope = lin + lam
        x = np.where(curved, np.clip(-slope / (2.0 * safe_q), lo, hi),
                     np.where(slope >= 0.0, lo, hi))
        return x, lam * base + const + float(np.sum(q * x * x + slope * x))

    a, b = slot.m_b, slot.m_s
    while b - a > 1e-14 * max(1.0, abs(a)):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        if base + inner(mid)[0].sum() > 0.0:
            a = mid
        else:
            b = mid
    return max((inner(lam)[1], lam) for lam in (slot.m_b, a, b, slot.m_s))


def reference_loop(state, slot, ng_params, ng_controls, pme_params,
                   pme_control, config, drop_queue=False, boxes=None,
                   y_box=None):
    """The per-slot subgradient loop, restated plainly as a bit-exact
    reference for the solver's loop (its records before the polish).
    ``drop_queue``, ``boxes`` and ``y_box`` set up the myopic game.

    Every iterate is a LeaderAction.  Each follower answers through
    ``reference_response``; the subgradients sum, in order, the terms of
    every follower whose sensitivity is nonzero; the steps are
    scale / (1 + 0.5*m); the projection clamps p_b first, then p_s against
    the new p_b, then y; the loop stops once max(distance) < rho.  Returns (rows, converged, last action), one row
    per iteration in ``traces.csv`` order: p_s, p_b, y, g_ps, g_pb, g_y,
    the three steps, the three distances and the draws.
    """
    m_s, m_b, g_t, gap = slot.m_s, slot.m_b, slot.g_t, config.min_gap
    y_lo, y_hi = (-pme_params.u_dmax, pme_params.u_cmax) if y_box is None else y_box
    v_p, c_b = pme_control.v_p, pme_params.c_b
    # The myopic game zeroes both queue pressures.
    b = 0.0 if drop_queue else state.b

    def clip(x, lo, hi):
        return lo if x < lo else hi if x > hi else x

    def project(ps, pb, y):
        p_b = clip(pb, m_b, max(m_s - gap, m_b))
        p_s = clip(ps, min(p_b + gap, m_s), m_s)
        return LeaderAction(p_s=p_s, p_b=p_b, y=clip(y, y_lo, y_hi))

    n = len(slot.followers)
    hs = (0.0,) * n if drop_queue else state.h
    mid = 0.5 * (m_s + m_b)
    chi = project(mid + 0.5 * gap, mid - 0.5 * gap, 0.0)
    rows = []
    for m in range(1, config.max_iters + 1):
        answers = [reference_response(h, t, fs, chi.p_s, chi.p_b, p, c,
                                      None if boxes is None else boxes[i])
                   for i, (h, t, fs, p, c) in enumerate(
                       zip(hs, state.t, slot.followers, ng_params, ng_controls))]
        es = [e for e, _ in answers]
        tps = [fs.d + e - fs.rp for fs, e in zip(slot.followers, es)]
        total = buy = sell = 0.0
        for tp in tps:
            total += tp
            if tp >= 0.0:
                buy += tp
            else:
                sell += tp
        price = m_s if total - g_t + chi.y > 0.0 else m_b
        g_ps, g_pb = -v_p * buy, -v_p * sell
        for tp, (_, hbar) in zip(tps, answers):
            if hbar == 0.0:
                continue
            if tp >= 0.0:
                g_ps += v_p * (chi.p_s - price) * hbar
            else:
                g_pb += v_p * (chi.p_b - price) * hbar
        g_y = b + c_b * v_p * chi.y + v_p * price
        denom = 1.0 + 0.5 * m
        steps = (1e-3 / denom, 1e-3 / denom, 2e-3 / denom)
        nxt = project(chi.p_s - steps[0] * g_ps, chi.p_b - steps[1] * g_pb,
                      chi.y - steps[2] * g_y)
        distance = (abs(nxt.p_s - chi.p_s), abs(nxt.p_b - chi.p_b),
                    abs(nxt.y - chi.y))
        rows.append((chi.p_s, chi.p_b, chi.y, g_ps, g_pb, g_y, *steps,
                     *distance, *es))
        chi = nxt
        if max(distance) < config.rho:
            return rows, True, chi
    return rows, False, chi


def fixed_draws_rule(tps, b, slot, v_p, c_b, y_box, min_gap):
    """The leader action against interchanges ``tps`` that no price moves,
    as (p_s, p_b, y): p_s = m_s if some interchange is >= 0 and p_b = m_b
    if some is < 0; an untraded price is the loop's projected start, as
    ``reference_loop`` computes it; y is the package's exact charge
    (``stackelberg._argmin_charge``, checked against a grid elsewhere)."""
    m_s, m_b = slot.m_s, slot.m_b
    mid = 0.5 * (m_s + m_b)
    start_b = min(max(mid - 0.5 * min_gap, m_b), max(m_s - min_gap, m_b))
    start_s = min(max(mid + 0.5 * min_gap, min(start_b + min_gap, m_s)), m_s)
    y = stackelberg._argmin_charge(tps, b, slot.g_t, m_s, m_b, v_p, c_b, *y_box)
    return (m_s if any(tp >= 0.0 for tp in tps) else start_s,
            m_b if any(tp < 0.0 for tp in tps) else start_b, y)


def reference_scan(evaluate, points):
    """A piecewise-quadratic 1-D minimization by breakpoint scan, restated
    as the bit-exact reference for ``stackelberg._scan_quadratic_segments``.

    ``evaluate(x)`` gives (value, residual).  Each segment between sorted
    breakpoints is split where the residual changes sign (linear
    interpolation); then the refined breakpoints, each segment's midpoint
    (segments of width >= 1e-11) and its fitted vertex (curvature above
    1e-15, strictly inside) are compared in that order, the first strictly
    smallest value winning.  ``evaluate`` is simply called again wherever a
    point's value or residual is needed.
    """
    pts = sorted(set(points))
    refined = []
    for a, bpt in zip(pts, pts[1:]):
        refined.append(a)
        ra = evaluate(a)[1]
        rb = evaluate(bpt)[1]
        if (ra > 0.0) != (rb > 0.0) and ra != rb:
            cross = a + (bpt - a) * ra / (ra - rb)
            if a < cross < bpt:
                refined.append(cross)
    refined.append(pts[-1])

    best_x = refined[0]
    best_val = evaluate(refined[0])[0]
    for x in refined[1:]:
        val = evaluate(x)[0]
        if val < best_val:
            best_val, best_x = val, x
    for a, bpt in zip(refined, refined[1:]):
        width = bpt - a
        if width < 1e-11:
            continue
        mid = 0.5 * (a + bpt)
        fa, fm, fb = evaluate(a)[0], evaluate(mid)[0], evaluate(bpt)[0]
        if fm < best_val:
            best_val, best_x = fm, mid
        half = 0.5 * width
        curv = (fa - 2.0 * fm + fb) / (2.0 * half * half)
        if curv <= 1e-15:
            continue
        vertex = mid - (fb - fa) / width / (2.0 * curv)
        if a < vertex < bpt:
            val = evaluate(vertex)[0]
            if val < best_val:
                best_val, best_x = val, vertex
    return best_x, best_val


class ScanShadow:
    """Runs each line scan also through ``reference_scan``.

    Called in place of ``stackelberg._scan_quadratic_segments``, it returns
    the wrapped scan's result after asserting that the reference gives the
    same (argmin, value) bits.  It counts the lines (``lines``), those
    passed ``v_p`` (``pruning``), and those where ``v_p`` saved evaluations
    against the same scan without it (``pruned``).
    """

    def __init__(self, scan):
        self.scan = scan
        self.lines = self.pruning = self.pruned = 0

    def __call__(self, evaluate, points, v_p=None):
        asked = set()
        got = self.scan(lambda x: asked.add(x) or evaluate(x), points, v_p)
        want = reference_scan(evaluate, points)
        assert [x.hex() for x in got] == [x.hex() for x in want], (got, want)
        self.lines += 1
        if v_p is not None:
            self.pruning += 1
            unpruned = set()
            self.scan(lambda x: unpruned.add(x) or evaluate(x), points)
            self.pruned += len(asked) < len(unpruned)
        return got


@contextlib.contextmanager
def shadowed_scans():
    """Patch ``stackelberg._scan_quadratic_segments`` with a ``ScanShadow``
    for the block, and yield the shadow."""
    shadow = ScanShadow(stackelberg._scan_quadratic_segments)
    with mock.patch.object(stackelberg, "_scan_quadratic_segments", shadow):
        yield shadow
