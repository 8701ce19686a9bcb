"""Follower side: the relaxed per-slot HVAC consumption problem.

Given the aggregator's posted prices, each nanogrid picks its HVAC draw
``e`` to minimize a convex piecewise-quadratic objective: the queue-drift
pressure of its shifted temperature state plus its weighted economic cost
(trade cost at the posted prices plus quadratic discomfort).  The trade
cost has one kink where the net interchange ``tp = d + e - rp`` changes
sign, so the exact minimizer is one of four closed-form candidates: the
box edges, the kink, and the branch vertex the price thresholds pick.
The price-free part of this rule is built once per slot
(``follower_rule``), from building constants built once per run
(``follower_models``), and evaluated at each price broadcast
(``respond``); ``pinned_draw`` certifies the followers whose draw no price
in a given box moves (the slot's grid band, or a smaller box around the
leader's iterate, or a run of points on a line the polish scans), against
the box's corner terms (``box_corners``), computed once per box.  The
certified tuning windows live in ``policy``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .domain import FollowerSlot, NanogridControl, NanogridParams


class FollowerModel(NamedTuple):
    """One nanogrid's price-free building constants, built once per run
    (``follower_models``) and read by every ``follower_rule`` of the run.

    Each product is the left-most prefix of the expression it stands for in
    ``follower_rule``'s formulas (see ``FollowerRule``), so a rule built
    from it rounds as if it computed the product in place.  With one = 1 -
    epsilon: eps_one = eps*one, neg_eps_one = -eps*one, le_mis =
    2*v*gamma*one, alpha_mis = 2*v*gamma*one*eta, beta_span =
    2*v*gamma*one*one*eta*eta*e_max, delta_mis = -2*gamma*one*eta and
    delta_dr = 2*gamma*one*one*eta*eta; base_lo and base_hi are
    vg*(q*q), q = oe*e, at the default box's ends e = 0.0 and e_max.
    """

    v: float
    eps: float
    one: float
    eta: float
    oe: float
    vg: float
    eps_one: float
    neg_eps_one: float
    le_mis: float
    alpha_mis: float
    beta_span: float
    hbar: float
    delta_mis: float
    delta_dr: float
    has_vertex: bool
    e_max: float
    base_lo: float
    base_hi: float


def follower_models(params: Sequence[NanogridParams],
                    controls: Sequence[NanogridControl]
                    ) -> tuple[FollowerModel, ...]:
    """Each nanogrid's ``FollowerModel``, in order.  The run holds the
    tuple; nothing else keeps it."""
    models = []
    for p, c in zip(params, controls):
        eps, eta, gam, e_max, v = p.epsilon, p.eta, p.gamma, p.e_max, c.v_i
        one = 1.0 - eps
        oe = one * eta
        vg = v * gam
        q_lo, q_hi = oe * 0.0, oe * e_max
        models.append(FollowerModel(
            v, eps, one, eta, oe, vg, eps * one, -eps * one,
            2.0 * v * gam * one, 2.0 * v * gam * one * eta,
            2.0 * v * gam * one * one * eta * eta * e_max,
            math.inf if gam == 0.0 else 1.0 / (2.0 * gam * one * one * eta * eta),
            -2.0 * gam * one * eta, 2.0 * gam * one * one * eta * eta,
            gam != 0.0, e_max, vg * (q_lo * q_lo), vg * (q_hi * q_hi)))
    return tuple(models)


class FollowerRule(NamedTuple):
    """The price-free part of one nanogrid's decision rule in one slot.

    The objective at draw ``e`` is ``(vg*(q*q) + le*e) + v*trade`` with
    ``q = oe*e``, ``trade = 0.5*(p_s-p_b)*|tp| + 0.5*(p_s+p_b)*tp`` and
    ``tp = dr + e``.
    The fixed candidates (box edges, clamped kink) are held as (draw,
    price-free value, tp, |tp|).  With ``has_vertex`` (gamma > 0) a branch
    vertex vartheta - price*hbar may compete as a fourth (``respond``).

    zero_level and rated_level are the drift pressure -eps*(1-eps)*h*eta
    minus alpha, the price-equivalent marginal cost of the first unit of
    draw, and minus beta = alpha + 2*v*gamma*(1-eps)^2*eta^2*e_max, the same
    at rated power (cent).  delta separates the buy/sell/balance price
    regimes (cent/kWh), vartheta is the unpriced ideal draw (kWh) and
    hbar = 1/(2*gamma*(1-eps)^2*eta^2) the draw's price sensitivity (kWh per
    cent/kWh).  With gamma == 0 the discomfort term vanishes: alpha and beta
    are zero, hbar is infinite and delta keeps its finite limit.

    Built by ``follower_rule`` with ``tuple.__new__``: a named tuple's own
    constructor is a Python function, and every slot builds n rules.
    """

    v: float
    at_lo: tuple[float, float, float, float]
    at_kink: tuple[float, float, float, float]
    at_hi: tuple[float, float, float, float]
    has_vertex: bool
    zero_level: float
    rated_level: float
    delta: float
    vartheta: float
    hbar: float
    vg: float
    oe: float
    le: float
    dr: float


def follower_rule(h: float, t: float, slot: FollowerSlot, model: FollowerModel,
                  box: tuple[float, float] | None = None) -> FollowerRule:
    """Build the decision rule at the current state and slot data.

    ``model`` holds the nanogrid's per-run building constants
    (``follower_models``); the rule is built with ``tuple.__new__``.  The
    draw box is [0, e_max], which ``domain.check_assumptions`` proves the
    interchange limit leaves whole; ``box`` replaces it (callers may
    tighten it with extra per-slot constraints).  The contract for every
    box: it lies inside [0, e_max] or is a single point, so neither 0.0 nor
    e_max is ever strictly inside it.  ``respond`` and ``pinned_draw`` rely
    on this.
    """
    (v, eps, one, eta, oe, vg, eps_one, neg_eps_one, le_mis, alpha_mis,
     beta_span, hbar, delta_mis, delta_dr, has_vertex, e_max, base_lo,
     base_hi) = model
    t_out, d, rp = slot.t_out, slot.d, slot.rp
    mismatch = one * t_out + eps * t - slot.t_opt  # °F above target, pre-draw
    le = (eps_one * h + le_mis * mismatch) * eta
    dr = d - rp
    if box is None:
        lo, hi = 0.0, e_max
    else:
        lo, hi = box
        q_lo, q_hi = oe * lo, oe * hi
        base_lo, base_hi = vg * (q_lo * q_lo), vg * (q_hi * q_hi)
    # The fixed candidates, written out: a comprehension is a nested call.
    kink = rp - d
    kink = lo if kink < lo else hi if kink > hi else kink
    at_lo = (lo, base_lo + le * lo, dr + lo, abs(dr + lo))
    q = oe * kink
    at_kink = (kink, vg * (q * q) + le * kink, dr + kink, abs(dr + kink))
    at_hi = (hi, base_hi + le * hi, dr + hi, abs(dr + hi))
    pressure = neg_eps_one * h * eta
    if has_vertex:
        alpha = alpha_mis * mismatch
        beta = alpha + beta_span
        vartheta = -mismatch / oe - eps * h / alpha_mis
        delta = (delta_mis * mismatch
                 - eps_one * h * eta / v
                 - delta_dr * (rp - d))
    else:
        alpha = beta = 0.0
        vartheta = -mismatch / oe if h == 0.0 else -math.copysign(math.inf, h)
        delta = pressure / v
    return tuple.__new__(FollowerRule, (
        v, at_lo, at_kink, at_hi, has_vertex, pressure - alpha, pressure - beta,
        delta, vartheta, hbar, vg, oe, le, dr))


def respond(rules: Sequence[FollowerRule], p_s: float,
            p_b: float) -> tuple[list[float], list[float]]:
    """Exact draws, and their local price sensitivities, at the posted prices.

    The argmin is among the rule's candidates.  The lowest value wins; ties
    go to the smaller draw, then to the smaller sensitivity.  The price
    thresholds add one, the branch vertex vartheta - p*hbar at p = p_s when
    delta > p_s or at p = p_b when delta < p_b, unless a rate gate fires
    (v*p_b > zero_level: idle; v*p_s < rated_level: rated power).  Idle,
    rated power and the kink (p_b <= delta <= p_s) never change the answer:
    by the box contract (``follower_rule``) 0.0 and e_max are never strictly
    inside the box, and the kink is the fixed kink candidate, bit for bit.
    A vertex outside the open box would clamp onto an edge and only repeat
    its draw, so only an interior one is evaluated.  The sensitivity is
    hbar when it wins (the draw moves by -hbar per unit of that price),
    else zero: the draw is pinned at an edge, a rate limit or the kink.
    """
    half_gap = 0.5 * (p_s - p_b)
    half_sum = 0.5 * (p_s + p_b)
    es: list[float] = []
    slopes: list[float] = []
    for (v, (lo, base_lo, tp_lo, abs_lo), (kink, base_kink, tp_kink, abs_kink),
         (hi, base_hi, tp_hi, abs_hi), has_vertex, zero_level, rated_level,
         delta, vartheta, hbar, vg, oe, le, dr) in rules:
        # Fixed candidates in ascending draw order; strict < keeps the first.
        e, best = lo, base_lo + v * (half_gap * abs_lo + half_sum * tp_lo)
        val = base_kink + v * (half_gap * abs_kink + half_sum * tp_kink)
        if val < best:
            e, best = kink, val
        val = base_hi + v * (half_gap * abs_hi + half_sum * tp_hi)
        if val < best:
            e, best = hi, val
        slope = 0.0
        if (has_vertex and (delta > p_s or delta < p_b)
                and not (v * p_b > zero_level or v * p_s < rated_level)):
            cand = vartheta - (p_s if delta > p_s else p_b) * hbar
            if lo < cand < hi:
                tp = dr + cand
                q = oe * cand
                val = (vg * (q * q) + le * cand
                       + v * (half_gap * abs(tp) + half_sum * tp))
                # An equal draw is the kink's, whose zero sensitivity wins.
                if val < best or (val == best and cand < e):
                    e, slope = cand, hbar
        es.append(e)
        slopes.append(slope)
    return es, slopes


def box_corners(ps_lo: float, ps_hi: float, pb_lo: float, pb_hi: float
                ) -> tuple[float, ...]:
    """The price box [ps_lo, ps_hi] × [pb_lo, pb_hi] as ``pinned_draw``
    reads it: its four bounds, the half gap and half sum ½(p_s - p_b),
    ½(p_s + p_b) at (ps_lo, pb_lo) and at (ps_hi, pb_hi), and reach, its
    largest |price|.  Computed once per box, for all its followers."""
    return (ps_lo, ps_hi, pb_lo, pb_hi,
            0.5 * (ps_lo - pb_lo), 0.5 * (ps_lo + pb_lo),
            0.5 * (ps_hi - pb_hi), 0.5 * (ps_hi + pb_hi),
            max(-ps_lo, ps_hi, -pb_lo, pb_hi))


def pinned_draw(rule: FollowerRule, corners: tuple[float, ...]) -> float | None:
    """The draw ``respond`` gives at every price pair (p_s, p_b) in the box
    [ps_lo, ps_hi] × [pb_lo, pb_hi], or None.  ``corners`` is the box's
    ``box_corners``.

    The slot's grid band is the box [m_b, m_s]²; the loop certifies smaller
    boxes around its iterate, and the polish the hulls of runs of scan
    points on the lines it scans: a line box (one side of zero width) is a
    box too.  A returned draw comes with sensitivity 0.0 at every such
    price.  None only means this certificate does not apply.  The proof
    follows ``respond``'s rounded comparisons:

    * Branch vertex.  ``respond`` weighs it only strictly inside (lo, hi),
      so it never competes when the open box is empty or when gamma = 0
      (no vertex).  Otherwise hbar > 0, so the rounded product p*hbar is
      nondecreasing in p, and the rounded vertex vartheta - p*hbar is
      nonincreasing.  The vertex at p_s (reachable when delta > ps_lo) and
      at p_b (when delta < pb_hi) must be >= hi at the high end of its
      price range or <= lo at the low end, so it stays outside the open box
      over the whole range.  ``respond``'s rate gates only ever skip the
      vertex, so leaving them out here can pin fewer followers, never a
      wrong one.
    * Fixed candidates (lo, kink, hi).  With (hg, hs) = (½(p_s-p_b),
      ½(p_s+p_b)) a value ``base + v*(hg*|tp| + hs*tp)`` is
      ``base + v*(p_s*tp⁺ + p_b*min(tp, 0))``, so the exact gap between a
      rival c and the winner w is
      Δbase + v*(p_s*(tp_c⁺ - tp_w⁺) + p_b*(min(tp_c, 0) - min(tp_w, 0))).
      Each tp is dr + e rounded, and rounding is monotone, so a larger draw
      never has the smaller tp: when c's draw is larger than w's, both
      coefficients are >= 0 and the exact gap over the box is smallest at
      (ps_lo, pb_lo); when it is smaller, at (ps_hi, pb_hi).  Let w be the
      first argmin at (ps_lo, pb_lo), as ``respond`` picks it (strict <).
      Every candidate with another draw must exceed w at its deciding corner
      by more than the margin 1e-9*(|base_w| + |base_c| + v*reach*(|tp_w| +
      |tp_c|)), where reach, the largest |price| in the box, bounds
      |hg| + |hs| = max(|p_s|, |p_b|) there.  Each rounded evaluation of a
      value, here or in ``respond`` at any price in the box, is off the
      exact one by a few units of 2**-53 of its |base| + v*reach*|tp|, far
      below the margin.  So the exact gap is positive at the deciding
      corner, hence over the whole box, and ``respond``'s rounded value of
      such a candidate stays strictly above w's: it never wins.  A
      candidate with w's draw has w's tuple (draw, value, tp, |tp|) bit for
      bit, so it ties with w at every price and sits after w in the
      candidate order; the draw returned is w's.
    """
    (v, at_lo, at_kink, at_hi, has_vertex, _, _, delta, vartheta, hbar,
     _, _, _, _) = rule
    ps_lo, ps_hi, pb_lo, pb_hi, g_lo, s_lo, g_hi, s_hi, reach = corners
    lo, hi = at_lo[0], at_hi[0]
    if has_vertex and lo < hi:
        if delta > ps_lo and not (vartheta - ps_hi * hbar >= hi
                                  or vartheta - ps_lo * hbar <= lo):
            return None
        if delta < pb_hi and not (vartheta - pb_hi * hbar >= hi
                                  or vartheta - pb_lo * hbar <= lo):
            return None
    # w: the first argmin at (ps_lo, pb_lo), as respond evaluates a fixed
    # candidate; strict < keeps the earlier one.
    w_e, w_base, w_tp, w_abs = at_lo
    w_lo = w_base + v * (g_lo * w_abs + s_lo * w_tp)
    for c in (at_kink, at_hi):
        val = c[1] + v * (g_lo * c[3] + s_lo * c[2])
        if val < w_lo:
            (w_e, w_base, w_tp, w_abs), w_lo = c, val
    w_hi = w_base + v * (g_hi * w_abs + s_hi * w_tp)
    for c_e, c_base, c_tp, c_abs in (at_lo, at_kink, at_hi):
        if c_e == w_e:
            continue
        gap = (c_base + v * (g_lo * c_abs + s_lo * c_tp) - w_lo if c_e > w_e
               else c_base + v * (g_hi * c_abs + s_hi * c_tp) - w_hi)
        if not gap > 1e-9 * (abs(w_base) + abs(c_base)
                             + v * reach * (w_abs + c_abs)):
            return None
    return w_e
