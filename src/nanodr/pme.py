"""Leader side: the relaxed per-slot pricing and battery-charging problem.

The aggregator minimizes its drift-plus-penalty surrogate: the battery-queue
pressure ``B*y`` minus ``v_p`` times the slot profit.  The surrogate is the
trade sums of ``domain._trade_sums`` (the same ones the profit uses) closed
by ``_close_pro_prime``, its only part that depends on the charge ``y``.
The prices are driven by subgradients that account for how interior-regime
followers shift their draw when prices move; the exact charge step is
``stackelberg._argmin_charge``.  The certified tuning windows live in
``policy``.
"""

from __future__ import annotations

from typing import Sequence

from .domain import PmeControl, PmeParams, battery_cost, bilinear_trade_cost


def _close_pro_prime(revenue: float, total: float, y: float, b: float,
                     g_t: float, m_s: float, m_b: float, v_p: float,
                     c_b: float) -> float:
    """The surrogate from its trade sums: the only part that depends on y."""
    settle = bilinear_trade_cost(total - g_t + y, m_s, m_b)
    return b * y - v_p * revenue + v_p * (settle + battery_cost(y, c_b))


def interchange_sums(tps: Sequence[float]) -> tuple[float, float, float]:
    """(total, buying total, selling total) of the interchanges, summed in
    follower order."""
    total = 0.0
    buy_sum = 0.0
    sell_sum = 0.0
    for tp in tps:
        total += tp
        if tp >= 0.0:
            buy_sum += tp
        else:
            sell_sum += tp
    return total, buy_sum, sell_sum


def subgradients(p_s: float, p_b: float, y: float, tps: Sequence[float],
                 b: float, g_t: float, m_s: float, m_b: float,
                 control: PmeControl, params: PmeParams,
                 hbars: Sequence[float], *, free: Sequence[int],
                 sums: tuple[float, float, float] | None = None
                 ) -> tuple[float, float, float]:
    """Subgradients (g_ps, g_pb, g_y) of the leader surrogate at the iterate
    (p_s, p_b, y).

    ``hbars`` holds each ``free`` follower's price sensitivity at this
    iterate, in ``free`` order, as ``nanogrid.respond`` gives it: the finite
    hbar constant while the response sits strictly inside a
    price-responsive branch, zero while it is pinned (then the price terms'
    derivative carries no response correction).  The marginal grid price is
    m_s when the net residual is positive and m_b otherwise (the
    exact-balance point is assigned to the m_b branch).

    Only a free follower with a nonzero sensitivity adds a term; the
    others, pinned on the responder's price box included (sensitivity 0.0
    at every price in it), add none.  ``sums`` is
    ``interchange_sums(tps)`` when the caller already has it.
    """
    v_p = control.v_p
    total, buy_sum, sell_sum = interchange_sums(tps) if sums is None else sums
    residual = total - g_t + y
    m = m_s if residual > 0.0 else m_b

    g_ps = -v_p * buy_sum
    g_pb = -v_p * sell_sum
    if free:  # most iterations have none, and an empty zip still costs a call
        for i, hbar in zip(free, hbars):
            if not hbar:
                continue
            if tps[i] >= 0.0:
                g_ps += v_p * (p_s - m) * hbar
            else:
                g_pb += v_p * (p_b - m) * hbar
    g_y = b + params.c_b * v_p * y + v_p * m
    return g_ps, g_pb, g_y
