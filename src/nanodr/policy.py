"""Certified controls: the tuning windows and the default operating policy.

Every room stays in its comfort band and the battery in its capacity window
for any weight and queue shift inside the certified windows, which this
module derives from the scenario's envelopes and checks each control
against.  The default policy runs each weight at its maximum and each shift
at its window's floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .domain import NanogridControl, NanogridParams, PmeControl, PmeParams, Scenario
from .domain import ConfigurationError, check_assumptions


@dataclass(frozen=True, slots=True)
class FollowerBounds:
    """Certified tuning windows and diagnostics for one nanogrid.

    gamma_min/gamma_max: admissible queue-shift interval (°F).
    v_max: largest trade-off weight keeping the comfort certificate valid.
    opt_span: spread of the comfort-target series (°F).
    swing: worst-case one-slot temperature movement (°F).
    drift_bound: one-slot queue drift bound at the tightest shift (°F²),
        diagnostic only.
    """

    gamma_min: float
    gamma_max: float
    v_max: float
    opt_span: float
    swing: float
    drift_bound: float


@dataclass(frozen=True, slots=True)
class LeaderBounds:
    """Certified tuning windows and diagnostics for the aggregator.

    theta_min/theta_max: admissible battery-queue shift interval (kWh).
    v_p_max: largest profit weight keeping the battery certificate valid.
    c_min/c_max: extreme marginal battery-use costs over one slot (cent/kWh).
    drift_bound: one-slot battery-queue drift bound (kWh²), diagnostic only.
    """

    theta_min: float
    theta_max: float
    v_p_max: float
    c_min: float
    c_max: float
    drift_bound: float


@dataclass(frozen=True)
class PolicyBundle:
    """Controls plus the certified windows they were validated against."""

    ng_controls: tuple[NanogridControl, ...]
    pme_control: PmeControl
    follower_bounds: tuple[FollowerBounds, ...]
    leader_bounds: LeaderBounds


def _follower_bounds(params: NanogridParams, v_i: float | None,
                     t_out_min: float, t_out_max: float,
                     t_opt: Sequence[float],
                     p_s_max: float, p_b_min: float) -> FollowerBounds:
    """Certified (gamma_shift, v_i) windows from the scenario envelope.

    ``v_i=None`` evaluates the shift window at the maximum stabilizing weight
    (the default operating policy).  The windows guarantee the comfort band is
    never left, provided the envelope meets assumptions (a)-(c) and the
    interchange limit leaves the draw box at [0, e_max] in every slot, which
    ``domain.check_assumptions`` has checked.

    The shift floor guards the ceiling: rated-power draw can fire whenever the
    selling price is at the band floor, so the floor pairs the minimum buying
    price with the smallest rated-power threshold over the scenario.  The
    shift ceiling symmetrically pairs the maximum selling price with the
    largest zero-draw threshold.  Raises ConfigurationError when the window
    is empty despite v_i <= v_max.
    """
    eps = params.epsilon
    one = 1.0 - eps
    eta = params.eta
    gam = params.gamma
    band = params.t_max - params.t_min
    swing = one * (t_out_max + eta * params.e_max - t_out_min)
    opt_hi = max(t_opt)
    opt_lo = min(t_opt)
    opt_span = opt_hi - opt_lo

    denom = (p_s_max - p_b_min
             + 2.0 * gam * one * eta * (swing + eps * band + opt_span))
    v_max = math.inf if denom <= 0.0 else one * eta * (band - swing) / denom
    if v_i is None:
        v_i = v_max

    coef = 2.0 * v_i * gam * one * eta
    # Smallest rated-power threshold over the scenario: cold outdoors, indoor
    # at the band floor, the highest comfort target.
    beta_lo = (coef * (one * t_out_min + eps * params.t_min - opt_hi)
               + 2.0 * v_i * gam * one * one * eta * eta * params.e_max)
    # Largest zero-draw threshold: hot outdoors, indoor at the band ceiling,
    # the lowest comfort target.
    alpha_hi = coef * (one * t_out_max + eps * params.t_max - opt_lo)

    scale = -eps * one * eta
    gamma_min = ((v_i * p_b_min + beta_lo) / scale
                 - (params.t_max - one * (t_out_max + eta * params.e_max)) / eps)
    gamma_max = ((v_i * p_s_max + alpha_hi) / scale
                 - (params.t_min - one * t_out_min) / eps)
    if gamma_min > gamma_max + 1e-9 and v_i <= v_max * (1.0 + 1e-12):
        raise ConfigurationError(
            f"certified shift window is empty ([{gamma_min}, {gamma_max}]) "
            f"although v_i={v_i} <= v_max={v_max}; envelope inconsistent"
        )

    low = gamma_min + t_out_min
    high = gamma_min + t_out_max + eta * params.e_max
    drift_bound = 0.5 * one * one * max(low * low, high * high)
    return FollowerBounds(gamma_min, gamma_max, v_max, opt_span, swing, drift_bound)


def _leader_bounds(params: PmeParams, v_p: float | None,
                   m_s_max: float, m_b_min: float) -> LeaderBounds:
    """Certified (theta, v_p) windows from the scenario's price envelope,
    under which the battery energy stays inside [e_min, e_max_cap].

    ``v_p=None`` evaluates the shift window at the maximum stabilizing weight.
    """
    c_min = min(params.c_b * params.u_cmax, -params.c_b * params.u_dmax)
    c_max = max(params.c_b * params.u_cmax, -params.c_b * params.u_dmax)
    gap = params.e_max_cap - params.e_min - (params.u_cmax + params.u_dmax)
    denom = m_s_max - m_b_min + c_max - c_min
    v_p_max = math.inf if denom <= 0.0 else gap / denom
    if v_p is None:
        v_p = v_p_max
    theta_min = params.u_cmax - params.e_max_cap - v_p * m_b_min - v_p * c_min
    theta_max = -params.u_dmax - params.e_min - v_p * m_s_max - v_p * c_max
    u_c, u_d = params.u_cmax, params.u_dmax
    drift_bound = 0.5 * max(u_c * u_c, u_d * u_d)
    return LeaderBounds(theta_min, theta_max, v_p_max, c_min, c_max, drift_bound)


def _control(make: Callable[[float, float], Any], label: str,
             names: tuple[str, str, str], weight: float | None,
             shift: float | None, weight_max: float, floor: float,
             ceil: float) -> Any:
    """``make(weight, shift)``, an omitted one at its default (the certified
    maximum, the floor), checked against the certified windows; an error
    names the bound.  ``names`` are the weight's, its maximum's and the
    shift's.  The maximum is infinite only when its denominator is 0: a flat
    price envelope with gamma = 0 (nanogrid) or c_b = 0 (aggregator)."""
    weight_name, max_name, shift_name = names
    if weight is None:
        if math.isinf(weight_max):
            raise ConfigurationError(
                f"{label}: the price envelope is flat (every m_s and m_b "
                f"equal), so the maximum stabilizing weight {max_name} is "
                f"unbounded; set --{weight_name.replace('_', '-')}"
            )
        weight = weight_max
    shift = floor if shift is None else shift
    control = make(weight, shift)
    tol = 1e-9
    if weight > weight_max * (1.0 + 1e-12) + tol:
        raise ConfigurationError(
            f"{label}: {weight_name}={weight} exceeds the maximum stabilizing "
            f"weight {max_name}={weight_max}"
        )
    if shift < floor - tol:
        raise ConfigurationError(
            f"{label}: {shift_name}={shift} below the certified shift floor {floor}"
        )
    if shift > ceil + tol:
        raise ConfigurationError(
            f"{label}: {shift_name}={shift} above the certified shift ceiling {ceil}"
        )
    return control


def default_policy(scenario: Scenario, ng_params: Sequence[NanogridParams],
                   pme_params: PmeParams,
                   v_i: Sequence[float] | None = None,
                   gamma_shift: Sequence[float] | None = None,
                   v_p: float | None = None,
                   theta: float | None = None) -> PolicyBundle:
    """Assemble validated controls; every omitted knob takes its default.

    Defaults: v at the certified maximum, shift at the certified floor.
    The scenario is first checked against the certificates' assumptions.
    Explicit overrides are validated against the certified windows and
    rejected with the violated bound named.
    """
    check_assumptions(scenario, ng_params)
    p_s_max, p_b_min = max(scenario.m_s), min(scenario.m_b)
    ng_controls: list[NanogridControl] = []
    fbounds: list[FollowerBounds] = []
    for i, params in enumerate(ng_params):
        want_v = None if v_i is None else v_i[i]
        t_out = [row[i] for row in scenario.t_out]
        bounds = _follower_bounds(params, want_v, min(t_out), max(t_out),
                                  tuple(row[i] for row in scenario.t_opt),
                                  p_s_max, p_b_min)
        ng_controls.append(_control(
            NanogridControl, f"nanogrid {i}", ("v_i", "v_max", "gamma_shift"),
            want_v, None if gamma_shift is None else gamma_shift[i],
            bounds.v_max, bounds.gamma_min, bounds.gamma_max))
        fbounds.append(bounds)

    lbounds = _leader_bounds(pme_params, v_p, p_s_max, p_b_min)
    pme_control = _control(PmeControl, "aggregator", ("v_p", "v_p_max", "theta"),
                           v_p, theta, lbounds.v_p_max, lbounds.theta_min,
                           lbounds.theta_max)
    return PolicyBundle(
        ng_controls=tuple(ng_controls),
        pme_control=pme_control,
        follower_bounds=tuple(fbounds),
        leader_bounds=lbounds,
    )
