"""Default operating policy: controls derived from the scenario envelope.

The standard policy runs every controller at its most aggressive certified
tuning: the trade-off weights at their maxima and the queue shifts at the
floor of their certified windows, all computed from the scenario's price and
temperature envelopes before the run starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .domain import NanogridControl, NanogridParams, PmeControl, PmeParams, Scenario
from .domain import ConfigurationError, check_assumptions
from .nanogrid import FollowerBounds, compute_follower_bounds
from .pme import LeaderBounds, compute_leader_bounds


@dataclass(frozen=True)
class PolicyBundle:
    """Controls plus the certified windows they were validated against."""

    ng_controls: tuple[NanogridControl, ...]
    pme_control: PmeControl
    follower_bounds: tuple[FollowerBounds, ...]
    leader_bounds: LeaderBounds


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
    ng_controls: list[NanogridControl] = []
    fbounds: list[FollowerBounds] = []
    for i, params in enumerate(ng_params):
        want_v = None if v_i is None else v_i[i]
        bounds = compute_follower_bounds(
            params, want_v,
            t_out_min=scenario.t_out_min(i),
            t_out_max=scenario.t_out_max(i),
            t_opt=tuple(row[i] for row in scenario.t_opt),
            p_s_max=scenario.m_s_max(),
            p_b_min=scenario.m_b_min(),
        )
        ng_controls.append(_control(
            NanogridControl, f"nanogrid {i}", ("v_i", "v_max", "gamma_shift"),
            want_v, None if gamma_shift is None else gamma_shift[i],
            bounds.v_max, bounds.gamma_min, bounds.gamma_max))
        fbounds.append(bounds)

    lbounds = compute_leader_bounds(pme_params, v_p, scenario.m_s_max(),
                                    scenario.m_b_min())
    pme_control = _control(PmeControl, "aggregator", ("v_p", "v_p_max", "theta"),
                           v_p, theta, lbounds.v_p_max, lbounds.theta_min,
                           lbounds.theta_max)
    return PolicyBundle(
        ng_controls=tuple(ng_controls),
        pme_control=pme_control,
        follower_bounds=tuple(fbounds),
        leader_bounds=lbounds,
    )
