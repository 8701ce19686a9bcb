"""Default operating policy: controls derived from the scenario envelope.

The standard policy runs every controller at its most aggressive certified
tuning: the trade-off weights at their maxima and the queue shifts at the
floor of their certified windows, all computed from the scenario's price and
temperature envelopes before the run starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .domain import NanogridControl, NanogridParams, PmeControl, PmeParams, Scenario
from .domain import check_assumptions
from .nanogrid import FollowerBounds, compute_follower_bounds
from .nanogrid import validate_control as validate_follower_control
from .pme import LeaderBounds, compute_leader_bounds
from .pme import validate_control as validate_leader_control


@dataclass(frozen=True)
class PolicyBundle:
    """Controls plus the certified windows they were validated against."""

    ng_controls: tuple[NanogridControl, ...]
    pme_control: PmeControl
    follower_bounds: tuple[FollowerBounds, ...]
    leader_bounds: LeaderBounds


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
        use_v = bounds.v_max if want_v is None else want_v
        use_shift = bounds.gamma_min if gamma_shift is None else gamma_shift[i]
        control = NanogridControl(v_i=use_v, gamma_shift=use_shift)
        validate_follower_control(control, bounds, label=f"nanogrid {i}")
        ng_controls.append(control)
        fbounds.append(bounds)

    lbounds = compute_leader_bounds(pme_params, v_p, scenario.m_s_max(),
                                    scenario.m_b_min())
    use_vp = lbounds.v_p_max if v_p is None else v_p
    use_theta = lbounds.theta_min if theta is None else theta
    pme_control = PmeControl(v_p=use_vp, theta=use_theta)
    validate_leader_control(pme_control, lbounds)
    return PolicyBundle(
        ng_controls=tuple(ng_controls),
        pme_control=pme_control,
        follower_bounds=tuple(fbounds),
        leader_bounds=lbounds,
    )
