"""Properties of every comparison case over small random synthetic runs.

Each example draws a seed, a size, the zero-weight extremes, an
interchange limit (the smallest one ``run`` accepts, the default, or none)
and whether its odd slots' price bands are exactly ``min_gap`` wide,
runs all five cases under the default policy's certified controls and under
drawn certified controls, and checks the bounds, finiteness and determinism
the certificates promise.  Every line the polish scans is checked against
``reference_scan`` on the way, and the proposed case's loop records in the
first, middle and last slots against ``reference_loop`` (with
``polish=False`` where the band pins every follower, whose default action
is checked against ``fixed_draws_rule``).  At n from 20 to
50, where the polish answers its long lines from responders certified on
runs of scan points, the proposed case's polished actions equal those of a
polish that asks the band's responder alone, bit for bit.
"""

import itertools
import math
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st

from nanodr import stackelberg
from nanodr.baselines import CaseId, run_case
from nanodr.domain import SlotState
from nanodr.policy import default_policy
from nanodr.scenario_io import (
    SyntheticSpec,
    default_pme_params,
    generate_synthetic,
)
from nanodr.nanogrid import follower_models
from nanodr.stackelberg import GameConfig, QueueResponder, _step_sizes, solve_slot

from oracles import fixed_draws_rule, reference_loop, shadowed_scans, tightest_l_max


def _drawn_policy(data, scenario, params, pme, bundle):
    """Certified controls other than the defaults: each weight is u*v_max
    with u in {1, U(0.01, 1)}, and each shift sits at the floor or the
    ceiling of its window at that weight, or inside it."""
    scale = st.one_of(st.just(1.0), st.floats(0.01, 1.0))
    where = st.sampled_from(["floor", "ceiling", "inside"])
    inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

    def shift(floor, ceil):
        at = data.draw(where)
        if at == "inside":
            return floor + data.draw(inside) * (ceil - floor)
        return floor if at == "floor" else ceil

    v_i = [data.draw(scale) * b.v_max for b in bundle.follower_bounds]
    v_p = data.draw(scale) * bundle.leader_bounds.v_p_max
    windows = default_policy(scenario, params, pme, v_i=v_i, v_p=v_p)
    gamma_shift = [shift(b.gamma_min, b.gamma_max)
                   for b in windows.follower_bounds]
    theta = shift(windows.leader_bounds.theta_min, windows.leader_bounds.theta_max)
    return default_policy(scenario, params, pme, v_i, gamma_shift, v_p, theta)


def _check_loop_records(report, scenario, params, controls, pme, control):
    """In the proposed case's first, middle and last slots the solve ends
    where the run's did.  Where the band leaves a follower free, the loop
    records equal ``reference_loop``'s rows bit for bit (float.hex tells
    -0.0 from 0.0).  Where it pins every follower, the solve has no records
    and is converged, its action is ``fixed_draws_rule``'s, and the loop
    that ``polish=False`` runs there equals the reference."""
    t0 = tuple(0.5 * (p.t_min + p.t_max) for p in params)
    e0 = 0.5 * (pme.e_min + pme.e_max_cap)
    states = [SlotState(t=t0, h=tuple(t + c.gamma_shift for t, c in zip(t0, controls)),
                        e_batt=e0, b=e0 + control.theta)]
    states += [o.next_state for o in report.outcomes[:-1]]
    for k in sorted({0, scenario.slots // 2, scenario.slots - 1}):
        slot = scenario.slot(k)
        models = follower_models(params, controls)
        sol = solve_slot(states[k], slot, models, pme, control, GameConfig())
        assert sol.leader == report.outcomes[k].leader
        if not QueueResponder(states[k], slot, models).free:
            assert sol.trace.records == () and sol.trace.converged
            want = fixed_draws_rule([f.tp for f in sol.followers], states[k].b,
                                    slot, control.v_p, pme.c_b,
                                    (-pme.u_dmax, pme.u_cmax), GameConfig().min_gap)
            assert list(map(float.hex, want)) == list(map(float.hex, (
                sol.leader.p_s, sol.leader.p_b, sol.leader.y)))
            sol = solve_slot(states[k], slot, models, pme, control,
                             GameConfig(polish=False))
        rows, converged, _ = reference_loop(states[k], slot, params, controls,
                                            pme, control, GameConfig())
        got = [(*rec[:6], *_step_sizes(m), *rec[6:9], *rec[9])
               for m, rec in enumerate(sol.trace.records, start=1)]
        assert [list(map(float.hex, row)) for row in got] == [
            list(map(float.hex, row)) for row in rows]
        assert sol.trace.converged is converged


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(1, 2 ** 16), n=st.integers(1, 6),
       slots=st.integers(1, 24), gamma=st.sampled_from([0.0, 0.01]),
       c_b=st.sampled_from([0.0, 0.01]),
       limit=st.sampled_from(["tightest", "default", "inf"]),
       narrow=st.booleans(), data=st.data())
def test_every_case_keeps_its_bounds(seed, n, slots, gamma, c_b, limit, narrow,
                                     data):
    spec = SyntheticSpec(n=n, slots=slots, seed=seed)
    scenario, params = generate_synthetic(spec)
    if narrow:
        # Every odd slot's band exactly min_gap wide: its one feasible price
        # pair is the band itself.  replace validates the scenario again.
        gap = GameConfig().min_gap
        scenario = replace(scenario, m_s=tuple(
            m_b + gap if k % 2 else m_s
            for k, (m_s, m_b) in enumerate(zip(scenario.m_s, scenario.m_b))))
    if limit == "tightest":
        l_max = max(tightest_l_max(scenario.rp[k][i], scenario.d[k][i], p.e_max)
                    for k in range(slots) for i, p in enumerate(params))
    else:
        l_max = params[0].l_max if limit == "default" else math.inf
    params = [replace(p, gamma=gamma, l_max=l_max) for p in params]
    pme = replace(default_pme_params(), c_b=c_b)
    bundle = default_policy(scenario, params, pme)
    drawn = _drawn_policy(data, scenario, params, pme, bundle)

    with shadowed_scans() as shadow:
        for policy, case in itertools.product((bundle, drawn), CaseId):
            controls = (policy.ng_controls, pme, policy.pme_control)
            report = run_case(case, scenario, params, *controls)
            assert report.comfort_violations == 0
            assert report.battery_violations == 0
            assert all(map(math.isfinite, (
                report.pme_profit_total, report.energy_cost_total,
                report.discomfort_total, report.aggregate_cost, report.tatd)))
            for o in report.outcomes:
                assert math.isfinite(o.pme_profit) and math.isfinite(o.grid_residual)
                for f, p in zip(o.followers, params):
                    assert 0.0 <= f.e <= p.e_max
                    assert abs(f.tp) <= l_max * (1.0 + 1e-12)
            if narrow and case.posts_prices:
                assert [(o.leader.p_s, o.leader.p_b) for o in report.outcomes[1::2]] \
                    == list(zip(scenario.m_s[1::2], scenario.m_b[1::2]))
            if case is CaseId.PROPOSED:
                assert run_case(case, scenario, params, *controls) == report
                _check_loop_records(report, scenario, params, *controls)
    # The polish scanned lines (cases 3 and 4), each checked in the shadow.
    assert shadow.lines > 0


def _hex_actions(report):
    return [(*map(float.hex, (o.leader.p_s, o.leader.p_b, o.leader.y)),
             *(float.hex(x) for f in o.followers for x in (f.e, f.tp)))
            for o in report.outcomes]


@settings(derandomize=True, max_examples=5, deadline=None)
@given(seed=st.integers(1, 2 ** 16), n=st.integers(20, 50),
       slots=st.integers(12, 24))
def test_chunked_polish_matches_the_band_polish(seed, n, slots):
    spec = SyntheticSpec(n=n, slots=slots, seed=seed)
    scenario, params = generate_synthetic(spec)
    pme = default_pme_params()
    bundle = default_policy(scenario, params, pme)
    controls = (bundle.ng_controls, pme, bundle.pme_control)
    with mock.patch.object(stackelberg, "_line_router",
                           wraps=stackelberg._line_router) as router:
        chunked = run_case(CaseId.PROPOSED, scenario, params, *controls)
    # Some line was long enough, with followers free on the band, to be
    # answered from its runs' responders.
    assert any(len(pts) > stackelberg.POLISH_CHUNK and responder.free
               for (responder, _, _, pts), _ in router.call_args_list)
    # Runs longer than any line: every line asks the band's responder.
    with mock.patch.object(stackelberg, "POLISH_CHUNK", 10 ** 9):
        plain = run_case(CaseId.PROPOSED, scenario, params, *controls)
    assert _hex_actions(chunked) == _hex_actions(plain)
    assert chunked == plain
