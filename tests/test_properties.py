"""Properties of every comparison case over small random synthetic runs.

Each example draws a seed, a size, the zero-weight extremes and an
interchange limit (the smallest one ``run`` accepts, the default, or none),
runs all five cases under the default policy's certified controls and
checks the bounds, finiteness and determinism the certificates promise.
"""

import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from nanodr.baselines import CaseId, run_case
from nanodr.policy import default_policy
from nanodr.scenario_io import (
    SyntheticSpec,
    default_pme_params,
    generate_synthetic,
    synthetic_params,
)

from oracles import tightest_l_max


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(1, 2 ** 16), n=st.integers(1, 6),
       slots=st.integers(1, 24), gamma=st.sampled_from([0.0, 0.01]),
       c_b=st.sampled_from([0.0, 0.01]),
       limit=st.sampled_from(["tightest", "default", "inf"]))
def test_every_case_keeps_its_bounds(seed, n, slots, gamma, c_b, limit):
    spec = SyntheticSpec(n=n, slots=slots, seed=seed)
    scenario = generate_synthetic(spec)
    params = synthetic_params(spec)
    if limit == "tightest":
        l_max = max(tightest_l_max(scenario.rp[k][i], scenario.d[k][i], p.e_max)
                    for k in range(slots) for i, p in enumerate(params))
    else:
        l_max = params[0].l_max if limit == "default" else math.inf
    params = [replace(p, gamma=gamma, l_max=l_max) for p in params]
    pme = replace(default_pme_params(), c_b=c_b)
    bundle = default_policy(scenario, params, pme)
    controls = (bundle.ng_controls, pme, bundle.pme_control)

    for case in CaseId:
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
        if case is CaseId.PROPOSED:
            assert run_case(case, scenario, params, *controls) == report
