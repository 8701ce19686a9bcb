"""Acceptance gate: every criterion at its stated tolerance.

 1. Comfort certificate: 20 seeded scenarios, zero band violations.
 2. Battery certificate: same runs, zero window violations.
 3. Follower best response vs 1e5-point brute force, 1e3 instances.
 4. Exact charge step (the one every solve runs) vs 1e5-point brute force,
    1e3 instances on both settlement branches and across the kink.
 5. Subgradients vs central finite differences at 100 differentiable points.
 6. Per-slot convergence on the reference scenario within 200 iterations.
 7. Equilibrium verification: re-solve and unilateral-deviation checks.
 8. Economic ordering of the five comparison cases.
 9. Sweep monotonicities (discomfort/TATD vs gamma, HVAC vs t_max).
10. Identity suite: queues, trade-cost split, surrogate/profit relation,
    internal-transfer cancellation.
11. Byte-identical artifacts across repeated CLI invocations.

Each criterion prints one PASS line (run with -s or -v to see them).
"""

import collections
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from nanodr.baselines import CaseId, run_case
from nanodr.cli import main as cli_main
from nanodr.domain import (
    FollowerAction,
    LeaderAction,
    PmeControl,
    SlotState,
    _trade_sums,
    bilinear_trade_cost,
    pme_profit,
)
from nanodr.nanogrid import follower_models, follower_rule, respond
from nanodr.pme import _close_pro_prime, subgradients
from nanodr.policy import default_policy
from nanodr.scenario_io import (
    SyntheticSpec,
    default_pme_params,
    generate_synthetic,
)
from nanodr.simulator import run
from nanodr.stackelberg import GameConfig, QueueResponder, _argmin_charge, _project

from oracles import (
    brute_force_charge,
    follower_objective_grid,
    interchange_box,
    interior_follower_instance,
    leader_surrogate,
    random_follower_instance,
)

PME = default_pme_params()


def _answers(folks, p_s, p_b):
    """Each follower's action at the prices from the package's rule, built
    and evaluated as a solve does; ``folks`` holds (params, control, t, h,
    slot) per follower."""
    rules = [follower_rule(h, t, slot, *follower_models([params], [ctl]))
             for params, ctl, t, h, slot in folks]
    es, _ = respond(rules, p_s, p_b)
    return [FollowerAction(e=e, tp=f[4].d + e - f[4].rp) for e, f in zip(es, folks)]


@pytest.fixture(scope="module")
def desk():
    spec = SyntheticSpec()
    scenario, params = generate_synthetic(spec)
    bundle = default_policy(scenario, params, PME)
    config = GameConfig()
    report = run(scenario, params, bundle.ng_controls, PME,
                 bundle.pme_control, config)
    return spec, scenario, params, bundle, config, report


@pytest.fixture(scope="module")
def certificate_runs():
    """Criteria 1-2: twenty seeded scenarios under the standard policy."""
    reports = []
    started = time.perf_counter()
    for seed in range(20):
        spec = SyntheticSpec(seed=seed)
        scenario, params = generate_synthetic(spec)
        bundle = default_policy(scenario, params, PME)
        report = run(scenario, params, bundle.ng_controls, PME,
                     bundle.pme_control, GameConfig())
        reports.append((params, report))
    elapsed = time.perf_counter() - started
    return reports, elapsed


def test_01_comfort_certificate(certificate_runs):
    reports, elapsed = certificate_runs
    for params, report in reports:
        assert report.comfort_violations == 0
        for o in report.outcomes:
            for i, t in enumerate(o.next_state.t):
                assert params[i].t_min <= t <= params[i].t_max
    assert elapsed < 60.0, f"certificate runs took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: comfort band held on 20 scenarios x 72 slots "
          f"({elapsed:.1f}s total)")


def test_02_battery_certificate(certificate_runs):
    reports, elapsed = certificate_runs
    for _, report in reports:
        assert report.battery_violations == 0
        for o in report.outcomes:
            assert PME.e_min <= o.next_state.e_batt <= PME.e_max_cap
    print("ACCEPTANCE 2 PASS: battery window held on the same 20 scenarios")


def test_03_follower_oracle_equivalence():
    rng = random.Random(101)
    threshold_hits = 0
    for _ in range(1000):
        params, control, t, h, slot, leader = random_follower_instance(rng)
        # The instance's l_max may bind: the rule gets the interchange box.
        lo, hi = interchange_box(slot, params)
        model, = follower_models([params], [control])
        (e,), _ = respond([follower_rule(h, t, slot, model, (lo, hi))],
                          leader.p_s, leader.p_b)
        mine = float(follower_objective_grid(e, h, t, slot, leader, params,
                                             control))
        grid = np.linspace(lo, hi, 100_000)
        values = follower_objective_grid(grid, h, t, slot, leader, params,
                                         control)
        idx = int(np.argmin(values))
        best_val = float(values[idx])
        assert mine <= best_val + 1e-8 * (1.0 + abs(best_val))
        if params.gamma > 0.0:
            rule = follower_rule(h, t, slot, *follower_models([params], [control]))
            spacing = (hi - lo) / (len(grid) - 1)
            if control.v_i * leader.p_b > rule.zero_level:
                expected = min(max(0.0, lo), hi)
                assert abs(float(grid[idx]) - expected) <= spacing + 1e-12
                assert e == expected
                threshold_hits += 1
            elif control.v_i * leader.p_s < rule.rated_level:
                expected = min(max(params.e_max, lo), hi)
                assert abs(float(grid[idx]) - expected) <= spacing + 1e-12
                assert e == expected
                threshold_hits += 1
    print(f"ACCEPTANCE 3 PASS: 1000 best responses <= brute force + 1e-8 "
          f"({threshold_hits} threshold-case hits agreed)")


def test_04_leader_oracle_equivalence():
    # The charge step of the loop's polish and of comparison case 2: the
    # exact minimizer over y of the surrogate with the interchanges fixed.
    # The settlement kink y = g_t - sum(tps) sits below the charge box (the
    # m_s branch throughout), above it (m_b) or inside it.
    rng = random.Random(103)
    seen = collections.Counter()
    for k in range(1000):
        b = rng.uniform(-25.0, 5.0)
        m_b = rng.uniform(1.0, 8.0)
        m_s = m_b + rng.uniform(0.5, 8.0)
        v_p = rng.uniform(0.2, 2.0)
        c_b = rng.choice([0.0, rng.uniform(0.001, 0.2)])
        y_lo, y_hi = -rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        tps = [rng.uniform(-6.0, 6.0) for _ in range(rng.randrange(0, 5))]
        branch = ("m_s", "m_b", "kink")[k % 3]
        kink = {"m_s": y_lo - rng.uniform(0.01, 2.0),
                "m_b": y_hi + rng.uniform(0.01, 2.0),
                "kink": rng.uniform(y_lo, y_hi)}[branch]
        g_t = kink + sum(tps)
        y = _argmin_charge(tps, b, g_t, m_s, m_b, v_p, c_b, y_lo, y_hi)
        assert y_lo <= y <= y_hi
        # Brute force over the box (and the kink itself) from the
        # surrogate's definition; the trade revenue is a constant in y.
        grid = np.append(np.linspace(y_lo, y_hi, 100_000), min(max(kink, y_lo), y_hi))
        surrogate = lambda ys: leader_surrogate(m_s, m_b, ys, tps, b, g_t, m_s,
                                                m_b, v_p, c_b)
        assert surrogate(y) <= float(np.min(surrogate(grid))) + 1e-10
        if branch != "kink":
            # One branch throughout: the closed charge objective's brute force.
            m = m_s if branch == "m_s" else m_b
            _, best_val = brute_force_charge(b, m, v_p, c_b, -y_lo, y_hi,
                                             points=100_000)
            assert (b + v_p * m) * y + 0.5 * v_p * c_b * y * y <= best_val + 1e-10
        seen[branch, c_b > 0.0] += 1
        seen["on the kink"] += branch == "kink" and abs(y - kink) <= 1e-12
    assert min(seen[br, curved] for br in ("m_s", "m_b", "kink")
               for curved in (False, True)) >= 100
    assert seen["on the kink"] >= 40
    print(f"ACCEPTANCE 4 PASS: 1000 exact charges (_argmin_charge) <= brute "
          f"force + 1e-10 on both branches and across the kink "
          f"({seen['on the kink']} at the kink)")


def test_05_subgradient_finite_difference():
    rng = random.Random(107)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 3000:
        attempts += 1
        n_buy = rng.randrange(1, 3)
        n_sell = rng.randrange(1, 3)
        folks = [interior_follower_instance(rng, buyer=True) for _ in range(n_buy)]
        folks += [interior_follower_instance(rng, buyer=False) for _ in range(n_sell)]
        p_s = rng.uniform(7.0, 11.0)
        p_b = rng.uniform(4.0, p_s - 2.0)
        folks = [(f[0], f[1], f[2], f[3], f[4]) for f in folks]
        # Rebuild each follower so its interior vertex sits at these prices.
        rebuilt = []
        for j, (params, ctl, t, h, slot) in enumerate(folks):
            buyer = j < n_buy
            price = p_s if buyer else p_b
            one = 1.0 - params.epsilon
            hbar = 1.0 / (2.0 * params.gamma * one * one * params.eta ** 2)
            target = rng.uniform(1.5, 3.5)
            t_opt = ((target + price * hbar
                      + params.epsilon * h / (2.0 * ctl.v_i * params.gamma
                                              * one * params.eta))
                     * one * params.eta + params.epsilon * t + one * slot.t_out)
            d, rp = (4.0, 1.0) if buyer else (1.0, 4.0 + target + 1.0)
            slot = replace(slot, d=d, rp=rp, t_opt=t_opt)
            rebuilt.append((params, ctl, t, h, slot, hbar))
        v_p = rng.uniform(0.5, 1.5)
        control = PmeControl(v_p=v_p, theta=-18.0)
        b = rng.uniform(-20.0, -5.0)
        y = rng.uniform(-0.8, 0.8)
        m_s, m_b = 14.0, 3.0

        def answer(ps, pb):
            return _answers([f[:5] for f in rebuilt], ps, pb)

        acts = answer(p_s, p_b)
        tps = [a.tp for a in acts]
        # Differentiability filters: strict interior draws, clean residual.
        if not all(0.3 < a.e < 4.7 for a in acts):
            continue
        g_t = sum(tps) + y - rng.choice([-6.0, 6.0])
        residual = sum(tps) - g_t + y
        if abs(residual) < 1.0:
            continue
        step = 1e-5
        probe = answer(p_s + step, p_b) + answer(p_s - step, p_b) \
            + answer(p_s, p_b + step) + answer(p_s, p_b - step)
        if not all(0.0 < a.e < 5.0 for a in probe):
            continue

        slopes = [hbar for *_rest, hbar in rebuilt]

        def pro(ps, pb, yy):
            a = answer(ps, pb)
            return leader_surrogate(ps, pb, yy, [x.tp for x in a], b, g_t,
                                    m_s, m_b, v_p, PME.c_b)

        g_ps, g_pb, g_y = subgradients(p_s, p_b, y, tps, b, g_t, m_s, m_b,
                                       control, PME, slopes,
                                       free=range(len(tps)))
        fd_ps = (pro(p_s + step, p_b, y) - pro(p_s - step, p_b, y)) / (2 * step)
        fd_pb = (pro(p_s, p_b + step, y) - pro(p_s, p_b - step, y)) / (2 * step)
        fd_y = (pro(p_s, p_b, y + step) - pro(p_s, p_b, y - step)) / (2 * step)
        assert abs(g_ps - fd_ps) <= 1e-4 * (1.0 + abs(fd_ps))
        assert abs(g_pb - fd_pb) <= 1e-4 * (1.0 + abs(fd_pb))
        assert abs(g_y - fd_y) <= 1e-4 * (1.0 + abs(fd_y))
        checked += 1
    assert checked == 100, f"only {checked} differentiable points reached"
    print("ACCEPTANCE 5 PASS: subgradients match central differences at "
          "100 differentiable points (rel 1e-4)")


def test_06_convergence_budget(desk):
    _, _, _, _, config, report = desk
    assert config.rho == 1e-3
    iters = report.iterations
    assert all(o.converged for o in report.outcomes)
    assert max(iters) <= 200, f"worst slot used {max(iters)} iterations"
    median = report.median_iterations
    assert median < 100.0
    print(f"ACCEPTANCE 6 PASS: every slot converged at rho=1e-3 "
          f"(max {max(iters)}, median {median:.0f} iterations)")


def test_07_equilibrium_verification(desk):
    spec, scenario, params, bundle, config, report = desk
    controls = bundle.ng_controls
    pmec = bundle.pme_control
    t = [0.5 * (p.t_min + p.t_max) for p in params]
    e_batt = 0.5 * (PME.e_min + PME.e_max_cap)
    state = SlotState(t=tuple(t),
                      h=tuple(x + c.gamma_shift for x, c in zip(t, controls)),
                      e_batt=e_batt, b=e_batt + pmec.theta)
    worst_resolve = 0.0
    worst_gain = 0.0
    for outcome in report.outcomes:
        slot = scenario.slot(outcome.slot)
        act = outcome.leader
        redo = _answers(list(zip(params, controls, state.t, state.h,
                                 slot.followers)), act.p_s, act.p_b)
        for f, again in zip(outcome.followers, redo):
            worst_resolve = max(worst_resolve, abs(again.e - f.e))
        responder = QueueResponder(state, slot, follower_models(params, controls))

        def pro(ps, pb, yy):
            es = responder.respond(ps, pb)[0]
            tps = [fs.d + e - fs.rp for fs, e in zip(slot.followers, es)]
            return leader_surrogate(ps, pb, yy, tps, state.b, slot.g_t, slot.m_s,
                                    slot.m_b, pmec.v_p, PME.c_b)

        base = pro(act.p_s, act.p_b, act.y)
        tol = 1e-6 * (1.0 + abs(base))
        for dps, dpb, dy in ((config.rho, 0, 0), (-config.rho, 0, 0),
                             (0, config.rho, 0), (0, -config.rho, 0),
                             (0, 0, config.rho), (0, 0, -config.rho)):
            pert = _project(act.p_s + dps, act.p_b + dpb, act.y + dy,
                            slot.m_s, slot.m_b,
                            max(slot.m_s - config.min_gap, slot.m_b),
                            -PME.u_dmax, PME.u_cmax, config.min_gap)
            gain = base - pro(*pert)
            worst_gain = max(worst_gain, gain / (1.0 + abs(base)))
            assert gain <= tol
        state = outcome.next_state
    assert worst_resolve <= 1e-6
    print(f"ACCEPTANCE 7 PASS: re-solve deviation {worst_resolve:.2e}, worst "
          f"unilateral gain {worst_gain:.2e} (rel)")


def test_08_economic_ordering(desk):
    spec, scenario, params, bundle, config, _ = desk
    agg = {}
    disc = {}
    for case in CaseId:
        report = run_case(case, scenario, params, bundle.ng_controls, PME,
                          bundle.pme_control, config)
        agg[case] = report.aggregate_cost
        disc[case] = report.discomfort_total
    assert agg[CaseId.SOCIAL_WELFARE] <= agg[CaseId.PROPOSED]
    assert agg[CaseId.PROPOSED] < agg[CaseId.MYOPIC_GAME]
    assert agg[CaseId.MYOPIC_GAME] < agg[CaseId.FIXED_POINT_REAL_TIME_PRICE]
    assert agg[CaseId.FIXED_POINT_REAL_TIME_PRICE] <= agg[CaseId.FIXED_POINT_FORECAST_PRICE]
    assert disc[CaseId.PROPOSED] < 0.5 * disc[CaseId.MYOPIC_GAME]
    ordered = " <= ".join(f"{agg[c]:.1f}" for c in (
        CaseId.SOCIAL_WELFARE, CaseId.PROPOSED, CaseId.MYOPIC_GAME,
        CaseId.FIXED_POINT_REAL_TIME_PRICE, CaseId.FIXED_POINT_FORECAST_PRICE))
    print(f"ACCEPTANCE 8 PASS: aggregates ordered {ordered}; discomfort "
          f"{disc[CaseId.PROPOSED]:.2f} < half of {disc[CaseId.MYOPIC_GAME]:.2f}")


def test_09_sweep_monotonicities(desk):
    spec, scenario, params, _, config, _ = desk
    discs, tatds = [], []
    for gamma in (0.001, 0.005, 0.01, 0.02, 0.05):
        swept = [replace(p, gamma=gamma) for p in params]
        bundle = default_policy(scenario, swept, PME)
        report = run(scenario, swept, bundle.ng_controls, PME,
                     bundle.pme_control, config)
        discs.append(report.discomfort_total)
        tatds.append(report.tatd)
    for a, b in zip(discs, discs[1:]):
        assert b >= a - 1e-6
    for a, b in zip(tatds, tatds[1:]):
        assert b <= a + 1e-6
    hvac = []
    for t_max in (77.0, 78.0, 79.0, 80.0):
        swept = [replace(p, t_max=t_max) for p in params]
        bundle = default_policy(scenario, swept, PME)
        report = run(scenario, swept, bundle.ng_controls, PME,
                     bundle.pme_control, config)
        hvac.append(report.total_hvac)
    for a, b in zip(hvac, hvac[1:]):
        assert b >= a - 1e-9
    print(f"ACCEPTANCE 9 PASS: gamma sweep discomfort {discs[0]:.1f}->"
          f"{discs[-1]:.1f} nondecreasing, TATD {tatds[0]:.3f}->{tatds[-1]:.3f} "
          f"nonincreasing; t_max sweep HVAC {hvac[0]:.0f}->{hvac[-1]:.0f} "
          f"nondecreasing")


def test_10_identity_suite(desk):
    spec, scenario, params, bundle, config, report = desk
    controls = bundle.ng_controls
    pmec = bundle.pme_control
    # Queue identities along the full run: stored shifted state, and the
    # recursive update recomputed independently, every slot.
    t = [0.5 * (p.t_min + p.t_max) for p in params]
    e_batt = 0.5 * (PME.e_min + PME.e_max_cap)
    h = [x + c.gamma_shift for x, c in zip(t, controls)]
    b = e_batt + pmec.theta
    for outcome in report.outcomes:
        slot = scenario.slot(outcome.slot)
        nxt = outcome.next_state
        for i, (p, c) in enumerate(zip(params, controls)):
            assert nxt.h[i] == nxt.t[i] + c.gamma_shift
            recursive = (p.epsilon * h[i] + (1.0 - p.epsilon)
                         * (c.gamma_shift + slot.followers[i].t_out
                            + p.eta * outcome.followers[i].e))
            assert abs(recursive - nxt.h[i]) <= 1e-12
        assert nxt.b == nxt.e_batt + pmec.theta
        recursive_b = b + outcome.leader.y
        assert abs(recursive_b - nxt.b) <= 1e-12
        t, h, e_batt, b = list(nxt.t), list(nxt.h), nxt.e_batt, nxt.b

    rng = random.Random(109)
    for _ in range(10_000):
        tp = rng.uniform(-50.0, 50.0)
        p_b = rng.uniform(0.0, 20.0)
        p_s = p_b + rng.uniform(0.0, 20.0)
        direct = bilinear_trade_cost(tp, p_s, p_b)
        split = 0.5 * (p_s - p_b) * abs(tp) + 0.5 * (p_s + p_b) * tp
        assert abs(direct - split) <= 1e-12 * max(1.0, abs(direct))

    for _ in range(1000):
        m_b = rng.uniform(1.0, 6.0)
        m_s = m_b + rng.uniform(0.5, 10.0)
        p_b = rng.uniform(m_b, m_s - 0.02)
        p_s = rng.uniform(p_b + 0.01, m_s)
        y = rng.uniform(-1.0, 1.0)
        tps = [rng.uniform(-6.0, 6.0) for _ in range(3)]
        bq = rng.uniform(-20.0, 0.0)
        g_t = rng.uniform(-15.0, 25.0)
        action = LeaderAction(p_s=p_s, p_b=p_b, y=y)
        surrogate = _close_pro_prime(*_trade_sums(p_s, p_b, tps), y, bq, g_t,
                                     m_s, m_b, pmec.v_p, PME.c_b)
        profit = pme_profit(action, tps, g_t, m_s, m_b, PME.c_b)
        assert abs(surrogate - (bq * y - pmec.v_p * profit)) \
            <= 1e-9 * max(1.0, abs(surrogate))

    # Internal-transfer cancellation over the realized desk run.
    t = [0.5 * (p.t_min + p.t_max) for p in params]
    for outcome in report.outcomes:
        slot = scenario.slot(outcome.slot)
        trade = sum(bilinear_trade_cost(f.tp, outcome.leader.p_s,
                                        outcome.leader.p_b)
                    for f in outcome.followers)
        disc = sum(p.gamma * (t_next - fs.t_opt) ** 2 for p, t_next, fs
                   in zip(params, outcome.next_state.t, slot.followers))
        social = (0.5 * PME.c_b * outcome.leader.y ** 2
                  + (slot.m_s * outcome.grid_residual
                     if outcome.grid_residual >= 0
                     else slot.m_b * outcome.grid_residual)
                  + disc)
        aggregate = disc + trade - outcome.pme_profit
        assert abs(aggregate - social) <= 1e-9 * max(1.0, abs(social))
        t = list(outcome.next_state.t)
    print("ACCEPTANCE 10 PASS: queue, trade-split, surrogate/profit and "
          "transfer-cancellation identities hold at stated tolerances")


def test_11_determinism(tmp_path):
    pairs = [
        (["run", "--slots", "24", "--out"], ("summary.txt", "summary.json",
                                             "series.csv")),
        (["compare", "--slots", "12", "--followers", "2", "--cases", "1,3,4,5",
          "--out"], ("comparison.csv",)),
        (["sweep", "--slots", "12", "--followers", "2", "--param", "gamma",
          "--values", "0.005,0.02", "--out"], ("sweep.csv",)),
    ]
    for argv, artifacts in pairs:
        d1 = tmp_path / (argv[0] + "_a")
        d2 = tmp_path / (argv[0] + "_b")
        assert cli_main(argv + [str(d1)]) == 0
        assert cli_main(argv + [str(d2)]) == 0
        for name in artifacts:
            b1 = (d1 / name).read_bytes()
            b2 = (d2 / name).read_bytes()
            assert b1 == b2, f"{argv[0]}/{name} differs between runs"
    s1 = tmp_path / "scen_a.csv"
    s2 = tmp_path / "scen_b.csv"
    assert cli_main(["gen-scenario", "--slots", "12", "--out", str(s1)]) == 0
    assert cli_main(["gen-scenario", "--slots", "12", "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    print("ACCEPTANCE 11 PASS: repeated invocations produce byte-identical "
          "artifacts")
