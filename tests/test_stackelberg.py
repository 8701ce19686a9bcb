"""Per-slot equilibrium iteration: projection, schedule, determinism, quality."""

import bisect
import collections
import math
import operator
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nanodr import baselines, stackelberg
from nanodr.baselines import CaseId, _comfort_box, run_case
from nanodr.domain import (
    ConfigurationError,
    FollowerSlot,
    LeaderAction,
    NanogridControl,
    NanogridParams,
    PmeControl,
    PmeParams,
    SlotData,
    SlotState,
)
from nanodr.nanogrid import follower_models, follower_rule, respond
from nanodr.pme import interchange_sums, subgradients
from nanodr.policy import default_policy
from nanodr.scenario_io import (
    SyntheticSpec,
    default_pme_params,
    generate_synthetic,
    synthetic_params,
)
from nanodr.stackelberg import (
    POLISH_CHUNK,
    STEP_C0,
    STEP_C1,
    STEP_SCALE_S,
    GameConfig,
    QueueResponder,
    _argmin_charge,
    _polish,
    _project,
    _scan_quadratic_segments,
    _solve_with_responder,
    check_band,
    solve_slot,
)

from oracles import (
    brute_force_fixed_draws,
    fixed_draws_rule,
    leader_surrogate,
    reference_loop,
    reference_scan,
    shadowed_scans,
)

PME = PmeParams(e_min=2.0, e_max_cap=16.0, u_cmax=1.0, u_dmax=1.0, c_b=0.01)


def _desk_slot(n=3, m_s=12.0, m_b=3.0, g_t=4.0):
    followers = tuple(
        FollowerSlot(rp=1.0 + 0.3 * i, d=1.5 + 0.2 * i, t_out=25.0 + i,
                     t_opt=70.5)
        for i in range(n)
    )
    return SlotData(m_s=m_s, m_b=m_b, g_t=g_t, followers=followers)


def _desk_setup(n=3):
    params = [
        NanogridParams(epsilon=0.94 + 0.01 * i, eta=15.0, e_max=5.0,
                       t_min=66.0, t_max=77.0, l_max=10.0, gamma=0.01)
        for i in range(n)
    ]
    controls = [NanogridControl(v_i=0.35, gamma_shift=-76.0) for _ in range(n)]
    t = tuple(69.0 + 0.5 * i for i in range(n))
    state = SlotState(t=t, h=tuple(x - 76.0 for x in t), e_batt=9.0,
                      b=9.0 - 18.5)
    return params, controls, state, PmeControl(v_p=1.0, theta=-18.5)


# -- projection -------------------------------------------------------------


def _project_desk(raw_ps, raw_pb, raw_y, m_s=12.0, m_b=3.0, min_gap=0.01):
    # The solver computes the upper end of the p_b interval once per slot.
    return _project(raw_ps, raw_pb, raw_y, m_s, m_b, max(m_s - min_gap, m_b),
                    -PME.u_dmax, PME.u_cmax, min_gap)


def test_projection_identity_inside_box():
    assert _project_desk(8.0, 5.0, 0.5) == (8.0, 5.0, 0.5)


def test_projection_clamps_selling_price():
    p_s, _, _ = _project_desk(15.0, 5.0, 0.0)
    assert p_s == 12.0


def test_projection_restores_order_with_exact_gap():
    p_s, p_b, _ = _project_desk(5.0, 9.0, 0.0)
    assert p_b == 9.0
    assert p_s == pytest.approx(9.01)
    assert p_s - p_b == pytest.approx(0.01)


def test_projection_clamps_charge():
    assert _project_desk(8.0, 5.0, 7.0)[2] == PME.u_cmax
    assert _project_desk(8.0, 5.0, -7.0)[2] == -PME.u_dmax


# The band check is the projection's precondition: the commands run it over
# every slot before solving any, and the solvers once per slot.


def test_projection_rejects_narrow_band():
    with pytest.raises(ConfigurationError,
                       match=r"\[3.0, 3.005\] narrower than min_gap=0.01"):
        check_band(3.005, 3.0, 0.01)
    with pytest.raises(ConfigurationError,
                       match=r"at slot 7 narrower than min_gap"):
        check_band(3.005, 3.0, 0.01, slot=7)
    params, controls, state, pmec = _desk_setup()
    with pytest.raises(ConfigurationError, match="min_gap"):
        solve_slot(state, _desk_slot(m_s=3.005),
                   follower_models(params, controls), PME, pmec, GameConfig())


def test_projection_accepts_band_equal_to_gap():
    # 3.01 - 3.0 is a hair under 0.01 in floats; nominal equality must pass.
    check_band(3.01, 3.0, 0.01)
    p_s, p_b, _ = _project_desk(8.0, 5.0, 0.0, m_s=3.01)
    assert p_b == 3.0
    assert p_s == 3.01
    assert p_s > p_b


# -- step schedule ----------------------------------------------------------


def test_step_schedule_properties():
    steps = [STEP_SCALE_S / (STEP_C0 + STEP_C1 * m) for m in range(1, 200_001)]
    assert all(b < a for a, b in zip(steps, steps[1:]))
    # The running sum keeps growing without bound (harmonic divergence):
    # doubling the horizon adds at least a fixed increment.
    partial_1 = sum(steps[:100_000])
    partial_2 = partial_1 + sum(steps[100_000:])
    assert partial_2 - partial_1 > 0.9 * (STEP_SCALE_S / STEP_C1) * math.log(2) * 0.9
    # The sum of squares converges: the tail is dominated by an integral.
    tail = sum(s * s for s in steps[1000:])
    bound = (STEP_SCALE_S / STEP_C1) ** 2 / 1000.0
    assert tail < bound


def test_game_config_validation():
    with pytest.raises(ConfigurationError):
        GameConfig(rho=0.0)
    with pytest.raises(ConfigurationError):
        GameConfig(max_iters=0)
    with pytest.raises(ConfigurationError):
        GameConfig(min_gap=0.0)


# -- exact charge step ------------------------------------------------------


def test_argmin_charge_beats_a_fine_grid():
    # The exact charge step of the polish and of the welfare solver, checked
    # against the surrogate's definition on a 20,001-point grid of y plus the
    # settlement kink, over both cost regimes and both charge boxes.
    rng = random.Random(7)
    landed = {"edge": 0, "kink": 0, "vertex": 0}
    for trial in range(320):
        tps = [rng.uniform(-4.0, 4.0) for _ in range(rng.randint(0, 6))]
        m_b = rng.uniform(1.0, 6.0)
        m_s = m_b + rng.uniform(0.5, 10.0)
        p_b = rng.uniform(m_b, m_s - 0.01)
        p_s = rng.uniform(p_b + 0.01, m_s)
        v_p = rng.uniform(0.2, 3.0)
        c_b = rng.uniform(0.001, 0.5) if trial % 2 else 0.0
        # Put b near the band of marginal prices, or a branch's vertex
        # -(b + v_p*m)/(v_p*c_b) near the box.
        if c_b > 0.0:
            b = (-v_p * rng.choice([m_s, m_b])
                 - v_p * c_b * rng.uniform(-1.5, 1.5))
        else:
            b = -v_p * rng.uniform(m_b - 1.0, m_s + 1.0)
        if trial % 4 < 2:
            y_lo, y_hi = -PME.u_dmax, PME.u_cmax
        else:
            # As in the myopic case: the battery window narrows the box.
            e_batt = rng.choice([rng.uniform(PME.e_min, PME.e_min + 1.0),
                                 rng.uniform(PME.e_max_cap - 1.0, PME.e_max_cap)])
            y_lo = max(-PME.u_dmax, PME.e_min - e_batt)
            y_hi = min(PME.u_cmax, PME.e_max_cap - e_batt)
        if trial % 8 < 4:
            kink = rng.uniform(y_lo, y_hi)
        else:
            kink = rng.choice([y_lo - rng.uniform(0.01, 3.0),
                               y_hi + rng.uniform(0.01, 3.0)])
        g_t = kink + math.fsum(tps)

        got = _argmin_charge(tps, b, g_t, m_s, m_b, v_p, c_b, y_lo, y_hi)
        assert y_lo <= got <= y_hi
        grid = np.linspace(y_lo, y_hi, 20_001)
        kink = g_t - sum(tps)
        if y_lo < kink < y_hi:
            grid = np.append(grid, kink)
        best = float(np.min(leader_surrogate(p_s, p_b, grid, tps, b, g_t,
                                             m_s, m_b, v_p, c_b)))
        val = float(leader_surrogate(p_s, p_b, got, tps, b, g_t, m_s, m_b,
                                     v_p, c_b))
        assert val <= best + 1e-9 * (1.0 + abs(best)), (trial, got, val, best)
        if got in (y_lo, y_hi):
            landed["edge"] += 1
        elif abs(got - kink) < 1e-12:
            landed["kink"] += 1
        else:
            landed["vertex"] += 1
    # Every kind of minimizer was exercised.
    assert min(landed.values()) >= 20, landed


# -- solve_slot -------------------------------------------------------------


def test_solver_is_deterministic():
    params, controls, state, pmec = _desk_setup()
    slot = _desk_slot()
    cfg = GameConfig()
    a = solve_slot(state, slot, follower_models(params, controls), PME, pmec, cfg)
    b = solve_slot(state, slot, follower_models(params, controls), PME, pmec, cfg)
    assert a.leader == b.leader
    assert a.followers == b.followers
    assert a.trace.records == b.trace.records
    assert a.trace.iterations == b.trace.iterations


def test_no_followers_reaches_closed_form_charge():
    state = SlotState(t=(), h=(), e_batt=9.0, b=-9.5)
    slot = SlotData(m_s=12.0, m_b=3.0, g_t=-5.0, followers=())
    pmec = PmeControl(v_p=1.0, theta=-18.5)
    sol = solve_slot(state, slot, follower_models([], []), PME, pmec, GameConfig())
    # Net residual is y + 5 > 0 for any feasible y: the selling price is
    # marginal and the charge is the clamped vertex of one quadratic.
    vertex = -(state.b + pmec.v_p * slot.m_s) / (pmec.v_p * PME.c_b)
    want = min(max(vertex, -PME.u_dmax), PME.u_cmax)
    assert sol.leader.y == pytest.approx(want, abs=1e-9)


def test_trace_iterates_stay_feasible():
    params, controls, state, pmec = _desk_setup()
    slot = _desk_slot()
    sol = solve_slot(state, slot, follower_models(params, controls), PME, pmec,
                     GameConfig())
    for rec in sol.trace.records:
        assert slot.m_b <= rec.p_b < rec.p_s <= slot.m_s
        assert rec.p_s - rec.p_b >= 0.01 - 1e-12
        assert -PME.u_dmax <= rec.y <= PME.u_cmax
    assert sol.trace.iterations <= GameConfig().max_iters
    assert len(sol.trace.records) == sol.trace.iterations


def test_returned_action_is_unilaterally_stable():
    params, controls, state, pmec = _desk_setup()
    slot = _desk_slot()
    cfg = GameConfig()
    sol = solve_slot(state, slot, follower_models(params, controls), PME, pmec,
                     cfg)
    responder = QueueResponder(state, slot, follower_models(params, controls))

    def pro(ps, pb, y):
        es = responder.respond(ps, pb)[0]
        tps = [fs.d + e - fs.rp for fs, e in zip(slot.followers, es)]
        return leader_surrogate(ps, pb, y, tps, state.b, slot.g_t, slot.m_s,
                                slot.m_b, pmec.v_p, PME.c_b)

    act = sol.leader
    base = pro(act.p_s, act.p_b, act.y)
    tol = 1e-6 * (1.0 + abs(base))
    for dps, dpb, dy in ((cfg.rho, 0, 0), (-cfg.rho, 0, 0), (0, cfg.rho, 0),
                         (0, -cfg.rho, 0), (0, 0, cfg.rho), (0, 0, -cfg.rho)):
        pert = _project_desk(act.p_s + dps, act.p_b + dpb, act.y + dy,
                             slot.m_s, slot.m_b, cfg.min_gap)
        assert pro(*pert) >= base - tol
    # Followers re-solved at the final prices reproduce the returned draws.
    rules = [follower_rule(h, t, fs, m) for h, t, fs, m
             in zip(state.h, state.t, slot.followers,
                    follower_models(params, controls))]
    redo, _ = respond(rules, sol.leader.p_s, sol.leader.p_b)
    assert redo == pytest.approx([f.e for f in sol.followers], abs=1e-6)


def test_non_convergence_is_flagged_not_raised():
    params, controls, state, pmec = _desk_setup()
    slot = _desk_slot()
    cfg = GameConfig(max_iters=3, polish=False)
    sol = solve_slot(state, slot, follower_models(params, controls), PME, pmec,
                     cfg)
    assert not sol.trace.converged
    assert sol.trace.iterations == 3


# -- polish -----------------------------------------------------------------


class _RecordingResponder(QueueResponder):
    """Records every price pair the followers are asked to answer: the
    polish's asks (``respond``) in ``asked``, and every ask, the loop's
    too, with the box of the responder that answered it, in ``asked_full``
    (``respond`` answers through ``respond_full``).  The responders that
    ``restrict`` returns share these lists and go into ``restricted``; the
    polish's, restricted to a line box (a run of scan points), also go into
    ``runs``, each with the box it was restricted from."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []
        self.asked_full = []
        self.restricted = []
        self.runs = []

    def restrict(self, *box):
        sub = super().restrict(*box)
        self.restricted.append((box, sub))
        if _is_line(box):
            self.runs.append((self.box, sub))
        return sub

    def respond_full(self, p_s, p_b):
        self.asked_full.append((p_s, p_b, self.box))
        return super().respond_full(p_s, p_b)

    def respond(self, p_s, p_b):
        self.asked.append((p_s, p_b))
        return super().respond(p_s, p_b)


def _is_line(box):
    return box[0] == box[1] or box[2] == box[3]


def _generated_slot(n=50, k=18, seed=1, gamma=None, c_b=None):
    spec = SyntheticSpec(n=n, slots=24, seed=seed)
    scenario = generate_synthetic(spec)
    params = synthetic_params(spec)
    if gamma is not None:
        params = [replace(p, gamma=gamma) for p in params]
    pme = default_pme_params()
    if c_b is not None:
        pme = replace(pme, c_b=c_b)
    bundle = default_policy(scenario, params, pme)
    t = tuple(0.5 * (p.t_min + p.t_max) for p in params)
    e_batt = 0.5 * (pme.e_min + pme.e_max_cap)
    state = SlotState(
        t=t, h=tuple(x + c.gamma_shift for x, c in zip(t, bundle.ng_controls)),
        e_batt=e_batt, b=e_batt + bundle.pme_control.theta)
    return (params, bundle.ng_controls, state, bundle.pme_control,
            scenario.slot(k), pme)


@pytest.mark.parametrize("case", ["desk", "generated50"])
def test_polish_asks_each_price_pair_once(case):
    if case == "desk":
        params, controls, state, pmec = _desk_setup()
        slot, pme = _desk_slot(), PME
    else:
        params, controls, state, pmec, slot, pme = _generated_slot()
    cfg = GameConfig()
    start = solve_slot(state, slot, follower_models(params, controls), pme, pmec,
                       GameConfig(polish=False)).leader
    recorder = _RecordingResponder(state, slot,
                                   follower_models(params, controls))
    act, sweeps, es, tps = _polish(start, recorder, state.b, slot, pme.c_b,
                                   pmec.v_p, (-pme.u_dmax, pme.u_cmax), cfg)
    # The confirming second sweep revisits the first sweep's pairs.
    assert sweeps >= 2
    assert len(recorder.asked) > 10
    assert len(set(recorder.asked)) == len(recorder.asked)
    fresh = QueueResponder(state, slot, follower_models(params, controls))
    assert (es, tps) == fresh.respond(act.p_s, act.p_b)
    # The memo changes no result: the full solve returns the same action.
    solved = solve_slot(state, slot, follower_models(params, controls), pme,
                        pmec, cfg)
    assert solved.leader == act
    assert [f.e for f in solved.followers] == list(es)
    assert [f.tp for f in solved.followers] == tps


def test_most_followers_of_a_generated_slot_are_certified_pinned():
    # The first slot of the seed-1 run at n=50: all of them, as before the
    # certificate took boxes other than the band.
    params, controls, state, pmec, slot, pme = _generated_slot(k=0)
    responder = QueueResponder(state, slot, follower_models(params, controls))
    assert responder.free == ()


@pytest.mark.parametrize("k", [0, 18])
def test_template_and_restricted_subgradients_are_bit_exact(k):
    # Slot 0 has no free follower (sums once per slot), slot 18 no pinned
    # one.  The template's draws and interchanges and the free followers'
    # slopes (in ``free`` order) equal the full computations over every
    # follower's rule, bit for bit; every pinned follower's slope there is
    # 0.0, and only a nonzero slope adds a subgradient term, so the
    # restricted subgradients equal the full ones bit for bit too (signed
    # zeros included).
    params, controls, state, pmec, slot, pme = _generated_slot(k=k)
    responder = QueueResponder(state, slot, follower_models(params, controls))
    free = responder.free
    assert free == (() if k == 0 else tuple(range(50)))
    rules = [follower_rule(h, t, fs, m) for h, t, fs, m
             in zip(state.h, state.t, slot.followers,
                    follower_models(params, controls))]
    rng = random.Random(5)
    for _ in range(200):
        act = LeaderAction(p_s=rng.uniform(slot.m_b, slot.m_s),
                           p_b=rng.uniform(slot.m_b, slot.m_s),
                           y=rng.uniform(-pme.u_dmax, pme.u_cmax))
        es, tps, slopes = responder.respond_full(act.p_s, act.p_b)
        ref_es, ref_slopes = respond(rules, act.p_s, act.p_b)
        assert _bits(es) == _bits(ref_es)
        assert tps == [fs.d + e - fs.rp for fs, e in zip(slot.followers, es)]
        ref_bits = _bits(ref_slopes)
        assert _bits(slopes) == [ref_bits[i] for i in free]
        assert all(s == (0.0).hex() for i, s in enumerate(ref_bits)
                   if i not in free)
        args = (act.p_s, act.p_b, act.y, tps, state.b, slot.g_t, slot.m_s,
                slot.m_b, pmec, pme)
        fast = subgradients(*args, slopes, free=free, sums=interchange_sums(tps))
        assert repr(fast) == repr(subgradients(*args, ref_slopes,
                                               free=range(len(tps))))


# -- the loop against its plain restatement ---------------------------------


def _bits(values):
    # float.hex tells -0.0 from 0.0, which == does not.
    return [float(x).hex() for x in values]


_LOOP_CASES = {
    "n1": dict(n=1, k=5),
    "n5": dict(n=5, k=10, seed=2),
    "n50": dict(n=50, k=18),
    "n50-all-pinned": dict(n=50, k=0),
    "gamma0": dict(n=5, k=10, gamma=0.0),
    "gamma0-free": dict(n=5, k=18, gamma=0.0),
    "c_b0": dict(n=5, k=10, c_b=0.0),
    "band-equal-to-gap": dict(n=5, k=10, band=0.01),
    "cap-hit": dict(n=5, k=10, max_iters=5),
    # Past the default cap of 500 iterations.
    "cap-hit-at-600": dict(n=1, k=5, max_iters=600, rho=1e-300),
    "myopic": dict(n=5, k=12, myopic=True),
    # Case 3 with followers free on the band: the generated weights pin
    # every one of them, a stiffer discomfort weight does not.
    "myopic-free": dict(n=5, k=0, myopic=True, gamma=1.0),
    # The same followers free, most of them at a fixed candidate.
    "myopic-switching": dict(n=5, k=18, myopic=True, gamma=1.0),
    # The iterate leaves its first trust box, where nothing is free, for one
    # with free followers.
    "trust-boxes": dict(n=20, k=18),
}
# The followers free on each case's band, as the band-only certificate found
# them; the other cases have none.
_BAND_FREE = {"n50": tuple(range(50)), "gamma0-free": tuple(range(5)),
              "myopic-free": (1, 3, 4), "myopic-switching": (1, 3, 4),
              "trust-boxes": tuple(range(20))}


def _loop_case(case, polish, responder=QueueResponder):
    """A ``_LOOP_CASES`` slot: its setup, solver knobs and responder."""
    opts = dict(_LOOP_CASES[case])
    config = GameConfig(max_iters=opts.pop("max_iters", 500),
                        rho=opts.pop("rho", 1e-3), polish=polish)
    band = opts.pop("band", None)
    myopic = opts.pop("myopic", False)
    params, controls, state, pmec, slot, pme = _generated_slot(**opts)
    if band is not None:
        slot = replace(slot, m_s=slot.m_b + band)
    boxes = y_box = None
    played = state
    if myopic:  # as case 3 plays: no queue pressure on the followers
        played = replace(state, h=(0.0,) * len(state.h))
        boxes = [_comfort_box(t, fs, p)
                 for t, fs, p in zip(state.t, slot.followers, params)]
        y_box = (max(-pme.u_dmax, pme.e_min - state.e_batt),
                 min(pme.u_cmax, pme.e_max_cap - state.e_batt))
    return SimpleNamespace(
        params=params, controls=controls, state=state, pmec=pmec, slot=slot,
        pme=pme, config=config, myopic=myopic, boxes=boxes, y_box=y_box,
        b=0.0 if myopic else state.b,
        responder=responder(played, slot, follower_models(params, controls),
                            boxes=boxes))


@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_loop_matches_the_reference_bit_for_bit(case):
    # Every record, the converged flag and the last iterate equal the plain
    # restatement's (a LeaderAction per iterate, subgradients summed over
    # every follower), float for float and zero sign for zero sign.
    c = _loop_case(case, polish=False, responder=_RecordingResponder)
    assert c.responder.free == _BAND_FREE.get(case, ())
    sol = _solve_with_responder(c.responder, c.b, c.slot, c.pme, c.pmec,
                                c.config, y_box=c.y_box)
    rows, converged, last = reference_loop(c.state, c.slot, c.params,
                                           c.controls, c.pme, c.pmec, c.config,
                                           drop_queue=c.myopic, boxes=c.boxes,
                                           y_box=c.y_box)
    got = [(*rec[:6], *stackelberg._step_sizes(m), *rec[6:9], *rec.es)
           for m, rec in enumerate(sol.trace.records, start=1)]
    assert len(got) == len(rows)
    for mine, ref in zip(got, rows):
        assert mine == ref
        assert _bits(mine) == _bits(ref)
    assert sol.trace.converged is converged
    assert converged is not case.startswith("cap-hit")
    if case == "trust-boxes":
        # The loop certified two trust boxes or more: one with nothing
        # free, and one with free followers.
        frees = [sub.free for _, sub in c.responder.restricted]
        assert len(frees) >= 2 and () in frees and any(frees)
    assert _bits((sol.leader.p_s, sol.leader.p_b, sol.leader.y)) == _bits(
        (last.p_s, last.p_b, last.y))


@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_every_price_the_solver_asks_lies_in_the_band(case):
    # A responder's template holds only inside its price box, so the loop
    # and the polish must ask each responder at prices in its box alone,
    # and every box the loop certifies must lie in the grid band [m_b, m_s]²
    # (n = 1, 5, 20, 50, gamma = 0, a band exactly min_gap wide, case-3
    # myopic boxes, an iteration cap hit), with the polish and without it.
    # Every loop iteration asks its trust box's responder once, also when
    # that box has nothing free.  With the polish on, a band with nothing
    # free runs no loop and asks no responder: the closed form returns the
    # band certificate's template.
    for polish in (True, False):
        c = _loop_case(case, polish=polish, responder=_RecordingResponder)
        sol = _solve_with_responder(c.responder, c.b, c.slot, c.pme, c.pmec,
                                    c.config, y_box=c.y_box)
        asked = c.responder.asked_full
        closed_form = polish and not c.responder.free
        assert (sol.trace.iterations == 0) is closed_form
        if closed_form:
            assert asked == c.responder.asked == c.responder.restricted == []
            assert _bits(f.e for f in sol.followers) == _bits(c.responder._draws)
            assert _bits(f.tp for f in sol.followers) == _bits(c.responder._tps)
            continue
        assert asked and c.responder.asked
        assert len(asked) == sol.trace.iterations + len(c.responder.asked)
        m_b, m_s = c.slot.m_b, c.slot.m_s
        boxes = [box for _, _, box in asked] + [
            box for pair in c.responder.restricted for box in (pair[0], pair[1].box)]
        assert [box for box in boxes
                if not (m_b <= box[0] <= box[1] <= m_s
                        and m_b <= box[2] <= box[3] <= m_s)] == []
        assert [(p_s, p_b) for p_s, p_b, box in asked
                if not (box[0] <= p_s <= box[1] and box[2] <= p_b <= box[3])] == []
        assert [(p_s, p_b) for p_s, p_b, _ in asked
                if not (m_b <= p_s <= m_s and m_b <= p_b <= m_s)] == []
        # The polish's long lines at n = 20 and 50 are answered by their
        # runs' responders, each restricted from the band's.
        answered = {box for _, _, box in asked}
        runs = c.responder.runs
        assert [parent for parent, _ in runs if parent != c.responder.box] == []
        if polish and case in ("n50", "trust-boxes"):
            assert answered & {sub.box for _, sub in runs}
        else:
            assert not runs


@pytest.mark.parametrize("case", ["n50", "trust-boxes", "myopic-free",
                                  "gamma0-free"])
def test_chunked_polish_is_bit_exact(case, monkeypatch):
    # The polish answers a long line from responders certified on runs of
    # its scan points.  With runs longer than any line it asks the band
    # responder alone; the action, the sweeps, the draws and the
    # interchanges are the same, bit for bit, at the default run length and
    # at runs of 1 and 3 gaps (short runs split the short lines of
    # gamma0-free and of case 3's myopic-free too).
    line_router = stackelberg._line_router

    def polish(chunk):
        monkeypatch.setattr(stackelberg, "POLISH_CHUNK", chunk)
        routes = []

        def router(*args):
            route = line_router(*args)
            routes.append((args, route))
            return route

        monkeypatch.setattr(stackelberg, "_line_router", router)
        c = _loop_case(case, polish=True, responder=_RecordingResponder)
        start = _solve_with_responder(c.responder, c.b, c.slot, c.pme, c.pmec,
                                      replace(c.config, polish=False),
                                      y_box=c.y_box).leader
        y_box = c.y_box or (-c.pme.u_dmax, c.pme.u_cmax)
        act, sweeps, es, tps = _polish(start, c.responder, c.b, c.slot,
                                       c.pme.c_b, c.pmec.v_p, y_box, c.config)
        got = (sweeps, _bits((act.p_s, act.p_b, act.y)), _bits(es), _bits(tps))
        return got, c.responder, routes

    plain, _, _ = polish(10 ** 9)
    for chunk in (POLISH_CHUNK, 1, 3):
        got, responder, routes = polish(chunk)
        assert got == plain
        runs = [sub for _, sub in responder.runs]
        assert bool(runs) is (bool(responder.free) and chunk <= 3
                              or case in ("n50", "trust-boxes"))
        if case == "n50" and chunk > 3:
            assert sum(len(sub.free) for sub in runs) < (
                len(responder.free) * len(runs))
        # Ask each split line's router at every scan point: the run hulls
        # tile the line, consecutive ones sharing an endpoint, which goes
        # to the later run.
        asked = set()
        for (_, along_s, price, points), route in routes:
            if route is None:
                continue
            pts = sorted(set(points))
            hulls = []
            for x in pts:
                sub = route(x, price) if along_s else route(price, x)
                asked.add(id(sub))
                hull, at = (sub.box[:2], sub.box[2:]) if along_s else (
                    sub.box[2:], sub.box[:2])
                assert at == (price, price)
                assert hull[0] <= x < hull[1] or x == hull[1] == pts[-1]
                if not hulls or hulls[-1] != hull:
                    hulls.append(hull)
            assert len(hulls) == -(-(len(pts) - 1) // chunk)
            assert (hulls[0][0], hulls[-1][1]) == (pts[0], pts[-1])
            assert all(a[1] == b[0] for a, b in zip(hulls, hulls[1:]))
        # Every line-box responder is a run, restricted from the band's box:
        # no line-wide responder is built beside them.
        assert {id(sub) for _, sub in responder.runs} == asked
        assert {parent for parent, _ in responder.runs} <= {responder.box}


@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_the_trust_box_width_changes_no_record(case, monkeypatch):
    # A follower pinned on a trust box draws what the band responder gives
    # it there, bit for bit, so the loop's records, flag and last iterate
    # are the reference's at any width, from boxes left at every iteration
    # to boxes as wide as the band.
    c = _loop_case(case, polish=False)
    rows, converged, last = reference_loop(c.state, c.slot, c.params,
                                           c.controls, c.pme, c.pmec, c.config,
                                           drop_queue=c.myopic, boxes=c.boxes,
                                           y_box=c.y_box)
    want = ([_bits(row) for row in rows], converged,
            _bits((last.p_s, last.p_b, last.y)))
    for width in (1e-4, stackelberg.TRUST_HALF_WIDTH, 0.05, 1.0):
        monkeypatch.setattr(stackelberg, "TRUST_HALF_WIDTH", width)
        c = _loop_case(case, polish=False)
        sol = _solve_with_responder(c.responder, c.b, c.slot, c.pme, c.pmec,
                                    c.config, y_box=c.y_box)
        got = [_bits((*rec[:6], *stackelberg._step_sizes(m), *rec[6:9], *rec.es))
               for m, rec in enumerate(sol.trace.records, start=1)]
        assert (got, sol.trace.converged,
                _bits((sol.leader.p_s, sol.leader.p_b, sol.leader.y))) == want


def test_iteration_record_keeps_its_fields_in_order():
    # The loop builds each record with tuple.__new__, by position.
    assert stackelberg.IterationRecord._fields == (
        "p_s", "p_b", "y", "g_ps", "g_pb", "g_y", "dist_s", "dist_b", "dist_y",
        "es")


def _price_walk(rng, box, cuts, steps):
    """Price pairs in ``box`` = (ps_lo, ps_hi, pb_lo, pb_hi): repeats, moves
    shorter than the loop's rho, trips across a price in ``cuts`` (a
    follower's switch) and back, and jumps."""
    ps_lo, ps_hi, pb_lo, pb_hi = box

    def clip(ps, pb):
        return min(max(ps, ps_lo), ps_hi), min(max(pb, pb_lo), pb_hi)

    pair = clip(rng.uniform(ps_lo, ps_hi), rng.uniform(pb_lo, pb_hi))
    yield pair
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 1:
            pair = clip(pair[0] + rng.uniform(-1e-3, 1e-3),
                        pair[1] + rng.uniform(-1e-3, 1e-3))
        elif kind == 2:
            on_s = rng.random() < 0.5
            lo, hi = (ps_lo, ps_hi) if on_s else (pb_lo, pb_hi)
            inside = [x for x in cuts if lo < x < hi]
            if inside:
                x = rng.choice(inside)
                at = pair[0] if on_s else pair[1]
                over = x + math.copysign(1e-7, x - at)
                yield clip(over, pair[1]) if on_s else clip(pair[0], over)
        elif kind == 3:
            pair = clip(rng.uniform(ps_lo, ps_hi), rng.uniform(pb_lo, pb_hi))
        yield pair


@pytest.mark.parametrize("case", ["n50", "myopic-free", "myopic-switching",
                                  "gamma0-free"])
def test_a_reused_answer_is_the_built_one_bit_for_bit(case, monkeypatch):
    # respond_full hands back its last built draws and interchanges when
    # every free draw is the same object as in that answer.  On the band's
    # responder and on responders restricted from it (one to the band
    # itself, which pins no one more, trust boxes, and a box inside a trust
    # box), along price walks: every answer is a freshly built responder's,
    # bit for bit; the last built objects come back exactly when the free
    # draws are the same objects; and no restricted responder returns an
    # object its parent built.
    c = _loop_case(case, polish=False)
    band = c.responder
    played = replace(c.state, h=(0.0,) * len(c.state.h)) if c.myopic else c.state
    models = follower_models(c.params, c.controls)
    rng = random.Random(11)
    cuts = band.price_breakpoints()
    m_b, m_s = c.slot.m_b, c.slot.m_s
    reach = 0.02 * (m_s - m_b)
    built_by = {}  # responder -> the objects it returned
    counts = collections.Counter()

    def walk(responder, chain, parents):
        last = None
        for p_s, p_b in _price_walk(rng, responder.box, cuts, 40):
            free_es = respond(responder._free_rules, p_s, p_b)[0]
            es, tps, slopes = responder.respond_full(p_s, p_b)
            fresh = QueueResponder(played, c.slot, models, boxes=c.boxes)
            for box in chain:
                fresh = fresh.restrict(*box)
            assert fresh.free == responder.free
            want = fresh.respond_full(p_s, p_b)
            assert (_bits(es), _bits(tps), _bits(slopes)) == tuple(map(_bits, want))
            if not responder.free:
                assert es is responder._draws and tps is responder._tps
                continue
            same = last is not None and all(
                e is last[0][i] for i, e in zip(responder.free, free_es))
            assert (es is last[0] and tps is last[1]) if same else (
                last is None or (es is not last[0] and tps is not last[1]))
            counts["reused" if same else "built"] += 1
            counts["vertex"] += any(slopes)
            for parent in parents:
                assert not any(es is o or tps is o for o in built_by[parent])
            built_by.setdefault(responder, []).extend((es, tps))
            last = es, tps
        return p_s, p_b

    p_s, p_b = walk(band, (), ())
    for k in range(4):
        if k == 0:  # the band again: the same free followers as its parent
            box = band.box
        else:
            p_s, p_b = rng.uniform(m_b, m_s), rng.uniform(m_b, m_s)
            box = (max(p_s - reach, m_b), min(p_s + reach, m_s),
                   max(p_b - reach, m_b), min(p_b + reach, m_s))
        sub = band.restrict(*box)
        assert sub is not band
        if k == 0:
            assert sub.free == band.free
            # First at the parent's last pair, whose answer the parent built.
            assert sub.respond_full(p_s, p_b)[0] is not band.respond_full(p_s, p_b)[0]
        walk(sub, (box,), (band,))
        inner = (box[0], 0.5 * (box[0] + box[1]), box[2], 0.5 * (box[2] + box[3]))
        walk(sub.restrict(*inner), (box, inner), (band, sub))
    assert counts["built"] >= 20
    if case == "myopic-free":  # some free follower always sits at its vertex
        assert counts["reused"] == 0 and counts["vertex"] == counts["built"]
    else:
        assert counts["reused"] >= 20
    assert (counts["vertex"] > 0) is (case != "gamma0-free")

    # The loop's interchange sums are those of its interchanges, bit for
    # bit, summed once for each new interchange list.
    checked, summed = [], []

    def checked_subgradients(p_s, p_b, y, tps, *args, sums, **kwargs):
        assert _bits(sums) == _bits(interchange_sums(tps))
        checked.append(tps)
        return subgradients(p_s, p_b, y, tps, *args, sums=sums, **kwargs)

    def counted_sums(tps):
        summed.append(tps)
        return interchange_sums(tps)

    monkeypatch.setattr(stackelberg, "subgradients", checked_subgradients)
    monkeypatch.setattr(stackelberg, "interchange_sums", counted_sums)
    sol = _solve_with_responder(
        QueueResponder(played, c.slot, models, boxes=c.boxes), c.b, c.slot,
        c.pme, c.pmec, c.config, y_box=c.y_box)
    assert len(checked) == sol.trace.iterations > 0
    changed = [tps for k, tps in enumerate(checked)
               if k == 0 or tps is not checked[k - 1]]
    assert len(summed) == len(changed)
    assert (len(changed) < len(checked)) is (case != "myopic-free")
    assert all(map(operator.is_, summed, changed))


@pytest.mark.parametrize("case", ["desk", "n50", "n50-all-pinned", "myopic",
                                  "myopic-free", "gamma0-free"])
def test_every_polish_scan_matches_the_reference(case):
    # Each line the polish scans gives the reference scan's (argmin, value)
    # bits.  Pruning saves evaluations at n=50, where every follower is
    # free, and is never asked for at gamma = 0, where free draws jump.  The
    # solver does not polish a band with nothing free, so the all-pinned
    # cases polish the loop's last iterate directly.  (An all-pinned line is
    # linear; its only segment holds its best end.)
    if case == "desk":
        params, controls, state, pmec = _desk_setup()
        slot, pme, b, y_box = _desk_slot(), PME, state.b, None
        responder = QueueResponder(state, slot, follower_models(params, controls))
        config = GameConfig()
    else:
        c = _loop_case(case, polish=True)
        responder, slot, pme, pmec, b, y_box, config = (
            c.responder, c.slot, c.pme, c.pmec, c.b, c.y_box, c.config)
    with shadowed_scans() as shadow:
        if responder.free:
            _solve_with_responder(responder, b, slot, pme, pmec, config,
                                  y_box=y_box)
        else:
            _polished_loop(responder, b, slot, pme, pmec, config, y_box)
    assert shadow.lines >= 2
    if case == "n50":
        assert shadow.pruned > 0
    if case == "gamma0-free":
        assert responder.free and shadow.pruning == 0
    else:
        assert shadow.pruning == shadow.lines


# -- bands with nothing free: the closed form --------------------------------


def _polished_loop(responder, b, slot, pme, pmec, config, y_box=None):
    """``_polish`` applied to the ``polish=False`` loop's last iterate, the
    path the solver took before it answered a band with nothing free in
    closed form: (action, draws, interchanges)."""
    start = _solve_with_responder(responder, b, slot, pme, pmec,
                                  replace(config, polish=False),
                                  y_box=y_box).leader
    act, _, es, tps = _polish(start, responder, b, slot, pme.c_b, pmec.v_p,
                              y_box or (-pme.u_dmax, pme.u_cmax), config)
    return act, es, tps


def _closed_form_slots(monkeypatch, n, slots, seed=1,
                       cases=(CaseId.PROPOSED,)):
    """Runs ``cases`` on a generated scenario under the default policy and
    returns every slot solve whose band has nothing free, as
    (responder, b, slot, pme, pmec, config, y_box, solution)."""
    spec = SyntheticSpec(n=n, slots=slots, seed=seed)
    scenario, params = generate_synthetic(spec), synthetic_params(spec)
    pme = default_pme_params()
    bundle = default_policy(scenario, params, pme)
    solve, got = stackelberg._solve_with_responder, []

    def spy(responder, b, slot, pme, pmec, config, y_box=None):
        sol = solve(responder, b, slot, pme, pmec, config, y_box=y_box)
        if not responder.free:
            got.append((responder, b, slot, pme, pmec, config, y_box, sol))
        return sol

    monkeypatch.setattr(stackelberg, "_solve_with_responder", spy)
    monkeypatch.setattr(baselines, "_solve_with_responder", spy)
    for case in cases:
        run_case(case, scenario, params, bundle.ng_controls, pme,
                 bundle.pme_control)
    monkeypatch.undo()
    return got


# The desk (the reference week), no nanogrids, and seed 1 of the benchmark's
# workloads: month5, cluster50 and compare5 (cases 3 and 4 only).
_CLOSED_FORM_RUNS = {
    "desk": dict(n=5, slots=72),
    "n0": dict(n=0, slots=48),
    "month5": dict(n=5, slots=720),
    "cluster50": dict(n=50, slots=100),
    "compare5": dict(n=5, slots=240,
                     cases=(CaseId.MYOPIC_GAME, CaseId.PROPOSED)),
}


@pytest.mark.parametrize("run", sorted(_CLOSED_FORM_RUNS))
def test_closed_form_is_the_polished_loop_bit_for_bit(run, monkeypatch):
    # In every slot whose band pins every follower, the default's leader
    # action, draws and interchanges equal, by float.hex, the polish of the
    # polish=False loop's last iterate.  Its trace has no records and is
    # converged, and without the polish the same slot runs the loop.  The
    # draws and interchanges are the band certificate's template, and the
    # leader action is the fixed-draws rule's.
    slots = _closed_form_slots(monkeypatch, **_CLOSED_FORM_RUNS[run])
    assert slots
    for responder, b, slot, pme, pmec, config, y_box, sol in slots:
        assert sol.trace.records == () and sol.trace.converged
        assert sol.trace.polish_sweeps == 0
        assert _bits(f.e for f in sol.followers) == _bits(responder._draws)
        assert _bits(f.tp for f in sol.followers) == _bits(responder._tps)
        want = fixed_draws_rule(responder._tps, b, slot, pmec.v_p, pme.c_b,
                                y_box or (-pme.u_dmax, pme.u_cmax), config.min_gap)
        assert _bits((sol.leader.p_s, sol.leader.p_b, sol.leader.y)) == _bits(want)
        act, es, tps = _polished_loop(responder, b, slot, pme, pmec, config,
                                      y_box)
        assert _bits((sol.leader.p_s, sol.leader.p_b, sol.leader.y)) == _bits(
            (act.p_s, act.p_b, act.y))
        assert _bits(f.e for f in sol.followers) == _bits(es)
        assert _bits(f.tp for f in sol.followers) == _bits(tps)
    loop = _solve_with_responder(responder, b, slot, pme, pmec,
                                 replace(config, polish=False), y_box=y_box)
    assert loop.trace.iterations >= 1
    if run == "compare5":
        # Case 3 reached the closed form too: its charge box is narrowed.
        assert any(y_box is not None for *_, y_box, _ in slots)


@pytest.mark.parametrize("run", ["desk", "n0", "cluster50"])
def test_no_grid_point_beats_the_closed_form(run, monkeypatch):
    # Against fixed draws no (p_s, p_b, y) on a dense grid of the leader's
    # feasible set has a surrogate value below the closed form's by more
    # than 1e-9*(1 + |value|).
    for responder, b, slot, pme, pmec, config, y_box, sol in _closed_form_slots(
            monkeypatch, **_CLOSED_FORM_RUNS[run]):
        tps = [f.tp for f in sol.followers]
        y_lo, y_hi = y_box or (-pme.u_dmax, pme.u_cmax)
        best = brute_force_fixed_draws(tps, b, slot.g_t, slot.m_s, slot.m_b,
                                       pmec.v_p, pme.c_b, y_lo, y_hi,
                                       config.min_gap)
        act = sol.leader
        val = float(leader_surrogate(act.p_s, act.p_b, act.y, tps, b, slot.g_t,
                                     slot.m_s, slot.m_b, pmec.v_p, pme.c_b))
        assert val <= best + 1e-9 * (1.0 + abs(best)), (slot, act, val, best)


# -- the polish's scan against its plain restatement ------------------------


def _random_piecewise(rng, kind=None):
    """A random piecewise-quadratic function with a residual whose sign
    changes inside the range: (evaluate, breakpoints, kind, v_p).

    ``v_p`` is None except for ``kind="surrogate"``, which has the leader
    surrogate's shape along a price line (the scan may prune it): the
    residual is continuous and decreasing, with slope -s on a piece whose
    curvature is v_p*s (f'' = -2*v_p*r'), and the value is continuous with a
    convex kink where the residual crosses 0.
    """
    lo = rng.uniform(0.0, 5.0)
    narrow = rng.random() < 0.15
    hi = lo + (rng.uniform(1e-12, 8e-12) if narrow else rng.uniform(0.5, 10.0))
    knots = sorted(rng.uniform(lo, hi) for _ in range(rng.randint(0, 6)))
    if knots and rng.random() < 0.3:
        knots.append(knots[-1] + rng.uniform(0.0, 8e-12))  # a sliver segment
    if kind == "surrogate":
        v_p = rng.uniform(0.1, 3.0)
        return _random_surrogate(rng, v_p, lo, hi, knots), [lo, hi] + knots, kind, v_p
    pieces = [(rng.choice([0.0, rng.uniform(0.0, 3.0)]), rng.uniform(lo, hi),
               rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
              for _ in range(len(knots) + 1)]
    kind = rng.choice(["smooth", "flat", "ties"])
    x0 = rng.uniform(lo, hi)
    r_slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    kink = rng.uniform(0.0, 3.0)

    def evaluate(x):
        r = r_slope * (x - x0)
        if kind == "flat":
            return 1.0, r
        a, c, lin, d = pieces[bisect.bisect_right(knots, x)]
        val = a * (x - c) ** 2 + lin * x + d + kink * max(r, 0.0)
        # Coarse rounding makes plateaus of exactly tied values.
        return (round(val, 1) if kind == "ties" else val), r

    return evaluate, [lo, hi] + knots, kind, None


def _random_surrogate(rng, v_p, lo, hi, knots):
    """evaluate(x) -> (value, residual) of a "surrogate" piecewise function:
    piece k starts at (lo, *knots)[k] and has residual slope -s[k], value
    slope g[k] at its start and curvature v_p*s[k]; each piece starts where
    the previous one ends, in value and in residual."""
    starts = [lo, *knots]
    s = [rng.choice([0.0, rng.uniform(0.0, 2.0)]) for _ in starts]
    g = [rng.uniform(-3.0, 3.0) for _ in starts]
    f0, r0 = [], []
    f, r = rng.uniform(-2.0, 2.0), 0.0
    for k, (start, end) in enumerate(zip(starts, [*knots, hi])):
        f0.append(f)
        r0.append(r)
        w = end - start
        f += g[k] * w + v_p * s[k] * w * w
        r -= s[k] * w
    # Shift the residual so that it mostly crosses 0 inside [lo, hi].
    shift = rng.uniform(-0.2, 1.2) * -r
    kink = rng.uniform(0.0, 3.0)

    def evaluate(x):
        k = bisect.bisect_right(knots, x)
        dx = x - starts[k]
        res = r0[k] + shift - s[k] * dx
        return f0[k] + g[k] * dx + v_p * s[k] * dx * dx + kink * max(res, 0.0), res

    return evaluate


def test_scan_evaluates_each_point_once_and_matches_the_reference():
    # The surrogate-shaped cases are scanned with v_p, the others without.
    rng = random.Random(8)
    seen = collections.Counter()
    cases = [_random_piecewise(rng) for _ in range(3000)]
    cases += [_random_piecewise(rng, "surrogate") for _ in range(1000)]
    # A symmetric parabola: its fitted vertex is its segment's midpoint.
    cases.append((lambda x: ((x - 2.0) ** 2, 1.0), [1.0, 3.0], "vertex-on-mid",
                  None))
    for evaluate, points, kind, v_p in cases:
        calls = collections.Counter()

        def counted(x):
            calls[x] += 1
            return evaluate(x)

        got = _scan_quadratic_segments(counted, points, v_p)
        want = reference_scan(evaluate, points)
        assert got == want
        assert _bits(got) == _bits(want)
        assert max(calls.values()) == 1, (kind, calls.most_common(1))
        if v_p is not None:
            unpruned = set()
            _scan_quadratic_segments(lambda x: unpruned.add(x) or evaluate(x),
                                     points)
            seen["pruned"] += len(calls) < len(unpruned)
        pts = sorted(set(points))
        seen[kind] += 1
        seen["crossing"] += any((evaluate(a)[1] > 0.0) != (evaluate(b)[1] > 0.0)
                                for a, b in zip(pts, pts[1:]))
        seen["sliver"] += any(b - a < 1e-11 for a, b in zip(pts, pts[1:]))
        seen["tie"] += sum(evaluate(x)[0] == want[1] for x in calls) > 1
    assert min(seen[k] for k in ("smooth", "flat", "ties", "surrogate",
                                 "crossing", "sliver", "tie", "pruned")) >= 100, seen
