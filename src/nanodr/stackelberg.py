"""Per-slot leader/follower iteration to the Stackelberg equilibrium.

Each slot runs the same loop: the aggregator broadcasts (p_s, p_b, y), every
nanogrid replies with its exact best response, and the aggregator takes a
projected subgradient step on its surrogate with harmonically decaying step
sizes.  The loop stops when all three coordinates move less than ``rho``
between consecutive iterates, or at the iteration cap (flagged, not fatal).
With the polish on, a slot whose band pins every follower runs neither: the
point where the polish would end has a closed form (``_against_fixed_draws``)
read from the band certificate's template, asking no responder.

The loop carries the iterate as three floats and keeps one flat
``IterationRecord`` per iteration, which is one row of ``traces.csv``; the
band, the projection's bounds and the responder's per-slot template are
read once per slot, before it.  The band itself (at least ``min_gap`` wide)
is checked once per slot here, and by the commands over every slot before
any is solved.

Because a diminishing-step subgradient iterate can stall a small distance
away from a non-smooth minimizer, the returned action is then polished:
exact coordinate-wise minimization of the surrogate (followers re-solved for
price moves, closed-form for the charge) until a fixed point.  The polish is
deterministic, never increases the surrogate, and makes the returned action
withstand unilateral-deviation equilibrium checks at tight tolerances.  The
followers' responses do not depend on the charge, so the polish asks them
once per price pair: it keeps the draws and trade sums of every pair it has
evaluated, and the draws at its final point are the slot's follower actions.

Along a polish line the surrogate is piecewise quadratic in the scanned
price.  The only followers that move with it sit at an interior branch
vertex, and each adds 2*v_p*hbar to the surrogate's second derivative and
-hbar to the net residual's slope, so on every segment f'' = -2*v_p*r'.
When every free follower has a vertex (gamma > 0, continuous responses),
the scan therefore bounds each segment from below by its end values and
residuals alone, and skips the midpoint and vertex probes of a segment whose
bound is above the running best: such a probe could not win, so the result
is the full scan's, bit for bit.

Every price either phase asks lies inside the slot's grid band [m_b, m_s].
Once per slot the responder certifies the followers whose draw is the same
at every price pair in that band (most of them, usually at rated power or
idle); a broadcast evaluates only the others, and the draws and
interchanges of the pinned ones come from a per-slot template.

The loop narrows this further.  It keeps a trust box around its iterate,
TRUST_HALF_WIDTH times the band width on each side of it in each price and
clipped to the band, and certifies the followers still free on that box
whenever the iterate leaves it (``QueueResponder.restrict``); the box it
keeps is the responder's own, so once the band has no free follower it is
never restricted again.  Every iteration asks its box's responder; while
the box has no free follower, the answer is the box's own draws tuple and
interchange list, and the subgradients read the interchange sums fixed for
the box.  The responder returns slopes for its free followers only: a
follower pinned on a box has slope 0.0 there, and the subgradients add a
term only for a nonzero slope, so the records are those of the band
responder, bit for bit.

The polish narrows it along its lines.  A line with more than POLISH_CHUNK
scan points is split into runs of POLISH_CHUNK gaps whose hulls tile it,
each run sharing its last point with the next one's first.  A scan probe on
the line asks the responder certified on its run's hull (the later run's at
a shared point), and a pair off the line the band responder.  Every answer
is the band responder's, bit for bit, so the memo and the scans see what
they saw before.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from itertools import repeat
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .domain import (
    ConfigurationError,
    FollowerAction,
    LeaderAction,
    PmeControl,
    PmeParams,
    SlotData,
    SlotState,
    _reject_non_finite,
    _trade_sums,
    clamp,
)
from .nanogrid import (FollowerModel, box_corners, follower_rule, pinned_draw,
                       respond)
from .pme import _close_pro_prime, interchange_sums, subgradients


# Step sizes at iteration m are scale / (STEP_C0 + STEP_C1*m): strictly
# decreasing, divergent sum, convergent sum of squares.  The scales are small
# fixed fractions of the coordinate ranges (about 1e-4 of a typical price
# band per unit subgradient, 1e-3 of the charge window), chosen so the stop
# rule fires well inside the iteration cap on the supported workloads.
STEP_C0, STEP_C1 = 1.0, 0.5
STEP_SCALE_S = STEP_SCALE_B = 1e-3  # cent/kWh moved per unit subgradient at m=0
STEP_SCALE_Y = 2e-3                 # kWh moved per unit subgradient at m=0
# The polish stops after POLISH_PASSES sweeps, or after a sweep that moves
# no coordinate by POLISH_TOL.
POLISH_PASSES, POLISH_TOL = 25, 1e-11
# The loop's trust box reaches this fraction of the band width either side
# of its iterate in each price (clipped to the band), and is certified afresh
# whenever the iterate leaves it: a wider box pins fewer followers, a
# narrower one is left, and paid for, more often.
TRUST_HALF_WIDTH = 0.05
# A polish line with more than POLISH_CHUNK scan points is answered from
# responders certified on runs spanning POLISH_CHUNK gaps between its
# points: a longer run pins fewer followers, a shorter one pays for more
# certificates.  A shorter line asks the band's responder.
POLISH_CHUNK = 24


@dataclass(frozen=True, slots=True)
class GameConfig:
    """Solver knobs for the per-slot equilibrium iteration.

    These are the knobs the CLI sets.  The step schedule and the polish's
    sweep cap and tolerance are module constants (``STEP_*``, ``POLISH_*``)
    because no caller tunes them.  The loop starts from the band-midpoint
    prices and y = 0.
    """

    rho: float = 1e-3          # per-coordinate convergence distance
    max_iters: int = 500       # iteration cap (flagged as non-converged beyond)
    min_gap: float = 0.01      # enforced p_s - p_b separation (cent/kWh)
    polish: bool = True

    def __post_init__(self) -> None:
        # Only NaN is refused: an infinite rho or min_gap has a meaning
        # (stop after one step) or fails its own check (the band width).
        _reject_non_finite(self, infinite_ok=("rho", "min_gap"))
        if self.rho <= 0.0:
            raise ConfigurationError(f"rho must be positive, got {self.rho}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.min_gap <= 0.0:
            raise ConfigurationError(f"min_gap must be positive, got {self.min_gap}")


class IterationRecord(NamedTuple):
    """One loop iteration, flat: one ``traces.csv`` row after its slot and
    iteration index.

    The broadcast iterate, the subgradients there, each coordinate's
    distance to the next iterate, and the follower draws at the iterate.
    The step sizes depend only on the iteration index (``_step_sizes``).
    """

    p_s: float
    p_b: float
    y: float
    g_ps: float
    g_pb: float
    g_y: float
    dist_s: float
    dist_b: float
    dist_y: float
    es: tuple[float, ...]


@dataclass(frozen=True)
class IterationTrace:
    records: tuple[IterationRecord, ...]
    converged: bool  # the stop rule fired; with no records, the action is exact
    polish_sweeps: int = 0

    @property
    def iterations(self) -> int:
        return len(self.records)


_EMPTY_TRACE = IterationTrace(records=(), converged=True)


class SlotSolution(NamedTuple):
    """One slot's answer; tuple-backed like its actions (``domain``)."""

    leader: LeaderAction
    followers: tuple[FollowerAction, ...]
    trace: IterationTrace = _EMPTY_TRACE


def check_band(m_s: float, m_b: float, min_gap: float,
               slot: int | None = None) -> None:
    """Refuse a grid price band [m_b, m_s] narrower than ``min_gap``: no
    price pair in it keeps p_s - p_b >= min_gap.  ``slot`` names the slot."""
    # Representation slack so a band whose width nominally equals min_gap
    # is not rejected over the last float bit.
    if m_s - m_b < min_gap - 1e-12:
        at = "" if slot is None else f" at slot {slot}"
        raise ConfigurationError(
            f"grid price band [{m_b}, {m_s}]{at} narrower than min_gap={min_gap}"
        )


def _project(raw_ps: float, raw_pb: float, raw_y: float, m_s: float,
             m_b: float, pb_hi: float, y_lo: float, y_hi: float,
             min_gap: float) -> tuple[float, float, float]:
    """Projection onto the leader's feasible set, as (p_s, p_b, y).

    p_b goes into [m_b, pb_hi], where ``pb_hi`` is max(m_s - min_gap, m_b)
    (computed once per slot), then p_s into [min(p_b + min_gap, m_s), m_s],
    then y into [y_lo, y_hi].  The band must pass ``check_band``.
    """
    p_b = m_b if raw_pb < m_b else pb_hi if raw_pb > pb_hi else raw_pb
    ps_lo = min(p_b + min_gap, m_s)
    p_s = ps_lo if raw_ps < ps_lo else m_s if raw_ps > m_s else raw_ps
    return p_s, p_b, y_lo if raw_y < y_lo else y_hi if raw_y > y_hi else raw_y


def _step_sizes(m: int) -> tuple[float, float, float]:
    """The step sizes of iteration m for (p_s, p_b, y)."""
    denom = STEP_C0 + STEP_C1 * m
    return STEP_SCALE_S / denom, STEP_SCALE_B / denom, STEP_SCALE_Y / denom


# ---------------------------------------------------------------------------
# Follower response models
# ---------------------------------------------------------------------------


class QueueResponder:
    """Followers solving their relaxed problem at the given queue pressure.

    The rules read only ``state.h`` and ``state.t``; ``boxes`` overrides the
    draw intervals.  Each follower's price-free rule is built once per slot,
    here, from the frozen state, the slot data and the run's building
    constants ``models`` (``nanogrid.follower_models``); each price
    broadcast only evaluates it (``nanogrid.respond``).

    A responder answers only at prices in its price box ``box`` =
    (ps_lo, ps_hi, pb_lo, pb_hi).  ``nanogrid.pinned_draw`` certifies the
    followers whose draw is the same at every price pair in it (slope 0.0
    there); their draws and interchanges form a template, and ``free``
    lists the other followers.  A broadcast copies the template and
    evaluates only the free followers, whose slopes it returns.  The
    responder built here has the slot's grid band [m_b, m_s]² as its box:
    the loop's projection and the polish's scans never leave the band.
    ``restrict`` gives the responder of a smaller box, which certifies only
    the followers still free: the loop's trust boxes, and the runs of scan
    points on the polish's lines (``_line_router``).  ``sums`` holds the
    interchange sums when nothing is free.
    """

    def __init__(self, state: SlotState, slot: SlotData,
                 models: Sequence[FollowerModel],
                 boxes: Sequence[tuple[float, float]] | None = None):
        n = len(state.h)
        self._rules = tuple(map(
            follower_rule, state.h, state.t, slot.followers, models,
            repeat(None, n) if boxes is None else boxes))
        self._followers = slot.followers
        self.free = tuple(range(n))
        self._draws = (0.0,) * n  # a free follower's entries are set per broadcast
        self._tps = [0.0] * n
        self._certify(slot.m_b, slot.m_s, slot.m_b, slot.m_s)

    def _certify(self, ps_lo: float, ps_hi: float, pb_lo: float,
                 pb_hi: float) -> None:
        """Set the box and move the free followers pinned on it into the
        template.  The box's corner terms are computed once, for all of
        them (``nanogrid.box_corners``)."""
        self.box = (ps_lo, ps_hi, pb_lo, pb_hi)
        corners = box_corners(ps_lo, ps_hi, pb_lo, pb_hi)
        rules, followers = self._rules, self._followers
        draws = list(self._draws)
        tps = self._tps.copy()
        free = []
        for i in self.free:
            e = pinned_draw(rules[i], corners)
            if e is None:
                free.append(i)
                continue
            fs = followers[i]
            draws[i] = e
            # The solver's form of the interchange, d + e - rp (not dr + e,
            # which rounds differently).
            tps[i] = fs.d + e - fs.rp
        self.free = tuple(free)
        self._draws = tuple(draws)
        self._tps = tps
        self._free_rules = tuple(map(rules.__getitem__, free))
        self._free_slots = tuple(zip(free, map(followers.__getitem__, free)))
        # The interchanges never change when every follower is pinned.
        self.sums = None if free else interchange_sums(tps)

    def restrict(self, ps_lo: float, ps_hi: float, pb_lo: float,
                 pb_hi: float) -> QueueResponder:
        """The responder of the price box [ps_lo, ps_hi] × [pb_lo, pb_hi],
        which must lie inside this one's box.  A follower pinned here stays
        pinned there, so only the free ones are certified; with none free
        this responder already answers the smaller box and is returned."""
        if not self.free:
            return self
        sub = copy.copy(self)
        sub._certify(ps_lo, ps_hi, pb_lo, pb_hi)
        return sub

    def respond_full(self, p_s: float, p_b: float
                     ) -> tuple[tuple[float, ...], list[float], Sequence[float]]:
        """Draws (a tuple) and interchanges d + e - rp of every follower,
        and the free followers' local price sensitivities in ``free`` order
        (``nanogrid.respond``'s), at prices in ``box``; a pinned follower's
        is 0.0.  With nothing free these are the box's own draws and
        interchange list, shared by every call (callers do not modify them),
        and ()."""
        if not self.free:
            return self._draws, self._tps, ()
        es = list(self._draws)
        tps = self._tps.copy()
        free_es, slopes = respond(self._free_rules, p_s, p_b)
        for (i, fs), e in zip(self._free_slots, free_es):
            es[i] = e
            tps[i] = fs.d + e - fs.rp
        return tuple(es), tps, slopes

    def respond(self, p_s: float, p_b: float) -> tuple[tuple[float, ...], list[float]]:
        """Draws and interchanges at prices in ``box``."""
        return self.respond_full(p_s, p_b)[:2]

    def price_breakpoints(self) -> list[float]:
        """Price levels where some follower's response map changes branch."""
        pts: list[float] = []
        for r in self._rules:
            pts.append(r.delta)
            if math.isfinite(r.hbar) and r.hbar > 0.0:
                pts.append((r.vartheta - r.at_lo[0]) / r.hbar)
                pts.append((r.vartheta - r.at_hi[0]) / r.hbar)
        return pts


# ---------------------------------------------------------------------------
# Exact one-dimensional refinements
# ---------------------------------------------------------------------------


def _argmin_charge(tps: Sequence[float], b: float, g_t: float, m_s: float,
                   m_b: float, v_p: float, c_b: float,
                   y_lo: float, y_hi: float) -> float:
    """Exact minimizer over y of the leader surrogate with responses fixed.

    Piecewise quadratic with one kink where the net residual crosses zero;
    candidates are the box edges, the kink, and each branch's vertex.
    """
    total = math.fsum(tps)
    kink = g_t - total
    candidates = [y_lo, y_hi]
    if y_lo < kink < y_hi:
        candidates.append(kink)
    if c_b > 0.0:
        candidates.append(clamp(-(b + v_p * m_s) / (v_p * c_b), y_lo, y_hi))
        candidates.append(clamp(-(b + v_p * m_b) / (v_p * c_b), y_lo, y_hi))

    best_y = y_lo
    best_val = math.inf
    for y in sorted(candidates):
        # Trading revenue is constant in y, so it is left out (zero).
        val = _close_pro_prime(0.0, total, y, b, g_t, m_s, m_b, v_p, c_b)
        if val < best_val:
            best_val = val
            best_y = y
    return best_y


def _scan_quadratic_segments(evaluate: Callable[[float], tuple[float, float]],
                             points: list[float],
                             v_p: float | None = None) -> tuple[float, float]:
    """Minimize a piecewise-quadratic 1-D function given its breakpoints.

    ``evaluate`` returns (value, residual); the residual's zero crossing is
    the one extra kink inside a segment.  Between refined breakpoints the
    function is a true quadratic, so a three-point fit locates the vertex
    exactly.  Returns (argmin, value); ties resolve to the smaller argument.
    Each distinct point is evaluated once.

    With ``v_p``, the caller vouches that the function is the leader
    surrogate along a price line whose moving followers all sit at branch
    vertices: on every refined segment its second derivative is then -2*v_p
    times the residual's slope (each such follower adds 2*v_p*hbar to the
    one and -hbar to the other).  A convex quadratic on [a, b] stays above
    min(fa, fb) - f''*width**2/8, which is
    min(fa, fb) - 0.25*v_p*(ra - rb)*width.  A segment whose bound exceeds
    the running best by more than a rounding margin, 1e-9*(1 + the largest
    |value| at the refined points), cannot hold a strictly smaller value,
    so its midpoint and vertex are not probed; the result is the one the
    full scan returns, bit for bit.
    """
    pts = sorted(set(points))
    at = list(map(evaluate, pts))
    # The refined points and their (value, residual) pairs.
    refined = [pts[0]]
    pairs = [at[0]]
    for a, bpt, (_, ra), b_pair in zip(pts, pts[1:], at, at[1:]):
        rb = b_pair[1]
        if (ra > 0.0) != (rb > 0.0) and ra != rb:
            cross = a + (bpt - a) * ra / (ra - rb)
            if a < cross < bpt:
                refined.append(cross)
                pairs.append(evaluate(cross))
        refined.append(bpt)
        pairs.append(b_pair)

    best_x = refined[0]
    best_val = worst = pairs[0][0]
    for x, (val, _) in zip(refined[1:], pairs[1:]):
        if val < best_val:
            best_val = val
            best_x = x
        elif val > worst:
            worst = val
    # A lone segment holds the best end, so it is never skipped.
    prune = v_p is not None and len(refined) > 2
    if prune:
        margin = 1e-9 * (1.0 + max(worst, -best_val))  # 1e-9 * (1 + max |value|)
    for a, bpt, (fa, ra), (fb, rb) in zip(refined, refined[1:], pairs, pairs[1:]):
        width = bpt - a
        if width < 1e-11:
            continue
        # Both ends above the cutoff is the cheap first test; the bound
        # only subtracts from the smaller end.
        if prune and fa > best_val + margin < fb and (
                (fa if fa < fb else fb) - 0.25 * v_p * max(ra - rb, 0.0) * width
                > best_val + margin):
            continue
        mid = 0.5 * (a + bpt)
        fm = evaluate(mid)[0]
        if fm < best_val:
            best_val = fm
            best_x = mid
        half = 0.5 * width
        curv = (fa - 2.0 * fm + fb) / (2.0 * half * half)
        if curv <= 1e-15:
            continue
        slope = (fb - fa) / width
        vertex = mid - slope / (2.0 * curv)
        # A vertex on the midpoint would only repeat its value.
        if a < vertex < bpt and vertex != mid:
            val = evaluate(vertex)[0]
            if val < best_val:
                best_val = val
                best_x = vertex
    return best_x, best_val


def _line_router(responder: QueueResponder, along_s: bool, price: float,
                 points: list[float]
                 ) -> Callable[[float, float], QueueResponder] | None:
    """Which responder answers a price pair while the polish scans a line.

    The line is p_b = ``price`` (``along_s``) or p_s = ``price``, over the
    scan points ``points``.  A line of more than POLISH_CHUNK distinct points
    is split into runs: run k spans the sorted points k*POLISH_CHUNK to
    min((k+1)*POLISH_CHUNK, last), so consecutive hulls share an endpoint and
    together cover the line.  A pair on the line goes to ``responder`` (the
    band's) restricted to its run's hull, the later run's at a shared
    endpoint, and any other pair to ``responder`` itself.  Each run's
    responder is certified when first asked; its answers are the band
    responder's, bit for bit.  None means ``responder`` answers the whole
    line: it has at most POLISH_CHUNK distinct points.
    """
    # The distinct points, sorted, of a line that may need splitting.
    pts = sorted(set(points)) if len(points) > POLISH_CHUNK else ()
    if len(pts) <= POLISH_CHUNK:
        return None
    lo, hi = pts[0], pts[-1]
    starts = pts[:-1:POLISH_CHUNK]
    boxes = [(a, b, price, price) if along_s else (price, price, a, b)
             for a, b in zip(starts, starts[1:] + [hi])]
    built: dict[int, QueueResponder] = {}

    def route(ps: float, pb: float) -> QueueResponder:
        x, at = (ps, pb) if along_s else (pb, ps)
        if at != price or not lo <= x <= hi:
            return responder
        run = bisect_right(starts, x) - 1
        got = built.get(run)
        if got is None:
            got = built[run] = responder.restrict(*boxes[run])
        return got

    return route


def _polish(action: LeaderAction, responder, b: float, slot: SlotData,
            c_b: float, v_p: float, y_box: tuple[float, float],
            config: GameConfig
            ) -> tuple[LeaderAction, int, list[float], list[float]]:
    """Coordinate-exact refinement of the leader action to a fixed point.

    Returns the action, the sweeps made, and the follower draws and
    interchanges at the action.  The followers' responses do not depend on
    ``y``, so each price pair is answered once per call: a memo keyed by the
    exact (p_s, p_b) holds the draws, the interchanges and their trade sums,
    and a surrogate evaluation at a known pair is only the closing
    arithmetic in ``y``.  ``responder`` is the band's; a pair missing from
    the memo is answered by the responder ``_line_router`` picks for the
    line being scanned, which gives the band responder's answer.
    """
    m_s, m_b, g_t = slot.m_s, slot.m_b, slot.g_t
    p_s, p_b, y = action.p_s, action.p_b, action.y
    raw_pts = responder.price_breakpoints()
    # With gamma = 0 a free follower's draw jumps at its breakpoints, so the
    # scan's curvature bound holds only when every free one has a vertex.
    bound_v_p = v_p if all(r.has_vertex for r in responder._free_rules) else None
    memo: dict[tuple[float, float], tuple] = {}
    sweeps = 0
    route = None  # the band's responder answers (_line_router)

    def trade(ps: float, pb: float) -> tuple:
        # (draws, interchanges, revenue, sequential total, exact total).
        got = memo.get((ps, pb))
        if got is None:
            answerer = responder if route is None else route(ps, pb)
            es, tps = answerer.respond(ps, pb)
            got = memo[ps, pb] = (es, tps, *_trade_sums(ps, pb, tps),
                                  math.fsum(tps))
        return got

    def evaluate(ps: float, pb: float) -> tuple[float, float]:
        # Surrogate and net residual at (ps, pb), y fixed.
        _, _, revenue, total, exact = trade(ps, pb)
        return (_close_pro_prime(revenue, total, y, b, g_t, m_s, m_b, v_p, c_b),
                exact - g_t + y)

    for _ in range(POLISH_PASSES):
        sweeps += 1
        prev = (p_s, p_b, y)

        lo_s, hi_s = p_b + config.min_gap, m_s
        if hi_s - lo_s > 1e-12:
            pts = [lo_s, hi_s] + [x for x in raw_pts if lo_s < x < hi_s]
            route = _line_router(responder, True, p_b, pts)
            cand, val = _scan_quadratic_segments(lambda x: evaluate(x, p_b), pts,
                                                 bound_v_p)
            if val < evaluate(p_s, p_b)[0]:
                p_s = cand

        lo_b, hi_b = m_b, p_s - config.min_gap
        if hi_b - lo_b > 1e-12:
            pts = [lo_b, hi_b] + [x for x in raw_pts if lo_b < x < hi_b]
            route = _line_router(responder, False, p_s, pts)
            cand, val = _scan_quadratic_segments(lambda x: evaluate(p_s, x), pts,
                                                 bound_v_p)
            if val < evaluate(p_s, p_b)[0]:
                p_b = cand

        y = _argmin_charge(trade(p_s, p_b)[1], b, g_t, m_s, m_b, v_p, c_b,
                           y_box[0], y_box[1])

        if (abs(p_s - prev[0]) < POLISH_TOL
                and abs(p_b - prev[1]) < POLISH_TOL
                and abs(y - prev[2]) < POLISH_TOL):
            break
    return (LeaderAction(p_s=p_s, p_b=p_b, y=y), sweeps, *trade(p_s, p_b)[:2])


# ---------------------------------------------------------------------------
# The per-slot solve
# ---------------------------------------------------------------------------


def _follower_actions(es: Sequence[float], tps: Sequence[float]
                      ) -> tuple[FollowerAction, ...]:
    """The draws and interchanges as actions, built with ``tuple.__new__``:
    a named tuple's own constructor is a Python function."""
    return tuple(map(tuple.__new__, repeat(FollowerAction), zip(es, tps)))


def _start(m_s: float, m_b: float, min_gap: float, y_lo: float,
           y_hi: float) -> tuple[float, float, float]:
    """The loop's first iterate: mid-band prices ``min_gap`` apart, y = 0."""
    mid = 0.5 * (m_s + m_b)
    return _project(mid + 0.5 * min_gap, mid - 0.5 * min_gap, 0.0, m_s, m_b,
                    max(m_s - min_gap, m_b), y_lo, y_hi, min_gap)


def _against_fixed_draws(es: Sequence[float], tps: Sequence[float],
                         b: float, slot: SlotData, c_b: float, v_p: float,
                         y_box: tuple[float, float],
                         min_gap: float) -> SlotSolution:
    """The leader's exact optimum against draws ``es`` and interchanges
    ``tps`` that no price moves, with the empty trace.  The surrogate is
    linear in each price (Labbé, Marcotte & Savard 1998): p_s = m_s if some
    interchange in ``tps`` is >= 0, p_b = m_b if some is < 0.  A price
    nobody trades on (either, with no follower) changes no payoff, so it is
    not identified; it is posted at the loop's start.  y is the exact
    charge."""
    m_s, m_b = slot.m_s, slot.m_b
    check_band(m_s, m_b, min_gap)
    buys = max(tps, default=-1.0) >= 0.0
    sells = min(tps, default=0.0) < 0.0
    start = (m_s, m_b) if buys and sells else _start(m_s, m_b, min_gap, *y_box)
    leader = LeaderAction(m_s if buys else start[0], m_b if sells else start[1],
                          _argmin_charge(tps, b, slot.g_t, m_s, m_b, v_p, c_b, *y_box))
    return SlotSolution(leader, _follower_actions(es, tps))


def _solve_with_responder(responder, b: float, slot: SlotData,
                          pme_params: PmeParams, pme_control: PmeControl,
                          config: GameConfig,
                          y_box: tuple[float, float] | None = None) -> SlotSolution:
    m_s, m_b, g_t = slot.m_s, slot.m_b, slot.g_t
    min_gap, rho = config.min_gap, config.rho
    y_lo, y_hi = y_box = y_box or (-pme_params.u_dmax, pme_params.u_cmax)
    if config.polish and not responder.free:
        return _against_fixed_draws(responder._draws, responder._tps, b, slot,
                                    pme_params.c_b, pme_control.v_p, y_box,
                                    min_gap)
    check_band(m_s, m_b, min_gap)
    pb_hi = max(m_s - min_gap, m_b)
    reach = TRUST_HALF_WIDTH * (m_s - m_b)
    # The trust box (empty until the first iterate certifies one).
    box_s_lo = box_b_lo = math.inf
    box_s_hi = box_b_hi = -math.inf

    p_s, p_b, y = _start(m_s, m_b, min_gap, y_lo, y_hi)
    records: list[IterationRecord] = []
    converged = False
    for m in range(1, config.max_iters + 1):
        if not (box_s_lo <= p_s <= box_s_hi and box_b_lo <= p_b <= box_b_hi):
            local = responder.restrict(max(p_s - reach, m_b), min(p_s + reach, m_s),
                                       max(p_b - reach, m_b), min(p_b + reach, m_s))
            box_s_lo, box_s_hi, box_b_lo, box_b_hi = local.box
        es, tps, slopes = local.respond_full(p_s, p_b)
        g_ps, g_pb, g_y = subgradients(p_s, p_b, y, tps, b, g_t, m_s, m_b,
                                       pme_control, pme_params, slopes,
                                       free=local.free, sums=local.sums)
        steps = _step_sizes(m)
        n_s, n_b, n_y = _project(p_s - steps[0] * g_ps, p_b - steps[1] * g_pb,
                                 y - steps[2] * g_y, m_s, m_b, pb_hi,
                                 y_lo, y_hi, min_gap)
        d_s, d_b, d_y = abs(n_s - p_s), abs(n_b - p_b), abs(n_y - y)
        records.append(IterationRecord(p_s, p_b, y, g_ps, g_pb, g_y,
                                       d_s, d_b, d_y, es))
        p_s, p_b, y = n_s, n_b, n_y
        if d_s < rho and d_b < rho and d_y < rho:
            converged = True
            break

    chi = LeaderAction(p_s=p_s, p_b=p_b, y=y)
    if config.polish:
        chi, sweeps, es, tps = _polish(chi, responder, b, slot, pme_params.c_b,
                                       pme_control.v_p, y_box, config)
    else:
        sweeps = 0
        es, tps = responder.respond(p_s, p_b)
    trace = IterationTrace(records=tuple(records), converged=converged,
                           polish_sweeps=sweeps)
    return SlotSolution(chi, _follower_actions(es, tps), trace)


def solve_slot(state: SlotState, slot: SlotData,
               models: Sequence[FollowerModel],
               pme_params: PmeParams, pme_control: PmeControl,
               config: GameConfig) -> SlotSolution:
    """Solve one slot's leader/follower game; ``models`` are the run's
    building constants (``nanogrid.follower_models``).

    Non-convergence at the iteration cap is reported through the trace, not
    raised; the last iterate is still polished and returned.
    """
    responder = QueueResponder(state, slot, models)
    return _solve_with_responder(responder, state.b, slot, pme_params,
                                 pme_control, config)
