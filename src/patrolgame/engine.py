"""Interception evaluation and best-response searches.

Exact evaluation runs on one integer kernel, `_walk_measures`: one walk, a
start-time law and a list of points, with the attack duration, the law's
time and every offset on one integer scale (`network._on_scale`) and the
walk's visits read from a `_WalkIndex` (kept in `network.py`, beside
`Walk`).  The law is a cell [s0, s1) of start times (`_cell`), and a point's
caught start times are the union of its visits' windows [v - alpha, v +
tick) within it.  A uniform law on [0, H] is the cell [0, H) with a tick of
0; a fixed time t is the unit cell [t, t + 1) with a tick of 1.  That is
exact because t, alpha and every visit are integers on the common scale:
v - alpha <= t <= v holds exactly when [t, t + 1) meets [v - alpha, v + 1).
`walk_attack_probability` and `intercept` are fronts over the kernel for one
deterministic walk, and `patrol_search` scores its walks by the same rule.
A walk with a uniform phase catches an attack as it does from a start
uniform over one period, so `evaluate`, `attacker_best_response` and
`interception_probability` add each walk's weight times its measures under
that law over the period, on one common denominator; the only Fraction a
point gets is its probability.
Continuous spatial attack parts are handled by midpoint-grid quadrature or
Monte Carlo; an exact coverage integral for piecewise-uniform attacks is
deliberately not provided.  Monte Carlo is the only place floating
point appears.  Its trials come in chunks of a fixed size, each chunk
reading its own stretch of a counter-based stream keyed by the seed, so a
result does not depend on how the chunks are shared among worker threads,
and memory does not grow with the trial count; the chunk size is part of the
stream, so changing it changes every hit count.  A chunk first draws one
word per trial that picks its (walk, spatial entry) key from one table over
equal buckets of [0, 1) (binary search only in the buckets that hold a
boundary) of exact prefix sums of the products of walk weight and entry
mass, and counts the trials of each key.  Its trials are exchangeable, so it
then takes them in key order: each key's trials are one run, and it draws
one phase word per trial on a moving walk, then one offset word per such
trial on a segment, each walk's phases with one multiply and its offsets
with one repeat of its segments' ends.  Worker w takes chunks w, w +
workers, ..., and there are never more workers than chunks or cores.  A
trial draws no start time: every walk has a uniform phase, so (phase + t)
mod P is uniform on [0, P) for any start time t, fixed or drawn, and the
phase alone, phi = u * P, places the trial on its walk of period P (as the
exact kernel reads no start-time law either).  It is then scored by float
comparisons with windows built once per (walk, entry) pair from the exact
visit times: an atom visited at v catches phi in [v - alpha, v] modulo P,
and a step on a segment catches off - phi (forward) or off + phi (backward)
in windows a period apart, with the offset test kept only where the step
covers part of the segment.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# numpy is imported only inside the three Monte Carlo functions, so that a
# process that never runs Monte Carlo (most one-shot CLI commands) never loads it

from .errors import SizeGuardError, ValidationError
from .network import (Network, Point, SubNetwork, Walk, _is_int, _merge_intervals, _on_scale,
                      _require_on_network, _require_same_network, _walk, _WalkIndex, frac)
from .strategies import AttackStrategy, PatrolStrategy, TemporalLaw


def _duration(alpha) -> Fraction:
    """The attack duration as an exact rational, rejected when negative."""
    alpha = frac(alpha)
    if alpha < 0:
        raise ValidationError("attack duration must be nonnegative")
    return alpha


def _covered_measure(visits: Sequence[int], alpha: int, period: int) -> int:
    """Measure of the phases in one period for which some visit falls in the
    attack window: the sum of min(gap, alpha) over the cyclic gaps between
    the sorted visit times in [0, period] (at least one), or the whole
    period once alpha reaches it."""
    if alpha >= period:
        return period
    total = 0
    prev = visits[-1] - period
    for v in visits:
        total += v - prev if v - prev < alpha else alpha
        prev = v
    return total


def _require_attack(net: Network, attack: AttackStrategy) -> None:
    """Raise unless the attack is on `net` and each of its atoms lies on it,
    at a node or inside an arc."""
    _require_same_network(net, attack.network, "attack")
    for p, _ in attack.atoms:
        _require_on_network(net, p)


def _cell(law: TemporalLaw, t: int) -> tuple[int, int, int]:
    """The start cell [s0, s1) of `law`, whose value is t on the integer
    clock, and the tick by which its windows close late: (0, H, 0) for a
    uniform law on [0, H], (t, t + 1, 1) for a fixed time t."""
    return (0, t, 0) if law.kind == "uniform" else (t, t + 1, 1)


def _walk_measures(walk: Walk, points: Sequence[Point], alpha: Fraction, law: TemporalLaw,
                   dwell_at_end: bool) -> tuple[int, list[int]]:
    """The one coverage rule: the width of the cell of start times of `law`
    and, for an attack at each point, the measure of the start times in it
    at which one deterministic walk catches it; integers on one scale.

    An attack at x starting at t is caught when the patrol is at x at some
    instant of [t, t + alpha].  A closed walk that moves repeats forever.  A
    stationary walk holds its point, and so does an open walk with
    `dwell_at_end`, from its end time D on; an open walk without it must
    cover a fixed-law window.  A point's caught start times are the union of
    the windows [v - alpha, v + tick) within the law's cell over its visits
    v, plus [D - alpha, s1) for a hold.  A repeating walk adds its whole
    periods by `_covered_measure` and unrolls its visits only over the part
    of a period left.  Alpha, the law's time, the point offsets and the
    walk's clock share one integer scale.
    """
    repeat = walk.is_closed and not walk.is_stationary
    hold = walk.is_stationary or (dwell_at_end and not walk.is_closed)
    scale, (a, t, *offsets) = _on_scale(
        walk._scale, [alpha, law.value, *(p.offset for p in points if not p.is_node)])
    offsets = iter(offsets)
    index = _WalkIndex(walk, scale // walk._scale)
    end = index.period
    s0, s1, tick = _cell(law, t)
    width, whole = s1 - s0, 0
    if law.kind == "fixed" and not (repeat or hold) and t + a > end:
        raise ValidationError("attack window extends past the end of an open walk")
    if repeat:  # the cell shifted into the first period, less its whole periods
        a = min(a, end)  # a window of a whole period already covers every start
        s0 %= end
        whole, rest = divmod(width, end)
        s1 = s0 + rest
    measures = []
    for p in points:
        visits = index.visits(p, None if p.is_node else next(offsets))
        covered, reach = 0, s0
        if repeat and visits:  # whole periods at once, then the visits up to the rest + alpha
            covered = whole * _covered_measure(visits, a + tick, end)
            visits = [v + k * end for k in range((s1 + a) // end + 1) for v in visits] if s1 > s0 else ()
        # the windows come sorted by both ends, so each adds its part past `reach`
        for v in visits:
            lo, hi = max(v - a, reach), min(v + tick, s1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        if hold and p == walk.end_point:
            covered += max(s1 - max(end - a, reach), 0)
        measures.append(covered)
    return width, measures


def intercept(walk: Walk, x: Point, t, alpha, dwell_at_end: bool = False) -> bool:
    """Whether the walk occupies x at some instant of the closed attack
    window [t, t + alpha].

    Closed walks repeat forever; open walks must cover the window unless
    `dwell_at_end` grants the patrol permission to wait at its final point.
    """
    t, alpha = frac(t), _duration(alpha)
    _require_on_network(walk.net, x)
    width, (caught,) = _walk_measures(walk, [x], alpha, TemporalLaw.fixed(t), dwell_at_end)
    return caught == width


def _interception_probabilities(patrol: PatrolStrategy, points: Sequence[Point],
                                alpha: Fraction) -> list[Fraction]:
    """Exact interception probability of an attack of duration alpha at each
    point, with uniform phases.

    A walk with a uniform phase catches an attack as the walk does from a
    start uniform over one period P, so each walk of weight s > 0 adds s
    times its `_walk_measures` under `TemporalLaw.uniform(P)`, over the
    cell's width; a stationary walk's law is the fixed time 0, and it holds
    its point.  The weights over the widths go over one common denominator,
    so each point's sum is an integer until its one Fraction.
    """
    walks = [(s, *_walk_measures(w, points, alpha, TemporalLaw.uniform(w.duration), True))
             for w, s in patrol.components if s]
    denominator = math.lcm(*(s.denominator * width for s, width, _ in walks))
    totals = [0] * len(points)
    for s, width, measures in walks:
        coef = s.numerator * (denominator // (s.denominator * width))
        totals = [t + coef * m for t, m in zip(totals, measures)]
    return [Fraction(t, denominator) for t in totals]


def interception_probability(patrol: PatrolStrategy, x: Point, t, alpha) -> Fraction:
    """Exact probability that the phase-randomized mixture intercepts an
    attack at x starting at time t.  Uniform phases make the result invariant
    in t; the argument is kept for interface fidelity and must be
    nonnegative, as for any fixed start time."""
    TemporalLaw.fixed(t)
    _require_on_network(patrol.network, x)
    return _interception_probabilities(patrol, [x], _duration(alpha))[0]


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationResult:
    probability: object  # Fraction for exact/grid, float for Monte Carlo
    method: str
    trials: int | None = None
    seed: int | None = None
    ci_halfwidth: float | None = None
    notes: str = ""


def _exact_atomic(patrol: PatrolStrategy, attack: AttackStrategy, alpha) -> Fraction:
    atoms = [(p, m) for p, m in attack.atoms if m]
    probs = _interception_probabilities(patrol, [p for p, _ in atoms], alpha)
    return sum((m * q for (_, m), q in zip(atoms, probs)), Fraction(0))


def evaluate(patrol: PatrolStrategy, attack: AttackStrategy, alpha, *,
             method: str = "exact", trials: int = 100_000, seed: int = 0,
             grid_step=Fraction(1, 8), jobs: int = 1) -> EvaluationResult:
    """Probability that the patrol intercepts the attack strategy.

    ``exact`` requires a purely atomic spatial part and falls back to the
    grid quadrature (with a note) otherwise; ``grid`` replaces uniform parts
    by midpoint atoms at the given step and is exact from there on; ``mc``
    runs seeded Monte Carlo and reports a 95% confidence half-width.
    """
    alpha = _duration(alpha)
    _require_attack(patrol.network, attack)
    if method in ("mc", "monte-carlo"):
        return _mc_evaluate(patrol, attack, alpha, trials, seed, jobs)
    if method == "exact" and attack.is_atomic:
        return EvaluationResult(_exact_atomic(patrol, attack, alpha), "exact")
    if method in ("exact", "grid"):
        note = "continuous spatial part: exact mode fell back to grid quadrature" if method == "exact" else ""
        disc = attack.discretized(grid_step)
        return EvaluationResult(_exact_atomic(patrol, disc, alpha), "grid", notes=note)
    raise ValidationError(f"unknown evaluation method {method!r}")


# -- Monte Carlo ----------------------------------------------------------------

# The stream: chunk c holds trials [c * _CHUNK_TRIALS, (c + 1) * _CHUNK_TRIALS)
# and reads the Philox stream keyed by the seed from counter block
# c * _CHUNK_TRIALS on (four words a block), each word as the uniform
# (word >> 11) * 2**-53, which Generator.random computes in C.  It reads one
# word per trial that picks the trial's (walk, entry) key; then, the trials
# taken in key order, one phase word per trial on a moving walk; then, in
# the same order, one offset word per such trial on a segment.  A trial on
# a stationary walk draws nothing after its pick, and no trial draws a start
# time, which cannot move a uniform phase.  A chunk reads at most three words
# per trial, so chunks never overlap.  The chunk size is part of the stream:
# another size gives other, equally valid, hit counts.  Memory does not grow
# with the trial count, and neither the number of workers nor the one that
# scores a chunk shows in the result.
_CHUNK_TRIALS = 2 ** 16
_PICK_BUCKETS = 2 ** 12


def _bucket_pick(cum: np.ndarray):
    """A function of uniforms u in [0, 1) equal to
    ``np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)``,
    an intp array.

    [0, 1) is cut into _PICK_BUCKETS equal buckets; u * _PICK_BUCKETS is exact,
    so its integer part is u's bucket.  A bucket with no value of `cum`
    strictly inside it gives every u in it the same index, read from a table;
    the draws in the other buckets (marked -1) go to `searchsorted`."""
    import numpy as np
    last = len(cum) - 1
    edges = np.arange(_PICK_BUCKETS + 1) / _PICK_BUCKETS
    at_low = np.searchsorted(cum, edges[:-1], side="right")
    below_high = np.searchsorted(cum, edges[1:], side="left")
    table = np.where(below_high > at_low, -1, np.minimum(at_low, last))

    def pick(u: np.ndarray) -> np.ndarray:
        idx = table[(u * _PICK_BUCKETS).astype(np.intp)]
        mixed = np.flatnonzero(idx < 0)
        if len(mixed):
            idx[mixed] = np.minimum(np.searchsorted(cum, u[mixed], side="right"), last)
        return idx

    return pick


def _cumulative(masses) -> np.ndarray:
    """The prefix sums of exact masses that sum to 1, each the correctly
    rounded float of its exact value (Python's int division rounds
    correctly), so a zero mass repeats the boundary before it and the last
    boundary is 1.0: no draw in [0, 1) picks a zero-mass entry."""
    import numpy as np
    scale, ints = _on_scale(1, masses)
    return np.array([c / scale for c in itertools.accumulate(ints)])


def _windows(starts, alpha: int, period: int, scale: int, lo: float, hi: float):
    """The closed windows [c + k * period, c + k * period + alpha] / scale,
    over the starts c and all integers k, that meet [lo, hi], each end
    rounded once from the integer scale: in increasing order and merged
    (rounding is monotone, so it keeps the union's floats).  None when they
    cover [lo, hi], as they cover every number once alpha reaches the
    period.  A window that meets [lo, hi] only within rounding of an end may
    be left out: callers widen [lo, hi] by a slack no draw reaches."""
    if alpha >= period:
        return None
    span, windows = period / scale, []
    for c in starts:  # float bounds on k can err only at an end of [lo, hi]
        first = math.ceil((lo - (c + alpha) / scale) / span)
        for k in range(first, math.floor((hi - c / scale) / span) + 1):
            windows.append(((c + k * period) / scale, (c + k * period + alpha) / scale))
    if len(starts) > 1:
        windows = _merge_intervals(windows)
    return None if any(x <= lo and hi <= y for x, y in windows) else tuple(windows)


def _segment_task(steps, alpha: int, period: int, scale: int, lo: float, width: float,
                  slack: float):
    """The clauses that catch a trial at offset off = lo + u * width of a
    segment, u in [0, 1), on a moving walk of `period` with `steps` (start
    time, low, high and entry offset on `scale`) on the segment's arc, as
    `_mc_evaluate` states them; True when every trial is caught, None when
    none is.

    A step visits off at t0 + |off - o1|, so against the phase phi it catches
    off - phi (row 1) in the windows started at o1 - t0 when it runs forward,
    and off + phi (row 2) in those started at t0 + o1 - alpha when it runs
    back.  The offsets a draw reaches are known exactly, so a step that
    misses them all is dropped, and off itself (row 3) is tested only
    against a step that covers some of them."""
    top = lo + (1 - 2 ** -53) * width  # the largest offset a draw reaches
    span = period / scale
    clauses = []
    for t0, o_min, o_max, o1 in steps:
        below, above = o_min / scale, o_max / scale
        if top < below or above < lo:
            continue
        # off - phi ranges over [x_lo - span, x_hi], off + phi over [x_lo, x_hi + span]
        row, start, back = (1, o1 - t0, span) if o1 == o_min else (2, t0 + o1 - alpha, 0)
        found = _windows([start], alpha, period, scale, max(lo, below) - back - slack,
                         min(top, above) + span - back + slack)
        if found == ():
            continue
        tests = () if found is None else ((row, found),)
        if lo < below or above < top:
            tests += ((3, ((below, above),)),)
        if not tests:
            return True
        clauses.append(tests)
    return tuple(clauses) or None


def _within(x: np.ndarray, windows) -> np.ndarray:
    """Whether each value of x lies in one of the closed windows."""
    got = (x >= windows[0][0]) & (x <= windows[0][1])
    for lo, hi in windows[1:]:
        got |= (x >= lo) & (x <= hi)
    return got


def _mc_evaluate(patrol, attack, alpha, trials, seed, jobs) -> EvaluationResult:
    import numpy as np
    if not _is_int(trials) or trials <= 0:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    if not _is_int(jobs) or jobs <= 0:
        raise ValidationError(f"jobs must be a positive integer, got {jobs!r}")
    if not _is_int(seed) or not 0 <= seed < 2 ** 128:
        raise ValidationError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    trials, seed = int(trials), int(seed)
    walks = [w for w, _ in patrol.components]

    # flatten the spatial measure: atoms, then per-segment slices of each part
    entries = []  # ("atom", point) | ("seg", arc, lo, hi)
    masses = []
    for point, mass in attack.atoms:
        entries.append(("atom", point))
        masses.append(mass)
    for part in attack.uniform_parts:
        d = part.density
        for seg in part.region.segment_list():
            entries.append(("seg", seg.arc, float(seg.lo), float(seg.hi)))
            masses.append(d * seg.measure)
    n_entries, n_atoms = len(entries), len(attack.atoms)
    n_keys = len(walks) * n_entries
    seg_lo = np.array([e[2] for e in entries[n_atoms:]])
    seg_width = np.array([e[3] - e[2] for e in entries[n_atoms:]])
    # key walk * n_entries + entry is picked with the walk's weight times the entry's mass
    pick = _bucket_pick(_cumulative(s * m for _, s in patrol.components for m in masses))

    # One task per (walk, entry) pair that can intercept, keyed by
    # walk * n_entries + entry: True when every trial is caught (a stationary
    # walk on the atom, or windows that cover every phase), else a tuple of
    # clauses, any of which catches a trial; a clause is a tuple of (row,
    # windows) tests on the rows that `score` fills, which must all hold.
    # Alpha, visits and steps are ints on one scale, so each window end is
    # rounded once; windows no phase within `slack` of [0, P] reaches go.
    interior = [e[1] for e in entries if e[0] == "atom" and not e[1].is_node]
    scale, (a, *offsets) = _on_scale(math.lcm(*[w._scale for w in walks]),
                                     [alpha, *(p.offset for p in interior)])
    atom_offsets = dict(zip(interior, offsets))
    reach = max((e[3] for e in entries[n_atoms:]), default=0.0)
    moving = []  # (walk, period) of the walks that move
    tasks = {}
    for i, w in enumerate(walks):
        index = _WalkIndex(w, scale // w._scale)
        span = index.period / scale
        if index.period:
            moving.append((i, span))
        # far above the rounding of phi and off; past a period, phi means nothing
        slack = min(span, (2 * span + reach) * 2 ** -40)
        for j, e in enumerate(entries):
            if not index.period:  # a stationary walk catches only an atom at its point
                task = True if e[0] == "atom" and e[1] == w.start else None
            elif e[0] == "atom":
                visits = {v % index.period for v in index.visits(e[1], atom_offsets.get(e[1]))}
                found = _windows([v - a for v in visits], a, index.period, scale, -slack,
                                 span + slack) if visits else ()
                task = True if found is None else (((0, found),),) if found else None
            else:
                task = _segment_task(index.by_arc.get(e[1], ()), a, index.period, scale,
                                     e[2], e[3] - e[2], slack)
            if task is not None:
                tasks[i * n_entries + j] = task

    def score(start: int, rows: np.ndarray) -> int:
        """Hits among the trials of the chunk that starts at trial `start`,
        one per column of `rows`, read from the stream as laid out above.

        The pick words, drawn into row 0, count the trials of each key.
        The trials are then taken in key order, so each key's trials are one
        run of columns and each walk's keys are adjacent runs.  Row 0 then
        holds a moving walk's phases u * P, in [0, P]; a segment trial also
        gets its offset off (row 3), off - phase (row 1) and off + phase
        (row 2).  Each key then compares its run of those rows with its
        task's windows."""
        gen = np.random.Generator(np.random.Philox(key=seed))
        gen.bit_generator.advance(start)  # four words per counter block
        gen.random(out=rows[0])
        counts = np.bincount(pick(rows[0]), minlength=n_keys)
        edges = [0, *np.cumsum(counts).tolist()]  # key k's trials: [edges[k], edges[k + 1])
        runs = [(edges[i * n_entries], edges[i * n_entries + n_atoms], edges[(i + 1) * n_entries],
                 counts[i * n_entries + n_atoms:(i + 1) * n_entries], span) for i, span in moving]
        for lo_i, _, hi_i, _, span in runs:
            phase = rows[0, lo_i:hi_i]
            gen.random(out=phase)
            phase *= span
        for _, mid, hi_i, per_seg, _ in runs:
            if mid < hi_i:
                off = rows[3, mid:hi_i]
                gen.random(out=off)
                off *= np.repeat(seg_width, per_seg)
                off += np.repeat(seg_lo, per_seg)
                np.subtract(off, rows[0, mid:hi_i], out=rows[1, mid:hi_i])
                np.add(off, rows[0, mid:hi_i], out=rows[2, mid:hi_i])
        hits = 0
        for k in np.flatnonzero(counts).tolist():
            task = tasks.get(k)
            if task is None:
                continue
            lo_i, hi_i = edges[k], edges[k + 1]
            if task is True:
                hits += hi_i - lo_i
                continue
            got = None
            for (row, windows), *more in task:
                hit = _within(rows[row, lo_i:hi_i], windows)
                for row, windows in more:
                    hit &= _within(rows[row, lo_i:hi_i], windows)
                got = hit if got is None else got | hit
            hits += int(np.count_nonzero(got))
        return hits

    starts = range(0, trials, _CHUNK_TRIALS)
    workers = min(jobs, len(starts), os.cpu_count() or 1)

    def run_worker(w: int) -> int:
        """Hits in chunks w, w + workers, ...; one set of rows serves all
        of them."""
        rows = np.empty((4 if attack.uniform_parts else 1, min(_CHUNK_TRIALS, trials)))
        return sum(score(start, rows[:, :min(_CHUNK_TRIALS, trials - start)])
                   for start in starts[w::workers])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(run_worker, range(workers)))
    else:
        hits = run_worker(0)
    p_hat = hits / trials
    half = 1.96 * math.sqrt(max(p_hat * (1 - p_hat), 0.0) / trials)
    return EvaluationResult(p_hat, "monte-carlo", trials=trials, seed=seed, ci_halfwidth=half)


# -- best responses -------------------------------------------------------------


@dataclass(frozen=True)
class BestResponse:
    point: Point
    time: Fraction
    probability: Fraction
    space_step: Fraction
    time_step: Fraction | None


def attacker_best_response(patrol: PatrolStrategy, alpha, *, space_step,
                           time_step=None, extra_points: Sequence[Point] = ()) -> BestResponse:
    """Minimize the exact interception probability over a spatial grid (all
    nodes, supplied structural points, and uniform subdivisions).

    Uniform phases make the probability independent of the attack's start
    time, so every point is scored once at time 0.  Each extra point must
    lie on the patrol's network.  `time_step` does not change the result
    and is deprecated: passing it emits a `DeprecationWarning`; it is still
    echoed in `BestResponse.time_step`.
    """
    if time_step is not None:
        warnings.warn("time_step does not change the best response and is deprecated",
                      DeprecationWarning, stacklevel=2)
    alpha = _duration(alpha)
    net = patrol.network
    for p in extra_points:
        _require_on_network(net, p)
    grid = SubNetwork.whole(net).grid_points(space_step, extra=extra_points)
    probs = _interception_probabilities(patrol, grid, alpha)
    best = None
    for x, prob in zip(grid, probs):
        if best is None or prob < best[0]:
            best = (prob, x)
    prob, x = best
    return BestResponse(x, Fraction(0), prob, frac(space_step),
                        None if time_step is None else frac(time_step))


# -- patrol families and search ---------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    walk: Walk
    probability: Fraction
    walks_examined: int


def patrol_search(net: Network, attack: AttackStrategy, alpha, *, max_steps: int = 8,
                  offset_step=Fraction(1, 4), grid_step=Fraction(1, 4),
                  max_walks: int = 2_000_000) -> SearchResult:
    """Best patrol among unit-speed node-waypoint walks, by branch and bound.

    Walks start at a node, or at an interior grid offset heading for an
    endpoint, then take up to `max_steps` full arc steps; on finishing a walk
    the patrol waits at its final position.  Scores are exact against the
    grid-discretized attack: integers on a common scale of times and masses,
    updated step by step; the result is one exact rational built at the end.
    Walks are taken depth first, each prefix before its extensions, and the
    first walk of the best score wins.  Every walk of the family is scored
    or counted: the search skips the extensions of a walk when an upper bound
    on what they can add cannot beat the best score so far, which changes
    neither the best score nor the first walk that reaches it.  A walk of
    `max_steps` steps is scored from its prefix without descending into it.
    `walks_examined` is the size of the whole family, skipped walks included.
    A family of more than `max_walks` walks, or a `max_steps` at or beyond
    the interpreter's recursion limit, raises `SizeGuardError` before any
    walk is scored; an attack on another network, a `max_steps` that is no
    nonnegative integer, a `max_walks` that is no positive integer or a
    non-positive `offset_step` raises `ValidationError`.

    A closed walk is held at its end point like an open one, not repeated;
    `walk_attack_probability` repeats a closed walk periodically, so on a
    closed walk the two can give different probabilities.
    """
    alpha = _duration(alpha)
    _require_attack(net, attack)
    if not _is_int(max_steps):
        raise ValidationError(f"max_steps must be an integer, got {max_steps!r}")
    if not _is_int(max_walks) or max_walks <= 0:
        raise ValidationError(f"max_walks must be a positive integer, got {max_walks!r}")
    if max_steps >= sys.getrecursionlimit():
        raise SizeGuardError(f"max_steps={max_steps} exceeds the recursion limit")
    if max_steps < 0:
        raise ValidationError(f"max_steps must be nonnegative, got {max_steps!r}")
    offset_step = frac(offset_step)
    if offset_step <= 0:
        raise ValidationError(f"offset step must be positive, got {offset_step}")
    disc = attack.discretized(grid_step)
    (D, lengths), atoms = net._units, disc.atoms
    scale, (alpha_i, law_i, step_i, *offsets) = _on_scale(
        D, [alpha, disc.temporal.value, offset_step, *(p.offset for p, _ in atoms if not p.is_node)])
    s0, s1, tick = _cell(disc.temporal, law_i)
    arc_len = {aid: ln * (scale // D) for aid, ln in lengths.items()}
    mass_scale, masses = _on_scale(1, (m for _, m in atoms))

    by_arc: dict[str, list[tuple[int, int, int]]] = {}  # arc -> (atom, scaled offset, mass)
    node_atoms: dict[str, tuple[int, int]] = {}  # node -> (atom, mass)
    offsets = iter(offsets)
    for idx, ((p, _), m) in enumerate(zip(atoms, masses)):
        if p.is_node:
            node_atoms[p.node] = (idx, m)
        else:
            by_arc.setdefault(p.arc, []).append((idx, next(offsets), m))

    def move(record, arc_id, entry: int, exit_: int, node: str) -> tuple:
        """A move along an arc from offset entry to exit_, ending at `node`:
        (record, node, duration, hits, end atom).  Hits are (atom, time after
        the move starts, mass) for the arc atoms passed, then the node's
        atom; the end atom is the node's (atom, mass), or None."""
        lo, hi = min(entry, exit_), max(entry, exit_)
        hits = [(idx, abs(off - entry), m) for idx, off, m in by_arc.get(arc_id, ())
                if lo <= off <= hi]
        end = node_atoms.get(node)
        if end is not None:
            hits.append((end[0], hi - lo, end[1]))
        return record, node, hi - lo, tuple(hits), end

    # moves[node] holds the full arc steps from a node; moves[None] the
    # walks' starts: each node, then each interior grid offset heading for
    # either endpoint of its arc.
    moves: dict[str | None, list[tuple]] = {None: []}
    for name in net.nodes:
        moves[None].append(move(("start-node", name), None, 0, 0, name))
        moves[name] = []
        for a in net.incident(name):
            if a.u != a.v:
                entry = 0 if a.u == name else arc_len[a.id]
                exit_ = arc_len[a.id] - entry
                moves[name].append(move((a.id, entry, exit_), a.id, entry, exit_, a.other(name)))
    for a in net.arcs:
        if a.u == a.v:
            continue
        for off in range(step_i, arc_len[a.id], step_i):
            for target in (a.u, a.v):
                exit_ = 0 if target == a.u else arc_len[a.id]
                start = ("start-arc", a.id, off, exit_)
                moves[None].append(move(start, a.id, off, exit_, target))

    # The family's size: walks[node] counts the walks of 1..r full steps out
    # of a node, saturated past max_walks so that the numbers stay small.
    walks = dict.fromkeys(net.nodes, 0)
    for _ in range(max_steps):
        walks = {name: min(max_walks + 1, sum(1 + walks[other] for _, other, *_ in moves[name]))
                 for name in net.nodes}
    family = sum(1 + walks[other] for _, other, *_ in moves[None])
    if family > max_walks:
        raise SizeGuardError(f"patrol family exceeded {max_walks} walks")

    # A walk's score is the sum over atoms of mass times the measure of its
    # caught start times in the law's cell [s0, s1) (`_cell`), one integer
    # `total` that each move adds its hits' gains to.  An atom's visits come
    # in nondecreasing time (the clock only moves forward and a move visits
    # an atom at most once), and its caught start times are the union of the
    # windows [v - alpha, v + tick) within the cell over its visits v: a
    # visit gains its window's part beyond reach[i], which starts at s0 and
    # only grows.  A finished walk waits at its end node, whose atom its last
    # move has just visited at `then`: the wait gains s1 - max(then + tick,
    # s0) if positive.  `_walk_measures` scores one walk by the same rule.
    # A walk of max_steps steps is scored from its prefix's state without
    # being entered, so it writes no state.
    #
    # The bound on what the extensions of a walk can add.  A full step visits
    # each of its atoms at least `first` after it starts (its wait counts
    # from its end node's visit), so one that starts at or after
    # `last` = s1 + alpha - first opens its windows at or past s1 and gains
    # nothing, its wait included.  A full step takes at least `shortest`, so
    # from `then` on at most ceil(span / shortest) moves gain anything,
    # span = last - then.  r moves enter at most r arcs, so they gain at most
    # cap[r], the mass of the node atoms and of the r heaviest arcs, times
    # the measure an atom can still gain: at most min(span, s1 - s0), as
    # every later window lies in [then + first - alpha, s1).  The search
    # skips the extensions when that cannot beat the best score; a tie never
    # replaces the best walk, so the first best walk stays the same.
    arc_mass = sorted((sum(m for _, _, m in by_arc.get(a.id, ())) for a in net.arcs if a.u != a.v),
                      reverse=True)
    gains = list(itertools.accumulate(arc_mass, initial=sum(m for _, m in node_atoms.values())))
    cap = [gains[min(r, len(arc_mass))] for r in range(max_steps + 1)]
    shortest = min((arc_len[a.id] for a in net.arcs if a.u != a.v), default=1)
    first = min((dt for name in net.nodes for *_, hits, _ in moves[name] for _, dt, _ in hits), default=0)
    width, last = s1 - s0, s1 + alpha_i - first
    reach = [s0] * len(atoms)
    path: list[tuple] = []  # the records of the moves into the current node
    best_value, best_spec = -1, None

    def extend(node, now: int, steps: int, total: int) -> None:
        nonlocal best_value, best_spec
        earliest, late, left = now - alpha_i, now + tick, max_steps - steps
        for record, other, length, hits, end in moves[node]:
            gained = 0
            for idx, dt, m in hits:
                lo = earliest + dt
                if reach[idx] > lo:
                    lo = reach[idx]
                hi = late + dt
                if hi > s1:
                    hi = s1
                if hi > lo:
                    gained += m * (hi - lo)
            then = now + length
            value = total + gained
            if end is not None and then + tick < s1:
                value += end[1] * (s1 - max(then + tick, s0))
            if value > best_value:
                best_value, best_spec = value, (*path, record)
            if left > 0:
                span = last - then
                if span <= 0:
                    continue
                ahead = (span + shortest - 1) // shortest
                bound = cap[ahead if ahead < left else left] * (span if span < width else width)
                if total + gained + bound <= best_value:
                    continue
                undo = [reach[idx] for idx, _, _ in hits]
                for idx, dt, _ in hits:
                    hi = late + dt if late + dt < s1 else s1
                    if hi > reach[idx]:
                        reach[idx] = hi
                path.append(record)
                extend(other, then, steps + 1, total + gained)
                path.pop()
                for (idx, _, _), old in zip(hits, undo):
                    reach[idx] = old

    try:
        extend(None, 0, 0, 0)
    except RecursionError:
        raise SizeGuardError(f"max_steps={max_steps} exceeds the recursion limit") from None
    walk = _walk_from_spec(net, best_spec, scale)
    return SearchResult(walk, Fraction(best_value, mass_scale * width), family)


def _walk_from_spec(net: Network, spec, scale: int) -> Walk:
    """The walk of a search path: its start record, then its moves, each
    (arc id, entry, exit) on `scale`; a start on an arc is its first move."""
    head, moves = spec[0], spec[1:]
    if head[0] == "start-node":
        start = net.node_point(head[1])
    else:
        _, arc_id, off, exit_ = head
        start = net.point(arc_id, Fraction(off, scale))
        moves = ((arc_id, off, exit_), *moves)
    return _walk(net, start, [m[0] for m in moves], [m[1:] for m in moves], scale)


def walk_attack_probability(walk: Walk, attack: AttackStrategy, alpha, *,
                            grid_step=Fraction(1, 4), dwell_at_end: bool = True) -> Fraction:
    """Exact interception probability of a single deterministic walk against
    a (grid-discretized) attack; the patrol waits at its final position after
    an open walk ends when `dwell_at_end` is set.

    A closed walk is repeated periodically instead, with or without
    `dwell_at_end`.  `patrol_search` holds the patrol at the end point of
    every walk, closed ones included, so on a closed walk the two can give
    different probabilities."""
    alpha = _duration(alpha)
    _require_attack(walk.net, attack)
    disc = attack if attack.is_atomic else attack.discretized(grid_step)
    width, measures = _walk_measures(walk, [p for p, _ in disc.atoms], alpha, disc.temporal, dwell_at_end)
    return sum((m * c for (_, m), c in zip(disc.atoms, measures)), Fraction(0)) / width
