"""Interception evaluation and best-response searches.

Exact evaluation runs on one integer kernel: the attack duration, step
offsets and point offsets are put on one integer scale by
`network._on_scale`, each walk's visits are read once per call from its
`_WalkIndex` (kept in `network.py`, beside `Walk`), and a point's covered
phase measure is the sum of min(gap, alpha) over the cyclic gaps between
its visits; the only Fraction a point gets is its probability.
Deterministic walks (`walk_attack_probability`, `intercept`) are scored on
the same integer clock, from the same walk index, by one coverage rule.
Continuous spatial attack parts are handled by midpoint-grid quadrature or
Monte Carlo; an exact coverage integral for piecewise-uniform attacks is
deliberately not provided.  Monte Carlo is the only place floating
point appears: trial i consumes a fixed block of a counter-based stream keyed
by the seed, so results are reproducible under any sharding of the trials.
Trials are drawn and scored in fixed-size chunks, so memory does not grow
with the trial count.  A worker thread draws a chunk a small reused block at
a time (numpy converts the words to uniforms in C), picks each trial's walk
and spatial entry from a table over equal buckets of [0, 1) (binary search
only in the buckets that hold a boundary), and sorts the chunk once by (walk,
spatial entry).  Worker w takes chunks w, w + workers, ..., and there are
never more workers than chunks or cores.
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
from .network import (Network, Point, SubNetwork, Walk, _is_int, _on_scale, _require_same_network, _walk, _WalkIndex,
                      frac)
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
        total += min(v - prev, alpha)
        prev = v
    return total


def _walk_probability(walk: Walk, atoms, alpha: Fraction, law: TemporalLaw,
                      dwell_at_end: bool) -> Fraction:
    """Exact probability that one deterministic walk intercepts an attack on
    the (point, mass) atoms with start-time law `law`.

    An attack at x starting at t is caught when the patrol is at x at some
    instant of [t, t + alpha].  A closed walk that moves repeats forever.  A
    stationary walk holds its point, and so does an open walk with
    `dwell_at_end`, from its end time D on; an open walk without it must
    cover a fixed-law window.  Under a uniform law on [0, H] an atom's
    caught start times are the union of the windows [v - alpha, v] within
    [0, H] over its visits v, plus [D - alpha, H] for a hold.  Alpha, the
    law's time, the atom offsets and the walk's clock share one integer
    scale.
    """
    repeat = walk.is_closed and not walk.is_stationary
    hold = walk.is_stationary or (dwell_at_end and not walk.is_closed)
    atoms = [(p, m) for p, m in atoms if m]
    # t: the start time, or H under a uniform law
    scale, (a, t, *offsets) = _on_scale(
        walk._scale, [alpha, law.value, *(p.offset for p, _ in atoms if not p.is_node)])
    offsets = iter(offsets)
    index = _WalkIndex(walk, scale // walk._scale)
    end = index.period
    fixed = law.kind == "fixed"
    if fixed and not (repeat or hold) and t + a > end:
        raise ValidationError("attack window extends past the end of an open walk")
    total = Fraction(0)
    for p, m in atoms:
        visits = index.visits(p, None if p.is_node else next(offsets))
        held = hold and p == walk.end_point
        if fixed:
            if repeat:  # modular, so a late start unrolls nothing
                caught = any((v - t) % end <= a for v in visits)
            else:
                caught = any(t <= v <= t + a for v in visits) or (held and t + a >= end)
            total += m if caught else 0
            continue
        covered, reach, h = 0, 0, t
        if repeat:  # periodic: whole periods at once, then the visits up to the rest + alpha
            whole, h = divmod(t, end)
            covered = whole * _covered_measure(visits, a, end) if visits else 0
            visits = [v + k * end for k in range((h + a) // end + 1) for v in visits]
        # the windows come sorted by both ends, so each adds its part past `reach`
        for v in visits:
            lo, hi = max(v - a, reach), min(v, h)
            if hi > lo:
                covered += hi - lo
                reach = hi
        if held:
            covered += max(t - max(end - a, reach), 0)
        total += m * covered
    return total if fixed else total / t


def intercept(walk: Walk, x: Point, t, alpha, dwell_at_end: bool = False) -> bool:
    """Whether the walk occupies x at some instant of the closed attack
    window [t, t + alpha].

    Closed walks repeat forever; open walks must cover the window unless
    `dwell_at_end` grants the patrol permission to wait at its final point.
    """
    t, alpha = frac(t), _duration(alpha)
    return _walk_probability(walk, [(x, 1)], alpha, TemporalLaw.fixed(t), dwell_at_end) == 1


def _interception_probabilities(patrol: PatrolStrategy, points: Sequence[Point],
                                alpha: Fraction) -> list[Fraction]:
    """Exact interception probability of an attack of duration alpha at each
    point, with uniform phases.

    Alpha, point offsets and every walk's clock go on one integer scale, the
    lcm of alpha's and the offsets' denominators and of the walks' own
    scales; each walk's integer offsets and times are multiplied by one
    factor to reach it.  Each walk with nonzero weight is indexed once.  A
    walk of weight s and period P adds s * measure / P; the weights are put
    over one common denominator, so each point's sum is an integer until its
    one Fraction.
    """
    walks = [(w, s) for w, s in patrol.components if s]
    scale, (a, *interior) = _on_scale(math.lcm(*(w._scale for w, _ in walks)),
                                      [alpha, *(p.offset for p in points if not p.is_node)])
    interior = iter(interior)
    offsets = [None if p.is_node else next(interior) for p in points]
    # a stationary walk covers its start point at every phase: weight s, measure 1
    weights = [s / (w.duration * scale) if w._offsets else s for w, s in walks]
    denominator, coefs = _on_scale(1, weights)
    totals = [0] * len(points)
    for (walk, _), coef in zip(walks, coefs):
        if not walk._offsets:
            for k, x in enumerate(points):
                if x == walk.start:
                    totals[k] += coef
            continue
        index = _WalkIndex(walk, scale // walk._scale)
        for k, x in enumerate(points):
            visits = index.visits(x, offsets[k])  # a time listed twice adds a gap of 0
            if visits:
                totals[k] += coef * _covered_measure(visits, a, index.period)
    return [Fraction(t, denominator) for t in totals]


def interception_probability(patrol: PatrolStrategy, x: Point, t, alpha) -> Fraction:
    """Exact probability that the phase-randomized mixture intercepts an
    attack at x starting at time t.  Uniform phases make the result invariant
    in t; the argument is kept for interface fidelity and must be
    nonnegative, as for any fixed start time."""
    TemporalLaw.fixed(t)
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
    _require_same_network(patrol.network, attack.network, "attack")
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

# Trial i reads the raw words [8i, 8i+8) of the Philox stream keyed by the
# seed, two full counter blocks, and uses the first five as uniforms
# (word >> 11) * 2**-53: component, phase, spatial pick, offset, start time.
# A worker fills a reused block of _BLOCK_TRIALS trials with Generator.random,
# which makes that conversion in C, and copies the five used words of each
# trial into contiguous columns; trials are scored _CHUNK_TRIALS at a time, so
# memory does not grow with the trial count, and neither the chunking nor the
# thread that scores a chunk shows in the result.
_DRAWS_PER_TRIAL = 8
_USED_DRAWS = 5
_CHUNK_TRIALS = 2 ** 16
_BLOCK_TRIALS = 2 ** 12
_PICK_BUCKETS = 2 ** 12


def _bucket_pick(cum: np.ndarray, dtype):
    """A function of uniforms u in [0, 1) equal to
    ``np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)``,
    as an array of `dtype`.

    [0, 1) is cut into _PICK_BUCKETS equal buckets; u * _PICK_BUCKETS is exact,
    so its integer part is u's bucket.  A bucket with no value of `cum`
    strictly inside it gives every u in it the same index, read from a table;
    the draws in the other buckets (marked -1) go to `searchsorted`."""
    import numpy as np
    last = len(cum) - 1
    edges = np.arange(_PICK_BUCKETS + 1) / _PICK_BUCKETS
    at_low = np.searchsorted(cum, edges[:-1], side="right")
    below_high = np.searchsorted(cum, edges[1:], side="left")
    table = np.where(below_high > at_low, -1, np.minimum(at_low, last)).astype(dtype)

    def pick(u: np.ndarray) -> np.ndarray:
        idx = table[(u * _PICK_BUCKETS).astype(np.intp)]
        mixed = np.flatnonzero(idx < 0)
        if len(mixed):
            idx[mixed] = np.minimum(np.searchsorted(cum, u[mixed], side="right"), last)
        return idx

    return pick


def _draw_uniforms(seed: int, start: int, cols: np.ndarray, block: np.ndarray) -> None:
    """Fill row k of `cols` with use k of trials start, start + 1, ..., one
    column per trial, drawing `len(block)` trials at a time into `block`."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(key=seed))
    gen.bit_generator.advance(start * _DRAWS_PER_TRIAL // 4)  # four words per counter block
    count, rows = cols.shape[1], len(block)
    for lo in range(0, count, rows):
        n = min(rows, count - lo)
        gen.random(out=block[:n])
        cols[:, lo:lo + n] = block[:n, :_USED_DRAWS].T


def _mc_evaluate(patrol, attack, alpha, trials, seed, jobs) -> EvaluationResult:
    import numpy as np
    if not _is_int(trials) or trials <= 0:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    if not _is_int(jobs) or jobs <= 0:
        raise ValidationError(f"jobs must be a positive integer, got {jobs!r}")
    if not _is_int(seed) or not 0 <= seed < 2 ** 128:
        raise ValidationError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    trials, seed = int(trials), int(seed)
    a_f = float(alpha)
    walks = [w for w, _ in patrol.components]
    cum_s = np.cumsum([float(s) for _, s in patrol.components])

    # flatten the spatial measure: atoms, then per-segment slices of each part
    entries = []  # ("atom", point) | ("seg", arc, lo, hi)
    masses = []
    for point, mass in attack.atoms:
        entries.append(("atom", point))
        masses.append(float(mass))
    for part in attack.uniform_parts:
        d = part.density
        for seg in part.region.segment_list():
            entries.append(("seg", seg.arc, float(seg.lo), float(seg.hi)))
            masses.append(float(d * seg.measure))
    cum_m = np.cumsum(masses)
    cum_m[-1] = 1.0
    n_entries = len(entries)
    # keys walk * n_entries + entry are computed in key_type, n_entries included
    key_type = np.int16 if len(walks) * n_entries < 2 ** 15 else np.int64

    fixed_t = attack.temporal.kind == "fixed"
    t_value = float(attack.temporal.value)

    # One task per (walk, entry) pair that can intercept, keyed by
    # walk * n_entries + entry: True when a stationary walk sits on the atom,
    # ("atom", period, visits), or ("seg", period, lo, hi - lo, steps) with a
    # (start time, low offset, high offset, entry offset) tuple per step on the arc.
    # Times and offsets come from the walks' integer clocks on one scale; an
    # int/int division rounds as correctly as float() of the equal Fraction.
    interior = [e[1] for e in entries if e[0] == "atom" and not e[1].is_node]
    scale, offsets = _on_scale(math.lcm(*[w._scale for w in walks]), (p.offset for p in interior))
    atom_offsets = dict(zip(interior, offsets))
    tasks = {}
    for i, w in enumerate(walks):
        index = _WalkIndex(w, scale // w._scale)
        period = index.period / scale
        for j, e in enumerate(entries):
            if e[0] == "atom" and not index.period:
                task = True if e[1] == w.start else None
            elif e[0] == "atom":
                visits = sorted({v % index.period for v in index.visits(e[1], atom_offsets.get(e[1]))})
                task = ("atom", period, [v / scale for v in visits]) if visits else None
            else:  # a moving point mass never matches a stationary patrol
                steps = [tuple(x / scale for x in st) for st in index.by_arc.get(e[1], ())]
                task = ("seg", period, e[2], e[3] - e[2], steps) if steps else None
            if task is not None:
                tasks[i * n_entries + j] = task

    pick_walk = _bucket_pick(cum_s, key_type)
    pick_entry = _bucket_pick(cum_m, key_type)

    def score(u: np.ndarray) -> int:
        """Hits among the trials whose uniforms are the columns of u."""
        count = u.shape[1]
        key = pick_walk(u[0]) * n_entries
        key += pick_entry(u[2])
        order = np.argsort(key, kind="stable")
        key = key[order]
        cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        u1 = u[1][order]
        u3 = u[3][order] if attack.uniform_parts else None
        t = t_value if fixed_t else u[4][order] * t_value
        hits = 0
        for lo_i, hi_i in zip([0] + cuts, cuts + [count]):
            task = tasks.get(int(key[lo_i]))
            if task is None:
                continue
            if task is True:
                hits += hi_i - lo_i
                continue
            period = task[1]
            shift = u1[lo_i:hi_i] * period + (t if fixed_t else t[lo_i:hi_i])
            got = np.zeros(hi_i - lo_i, dtype=bool)
            if task[0] == "atom":
                for v in task[2]:
                    got |= np.mod(v - shift, period) <= a_f
            else:
                _, _, lo, width, steps = task
                off = lo + u3[lo_i:hi_i] * width
                for t0, o_min, o_max, o1 in steps:
                    inside = (off >= o_min) & (off <= o_max)
                    rel = np.mod(t0 + np.abs(off - o1) - shift, period)
                    got |= inside & (rel <= a_f)
            hits += int(np.count_nonzero(got))
        return hits

    starts = range(0, trials, _CHUNK_TRIALS)
    workers = min(jobs, len(starts), os.cpu_count() or 1)

    def run_worker(w: int) -> int:
        """Hits in chunks w, w + workers, ...; one block and one set of
        columns serve all of them."""
        block = np.empty((_BLOCK_TRIALS, _DRAWS_PER_TRIAL))
        cols = np.empty((_USED_DRAWS, min(_CHUNK_TRIALS, trials)))
        hits = 0
        for start in starts[w::workers]:
            u = cols[:, :min(_CHUNK_TRIALS, trials - start)]
            _draw_uniforms(seed, start, u, block)
            hits += score(u)
        return hits

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
        if not net.contains_point(p):
            raise ValidationError(f"{p!r} not on network")
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
    _require_same_network(net, attack.network, "attack")
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
    fixed_t = disc.temporal.kind == "fixed"
    horizon = disc.temporal.value if not fixed_t else Fraction(0)
    t_fix = disc.temporal.value if fixed_t else Fraction(0)

    (D, lengths), atoms = net._units, disc.atoms
    scale, (alpha_i, horizon_i, tfix_i, step_i, *offsets) = _on_scale(
        D, [alpha, horizon, t_fix, offset_step, *(p.offset for p, _ in atoms if not p.is_node)])
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

    # A walk's score is the sum over atoms of mass times favourable measure,
    # one integer `total` that each move adds its hits' gains to.  An atom's
    # visits come in nondecreasing time (the clock only moves forward and a
    # move visits an atom at most once).  Fixed law: hit[i] is 1 once a visit
    # falls in [t, t + alpha], and that visit gains the atom's mass.  Uniform
    # law: the measure is the length of the union of the windows
    # [v - alpha, v] within [0, H] over the visits v, so a visit gains its
    # window's part beyond reach[i] = min(H, latest visit), which starts at 0
    # so that no window counts below 0.  A finished walk waits at its end
    # node, whose atom its last move has just visited at `then`: the wait
    # gains H - then if positive under the uniform law, and the mass under the
    # fixed law if the atom is unhit and then < t.  Each law's rules are
    # written once, in its loop below; `_walk_probability` reads the same
    # rules for one walk.  A walk of max_steps steps is scored from its
    # prefix's state without being entered, so it writes no state.
    #
    # The bound on what the extensions of a walk can add.  A move that starts
    # at or after `last` (H + alpha, or t + alpha) gains nothing, its wait
    # included, and a full step takes at least `shortest`, so from `then` on
    # at most ceil(span / shortest) moves gain anything, span = last - then.
    # r moves enter at most r arcs, so they gain at most cap[r], the mass of
    # the node atoms and of the r heaviest arcs, times the measure an atom
    # can still gain: 1 under the fixed law, and at most min(H, span) under
    # the uniform law, as every later window lies in [then - alpha, H].  The
    # search skips the extensions when that cannot beat the best score; a tie
    # never replaces the best walk, so the first best walk stays the same.
    arc_mass = sorted((sum(m for _, _, m in by_arc.get(a.id, ())) for a in net.arcs if a.u != a.v),
                      reverse=True)
    gains = list(itertools.accumulate(arc_mass, initial=sum(m for _, m in node_atoms.values())))
    cap = [gains[min(r, len(arc_mass))] for r in range(max_steps + 1)]
    shortest = min((arc_len[a.id] for a in net.arcs if a.u != a.v), default=1)
    fix_lo, fix_hi = tfix_i, tfix_i + alpha_i
    last = fix_hi if fixed_t else horizon_i + alpha_i
    state = [0] * len(disc.atoms)  # hit or reach, by the law
    path: list[tuple] = []  # the records of the moves into the current node
    best_value, best_spec = -1, None

    def uniform_law(node, now: int, steps: int, total: int) -> None:
        nonlocal best_value, best_spec
        reach, h, earliest, left = state, horizon_i, now - alpha_i, max_steps - steps
        for record, other, length, hits, end in moves[node]:
            gained = 0
            for idx, dt, m in hits:
                lo = earliest + dt
                if reach[idx] > lo:
                    lo = reach[idx]
                hi = now + dt
                if hi > h:
                    hi = h
                if hi > lo:
                    gained += m * (hi - lo)
            then = now + length
            value = total + gained
            if end is not None and then < h:
                value += end[1] * (h - then)
            if value > best_value:
                best_value, best_spec = value, (*path, record)
            if left > 0:
                span = last - then
                if span <= 0:
                    continue
                ahead = (span + shortest - 1) // shortest
                bound = cap[ahead if ahead < left else left] * (span if span < h else h)
                if total + gained + bound <= best_value:
                    continue
                undo = [reach[idx] for idx, _, _ in hits]
                for idx, dt, _ in hits:
                    reach[idx] = now + dt if now + dt < h else h
                path.append(record)
                uniform_law(other, then, steps + 1, total + gained)
                path.pop()
                for (idx, _, _), old in zip(hits, undo):
                    reach[idx] = old

    def fixed_law(node, now: int, steps: int, total: int) -> None:
        nonlocal best_value, best_spec
        hit, left = state, max_steps - steps
        for record, other, length, hits, end in moves[node]:
            gained, newly = 0, []
            for idx, dt, m in hits:
                if not hit[idx] and fix_lo <= now + dt <= fix_hi:
                    gained += m
                    newly.append(idx)
            then = now + length
            value = total + gained
            if end is not None and then < fix_lo and not hit[end[0]]:
                value += end[1]
            if value > best_value:
                best_value, best_spec = value, (*path, record)
            if left > 0:
                span = last - then
                if span <= 0:
                    continue
                ahead = (span + shortest - 1) // shortest
                if total + gained + cap[ahead if ahead < left else left] <= best_value:
                    continue
                for idx in newly:
                    hit[idx] = 1
                path.append(record)
                fixed_law(other, then, steps + 1, total + gained)
                path.pop()
                for idx in newly:
                    hit[idx] = 0

    try:
        (fixed_law if fixed_t else uniform_law)(None, 0, 0, 0)
    except RecursionError:
        raise SizeGuardError(f"max_steps={max_steps} exceeds the recursion limit") from None
    walk = _walk_from_spec(net, best_spec, scale)
    denominator = mass_scale if fixed_t else mass_scale * horizon_i
    return SearchResult(walk, Fraction(best_value, denominator), family)


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
    _require_same_network(walk.net, attack.network, "attack")
    disc = attack if attack.is_atomic else attack.discretized(grid_step)
    return _walk_probability(walk, disc.atoms, alpha, disc.temporal, dwell_at_end)
