import hashlib
import math
import os
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolgame import (
    AttackStrategy,
    PatrolStrategy,
    Network,
    Point,
    Segment,
    SizeGuardError,
    Step,
    SubNetwork,
    TemporalLaw,
    UniformPart,
    ValidationError,
    Walk,
    attacker_best_response,
    complete_network,
    complete_patrolling,
    critical_alpha,
    double_traversal,
    e_patrolling,
    eulerian_tour,
    evaluate,
    format_network,
    game_value_tree,
    intercept,
    interception_probability,
    k4_tightness_attack,
    parse_network,
    patrol_search,
    path_network,
    round_robin_one_factorization,
    star_network,
    subtree_decomposition,
    tree_attack_strategy,
    uniform_attack,
    walk_attack_probability,
    walk_through_nodes,
)
from patrolgame import engine, network
from conftest import LENGTH_POOL, make_sample_tree, random_tree
from oracles import (ball, best_response_reference, bruteforce_search, discretized_reference, exact_cumulative,
                     greedy_coverage_walk, interception_reference, mc_hits_mod_reference, mc_hits_reference, node_path,
                     random_closed_walk, walk_probability_reference)

F = Fraction


def back_and_forth(length=2):
    net = Network(["u", "v"], [("a", "u", "v", length)])
    w = Walk(net, net.node_point("u"),
             [Step("a", F(0), F(length)), Step("a", F(length), F(0))])
    return net, w


def test_intercept_stationary():
    net, _ = back_and_forth()
    w = Walk(net, net.point("a", 1))
    assert intercept(w, net.point("a", 1), 0, 5)
    assert intercept(w, net.point("a", 1), 100, F(1, 10))
    assert not intercept(w, net.node_point("u"), 0, 5)
    # with a uniform phase a stationary walk is scored by the same hold rule:
    # its start law uniform(0) is the fixed time 0
    patrol = PatrolStrategy.single(w)
    for alpha in (0, 5):
        assert interception_probability(patrol, net.point("a", 1), 0, alpha) == 1
        assert interception_probability(patrol, net.node_point("u"), 0, alpha) == 0


def test_intercept_boundary_semantics():
    net, w = back_and_forth()
    v = net.node_point("v")
    assert not intercept(w, v, 0, 1)  # visit happens at time 2
    assert intercept(w, v, 1, 1)      # touching the window edge counts


def test_intercept_periodic_unrolls():
    net, w = back_and_forth()
    v = net.node_point("v")
    assert intercept(w, v, 5, 1)  # next visit at time 6


def test_intercept_open_walk_requires_coverage():
    net = Network(["u", "v"], [("a", "u", "v", 2)])
    w = Walk(net, net.node_point("u"), [Step("a", F(0), F(2))])
    with pytest.raises(ValidationError):
        intercept(w, net.node_point("u"), 1, 5)
    assert intercept(w, net.node_point("v"), 1, 5, dwell_at_end=True)


@pytest.mark.parametrize("call", [
    lambda pat, att, x: evaluate(pat, att, -1, method="exact"),
    lambda pat, att, x: evaluate(pat, att, -1, method="grid"),
    lambda pat, att, x: evaluate(pat, att, "-1/2", method="mc", trials=10),
    lambda pat, att, x: attacker_best_response(pat, -1, space_step=F(1, 2)),
    lambda pat, att, x: interception_probability(pat, x, 0, F(-1, 3)),
    lambda pat, att, x: walk_attack_probability(pat.components[0][0], att, -1),
    lambda pat, att, x: patrol_search(pat.network, att, -1, max_steps=1),
    lambda pat, att, x: intercept(pat.components[0][0], x, 0, -1),
], ids=["exact", "grid", "mc", "best_response", "interception", "walk", "search", "intercept"])
def test_negative_duration_rejected(sample_tree, call):
    pat = e_patrolling(sample_tree, 4)
    att = tree_attack_strategy(sample_tree, 4)
    with pytest.raises(ValidationError, match="^attack duration must be nonnegative$"):
        call(pat, att, sample_tree.node_point("B"))


def test_phase_interval_set():
    # covered phase measure of visits mod a period of 4 (integer scale)
    assert engine._covered_measure([1, 3], 1, 4) == 2
    assert engine._covered_measure([1, 3], 3, 4) == 4  # saturates at the period
    assert engine._covered_measure([0], 1, 4) == 1
    # a repeated time, and a visit listed at both 0 and the period, count once
    assert engine._covered_measure([0, 1, 1, 4], 1, 4) == 2


def test_interception_probability_fixtures():
    net, w = back_and_forth()
    patrol = PatrolStrategy.single(w)
    mid = net.point("a", 1)
    assert interception_probability(patrol, mid, 0, 1) == F(1, 2)
    assert interception_probability(patrol, net.node_point("u"), 0, 1) == F(1, 4)
    # invariant in the attack start time
    assert interception_probability(patrol, mid, F(17, 3), 1) == F(1, 2)


def test_interception_probability_rejects_negative_start():
    net, w = back_and_forth()
    with pytest.raises(ValidationError, match="^attack start time must be nonnegative$"):
        interception_probability(PatrolStrategy.single(w), net.node_point("u"), -5, 1)


def test_interception_probability_complete_k4(unit_k4):
    pat = complete_patrolling(unit_k4)
    assert interception_probability(pat, unit_k4.node_point("v2"), 0, 3) == F(3, 4)
    x = unit_k4.point("v1-v2", F(1, 2))
    assert interception_probability(pat, x, 0, 3) == F(1, 2)


def _kernel_cases():
    """(patrol, points) pairs: E-patrolling on seeded trees, complete
    patrolling on unit and rational K4/K6, closed walks on a multigraph with
    parallel and loop arcs (one turning inside arcs and taking the loop both
    ways), and mixtures with a stationary walk and a zero-weight component.
    Points are the nodes, the interior step ends, a quarter grid and offsets
    at sevenths of each arc."""
    rng = random.Random(83)
    cases = []
    for _ in range(6):
        tree = random_tree(rng, min_nodes=3)
        alpha = max(F(1, 4), F(int(critical_alpha(tree) * rng.randint(20, 120) / 25), 4))
        cases.append(e_patrolling(tree, alpha))
    for n in (4, 6):
        rational = Network([f"v{i}" for i in range(n)],
                           [(f"v{i}-v{j}", f"v{i}", f"v{j}", rng.choice(LENGTH_POOL))
                            for i in range(n) for j in range(i + 1, n)])
        cases += [complete_patrolling(complete_network(n)), complete_patrolling(rational)]
    multi = Network(["a", "b", "c", "d"],
                    [("e1", "a", "b", 1), ("e2", "a", "b", F(3, 2)), ("e3", "b", "c", F(1, 2)),
                     ("e4", "c", "a", 2), ("e5", "c", "d", F(5, 4)), ("l", "c", "c", F(3, 4))])
    turns = Walk(multi, multi.node_point("c"), [
        Step("l", F(0), F(3, 4)), Step("e5", F(0), F(1, 2)), Step("e5", F(1, 2), F(0)),
        Step("l", F(3, 4), F(1, 4)), Step("l", F(1, 4), F(3, 4)), Step("l", F(3, 4), F(0))])
    walks = [turns] + [random_closed_walk(multi, random.Random(k), max_steps=9) for k in range(3)]
    walks += [greedy_coverage_walk(multi, seed=k) for k in range(2)]
    cases += [PatrolStrategy.single(w) for w in walks]
    cases.append(PatrolStrategy(multi, ((walks[0], F(1, 2)), (walks[1], F(1, 3)),
                                        (Walk(multi, multi.point("e4", F(2, 3))), F(1, 6)),
                                        (walks[2], F(0)))))
    cases.append(PatrolStrategy(multi, ((walks[3], F(3, 4)), (Walk(multi, multi.node_point("b")), F(1, 4)),
                                        (walks[4], F(0)))))
    cases.append(PatrolStrategy(multi, ((Walk(multi, multi.node_point("d")), F(1)),)))
    for pat in cases:
        net = pat.network
        points = {net.node_point(n) for n in net.nodes}
        points.update(net.point(st.arc, st.end) for w, _ in pat.components for st in w.steps)
        points.update(SubNetwork.whole(net).grid_points(F(1, 4)))
        points.update(net.point(a.id, a.length * F(k, 7)) for a in net.arcs for k in range(1, 7))
        yield pat, sorted(points, key=lambda p: p.sort_key())


def test_kernel_matches_interception_reference():
    rng = random.Random(89)
    interior_ends = 0
    for pat, points in _kernel_cases():
        interior_ends += sum(not pat.network.point(st.arc, st.end).is_node
                             for w, _ in pat.components for st in w.steps)
        periods = [w.duration for w, _ in pat.components if w.steps] or [F(1)]
        alphas = [F(0), min(periods) * F(rng.randint(1, 9), 10),
                  max(periods) * F(rng.randint(1, 9), 10), max(periods), max(periods) + F(1, 3)]
        t = F(rng.randint(1, 40), 3)
        for alpha in alphas:
            want = [interception_reference(pat, x, t, alpha) for x in points]
            assert engine._interception_probabilities(pat, points, alpha) == want
            for x, p in list(zip(points, want))[::11]:
                assert interception_probability(pat, x, t, alpha) == p
    assert interior_ends > 0


def test_phase_randomization_is_a_uniform_start_over_a_period():
    # a closed walk W of period P that moves, with a uniform phase, catches
    # an attack at x exactly as W repeated from time 0 does under a start
    # uniform on [0, kP], with alpha from 0 to past the period: k = 1 is the
    # code path itself, as the mixture scores each walk by the one kernel
    # under a start uniform over its period, and k > 1 is the check
    rng = random.Random(18)
    nets = [random_tree(rng, max_nodes=12) for _ in range(8)]
    nets += [star_network([rng.choice(LENGTH_POOL) for _ in range(rng.randint(2, 5))]) for _ in range(3)]
    for n in (4, 5, 6):  # one rational arc length each
        nets.append(Network([f"v{i}" for i in range(n)],
                            [(f"v{i}-v{j}", f"v{i}", f"v{j}", rng.choice(LENGTH_POOL) if i + j == 1 else 1)
                             for i in range(n) for j in range(i + 1, n)]))
    below = above = 0
    for net in nets:
        for _ in range(3):
            walk = random_closed_walk(net, rng, max_steps=8)
            period = walk.duration
            points = [net.node_point(v) for v in rng.sample(net.nodes, min(3, len(net.nodes)))]
            points += [net.point(a.id, a.length * F(rng.randint(1, 9), 10))
                       for a in (rng.choice(net.arcs) for _ in range(4))]
            for alpha in (F(0), period * F(rng.randint(1, 9), 10), period,
                          period + F(rng.randint(1, 12), 4)):
                below, above = below + (alpha < period), above + (alpha > period)
                want = engine._interception_probabilities(PatrolStrategy.single(walk), points, alpha)
                for k in (1, rng.randint(2, 4)):
                    law = TemporalLaw.uniform(k * period)
                    scale, (a, t), keys = engine._point_keys(walk._scale, points, alpha, law.value)
                    width, measures = engine._walk_measures(walk, keys, scale, a, engine._cell(law, t), True)
                    assert [F(m, width) for m in measures] == want, (net.nodes, walk, alpha, k)
    assert below and above


def test_subadditivity_bound():
    rng = random.Random(61)
    for _ in range(20):
        tree = random_tree(rng, min_nodes=3)
        walk = double_traversal(tree, rng.choice(tree.nodes))
        patrol = PatrolStrategy.single(walk)
        alpha = F(rng.randint(1, 8), 2)
        arc = rng.choice(tree.arcs)
        x = tree.point(arc.id, arc.length * F(rng.randint(1, 3), 4))
        vis = sorted({v % walk.duration for v in walk.visit_times(x)})
        prob = interception_probability(patrol, x, 0, alpha)
        bound = min(F(1), len(vis) * alpha / walk.duration)
        assert prob <= bound
        gaps_ok = vis and all(
            (vis[(i + 1) % len(vis)] - vis[i]) % walk.duration >= alpha or len(vis) == 1
            for i in range(len(vis)))
        if vis and alpha <= walk.duration and gaps_ok and len(vis) * alpha <= walk.duration:
            assert prob == bound


def test_evaluate_exact_atomic(sample_tree):
    att = tree_attack_strategy(sample_tree, 8)  # atoms only at the critical duration
    pat = e_patrolling(sample_tree, 8)
    res = evaluate(pat, att, 8, method="exact")
    assert res.method == "exact"
    assert res.probability == F(2, 5)


def test_evaluate_exact_falls_back_on_continuous(unit_k4):
    pat = complete_patrolling(unit_k4)
    att = uniform_attack(unit_k4, TemporalLaw.fixed(0))
    res = evaluate(pat, att, 3, method="exact")
    assert res.method == "grid"
    assert "fell back" in res.notes
    assert res.probability == F(1, 2)


def test_evaluate_grid_value_complete(unit_k4):
    pat = complete_patrolling(unit_k4)
    att = uniform_attack(unit_k4, TemporalLaw.fixed(0))
    for alpha in (1, 2, 3, 4):
        res = evaluate(pat, att, alpha, method="grid", grid_step=F(1, 4))
        assert res.probability == F(alpha, 6)


def test_evaluate_unroll_invariance(sample_tree):
    att = tree_attack_strategy(sample_tree, 8)
    pat = e_patrolling(sample_tree, 8)
    walk = pat.components[0][0]
    tripled = PatrolStrategy.single(walk.repeated(3))
    single = PatrolStrategy.single(walk)
    assert evaluate(single, att, 8).probability == evaluate(tripled, att, 8).probability


def test_evaluate_mc_deterministic(sample_tree):
    att = tree_attack_strategy(sample_tree, 4)
    pat = e_patrolling(sample_tree, 4)
    r1 = evaluate(pat, att, 4, method="mc", trials=20_000, seed=5)
    r2 = evaluate(pat, att, 4, method="mc", trials=20_000, seed=5)
    assert r1.probability == r2.probability
    r3 = evaluate(pat, att, 4, method="mc", trials=20_000, seed=6)
    assert r1.probability != r3.probability  # seeds matter


def test_evaluate_mc_jobs_invariant(sample_tree):
    att = tree_attack_strategy(sample_tree, 4)
    pat = e_patrolling(sample_tree, 4)
    r1 = evaluate(pat, att, 4, method="mc", trials=30_000, seed=9, jobs=1)
    r4 = evaluate(pat, att, 4, method="mc", trials=30_000, seed=9, jobs=4)
    assert r1.probability == r4.probability


def test_mc_within_ci_of_exact(unit_k4):
    # frozen seed set: the Monte Carlo estimate covers the exact value within
    # its own 95% interval for at least 93 of these 100 seeds
    pat = complete_patrolling(unit_k4)
    atoms = tuple((unit_k4.point(a.id, F(1, 3)), F(1, 6)) for a in unit_k4.arcs)
    att = AttackStrategy(unit_k4, atoms, (), TemporalLaw.fixed(0))
    exact = evaluate(pat, att, 3).probability
    assert exact == F(1, 2)
    hits = 0
    for seed in range(100):
        r = evaluate(pat, att, 3, method="mc", trials=100_000, seed=seed)
        if abs(r.probability - float(exact)) <= r.ci_halfwidth:
            hits += 1
    assert hits >= 93


def test_mc_start_law_moves_nothing(unit_k4, sample_tree):
    # every walk has a uniform phase, so no start time moves a trial: attacks
    # that differ only in their start law give equal results for one seed,
    # on one thread or two; over a frozen set of 100 seeds the estimate
    # covers the exact value within its own 95% interval at least 93 times
    atoms = tuple((unit_k4.point(a.id, F(1, 3)), F(1, 6)) for a in unit_k4.arcs)
    horizon = tree_attack_strategy(sample_tree, 4)
    cases = [(complete_patrolling(unit_k4), unit_k4, atoms, F(3), F(17, 2)),
             (e_patrolling(sample_tree, 4), sample_tree, horizon.discretized(F(1, 4)).atoms, F(4),
              horizon.temporal.value)]
    for pat, net, atoms, alpha, h in cases:
        results, exact = set(), set()
        for law in (TemporalLaw.fixed(0), TemporalLaw.fixed(F(7, 3)), TemporalLaw.uniform(h)):
            att = AttackStrategy(net, atoms, (), law)
            exact.add(evaluate(pat, att, alpha).probability)
            for jobs in (1, 2):
                results.add(evaluate(pat, att, alpha, method="mc", trials=200_003, seed=5, jobs=jobs))
        assert len(results) == len(exact) == 1
        p = float(exact.pop())
        runs = (evaluate(pat, att, alpha, method="mc", trials=200_003, seed=seed) for seed in range(100))
        assert sum(abs(r.probability - p) <= r.ci_halfwidth for r in runs) >= 93


def test_mc_horizon_attack_within_ci_of_grid(sample_tree):
    # the horizon attack's atoms and uniform segments: over a frozen set of
    # 300 seeds the estimate covers the 1/256-grid value (4/17, the game
    # value) within its own 95% interval at least 279 times (93%)
    att = tree_attack_strategy(sample_tree, 4)
    pat = e_patrolling(sample_tree, 4)
    grid = evaluate(pat, att, 4, method="grid", grid_step=F(1, 256)).probability
    assert grid == game_value_tree(sample_tree, 4) == F(4, 17)
    runs = (evaluate(pat, att, 4, method="mc", trials=20_000, seed=seed) for seed in range(300))
    assert sum(abs(r.probability - float(grid)) <= r.ci_halfwidth for r in runs) >= 279


def _frozen_mc_cases():
    """The demo tree at alpha = 4: E-patrolling against the horizon attack,
    against the same attack at a fixed start time, and with a stationary walk
    mixed in against an attack holding an atom at its node; and E-patrolling
    against the horizon attack on a seeded 20-node tree."""
    tree = make_sample_tree()
    att = tree_attack_strategy(tree, 4)
    pat = e_patrolling(tree, 4)
    yield "demo", pat, att, F(4)
    fixed = AttackStrategy(tree, att.atoms, att.uniform_parts, TemporalLaw.fixed(F(7, 3)))
    yield "demo-fixed", pat, fixed, F(4)
    still = Walk(tree, tree.node_point("A"))
    mix = PatrolStrategy(tree, ((pat.components[0][0], F(2, 3)), (still, F(1, 3))))
    halved = AttackStrategy(
        tree, tuple((p, m / 2) for p, m in att.atoms) + ((tree.node_point("A"), F(1, 2)),),
        tuple(UniformPart(u.region, u.mass / 2) for u in att.uniform_parts), att.temporal)
    yield "demo-stationary", mix, halved, F(4)
    big = random_tree(random.Random(20), max_nodes=20, min_nodes=20)
    alpha = F(int(critical_alpha(big) * 2), 4)
    yield "tree20", e_patrolling(big, alpha), tree_attack_strategy(big, alpha), alpha


# Hit counts at seed 17, each equal to the counts of both
# `mc_hits_reference` and `mc_hits_mod_reference`; 200,003 trials span four
# chunks, the last partial.  The start time draws nothing, so "demo" and
# "demo-fixed" agree.
FROZEN_MC_HITS = {
    "demo": {1: 0, 1_000: 225, 200_003: 47267},
    "demo-fixed": {1: 0, 1_000: 225, 200_003: 47267},
    "demo-stationary": {1: 0, 1_000: 400, 200_003: 80870},
    "tree20": {1: 0, 1_000: 170, 200_003: 37218},
}


def test_mc_hits_frozen():
    for name, pat, att, alpha in _frozen_mc_cases():
        for trials, hits in FROZEN_MC_HITS[name].items():
            p = hits / trials
            for jobs in (1, 2, 7):
                r = evaluate(pat, att, alpha, method="mc", trials=trials, seed=17, jobs=jobs)
                assert (r.probability, r.trials, r.seed) == (p, trials, 17), (name, trials, jobs)
                assert r.ci_halfwidth == 1.96 * math.sqrt(p * (1 - p) / trials)


def _reference_mc_cases():
    """Seeded mixtures of random closed walks (in every third case with a
    stationary walk on an atom) on small trees and on K4, against atoms and
    uniform parts under both temporal laws.  Atoms sit at random nodes and arc offsets, and the
    uniform parts cover balls or the whole network, so atoms no walk visits
    and segments on arcs no walk crosses are common; the test checks that
    both occur."""
    rng = random.Random(83)
    for k in range(20):
        net = complete_network(4) if k % 4 == 3 else random_tree(rng, max_nodes=7, min_nodes=3)
        walks = [random_closed_walk(net, rng, max_steps=rng.randint(2, 5))
                 for _ in range(rng.randint(1, 3))]
        points = [net.node_point(n) for n in net.nodes]
        points += [net.point(a.id, a.length * F(rng.randint(1, 7), 8)) for a in net.arcs]
        chosen = rng.sample(points, rng.randint(1, 3))
        if k % 3 == 0:
            walks.append(Walk(net, chosen[-1]))
        weights = [rng.randint(1, 4) for _ in walks]
        pat = PatrolStrategy(net, tuple((w, F(x, sum(weights))) for w, x in zip(walks, weights)))
        region = (SubNetwork.whole(net) if k % 2 else
                  ball(net, net.node_point(rng.choice(net.nodes)), F(rng.randint(1, 6), 2)))
        atoms = tuple((p, F(1, 2 * len(chosen))) for p in chosen)
        temporal = TemporalLaw.fixed(F(rng.randint(0, 12), 4)) if k % 2 else \
            TemporalLaw.uniform(F(rng.randint(1, 40), 2))
        att = AttackStrategy(net, atoms, (UniformPart(region, F(1, 2)),), temporal)
        yield pat, att, F(rng.randint(1, 12), 4), 500 + k


def test_mc_matches_per_trial_reference():
    unvisited_atoms = uncrossed_segments = 0
    for pat, att, alpha, seed in _reference_mc_cases():
        walks = [w for w, _ in pat.components]
        crossed = {s.arc for w in walks for s in w.steps}
        unvisited_atoms += any(all(not w.visit_times(p) for w in walks) for p, _ in att.atoms)
        uncrossed_segments += any(seg.arc not in crossed
                                  for seg in att.uniform_parts[0].region.segment_list())
        r = evaluate(pat, att, alpha, method="mc", trials=2_000, seed=seed, jobs=2)
        assert r.probability == mc_hits_reference(pat, att, alpha, 2_000, seed) / 2_000
    assert unvisited_atoms >= 3 and uncrossed_segments >= 3


def _mod_reference_cases():
    """Seeded mixtures on small trees and on K4: random closed walks, a walk
    that turns inside an arc (so its steps cover a segment on that arc only
    in part), and in every third case a stationary walk on an atom.  One
    atom sits at the first walk's start node, which it visits at 0 and at
    its period.  Alpha cycles through 0, a random value, the first walk's
    period and past the longest period; every fifth case is E-patrolling
    against the horizon attack on its tree.  Both start laws appear with
    each alpha."""
    rng = random.Random(421)
    for k in range(40):
        uniform = (k // 4) % 2 == 0
        if k % 5 == 2:
            tree = random_tree(rng, max_nodes=8, min_nodes=3)
            alpha = F(int(critical_alpha(tree) * 3), 4) or F(1, 4)
            att = tree_attack_strategy(tree, alpha)
            if not uniform:
                att = AttackStrategy(tree, att.atoms, att.uniform_parts, TemporalLaw.fixed(F(rng.randint(0, 9), 2)))
            yield e_patrolling(tree, alpha), att, alpha, 900 + k
            continue
        net = complete_network(4) if k % 5 == 4 else random_tree(rng, max_nodes=7, min_nodes=2)
        walks = [random_closed_walk(net, rng, max_steps=rng.randint(2, 5))
                 for _ in range(rng.randint(1, 2))]
        arc = rng.choice(net.arcs)
        turn = arc.length * F(rng.randint(1, 7), 8)
        walks.append(Walk(net, net.node_point(arc.u), [Step(arc.id, F(0), turn), Step(arc.id, turn, F(0))]))
        points = [net.node_point(n) for n in net.nodes]
        points += [net.point(a.id, a.length * F(rng.randint(1, 7), 8)) for a in net.arcs]
        chosen = list(dict.fromkeys([walks[0].start, *rng.sample(points, min(len(points), rng.randint(1, 3)))]))
        if k % 3 == 0:
            walks.append(Walk(net, rng.choice(chosen)))
        weights = [rng.randint(1, 4) for _ in walks]
        pat = PatrolStrategy(net, tuple((w, F(x, sum(weights))) for w, x in zip(walks, weights)))
        region = (SubNetwork.whole(net) if k % 2 else
                  ball(net, net.node_point(rng.choice(net.nodes)), F(rng.randint(1, 6), 2)))
        atoms = tuple((p, F(1, 2 * len(chosen))) for p in chosen)
        temporal = TemporalLaw.uniform(F(rng.randint(1, 40), 2)) if uniform else \
            TemporalLaw.fixed(F(rng.randint(0, 12), 4))
        att = AttackStrategy(net, atoms, (UniformPart(region, F(1, 2)),), temporal)
        longest = max(w.duration for w in walks)
        alpha = (F(0), F(rng.randint(1, 12), 4), walks[0].duration, longest + F(1, 3))[k % 4]
        yield pat, att, alpha, 900 + k


def test_mc_matches_mod_reference():
    # the per-visit np.mod scorer that phase windows replaced gives the same
    # hit counts, on cases that reach each kind of window the engine builds
    kinds = set()
    for pat, att, alpha, seed in _mod_reference_cases():
        r = evaluate(pat, att, alpha, method="mc", trials=100_000, seed=seed, jobs=2)
        assert r.probability == mc_hits_mod_reference(pat, att, alpha, 100_000, seed) / 100_000
        moving = [w for w, _ in pat.components if not w.is_stationary]
        segments = [s for u in att.uniform_parts for s in u.region.segment_list()]
        seen = {
            att.temporal.kind: True,
            "alpha 0": alpha == 0,
            "alpha past a period": any(alpha >= w.duration for w in moving),
            "stationary": len(moving) < len(pat.components),
            "K4": len(pat.network.nodes) == 4 and len(pat.network.arcs) == 6,
            "part of a segment": any(
                s.arc == g.arc and not min(s.start, s.end) <= g.lo < g.hi <= max(s.start, s.end)
                and min(s.start, s.end) < g.hi and g.lo < max(s.start, s.end)
                for w in moving for s in w.steps for g in segments),
        }
        kinds |= {kind for kind, found in seen.items() if found}
    assert kinds == {"uniform", "fixed", "alpha 0", "alpha past a period", "stationary", "K4",
                     "part of a segment"}


def test_mc_memory_bounded(sample_tree):
    # trials are drawn and scored in fixed-size chunks: two million trials
    # (at least one word, 8 bytes, of raw stream per trial, and four rows of
    # floats, 32 bytes, to score a segment trial) stay far below 32 MiB,
    # half of what their rows would take
    att = tree_attack_strategy(sample_tree, 4)
    pat = e_patrolling(sample_tree, 4)
    tracemalloc.start()
    try:
        evaluate(pat, att, 4, method="mc", trials=2_000_000, seed=1, jobs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("kwargs", [
    {"trials": 0}, {"trials": -5}, {"trials": 1.5}, {"trials": True}, {"trials": "10"},
    {"jobs": 0}, {"jobs": -3}, {"jobs": 1.5}, {"jobs": True},
    {"seed": -1}, {"seed": 1.5}, {"seed": 2 ** 128}, {"seed": False}, {"seed": "1"},
])
def test_mc_rejects_bad_arguments(sample_tree, kwargs):
    att = tree_attack_strategy(sample_tree, 4)
    pat = e_patrolling(sample_tree, 4)
    args = {"trials": 10, "seed": 0, "jobs": 1, **kwargs}
    with pytest.raises(ValidationError):
        evaluate(pat, att, 4, method="mc", **args)


def test_mc_seed_range_ends(sample_tree):
    att = tree_attack_strategy(sample_tree, 4)
    pat = e_patrolling(sample_tree, 4)
    for seed in (0, 2 ** 128 - 1):
        assert evaluate(pat, att, 4, method="mc", trials=10, seed=seed).seed == seed


def test_mc_thread_count_capped(sample_tree, monkeypatch):
    # a pool that records its size and maps serially: no thread is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    att = tree_attack_strategy(sample_tree, 4)
    pat = e_patrolling(sample_tree, 4)
    serial = evaluate(pat, att, 4, method="mc", trials=200_003, seed=3, jobs=1)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", SerialPool)
    for cores in (os.cpu_count() or 1, 64):  # 200,003 trials make 4 chunks
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cores)
        sizes.clear()
        assert evaluate(pat, att, 4, method="mc", trials=200_003, seed=3, jobs=10_000) == serial
        assert sizes == ([min(4, cores)] if min(4, cores) > 1 else [])


class _SerialPool:
    """A thread pool stand-in that maps serially: no thread is started."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


# Hit counts at seed 17 and 2**16 + 4,097 trials (one full chunk and a
# partial one), each equal to the counts of both `mc_hits_reference` and
# `mc_hits_mod_reference`.
FROZEN_SPLIT_HITS = {"demo": 16493, "demo-fixed": 16493, "demo-stationary": 28028,
                     "tree20": 12969}


def test_mc_static_worker_split(monkeypatch):
    # worker w scores chunks w, w + workers, ...: for 1-5 workers over whole
    # and partial chunks the result is the one-worker result
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    split = 2 ** 16 + 4_097
    for name, pat, att, alpha in _frozen_mc_cases():
        serial = evaluate(pat, att, alpha, method="mc", trials=split, seed=17, jobs=1)
        assert serial.probability == FROZEN_SPLIT_HITS[name] / split, name
        if name not in ("demo", "tree20"):
            continue
        for trials in (1, 2 ** 16, 2 ** 16 + 1, split, 5 * 2 ** 16 - 1):
            serial = evaluate(pat, att, alpha, method="mc", trials=trials, seed=17, jobs=1)
            for jobs in range(2, 6):
                r = evaluate(pat, att, alpha, method="mc", trials=trials, seed=17, jobs=jobs)
                assert r == serial, (name, trials, jobs)


@pytest.mark.parametrize("seed", [0, 17, 2 ** 128 - 1])
def test_mc_stream_contract(seed, monkeypatch):
    # chunk c of 2**16 trials reads the Philox stream keyed by the seed from
    # counter block c * 2**16 on, each word as (word >> 11) * 2**-53, which
    # Generator.random computes in C: first one pick word per trial, then
    # one phase word per trial on a moving walk, then one offset word per
    # such trial on a segment.  Checked on both chunks of 2**16 + 4,097
    # trials of the mixture with a stationary walk, whose trials draw no
    # phase: the generator stops where the words counted here end.
    assert engine._CHUNK_TRIALS == 2 ** 16
    chunks = []  # the generators, in the order they are made

    class Recording(np.random.Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            self.calls = []  # (words drawn, their values)
            chunks.append(self)

        def random(self, *, out):
            got = super().random(out=out)
            self.calls.append((len(out), out.copy()))
            return got

    monkeypatch.setattr(np.random, "Generator", Recording)
    _, pat, att, alpha = next(case for case in _frozen_mc_cases() if case[0] == "demo-stationary")
    evaluate(pat, att, alpha, method="mc", trials=2 ** 16 + 4_097, seed=seed, jobs=1)
    masses = [m for _, m in att.atoms] + [u.density * g.measure for u in att.uniform_parts
                                          for g in u.region.segment_list()]
    cum = exact_cumulative([s * m for _, s in pat.components for m in masses])
    moving = np.array([not w.is_stationary for w, _ in pat.components])
    assert len(chunks) == 2 and not moving.all()
    for c, gen in enumerate(chunks):
        n = (2 ** 16, 4_097)[c]
        ref = np.random.Philox(key=seed)
        ref.advance(c * 2 ** 16)  # four words per counter block
        picks = (ref.random_raw(n) >> np.uint64(11)) * 2.0 ** -53
        counts = np.bincount(np.searchsorted(cum, picks, side="right"), minlength=len(cum))
        counts = counts.reshape(len(moving), len(masses))[moving]
        phases, offsets = int(counts.sum()), int(counts[:, len(att.atoms):].sum())
        assert 0 < phases < n and 0 < offsets < phases
        sizes = np.cumsum([size for size, _ in gen.calls]).tolist()
        assert {n, n + phases, n + phases + offsets} <= set(sizes) and sizes[-1] == n + phases + offsets
        rest = (ref.random_raw(phases + offsets) >> np.uint64(11)) * 2.0 ** -53
        drawn = np.concatenate([values for _, values in gen.calls])
        assert np.array_equal(drawn, np.concatenate([picks, rest]))
        at = [(g.state["state"]["counter"].tolist(), g.state["buffer_pos"]) for g in (gen.bit_generator, ref)]
        assert at[0] == at[1]


def _pick_probes(cum):
    """0, the largest uniform, every 7th bucket edge, and each boundary in
    [0, 1) with its float neighbours."""
    probes = [0.0, 1 - 2.0 ** -53] + [k / 4096 for k in range(0, 4096, 7)]
    for c in cum:
        probes += [x for x in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)) if 0 <= x < 1]
    return np.array(probes)


def _check_pick(cum, u):
    want = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    got = engine._bucket_pick(cum)(u)
    assert np.array_equal(got, want) and got.dtype == np.intp


@pytest.mark.parametrize("masses", [
    [0.25, 0.0, 0.0, 0.5, 0.0, 0.25],  # zero-mass entries repeat a boundary
    [0.0, 0.0, 1.0],
    [0.3] + [1e-5] * 20 + [0.7 - 2e-4],  # many boundaries in one bucket
    [1 / 4096, 2 / 4096, 0.5 - 3 / 4096, 0.25, 0.25],  # boundaries on bucket edges
    [0.1] * 10,  # a float sum that ends below 1
    [1.0],
], ids=["zero-mass", "leading-zeros", "dense-bucket", "on-edges", "sum-below-1", "one"])
def test_bucket_pick_fixed_cases(masses):
    cum = np.cumsum(masses)
    _check_pick(cum, _pick_probes(cum))
    if masses == [0.1] * 10:
        assert cum[-1] < 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0),
                          st.integers(0, 4096).map(lambda k: k / 4096)), min_size=1, max_size=40),
       st.booleans(), st.lists(st.integers(0, 2 ** 53 - 1), max_size=50))
def test_bucket_pick_matches_searchsorted(masses, normalize, words):
    cum = np.cumsum(masses)
    if normalize and cum[-1] > 0:
        cum = np.cumsum(np.array(masses) / cum[-1])
    u = np.concatenate([_pick_probes(cum), np.array(words, dtype=np.float64) * 2.0 ** -53])
    _check_pick(cum, u)


@pytest.mark.parametrize("masses", [
    [F(1, 10)] * 10 + [F(0)],  # a float cumsum ends the tenths at 1 - 2**-53
    [F(0)] + [F(1, 3)] * 3 + [F(0)] * 2,
    [F(1, 7), F(0)] * 7,
    [F(1, 2 ** 60), F(1) - F(1, 2 ** 60), F(0)],
], ids=["tenths", "thirds", "sevenths", "tiny"])
def test_exact_tables_pick_no_zero_mass(masses):
    # the pick tables are correctly rounded exact prefix sums: a zero mass
    # repeats the boundary before it and the last boundary is 1.0, so no
    # uniform in [0, 1), the largest included, picks a zero-mass entry
    cum = engine._cumulative(masses)
    assert cum.tolist() == exact_cumulative(masses) and cum[-1] == 1.0
    u = _pick_probes(cum)
    got = engine._bucket_pick(cum)(u).tolist()
    assert all(masses[k] for k in got)
    assert got[1] == max(k for k, m in enumerate(masses) if m)  # u = 1 - 2**-53


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 12)), min_size=1, max_size=30)
       .filter(lambda xs: any(n for n, _ in xs)))
def test_exact_tables_match_fractions(parts):
    masses = [F(n, d) for n, d in parts]
    total = sum(masses)
    masses = [m / total for m in masses]
    cum = engine._cumulative(masses)
    assert cum.tolist() == exact_cumulative(masses) and cum[-1] == 1.0
    got = engine._bucket_pick(cum)(_pick_probes(cum)).tolist()
    assert all(masses[k] for k in got)


def test_attacker_best_response_stationary(sample_tree):
    w = Walk(sample_tree, sample_tree.node_point("B"))
    pat = PatrolStrategy.single(w)
    br = attacker_best_response(pat, 2, space_step=F(1, 2))
    assert br.probability == 0
    assert br.point != sample_tree.node_point("B")


def test_attacker_best_response_complete(unit_k4):
    pat = complete_patrolling(unit_k4)
    br = attacker_best_response(pat, 3, space_step=F(1, 8))
    assert br.probability == F(1, 2)
    assert not br.point.is_node


def test_attacker_best_response_e_patrol(sample_tree):
    for alpha in (2, 4):
        pat = e_patrolling(sample_tree, alpha)
        dec_points = [c.root for c in __import__("patrolgame").subtree_decomposition(sample_tree, alpha).components]
        br = attacker_best_response(pat, alpha, space_step=F(1, 8), extra_points=dec_points)
        assert br.probability >= game_value_tree(sample_tree, alpha) - F(1, 100)


def test_attacker_best_response_rejects_points_off_network(unit_k4):
    # an extra point off the patrol's network would be scored as never
    # visited and come back as the best response with probability 0
    star = star_network([1, 2, 3])
    pat = e_patrolling(star, 2)
    for p in (unit_k4.point("v1-v2", F(1, 2)), Point(arc="sa1", offset=F(7)), Point(node="zz")):
        with pytest.raises(ValidationError, match=f"^{re.escape(repr(p))} not on network$"):
            attacker_best_response(pat, 2, space_step=F(1, 2), extra_points=[p])


def _share_of_critical(rng, tree):
    return max(F(1, 4), F(int(critical_alpha(tree) * F(rng.randint(35, 65), 100) * 4), 4))


def test_best_response_matches_reference():
    # the argmin point and its probability against the Fraction grid scored
    # point by point: seeded E-patrols with the decomposition's roots, an
    # extra point off the grid (sevenths of an arc) and one on it; a mixture
    # with a stationary walk held at such an extra point; tour mixtures of
    # K4 and K6, one K4 with rational lengths
    rng = random.Random(46)
    cases = []
    for _ in range(10):
        tree = random_tree(rng, min_nodes=3, max_nodes=12)
        alpha = _share_of_critical(rng, tree)
        off = rng.choice(tree.arcs)
        on = rng.choice([a for a in tree.arcs if a.length > F(1, 4)] or [None])
        extra = [*subtree_decomposition(tree, alpha).roots, tree.point(off.id, off.length * F(rng.randint(1, 6), 7))]
        if on is not None:
            extra.append(tree.point(on.id, F(rng.randint(1, int(on.length * 4) - 1), 4)))
        pat = e_patrolling(tree, alpha)
        cases.append((pat, alpha, F(1, 4), extra))
        held = Walk(tree, extra[-1])
        cases.append((PatrolStrategy(tree, ((pat.components[0][0], F(2, 3)), (held, F(1, 3)))), alpha, F(1, 4), extra))
    k4z = Network([f"v{i}" for i in range(4)], [(f"e{i}{j}", f"v{i}", f"v{j}", rng.choice(LENGTH_POOL))
                                                for i in range(4) for j in range(i + 1, 4)])
    for net, step in ((complete_network(4), F(1, 8)), (complete_network(6), F(1, 4)), (k4z, F(1, 4))):
        mu = net.total_length
        for alpha in (mu - round_robin_one_factorization(net).delta, mu * F(1, 3)):
            cases.append((complete_patrolling(net), alpha, step, ()))
    for pat, alpha, step, extra in cases:
        br = attacker_best_response(pat, alpha, space_step=step, extra_points=extra)
        assert (br.point, br.probability) == best_response_reference(pat, alpha, step, extra)


def test_best_response_ties_resolve_to_the_first_in_sort_order(sample_tree):
    # a stationary walk at B catches nothing elsewhere: every other point
    # scores 0, and node A comes first in sort order
    pat = PatrolStrategy.single(Walk(sample_tree, sample_tree.node_point("B")))
    br = attacker_best_response(pat, 2, space_step=F(1, 2))
    assert (br.point, br.probability) == (sample_tree.node_point("A"), 0)
    assert (br.point, br.probability) == best_response_reference(pat, 2, F(1, 2))
    # on unit K4 every arc's midpoint ties; the first arc's comes first
    pat = complete_patrolling(complete_network(4))
    br = attacker_best_response(pat, 3, space_step=F(1, 2))
    assert br.point == Point(arc="v1-v2", offset=F(1, 2))
    assert (br.point, br.probability) == best_response_reference(pat, 3, F(1, 2))


def test_grid_evaluation_matches_discretized_reference():
    # the grid value scored from the integer cells equals the exact value of
    # the Fraction discretization: tree attacks, uniform attacks, overlapping
    # regions with an atom on a cell midpoint and a node atom, the K4
    # tightness attack; the exact method's fallback gives the same value
    rng = random.Random(47)
    cases = []
    for _ in range(10):
        tree = random_tree(rng, min_nodes=2, max_nodes=12)
        alpha = _share_of_critical(rng, tree)
        pat = e_patrolling(tree, alpha)
        law = TemporalLaw.uniform(rng.choice([1, F(7, 3)]))
        cases += [(pat, tree_attack_strategy(tree, alpha, horizon=60), alpha), (pat, uniform_attack(tree, law), alpha)]
        regions = [SubNetwork.from_segments(tree, [Segment(a.id, a.length * lo / 12, a.length * hi / 12)
                                                   for a in rng.sample(tree.arcs, rng.randint(1, len(tree.arcs)))
                                                   for lo, hi in [sorted(rng.sample(range(13), 2))]])
                   for _ in range(2)]
        seg = regions[0].segment_list()[0]
        on_mid = tree.point(seg.arc, seg.lo + seg.measure / -(seg.measure // -F(1, 4)) / 2)
        atoms = ((on_mid, F(1, 6)), (tree.node_point(rng.choice(tree.nodes)), F(1, 12)))
        parts = (UniformPart(regions[0], F(1, 2)), UniformPart(regions[1], F(1, 4)))
        cases.append((pat, AttackStrategy(tree, atoms, parts, law), alpha))
    k4 = complete_network(4)
    cases += [(complete_patrolling(k4), k4_tightness_attack(k4, alpha=a), a) for a in (F(9, 2), F(6))]
    for pat, attack, alpha in cases:
        for step in (F(1, 4), F(1, 3), F(2, 7)):
            want = engine._exact_atomic(pat, discretized_reference(attack, step), alpha)
            assert evaluate(pat, attack, alpha, method="grid", grid_step=step).probability == want
        assert evaluate(pat, attack, alpha, method="exact", grid_step=F(1, 4)).probability == \
            engine._exact_atomic(pat, discretized_reference(attack, F(1, 4)), alpha)


def test_inexact_offsets_are_not_on_network():
    # a Point whose offset is no int or Fraction lies on no network
    net, w = back_and_forth()
    p = Point(arc="a", offset=0.5)
    attack = AttackStrategy(net, ((p, F(1)),), (), TemporalLaw.fixed(0))
    calls = [lambda: evaluate(PatrolStrategy.single(w), attack, 1), lambda: walk_attack_probability(w, attack, 1),
             lambda: intercept(w, p, 0, 1), lambda: w.visit_times(p),
             lambda: attacker_best_response(PatrolStrategy.single(w), 1, space_step=F(1, 2), extra_points=[p]),
             lambda: SubNetwork.whole(net).grid_points(F(1, 2), extra=[p])]
    for call in calls:
        with pytest.raises(ValidationError, match=r"^arc:a:0\.5 not on network$"):
            call()
    assert not net.contains_point(p)


def test_grids_refuse_more_entries_than_the_guard(monkeypatch):
    # ceil(measure / step) per segment, counted from the ints before any
    # entry is built: at most the limit is admitted
    monkeypatch.setattr(network, "_GRID_LIMIT", 12)
    net = path_network(3, pieces=3)
    attack = uniform_attack(net, TemporalLaw.fixed(0))
    walk = walk_through_nodes(net, ["p0", "p1", "p2", "p3", "p2", "p1", "p0"])
    patrol = PatrolStrategy.single(walk)
    assert len(attack.discretized(F(1, 4)).atoms) == 12
    assert len(SubNetwork.whole(net).grid_points(F(1, 4))) == 13
    for call in (lambda step: SubNetwork.whole(net).grid_points(step), lambda step: attack.discretized(step),
                 lambda step: evaluate(patrol, attack, 1, method="grid", grid_step=step),
                 lambda step: evaluate(patrol, attack, 1, method="exact", grid_step=step),
                 lambda step: attacker_best_response(patrol, 1, space_step=step),
                 lambda step: walk_attack_probability(walk, attack, 1, grid_step=step),
                 lambda step: patrol_search(net, attack, 1, max_steps=1, grid_step=step)):
        call(F(1, 4))
        with pytest.raises(SizeGuardError, match="^grid of 15 cells at step 1/5 exceeds the limit of 12$"):
            call(F(1, 5))


def test_walk_attack_probability_fixed_reachable():
    net = Network(["u", "v"], [("a", "u", "v", 2)])
    atom = AttackStrategy(net, ((net.node_point("v"), F(1)),), (), TemporalLaw.fixed(0))
    w = Walk(net, net.node_point("u"), [Step("a", F(0), F(2))])
    assert walk_attack_probability(w, atom, 2) == 1
    assert walk_attack_probability(w, atom, 1) == 0  # arrives at 2, window ends at 1


def _walk_cases(rng):
    """Seeded walks of each kind on random trees and K4, with the points
    they start and end at and a few others."""
    k4 = complete_network(4)
    for i in range(140):
        net = k4 if i % 4 == 0 else random_tree(rng, min_nodes=2, max_nodes=6)
        kind = ["closed", "open", "stationary", "interior open", "interior closed"][i % 5]
        a = rng.choice(net.arcs)
        off = a.length * F(rng.randint(1, 4), 5)
        target = rng.choice([a.u, a.v])
        seq = [rng.choice(net.nodes) if "interior" not in kind else target]
        for _ in range(rng.randint(0 if "interior" in kind else 1, 4)):
            seq.append(rng.choice([b for b in net.incident(seq[-1]) if b.u != b.v]).other(seq[-1]))
        if kind == "closed":
            walk = random_closed_walk(net, rng, max_steps=5)
        elif kind == "open":
            walk = walk_through_nodes(net, seq)
        elif kind == "stationary":
            walk = Walk(net, rng.choice([net.node_point(seq[0]), net.point(a.id, off)]))
        else:
            walk = walk_through_nodes(net, seq, initial=(a.id, off))
            if kind == "interior closed":
                back = walk_through_nodes(net, node_path(net, seq[-1], target)).steps
                home = Step(a.id, F(0) if target == a.u else a.length, off)
                walk = Walk(net, walk.start, walk.steps + back + (home,))
        others = [net.node_point(rng.choice(net.nodes)),
                  net.point(a.id, a.length * F(rng.randint(1, 5), 6))]
        yield net, walk, [walk.start, walk.end_point] + others


def _outcome(call):
    try:
        return call()
    except ValidationError as e:
        return f"error: {e}"


def test_walk_scoring_matches_reference():
    rng = random.Random(83)
    seen = set()
    for net, walk, points in _walk_cases(rng):
        period = walk.duration
        for law in (TemporalLaw.fixed(F(rng.randint(0, 12), rng.choice((1, 2, 3)))),
                    TemporalLaw.uniform(F(rng.randint(1, 12), rng.choice((1, 2, 3))))):
            for alpha in (F(0), F(rng.randint(1, 12), rng.choice((1, 2, 5))), period + F(1, 2)):
                chosen = rng.sample(points, 2)
                att = AttackStrategy(net, ((chosen[0], F(1, 3)), (chosen[1], F(2, 3))), (), law)
                for dwell in (False, True):
                    if walk.is_closed and not walk.is_stationary:
                        rule = "repeat"
                    else:
                        rule = "hold" if walk.is_stationary or dwell else "none"
                    want = _outcome(lambda: walk_probability_reference(walk, att, alpha, rule))
                    got = _outcome(lambda: walk_attack_probability(walk, att, alpha,
                                                                   dwell_at_end=dwell))
                    assert got == want
                    seen.add((rule, law.kind, isinstance(want, str)))
                    x = chosen[0]
                    for t in (law.value, 10 ** 12 + 1):
                        one = AttackStrategy(net, ((x, F(1)),), (), TemporalLaw.fixed(t))
                        want = _outcome(lambda: walk_probability_reference(walk, one, alpha, rule) == 1)
                        assert _outcome(lambda: intercept(walk, x, t, alpha, dwell_at_end=dwell)) == want
    assert ("none", "fixed", True) in seen and ("none", "uniform", False) in seen
    assert {("repeat", k, False) for k in ("fixed", "uniform")} <= seen
    assert {("hold", k, False) for k in ("fixed", "uniform")} <= seen


def test_walk_scoring_over_many_periods_matches_reference():
    rng = random.Random(89)
    repeats = 0
    for net, walk, points in _walk_cases(rng):
        if not walk.is_closed or walk.is_stationary:
            continue
        for _ in range(2):
            horizon = walk.duration * rng.randint(2, 9) + F(rng.randint(0, 12), rng.choice((1, 2, 3, 5)))
            alpha = F(rng.randint(0, 16), rng.choice((1, 2, 5)))
            chosen = rng.sample(points, 2)
            att = AttackStrategy(net, ((chosen[0], F(1, 3)), (chosen[1], F(2, 3))), (),
                                 TemporalLaw.uniform(horizon))
            want = walk_probability_reference(walk, att, alpha, "repeat")
            assert walk_attack_probability(walk, att, alpha) == want
            repeats += 1
    assert repeats >= 50


def test_walk_scoring_at_a_far_horizon():
    # a unit back-and-forth walk catches an attack at u started in the last
    # half unit of each period of 2; the horizon is counted, not unrolled
    net, w = back_and_forth(1)
    for horizon, want in ((10 ** 9, F(1, 4)), (10 ** 9 + 1, F(10 ** 9 // 4, 10 ** 9 + 1))):
        att = AttackStrategy(net, ((net.node_point("u"), F(1)),), (), TemporalLaw.uniform(horizon))
        assert walk_attack_probability(w, att, F(1, 2)) == want


def test_walk_scoring_with_a_window_past_the_period():
    # a repeating walk catches every start once the window spans its period,
    # however long the window: the periods it spans are not unrolled
    net, w = back_and_forth(1)
    for x in (net.node_point("u"), net.point("a", F(1, 3))):
        for law in (TemporalLaw.uniform(F(7, 2)), TemporalLaw.fixed(5), TemporalLaw.fixed(10 ** 12 + 1)):
            att = AttackStrategy(net, ((x, F(1)),), (), law)
            for alpha in (F(1, 3), F(3, 2), F(2), F(9, 2)):
                assert walk_attack_probability(w, att, alpha) == walk_probability_reference(w, att, alpha, "repeat")
            assert walk_attack_probability(w, att, 10 ** 12) == 1


def test_patrol_search_reaches_fixed_atom():
    net = Network(["u", "v", "w"], [("a", "u", "v", 1), ("b", "v", "w", 1)])
    atom = AttackStrategy(net, ((net.node_point("w"), F(1)),), (), TemporalLaw.fixed(1))
    res = patrol_search(net, atom, 1, max_steps=3, offset_step=F(1, 2))
    assert res.probability == 1


def test_patrol_search_guard(unit_k4):
    # the guard counts every walk, the ones of max_steps steps included: a
    # family of exactly max_walks walks returns, one walk more raises
    att = k4_tightness_attack(unit_k4, alpha=5)
    with pytest.raises(SizeGuardError, match="^patrol family exceeded 10 walks$"):
        patrol_search(unit_k4, att, 5, max_steps=8, max_walks=10)
    for max_steps, family in ((4, 4840), (5, 14560)):
        res = patrol_search(unit_k4, att, 5, max_steps=max_steps, max_walks=family)
        assert res.walks_examined == family
        with pytest.raises(SizeGuardError, match=f"^patrol family exceeded {family - 1} walks$"):
            patrol_search(unit_k4, att, 5, max_steps=max_steps, max_walks=family - 1)
    # 200 lies inside the count of a skipped subtree of the 5-step family
    # (walks 124 to 243 in search order): skipped walks count toward the guard
    with pytest.raises(SizeGuardError, match="^patrol family exceeded 200 walks$"):
        patrol_search(unit_k4, att, 5, max_steps=5, max_walks=200)


def test_patrol_search_depth_guard():
    # on one arc the walk count grows only linearly in max_steps, so
    # max_walks never trips; a depth past the recursion limit is refused
    net = path_network(1)
    att = uniform_attack(net, TemporalLaw.uniform(3))
    kw = dict(offset_step=F(1, 2), grid_step=F(1, 2))
    with pytest.raises(SizeGuardError, match="max_steps=3000"):
        patrol_search(net, att, F(1, 2), max_steps=3000, **kw)
    assert patrol_search(net, att, F(1, 2), max_steps=50, **kw).walks_examined > 50


def test_patrol_search_rejects_bad_steps(unit_k4):
    # a non-positive offset step would drop the interior starts or fail in
    # `range`, and a negative step count would search as if it were 0; a
    # step count or a walk budget that is no integer, or a walk budget that
    # is not positive, is refused by name before any search
    att = k4_tightness_attack(unit_k4, alpha=5)
    for offset_step in (0, -1, F(-1, 4)):
        with pytest.raises(ValidationError, match="offset step must be positive"):
            patrol_search(unit_k4, att, 5, max_steps=2, offset_step=offset_step)
    with pytest.raises(ValidationError, match="max_steps must be nonnegative"):
        patrol_search(unit_k4, att, 5, max_steps=-1)
    for max_steps in (2.5, "3", True, F(2), None):
        with pytest.raises(ValidationError, match="^max_steps must be an integer, got "):
            patrol_search(unit_k4, att, 5, max_steps=max_steps)
    for max_walks in (0, -1, 2.5, "9", True, None):
        with pytest.raises(ValidationError, match="^max_walks must be a positive integer, got "):
            patrol_search(unit_k4, att, 5, max_steps=2, max_walks=max_walks)
    assert patrol_search(unit_k4, att, 5, max_steps=np.int64(2), max_walks=np.int64(10 ** 6)).walks_examined > 0


def test_strategies_on_another_network_are_refused(unit_k4):
    # a walk or an attack on another network would be scored against points
    # that are not there; a copy of the network parsed from its text is the
    # same network
    star = star_network([1, 2, 2])
    patrol, k4_attack = complete_patrolling(unit_k4), k4_tightness_attack(unit_k4, 5)
    star_attack = tree_attack_strategy(star, 2)
    for method in ("exact", "grid", "mc"):
        with pytest.raises(ValidationError, match="^attack is on another network$"):
            evaluate(patrol, star_attack, 2, method=method, trials=100)
    with pytest.raises(ValidationError, match="^patrol walk is on another network$"):
        PatrolStrategy(unit_k4, ((eulerian_tour(complete_network(5)), F(1)),))
    with pytest.raises(ValidationError, match="^attack is on another network$"):
        patrol_search(star, k4_attack, 5, max_steps=2)
    with pytest.raises(ValidationError, match="^attack is on another network$"):
        walk_attack_probability(double_traversal(star, "s0"), k4_attack, 5)
    copy = parse_network(format_network(unit_k4))
    assert copy is not unit_k4
    same = PatrolStrategy(copy, patrol.components)
    attack = k4_tightness_attack(copy, 5)
    assert evaluate(same, attack, 5).probability == evaluate(patrol, k4_attack, 5).probability
    assert patrol_search(unit_k4, attack, 5, max_steps=2).probability > 0
    assert walk_attack_probability(patrol.components[0][0], attack, 5) > 0


def _search_cases():
    """Seeded atomic-plus-uniform attacks on small networks, under both
    temporal laws."""
    rng = random.Random(29)
    path3 = Network(["u", "v", "w"], [("a", "u", "v", 1), ("b", "v", "w", F(3, 2))])
    triangle_tail = Network(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1), ("e4", "c", "d", 2)])
    for net, max_steps in ((path3, 4), (triangle_tail, 3), (complete_network(4), 3)):
        for temporal in (TemporalLaw.fixed(F(3, 2)), TemporalLaw.fixed(F(0)),
                         TemporalLaw.uniform(F(5, 2)), TemporalLaw.uniform(F(6))):
            points = [net.node_point(n) for n in net.nodes]
            points += [net.point(a.id, a.length * F(rng.randint(1, 3), 4)) for a in net.arcs]
            chosen = rng.sample(points, 3)
            weights = [rng.randint(1, 5) for _ in chosen]
            atoms = tuple((p, F(w, 2 * sum(weights))) for p, w in zip(chosen, weights))
            zone = ball(net, net.node_point(rng.choice(net.nodes)), F(1))
            att = AttackStrategy(net, atoms, (UniformPart(zone, F(1, 2)),), temporal)
            yield net, att, F(rng.randint(1, 6), 2), max_steps
    # a fixed start time and alpha = 0: an atom is caught only by a visit at
    # that very instant (the inputs draw nothing from rng)
    for net, max_steps in ((path3, 4), (complete_network(4), 3)):
        points = [net.node_point(n) for n in net.nodes] + [net.point(a.id, a.length / 2) for a in net.arcs]
        weight = len(points) * (len(points) + 1)  # twice the sum of the weights 1, 2, ...
        atoms = tuple((p, F(k + 1, weight)) for k, p in enumerate(points))
        zone = ball(net, net.node_point(net.nodes[-1]), F(1))
        for t in (F(0), F(3, 2), F(5, 2)):
            yield net, AttackStrategy(net, atoms, (UniformPart(zone, F(1, 2)),), TemporalLaw.fixed(t)), F(0), max_steps


def _assert_search_matches_bruteforce(net, att, alpha, max_steps):
    res = patrol_search(net, att, alpha, max_steps=max_steps, offset_step=F(1, 2),
                        grid_step=F(1, 2))
    best, count, walk = bruteforce_search(net, att, alpha, max_steps=max_steps,
                                          offset_step=F(1, 2), grid_step=F(1, 2))
    assert (res.probability, res.walks_examined) == (best, count)
    assert (res.walk.start, res.walk.steps) == (walk.start, walk.steps)
    if not walk.is_closed:  # a closed walk is repeated, not held, by the replay
        assert walk_attack_probability(res.walk, att, alpha, grid_step=F(1, 2)) == best
    return res


def test_patrol_search_matches_bruteforce():
    # at 0 steps only the starts are walks; at 1 each start's extensions are
    # all walks of max_steps steps, scored without being entered
    for net, att, alpha, max_steps in _search_cases():
        for steps in (0, 1, 2, max_steps):
            _assert_search_matches_bruteforce(net, att, alpha, steps)


def test_points_off_the_network_are_refused(unit_k4):
    pat = complete_patrolling(unit_k4)
    walk = pat.components[0][0]
    for x in (Point(node="zz"), Point(arc="v1-v2", offset=F(5)), Point(arc="zz", offset=F(1, 2))):
        for call in (lambda: intercept(walk, x, 0, 1), lambda: interception_probability(pat, x, 0, 1),
                     lambda: walk.visit_times(x)):
            with pytest.raises(ValidationError, match=f"^{re.escape(repr(x))} not on network$"):
                call()


def test_attack_atoms_off_the_network_are_refused(unit_k4):
    # an atom at an unknown node, past its arc's end or at an arc's end
    # (a node written as an arc offset) fails in each scorer of attacks
    walk = complete_patrolling(unit_k4).components[0][0]
    pat = PatrolStrategy.single(walk)
    for x in (Point(node="zz"), Point(arc="v1-v2", offset=F(5)), Point(arc="v1-v2", offset=F(0))):
        att = AttackStrategy(unit_k4, ((x, F(1)),), (), TemporalLaw.uniform(F(2)))
        for call in (lambda: evaluate(pat, att, 1), lambda: evaluate(pat, att, 1, method="mc", trials=10),
                     lambda: walk_attack_probability(walk, att, 1),
                     lambda: patrol_search(unit_k4, att, 1, max_steps=1)):
            with pytest.raises(ValidationError, match=f"^{re.escape(repr(x))} not on network$"):
                call()


def test_patrol_search_holds_after_a_last_revisit():
    """Seeded atomic attacks whose best walk has all max_steps steps and
    whose last step returns to an atom at a node the walk visited before:
    the wait at the end counts from that last visit."""
    rng = random.Random(1)
    path3 = Network(["u", "v", "w"], [("a", "u", "v", 1), ("b", "v", "w", F(3, 2))])
    triangle_tail = Network(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1), ("e4", "c", "d", 2)])
    revisits = set()
    for case in range(16):
        net = (path3, triangle_tail)[case % 2]
        law = (TemporalLaw.fixed, TemporalLaw.uniform)[case % 4 // 2](F(rng.randint(1, 8), 2))
        points = [net.node_point(n) for n in net.nodes]
        points += [net.point(a.id, a.length / 2) for a in net.arcs]
        chosen = rng.sample(points, 3)
        weights = [rng.randint(1, 5) for _ in chosen]
        atoms = tuple((p, F(w, sum(weights))) for p, w in zip(chosen, weights))
        res = _assert_search_matches_bruteforce(
            net, AttackStrategy(net, atoms, (), law), F(rng.randint(1, 4), 2), 3)
        end, full_steps = res.walk.end_point, len(res.walk.steps) - (not res.walk.start.is_node)
        if full_steps == 3 and end in dict(atoms) and min(res.walk.visit_times(end)) < res.walk.duration:
            revisits.add(law.kind)
    assert revisits == {"fixed", "uniform"}


def test_patrol_search_skips_match_bruteforce():
    """Seeded attacks whose windows close within a few steps, searched to
    more steps than the horizon allows, on a multigraph with a loop and on
    rational lengths, under both laws, with and without a zone: the search
    skips most extensions unscored and still returns the scan's probability,
    walk count and first best walk."""
    rng = random.Random(42)
    multigraph = Network(["u", "v", "w"], [("a", "u", "v", 1), ("b", "u", "v", F(3, 2)),
                                           ("c", "v", "w", F(2, 3)), ("l", "w", "w", 1)])
    rational = Network(["p", "q", "r", "s"], [("x", "p", "q", F(5, 3)), ("y", "q", "r", F(1, 2)),
                                              ("z", "r", "p", F(7, 4)), ("t", "r", "s", F(4, 3))])
    for case in range(4):
        net = (multigraph, rational)[case % 2]
        law = (TemporalLaw.fixed, TemporalLaw.uniform)[case // 2](F(1, 2))
        points = [net.node_point(n) for n in net.nodes]
        points += [net.point(a.id, a.length / 2) for a in net.arcs]
        chosen = rng.sample(points, 3)
        weights = [rng.randint(1, 5) for _ in chosen]
        zone = case in (1, 2)
        share = F(1, 2) if zone else F(1)
        atoms = tuple((p, share * F(w, sum(weights))) for p, w in zip(chosen, weights))
        parts = (UniformPart(ball(net, net.node_point(rng.choice(net.nodes)), F(1, 2)), F(1, 2)),) \
            if zone else ()
        # no move that starts at 3/2 or later gains, and each step takes at
        # least 1/2, so no walk gains after its third step
        _assert_search_matches_bruteforce(net, AttackStrategy(net, atoms, parts, law),
                                          F(rng.randint(1, 2), 2), 4)


def test_patrol_search_k4_frozen(unit_k4):
    for alpha, prob in ((F(9, 2), F(191, 288)), (F(5), F(17, 24)), (F(11, 2), F(3, 4)),
                        (F(6), F(19, 24))):
        res = patrol_search(unit_k4, k4_tightness_attack(unit_k4, alpha=alpha), alpha, max_steps=4)
        assert (res.probability, res.walks_examined) == (prob, 4840)
        if alpha == 5:
            assert res.walk.start == unit_k4.point("v1-v2", F(1, 4))
            assert [(s.arc, s.start, s.end) for s in res.walk.steps] == [
                ("v1-v2", F(1, 4), 1), ("v2-v3", 0, 1), ("v1-v3", 1, 0), ("v1-v4", 0, 1),
                ("v2-v4", 1, 0)]
    res = patrol_search(unit_k4, k4_tightness_attack(unit_k4, alpha=5), 5, max_steps=5)
    assert (res.probability, res.walks_examined) == (F(19, 24), 14560)
    res = patrol_search(unit_k4, uniform_attack(unit_k4, TemporalLaw.fixed(F(3, 2))), 3, max_steps=5)
    assert (res.probability, res.walks_examined) == (F(1, 2), 14560)
    assert res.walk.start == unit_k4.node_point("v1")
    assert [(s.arc, s.start, s.end) for s in res.walk.steps] == [
        ("v1-v2", 0, 1), ("v1-v2", 1, 0), ("v1-v3", 0, 1), ("v2-v3", 1, 0), ("v1-v2", 1, 0)]


def test_best_response_ignores_time_step(sample_tree, unit_k4):
    cases = []
    for alpha in (2, 4, 6, 8):
        roots = [c.root for c in subtree_decomposition(sample_tree, alpha).components]
        cases.append((e_patrolling(sample_tree, alpha), alpha, roots))
    cases += [(complete_patrolling(unit_k4), alpha, []) for alpha in (2, 3)]
    for pat, alpha, extra in cases:
        plain = attacker_best_response(pat, alpha, space_step=F(1, 8), extra_points=extra)
        with pytest.warns(DeprecationWarning, match="time_step"):
            timed = attacker_best_response(pat, alpha, space_step=F(1, 8), time_step=F(1, 8),
                                           extra_points=extra)
        assert (timed.point, timed.time, timed.probability) == (plain.point, F(0), plain.probability)
        assert (plain.time_step, timed.time_step) == (None, F(1, 8))


def test_uniform_zone_bound_small():
    # any patrol intercepts a uniform attack on a zone with probability at
    # most alpha / measure(zone), up to the quadrature resolution
    rng = random.Random(71)
    nets = [complete_network(4), Network(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1), ("e4", "c", "d", 2)])]
    for net in nets:
        for _ in range(3):
            center = net.node_point(rng.choice(net.nodes))
            zone = ball(net, center, F(3, 2))
            alpha = F(1)
            horizon = F(4)
            att = uniform_attack(zone, TemporalLaw.uniform(horizon))
            disc = att.discretized(F(1, 4))
            tol = F(1, 8) * 12 / horizon  # cell halfwidth x visit bound / horizon
            for seed in range(4):
                w = random_closed_walk(net, random.Random(seed), max_steps=8)
                p = walk_attack_probability(w, disc, alpha)
                assert p <= alpha / zone.measure + tol


def test_mc_matches_value_two_sided(sample_tree):
    # extremity patrolling guarantees at least the game value; against the
    # horizon attack it cannot exceed it by more than the slack
    pat = e_patrolling(sample_tree, 4)
    att = tree_attack_strategy(sample_tree, 4, horizon=240)
    r = evaluate(pat, att, 4, method="mc", trials=100_000, seed=3)
    v = 4 / 17
    assert v - 3 * r.ci_halfwidth <= r.probability <= v + 1 / 20 + 3 * r.ci_halfwidth


def test_evaluate_atom_at_unvisited_point(sample_tree):
    w = walk_through_nodes(sample_tree, ["A", "B", "A"])
    pat = PatrolStrategy.single(w)
    atom = AttackStrategy(sample_tree, ((sample_tree.node_point("L3"), F(1)),), (),
                          TemporalLaw.fixed(0))
    assert evaluate(pat, atom, 2).probability == 0


def test_periodic_tour_held_near_value(sample_tree):
    # a full periodic tour, scored deterministically against the horizon
    # attack, stays within the slack of the game value
    att = tree_attack_strategy(sample_tree, 4, epsilon=F(1, 20))
    tour = double_traversal(sample_tree, "A")
    p = walk_attack_probability(tour, att, 4, grid_step=F(1, 8))
    assert p <= game_value_tree(sample_tree, 4) + F(1, 20) + F(1, 50)


def test_validate_alpha_warning_branch(unit_k4):
    from patrolgame import validate_alpha

    tail = Network(["a", "b", "c"],
                   [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1),
                    ("e4", "a", "c", 1)])  # parallel arcs: neither tree nor Eulerian? degrees: a3 b2 c3
    with pytest.warns(UserWarning):
        validate_alpha(tail, 2)
    with pytest.raises(ValidationError):
        validate_alpha(unit_k4, 20)


def test_greedy_and_random_walks_close(sample_tree, unit_k4):
    for net in (sample_tree, unit_k4):
        w = greedy_coverage_walk(net, seed=3)
        assert w.is_closed
        r = random_closed_walk(net, random.Random(11), max_steps=12)
        assert r.is_closed


def _verify_trees(seed: int):
    """The demo tree at duration 4 and the seeded trees of one benchmark
    `tree_verify` pass: random attachment on 8-24 nodes, duration a drawn
    share of the critical one on a quarter grid."""
    rng = random.Random(f"tree_verify:{seed}")
    yield make_sample_tree(), F(4)
    pool = (F(1, 2), F(1), F(3, 2), F(2), F(1, 4), F(3), F(5, 2))
    for n in (8, 12, 16, 20, 24):
        nodes = [f"n{i}" for i in range(n)]
        arcs = [(f"e{i:04d}", nodes[rng.randrange(i)], nodes[i], rng.choice(pool))
                for i in range(1, n)]
        net = Network(nodes, arcs)
        share = F(rng.randint(35, 65), 100)
        yield net, max(F(1, 4), F(int(critical_alpha(net) * share * 4), 4))


def _exact_digest(pat, alpha, attack, step, extra=()) -> str:
    """SHA-256 over the best response, the grid and exact evaluations and
    the probability at every point of the best response's grid."""
    net = pat.network
    br = attacker_best_response(pat, alpha, space_step=step, extra_points=extra)
    lines = [f"br {br.point!r} {br.probability}"]
    for method, att in (("grid", attack), ("exact", attack), ("exact", attack.discretized(F(1, 2)))):
        r = evaluate(pat, att, alpha, method=method, grid_step=step)
        lines.append(f"{method} {r.method} {r.probability} {r.notes}")
    for x in SubNetwork.whole(net).grid_points(step, extra=extra):
        lines.append(f"{x!r} {interception_probability(pat, x, 0, alpha)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


EXACT_TREE_DIGESTS = [
    "344c27c594557ca8b328833d769c01ff53f334306cf142c1601d1096d7ac0f53",
    "b2060843d6d3d98a85fb799d194426bc1df73c23120a4fb14c605d9906e3d575",
    "5220a5c3db1c193b8278837668cdddc8a237c5ec5d4deed934dd67e70195e37f",
    "786f42646b3dbd60e2ba26a0135647ee84c7e11bd1f0e9db39125cbfb3662775",
    "47b9c0de86b439fd3e1acea0a261382bd6a1795105d01702d35dd666cdb55de1",
    "d5c73a75c4972323418fc0b9fa7fe834913e065dea90db1e43d41f72ad270dcb",
]
EXACT_COMPLETE_DIGESTS = [
    "09bee7bb29f9e367acac3bd7ba407c3af5e30902367c2608cd991f7841a7818b",
    "b49acccc40fbd2eae205073c33817d4bde08007892737398e06d883d5b2b51b4",
    "4fe2c89c2638d0bca4bf15e9e9a662a89aecc7e8fe8d958a4418d53555df51c5",
]


def test_exact_interception_frozen():
    got = []
    for net, alpha in _verify_trees(1):
        dec = subtree_decomposition(net, alpha)
        att = tree_attack_strategy(net, alpha, epsilon=F(1, 20))
        got.append(_exact_digest(e_patrolling(net, alpha), alpha, att, F(1, 8), dec.roots))
    assert got == EXACT_TREE_DIGESTS
    got = []
    for n in (4, 6, 8):
        net = complete_network(n)
        pat = complete_patrolling(net)
        att = uniform_attack(net, TemporalLaw.fixed(0))
        alpha = net.total_length - round_robin_one_factorization(net).delta
        got.append(_exact_digest(pat, alpha, att, F(1, 2)))
    assert got == EXACT_COMPLETE_DIGESTS
