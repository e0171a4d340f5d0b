import random
from fractions import Fraction

import pytest

from patrolgame import (
    AttackStrategy,
    PatrolStrategy,
    PhaseIntervalSet,
    Network,
    Step,
    TemporalLaw,
    UniformPart,
    ValidationError,
    Walk,
    attacker_best_response,
    complete_network,
    complete_patrolling,
    double_traversal,
    e_patrolling,
    evaluate,
    game_value_tree,
    greedy_coverage_walk,
    intercept,
    interception_probability,
    k4_tightness_attack,
    patrol_search,
    random_closed_walk,
    subtree_decomposition,
    tree_attack_strategy,
    uniform_attack,
    walk_attack_probability,
    walk_through_nodes,
)
from patrolgame.engine import periodic_visits
from conftest import random_tree
from oracles import bruteforce_search

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


def test_phase_interval_set():
    s = PhaseIntervalSet.from_visits([F(1), F(3)], 0, 1, 4)
    assert s.measure == 2
    s2 = PhaseIntervalSet.from_visits([F(1), F(3)], 0, 3, 4)
    assert s2.measure == 4  # saturates at the period
    s3 = PhaseIntervalSet.from_visits([F(0)], 0, 1, 4)
    assert s3.measure == 1
    assert all(0 <= lo < hi <= 4 for lo, hi in s3.intervals)


def test_interception_probability_fixtures():
    net, w = back_and_forth()
    patrol = PatrolStrategy.single(w)
    mid = net.point("a", 1)
    assert interception_probability(patrol, mid, 0, 1) == F(1, 2)
    assert interception_probability(patrol, net.node_point("u"), 0, 1) == F(1, 4)
    # invariant in the attack start time
    assert interception_probability(patrol, mid, F(17, 3), 1) == F(1, 2)


def test_interception_probability_complete_k4(unit_k4):
    pat = complete_patrolling(unit_k4)
    assert interception_probability(pat, unit_k4.node_point("v2"), 0, 3) == F(3, 4)
    x = unit_k4.point("v1-v2", F(1, 2))
    assert interception_probability(pat, x, 0, 3) == F(1, 2)


def test_subadditivity_bound():
    rng = random.Random(61)
    for _ in range(20):
        tree = random_tree(rng, min_nodes=3)
        walk = double_traversal(tree, rng.choice(tree.nodes))
        patrol = PatrolStrategy.single(walk)
        alpha = F(rng.randint(1, 8), 2)
        arc = rng.choice(tree.arcs)
        x = tree.point(arc.id, arc.length * F(rng.randint(1, 3), 4))
        vis = periodic_visits(walk, x)
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


def test_walk_attack_probability_fixed_reachable():
    net = Network(["u", "v"], [("a", "u", "v", 2)])
    atom = AttackStrategy(net, ((net.node_point("v"), F(1)),), (), TemporalLaw.fixed(0))
    w = Walk(net, net.node_point("u"), [Step("a", F(0), F(2))])
    assert walk_attack_probability(w, atom, 2) == 1
    assert walk_attack_probability(w, atom, 1) == 0  # arrives at 2, window ends at 1


def test_patrol_search_reaches_fixed_atom():
    net = Network(["u", "v", "w"], [("a", "u", "v", 1), ("b", "v", "w", 1)])
    atom = AttackStrategy(net, ((net.node_point("w"), F(1)),), (), TemporalLaw.fixed(1))
    res = patrol_search(net, atom, 1, max_steps=3, offset_step=F(1, 2))
    assert res.probability == 1


def test_patrol_search_guard(unit_k4):
    att = k4_tightness_attack(unit_k4, alpha=5)
    with pytest.raises(Exception):
        patrol_search(unit_k4, att, 5, max_steps=8, max_walks=10)


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
            zone = net.ball(net.node_point(rng.choice(net.nodes)), F(1))
            att = AttackStrategy(net, atoms, (UniformPart(zone, F(1, 2)),), temporal)
            yield net, att, F(rng.randint(1, 6), 2), max_steps


def test_patrol_search_matches_bruteforce():
    for net, att, alpha, max_steps in _search_cases():
        res = patrol_search(net, att, alpha, max_steps=max_steps, offset_step=F(1, 2),
                            grid_step=F(1, 2))
        best, count, walk = bruteforce_search(net, att, alpha, max_steps=max_steps,
                                              offset_step=F(1, 2), grid_step=F(1, 2))
        assert (res.probability, res.walks_examined) == (best, count)
        assert (res.walk.start, res.walk.steps) == (walk.start, walk.steps)
        if not walk.is_closed:  # a closed walk is repeated, not held, by the replay
            assert walk_attack_probability(res.walk, att, alpha, grid_step=F(1, 2)) == best


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


def test_best_response_ignores_time_step(sample_tree, unit_k4):
    cases = []
    for alpha in (2, 4, 6, 8):
        roots = [c.root for c in subtree_decomposition(sample_tree, alpha).components]
        cases.append((e_patrolling(sample_tree, alpha), alpha, roots))
    cases += [(complete_patrolling(unit_k4), alpha, []) for alpha in (2, 3)]
    for pat, alpha, extra in cases:
        plain = attacker_best_response(pat, alpha, space_step=F(1, 8), extra_points=extra)
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
            zone = net.ball(center, F(3, 2))
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
