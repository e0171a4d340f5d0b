"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import random
import types
from fractions import Fraction

import pytest

import patrolgame
from patrolgame import (
    PatrolStrategy,
    Network,
    RootedSubtree,
    SubNetwork,
    TemporalLaw,
    attacker_best_response,
    complete_network,
    complete_patrolling,
    double_traversal,
    e_patrolling,
    ebd,
    enumerate_one_factorizations,
    evaluate,
    game_value_tree,
    girth,
    interception_probability,
    k4_tightness_attack,
    patrol_search,
    subtree_decomposition,
    tree_attack_strategy,
    uniform_attack,
)
from conftest import make_sample_tree, random_tree
from oracles import (ball, branch_stats, greedy_coverage_walk, iter_cut_subtree_stats, random_closed_walk,
                     subtree_above)

F = Fraction


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")
        return run
    return wrap


@criterion("decomposition-fixtures")
def test_decomposition_fixtures():
    tree = make_sample_tree()
    expected = {
        2: (F(5), F(2, 15),
            [(1, "arc:aL62:1"), (1, "arc:bL22:1"), (1, "node:A"), (1, "node:C"), (1, "node:C")]),
        4: (F(7), F(4, 17),
            [(1, "node:A"), (1, "node:C"), (1, "node:C"), (2, "node:A"), (2, "node:B")]),
        6: (F(8), F(6, 18),
            [(1, "node:A"), (2, "node:A"), (2, "node:B"), (3, "arc:bBC:1")]),
        8: (F(10), F(8, 20),
            [(2, "node:B"), (4, "node:B"), (4, "node:B")]),
    }
    for alpha, (lam_e, value, comps) in expected.items():
        dec = subtree_decomposition(tree, alpha)
        assert dec.lambda_e == lam_e
        assert game_value_tree(tree, alpha) == value
        got = sorted((c.measure, str(c.root)) for c in dec.components)
        assert got == sorted(comps)
        assert dec.core.measure + dec.lambda_e == 10


@criterion("attack-distribution-fixtures")
def test_attack_distribution_fixtures():
    tree = make_sample_tree()
    figures = {
        2: ({"L5": F(2, 15), "L62": F(2, 15), "L22": F(2, 15), "L3": F(2, 15), "L4": F(2, 15)},
            F(5, 15)),
        4: ({"L5": F(2, 17), "L62": F(4, 17), "L22": F(4, 17), "L3": F(2, 17), "L4": F(2, 17)},
            F(3, 17)),
        6: ({"L5": F(2, 18), "L62": F(4, 18), "L22": F(4, 18), "L3": F(3, 18), "L4": F(3, 18)},
            F(2, 18)),
        8: ({"L5": F(8, 60), "L62": F(16, 60), "L22": F(4, 20), "L3": F(4, 20), "L4": F(4, 20)},
            F(0)),
    }
    for alpha, (atom_masses, core_mass) in figures.items():
        att = tree_attack_strategy(tree, alpha)
        got = {p.node: m for p, m in att.atoms}
        assert got == atom_masses
        assert sum(p.mass for p in att.uniform_parts) == core_mass
        assert att.total_mass == 1


@criterion("ebd-density-bound")
def test_ebd_density_bound_suite():
    # cut positions enter the subtree length linearly, so the grid extremes
    # (drop, half, whole) bound the full continuum of cut subtrees
    grid = (F(1, 2),)
    rng = random.Random(101)
    trees_done = 0
    while trees_done < 100:
        tree = random_tree(rng, max_nodes=12, min_nodes=3)
        if len(tree.leaf_nodes()) > 8:
            continue
        root_name = rng.choice(tree.nodes)
        rooted = RootedSubtree(SubNetwork.whole(tree), tree.node_point(root_name))
        dist = ebd(rooted, 1)
        for _, stats in branch_stats(rooted, dist):
            assert len({m / lam for lam, m in stats}) == 1
        candidates = [n for n in tree.nodes if n != root_name and tree.degree(n) > 1]
        for name in candidates[:3]:
            x = tree.node_point(name)
            qx = subtree_above(tree, rooted.root, x)
            mass_qx = dist.mass_on(qx.subtree)
            lam_qx = qx.subtree.measure
            for lam, m in iter_cut_subtree_stats(qx, dist, grid):
                assert m * lam_qx <= mass_qx * lam
        trees_done += 1


@criterion("complete-network-exactness")
def test_complete_network_exactness():
    k4 = complete_network(4)
    pat = complete_patrolling(k4)
    regulars = [k4.point(a.id, off) for a in k4.arcs for off in (F(1, 4), F(1, 2), F(2, 3))]
    for alpha in (1, 2, 3, 4):
        for x in regulars:
            assert interception_probability(pat, x, 0, alpha) == F(alpha, 6)
        for name in k4.nodes:
            assert interception_probability(pat, k4.node_point(name), 0, alpha) == \
                F(3, 2) * F(alpha, 6)


@criterion("factorization-counts")
def test_factorization_counts():
    assert sum(1 for _ in enumerate_one_factorizations(complete_network(4))) == 1
    assert sum(1 for _ in enumerate_one_factorizations(complete_network(6))) == 6
    assert sum(1 for _ in enumerate_one_factorizations(complete_network(8))) == 6240


@criterion("girth-inequality")
def test_girth_inequality():
    rng = random.Random(103)
    for n in (4, 6):
        base = complete_network(n)
        half_n = n // 2
        for _ in range(50):
            lengths = [F(rng.randint(1, 24), rng.choice([1, 2, 3, 4])) for _ in base.arcs]
            net = Network(base.nodes, [(a.id, a.u, a.v, l) for a, l in zip(base.arcs, lengths)])
            g = girth(net)
            mu = net.total_length
            for fact in enumerate_one_factorizations(net):
                assert mu - fact.delta >= F(half_n * (half_n - 1), 2) * g


def _adversarial_suite(tree, alpha, att):
    suite = [e_patrolling(tree, alpha),
             PatrolStrategy.single(double_traversal(tree, tree.nodes[0]))]
    greedy = []
    for seed in range(5):
        walk = greedy_coverage_walk(tree, seed=seed)
        est = evaluate(PatrolStrategy.single(walk), att, alpha,
                       method="mc", trials=20_000, seed=seed)
        greedy.append((est.probability, seed, walk))
    suite.append(PatrolStrategy.single(max(greedy)[2]))  # restart winner
    for seed in range(50):
        suite.append(PatrolStrategy.single(
            random_closed_walk(tree, random.Random(1000 + seed), max_steps=24)))
    return suite


@criterion("attack-horizon-upper-bound")
def test_attack_horizon_upper_bound():
    # with start times spread over T = 3*alpha/epsilon, no patrol in the
    # adversarial suite beats the game value by more than epsilon
    tree = make_sample_tree()
    eps = F(1, 20)
    for alpha in (2, 4, 6, 8):
        att = tree_attack_strategy(tree, alpha, epsilon=eps)
        assert att.temporal.value == 3 * alpha / eps
        v_star = game_value_tree(tree, alpha)
        bound_core = float(v_star + eps)
        for i, patrol in enumerate(_adversarial_suite(tree, alpha, att)):
            res = evaluate(patrol, att, alpha, method="mc", trials=100_000, seed=i)
            assert res.probability <= bound_core + 3 * res.ci_halfwidth, \
                f"alpha={alpha} patrol#{i}: {res.probability} > {bound_core}+3ci"


@criterion("patrol-lower-bound")
def test_patrol_lower_bound():
    tree = make_sample_tree()
    for alpha in (2, 4, 6, 8):
        pat = e_patrolling(tree, alpha)
        dec = subtree_decomposition(tree, alpha)
        with pytest.warns(DeprecationWarning, match="time_step"):
            br = attacker_best_response(pat, alpha, space_step=F(1, 8), time_step=F(1, 8),
                                        extra_points=[c.root for c in dec.components])
        v_star = game_value_tree(tree, alpha)
        assert br.probability >= v_star - F(1, 100), \
            f"construction gap at alpha={alpha}: min {br.probability} < {v_star} - 1/100"


@criterion("k4-search-tightness")
def test_k4_search_tightness():
    k4 = complete_network(4)
    att = k4_tightness_attack(k4, alpha=5)
    res = patrol_search(k4, att, 5, max_steps=8, offset_step=F(1, 4), grid_step=F(1, 4))
    assert res.probability < F(5, 6)
    assert (res.probability, res.walks_examined) == (F(19, 24), 393_640)
    assert res.walk.start == k4.node_point("v1")
    assert [(s.arc, s.start, s.end) for s in res.walk.steps] == [
        ("v1-v2", 0, 1), ("v2-v3", 0, 1), ("v1-v3", 1, 0), ("v1-v4", 0, 1), ("v2-v4", 1, 0),
        ("v1-v2", 1, 0)]
    margin = F(5, 6) - res.probability
    print(f"  best walk intercepts {res.probability} = 5/6 - {margin} "
          f"({res.walks_examined} walks examined)")


@criterion("zone-uniform-bound")
def test_zone_uniform_bound():
    rng = random.Random(107)
    triangle_tail = Network(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1), ("e4", "c", "d", 2)])
    nets = [complete_network(4), triangle_tail, make_sample_tree()]
    horizon = F(6)
    max_steps = 4
    grid_step = F(1, 4)
    zones_done = 0
    while zones_done < 20:
        net = nets[zones_done % len(nets)]
        center = net.node_point(rng.choice(net.nodes))
        radius = F(rng.randint(2, 5), 2)
        zone = ball(net, center, radius)
        if zone.measure == 0 or zone.measure == net.total_length:
            continue
        alpha = F(1)
        att = uniform_attack(zone, TemporalLaw.uniform(horizon))
        res = patrol_search(net, att, alpha, max_steps=max_steps,
                            offset_step=F(1, 2), grid_step=grid_step)
        # quadrature moves each visit by at most half a cell
        tol = (max_steps + 1) * grid_step / 2 / horizon
        assert res.probability <= alpha / zone.measure + tol, \
            f"zone of measure {zone.measure}: {res.probability} > bound"
        zones_done += 1


PUBLIC_NAMES = [
    "Arc", "AttackStrategy", "BestResponse", "EvaluationResult", "ExtremitySet", "Factorization",
    "FactorizationError", "FormatError", "LeafDistribution", "Network", "PatrolStrategy", "Point",
    "RootedSubtree", "SearchResult", "Segment", "SizeGuardError", "Step", "SubNetwork",
    "SubtreeDecomposition", "TemporalLaw", "TreeComponent", "UniformPart", "ValidationError", "Walk",
    "attacker_best_response", "best_one_factorization", "complete_network", "complete_patrolling",
    "components_after_removal", "core", "critical_alpha", "density", "double_traversal", "e_patrolling",
    "ebd", "enumerate_one_factorizations", "epsilon_horizon", "eulerian_tour", "evaluate",
    "extremity_set", "factor_patrolling", "format_network", "frac", "game_value_tree", "girth",
    "intercept", "interception_probability", "k4_tightness_attack", "local_root_of_tree",
    "parse_network", "path_network", "patrol_search", "round_robin_one_factorization", "star_network",
    "subtree_decomposition", "tree_attack_strategy", "uniform_attack", "validate_alpha",
    "validate_factorization", "value_complete", "walk_attack_probability", "walk_through_nodes",
]


@criterion("public-names-frozen")
def test_public_names_frozen():
    # every change to the package's public names shows in this list
    names = sorted(n for n, v in vars(patrolgame).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
