import random
from fractions import Fraction

import pytest

from patrolgame import (
    LeafDistribution,
    Network,
    Point,
    RootedSubtree,
    SubNetwork,
    ValidationError,
    critical_alpha,
    density,
    ebd,
    path_network,
    star_network,
    subtree_above,
    subtree_decomposition,
    tree_attack_strategy,
    uniform_attack,
    TemporalLaw,
)
from conftest import LENGTH_POOL, random_tree
from oracles import branch_stats, fraction_ebd, iter_cut_subtree_stats

F = Fraction

CUT_GRID = (F(1, 2),)  # interiors are linear in the cut, so extremes plus one
                       # midpoint bound the whole continuum of cut subtrees


def rooted_whole(tree, root_name):
    return RootedSubtree(SubNetwork.whole(tree), tree.node_point(root_name))


def test_ebd_single_path():
    path = path_network(3, pieces=3)
    dist = ebd(rooted_whole(path, "p0"), F(2, 3))
    assert dist.atoms == ((path.node_point("p3"), F(2, 3)),)


def test_ebd_sample_tree_west_component(sample_tree):
    dec = subtree_decomposition(sample_tree, 8)
    west = next(c for c in dec.components if c.measure == 4 and
                c.subtree.contains(sample_tree.node_point("L5")))
    dist = ebd(RootedSubtree(west.subtree, west.root), F(8, 20))
    masses = {str(p): m for p, m in dist.atoms}
    assert masses == {"node:L5": F(8, 60), "node:L62": F(16, 60)}


def test_ebd_sample_tree_east_component(sample_tree):
    dec = subtree_decomposition(sample_tree, 8)
    east = next(c for c in dec.components if c.subtree.contains(sample_tree.node_point("L3")))
    dist = ebd(RootedSubtree(east.subtree, east.root), F(8, 20))
    masses = {str(p): m for p, m in dist.atoms}
    assert masses == {"node:L3": F(4, 20), "node:L4": F(4, 20)}


def test_ebd_conservation_and_support():
    rng = random.Random(23)
    for _ in range(30):
        tree = random_tree(rng, min_nodes=3)
        root = rng.choice(tree.nodes)
        mass = F(rng.randint(1, 9), rng.randint(1, 9))
        dist = ebd(rooted_whole(tree, root), mass)
        assert dist.total == mass
        assert sum(m for _, m in dist.atoms) == mass
        leaves = {tree.node_point(l) for l in tree.leaf_nodes()}
        assert all(p in leaves and p != tree.node_point(root) for p, _ in dist.atoms)


def test_ebd_branch_densities_equal():
    rng = random.Random(29)
    for _ in range(20):
        tree = random_tree(rng, min_nodes=4)
        root = rng.choice(tree.nodes)
        rooted = rooted_whole(tree, root)
        dist = ebd(rooted, 1)
        for _, stats in branch_stats(rooted, dist):
            densities = {m / lam for lam, m in stats}
            assert len(densities) == 1


def test_ebd_matches_fraction_reference():
    # whole trees from a random root, and the components of decompositions
    # below and at the critical duration, whose cut points often have a
    # denominator that does not divide D
    rng = random.Random(43)
    off_scale = 0
    for _ in range(40):
        tree = random_tree(rng, max_nodes=16, min_nodes=2)
        cases = [rooted_whole(tree, rng.choice(tree.nodes))]
        a_star = critical_alpha(tree)
        for alpha in (a_star * F(rng.randint(20, 95), 100), a_star):
            cases += [RootedSubtree(c.subtree, c.root) for c in subtree_decomposition(tree, alpha).components]
        for rooted in cases:
            mass = F(rng.randint(0, 9), rng.randint(1, 9))
            assert ebd(rooted, mass) == fraction_ebd(rooted, mass)
            off_scale += any(tree._units[0] % x.denominator for s in rooted.subtree.segment_list()
                             for x in (s.lo, s.hi))
    assert off_scale > 20


def test_ebd_deep_spine_matches_fraction_reference():
    # the benchmark's deep probe shape: 2,000 unit arcs, about one node in
    # ten carrying a pendant leaf, rooted at one end
    rng = random.Random(61)
    nodes = [f"s{i}" for i in range(2001)]
    arcs = [(f"a{i:05d}", nodes[i], nodes[i + 1], 1) for i in range(2000)]
    for i in range(1, 2000):
        if rng.random() < 0.1:
            nodes.append(f"t{i}")
            arcs.append((f"b{i:05d}", f"s{i}", f"t{i}", rng.choice(LENGTH_POOL)))
    spine = Network(nodes, arcs)
    rooted = rooted_whole(spine, "s0")
    dist = ebd(rooted, 1)
    assert len(dist.atoms) > 150
    assert dist == fraction_ebd(rooted, 1)


def test_ebd_degenerate_root_rejected():
    path = path_network(1)
    lone = SubNetwork.single_point(path, path.node_point("p0"))
    with pytest.raises(ValidationError):
        ebd(RootedSubtree(lone, path.node_point("p0")), 1)


def test_density_fixtures(sample_tree):
    zone = SubNetwork.from_segments(
        sample_tree, [s for s in SubNetwork.whole(sample_tree).segment_list()
                      if s.arc in ("aL62", "bL22")])
    att = uniform_attack(zone, TemporalLaw.fixed(0))
    assert density(att, zone) == F(1, 4)

    attack4 = tree_attack_strategy(sample_tree, 4)
    l62 = SubNetwork.from_segments(sample_tree, [
        s for s in SubNetwork.whole(sample_tree).segment_list() if s.arc == "aL62"])
    assert density(attack4, l62) == F(2, 17)

    atom = LeafDistribution(((sample_tree.node_point("L3"), F(3, 5)),), F(3, 5))
    branch = SubNetwork.from_segments(sample_tree, [
        s for s in SubNetwork.whole(sample_tree).segment_list() if s.arc == "cL3"])
    assert density(atom, branch) == F(3, 5)


def test_density_rejects_zero_measure(sample_tree):
    att = tree_attack_strategy(sample_tree, 4)
    point = SubNetwork.single_point(sample_tree, sample_tree.node_point("B"))
    with pytest.raises(ValidationError):
        density(att, point)


def test_subtree_above(sample_tree):
    root = sample_tree.node_point("B")
    qx = subtree_above(sample_tree, root, sample_tree.node_point("A"))
    assert qx.subtree.measure == 3
    assert qx.root == sample_tree.node_point("A")
    qc = subtree_above(sample_tree, root, sample_tree.point("bBC", 1))
    assert qc.subtree.measure == 3


def test_cut_subtree_density_bound_small():
    # every grid-cut subtree Z above x satisfies mass(Z)/len(Z) <= mass(Qx)/len(Qx)
    rng = random.Random(31)
    for _ in range(15):
        tree = random_tree(rng, min_nodes=4)
        root_name = rng.choice(tree.nodes)
        rooted = rooted_whole(tree, root_name)
        dist = ebd(rooted, 1)
        others = [n for n in tree.nodes
                  if n != root_name and tree.degree(n) > 1]
        if not others:
            continue
        x = tree.node_point(rng.choice(others))
        qx = subtree_above(tree, rooted.root, x)
        mass_qx = dist.mass_on(qx.subtree)
        lam_qx = qx.subtree.measure
        for lam, m in iter_cut_subtree_stats(qx, dist, CUT_GRID):
            assert m * lam_qx <= mass_qx * lam


def test_branch_stats_match_split_at():
    # at every branch point q the (measure, mass) pairs are those of the
    # parts of the subtree split at q that lie away from the root
    rng = random.Random(37)
    cases = []
    for _ in range(20):
        tree = random_tree(rng, max_nodes=30, min_nodes=3)
        cases.append(rooted_whole(tree, rng.choice(tree.nodes)))
        alpha = critical_alpha(tree) * F(rng.randint(30, 90), 100)
        cases += [RootedSubtree(c.subtree, c.root) for c in subtree_decomposition(tree, alpha).components]
    for rooted in cases:
        dist = ebd(rooted, 1)
        points = []
        for q, stats in branch_stats(rooted, dist):
            parts = rooted.subtree.split_at(q)
            away = parts if q == rooted.root else [c for c in parts if not c.contains(rooted.root)]
            assert sorted(stats) == sorted((c.measure, dist.mass_on(c)) for c in away)
            points.append(q)
        candidates = {rooted.root, *(Point(node=n) for n in rooted.subtree.covered_nodes())}
        branching = [q for q in candidates if len(rooted.subtree.split_at(q)) - (q != rooted.root) >= 2]
        assert sorted(points, key=Point.sort_key) == sorted(branching, key=Point.sort_key)


def test_cut_subtree_stats_star():
    # branches in arc order, each dropped, cut at half or kept whole
    star = star_network([1, 2])
    rooted = rooted_whole(star, "s0")
    pairs = list(iter_cut_subtree_stats(rooted, ebd(rooted, 1), (F(1, 2),)))
    assert pairs == [(1, 0), (2, F(2, 3)), (F(1, 2), 0), (F(3, 2), 0), (F(5, 2), F(2, 3)),
                     (1, F(1, 3)), (2, F(1, 3)), (3, 1)]


def test_cut_subtree_stats_deep_path():
    path = path_network(520, pieces=520)
    rooted = rooted_whole(path, "p0")
    pairs = list(iter_cut_subtree_stats(rooted, ebd(rooted, 1), ()))
    assert pairs == [(k, 0) for k in range(1, 520)] + [(520, 1)]
