import random
import warnings
from fractions import Fraction

import pytest

from patrolgame import (
    Network,
    Segment,
    SubNetwork,
    ValidationError,
    complete_network,
    components_after_removal,
    core,
    critical_alpha,
    e_patrolling,
    extremity_set,
    format_network,
    game_value_tree,
    local_root_of_tree,
    parse_network,
    path_network,
    star_network,
    subtree_decomposition,
    tree_attack_strategy,
)
from patrolgame.decomposition import _local_roots, _side_weights
from patrolgame.network import _SegmentGraph, _on_scale
from patrolgame.serialize import write_attack, write_decomposition_report, write_patrol
from conftest import LENGTH_POOL, make_sample_tree, random_alpha, random_tree
from oracles import (ball, contains_sub, extremity_subnetwork, fraction_critical_alpha, fraction_extremity_set,
                     fraction_flood, fraction_local_root, fraction_side_weights, side_measures)

F = Fraction


def seg_set(sub):
    return {(s.arc, s.lo, s.hi) for s in sub.segment_list()}


def test_extremity_fixtures(sample_tree):
    ext = extremity_set(sample_tree, 2)
    assert ext.measure == 5
    assert seg_set(extremity_subnetwork(ext, sample_tree)) == {
        ("aL5", F(0), F(1)), ("aL62", F(1), F(2)), ("bL22", F(1), F(2)),
        ("cL3", F(0), F(1)), ("cL4", F(0), F(1))}
    ext8 = extremity_set(sample_tree, 8)
    assert ext8.measure == 10
    assert seg_set(extremity_subnetwork(ext8, sample_tree)) == {
        (a.id, F(0), a.length) for a in sample_tree.arcs}


def test_extremity_path():
    path = path_network(4, pieces=1)
    ext = extremity_set(path, 2)
    assert ext.measure == 2
    assert seg_set(extremity_subnetwork(ext, path)) == {("pa0", F(0), F(1)), ("pa0", F(3), F(4))}


def test_extremity_rejects_non_tree(unit_k4):
    with pytest.raises(ValidationError):
        extremity_set(unit_k4, 1)


def test_extremity_matches_sampling_oracle():
    # Dense membership scan: a point is extreme iff its smaller removal side
    # is under half the duration; compare against the analytic segments.
    rng = random.Random(11)
    for _ in range(12):
        tree = random_tree(rng, max_nodes=9)
        if len(tree.arcs) > 8:
            continue
        alpha = tree.total_length / 2
        ext = extremity_subnetwork(extremity_set(tree, alpha), tree)
        for arc in tree.arcs:
            wu, wv = side_measures(tree, arc.id)
            for i in range(1, 1000):
                off = arc.length * i / 1000
                inside = min(wu + off, wv + arc.length - off) < alpha / 2
                covered = any(lo <= off <= hi for lo, hi in ext.segments.get(arc.id, ()))
                if inside:
                    assert covered
                elif covered:
                    # closure adds only boundary offsets
                    assert any(off == lo or off == hi for lo, hi in ext.segments[arc.id])


def test_monotone_in_alpha():
    rng = random.Random(3)
    for _ in range(20):
        tree = random_tree(rng)
        hi = 2 * tree.total_length
        a1 = hi * rng.randint(1, 7) // 16
        a2 = a1 + hi * rng.randint(1, 8) // 16
        if a1 <= 0:
            continue
        e1 = extremity_subnetwork(extremity_set(tree, a1), tree)
        e2 = extremity_subnetwork(extremity_set(tree, min(a2, hi)), tree)
        assert contains_sub(e2, e1)


def test_critical_alpha_fixtures(sample_tree):
    assert critical_alpha(sample_tree) == 8
    assert critical_alpha(path_network(4)) == 4
    assert critical_alpha(path_network(F(13, 3))) == F(13, 3)
    assert critical_alpha(star_network([1, 1, 1])) == 2


def test_critical_alpha_threshold_property():
    rng = random.Random(5)
    for _ in range(15):
        tree = random_tree(rng)
        a_star = critical_alpha(tree)
        assert extremity_set(tree, a_star).measure == tree.total_length
        smaller = a_star * F(15, 16)
        if smaller > 0:
            assert extremity_set(tree, smaller).measure < tree.total_length


def test_local_root_fixtures(sample_tree):
    assert local_root_of_tree(sample_tree) == sample_tree.node_point("B")
    path = path_network(4)
    assert local_root_of_tree(path) == path.point("pa0", 2)
    star = star_network([1, 1, 1, 1])
    assert local_root_of_tree(star) == star.node_point("s0")


def test_local_root_component_bound():
    from patrolgame import components_after_removal

    rng = random.Random(13)
    for _ in range(20):
        tree = random_tree(rng)
        x = local_root_of_tree(tree)
        a_star = critical_alpha(tree)
        for comp in components_after_removal(tree, x):
            assert comp.measure <= a_star / 2


def test_local_root_is_core_limit(sample_tree):
    x_star = local_root_of_tree(sample_tree)
    a_star = critical_alpha(sample_tree)
    last = None
    for k in (F(1, 2), F(1, 8), F(1, 64)):
        c = core(sample_tree, a_star - k)
        assert c.contains(x_star)
        if last is not None:
            assert c.measure <= last
        last = c.measure
    assert last <= F(1, 4)


def test_core_fixtures(sample_tree):
    c2 = core(sample_tree, 2)
    assert c2.measure == 5
    for name in ("A", "B", "C"):
        assert c2.contains(sample_tree.node_point(name))
    c8 = core(sample_tree, 8)
    assert c8.measure == 0
    assert c8.contains(sample_tree.node_point("B"))
    path = path_network(4)
    cp = core(path, 2)
    assert seg_set(cp) == {("pa0", F(1), F(3))}


def test_decomposition_fixtures(sample_tree):
    dec4 = subtree_decomposition(sample_tree, 4)
    got = sorted((c.measure, str(c.root)) for c in dec4.components)
    assert got == [(1, "node:A"), (1, "node:C"), (1, "node:C"), (2, "node:A"), (2, "node:B")]
    assert dec4.lambda_e == 7

    dec6 = subtree_decomposition(sample_tree, 6)
    got = sorted((c.measure, str(c.root)) for c in dec6.components)
    assert got == [(1, "node:A"), (2, "node:A"), (2, "node:B"), (3, "arc:bBC:1")]
    assert dec6.lambda_e == 8

    dec8 = subtree_decomposition(sample_tree, 8)
    assert dec8.core.measure == 0
    assert sorted(c.measure for c in dec8.components) == [2, 4, 4]
    assert all(c.root == sample_tree.node_point("B") for c in dec8.components)

    dec2 = subtree_decomposition(sample_tree, 2)
    assert [c.measure for c in dec2.components] == [1, 1, 1, 1, 1]
    roots = sorted(str(c.root) for c in dec2.components)
    assert roots == ["arc:aL62:1", "arc:bL22:1", "node:A", "node:C", "node:C"]


def test_decomposition_at_exact_critical_alpha(sample_tree):
    dec = subtree_decomposition(sample_tree, 8)
    assert dec.core.measure == 0 and len(dec.core.points) == 1


def test_decomposition_invariants_random():
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        tree = random_tree(rng)
        denom = rng.choice([1, 2, 4])
        num = rng.randint(1, int(2 * tree.total_length * denom))
        alpha = F(num, denom)
        if alpha <= 0 or alpha > 2 * tree.total_length:
            continue
        dec = subtree_decomposition(tree, alpha)
        assert dec.core.measure + dec.lambda_e == tree.total_length
        for comp in dec.components:
            assert comp.measure <= alpha / 2
            assert comp.subtree.contains(comp.root)
        # the core never contains a leaf node (single-point core aside)
        if dec.core.measure > 0:
            for leaf in tree.leaf_nodes():
                assert not dec.core.contains(tree.node_point(leaf))
        checked += 1


def test_components_are_whole_branches_at_their_roots():
    # the extremity closure is closed outward: the components at a root are
    # exactly the branches of the tree there that miss the core, so each
    # component is one whole branch
    rng = random.Random(29)
    checked = 0
    for _ in range(30):
        tree = random_tree(rng, max_nodes=16)
        a_star = critical_alpha(tree)
        for alpha in (a_star / 5, a_star / 2, a_star * 9 / 10, a_star, a_star * 5 / 4):
            dec = subtree_decomposition(tree, alpha)
            for root in set(dec.roots):
                mine = sorted(sorted(seg_set(c.subtree)) for c in dec.components if c.root == root)
                assert sorted(sorted(seg_set(b)) for b in components_after_removal(tree, root)
                              if b.overlap_measure(dec.core) == 0) == mine
                checked += len(mine)
    assert checked > 600


def test_component_interiors_disjoint(sample_tree):
    for alpha in (2, 4, 6, 8):
        dec = subtree_decomposition(sample_tree, alpha)
        total = sum(c.measure for c in dec.components)
        union = SubNetwork.from_segments(
            sample_tree, [s for c in dec.components for s in c.subtree.segment_list()])
        assert union.measure == total  # no interior overlap between components


def test_side_weights_match_oracle():
    """Side measures from the single tour, read back from the tree's integer
    scale, equal edge-removal component sums.

    About half of the arcs are stored with their endpoints swapped, so whatever
    node the tour starts from, both orientations of (u, v) occur."""
    rng = random.Random(2024)
    flipped_far = 0
    for _ in range(40):
        n = rng.randint(5, 60)
        nodes = [f"n{i}" for i in range(n)]
        arcs = []
        for i in range(1, n):
            ends = (nodes[rng.randrange(i)], nodes[i])
            if rng.random() < 0.5:
                ends = ends[::-1]
            arcs.append((f"e{i:02d}", *ends, rng.choice(LENGTH_POOL)))
        tree = Network(nodes, arcs)
        scale, weights = _side_weights(tree)
        assert set(weights) == {a.id for a in tree.arcs}
        dist = tree.node_distances(tree.nodes[0])
        for a in tree.arcs:
            ln, wu, wv = weights[a.id]
            assert Fraction(ln, scale) == a.length
            assert (Fraction(wu, scale), Fraction(wv, scale)) == side_measures(tree, a.id)
            flipped_far += dist[a.u] > dist[a.v]
    assert flipped_far > 0


def test_integer_scale_matches_fraction_reference():
    """The tree layer on its integer scale equals the `Fraction` reference
    exactly: side weights, extremity segments and measures, critical
    durations and local roots.  Lengths mix the quarter pool with thirds and
    sevenths; durations have denominators 1, 3, 5, 6 and 7, and each tree is
    also cut at its critical duration and at twice a side weight, where an
    extremity boundary falls on a node."""
    rng = random.Random(16)
    pool = LENGTH_POOL + [F(1, 3), F(2, 3), F(5, 3), F(1, 7), F(4, 7), F(9, 7)]
    # paths whose local root is interior to an arc
    trees = [Network(["a", "b", "c", "d"],
                     [("x", "a", "b", F(1, 3)), ("y", "b", "c", F(2, 7)), ("z", "c", "d", F(5, 3))]),
             path_network(F(13, 7), pieces=3)]
    for _ in range(60):
        n = rng.randint(3, 30)  # some side weight is positive
        trees.append(Network([f"n{i}" for i in range(n)],
                             [(f"e{i:02d}", f"n{rng.randrange(i)}", f"n{i}", rng.choice(pool))
                              for i in range(1, n)]))
    interior_roots = 0
    for tree in trees:
        scale, weights = _side_weights(tree)
        reference = fraction_side_weights(tree)
        for a in tree.arcs:
            ln, wu, wv = weights[a.id]
            assert Fraction(ln, scale) == a.length
            assert (Fraction(wu, scale), Fraction(wv, scale)) == reference[a.id]
        a_star = critical_alpha(tree)
        assert type(a_star) is Fraction and a_star == fraction_critical_alpha(tree)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            root = local_root_of_tree(tree)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            assert root == fraction_local_root(tree)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        interior_roots += not root.is_node
        mu = tree.total_length
        alphas = [a_star]
        for den in (1, 3, 5, 6, 7):
            alphas.append(F(rng.randint(1, int(2 * mu * den)), den))
        alphas.append(2 * rng.choice([w for a in tree.arcs for w in reference[a.id] if w > 0]))
        for alpha in alphas:
            ext = extremity_set(tree, alpha)
            assert ext == fraction_extremity_set(tree, alpha)
            assert all(type(x) is Fraction for s in ext.segments for x in (s.lo, s.hi, s.measure))
            assert type(ext.measure) is Fraction
    assert interior_roots >= 2


def _tree_outputs(net, alpha):
    """Decomposition report, attack and patrol bytes, as the CLI writes them."""
    dec = subtree_decomposition(net, alpha)
    report = write_decomposition_report(net, dec, critical_alpha(net), local_root_of_tree(net),
                                        game_value_tree(net, alpha))
    return (report, write_attack(tree_attack_strategy(net, alpha, epsilon=F(1, 20))),
            write_patrol(e_patrolling(net, alpha)))


def test_decomposition_memo_same_object(sample_tree):
    dec = subtree_decomposition(sample_tree, 4)
    assert subtree_decomposition(sample_tree, F(4)) is dec
    assert subtree_decomposition(sample_tree, "4") is dec
    assert subtree_decomposition(sample_tree, 2) is not dec


def test_decomposition_memo_alpha_sweep_matches_fresh_networks():
    rng = random.Random(5)
    cases = [(format_network(make_sample_tree()), (F(2), F(4), F(9)))]
    for _ in range(4):
        tree = random_tree(rng, max_nodes=14, min_nodes=4)
        a_star = critical_alpha(tree)
        cases.append((format_network(tree), (a_star / 3, a_star * 2 / 3, a_star)))
    for text, alphas in cases:
        net = parse_network(text)
        for a1, a2 in zip(alphas, alphas[1:]):
            for alpha in (a1, a2, a1):
                assert _tree_outputs(net, alpha) == _tree_outputs(parse_network(text), alpha)


def test_memoized_queries_match_fresh_network():
    rng = random.Random(8)
    for _ in range(10):
        tree = random_tree(rng, max_nodes=12, min_nodes=3)
        alpha, other = random_alpha(rng, tree), random_alpha(rng, tree)
        subtree_decomposition(tree, alpha)
        fresh = parse_network(format_network(tree))
        assert critical_alpha(tree) == critical_alpha(fresh)
        assert local_root_of_tree(tree) == local_root_of_tree(fresh)
        for a in (alpha, other):
            assert extremity_set(tree, a) == extremity_set(fresh, a)
            assert seg_set(core(tree, a)) == seg_set(core(fresh, a))


def test_checks_run_on_every_call(sample_tree, unit_k4):
    for _ in range(2):
        for call in (lambda: subtree_decomposition(unit_k4, 1), lambda: critical_alpha(unit_k4),
                     lambda: extremity_set(unit_k4, 1), lambda: local_root_of_tree(unit_k4)):
            with pytest.raises(ValidationError, match="not a tree"):
                call()
    dec = subtree_decomposition(sample_tree, 4)
    for _ in range(2):
        for bad in (0, -1, 21):
            with pytest.raises(ValidationError):
                subtree_decomposition(sample_tree, bad)
            with pytest.raises(ValidationError):
                extremity_set(sample_tree, bad)
        with pytest.raises(TypeError):
            subtree_decomposition(sample_tree, 4.0)
        assert subtree_decomposition(sample_tree, 4) is dec


def _flood_reference(graph, seeds, blocked):
    """Floods of a segment graph from each seed not yet reached, stopping at
    blocked vertices: each part built by `SubNetwork.from_segments` over its
    pieces, with the blocked vertices it stopped at."""
    return [(SubNetwork.from_segments(graph.host, segs), stops)
            for segs, stops in fraction_flood(graph, seeds, blocked)]


def _fields(sub):
    # key order included: a dict compares equal whatever its order
    return list(sub.segments.items()), sub.measure, sub.points


def _cut_graph(sub, p):
    segs = []
    for s in sub.segment_list():
        if not p.is_node and s.arc == p.arc and s.lo < p.offset < s.hi:
            segs += [Segment(s.arc, s.lo, p.offset), Segment(s.arc, p.offset, s.hi)]
        else:
            segs.append(s)
    scale, ends = _on_scale(sub.host._units[0], [x for s in segs for x in (s.lo, s.hi)])
    ivs = {}
    for s, lo, hi in zip(segs, ends[::2], ends[1::2]):
        ivs.setdefault(s.arc, []).append((lo, hi))
    return _SegmentGraph.build(sub.host, scale, ivs)


def test_flood_parts_match_from_segments():
    # split_at at nodes and interior points, and _decompose's flood of the
    # extremity closure, build each part as from_segments would
    rng = random.Random(41)
    hosts = [random_tree(rng, max_nodes=14, min_nodes=3) for _ in range(14)]
    hosts += [complete_network(4, F(3, 2)), Network(["x", "y"], [("b", "x", "y", 1), ("l", "x", "x", 2)])]
    splits = 0
    for host in hosts:
        subs = [SubNetwork.whole(host), ball(host, host.node_point(host.nodes[-1]), host.total_length / 3)]
        for sub in subs:
            arc = rng.choice(sorted(sub.segments))
            lo, hi = rng.choice(sub.segments[arc])
            for p in [host.node_point(n) for n in sub.covered_nodes()] + [host.point(arc, (lo + hi) / 2)]:
                graph = _cut_graph(sub, p)
                v = graph.vertex(p)
                want = _flood_reference(graph, graph.incident(v), {v})
                assert [_fields(part) for part in sub.split_at(p)] == [_fields(part) for part, _ in want]
                splits += 1
        if not host.is_tree():
            continue
        a_star = critical_alpha(host)
        for alpha in (a_star / 5, a_star / 2, a_star * 9 / 10):
            ext_sub = extremity_subnetwork(extremity_set(host, alpha), host)
            roots = _local_roots(host, ext_sub)
            graph = ext_sub._graph
            parts = graph.parts(graph.pieces, roots)
            assert [(_fields(part), stops) for part, stops in parts] == \
                [(_fields(part), stops) for part, stops in _flood_reference(graph, graph.pieces, roots)]
            dec = subtree_decomposition(host, alpha)
            assert sorted(_fields(c.subtree) for c in dec.components) == sorted(_fields(part) for part, _ in parts)
    assert splits > 150


def _graph_fields(graph):
    # as Fractions and Points, so that graphs kept on different scales compare
    ends = {e for q in graph.pieces for e in (q.u, q.v)}
    return ([(q.arc, F(q.lo, graph.scale), F(q.hi, graph.scale), graph.point(q.u), graph.point(q.v))
             for q in graph.pieces], {graph.point(e): [graph.pieces.index(q) for q in graph.incident(e)] for e in ends})


def test_flood_parts_keep_their_pieces_as_fresh_graphs():
    # a part's segment graph, built on the pieces its flood reached, equals
    # the one its segments would build; on a host with cycles a part may
    # hold two pieces of one arc, or the two halves of a cut one (merged)
    rng = random.Random(67)
    hosts = [random_tree(rng, max_nodes=14, min_nodes=2) for _ in range(20)]
    hosts += [complete_network(4, F(3, 2)), Network(["x", "y"], [("b", "x", "y", 1), ("l", "x", "x", 2)])]
    handed = 0
    for host in hosts:
        parts = []
        for sub in (SubNetwork.whole(host), ball(host, host.node_point(host.nodes[-1]), host.total_length / 5)):
            for arc, ivs in sub.segments.items():
                parts += sub.split_at(host.point(arc, (ivs[0][0] + 2 * ivs[0][1]) / 3))
            parts += [part for n in sub.covered_nodes() for part in sub.split_at(host.node_point(n))]
        if host.is_tree():
            a_star = critical_alpha(host)
            for alpha in (a_star * F(rng.randint(20, 95), 100), a_star):
                host._decomposition_memo = None
                parts += [c.subtree for c in subtree_decomposition(host, alpha).components]
        for sub in parts:
            handed += "_graph" in vars(sub)
            fresh = _cut_graph(sub, host.node_point(host.nodes[0]))  # a node cuts no segment
            assert _graph_fields(sub._graph) == _graph_fields(fresh)
    assert handed > 500
