import hashlib
import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolgame import (
    AttackStrategy,
    FormatError,
    Network,
    Point,
    Segment,
    Step,
    SubNetwork,
    TemporalLaw,
    ValidationError,
    Walk,
    complete_network,
    complete_patrolling,
    components_after_removal,
    double_traversal,
    e_patrolling,
    eulerian_tour,
    evaluate,
    format_network,
    girth,
    k4_tightness_attack,
    parse_network,
    path_network,
    patrol_search,
    star_network,
    subtree_decomposition,
    tree_attack_strategy,
    walk_through_nodes,
)
from patrolgame.network import _walk, parse_rational
from patrolgame.serialize import parse_patrol, write_patrol
from conftest import make_sample_tree, random_tree, walk_fields
from oracles import (FractionSubNetwork, FractionWalk, arc_traversal_counts, ball, fraction_dijkstra, girth_bruteforce,
                     node_path, random_closed_walk, removal_component_measures, search_family, subdivided_distance,
                     to_nx, walk_trace_reference)

F = Fraction


def test_total_length_fixtures(sample_tree, unit_k4):
    assert sample_tree.total_length == 10
    assert unit_k4.total_length == 6
    single = Network(["u", "v"], [("a", "u", "v", 7)])
    assert single.total_length == 7


def test_construction_validation():
    with pytest.raises(ValidationError):
        Network(["u", "v"], [("a", "u", "v", 0)])
    with pytest.raises(ValidationError):
        Network(["u", "v"], [("a", "u", "v", -1)])
    with pytest.raises(ValidationError):
        Network(["u", "v", "w"], [("a", "u", "v", 1)])  # w unreachable
    with pytest.raises(ValidationError):
        Network(["u", "v"], [("a", "u", "v", 1), ("a", "u", "v", 2)])


def test_structure_predicates(sample_tree, unit_k4):
    assert sample_tree.is_tree()
    assert sorted(sample_tree.leaf_nodes()) == ["L22", "L3", "L4", "L5", "L62"]
    assert not unit_k4.is_tree()
    assert unit_k4.leaf_nodes() == ()
    single = Network(["u", "v"], [("a", "u", "v", 1)])
    assert sorted(single.leaf_nodes()) == ["u", "v"]
    assert sample_tree.degree("B") == 3
    assert unit_k4.degree("v1") == 3
    assert unit_k4.is_simple
    loops = Network(["u"], [("l", "u", "u", 1)])
    assert not loops.is_simple
    assert loops.degree("u") == 2


def test_distance_fixtures(sample_tree, unit_k4):
    d = sample_tree.distance(sample_tree.node_point("L3"), sample_tree.node_point("L4"))
    assert d == 2  # frozen from the subdivided-graph oracle
    assert subdivided_distance(sample_tree, sample_tree.node_point("L3"), sample_tree.node_point("L4")) == 2.0
    x = sample_tree.point("bBC", F(1, 2))
    assert sample_tree.distance(x, x) == 0
    assert unit_k4.distance(unit_k4.node_point("v1"), unit_k4.node_point("v3")) == 1


def test_distance_interior_points(sample_tree):
    a = sample_tree.point("aL62", F(1, 2))
    b = sample_tree.point("bL22", F(3, 2))
    # A is 3/2 from a; B is 1 past A; 3/2 along bL22 from B
    assert sample_tree.distance(a, b) == F(1, 2) + 1 + F(3, 2)
    same_arc = sample_tree.point("aL62", F(7, 4))
    assert sample_tree.distance(a, same_arc) == F(5, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_distance_is_a_metric(i, j, k):
    rng = random.Random(2024)
    net = make_sample_tree()
    pts = SubNetwork.whole(net).grid_points(F(1, 4))
    a, b, c = pts[i % len(pts)], pts[j % len(pts)], pts[k % len(pts)]
    dab = net.distance(a, b)
    assert dab >= 0
    assert dab == net.distance(b, a)
    assert (dab == 0) == (a == b)
    assert dab <= net.distance(a, c) + net.distance(c, b)


def random_multigraph(rng: random.Random) -> Network:
    """Connected multigraph with few distinct lengths, so ties abound."""
    lengths = [F(1, 2), F(1), F(3, 2), F(2)]
    n = rng.randint(2, 10)
    nodes = [f"n{i}" for i in range(n)]
    arcs = [(f"t{i}", nodes[rng.randrange(i)], nodes[i], rng.choice(lengths)) for i in range(1, n)]
    arcs += [(f"x{k}", *rng.sample(nodes, 2), rng.choice(lengths)) for k in range(rng.randint(0, 2 * n))]
    return Network(nodes, arcs)


FROZEN_PATHS = "29a6a57fe4b55fa4e9bae5d448bc9b300c6285b0b6f3e1535e35cb77d78d0dc1"


def test_node_path_is_a_shortest_path():
    rng = random.Random(31)
    digest = hashlib.sha256()
    for _ in range(25):
        net = random_multigraph(rng)
        g = to_nx(net)
        for s in net.nodes:
            dist = net.node_distances(s)
            assert dist == nx.single_source_dijkstra_path_length(g, s, weight="length")
            for t in net.nodes:
                path = node_path(net, s, t)
                digest.update(" ".join(path).encode() + b"\n")
                assert path[0] == s and path[-1] == t
                total = F(0)
                for x, y in zip(path, path[1:]):
                    total += min(a.length for a in net.incident(x) if a.other(x) == y)
                assert total == dist[t]
    # which of several shortest paths comes back (ties go to the earliest
    # push), frozen
    assert digest.hexdigest() == FROZEN_PATHS


def test_dijkstra_matches_fraction_oracle():
    # connected multigraphs with loops and parallel arcs, and lengths on
    # several denominators: the integer Dijkstra gives the oracle's
    # distances from every source, with and without a skipped arc
    rng = random.Random(67)
    lengths = [F(1, 2), F(1, 3), F(5, 6), F(1), F(7, 4), F(2)]
    shapes = Counter()
    for _ in range(30):
        n = rng.randint(1, 8)
        nodes = [f"n{i}" for i in rng.sample(range(20), n)]
        arcs = [(f"t{i}", nodes[rng.randrange(i)], nodes[i], rng.choice(lengths)) for i in range(1, n)]
        arcs += [(f"x{k}", rng.choice(nodes), rng.choice(nodes), rng.choice(lengths))
                 for k in range(rng.randint(1, 2 * n))]
        net = Network(nodes, arcs)
        shapes["loop"] += any(a.u == a.v for a in net.arcs)
        shapes["parallel"] += len({frozenset((a.u, a.v)) for a in net.arcs}) < len(net.arcs)
        scale = net._units[0]
        for s in net.nodes:
            dist = fraction_dijkstra(net, s)[0]
            assert net.node_distances(s) == dist
            assert all(type(d) is Fraction for d in net.node_distances(s).values())
            skip = rng.choice(net.arcs).id
            dist = fraction_dijkstra(net, s, skip)[0]
            got = net._dijkstra(s, skip)
            assert {m: F(d, scale) for m, d in got.items()} == dist
        want = girth_bruteforce(net)
        if want is None:
            with pytest.raises(ValidationError, match="acyclic"):
                girth(net)
        else:
            assert girth(net) == want
    assert shapes["loop"] >= 10 and shapes["parallel"] >= 10


def test_point_normalization(sample_tree):
    assert sample_tree.point("aAB", 0) == sample_tree.node_point("A")
    assert sample_tree.point("aAB", 1) == sample_tree.node_point("B")
    interior = sample_tree.point("aAB", F(1, 2))
    assert not interior.is_node
    with pytest.raises(ValidationError):
        sample_tree.point("aAB", 2)


def test_components_after_removal_fixtures(sample_tree):
    comps = components_after_removal(sample_tree, sample_tree.node_point("B"))
    assert sorted(c.measure for c in comps) == [2, 4, 4]
    assert removal_component_measures(sample_tree, sample_tree.node_point("B")) == [2, 4, 4]

    path = path_network(4, pieces=2)
    mid = path.node_point("p1")
    assert sorted(c.measure for c in components_after_removal(path, mid)) == [2, 2]

    x = sample_tree.point("aL5", F(1, 2))  # offset 1/2 from A is also 1/2 from L5
    measures = sorted(c.measure for c in components_after_removal(sample_tree, x))
    assert measures == [F(1, 2), F(19, 2)]
    assert removal_component_measures(sample_tree, x) == [F(1, 2), F(19, 2)]


def test_components_measures_sum_to_total():
    rng = random.Random(7)
    for _ in range(25):
        tree = random_tree(rng)
        nodes = list(tree.nodes)
        x = tree.node_point(rng.choice(nodes))
        comps = components_after_removal(tree, x)
        assert sum(c.measure for c in comps) == tree.total_length
        arc = rng.choice(tree.arcs)
        y = tree.point(arc.id, arc.length / 2)
        if not y.is_node:
            comps = components_after_removal(tree, y)
            assert len(comps) == 2
            assert sum(c.measure for c in comps) == tree.total_length


def test_components_rejects_non_tree(unit_k4):
    with pytest.raises(ValidationError):
        components_after_removal(unit_k4, unit_k4.node_point("v1"))


def test_node_point_off_network_rejected():
    star = star_network([1, 2, 3])
    with pytest.raises(ValidationError, match="not on network"):
        SubNetwork.single_point(star, Point(node="zz"))
    with pytest.raises(ValidationError, match="not on network"):
        components_after_removal(star, Point(node="zz"))


def test_is_eulerian(unit_k4):
    cyc = Network(["a", "b", "c", "d"],
                  [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "d", 1), ("e4", "d", "a", 1)])
    assert cyc.is_eulerian()
    assert not unit_k4.is_eulerian()  # all degrees 3
    assert complete_network(5).is_eulerian()


def test_eulerian_tour_cycle():
    cyc = Network(["a", "b", "c", "d"],
                  [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "d", 1), ("e4", "d", "a", 1)])
    w = eulerian_tour(cyc)
    assert w.duration == 4 and w.is_closed
    assert all(count == 1 for count in arc_traversal_counts(w).values())


def test_eulerian_tour_k4_minus_matching(unit_k4):
    q = unit_k4.without_arcs(["v1-v2", "v3-v4"])
    w = eulerian_tour(q)
    assert w.duration == 4 and w.is_closed
    assert sorted(arc_traversal_counts(w)) == ["v1-v3", "v1-v4", "v2-v3", "v2-v4"]


def test_eulerian_tour_two_triangles():
    tt = Network(["a", "b", "c", "d", "e"],
                 [("t1", "a", "b", 1), ("t2", "b", "c", 1), ("t3", "c", "a", 1),
                  ("t4", "a", "d", 1), ("t5", "d", "e", 1), ("t6", "e", "a", 1)])
    w = eulerian_tour(tt)
    assert w.duration == 6 and w.is_closed
    assert all(n == 1 for n in arc_traversal_counts(w).values())  # each arc exactly once


def test_eulerian_tour_rejects_odd(unit_k4):
    with pytest.raises(ValidationError):
        eulerian_tour(unit_k4)


def test_walk_basics():
    seg = Network(["u", "v"], [("a", "u", "v", 2)])
    w = Walk(seg, seg.node_point("u"), [Step("a", F(0), F(2)), Step("a", F(2), F(0))])
    assert w.duration == 4 and w.is_closed
    mid = seg.point("a", 1)
    assert w.visit_times(mid) == (1, 3)
    assert w.visit_times(seg.node_point("v")) == (2,)
    assert w.position(F(1, 2)) == seg.point("a", F(1, 2))
    assert w.position(3) == seg.point("a", 1)
    assert w.position(4) == seg.node_point("u")
    with pytest.raises(ValidationError):
        w.position(5)
    rev = w.reversed()
    assert rev.visit_times(mid) == (1, 3)
    assert w.repeated(2).duration == 8


def test_walk_incidence_validation():
    seg = Network(["u", "v", "w"], [("a", "u", "v", 1), ("b", "v", "w", 1)])
    with pytest.raises(ValidationError):
        Walk(seg, seg.node_point("u"), [Step("a", F(0), F(1)), Step("b", F(1), F(0))])


def _walk_error(net, start, steps) -> str:
    with pytest.raises(ValidationError) as err:
        Walk(net, start, steps)
    return str(err.value)


def test_walk_step_validation_messages():
    net = Network(["u", "v", "w"], [("a", "u", "v", 2), ("b", "v", "w", 1)])
    u = net.node_point("u")
    assert _walk_error(net, u, [Step("a", F(1), F(1))]) == "zero-length step on arc 'a'"
    assert _walk_error(net, u, [Step("a", F(-1), F(1))]) == "step offset -1 outside arc 'a'"
    assert _walk_error(net, u, [Step("a", F(0), F(5, 2))]) == "step offset 5/2 outside arc 'a'"
    assert _walk_error(net, u, [Step("c", F(0), F(1))]) == "unknown arc 'c'"
    # after a node: the next step starts at the far end of another arc
    assert (_walk_error(net, u, [Step("a", F(0), F(2)), Step("b", F(1), F(0))])
            == "step on 'b' starts at node:w, walk is at node:v")
    assert (_walk_error(net, u, [Step("b", F(0), F(1))])
            == "step on 'b' starts at node:v, walk is at node:u")
    # after an interior point: another offset, another arc, or a node
    half = [Step("a", F(0), F(1, 2))]
    assert (_walk_error(net, u, half + [Step("a", F(1, 4), F(2))])
            == "step on 'a' starts at arc:a:1/4, walk is at arc:a:1/2")
    assert (_walk_error(net, u, half + [Step("b", F(1, 2), F(1))])
            == "step on 'b' starts at arc:b:1/2, walk is at arc:a:1/2")
    assert (_walk_error(net, u, half + [Step("a", F(0), F(1))])
            == "step on 'a' starts at node:u, walk is at arc:a:1/2")
    # an interior start, and a start given at an arc end in interior form
    assert (_walk_error(net, net.point("a", 1), [Step("a", F(3, 2), F(2))])
            == "step on 'a' starts at arc:a:3/2, walk is at arc:a:1")
    assert (_walk_error(net, Point(arc="a", offset=F(0)), [Step("a", F(0), F(1))])
            == "step on 'a' starts at node:u, walk is at arc:a:0")


def test_walk_loop_arc_entered_at_either_end():
    net = Network(["x", "y"], [("b", "x", "y", 1), ("l", "x", "x", 2)])
    y = net.node_point("y")
    for entry in (F(0), F(2)):
        exit_ = 2 - entry
        assert (_walk_error(net, y, [Step("l", entry, exit_)])
                == "step on 'l' starts at node:x, walk is at node:y")
        w = Walk(net, y, [Step("b", F(1), F(0)), Step("l", entry, exit_), Step("b", F(0), F(1))])
        assert w.is_closed and w.duration == 4
        assert w.visit_times(net.node_point("x")) == (1, 3)
        part = Walk(net, y, [Step("b", F(1), F(0)), Step("l", entry, F(1)), Step("l", F(1), entry)])
        assert part.end_point == net.node_point("x") and part.duration == 3
        assert part.position(2) == net.point("l", 1)


def test_walk_rejects_float_offsets():
    net = Network(["u", "v"], [("a", "u", "v", 2)])
    u = net.node_point("u")
    for step in (Step("a", 0.0, F(1)), Step("a", F(0), 1.5)):
        with pytest.raises(TypeError, match="refusing inexact value"):
            Walk(net, u, [step])


def _seeded_walks():
    rng = random.Random(23)
    for _ in range(12):
        tree = random_tree(rng, max_nodes=12, min_nodes=3)
        yield random_closed_walk(tree, rng, max_steps=16)
        alpha = F(rng.randint(1, int(8 * tree.total_length)), 4)
        for w, _ in e_patrolling(tree, alpha).components:  # interior cut points
            yield w
    for n in (4, 5):
        yield random_closed_walk(complete_network(n, F(3, 2)), rng, max_steps=20)
    yield from search_family(complete_network(4), F(1, 4), 2)
    loop = Network(["x", "y"], [("b", "x", "y", 1), ("l", "x", "x", 2)])
    yield Walk(loop, loop.point("b", F(1, 3)), [
        Step("b", F(1, 3), F(0)), Step("l", F(2), F(1, 2)), Step("l", F(1, 2), F(2)),
        Step("l", F(0), F(2)), Step("b", F(0), F(1, 3))])


def test_walk_trace_matches_point_reference():
    count = 0
    for w in _seeded_walks():
        end, duration, trace = walk_trace_reference(w)
        assert w.end_point == end and w.duration == duration
        assert [w.position(t) for t, _ in trace] == [p for _, p in trace]
        rev = w.reversed()
        assert rev.end_point == w.start and rev.duration == duration
        count += 1
    assert count > 100


def test_walk_clock_matches_fraction_walk():
    # positions at times and visit times at points off the walks' integer
    # scales (sevenths), at every node and at each interior step end
    for w in _seeded_walks():
        ref = FractionWalk(w.net, w.start, w.steps)
        times = [w.duration * F(k, 7) for k in range(8)]
        assert [w.position(t) for t in times] == [ref.position(t) for t in times]
        points = {w.start, *(w.net.node_point(n) for n in w.net.nodes)}
        points.update(Point(arc=s.arc, offset=s.end) for s in w.steps
                      if w.net.arc(s.arc).endpoint_at(s.end) is None)
        points.update(w.net.point(s.arc, w.net.arc(s.arc).length * F(k, 7)) for s in w.steps[:2] for k in (1, 4))
        for x in points:
            assert w.visit_times(x) == ref.visit_times(x), (w.steps, x)
            assert all(type(t) is Fraction for t in w.visit_times(x))


def test_walk_reversed_matches_constructor():
    net = Network(["u", "v"], [("a", "u", "v", 2)])
    walks = list(_seeded_walks()) + [
        Walk(net, net.node_point("u")),                     # stationary at a node
        Walk(net, net.point("a", F(1, 3))),                 # stationary inside an arc
        # an int start offset: the constructor ends the reverse on a Fraction
        Walk(net, Point(arc="a", offset=1), [Step("a", F(1), F(2)), Step("a", F(2), F(0))]),
        Walk(net, Point(arc="a", offset=1), [Step("a", 1, 0), Step("a", 0, F(3, 2))]),
    ]
    for w in walks:
        rev = w.reversed()
        built = Walk(w.net, w.end_point, [Step(s.arc, s.end, s.start) for s in reversed(w.steps)])
        assert walk_fields(rev) == walk_fields(built), w.steps
        assert walk_fields(rev.reversed(), types=False) == walk_fields(w, types=False)
    assert type(walks[-2].reversed().end_point.offset) is Fraction


def test_built_walks_match_constructor():
    # every walk the library builds through the walk kernel has the fields,
    # offset types included, that the constructor gives for its steps
    rng = random.Random(83)
    cases = []
    for _ in range(16):
        tree = random_tree(rng, max_nodes=12, min_nodes=2)
        # thirds, fifths and sevenths widen the extremity closure's scale
        cases.append((tree, min(F(rng.randint(1, int(14 * tree.total_length)), rng.choice([2, 3, 5, 7])),
                                2 * tree.total_length)))
    # two forks joined by a long arc: for alpha/2 strictly between 1 and 2,
    # the closure is the four leaf arcs, cut at nodes only, so the E-patrol's
    # offsets are integers while the closure's scale is den(alpha/2)
    forks = Network(["r", "c", "l1", "l2", "t1", "t2"], [("a", "r", "c", 5), ("b", "c", "l1", 1),
                                                        ("d", "c", "l2", 1), ("e", "r", "t1", 1), ("f", "r", "t2", 1)])
    cases += [(forks, alpha) for alpha in (F(8, 3), F(16, 5), F(5, 2), F(18, 7))]
    walks, widened = [], 0
    for tree, alpha in cases:
        patrol = e_patrolling(tree, alpha)
        walk = patrol.components[0][0]
        dec = subtree_decomposition(tree, alpha)
        widened += dec.components[0].subtree._scale > walk._scale
        walks += [double_traversal(tree, tree.nodes[0]), walk, patrol.components[1][0],
                  walk.repeated(2), walk.reversed()]
        walks += [w for w, _ in parse_patrol(tree, write_patrol(patrol)).components]
    assert widened >= 4  # the kernel divides a wider scale down to the constructor's
    k4, k6 = complete_network(4), complete_network(6)
    k5z = Network(complete_network(5).nodes, [(a.id, a.u, a.v, F(1 + i % 4, 1 + i % 3))
                                              for i, a in enumerate(complete_network(5).arcs)])
    for net in (k4, k6):
        patrol = complete_patrolling(net)
        walks += [w for w, _ in patrol.components] + [w for w, _ in parse_patrol(net, write_patrol(patrol)).components]
    walks += [eulerian_tour(k5z), eulerian_tour(k5z).repeated(2), eulerian_tour(complete_network(5))]
    # patrol_search's best walks: a node start on the K4 tightness attack, and
    # a start inside an arc of the demo tree, searched on quarters, a wider
    # scale than the walk's halves
    sample = make_sample_tree()
    atom = AttackStrategy(sample, ((sample.point("aAB", F(1, 2)), F(1)),), (), TemporalLaw.fixed(0))
    searched = [patrol_search(k4, k4_tightness_attack(k4, 6), 6, max_steps=5).walk,
                patrol_search(sample, atom, F(1, 4), max_steps=2, offset_step=F(1, 2)).walk]
    assert searched[0].start.is_node and not searched[1].start.is_node
    walks += searched + [walk_through_nodes(sample, ["A", "B", "C"], initial=("aL62", F(1, 2))),
                         walk_through_nodes(sample, ["C", "L4"], initial=("bBC", F(3, 2)))]
    for w in walks:
        assert walk_fields(w) == walk_fields(Walk(w.net, w.start, w.steps)), w.steps


def test_built_walks_hold_no_steps_until_read(sample_tree, unit_k4):
    # an E-patrol's walks, both walks of its parsed copy, a search's walk
    # and a walk built by the constructor answer every query from their
    # ints; their `Step`s are built on the first read of `steps`, and only
    # then, with `Fraction` offsets where the constructor was given ints
    patrol = e_patrolling(sample_tree, 4)
    walk, x = patrol.components[0][0], sample_tree.point("aAB", F(1, 2))
    parsed = parse_patrol(sample_tree, write_patrol(patrol))
    searched = patrol_search(unit_k4, k4_tightness_attack(unit_k4, 5), 5, max_steps=3).walk
    assert not walk.is_stationary and walk.position(F(7, 3)) == walk.reversed().position(walk.duration - F(7, 3))
    assert walk.visit_times(x) == tuple(walk.duration - t for t in reversed(walk.reversed().visit_times(x)))
    assert evaluate(patrol, tree_attack_strategy(sample_tree, 4), 4, method="exact").probability > 0
    assert searched.visit_times(searched.end_point)
    built = Walk(unit_k4, unit_k4.node_point("v1"), [Step("v1-v2", 0, 1), Step("v1-v2", 1, 0)])
    lazy = [walk, patrol.components[1][0], parsed.components[0][0], parsed.components[1][0], searched, built]
    assert all("steps" not in w.__dict__ for w in lazy)
    for w in lazy:
        steps = w.steps
        assert "steps" in w.__dict__ and w.steps is steps
        assert walk_fields(w) == walk_fields(Walk(w.net, w.start, steps))
    assert built.steps == (Step("v1-v2", 0, 1), Step("v1-v2", 1, 0))
    assert all(type(o) is F for s in built.steps for o in (s.start, s.end))


def test_walk_kernel_checks_its_ints():
    # the builders' ints go through the constructor's checks: hand-built
    # rows that name an unknown arc, are zero-length, out of range or not
    # contiguous, and that pass every other check, raise the constructor's
    # message
    net = Network(["u", "v", "w"], [("a", "u", "v", 2), ("b", "v", "w", 1)])
    u = net.node_point("u")
    a, back, b = Step("a", F(0), F(2)), Step("a", F(2), F(0)), Step("b", F(0), F(1))
    rows = [((Step("c", F(0), F(1)),), [(0, 1)], 1, "unknown arc 'c'"),
            ((a, Step("c", F(0), F(1))), [(0, 2), (0, 1)], 1, "unknown arc 'c'"),
            ((Step("a", F(0), F(0)),), [(0, 0)], 1, "zero-length step on arc 'a'"),
            ((Step("a", F(0), F(0)),), [(0, 0)], 4, "zero-length step on arc 'a'"),
            ((Step("a", F(0), F(3)),), [(0, 3)], 1, "step offset 3 outside arc 'a'"),
            ((a, Step("a", F(2), F(-1, 2))), [(0, 4), (4, -1)], 2, "step offset -1/2 outside arc 'a'"),
            ((a, a), [(0, 2), (0, 2)], 1, "step on 'a' starts at node:u, walk is at node:v"),
            ((b,), [(0, 1)], 1, "step on 'b' starts at node:v, walk is at node:u"),
            ((Step("a", F(0), F(1)), b), [(0, 2), (0, 2)], 2, "step on 'b' starts at node:v, walk is at arc:a:1"),
            ((a, b, back), [(0, 2), (0, 1), (2, 0)], 1, "step on 'a' starts at node:v, walk is at node:w")]
    for steps, pairs, scale, message in rows:
        with pytest.raises(ValidationError) as got:
            _walk(net, u, [s.arc for s in steps], pairs, scale)
        assert str(got.value) == message == _walk_error(net, u, steps)
    assert _walk(net, u, [a.arc, back.arc], [(0, 8), (8, 0)], 4)._scale == 1


def _outcome(make):
    """What building a walk gives: its end point, duration, closedness and
    positions at every step boundary, or its exception's type and message."""
    try:
        w = make()
    except (ValidationError, TypeError) as e:
        return type(e), str(e)
    times = [F(0)]
    for s in w.steps:
        times.append(times[-1] + abs(s.end - s.start))
    return w.end_point, w.duration, w.is_closed, [w.position(t) for t in times]


def _same_as_fraction_walk(net, start, steps):
    got = _outcome(lambda: Walk(net, start, steps))
    assert got == _outcome(lambda: FractionWalk(net, start, steps)), (start, steps)
    return got


def _int_offsets(steps):
    return [Step(s.arc, *(int(o) if o.denominator == 1 else o for o in (s.start, s.end)))
            for s in steps]


def _broken(net, w: Walk, i: int):
    """Invalid variants of a walk around its step i: each (start, steps)."""
    steps = list(w.steps)
    s = steps[i]
    a = net.arc(s.arc)
    mid = (s.start + s.end) / 2
    yield w.start, steps[:i] + [Step(s.arc, s.start, s.start)] + steps[i + 1:]
    yield w.start, steps[:i] + [Step(s.arc, s.start, a.length + F(1, 3))] + steps[i + 1:]
    yield w.start, steps[:i] + [Step(s.arc, F(-1, 2), s.end)] + steps[i + 1:]
    yield w.start, steps[:i] + [Step("no-such-arc", s.start, s.end)] + steps[i + 1:]
    # a step that leaves from its other end, after a node or an interior point
    yield w.start, steps[:i] + [Step(s.arc, s.end, s.start)] + steps[i + 1:]
    split = [Step(s.arc, s.start, mid), Step(s.arc, (mid + s.end) / 2, s.end)]
    yield w.start, steps[:i] + split + steps[i + 1:]
    yield w.start, steps[:i] + [Step(s.arc, float(s.start), s.end)] + steps[i + 1:]
    yield w.start, steps[:i] + [Step(s.arc, s.start, float(s.end))] + steps[i + 1:]
    # a start given in interior form at an arc end
    first = steps[0]
    yield Point(arc=first.arc, offset=first.start), steps


def _failure_kind(message: str) -> str:
    if ", walk is at " in message:
        return "after a node" if ", walk is at node:" in message else "after an interior point"
    return message.split(" ")[message.startswith("step offset")]


def test_walk_matches_fraction_reference():
    """Walks checked and timed on one integer scale give what step-by-step
    Fraction checks give: the same walk, or the same error."""
    rng = random.Random(5)
    trees = [make_sample_tree()] + [random_tree(rng, max_nodes=10, min_nodes=3) for _ in range(6)]
    walks = list(_seeded_walks()) + [double_traversal(t, n) for t in trees for n in t.nodes[:2]]
    loop = Network(["x", "y"], [("b", "x", "y", 1), ("l", "x", "x", 2)])
    stationary = [(loop, loop.node_point("x")), (loop, loop.point("l", F(1, 2)))]
    stationary += [(w.net, w.start) for w in walks[:20]]
    for net, start in stationary:
        assert _same_as_fraction_walk(net, start, [])[1] == 0
    failed = Counter()
    for w in walks:
        _same_as_fraction_walk(w.net, w.start, w.steps)
        _same_as_fraction_walk(w.net, w.start, _int_offsets(w.steps))
        if not w.steps:
            continue
        for i in {0, rng.randrange(len(w.steps)), len(w.steps) - 1}:
            for start, steps in _broken(w.net, w, i):
                got = _same_as_fraction_walk(w.net, start, steps)
                if isinstance(got[0], type):
                    failed[_failure_kind(got[1])] += 1
    assert set(failed) == {"zero-length", "offset", "unknown", "refusing",
                           "after a node", "after an interior point"}


def test_walk_repeated_needs_a_positive_count():
    seg = Network(["u", "v"], [("a", "u", "v", 2)])
    w = Walk(seg, seg.node_point("u"), [Step("a", F(0), F(2)), Step("a", F(2), F(0))])
    assert w.repeated(1).steps == w.steps and w.repeated(3).duration == 12
    for k in (0, -1, True, False, 2.0, "2", F(2), None):
        with pytest.raises(ValidationError, match="repetitions must be a positive integer"):
            w.repeated(k)


def test_stationary_walk():
    seg = Network(["u", "v"], [("a", "u", "v", 2)])
    w = Walk(seg, seg.point("a", 1))
    assert w.is_stationary and w.is_closed and w.duration == 0
    assert w.visit_times(seg.point("a", 1)) == (0,)
    assert w.visit_times(seg.node_point("u")) == ()


def test_double_traversal(sample_tree):
    w = double_traversal(sample_tree, "A")
    assert w.duration == 2 * sample_tree.total_length and w.is_closed
    assert all(c == 2 for c in arc_traversal_counts(w).values())
    # each leaf is reached exactly once per tour
    assert len(w.visit_times(sample_tree.node_point("L62"))) == 1


def test_walk_through_nodes(unit_k4):
    w = walk_through_nodes(unit_k4, ["v1", "v2", "v3", "v1"])
    assert w.is_closed and w.duration == 3


def test_ball(sample_tree):
    b = ball(sample_tree, sample_tree.node_point("C"), F(3, 2))
    # reaches 1/2 into bBC beyond C... 3/2 toward B, and swallows both unit leaf arcs
    assert b.measure == F(3, 2) + 1 + 1
    assert b.contains(sample_tree.node_point("L3"))
    assert not b.contains(sample_tree.node_point("B"))


def test_subnetwork_split_and_components(sample_tree):
    whole = SubNetwork.whole(sample_tree)
    parts = whole.split_at(sample_tree.node_point("B"))
    assert sorted(p.measure for p in parts) == [2, 4, 4]
    assert all(p.contains(sample_tree.node_point("B")) for p in parts)
    comp = SubNetwork.from_segments(sample_tree, [
        s for p in parts if p.measure == 2 for s in p.segment_list()])
    assert comp.covered_nodes() == ("B", "L22")


def test_from_segments_separates_empty_from_outside(sample_tree):
    for lo, hi in ((F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)), (F(0), F(0))):
        with pytest.raises(ValidationError, match=f"^segment seg:aAB:{lo}:{hi} is empty or reversed$"):
            SubNetwork.from_segments(sample_tree, [Segment("aAB", lo, hi)])
    for lo, hi in ((F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)), (F(3), F(2))):
        with pytest.raises(ValidationError, match=f"^segment seg:aAB:{lo}:{hi} outside arc of length 1$"):
            SubNetwork.from_segments(sample_tree, [Segment("aAB", lo, hi)])


def _sub_fields(sub):
    # key order included: a dict compares equal whatever its order
    return list(sub.segments.items()), sub.segment_list(), sub.measure, sub.points, sub.covered_nodes()


def test_subnetwork_matches_fraction_reference():
    # every query of the integer subnetwork equals the Fraction one, with cut
    # points of denominators 7 and 11 (which divide no D of LENGTH_POOL) fed
    # to from_segments unsorted, overlapping and touching
    rng = random.Random(73)
    checked = 0
    for _ in range(30):
        tree = random_tree(rng, max_nodes=9)

        def cut(arc):
            den = rng.choice((7, 11))
            return F(rng.randint(0, int(arc.length * den)), den)

        def segments(count):
            segs = []
            for _ in range(count):
                arc = rng.choice(tree.arcs)
                lo, hi = sorted((cut(arc), cut(arc)))
                if lo == hi:
                    lo, hi = F(0), max(hi, arc.length / 2)
                segs.append(Segment(arc.id, lo, hi))
                if rng.random() < 0.5:  # overlapping the last one, or touching it at hi
                    segs.append(Segment(arc.id, rng.choice((lo, (lo + hi) / 2, hi)), rng.choice((hi, arc.length))))
            segs = [s for s in segs if s.lo < s.hi]
            rng.shuffle(segs)
            return segs

        segs, others = segments(rng.randint(1, 6)), segments(rng.randint(1, 4))
        subs = [(SubNetwork.from_segments(tree, segs), FractionSubNetwork.from_segments(tree, segs)),
                (SubNetwork.whole(tree), FractionSubNetwork.whole(tree))]
        other, other_ref = SubNetwork.from_segments(tree, others), FractionSubNetwork.from_segments(tree, others)
        for sub, ref in subs:
            assert _sub_fields(sub) == _sub_fields(ref)
            probes = [Point(node=n) for n in tree.nodes]
            for arc in tree.arcs:
                probes += [tree.point(arc.id, cut(arc)), tree.point(arc.id, arc.length * F(1, 3))]
            probes += [tree.point(s.arc, x) for s in sub.segment_list() for x in (s.lo, s.hi, (s.lo + s.hi) / 2)]
            assert [sub.contains(p) for p in probes] == [ref.contains(p) for p in probes]
            assert sub.overlap_measure(other) == ref.overlap_measure(other_ref)
            assert other.overlap_measure(sub) == other_ref.overlap_measure(ref)
            if ref.measure == tree.total_length:
                with pytest.raises(ValidationError, match="empty interior"):
                    sub.complement()
            else:
                assert _sub_fields(sub.complement()) == _sub_fields(ref.complement())
            for step in (F(1, 3), F(2, 7), F(5, 4)):
                assert sub.grid_points(step, extra=probes[:3]) == ref.grid_points(step, extra=probes[:3])
            for p in probes:
                if ref.contains(p):
                    assert [_sub_fields(part) for part in sub.split_at(p)] == \
                        [_sub_fields(part) for part in ref.split_at(p)]
                    checked += 1
    assert checked > 500


def test_network_format_round_trip(sample_tree):
    text = format_network(sample_tree)
    again = parse_network(text)
    assert again.nodes == sample_tree.nodes
    assert [(a.id, a.u, a.v, a.length) for a in again.arcs] == \
           [(a.id, a.u, a.v, a.length) for a in sample_tree.arcs]


def test_network_format_errors():
    with pytest.raises(FormatError, match="line 2"):
        parse_network("node a\narc bad a\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_network("node a\nnode b\narc e a b -1\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_network("edge e a b 1\n")
    with pytest.raises(FormatError, match="disconnected"):
        parse_network("node a\nnode b\nnode c\narc e a b 1\n")


@pytest.mark.parametrize("text, message", [
    ("node a\nnode b\narc x a b 1\narc x a b 2\n", "line 4: duplicate arc id 'x'"),
    ("node a\nnode b\narc x a b 1\n\n# again\narc y a b 1\narc x b a 1\n", "line 7: duplicate arc id 'x'"),
    ("node a\narc x a b 1\narc y a c 1\nnode c\n", "line 2: arc 'x' references unknown node"),
    ("node a\nnode b\narc x a b 1\narc y b z 1\narc x a b 1\n", "line 4: arc 'y' references unknown node"),
    ("node a\nnode b\nnode c\narc e a b 1\n", "network is disconnected"),
    ("arc x a b 1\n", "line 1: arc 'x' references unknown node"),
    ("# nothing\n\n", "network has no nodes"),
])
def test_network_format_arc_errors_name_their_line(text, message):
    with pytest.raises(FormatError) as err:
        parse_network(text)
    assert str(err.value) == message


def test_network_format_nodes_after_arcs():
    net = parse_network("arc x a b 1\narc y b c 2\nnode c\nnode b\nnode a\n")
    assert net.nodes == ("a", "b", "c") and [a.id for a in net.arcs] == ["x", "y"]


def test_network_format_rationals():
    net = parse_network("node a\nnode b\narc e a b 3/7\n")
    assert net.arc("e").length == F(3, 7)
    net = parse_network("node a\nnode b\narc e a b 2.5  # decimal\n")
    assert net.arc("e").length == F(5, 2)


def _same_as_fraction_parse(text: str):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FormatError) as err:
            parse_rational(text, "length", 7)
        assert str(err.value) == f"line 7: bad length {text!r}"
        return None
    got = parse_rational(text, "length", 7)
    assert type(got) is Fraction and got == want
    return got


def test_parse_rational_matches_fraction():
    # texts that Pythons read differently: "1_000" from 3.11 on, "3 / 4" on 3.12 and 3.13
    fixed = ["1_000", "+3", "-0", " 3/4 ", "3 / 4", "٣", "²", "1e3", "0.5", "3/0", "-3/-4",
             "3/+4", "", "-", "/", "-/4", "3/", "007/010", "-12/8", "1" * 30 + "/7"]
    got = [_same_as_fraction_parse(t) for t in fixed]
    assert got[2] == 0 and got[7] == 1000 and got[10] is None and got[-3] == F(7, 10)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="0123456789-+/ ._e٣²", max_size=10),
                 st.from_regex(r"-?[0-9]{1,25}(/-?[0-9]{1,25})?", fullmatch=True)))
def test_parse_rational_matches_fraction_fuzzed(text):
    _same_as_fraction_parse(text)


def test_star_and_path_builders():
    star = star_network([1, 1, 1])
    assert star.is_tree() and star.total_length == 3
    path = path_network(4, pieces=4)
    assert path.is_tree() and path.total_length == 4
