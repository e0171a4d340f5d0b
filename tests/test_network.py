import hashlib
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolgame import (
    FormatError,
    Network,
    Point,
    Step,
    SubNetwork,
    ValidationError,
    Walk,
    complete_network,
    components_after_removal,
    double_traversal,
    e_patrolling,
    eulerian_tour,
    format_network,
    parse_network,
    path_network,
    random_closed_walk,
    star_network,
    walk_through_nodes,
)
from conftest import make_sample_tree, random_tree
from oracles import (removal_component_measures, search_family, subdivided_distance, to_nx,
                     walk_trace_reference)

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
                path = net.node_path(s, t)
                digest.update(" ".join(path).encode() + b"\n")
                assert path[0] == s and path[-1] == t
                total = F(0)
                for x, y in zip(path, path[1:]):
                    total += min(a.length for a in net.incident(x) if a.other(x) == y)
                assert total == dist[t]
    # which of several shortest paths comes back (ties go to the earliest
    # push), frozen
    assert digest.hexdigest() == FROZEN_PATHS


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
    assert all(count == 1 for count in w.arc_traversal_counts().values())


def test_eulerian_tour_k4_minus_matching(unit_k4):
    q = unit_k4.without_arcs(["v1-v2", "v3-v4"])
    w = eulerian_tour(q)
    assert w.duration == 4 and w.is_closed
    assert sorted(w.arc_traversal_counts()) == ["v1-v3", "v1-v4", "v2-v3", "v2-v4"]


def test_eulerian_tour_two_triangles():
    tt = Network(["a", "b", "c", "d", "e"],
                 [("t1", "a", "b", 1), ("t2", "b", "c", 1), ("t3", "c", "a", 1),
                  ("t4", "a", "d", 1), ("t5", "d", "e", 1), ("t6", "e", "a", 1)])
    w = eulerian_tour(tt)
    assert w.duration == 6 and w.is_closed
    assert all(n == 1 for n in w.arc_traversal_counts().values())  # each arc exactly once


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


def test_stationary_walk():
    seg = Network(["u", "v"], [("a", "u", "v", 2)])
    w = Walk(seg, seg.point("a", 1))
    assert w.is_stationary and w.is_closed and w.duration == 0
    assert w.visit_times(seg.point("a", 1)) == (0,)
    assert w.visit_times(seg.node_point("u")) == ()


def test_double_traversal(sample_tree):
    w = double_traversal(sample_tree, "A")
    assert w.duration == 2 * sample_tree.total_length and w.is_closed
    assert all(c == 2 for c in w.arc_traversal_counts().values())
    # each leaf is reached exactly once per tour
    assert len(w.visit_times(sample_tree.node_point("L62"))) == 1


def test_walk_through_nodes(unit_k4):
    w = walk_through_nodes(unit_k4, ["v1", "v2", "v3", "v1"])
    assert w.is_closed and w.duration == 3


def test_ball(sample_tree):
    b = sample_tree.ball(sample_tree.node_point("C"), F(3, 2))
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


def test_network_format_rationals():
    net = parse_network("node a\nnode b\narc e a b 3/7\n")
    assert net.arc("e").length == F(3, 7)
    net = parse_network("node a\nnode b\narc e a b 2.5  # decimal\n")
    assert net.arc("e").length == F(5, 2)


def test_star_and_path_builders():
    star = star_network([1, 1, 1])
    assert star.is_tree() and star.total_length == 3
    path = path_network(4, pieces=4)
    assert path.is_tree() and path.total_length == 4
