"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the production algorithms: shortest
paths run on subdivided graphs through networkx, walks are checked and
timed step by step in `Fraction`s by `FractionWalk`, side measures come from
edge-removal component sums, the tree layer's side weights, extremity sets,
critical durations and local roots come from its `Fraction` implementation,
interception probabilities come from a merge of
rational phase intervals, one point at a time, a walk's visit times from a
scan of its steps in `Fraction`s, factorization counts and least largest-factor
lengths come from set-cover search over explicitly enumerated perfect
matchings, the enumeration order comes from a recursion over the
exact-cover search with every leaf's factors built and checked one by one,
the factorization heuristic comes from a restart loop over arc-id sets
that walks each cycle of two factors through `Network.arc`,
shortest paths and their parents come from a Dijkstra on `Fraction`
lengths, whose parents also give the shortest paths that close the seeded
random and greedy test walks, circuits come from networkx's cycle enumeration, a single walk is
scored from the definition of interception under each rule for after its end (repeat, hold, none), the patrol search
scores every walk of its family that way under the hold rule, one at a
time, and Monte Carlo is replayed one trial at a time in plain Python.
Equal-branch-density leaf measures come from their `Fraction` implementation
on a freshly built `Fraction` segment graph, subnetworks from their
`Fraction` implementation (`FractionSubNetwork`), whose parts of a split are
floods of that graph re-checked through `from_segments`, metric balls from
per-arc distance intervals, the subtree above a point from the parts of a
split that miss the root, patrol text from `fmt_frac` on each
step's `Fraction` offsets, the branch statistics and cut-subtree
enumerations that check the density lemma from a tour of that `Fraction`
segment graph, and a discretized attack from each cell's
`Fraction` midpoint placed through `Network.point`.
"""

import bisect
import heapq
import itertools
import random
import warnings
from fractions import Fraction

import networkx as nx
import numpy as np

from patrolgame import (Factorization, FactorizationError, Network, Point, Segment, Step, SubNetwork,
                        ValidationError, Walk, round_robin_one_factorization)
from patrolgame import factorization
from patrolgame.decomposition import ExtremitySet, _require_tree
from patrolgame.ebd import LeafDistribution, RootedSubtree
from patrolgame.network import Arc, frac, tree_tour, validate_alpha, walk_through_nodes
from patrolgame.serialize import fmt_frac, fmt_point


def to_nx(net: Network) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(net.nodes)
    for a in net.arcs:
        g.add_edge(a.u, a.v, key=a.id, length=a.length)
    return g


def subdivided_distance(net: Network, a: Point, b: Point, pieces: int = 8) -> float:
    """Shortest path on a graph with every arc split into equal pieces."""
    g = nx.Graph()
    anchors = {}
    for arc in net.arcs:
        prev = arc.u
        for i in range(1, pieces):
            mid = (arc.id, i)
            g.add_edge(prev, mid, weight=float(arc.length) / pieces)
            prev = mid
        g.add_edge(prev, arc.v, weight=float(arc.length) / pieces)

    def anchor(p: Point):
        if p.is_node:
            return p.node
        # snap to the nearest subdivision point; caller picks grid-aligned offsets
        arc = net.arc(p.arc)
        i = round(p.offset / arc.length * pieces)
        if i == 0:
            return arc.u
        if i == pieces:
            return arc.v
        return (p.arc, i)

    return nx.shortest_path_length(g, anchor(a), anchor(b), weight="weight")


def side_measures(net: Network, arc_id: str) -> tuple[Fraction, Fraction]:
    """Component measures after deleting one arc of a tree, via networkx."""
    g = to_nx(net)
    arc = net.arc(arc_id)
    g.remove_edge(arc.u, arc.v, key=arc_id)
    comp_u = nx.node_connected_component(g, arc.u)
    total_u = Fraction(0)
    for u, v, data in g.edges(data=True):
        if u in comp_u:
            total_u += data["length"]
    total = net.total_length - arc.length
    return total_u, total - total_u


def fraction_side_weights(tree: Network) -> dict[str, tuple[Fraction, Fraction]]:
    """For each arc (u, v): measures of the u-side and v-side components of
    the tree with that arc's interior removed, in `Fraction`s.

    One tour from an arbitrary root: when the tour crosses an arc back toward
    the root, everything beyond it has been summed, which gives the far side;
    the near side is the rest of the tree.
    """
    mu = tree.total_length
    beyond = dict.fromkeys(tree.nodes, Fraction(0))  # measure hanging below each node
    out = {}
    for a, child, outward in tree_tour(tree, tree.nodes[0]):
        if outward:
            continue
        far = beyond[child]
        near = mu - far - a.length
        beyond[a.other(child)] += far + a.length
        out[a.id] = (far, near) if a.u == child else (near, far)
    return out


def fraction_extremity_set(tree: Network, alpha) -> ExtremitySet:
    """Closure of the set of regular points whose smaller removal side
    measures less than alpha/2, in `Fraction`s."""
    _require_tree(tree)
    a = validate_alpha(tree, alpha)
    half = a / 2
    weights = fraction_side_weights(tree)
    segs = []
    for arc in tree.arcs:
        wu, wv = weights[arc.id]
        ivs = []
        if wu < half:
            ivs.append((Fraction(0), min(arc.length, half - wu)))
        if wv < half:
            ivs.append((max(Fraction(0), arc.length - (half - wv)), arc.length))
        if len(ivs) == 2 and ivs[0][1] >= ivs[1][0]:
            ivs = [(Fraction(0), arc.length)]
        for lo, hi in ivs:
            if lo < hi:
                segs.append(Segment(arc.id, lo, hi))
    measure = sum((s.measure for s in segs), Fraction(0))
    return ExtremitySet(a, tuple(segs), measure)


def fraction_critical_alpha(tree: Network) -> Fraction:
    """Smallest attack duration for which the extremity closure covers the
    whole tree: twice the largest smaller-side measure over all points."""
    _require_tree(tree)
    weights = fraction_side_weights(tree)
    best = Fraction(0)
    for arc in tree.arcs:
        wu, wv = weights[arc.id]
        # min(wu + t, wv + L - t) is concave with slopes +-1; its max over
        # [0, L] sits at the crossing when interior, else at an endpoint.
        cross = (wv + arc.length - wu) / 2
        t = min(max(cross, Fraction(0)), arc.length)
        best = max(best, min(wu + t, wv + arc.length - t))
    return 2 * best


def fraction_local_root(tree: Network) -> Point:
    """The limit point of the shrinking cores: the unique point minimizing the
    largest component measure after its removal, in `Fraction`s."""
    _require_tree(tree)
    mu = tree.total_length
    weights = fraction_side_weights(tree)
    candidates: dict[Point, Fraction] = {}
    for n in tree.nodes:
        worst = Fraction(0)
        for a in tree.incident(n):
            wu, wv = weights[a.id]
            side = (wv + a.length) if a.u == n else (wu + a.length)
            worst = max(worst, side)
        candidates[tree.node_point(n)] = worst
    for arc in tree.arcs:
        wu, wv = weights[arc.id]
        # interior minimum of max(wu + t, wv + L - t) is mu/2 at the crossing
        t = (wv + arc.length - wu) / 2
        if 0 < t < arc.length:
            candidates[tree.point(arc.id, t)] = mu / 2
        # endpoints are covered by the node candidates
    best = min(candidates.values())
    winners = sorted((p for p, v in candidates.items() if v == best), key=Point.sort_key)
    if len(winners) > 1:
        warnings.warn(f"tied local-root candidates {winners}; choosing the canonical least")
    return winners[0]


def removal_component_measures(net: Network, x: Point) -> list[Fraction]:
    """Component measures of a tree minus a point, via a subdivided graph."""
    g = to_nx(net)
    if x.is_node:
        g.remove_node(x.node)
        comps = list(nx.connected_components(g)) if g.nodes else []
        out = []
        for comp in comps:
            m = Fraction(0)
            for u, v, k, data in g.edges(keys=True, data=True):
                if u in comp:
                    m += data["length"]
            for a in net.incident(x.node):
                if a.other(x.node) in comp:
                    m += a.length
            out.append(m)
        return sorted(out)
    arc = net.arc(x.arc)
    g.remove_edge(arc.u, arc.v, key=arc.id)
    out = []
    for end, stub in ((arc.u, x.offset), (arc.v, arc.length - x.offset)):
        comp = nx.node_connected_component(g, end)
        m = stub
        for u, v, k, data in g.edges(keys=True, data=True):
            if u in comp:
                m += data["length"]
        out.append(m)
    return sorted(out)


def perfect_matchings_k(n: int) -> list[frozenset]:
    """All perfect matchings of the complete graph on range(n)."""

    def rec(remaining):
        if not remaining:
            yield frozenset()
            return
        u = min(remaining)
        for v in sorted(remaining - {u}):
            for rest in rec(remaining - {u, v}):
                yield rest | {(u, v)}

    return [frozenset(m) for m in rec(frozenset(range(n)))]


def count_one_factorizations_bruteforce(n: int) -> int:
    """Count partitions of the complete graph's edges into perfect matchings
    by direct set-cover search over matching combinations."""
    matchings = perfect_matchings_k(n)
    all_edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    need = n - 1
    count = 0
    for combo in itertools.combinations(matchings, need):
        union = set()
        ok = True
        for m in combo:
            if union & m:
                ok = False
                break
            union |= m
        if ok and union == all_edges:
            count += 1
    return count


def best_delta_bruteforce(net: Network) -> tuple[Fraction, set[frozenset]]:
    """Least largest-factor length over every 1-factorization of a complete
    network, from set covers of explicit perfect matchings, and the set of
    factorizations (each a frozenset of arc-id factors) that reach it."""
    names = net.nodes
    n = len(names)
    arc_id = {frozenset((a.u, a.v)): a.id for a in net.arcs}
    length = {a.id: a.length for a in net.arcs}
    factors = [frozenset(arc_id[frozenset((names[i], names[j]))] for i, j in m)
               for m in perfect_matchings_k(n)]
    best, optima = None, set()
    for combo in itertools.combinations(factors, n - 1):
        if len(frozenset().union(*combo)) != len(net.arcs):
            continue
        delta = max(sum((length[a] for a in f), Fraction(0)) for f in combo)
        if best is None or delta < best:
            best, optima = delta, set()
        if delta == best:
            optima.add(frozenset(combo))
    return best, optima


def heuristic_reference(net: Network, restarts: int = 32, seed: int = 0) -> Factorization:
    """`best_one_factorization(net, heuristic=True)` as a restart loop over
    arc-id sets: each restart is the public round robin on the shuffled
    node order, rebalanced by re-splitting the cycles of two factors'
    union, found by walking arcs through `net.arc` and split by trying
    every mask."""
    weight = net._units[1]
    rng = random.Random(seed)
    nodes = list(net.nodes)
    best, best_key = None, None
    for _ in range(restarts):
        rng.shuffle(nodes)
        factors = [set(f) for f in round_robin_one_factorization(net, node_order=nodes).factors]
        key = _rebalance_reference(net, factors, weight)
        if best is None or key < best_key:
            best, best_key = factors, key
    return factorization._checked(net, best, 1, certified=False)


def _rebalance_reference(net: Network, factors: list[set], weight: dict[str, int]) -> int:
    while True:
        lengths = [sum(weight[a] for a in x) for x in factors]
        worst = max(range(len(factors)), key=lambda i: lengths[i])
        for j in range(len(factors)):
            if j == worst:
                continue
            new_max, new_a, new_b = _best_cycle_split_reference(net, factors[worst], factors[j], weight)
            if new_max < max(lengths[worst], lengths[j]):
                factors[worst], factors[j] = set(new_a), set(new_b)
                break
        else:
            return lengths[worst]


def _best_cycle_split_reference(net: Network, fa: set, fb: set, weight: dict[str, int]):
    # Two disjoint perfect matchings form a 2-regular union: disjoint even
    # cycles alternating between the matchings.
    owner = {aid: 0 for aid in fa}
    owner.update({aid: 1 for aid in fb})
    arc_at: dict[tuple[str, int], str] = {}
    for aid, side in owner.items():
        a = net.arc(aid)
        arc_at[(a.u, side)] = aid
        arc_at[(a.v, side)] = aid
    visited: set[str] = set()
    cycles = []
    for start_arc in sorted(owner):
        if start_arc in visited:
            continue
        cycle = []
        cur = start_arc
        node = net.arc(cur).u
        side = owner[cur]
        while cur not in visited:
            visited.add(cur)
            cycle.append(cur)
            node = net.arc(cur).other(node)
            side = 1 - side
            cur = arc_at[(node, side)]
        cycles.append(cycle)
    halves = [(sum(weight[a] for a in cyc[0::2]), sum(weight[a] for a in cyc[1::2]))
              for cyc in cycles]
    best_key, best_mask = None, 0
    for mask in range(1 << len(cycles)):
        la = lb = 0
        for k, (evens, odds) in enumerate(halves):
            if mask >> k & 1:
                la += odds
                lb += evens
            else:
                la += evens
                lb += odds
        key = max(la, lb)
        if best_key is None or key < best_key:
            best_key, best_mask = key, mask
    side_a, side_b = [], []
    for k, cyc in enumerate(cycles):
        evens, odds = cyc[0::2], cyc[1::2]
        if best_mask >> k & 1:
            evens, odds = odds, evens
        side_a += evens
        side_b += odds
    return best_key, side_a, side_b


def girth_bruteforce(net: Network) -> Fraction | None:
    """Minimum circuit length from explicit cycle enumeration: a loop, two
    parallel arcs, or a simple cycle of three or more nodes through the
    shortest arc between each two consecutive nodes."""
    g = nx.MultiGraph()
    for a in net.arcs:
        g.add_edge(a.u, a.v, length=a.length)
    best = None
    for cycle in nx.simple_cycles(g):
        k = len(cycle)
        if k == 1:
            m = min(d["length"] for d in g[cycle[0]][cycle[0]].values())
        elif k == 2:
            m = sum(sorted(d["length"] for d in g[cycle[0]][cycle[1]].values())[:2])
        else:
            m = sum(min(d["length"] for d in g[cycle[i]][cycle[(i + 1) % k]].values()) for i in range(k))
        if best is None or m < best:
            best = m
    return best


def fraction_dijkstra(net: Network, source: str, skip: str | None = None) -> tuple[dict, dict]:
    """`Network._dijkstra` in `Fraction`s: shortest path lengths and
    parents from `source`, avoiding the arc `skip`.  Ties pop in push order,
    and a node's distance and parent change only on a strictly shorter
    path."""
    dist = {source: Fraction(0)}
    parent: dict[str, str] = {}
    counter = itertools.count()
    heap = [(Fraction(0), next(counter), source)]
    while heap:
        d, _, n = heapq.heappop(heap)
        if d > dist[n]:
            continue
        for a in net.incident(n):
            if a.id == skip:
                continue
            m = a.other(n)
            nd = d + a.length
            if m not in dist or nd < dist[m]:
                dist[m] = nd
                parent[m] = n
                heapq.heappush(heap, (nd, next(counter), m))
    return dist, parent


def node_path(net: Network, source: str, target: str) -> list[str]:
    """Node sequence of a shortest path between two nodes, read back along
    `fraction_dijkstra`'s parents."""
    parent = fraction_dijkstra(net, source)[1]
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def greedy_coverage_walk(net: Network, start: str | None = None, seed: int = 0) -> Walk:
    """Closed walk built by always taking the least recently traversed arc;
    an adversarial probe, not an optimal patrol."""
    rng = random.Random(seed)
    nodes = list(net.nodes)
    node = start if start is not None else rng.choice(nodes)
    origin = node
    last: dict[str, int] = {}
    seq = [node]
    elapsed = Fraction(0)
    budget = 4 * net.total_length
    step_no = 0
    while True:
        arcs = [a for a in net.incident(node) if a.u != a.v]
        arc = min(arcs, key=lambda a: (last.get(a.id, -1), a.id))
        step_no += 1
        last[arc.id] = step_no
        node = arc.other(node)
        seq.append(node)
        elapsed += arc.length
        if node == origin and len(last) == len([a for a in net.arcs if a.u != a.v]):
            break
        if elapsed > budget:
            seq.extend(node_path(net, node, origin)[1:])
            break
    return walk_through_nodes(net, seq)


def random_closed_walk(net: Network, rng: random.Random, max_steps: int = 20) -> Walk:
    """Random node walk closed by a shortest path back to its origin."""
    node = rng.choice(list(net.nodes))
    seq = [node]
    for _ in range(rng.randint(2, max_steps)):
        arcs = [a for a in net.incident(node) if a.u != a.v]
        arc = rng.choice(arcs)
        node = arc.other(node)
        seq.append(node)
    if node != seq[0]:
        seq.extend(node_path(net, node, seq[0])[1:])
    return walk_through_nodes(net, seq)


def arc_traversal_counts(walk: Walk) -> dict[str, Fraction]:
    """Total traversed length per arc, as a multiple of the arc length."""
    out: dict[str, Fraction] = {}
    for s in walk.steps:
        out[s.arc] = out.get(s.arc, Fraction(0)) + s.length
    return {aid: tot / walk.net.arc(aid).length for aid, tot in out.items()}


def enumerate_reference(net: Network):
    """`enumerate_one_factorizations` as a plain recursion: every perfect
    matching of the node indices is listed in lexicographic order of its
    pairs; a level covers the lowest uncovered pair (i, j), in lexicographic
    order, with each listed matching through it that shares no pair with
    the matchings already chosen.  At every leaf the matchings are turned
    into arc sets one by one, checked to be perfect, pairwise arc-disjoint
    and covering every arc, and sorted by their sorted arc ids."""
    n = len(net.nodes)
    index = {v: k for k, v in enumerate(net.nodes)}
    ids = {}
    for a in net.arcs:
        ids[index[a.u], index[a.v]] = ids[index[a.v], index[a.u]] = a.id
    bit = {a.id: 1 << k for k, a in enumerate(net.arcs)}
    full = (1 << len(net.arcs)) - 1
    nodes = list(range(n))

    def matchings(rest):
        if not rest:
            yield ()
        for v in rest[1:]:
            for tail in matchings([x for x in rest[1:] if x != v]):
                yield ((rest[0], v),) + tail

    pairs_in_order = [(i, j) for i in range(n) for j in range(i + 1, n)]
    through = {p: [m for m in matchings(nodes) if p in m] for p in pairs_in_order}

    def rec(used, chosen):
        low = next((p for p in pairs_in_order if p not in used), None)
        if low is None:
            yield chosen
            return
        for m in through[low]:
            if used.isdisjoint(m):
                yield from rec(used | set(m), chosen + [m])

    for chosen in rec(frozenset(), []):
        factors = []
        covered, valid = 0, True
        for pairs in chosen:
            arcs = frozenset(ids[i, j] for i, j in pairs)
            mask = sum(bit[a] for a in arcs)
            perfect = sorted(x for pair in pairs for x in pair) == nodes
            valid = valid and perfect and not mask & covered
            covered |= mask
            factors.append((sorted(arcs), arcs))
        if not valid or covered != full:
            raise FactorizationError(factorization.validate_factorization(net, [f[1] for f in factors], 1))
        factors.sort()
        yield Factorization(net, 1, tuple(f[1] for f in factors))


def search_family(net: Network, offset_step: Fraction, max_steps: int):
    """Every walk `patrol_search` examines, in its order: node starts, then
    interior grid starts toward either endpoint, each followed by every
    sequence of up to `max_steps` full arc steps (prefixes included)."""

    def grow(start: Point, steps: list, node: str, left: int):
        yield Walk(net, start, steps)
        if left == 0:
            return
        for a in net.incident(node):
            if a.u == a.v:
                continue
            forward = a.u == node
            step = Step(a.id, Fraction(0) if forward else a.length,
                        a.length if forward else Fraction(0))
            yield from grow(start, steps + [step], a.other(node), left - 1)

    for name in net.nodes:
        yield from grow(net.node_point(name), [], name, max_steps)
    for a in net.arcs:
        if a.u == a.v:
            continue
        off = offset_step
        while off < a.length:
            for target in (a.u, a.v):
                first = Step(a.id, off, Fraction(0) if target == a.u else a.length)
                yield from grow(net.point(a.id, off), [first], target, max_steps)
            off += offset_step


def walk_probability_reference(walk: Walk, attack, alpha: Fraction, rule: str) -> Fraction:
    """Interception probability of an atomic attack by one walk, from the
    definition: an attack at p starting at t is caught when the patrol is at
    p at some instant of [t, t + alpha].  `rule` says where the patrol is
    after the walk's duration D:

    - "repeat": the closed walk runs again and again, so p is visited at
      every visit time plus a multiple of D (only the multiples that reach
      the windows are listed);
    - "hold": the patrol waits at the end point from D on;
    - "none": it is nowhere, and a fixed-law window past D raises.

    Under a uniform law, caught(t) is constant between consecutive window
    ends, so the favourable measure sums the pieces whose midpoint is
    caught."""
    duration = walk.duration
    fixed = attack.temporal.kind == "fixed"
    first = attack.temporal.value if fixed else Fraction(0)  # earliest start
    last = attack.temporal.value + alpha  # latest instant of any window
    if fixed and rule == "none" and last > duration:
        raise ValidationError("attack window extends past the end of an open walk")
    total = Fraction(0)
    for p, m in attack.atoms:
        times = walk.visit_times(p)
        if rule == "repeat":
            times = {v + k * duration for v in times
                     for k in range(max(0, (first - v) // duration), (last - v) // duration + 1)}
        waits = rule == "hold" and p == walk.end_point

        def caught(t):
            return any(t <= v <= t + alpha for v in times) or (waits and t + alpha >= duration)

        if fixed:
            total += m if caught(attack.temporal.value) else 0
            continue
        horizon = attack.temporal.value
        ends = {c for v in times for c in (v - alpha, v)} | {duration - alpha}
        cuts = sorted({Fraction(0), horizon} | {c for c in ends if 0 < c < horizon})
        favourable = sum((b - a for a, b in zip(cuts, cuts[1:]) if caught((a + b) / 2)), Fraction(0))
        total += m * favourable / horizon
    return total


def bruteforce_search(net: Network, attack, alpha, *, max_steps: int, offset_step: Fraction,
                      grid_step: Fraction) -> tuple[Fraction, int, Walk]:
    """Best probability, walk count and first best walk of the search family,
    each walk built and scored on its own."""
    disc = attack.discretized(grid_step)
    best, best_walk, count = None, None, 0
    for walk in search_family(net, offset_step, max_steps):
        count += 1
        p = walk_probability_reference(walk, disc, Fraction(alpha), "hold")
        if best is None or p > best:
            best, best_walk = p, walk
    return best, count, best_walk


def mc_hits_reference(patrol, attack, alpha, trials: int, seed: int) -> int:
    """Monte Carlo hit count from the definition, one trial at a time.

    Trial i reads words 8i..8i+7 of the Philox stream keyed by the seed and
    turns the first five into uniforms in [0, 1): the component, its phase,
    the spatial entry (atoms, then the segments of each uniform part), the
    offset along a segment, and the start time under a uniform law.  The
    attack is caught when a visit of the periodic walk to the attacked point
    falls in the window: (visit - phase - start) mod period <= alpha, with
    the same float operations as the engine.  A stationary walk catches only
    an atom at its own position."""
    a_f = float(alpha)
    cum_s = list(itertools.accumulate(float(s) for _, s in patrol.components))
    entries, masses = [], []
    for point, mass in attack.atoms:
        entries.append((point, None))
        masses.append(float(mass))
    for part in attack.uniform_parts:
        for seg in part.region.segment_list():
            entries.append((seg.arc, (float(seg.lo), float(seg.hi))))
            masses.append(float(part.density * seg.measure))
    cum_m = list(itertools.accumulate(masses))
    cum_m[-1] = 1.0
    fixed_t = attack.temporal.kind == "fixed"
    t_value = float(attack.temporal.value)

    bg = np.random.Philox(key=seed)
    hits = 0
    for _ in range(trials):
        u = [(word >> 11) * 2.0 ** -53 for word in bg.random_raw(8).tolist()]
        walk = patrol.components[min(bisect.bisect_right(cum_s, u[0]), len(cum_s) - 1)][0]
        where, seg = entries[min(bisect.bisect_right(cum_m, u[2]), len(cum_m) - 1)]
        period = float(walk.duration)
        shift = u[1] * period + (t_value if fixed_t else u[4] * t_value)
        if walk.is_stationary:
            hits += seg is None and where == walk.start
            continue
        if seg is None:
            visits = {v % walk.duration for v in walk.visit_times(where)}
            hits += any((float(v) - shift) % period <= a_f for v in visits)
            continue
        lo, hi = seg
        off = lo + u[3] * (hi - lo)
        elapsed = Fraction(0)
        caught = False
        for step in walk.steps:
            o1, o2 = float(step.start), float(step.end)
            if step.arc == where and min(o1, o2) <= off <= max(o1, o2):
                v = float(elapsed) + abs(off - o1)
                caught = caught or (v - shift) % period <= a_f
            elapsed += step.length
        hits += caught
    return hits


def interception_reference(patrol, x: Point, t, alpha) -> Fraction:
    """Probability that the phase-randomized mixture intercepts an attack at
    x in the window [t, t + alpha], in Fractions, one point at a time.

    Each walk's visit times of x (`Walk.visit_times`), reduced mod its
    period, give the phases p for which a visit falls in the window: p in
    [v - t - alpha, v - t] mod the period.  The union of those intervals is
    merged explicitly; its measure over the period is the walk's share.  A
    stationary walk catches only an attack at its own position."""
    t, alpha = Fraction(t), Fraction(alpha)
    total = Fraction(0)
    for walk, s in patrol.components:
        if s == 0:
            continue
        if walk.is_stationary:
            total += s if x == walk.start else 0
            continue
        period = walk.duration
        visits = sorted({v % period for v in walk.visit_times(x)})
        if not visits:
            continue
        if alpha >= period:
            total += s
            continue
        raw = []
        for v in visits:
            lo = (v - t - alpha) % period
            hi = lo + alpha
            if hi <= period:
                raw.append((lo, hi))
            else:
                raw += [(lo, period), (Fraction(0), hi - period)]
        raw.sort()
        measure = Fraction(0)
        cur_lo, cur_hi = raw[0]
        for lo, hi in raw[1:]:
            if lo <= cur_hi:
                cur_hi = max(cur_hi, hi)
            else:
                measure += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
        measure += cur_hi - cur_lo
        total += s * measure / period
    return total


def walk_trace_reference(walk: Walk) -> tuple[Point, Fraction, list[tuple[Fraction, Point]]]:
    """End point, duration and (time, point) at every step boundary of a
    walk, each point built with `Network.point` from the step's offsets."""
    net = walk.net
    if not walk.steps:
        return walk.start, Fraction(0), [(Fraction(0), walk.start)]
    t = Fraction(0)
    first = walk.steps[0]
    trace = [(t, net.point(first.arc, first.start))]
    for s in walk.steps:
        t += abs(s.end - s.start)
        trace.append((t, net.point(s.arc, s.end)))
    return trace[-1][1], t, trace


class FractionWalk:
    """`Walk`'s checks and clock, step by step in `Fraction`s: each step's
    offsets are compared with the arc's ends and with the current position,
    and the walk builds a `Point` after every step."""

    def __init__(self, net: Network, start: Point, steps=()):
        self.net = net
        self.start = start
        self.steps = tuple(steps)
        total = Fraction(0)
        cum = [total]
        where = start
        for s in self.steps:
            a = net.arc(s.arc)
            if s.start == s.end:
                raise ValidationError(f"zero-length step on arc {s.arc!r}")
            for off in (s.start, s.end):
                if off < 0 or off > a.length:
                    raise ValidationError(f"step offset {off} outside arc {s.arc!r}")
            lo = frac(s.start)
            node = a.endpoint_at(lo)
            joined = where.node == node if node is not None else where.arc == a.id and where.offset == lo
            if not joined:
                entry = net.point(s.arc, lo)
                raise ValidationError(f"step on {s.arc!r} starts at {entry!r}, walk is at {where!r}")
            hi = frac(s.end)
            node = a.endpoint_at(hi)
            where = Point(node=node) if node is not None else Point(arc=a.id, offset=hi)
            total += abs(hi - lo)
            cum.append(total)
        self._cum = tuple(cum)
        self.end_point = where

    @property
    def duration(self) -> Fraction:
        return self._cum[-1]

    @property
    def is_closed(self) -> bool:
        return self.end_point == self.start

    def position(self, t) -> Point:
        t = frac(t)
        if t < 0 or t > self.duration:
            raise ValidationError(f"time {t} outside [0, {self.duration}]")
        if not self.steps:
            return self.start
        lo, hi = 0, len(self.steps)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cum[mid + 1] < t:
                lo = mid + 1
            else:
                hi = mid
        s = self.steps[lo]
        dt = t - self._cum[lo]
        off = s.start + dt if s.end > s.start else s.start - dt
        return self.net.point(s.arc, off)

    def visit_times(self, x: Point) -> tuple[Fraction, ...]:
        """Sorted times in [0, duration] at which the walk occupies x: the
        step boundaries at a node, or each step's passage over an interior
        point."""
        if not self.steps:
            return (Fraction(0),) if x == self.start else ()
        if x.is_node:
            ends = [self.start] + [Point(node=self.net.arc(s.arc).endpoint_at(s.end)) for s in self.steps]
            return tuple(t for t, p in zip(self._cum, ends) if p == x)
        times = set()
        for i, s in enumerate(self.steps):
            lo, hi = min(s.start, s.end), max(s.start, s.end)
            if s.arc == x.arc and lo <= x.offset <= hi:
                times.add(self._cum[i] + abs(x.offset - s.start))
        return tuple(sorted(times))


def ball(net: Network, center: Point, radius) -> SubNetwork:
    """Closed metric ball around `center`; always a connected subnetwork."""
    r = frac(radius)
    if r < 0:
        raise ValidationError("radius must be nonnegative")
    segs = []
    for a in net.arcs:
        ivs = []
        du = net.distance(center, Point(node=a.u))
        dv = net.distance(center, Point(node=a.v))
        if r >= du:
            ivs.append((Fraction(0), min(a.length, r - du)))
        if r >= dv:
            ivs.append((max(Fraction(0), a.length - (r - dv)), a.length))
        if not center.is_node and center.arc == a.id:
            ivs.append((max(Fraction(0), center.offset - r), min(a.length, center.offset + r)))
        for lo, hi in ivs:
            if lo < hi:
                segs.append(Segment(a.id, lo, hi))
    if segs:
        return SubNetwork.from_segments(net, segs)
    return SubNetwork.single_point(net, center)


def subtree_above(tree: Network, root: Point, x: Point) -> RootedSubtree:
    """The part of a rooted tree at and above a point x: the union of the
    components of tree minus x that do not contain the root, re-rooted at x."""
    if x == root:
        return RootedSubtree(SubNetwork.whole(tree), root)
    parts = SubNetwork.whole(tree).split_at(x)
    away = [p for p in parts if not p.contains(root)]
    if len(away) == len(parts):
        raise ValidationError(f"root {root!r} not found on any side of {x!r}")
    segs = [s for p in away for s in p.segment_list()]
    if not segs:
        raise ValidationError(f"nothing lies above {x!r}")
    return RootedSubtree(SubNetwork.from_segments(tree, segs), x)


def contains_sub(sub, other) -> bool:
    """Whether a subnetwork holds every segment and point of another."""
    for aid, ivs in other.segments.items():
        mine = sub.segments.get(aid, ())
        for lo, hi in ivs:
            if not any(mlo <= lo and hi <= mhi for mlo, mhi in mine):
                return False
    return all(sub.contains(p) for p in other.points)


class FractionPiece:
    """A segment as an edge between its two end `Point`s."""

    __slots__ = ("arc", "lo", "hi", "u", "v")

    def __init__(self, arc: Arc, lo: Fraction, hi: Fraction):
        self.arc, self.lo, self.hi = arc.id, lo, hi
        self.u = Point(node=arc.u) if lo == 0 else Point(arc=arc.id, offset=lo)
        self.v = Point(node=arc.v) if hi == arc.length else Point(arc=arc.id, offset=hi)

    def other(self, p: Point) -> Point:
        return self.v if p == self.u else self.u


class FractionSegmentGraph:
    """Segments as edges between their end `Point`s; `incident` lists a
    point's pieces in segment order."""

    def __init__(self, host: Network, segs):
        self.host = host
        self.pieces = [FractionPiece(host.arc(s.arc), s.lo, s.hi) for s in segs]
        self._touch: dict[Point, list[FractionPiece]] = {}
        for piece in self.pieces:
            self._touch.setdefault(piece.u, []).append(piece)
            self._touch.setdefault(piece.v, []).append(piece)

    def incident(self, p: Point):
        return self._touch.get(p, ())


def fraction_flood(graph, seeds, blocked) -> list[tuple[list[Segment], set]]:
    """Floods of a segment graph from each seed not yet reached, stopping at
    blocked vertices: per flood, the `Fraction` segments of the pieces it
    reached and the blocked vertices it stopped at.  A graph with a `scale`
    holds its piece ends as ints on it."""
    scale = getattr(graph, "scale", 1)
    out, seen = [], set()
    for seed in seeds:
        if seed in seen:
            continue
        seen.add(seed)
        segs, todo, stops = [], [seed], set()
        while todo:
            q = todo.pop()
            segs.append(Segment(q.arc, Fraction(q.lo) / scale, Fraction(q.hi) / scale))
            for end in (q.u, q.v):
                if end in blocked:
                    stops.add(end)
                    continue
                fresh = [r for r in graph.incident(end) if r not in seen]
                seen.update(fresh)
                todo += fresh
        out.append((segs, stops))
    return out


def _merge_reference(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


class FractionSubNetwork:
    """`SubNetwork` in `Fraction`s: per arc id, in id order, its merged,
    disjoint (lo, hi) offsets, checked and merged by every constructor; a
    split floods a `FractionSegmentGraph` and re-checks each part."""

    def __init__(self, host: Network, segments: dict, points: frozenset = frozenset()):
        self.host, self.segments, self.points = host, segments, points
        self.measure = sum((hi - lo for ivs in segments.values() for lo, hi in ivs), Fraction(0))

    @classmethod
    def whole(cls, host: Network):
        return cls(host, {a.id: ((Fraction(0), a.length),) for a in host.arcs})

    @classmethod
    def from_segments(cls, host: Network, segs):
        by_arc: dict[str, list] = {}
        for s in segs:
            a = host.arc(s.arc)
            lo, hi = frac(s.lo), frac(s.hi)
            if not (0 <= lo < hi <= a.length):
                raise ValidationError(f"segment {s!r} outside arc of length {a.length}")
            by_arc.setdefault(s.arc, []).append((lo, hi))
        return cls(host, {aid: _merge_reference(ivs) for aid, ivs in sorted(by_arc.items())})

    @classmethod
    def single_point(cls, host: Network, p: Point):
        if not (p.is_node or host.contains_point(p)):
            raise ValidationError(f"{p!r} not on network")
        return cls(host, {}, frozenset([p]))

    def segment_list(self) -> tuple[Segment, ...]:
        return tuple(Segment(aid, lo, hi) for aid, ivs in self.segments.items() for lo, hi in ivs)

    def contains(self, p: Point) -> bool:
        if p in self.points:
            return True
        if p.is_node:
            for a in self.host.incident(p.node):
                for lo, hi in self.segments.get(a.id, ()):
                    if (a.u == p.node and lo == 0) or (a.v == p.node and hi == a.length):
                        return True
            return False
        return any(lo <= p.offset <= hi for lo, hi in self.segments.get(p.arc, ()))

    def covered_nodes(self) -> tuple[str, ...]:
        found = {p.node for p in self.points if p.is_node}
        for aid, ivs in self.segments.items():
            a = self.host.arc(aid)
            for lo, hi in ivs:
                if lo == 0:
                    found.add(a.u)
                if hi == a.length:
                    found.add(a.v)
        return tuple(sorted(found))

    def overlap_measure(self, other) -> Fraction:
        total = Fraction(0)
        for aid, ivs in self.segments.items():
            for olo, ohi in other.segments.get(aid, ()):
                for lo, hi in ivs:
                    total += max(Fraction(0), min(hi, ohi) - max(lo, olo))
        return total

    def complement(self):
        segs = []
        for a in self.host.arcs:
            cursor = Fraction(0)
            for lo, hi in self.segments.get(a.id, ()):
                if cursor < lo:
                    segs.append(Segment(a.id, cursor, lo))
                cursor = hi
            if cursor < a.length:
                segs.append(Segment(a.id, cursor, a.length))
        if not segs:
            raise ValidationError("complement has empty interior")
        return FractionSubNetwork.from_segments(self.host, segs)

    def grid_points(self, step, extra=()) -> list[Point]:
        h = frac(step)
        if h <= 0:
            raise ValidationError("grid step must be positive")
        pts = {self.host.node_point(n) for n in self.covered_nodes()}
        pts.update(self.points)
        for seg in self.segment_list():
            off = seg.lo
            while off < seg.hi:
                pts.add(self.host.point(seg.arc, off))
                off += h
            pts.add(self.host.point(seg.arc, seg.hi))
        pts.update(extra)
        return sorted(pts, key=Point.sort_key)

    def split_at(self, p: Point):
        if not self.contains(p):
            raise ValidationError(f"{p!r} not in subnetwork")
        segs = []
        for s in self.segment_list():
            if not p.is_node and s.arc == p.arc and s.lo < p.offset < s.hi:
                segs += [Segment(s.arc, s.lo, p.offset), Segment(s.arc, p.offset, s.hi)]
            else:
                segs.append(s)
        graph = FractionSegmentGraph(self.host, segs)
        return [FractionSubNetwork.from_segments(self.host, part)
                for part, _ in fraction_flood(graph, graph.incident(p), {p})]


def fraction_ebd(rooted: RootedSubtree, total_mass) -> LeafDistribution:
    """`ebd` in `Fraction`s, keyed by `Point`: one tour of the subtree's
    segment graph, built afresh from its segments, gives each point's
    hanging pieces and branch measures; then mass flows down from the root,
    split proportionally to branch measure."""
    sub = rooted.subtree
    graph = FractionSegmentGraph(sub.host, sub.segment_list())
    order = [rooted.root]
    children: dict[Point, list[tuple[Point, Fraction]]] = {}
    beyond: dict[Point, Fraction] = {}
    for piece, p, outward in tree_tour(graph, rooted.root):
        if outward:
            order.append(piece.other(p))
            continue
        parent = piece.other(p)
        branch = piece.hi - piece.lo + beyond.get(p, Fraction(0))
        children.setdefault(parent, []).append((p, branch))
        beyond[parent] = beyond.get(parent, Fraction(0)) + branch
    mass = frac(total_mass)
    if rooted.root not in beyond:
        raise ValidationError("degenerate subtree: no segment ends at the root")
    if beyond[rooted.root] != sub.measure:
        raise ValidationError("subtree is disconnected")
    inflow = {rooted.root: mass}
    atoms: dict[Point, Fraction] = {}
    for p in order:
        m = inflow.pop(p)
        if p not in children:
            atoms[p] = m
            continue
        for q, branch in children[p]:
            inflow[q] = m * branch / beyond[p]
    items = tuple(sorted(atoms.items(), key=lambda kv: kv[0].sort_key()))
    assert sum((m for _, m in items), Fraction(0)) == mass
    return LeafDistribution(items, mass)


def _fraction_branches(rooted: RootedSubtree):
    """One tour of a rooted subtree's `FractionSegmentGraph`: its points in
    pre-order as (key, point), keyed by the piece the tour enters them by
    (None at the root), and per key, the pieces hanging beyond its point as
    (key, piece length, branch length) in host arc-id order."""
    graph = FractionSegmentGraph(rooted.subtree.host, rooted.subtree.segment_list())
    order, children, beyond, path = [(None, rooted.root)], {}, {}, [None]
    for piece, p, outward in tree_tour(graph, rooted.root):
        if outward:
            path.append(piece)
            order.append((piece, piece.other(p)))
            continue
        path.pop()
        length = piece.hi - piece.lo
        branch = length + beyond.get(piece, Fraction(0))
        children.setdefault(path[-1], []).append((piece, length, branch))
        beyond[path[-1]] = beyond.get(path[-1], Fraction(0)) + branch
    return order, children


def _mass_by_point(dist: LeafDistribution) -> dict[Point, Fraction]:
    out: dict[Point, Fraction] = {}
    for p, m in dist.atoms:
        out[p] = out.get(p, Fraction(0)) + m
    return out


def branch_stats(rooted: RootedSubtree, dist: LeafDistribution):
    """Yield (branch point, ((branch measure, branch mass), ...)) for every
    point of the subtree with at least two hanging branches, in pre-order."""
    order, children = _fraction_branches(rooted)
    held = _mass_by_point(dist)
    below = {}  # mass at and beyond each key's point
    for key, p in reversed(order):
        below[key] = held.get(p, Fraction(0)) + sum((below[q] for q, _, _ in children.get(key, ())), Fraction(0))
    for key, p in order:
        if len(children.get(key, ())) >= 2:
            yield p, tuple((branch, below[q]) for q, _, branch in children[key])


def iter_cut_subtree_stats(rooted: RootedSubtree, dist: LeafDistribution, cut_grid: tuple):
    """Enumerate (length, mass) over rooted subtrees obtained by cutting each
    arc above the root at a grid fraction of its length, keeping it whole, or
    dropping it.  The subtree {root} alone (zero length) is skipped.

    The mass/length ratio of such a subtree is monotone between grid cuts
    because mass is constant and length linear in each cut position, so grid
    extremes bound the continuum of subtrees.
    """
    fractions = tuple(frac(g) for g in cut_grid)
    if any(not (0 < g < 1) for g in fractions):
        raise ValidationError("cut grid fractions must lie strictly between 0 and 1")
    order, children = _fraction_branches(rooted)
    held = _mass_by_point(dist)
    options = {}  # key -> (length, mass) choices for everything beyond its point
    for key, p in reversed(order):
        if key not in children:
            options[key] = [(Fraction(0), held.get(p, Fraction(0)))]
            continue
        combos = [(Fraction(0), Fraction(0))]
        for q, length, _ in children[key]:
            # the branch entered via this piece: drop it, cut it partway, or
            # take it whole plus any combination beyond
            branch = [(Fraction(0), Fraction(0))]
            branch += [(g * length, Fraction(0)) for g in fractions]
            branch += [(length + lam, m) for lam, m in options.pop(q)]
            combos = [(l1 + l2, m1 + m2) for l1, m1 in combos for l2, m2 in branch]
        options[key] = combos
    for lam, m in options[None]:
        if lam > 0:
            yield lam, m


def write_patrol_reference(patrol) -> str:
    """The patrol text format, every rational through `fmt_frac`."""
    lines = ["patrol"]
    for walk, s in patrol.components:
        lines += [f"mix {fmt_frac(s)}", f"walk {fmt_point(walk.start)}"]
        lines += [f"step {st.arc} {fmt_frac(st.start)} {fmt_frac(st.end)}" for st in walk.steps]
    return "\n".join(lines) + "\n"


def discretized_reference(attack, step):
    """`AttackStrategy.discretized` in `Fraction` arithmetic: each cell's
    midpoint and mass computed on their own, placed through `Network.point`,
    merged in a dict and sorted by `Point.sort_key`."""
    h = frac(step)
    if h <= 0:
        raise ValidationError("grid step must be positive")
    atoms: dict[Point, Fraction] = {}
    for p, m in attack.atoms:
        atoms[p] = atoms.get(p, Fraction(0)) + m
    for part in attack.uniform_parts:
        for seg in part.region.segment_list():
            cells = max(1, -(seg.measure // -h))  # ceil division
            width = seg.measure / cells
            for i in range(cells):
                mid = seg.lo + width * i + width / 2
                p = attack.network.point(seg.arc, mid)
                atoms[p] = atoms.get(p, Fraction(0)) + part.density * width
    ordered = tuple(sorted(atoms.items(), key=lambda kv: kv[0].sort_key()))
    return type(attack)(attack.network, ordered, (), attack.temporal)
