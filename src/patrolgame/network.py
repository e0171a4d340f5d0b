"""Metric multigraph networks, points on arcs, and unit-speed walks.

All lengths, offsets and probabilities are exact: `fractions.Fraction`
values at the interface, and integers on a common scale inside (`_on_scale`
puts a set of `Fraction`s on one).  A network keeps its arc lengths times
D, the lcm of their denominators; a walk keeps its steps as arc ids with
offsets and a clock, and a subnetwork its segment ends, on a multiple of D.
A walk holds only these ints; `steps` builds `Step`s on first read.  A
subnetwork's segment graph names each vertex by a node's name or by (arc
id, scaled offset), so its tours and floods hash strings and small tuples,
not `Point`s.  Floating point never enters this module.  Networks are
immutable after construction and every operation here is pure, so
concurrent reads need no synchronization: a network memoizes what it
derives (integer arc lengths and single-source distances here, side weights
and the last subtree decomposition in the tree layer), a walk its `steps`
and its visit index, and two threads that fill a memo at once store equal
values.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Container, Iterable, Iterator, Sequence

from .errors import FormatError, ValidationError


def frac(x) -> Fraction:
    """Coerce an int, Fraction, 'p/q' or decimal string to an exact Fraction.

    Floats are rejected: binary floats silently break the exact-equality
    contract, so callers must pass strings or Fractions instead.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"refusing inexact value {x!r}; pass a Fraction or string")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class Arc:
    """Undirected arc of positive rational length. Loops (u == v) are allowed."""

    id: str
    u: str
    v: str
    length: Fraction

    def other(self, node: str) -> str:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValidationError(f"node {node!r} is not an endpoint of arc {self.id!r}")

    def endpoint_at(self, offset: Fraction) -> str | None:
        if offset == 0:
            return self.u
        if offset == self.length:
            return self.v
        return None


@dataclass(frozen=True)
class Point:
    """A location on a network: either a node or an interior arc position.

    Interior offsets are measured from the arc's `u` endpoint and satisfy
    0 < offset < length; offsets 0/length are normalized to the node form
    so equality of points is canonical.  Build points through
    :meth:`Network.point` or :meth:`Network.node_point`.
    """

    node: str | None = None
    arc: str | None = None
    offset: Fraction | None = None

    @property
    def is_node(self) -> bool:
        return self.node is not None

    def sort_key(self):
        if self.is_node:
            return (0, self.node, "", Fraction(0))
        return (1, "", self.arc, self.offset)

    def __repr__(self):
        if self.is_node:
            return f"node:{self.node}"
        return f"arc:{self.arc}:{self.offset}"


@dataclass(frozen=True)
class Segment:
    """A closed sub-interval [lo, hi] of an arc with positive measure."""

    arc: str
    lo: Fraction
    hi: Fraction

    @property
    def measure(self) -> Fraction:
        return self.hi - self.lo

    def __repr__(self):
        return f"seg:{self.arc}:{self.lo}:{self.hi}"


class Network:
    """Connected metric multigraph with positive rational arc lengths."""

    def __init__(self, nodes: Iterable[str], arcs: Iterable[tuple]):
        self.nodes: tuple[str, ...] = tuple(sorted(set(nodes)))
        built = []
        seen = set()
        node_set = set(self.nodes)
        for aid, u, v, length in arcs:
            if aid in seen:
                raise ValidationError(f"duplicate arc id {aid!r}")
            seen.add(aid)
            if u not in node_set or v not in node_set:
                raise ValidationError(f"arc {aid!r} references unknown node")
            ln = frac(length)
            if ln <= 0:
                raise ValidationError(f"arc {aid!r} has nonpositive length {ln}")
            built.append(Arc(str(aid), str(u), str(v), ln))
        if not self.nodes:
            raise ValidationError("network has no nodes")
        self.arcs: tuple[Arc, ...] = tuple(sorted(built, key=lambda a: a.id))
        if not self.arcs:
            raise ValidationError("network has no arcs")
        self._arc_by_id = {a.id: a for a in self.arcs}
        incident: dict[str, list[Arc]] = {n: [] for n in self.nodes}
        for a in self.arcs:
            incident[a.u].append(a)
            if a.v != a.u:
                incident[a.v].append(a)
        self._incident = {n: tuple(v) for n, v in incident.items()}  # in arc id order, as self.arcs
        self._total_length = sum((a.length for a in self.arcs), Fraction(0))
        self._node_distances: dict[str, dict[str, Fraction]] = {}
        # filled by the tree layer (decomposition.py) on first use: D and, per
        # arc id, its length and side weights on the scale D of `_units`
        self._side_weights_memo: tuple[int, dict[str, tuple[int, int, int]]] | None = None
        self._decomposition_memo = None  # the last SubtreeDecomposition built
        if not self._connected():
            raise ValidationError("network is disconnected")

    # -- basic structure ---------------------------------------------------

    def _connected(self) -> bool:
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            n = stack.pop()
            for a in self._incident[n]:
                m = a.other(n)
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return len(seen) == len(self.nodes)

    def arc(self, arc_id: str) -> Arc:
        try:
            return self._arc_by_id[arc_id]
        except KeyError:
            raise ValidationError(f"unknown arc {arc_id!r}") from None

    def incident(self, node: str) -> tuple[Arc, ...]:
        try:
            return self._incident[node]
        except KeyError:
            raise ValidationError(f"unknown node {node!r}") from None

    def degree(self, node: str) -> int:
        return sum(2 if a.u == a.v else 1 for a in self.incident(node))

    @property
    def total_length(self) -> Fraction:
        return self._total_length

    @cached_property
    def is_simple(self) -> bool:
        """No loops and no parallel arcs; computed once, on first use."""
        pairs = set()
        for a in self.arcs:
            if a.u == a.v:
                return False
            key = (min(a.u, a.v), max(a.u, a.v))
            if key in pairs:
                return False
            pairs.add(key)
        return True

    @cached_property
    def _units(self) -> tuple[int, dict[str, int]]:
        """D, the lcm of the arc-length denominators, and each arc's length times D."""
        scale, lengths = _on_scale(1, (a.length for a in self.arcs))
        return scale, {a.id: ln for a, ln in zip(self.arcs, lengths)}

    def is_tree(self) -> bool:
        return len(self.arcs) == len(self.nodes) - 1

    def leaf_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self.degree(n) == 1)

    def is_eulerian(self) -> bool:
        return all(self.degree(n) % 2 == 0 for n in self.nodes)

    def without_arcs(self, arc_ids: Iterable[str]) -> "Network":
        """Network on the same nodes minus the given arcs; must stay connected."""
        drop = set(arc_ids)
        keep = [(a.id, a.u, a.v, a.length) for a in self.arcs if a.id not in drop]
        return Network(self.nodes, keep)

    # -- points ------------------------------------------------------------

    def node_point(self, name: str) -> Point:
        if name not in self._incident:
            raise ValidationError(f"unknown node {name!r}")
        return Point(node=name)

    def point(self, arc_id: str, offset) -> Point:
        """Point at `offset` from the arc's u endpoint, normalized to a node
        when the offset hits either end."""
        a = self.arc(arc_id)
        off = frac(offset)
        if off < 0 or off > a.length:
            raise ValidationError(f"offset {off} outside arc {arc_id!r} of length {a.length}")
        end = a.endpoint_at(off)
        if end is not None:
            return Point(node=end)
        return Point(arc=arc_id, offset=off)

    def contains_point(self, p: Point) -> bool:
        if p.is_node:
            return p.node in self._incident
        return p.arc in self._arc_by_id and 0 < p.offset < self.arc(p.arc).length

    # -- metric ------------------------------------------------------------

    def _dijkstra(self, source: str, skip: str | None = None) -> dict[str, int]:
        """Exact shortest path lengths from `source` on the integer scale D
        of `_units` (each length times D), avoiding the arc `skip`.

        Ties pop in push order (the counter), and a node's distance changes
        only on a strictly shorter path."""
        length = self._units[1]
        dist = {source: 0}
        counter = itertools.count()
        heap = [(0, next(counter), source)]
        while heap:
            d, _, n = heapq.heappop(heap)
            if d > dist[n]:
                continue
            for a in self._incident[n]:
                if a.id == skip:
                    continue
                m = a.other(n)
                nd = d + length[a.id]
                if m not in dist or nd < dist[m]:
                    dist[m] = nd
                    heapq.heappush(heap, (nd, next(counter), m))
        return dist

    def node_distances(self, source: str) -> dict[str, Fraction]:
        """Exact single-source shortest path lengths (Dijkstra), cached."""
        dist = self._node_distances.get(source)
        if dist is None:
            scale = self._units[0]
            dist = self._node_distances[source] = {
                n: Fraction(d, scale) for n, d in self._dijkstra(source).items()}
        return dist

    def _point_node_anchors(self, p: Point) -> list[tuple[str, Fraction]]:
        if p.is_node:
            return [(p.node, Fraction(0))]
        a = self.arc(p.arc)
        return [(a.u, p.offset), (a.v, a.length - p.offset)]

    def distance(self, a: Point, b: Point) -> Fraction:
        """Length of the shortest path between two points of the network."""
        if a == b:
            return Fraction(0)
        best = None
        if not a.is_node and not b.is_node and a.arc == b.arc:
            best = abs(a.offset - b.offset)
        for u, du in self._point_node_anchors(a):
            dist_u = self.node_distances(u)
            for v, dv in self._point_node_anchors(b):
                cand = du + dist_u[v] + dv
                if best is None or cand < best:
                    best = cand
        return best


# -- subnetworks -----------------------------------------------------------


def _on_scale(scale: int, values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """A common integer scale: the lcm of `scale` and the values'
    denominators, and each value times it."""
    values = list(values)
    scale = math.lcm(scale, *{x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _merge_intervals(intervals: Iterable[tuple]):
    merged: list[list] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


class _Piece:
    """One segment of a subnetwork as an edge of its segment graph: its arc,
    its ends on the subnetwork's scale, and its two end vertices."""

    __slots__ = ("arc", "lo", "hi", "u", "v")

    def __init__(self, arc: str, lo: int, hi: int, u, v):
        self.arc, self.lo, self.hi, self.u, self.v = arc, lo, hi, u, v

    def other(self, v):
        return self.v if v == self.u else self.u


class _SegmentGraph:
    """Segments as edges between their end vertices: a node's name, or
    (arc id, offset on `scale`) at a cut point interior to an arc.
    `incident` lists a vertex's pieces in host arc-id order, so `tree_tour`
    walks a subtree in place."""

    def __init__(self, host: Network, scale: int, pieces: list[_Piece]):
        self.host, self.scale, self.pieces = host, scale, pieces
        self._touch: dict = {}
        for piece in self.pieces:
            self._touch.setdefault(piece.u, []).append(piece)
            self._touch.setdefault(piece.v, []).append(piece)

    @classmethod
    def build(cls, host: Network, scale: int, ivs: dict) -> "_SegmentGraph":
        """The graph of merged or cut intervals {arc id: ((lo, hi), ...)} on `scale`."""
        arcs, k, pieces = host._arc_by_id, scale // host._units[0], []
        for aid, pairs in ivs.items():
            a, ln = arcs[aid], host._units[1][aid] * k
            pieces += [_Piece(aid, lo, hi, a.u if lo == 0 else (aid, lo), a.v if hi == ln else (aid, hi))
                       for lo, hi in pairs]
        return cls(host, scale, pieces)

    def incident(self, v) -> Sequence[_Piece]:
        return self._touch.get(v, ())

    def vertex(self, p: Point):
        """The vertex at a host point; one off the scale matches none."""
        if p.node is not None:
            return p.node
        off = p.offset * self.scale
        return p.arc, off.numerator if off.denominator == 1 else off

    def point(self, v) -> Point:
        return Point(node=v) if isinstance(v, str) else Point(arc=v[0], offset=Fraction(v[1], self.scale))

    @staticmethod
    def step(piece: _Piece, v) -> tuple[str, tuple[int, int]]:
        """The traversal of the whole piece leaving from its end vertex v: its
        arc id and its (start, end) offsets on `scale`."""
        return piece.arc, ((piece.lo, piece.hi) if v == piece.u else (piece.hi, piece.lo))

    def parts(self, seeds: Iterable[_Piece], blocked: Container) -> list[tuple[SubNetwork, set]]:
        """Flood from each seed not yet reached, stopping at every vertex in
        `blocked`; per flood, in seed order, the subnetwork it covers and the
        blocked vertices it stopped at."""
        reached: set[_Piece] = set()
        out = []
        for seed in seeds:
            if seed in reached:
                continue
            reached.add(seed)
            comp, frontier, stops = [seed], [seed], set()
            while frontier:
                piece = frontier.pop()
                for end in (piece.u, piece.v):
                    if end in blocked:
                        stops.add(end)
                        continue
                    for q in self.incident(end):
                        if q not in reached:
                            reached.add(q)
                            comp.append(q)
                            frontier.append(q)
            # the pieces come from a checked, merged subnetwork (or its cut at a
            # blocked vertex): taken as they are, merged only where two share an
            # arc (around a cycle); the part's graph is built on them unless two merged
            comp.sort(key=lambda q: (q.arc, q.lo))
            ivs = {q.arc: ((q.lo, q.hi),) for q in comp}
            if len(ivs) < len(comp):
                ivs = {aid: _merge_intervals((q.lo, q.hi) for q in qs)
                       for aid, qs in itertools.groupby(comp, lambda q: q.arc)}
            sub = SubNetwork(self.host, self.scale, ivs)
            if len(comp) == sum(map(len, ivs.values())):
                sub._graph = _SegmentGraph(self.host, self.scale, comp)
            out.append((sub, stops))
        return out


class SubNetwork:
    """Closed union of arc segments (and possibly isolated points) of a host
    network.  Measures, containment and splitting are exact.  `_ivs` maps
    each arc id, in id order, to its merged, disjoint (lo, hi) offsets times
    `_scale`; `segments`, `segment_list()` and `measure` are `Fraction`
    views of them built on first read."""

    def __init__(self, host: Network, scale: int, ivs: dict, points: frozenset = frozenset()):
        self.host, self._scale, self._ivs = host, scale, ivs
        self.points = points  # isolated Points not covered by any segment
        self._total = sum(hi - lo for pairs in ivs.values() for lo, hi in pairs)

    # -- construction --------------------------------------------------

    @classmethod
    def whole(cls, host: Network) -> "SubNetwork":
        scale, length = host._units
        return cls(host, scale, {aid: ((0, ln),) for aid, ln in length.items()})

    @classmethod
    def from_segments(cls, host: Network, segs: Iterable[Segment]) -> "SubNetwork":
        rows = []
        for s in segs:
            a = host.arc(s.arc)
            lo, hi = frac(s.lo), frac(s.hi)
            if not (0 <= lo <= a.length and 0 <= hi <= a.length):
                raise ValidationError(f"segment {s!r} outside arc of length {a.length}")
            if lo >= hi:
                raise ValidationError(f"segment {s!r} is empty or reversed")
            rows.append((s.arc, lo, hi))
        scale, ends = _on_scale(host._units[0], (x for _, lo, hi in rows for x in (lo, hi)))
        by_arc: dict[str, list] = {}
        for (aid, _, _), lo, hi in zip(rows, ends[::2], ends[1::2]):
            by_arc.setdefault(aid, []).append((lo, hi))
        return cls(host, scale, {aid: _merge_intervals(ivs) for aid, ivs in sorted(by_arc.items())})

    @classmethod
    def single_point(cls, host: Network, p: Point) -> "SubNetwork":
        _require_on_network(host, p)
        return cls(host, host._units[0], {}, frozenset([p]))

    # -- queries ---------------------------------------------------------

    @cached_property
    def segments(self) -> dict[str, tuple[tuple[Fraction, Fraction], ...]]:
        """Arc id -> its merged, disjoint (lo, hi) offsets, in arc-id order;
        an arc's ends are 0 and its `length`, with no gcd taken."""
        (D, length), arcs, scale = self.host._units, self.host._arc_by_id, self._scale
        return {aid: tuple((Fraction(lo, scale) if lo else Fraction(0),
                            arcs[aid].length if hi * D == length[aid] * scale else Fraction(hi, scale))
                           for lo, hi in pairs) for aid, pairs in self._ivs.items()}

    @cached_property
    def measure(self) -> Fraction:
        return Fraction(self._total, self._scale)

    def segment_list(self) -> tuple[Segment, ...]:
        return tuple(Segment(aid, lo, hi) for aid, ivs in self.segments.items() for lo, hi in ivs)

    def contains(self, p: Point) -> bool:
        if p in self.points:
            return True
        if p.is_node:
            D, length = self.host._units
            return any((a.u == p.node and lo == 0) or (a.v == p.node and hi * D == length[a.id] * self._scale)
                       for a in self.host.incident(p.node) for lo, hi in self._ivs.get(a.id, ()))
        num, den = p.offset.numerator * self._scale, p.offset.denominator
        return any(lo * den <= num <= hi * den for lo, hi in self._ivs.get(p.arc, ()))

    def covered_nodes(self) -> tuple[str, ...]:
        found = {p.node for p in self.points if p.is_node}
        (D, length), arcs = self.host._units, self.host._arc_by_id
        for aid, ivs in self._ivs.items():
            for lo, hi in ivs:
                if lo == 0:
                    found.add(arcs[aid].u)
                if hi * D == length[aid] * self._scale:
                    found.add(arcs[aid].v)
        return tuple(sorted(found))

    def overlap_measure(self, other: "SubNetwork") -> Fraction:
        scale = math.lcm(self._scale, other._scale)
        k, m, total = scale // self._scale, scale // other._scale, 0
        for aid, ivs in self._ivs.items():
            for olo, ohi in other._ivs.get(aid, ()):
                for lo, hi in ivs:
                    total += max(0, min(hi * k, ohi * m) - max(lo * k, olo * m))
        return Fraction(total, scale)

    def complement(self) -> "SubNetwork":
        """Closure of the host minus this subnetwork."""
        gaps, (D, length) = {}, self.host._units
        for a in self.host.arcs:
            cursor, ln, out = 0, length[a.id] * (self._scale // D), []
            for lo, hi in self._ivs.get(a.id, ()):
                if cursor < lo:
                    out.append((cursor, lo))
                cursor = hi
            if cursor < ln:
                out.append((cursor, ln))
            if out:
                gaps[a.id] = tuple(out)
        if not gaps:
            raise ValidationError("complement has empty interior")
        return SubNetwork(self.host, self._scale, gaps)

    def grid_points(self, step, extra: Iterable[Point] = ()) -> list[Point]:
        """Nodes, segment endpoints and uniform subdivisions at the given step."""
        h = frac(step)
        if h <= 0:
            raise ValidationError("grid step must be positive")
        scale, (h,) = _on_scale(self._scale, (h,))
        k, (D, length), arcs = scale // self._scale, self.host._units, self.host._arc_by_id
        pts = {Point(node=n) for n in self.covered_nodes()}
        pts.update(self.points)
        for aid, ivs in self._ivs.items():
            a, ln = arcs[aid], length[aid] * (scale // D)
            for lo, hi in ivs:
                for off in (*range(lo * k, hi * k, h), hi * k):
                    pts.add(Point(node=a.u) if off == 0 else Point(node=a.v) if off == ln
                            else Point(arc=aid, offset=Fraction(off, scale)))
        pts.update(extra)
        return sorted(pts, key=Point.sort_key)

    # -- connectivity ------------------------------------------------------

    @cached_property
    def _graph(self) -> _SegmentGraph:
        return _SegmentGraph.build(self.host, self._scale, self._ivs)

    def split_at(self, p: Point) -> list["SubNetwork"]:
        """Closed components of the subnetwork minus `p`, each re-closed to
        include `p` on its boundary.  The host must be a tree for the result
        to be a genuine split.  An interior point first cuts its segment in
        two, on a scale widened to hold it; then the flood is the same as at
        a node."""
        if not self.contains(p):
            raise ValidationError(f"{p!r} not in subnetwork")
        graph = self._graph
        if not p.is_node:
            scale, (off,) = _on_scale(self._scale, (p.offset,))
            k = scale // self._scale
            cut = {aid: [(lo * k, hi * k) for lo, hi in ivs] for aid, ivs in self._ivs.items()}
            cut[p.arc] = [q for lo, hi in cut.get(p.arc, ()) for q in (((lo, off), (off, hi)) if lo < off < hi
                                                                       else ((lo, hi),))]
            graph = _SegmentGraph.build(self.host, scale, cut)
        v = graph.vertex(p)
        return [sub for sub, _ in graph.parts(graph.incident(v), (v,))]


def components_after_removal(net: Network, x: Point) -> list[SubNetwork]:
    """Closed components of a tree minus a point; measures sum to the total
    length.  A regular point yields two components, a degree-n node yields n."""
    if not net.is_tree():
        raise ValidationError("network is not a tree")
    _require_on_network(net, x)
    return SubNetwork.whole(net).split_at(x)


# -- walks -------------------------------------------------------------------


def _exact(x) -> bool:
    """Whether `frac` takes x as it is: an int other than a bool, or a Fraction."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_on_network(net: Network, p: Point) -> None:
    """Raise unless `p` is a node or an interior point of an arc of `net`."""
    if not net.contains_point(p):
        raise ValidationError(f"{p!r} not on network")


def _require_same_network(net: Network, other: Network, what: str) -> None:
    """Raise unless `other` is `net`, or has its nodes and arcs (one text parsed twice)."""
    if other is not net and (other.nodes != net.nodes or other.arcs != net.arcs):
        raise ValidationError(f"{what} is on another network")


def _position(node: str | None, arc: str | None, off: int | None, scale: int) -> Point:
    """The point at a node, or at a scaled offset of an arc."""
    return Point(node=node) if node is not None else Point(arc=arc, offset=Fraction(off, scale))


def _reject_step(net: Network, s: Step, where: Point) -> None:
    """Raise the error of a step with an offset that is no int or Fraction,
    after the same checks in the same order as any other step: the arc, a
    zero length, the offsets' range, the start offset's type, the join with
    `where`, and last the end offset's type."""
    a = net.arc(s.arc)
    if s.start == s.end:
        raise ValidationError(f"zero-length step on arc {s.arc!r}")
    for off in (s.start, s.end):
        if off < 0 or off > a.length:
            raise ValidationError(f"step offset {off} outside arc {s.arc!r}")
    lo = frac(s.start)
    node = a.endpoint_at(lo)
    if (where.node != node) if node is not None else (where.arc != a.id or where.offset != lo):
        raise ValidationError(f"step on {s.arc!r} starts at {net.point(s.arc, lo)!r}, "
                              f"walk is at {where!r}")
    frac(s.end)
    raise AssertionError(f"{s!r} has no inexact offset")


@dataclass(frozen=True)
class Step:
    """Single traversal of part of one arc, from offset `start` to `end`."""

    arc: str
    start: Fraction
    end: Fraction

    @property
    def length(self) -> Fraction:
        return abs(self.end - self.start)


class Walk:
    """Unit-speed walk: a start point plus contiguous arc steps.

    A walk with no steps is stationary (a patrol that never moves).  Closed
    walks (end point equal to start point) can be treated as periodic by the
    game engine.  `visit_times` enumerates the exact instants a point is
    occupied; for a stationary walk at the queried point the single time 0 is
    returned and `is_stationary` serves as the dwell marker.

    A walk is its ints, on one integer scale, `_scale`: the lcm of the
    network's D (`Network._units`) and of the step offsets' denominators.
    `_arcs` holds each step's arc id, `_offsets` its (start, end) offsets on
    that scale, `_ticks` the clock at each step boundary and `_stops` the
    node there (None at an interior point).  `duration` and `end_point` are
    the only exact values built up front: `position` bisects `_ticks`, and
    `visit_times` reads `_index`, the walk's `_WalkIndex` (the clock the
    engine scores walks on), built on first read.  `steps` is a view built
    from the ints on first read, with `Fraction` offsets whatever offset
    types the constructor was given.

    One integer kernel, `_walk`, checks and times every walk: the constructor
    puts its steps' offsets on one scale and calls it, and `parse_patrol`,
    `double_traversal`, the Eulerian tours, `e_patrolling`, `patrol_search`
    and `repeated` pass the arc ids and ints they hold.  A checked walk's
    reverse is valid: `reversed` derives its ints.
    """

    def __init__(self, net: Network, start: Point, steps: Sequence[Step] = ()):
        steps = tuple(steps)
        n = next((i for i, s in enumerate(steps) if not (_exact(s.start) and _exact(s.end))), len(steps))
        scale, ints = _on_scale(net._units[0], (x for s in steps[:n] for x in (s.start, s.end)))
        _walk(net, start, [s.arc for s in steps[:n]], list(zip(ints[::2], ints[1::2])), scale, self)
        if n < len(steps):
            _reject_step(net, steps[n], self.end_point)

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        """The steps, built from the ints on first read: one `Step` per
        distinct step and one `Fraction` per distinct offset."""
        scale, made, steps = self._scale, {}, []
        value = {x: Fraction(x, scale) for x in set(itertools.chain.from_iterable(self._offsets))}
        for key in zip(self._arcs, self._offsets):
            s = made.get(key)
            if s is None:
                aid, (lo, hi) = key
                s = made[key] = Step(aid, value[lo], value[hi])
            steps.append(s)
        return tuple(steps)

    @property
    def is_closed(self) -> bool:
        return self.end_point == self.start

    @property
    def is_stationary(self) -> bool:
        return not self._offsets

    def position(self, t) -> Point:
        t = frac(t)
        if t < 0 or t > self.duration:
            raise ValidationError(f"time {t} outside [0, {self.duration}]")
        if self.is_stationary:
            return self.start
        # the first step that ends at or after t
        i = bisect.bisect_left(self._ticks, t * self._scale, 1) - 1
        (lo, hi), dt = self._offsets[i], t * self._scale - self._ticks[i]
        return self.net.point(self._arcs[i], (lo + dt if hi > lo else lo - dt) / self._scale)

    @cached_property
    def _index(self) -> "_WalkIndex":
        """The walk's `_WalkIndex` at its own scale, built on first read."""
        return _WalkIndex(self, 1)

    def visit_times(self, x: Point) -> tuple[Fraction, ...]:
        """Sorted exact times in [0, duration] at which the walk occupies x."""
        _require_on_network(self.net, x)
        if self.is_stationary:
            return (Fraction(0),) if x == self.start else ()
        # an interior offset off the walk's scale is queried as a Fraction on it
        off = None if x.is_node else x.offset * self._scale
        return tuple(Fraction(t, self._scale) for t in sorted(set(self._index.visits(x, off))))

    def reversed(self) -> "Walk":
        """The walk run backwards from its end point; every field equals what
        the constructor would build from the reversed steps."""
        w = Walk.__new__(Walk)
        w.net, w.start, w.duration, w._scale = self.net, self.end_point, self.duration, self._scale
        w._arcs = self._arcs[::-1]
        w._ticks = tuple(self._ticks[-1] - t for t in reversed(self._ticks))
        w._offsets = tuple((hi, lo) for lo, hi in reversed(self._offsets))
        w._stops = self._stops[::-1]
        w.end_point = (_position(self._stops[0], self.start.arc, self._offsets[0][0], self._scale)
                       if self._offsets else self.start)
        return w

    def repeated(self, k: int) -> "Walk":
        if not _is_int(k) or k <= 0:
            raise ValidationError(f"repetitions must be a positive integer, got {k!r}")
        if not self.is_closed:
            raise ValidationError("only closed walks can be repeated")
        return _walk(self.net, self.start, self._arcs * k, self._offsets * k, self._scale)


def _walk(net: Network, start: Point, arcs: Sequence[str], pairs: Sequence[tuple[int, int]], scale: int,
          w: Walk | None = None) -> Walk:
    """The walk kernel: fill `w` (a new `Walk` when None) from its start, the
    arc ids of its steps and their (start, end) offsets times `scale`, a
    multiple of D.  It divides the scale by the gcd of scale / D and the
    ints, as the constructor derives it, then runs the arc, zero-length,
    range and contiguity checks on the ints, with the constructor's messages."""
    by_id, (D, lengths) = net._arc_by_id, net._units
    k = scale // D
    if k > 1 and pairs:
        g = math.gcd(k, *itertools.chain.from_iterable(pairs))
        if g > 1:
            scale, k = scale // g, k // g
            pairs = [(lo // g, hi // g) for lo, hi in pairs]
    w = Walk.__new__(Walk) if w is None else w
    w.net, w.start, w._arcs = net, start, tuple(arcs)
    # the position: a node, or an arc and a scaled offset; an interior start
    # whose offset is no int or Fraction matches no step
    node, arc = start.node, start.arc
    off = start.offset * scale if _exact(start.offset) else None
    clock, ticks, stops = 0, [0], [node]
    try:
        for aid, (lo, hi) in zip(arcs, pairs):
            a, length = by_id[aid], lengths[aid] * k
            if lo == hi:
                raise ValidationError(f"zero-length step on arc {aid!r}")
            if not (0 <= lo <= length and 0 <= hi <= length):
                raise ValidationError(f"step offset {Fraction(hi if 0 <= lo <= length else lo, scale)} "
                                      f"outside arc {aid!r}")
            # the step leaves from the walk's position: the node at the arc end
            # it starts from, or the same interior offset of the same arc
            at = a.u if lo == 0 else a.v if lo == length else None
            if (node != at) if at is not None else (arc != aid or off != lo):
                where = start if len(ticks) == 1 else _position(node, arc, off, scale)
                raise ValidationError(f"step on {aid!r} starts at {net.point(aid, Fraction(lo, scale))!r}, "
                                      f"walk is at {where!r}")
            node = a.u if hi == 0 else a.v if hi == length else None
            arc, off = (None, None) if node is not None else (aid, hi)
            clock += hi - lo if hi > lo else lo - hi
            ticks.append(clock)
            stops.append(node)
    except KeyError:
        net.arc(aid)  # the step names an unknown arc: raise its error
        raise
    w._scale, w._ticks, w._offsets, w._stops = scale, tuple(ticks), tuple(pairs), tuple(stops)
    w.duration, w.end_point = Fraction(clock, scale), _position(node, arc, off, scale) if pairs else start
    return w


class _WalkIndex:
    """A walk's clock on a common integer scale: the walk's own scale times
    `factor`.  `by_arc` lists its steps by arc as (start time, low offset,
    high offset, entry offset) and `by_node` the times it is at each node
    (its start, then its step ends), both in step order; `period` is its
    duration.  The index serves closed, open and stationary walks alike: a
    stationary walk has no steps and period 0."""

    def __init__(self, walk: Walk, factor: int):
        self.by_arc: dict[str, list[tuple[int, int, int, int]]] = {}
        self.by_node: dict[str, list[int]] = {}
        ticks = [t * factor for t in walk._ticks]
        for aid, (o1, o2), t0 in zip(walk._arcs, walk._offsets, ticks):
            o1, o2 = o1 * factor, o2 * factor
            self.by_arc.setdefault(aid, []).append((t0, min(o1, o2), max(o1, o2), o1))
        for t, node in zip(ticks, walk._stops):
            if node is not None:
                self.by_node.setdefault(node, []).append(t)
        self.period = ticks[-1]

    def visits(self, x: Point, off: int | None) -> list[int]:
        """Visit times of x (at scaled offset `off` when interior, None at
        a node) within [0, period], nondecreasing.  A time can be listed twice: at a step
        boundary, or at both 0 and the period of a closed walk."""
        if off is None:
            return self.by_node.get(x.node, [])
        return [t0 + abs(off - o1) for t0, lo, hi, o1 in self.by_arc.get(x.arc, ())
                if lo <= off <= hi]


def walk_through_nodes(net: Network, nodes: Sequence[str], initial: tuple | None = None) -> Walk:
    """Walk visiting the given node sequence; consecutive nodes must share an
    arc (the least arc id is used when several do).  `initial` optionally
    starts the walk at (arc_id, offset) moving toward nodes[0]."""
    steps = []
    if initial is not None:
        arc_id, offset = initial
        a = net.arc(arc_id)
        off = frac(offset)
        if nodes and nodes[0] == a.u:
            steps.append(Step(arc_id, off, Fraction(0)))
        elif nodes and nodes[0] == a.v:
            steps.append(Step(arc_id, off, a.length))
        else:
            raise ValidationError("initial arc does not lead to the first waypoint")
        start = net.point(arc_id, off)
    else:
        if not nodes:
            raise ValidationError("empty node walk")
        start = net.node_point(nodes[0])
    for u, v in zip(nodes, nodes[1:]):
        cands = [a for a in net.incident(u) if a.other(u) == v and a.u != a.v]
        if not cands:
            raise ValidationError(f"no arc between {u!r} and {v!r}")
        a = cands[0]
        steps.append(Step(a.id, Fraction(0), a.length) if u == a.u else Step(a.id, a.length, Fraction(0)))
    return Walk(net, start, steps)


def tree_tour(net, start) -> Iterator[tuple]:
    """Arc crossings (arc, node left, outward) of the depth-first closed tour
    of a tree from `start`.

    `net` is a tree `Network`, or the segment graph of a subtree, whose
    vertices are node names or (arc id, scaled offset) pairs and whose arcs
    are its segments: anything whose `incident(v)` lists arcs with `other(v)`.

    Each arc is crossed outward, and back once everything beyond it has been
    toured, so the return crossings come in post-order.  Children are taken
    in canonical arc-id order.  The walk keeps its own stack, so deep trees
    do not reach the interpreter's recursion limit.
    """
    stack = [(start, None, iter(net.incident(start)))]
    while stack:
        node, came, arcs = stack[-1]
        for a in arcs:
            if a is not came:
                yield a, node, True
                child = a.other(node)
                stack.append((child, a, iter(net.incident(child))))
                break
        else:
            stack.pop()
            if came is not None:
                yield came, node, False


def double_traversal(net: Network, start: str) -> Walk:
    """Depth-first closed tour of a tree traversing every arc exactly twice.

    Children are visited in canonical arc-id order, so the tour is
    deterministic; its duration is twice the total length.
    """
    if not net.is_tree():
        raise ValidationError("network is not a tree")
    return _arc_walk(net, start, ((a, node) for a, node, _ in tree_tour(net, start)))


def _arc_walk(net: Network, start: str, crossings: Iterable[tuple[Arc, str]]) -> Walk:
    """The walk from node `start` along whole arcs, each (arc, node it leaves), on D."""
    (D, length), arcs, pairs = net._units, [], []
    for a, node in crossings:
        arcs.append(a.id)
        pairs.append((0, length[a.id]) if node == a.u else (length[a.id], 0))
    return _walk(net, net.node_point(start), arcs, pairs, D)


def eulerian_tour(net: Network, start: str | None = None) -> Walk:
    """Closed walk traversing every arc exactly once (Hierholzer).

    Requires every node degree to be even; the tour is deterministic given
    the canonical arc order.  A tour mixture tours its host network the same
    way, with one factor's arcs left out (`_tour_from`).
    """
    if not net.is_eulerian():
        raise ValidationError("network is not Eulerian")
    return _tour_from(net, net.nodes[0] if start is None else start, set())


def _tour_from(net: Network, start: str, used: set[str]) -> Walk:
    """Closed walk from node `start` traversing once every arc whose id is
    not in `used` (Hierholzer), adding each to `used`; every node is left by
    its lowest-id arc not yet used."""
    cursor = dict.fromkeys(net.nodes, 0)
    order: list[tuple[Arc, str]] = []
    stack: list[tuple[str, tuple | None]] = [(start, None)]  # (node, (arc, node left) that entered it)
    while stack:
        node, via = stack[-1]
        inc = net.incident(node)
        i = cursor[node]
        while i < len(inc) and inc[i].id in used:
            i += 1
        cursor[node] = i
        if i < len(inc):
            a = inc[i]
            used.add(a.id)
            stack.append((a.other(node), (a, node)))
        else:
            stack.pop()
            if via is not None:
                order.append(via)
    walk = _arc_walk(net, start, reversed(order))
    if len(used) != len(net.arcs) or not walk.is_closed:
        raise ValidationError("network is not Eulerian")  # disconnected arc set
    return walk


# -- standard constructions & validation -------------------------------------


def complete_network(n: int, length=1, prefix: str = "v") -> Network:
    """Complete simple network on n nodes; every arc gets the same length."""
    if n < 2:
        raise ValidationError("complete network needs at least 2 nodes")
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    ln = frac(length)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            arcs.append((f"{names[i]}-{names[j]}", names[i], names[j], ln))
    return Network(names, arcs)


def path_network(length, pieces: int = 1, prefix: str = "p") -> Network:
    """Path of the given total length split into equal-length arcs."""
    total = frac(length)
    names = [f"{prefix}{i}" for i in range(pieces + 1)]
    arcs = [(f"{prefix}a{i}", names[i], names[i + 1], total / pieces) for i in range(pieces)]
    return Network(names, arcs)


def star_network(arm_lengths, prefix: str = "s") -> Network:
    center = f"{prefix}0"
    nodes = [center]
    arcs = []
    for i, ln in enumerate(arm_lengths, start=1):
        leaf = f"{prefix}{i}"
        nodes.append(leaf)
        arcs.append((f"{prefix}a{i}", center, leaf, frac(ln)))
    return Network(nodes, arcs)


def validate_alpha(net: Network, alpha) -> Fraction:
    """Check an attack duration against the network's minimum tour time.

    Trees admit tours of duration twice the length, Eulerian networks of
    exactly the length; other networks are accepted up to twice the length
    with a warning because their minimum tour time is not computed here.
    """
    a = frac(alpha)
    mu = net.total_length
    if a <= 0:
        raise ValidationError("attack duration must be positive")
    if net.is_tree():
        if a > 2 * mu:
            raise ValidationError(f"attack duration {a} exceeds tree tour time {2 * mu}")
    elif net.is_eulerian():
        if a > mu:
            raise ValidationError(f"attack duration {a} exceeds Eulerian tour time {mu}")
    else:
        if a > 2 * mu:
            raise ValidationError(f"attack duration {a} exceeds doubled length {2 * mu}")
        warnings.warn("minimum tour time not computed for this network; accepting duration <= twice the length")
    return a


# -- text format --------------------------------------------------------------


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_rational(text: str, what: str, ln: int | None = None) -> Fraction:
    """Parse a decimal or p/q field of a text format; a malformed value
    raises FormatError naming the field and, when known, the line.

    Plain ASCII integers and p/q ratios (an optional leading minus, no
    spaces) are read with `int`; every other text goes to `Fraction(text)`
    as it is, so the strings accepted and the values are the running
    Python's."""
    num, slash, den = text.partition("/")
    try:
        if _ascii_digits(num[1:] if num[:1] == "-" else num) and (not slash or _ascii_digits(den)):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        where = f"line {ln}: " if ln is not None else ""
        raise FormatError(f"{where}bad {what} {text!r}") from None


def parse_network(text: str) -> Network:
    """Parse the line-oriented network format.

    One declaration per line: ``node <name>`` or ``arc <name> <u> <v> <length>``
    where length is a decimal or p/q rational.  ``#`` starts a comment.
    Nodes may be declared after the arcs that use them.  Errors name the
    offending line (a repeated arc id's second one, or the first arc naming
    an undeclared node), except that a network is disconnected.
    """
    nodes: list[str] = []
    arcs: list[tuple] = []  # (line, arc)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 2:
                raise FormatError(f"line {ln}: expected 'node <name>'")
            nodes.append(parts[1])
        elif parts[0] == "arc":
            if len(parts) != 5:
                raise FormatError(f"line {ln}: expected 'arc <name> <u> <v> <length>'")
            length = parse_rational(parts[4], "length", ln)
            if length <= 0:
                raise FormatError(f"line {ln}: nonpositive length {length}")
            arcs.append((ln, (parts[1], parts[2], parts[3], length)))
        else:
            raise FormatError(f"line {ln}: unknown declaration {parts[0]!r}")
    at = None  # line of the arc `Network` is reading and checking; None before and after

    def read_arcs():
        nonlocal at
        for at, arc in arcs:
            yield arc
        at = None

    try:
        return Network(nodes, read_arcs())
    except ValidationError as e:
        raise FormatError(f"line {at}: {e}" if at is not None else str(e)) from None


def format_network(net: Network) -> str:
    lines = [f"node {n}" for n in net.nodes]
    lines += [f"arc {a.id} {a.u} {a.v} {a.length}" for a in net.arcs]
    return "\n".join(lines) + "\n"
