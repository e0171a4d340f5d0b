"""Extremity sets, cores, critical attack durations and subtree decompositions
of tree networks.

For a regular point x of a tree, removing x leaves two components; x belongs
to the extremity set when the smaller component measures less than half the
attack duration.  On each arc that smaller-side measure is piecewise linear
in the offset, so every boundary is an exact rational: it is computed on one
integer scale, the lcm of the tree's arc-length denominators widened per call
so that half the attack duration or a crossing point is an integer, and is
returned as a `Fraction`; no sampling occurs outside the test oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ValidationError
from .network import Network, Point, Segment, SubNetwork, _on_scale, tree_tour, validate_alpha


def _side_weights(tree: Network) -> tuple[int, dict[str, tuple[int, int, int]]]:
    """The tree on its integer scale D (`Network._units`): D, and for each
    arc (u, v) its length and the measures of the u-side and v-side
    components of the tree with that arc's interior removed, each times D;
    computed once per tree and kept on it.

    One tour from an arbitrary root: when the tour crosses an arc back toward
    the root, everything beyond it has been summed, which gives the far side;
    the near side is the rest of the tree.
    """
    if tree._side_weights_memo is not None:
        return tree._side_weights_memo
    scale, length = tree._units
    mu = sum(length.values())
    beyond = dict.fromkeys(tree.nodes, 0)  # measure hanging below each node
    out = {}
    for a, child, outward in tree_tour(tree, tree.nodes[0]):
        if outward:
            continue
        ln, far = length[a.id], beyond[child]
        beyond[a.other(child)] += far + ln
        out[a.id] = (ln, far, mu - far - ln) if a.u == child else (ln, mu - far - ln, far)
    tree._side_weights_memo = scale, out
    return scale, out


@dataclass(frozen=True)
class ExtremitySet:
    """Closure of the extremity set: closed segments, their total measure,
    and the attack duration they were computed for."""

    alpha: Fraction
    segments: tuple[Segment, ...]
    measure: Fraction


@dataclass(frozen=True)
class TreeComponent:
    """One closed subtree of the decomposition with its local root."""

    subtree: SubNetwork
    root: Point
    measure: Fraction


@dataclass(frozen=True)
class SubtreeDecomposition:
    alpha: Fraction
    core: SubNetwork
    components: tuple[TreeComponent, ...]

    @cached_property
    def lambda_e(self) -> Fraction:
        scale = math.lcm(*(c.subtree._scale for c in self.components))
        return Fraction(sum(c.subtree._total * (scale // c.subtree._scale) for c in self.components), scale)

    @property
    def roots(self) -> tuple[Point, ...]:
        return tuple(c.root for c in self.components)


def _require_tree(tree: Network):
    if not tree.is_tree():
        raise ValidationError("network is not a tree")


def _extremity(tree: Network, a: Fraction) -> SubNetwork:
    """The extremity closure as a subnetwork, on the tree's scale D widened
    so that a/2 is an integer; every boundary is then an integer."""
    _require_tree(tree)
    D, weights = _side_weights(tree)
    scale, (half,) = _on_scale(D, (a / 2,))
    k, ivs = scale // D, {}
    for arc in tree.arcs:
        ln, wu, wv = weights[arc.id]
        if k > 1:
            ln, wu, wv = ln * k, wu * k, wv * k
        pairs = []
        if wu < half:
            pairs.append((0, min(ln, half - wu)))
        if wv < half:
            pairs.append((max(0, ln - (half - wv)), ln))
        if len(pairs) == 2 and pairs[0][1] >= pairs[1][0]:
            pairs = [(0, ln)]
        if pairs:
            ivs[arc.id] = tuple(pairs)
    return SubNetwork(tree, scale, ivs)


def extremity_set(tree: Network, alpha) -> ExtremitySet:
    """Closure of the set of regular points whose smaller removal side
    measures less than alpha/2."""
    _require_tree(tree)
    a = validate_alpha(tree, alpha)
    ext = _extremity(tree, a)
    return ExtremitySet(a, ext.segment_list(), ext.measure)


def critical_alpha(tree: Network) -> Fraction:
    """Smallest attack duration for which the extremity closure covers the
    whole tree: twice the largest smaller-side measure over all points."""
    _require_tree(tree)
    scale, weights = _side_weights(tree)
    best = 0  # on the doubled scale 2D, where every crossing is an integer
    for ln, wu, wv in weights.values():
        # min(wu + t, wv + L - t) is concave with slopes +-1; its max over
        # [0, L] sits at the crossing when interior, else at an endpoint.
        t = min(max(wv + ln - wu, 0), 2 * ln)
        best = max(best, min(2 * wu + t, 2 * (wv + ln) - t))
    return Fraction(best, scale)


def local_root_of_tree(tree: Network) -> Point:
    """The limit point of the shrinking cores: the unique point minimizing the
    largest component measure after its removal."""
    _require_tree(tree)
    scale, weights = _side_weights(tree)
    # largest component measure after removing each candidate, on scale 2D
    worst = dict.fromkeys(tree.nodes, 0)
    crossings: dict[Point, int] = {}
    for arc in tree.arcs:
        ln, wu, wv = weights[arc.id]
        worst[arc.u] = max(worst[arc.u], 2 * (wv + ln))
        worst[arc.v] = max(worst[arc.v], 2 * (wu + ln))
        # interior minimum of max(wu + t, wv + L - t) is mu/2 at the crossing;
        # endpoints are covered by the node candidates
        t = wv + ln - wu
        if 0 < t < 2 * ln:
            crossings[tree.point(arc.id, Fraction(t, 2 * scale))] = wu + ln + wv  # mu/2 on scale 2D
    candidates = {tree.node_point(n): v for n, v in worst.items()} | crossings
    best = min(candidates.values())
    winners = sorted((p for p, v in candidates.items() if v == best), key=Point.sort_key)
    if len(winners) > 1:
        warnings.warn(f"tied local-root candidates {winners}; choosing the canonical least")
    return winners[0]


def core(tree: Network, alpha) -> SubNetwork:
    """Closure of the complement of the extremity set; collapses to the
    single local root once the extremity set covers the tree."""
    return subtree_decomposition(tree, alpha).core


def _local_roots(tree: Network, ext: SubNetwork) -> set:
    """Local roots of all the extremity closure's components at once, as
    vertices of its segment graph: where it touches its complement, at
    segment ends interior to an arc and at covered nodes that fewer of its
    segments reach than the node has arcs."""
    (D, length), k = tree._units, ext._scale // tree._units[0]
    roots, reach = set(), {}  # reach: covered node -> segments of the closure that reach it
    for aid, ivs in ext._ivs.items():
        arc = tree.arc(aid)
        for lo, hi in ivs:
            if lo > 0:
                roots.add((aid, lo))
            else:
                reach[arc.u] = reach.get(arc.u, 0) + 1
            if hi < length[aid] * k:
                roots.add((aid, hi))
            else:
                reach[arc.v] = reach.get(arc.v, 0) + 1
    roots.update(n for n, k in reach.items() if k < tree.degree(n))
    return roots


def subtree_decomposition(tree: Network, alpha) -> SubtreeDecomposition:
    """Split a tree into its core plus closed subtrees of measure at most
    alpha/2, each hanging at a single local root.

    The tree keeps the last decomposition built, so callers that ask again
    at the same duration get the same object, which they must not modify;
    the tree and the duration are checked on every call."""
    _require_tree(tree)
    a = validate_alpha(tree, alpha)
    dec = tree._decomposition_memo
    if dec is None or dec.alpha != a:
        dec = tree._decomposition_memo = _decompose(tree, a)
    return dec


def _decompose(tree: Network, a: Fraction) -> SubtreeDecomposition:
    if a >= critical_alpha(tree):
        x_star = local_root_of_tree(tree)
        core_sub = SubNetwork.single_point(tree, x_star)
        comps = [TreeComponent(sub, x_star, sub.measure) for sub in SubNetwork.whole(tree).split_at(x_star)]
    else:
        # Each extremity component touches the complement at one local root,
        # so one flood of the closure that stops at every root yields the
        # branches at all roots; a part touching two is a component with two.
        ext = _extremity(tree, a)
        graph, core_sub, comps = ext._graph, ext.complement(), []
        for sub, touched in graph.parts(graph.pieces, _local_roots(tree, ext)):
            if len(touched) != 1:
                raise AssertionError(f"extremity part touches roots {touched}, expected a single local root")
            comps.append(TreeComponent(sub, graph.point(touched.pop()), sub.measure))
    # by each part's first segment: the parts share one scale, so its ints compare
    comps.sort(key=lambda c: next((aid, ivs[0][0]) for aid, ivs in c.subtree._ivs.items()))
    return SubtreeDecomposition(a, core_sub, tuple(comps))
