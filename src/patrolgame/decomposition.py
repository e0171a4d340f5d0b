"""Extremity sets, cores, critical attack durations and subtree decompositions
of tree networks.

For a regular point x of a tree, removing x leaves two components; x belongs
to the extremity set when the smaller component measures less than half the
attack duration.  On each arc that smaller-side measure is piecewise linear
in the offset, so every boundary here is computed as an exact rational; no
sampling occurs outside the test oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .network import Network, Point, Segment, SubNetwork, tree_tour, validate_alpha


def _side_weights(tree: Network) -> dict[str, tuple[Fraction, Fraction]]:
    """For each arc (u, v): measures of the u-side and v-side components of
    the tree with that arc's interior removed; computed once per tree and
    kept on it.

    One tour from an arbitrary root: when the tour crosses an arc back toward
    the root, everything beyond it has been summed, which gives the far side;
    the near side is the rest of the tree.
    """
    if tree._side_weights_memo is not None:
        return tree._side_weights_memo
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
    tree._side_weights_memo = out
    return out


@dataclass(frozen=True)
class ExtremitySet:
    """Closure of the extremity set: closed segments, their total measure,
    and the attack duration they were computed for."""

    alpha: Fraction
    segments: tuple[Segment, ...]
    measure: Fraction

    def as_subnetwork(self, tree: Network) -> SubNetwork:
        return SubNetwork.from_segments(tree, self.segments)


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

    @property
    def lambda_e(self) -> Fraction:
        return sum((c.measure for c in self.components), Fraction(0))

    @property
    def roots(self) -> tuple[Point, ...]:
        return tuple(c.root for c in self.components)


def _require_tree(tree: Network):
    if not tree.is_tree():
        raise ValidationError("network is not a tree")


def extremity_set(tree: Network, alpha) -> ExtremitySet:
    """Closure of the set of regular points whose smaller removal side
    measures less than alpha/2."""
    _require_tree(tree)
    a = validate_alpha(tree, alpha)
    half = a / 2
    weights = _side_weights(tree)
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


def critical_alpha(tree: Network) -> Fraction:
    """Smallest attack duration for which the extremity closure covers the
    whole tree: twice the largest smaller-side measure over all points."""
    _require_tree(tree)
    weights = _side_weights(tree)
    best = Fraction(0)
    for arc in tree.arcs:
        wu, wv = weights[arc.id]
        # min(wu + t, wv + L - t) is concave with slopes +-1; its max over
        # [0, L] sits at the crossing when interior, else at an endpoint.
        cross = (wv + arc.length - wu) / 2
        t = min(max(cross, Fraction(0)), arc.length)
        best = max(best, min(wu + t, wv + arc.length - t))
    return 2 * best


def local_root_of_tree(tree: Network) -> Point:
    """The limit point of the shrinking cores: the unique point minimizing the
    largest component measure after its removal."""
    _require_tree(tree)
    mu = tree.total_length
    weights = _side_weights(tree)
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


def core(tree: Network, alpha) -> SubNetwork:
    """Closure of the complement of the extremity set; collapses to the
    single local root once the extremity set covers the tree."""
    _require_tree(tree)
    a = validate_alpha(tree, alpha)
    if a >= critical_alpha(tree):
        return SubNetwork.single_point(tree, local_root_of_tree(tree))
    ext = extremity_set(tree, a)
    return ext.as_subnetwork(tree).complement()


def _component_boundary(tree: Network, ext_sub: SubNetwork, comp: SubNetwork) -> list[Point]:
    """Points of a maximal extremity component that touch the complement:
    segment endpoints interior to an arc, plus covered nodes with some
    incident direction not locally inside the extremity set."""
    pts = []
    for seg in comp.segment_list():
        arc = tree.arc(seg.arc)
        if seg.lo > 0:
            pts.append(tree.point(seg.arc, seg.lo))
        if seg.hi < arc.length:
            pts.append(tree.point(seg.arc, seg.hi))
    for name in comp.covered_nodes():
        for a in tree.incident(name):
            covered = False
            for lo, hi in ext_sub.segments.get(a.id, ()):
                if (a.u == name and lo == 0) or (a.v == name and hi == a.length):
                    covered = True
                    break
            if not covered:
                pts.append(tree.node_point(name))
                break
    return sorted(set(pts), key=Point.sort_key)


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
        comps = []
        for sub in SubNetwork.whole(tree).split_at(x_star):
            comps.append(TreeComponent(sub, x_star, sub.measure))
        comps.sort(key=lambda c: min((s.arc, s.lo) for s in c.subtree.segment_list()))
        return SubtreeDecomposition(a, SubNetwork.single_point(tree, x_star), tuple(comps))
    ext = extremity_set(tree, a)
    ext_sub = ext.as_subnetwork(tree)
    comps: list[TreeComponent] = []
    for comp in ext_sub.components():
        boundary = _component_boundary(tree, ext_sub, comp)
        if len(boundary) != 1:
            raise AssertionError(f"component boundary is {boundary}, expected a single local root")
        root = boundary[0]
        for sub in comp.split_at(root):
            comps.append(TreeComponent(sub, root, sub.measure))
    comps.sort(key=lambda c: min((s.arc, s.lo) for s in c.subtree.segment_list()))
    return SubtreeDecomposition(a, ext_sub.complement(), tuple(comps))
