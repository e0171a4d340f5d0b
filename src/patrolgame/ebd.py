"""Equal branch density distributions on rooted subtrees.

The distribution places mass on the leaf nodes of a rooted subtree so that at
every branch node the hanging branches carry the same mass per unit length.
Splitting the incoming mass of each branch node proportionally to branch
measure realizes exactly that and is the unique such measure, so the
computation is a single top-down pass with exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import ValidationError
from .network import Network, Point, SubNetwork, frac, tree_tour


@dataclass(frozen=True)
class RootedSubtree:
    """A subtree together with a boundary point acting as its root."""

    subtree: SubNetwork
    root: Point

    def __post_init__(self):
        if not self.subtree.contains(self.root):
            raise ValidationError(f"root {self.root!r} is not on the subtree")


@dataclass(frozen=True)
class LeafDistribution:
    """Atomic measure supported on leaf points of a subtree."""

    atoms: tuple[tuple[Point, Fraction], ...]
    total: Fraction

    def mass_on(self, sub: SubNetwork) -> Fraction:
        return sum((m for p, m in self.atoms if sub.contains(p)), Fraction(0))

    def mass_at(self, p: Point) -> Fraction:
        return sum((m for q, m in self.atoms if q == p), Fraction(0))


def density(measure, subset: SubNetwork) -> Fraction:
    """Mass-to-length ratio of a measure over a positive-measure subset.

    `measure` is anything exposing ``mass_on(subnetwork)``; both leaf
    distributions and attack strategies do.
    """
    lam = subset.measure
    if lam <= 0:
        raise ValidationError("density undefined on a zero-measure subset")
    return measure.mass_on(subset) / lam


def _subtree_measures(net: Network, root: str) -> dict[str, Fraction]:
    """Measure hanging above each arc, seen from the given root."""
    beyond = dict.fromkeys(net.nodes, Fraction(0))
    above: dict[str, Fraction] = {}
    for a, child, outward in tree_tour(net, root):
        if not outward:
            above[a.id] = a.length + beyond[child]
            beyond[a.other(child)] += above[a.id]
    return above


def ebd(rooted: RootedSubtree, total_mass) -> LeafDistribution:
    """Leaf measure with equal branch densities at every branch node.

    Mass enters at the root and is divided proportionally to branch measure
    wherever the subtree branches; degree-2 points pass it through unchanged.
    """
    mass = frac(total_mass)
    mat = rooted.subtree.materialize()
    net = mat.net
    root_name = mat.host_point_name(rooted.root)
    if not net.incident(root_name):
        raise ValidationError("degenerate subtree: root only")
    above = _subtree_measures(net, root_name)
    atoms: dict[Point, Fraction] = {}
    stack = [(root_name, None, mass)]
    while stack:
        node, came, m = stack.pop()
        arcs = [a for a in net.incident(node) if a.id != came]
        if not arcs:
            host = mat.node_to_host[node]
            atoms[host] = atoms.get(host, Fraction(0)) + m
            continue
        weight = sum(above[a.id] for a in arcs)
        for a in arcs:
            stack.append((a.other(node), a.id, m * above[a.id] / weight))
    items = tuple(sorted(atoms.items(), key=lambda kv: kv[0].sort_key()))
    dist = LeafDistribution(items, mass)
    assert sum((m for _, m in items), Fraction(0)) == mass
    return dist


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


def branch_stats(rooted: RootedSubtree, dist: LeafDistribution) -> Iterator[tuple[Point, tuple[tuple[Fraction, Fraction], ...]]]:
    """Yield (branch node, ((branch measure, branch mass), ...)) for every
    point of the subtree with at least two hanging branches."""
    mat = rooted.subtree.materialize()
    net = mat.net
    root_name = mat.host_point_name(rooted.root)
    above = _subtree_measures(net, root_name)

    stack = [(root_name, None)]
    while stack:
        node, came = stack.pop()
        arcs = [a for a in net.incident(node) if a.id != came]
        if len(arcs) >= 2:
            stats = []
            for a in arcs:
                sub_nodes = _nodes_above(net, node, a)
                m = sum((dist.mass_at(mat.node_to_host[n]) for n in sub_nodes), Fraction(0))
                stats.append((above[a.id], m))
            yield mat.node_to_host[node], tuple(stats)
        stack.extend((a.other(node), a.id) for a in reversed(arcs))


def _nodes_above(net: Network, node: str, first_arc) -> list[str]:
    seen = {node}
    out = []
    stack = [(first_arc.other(node), first_arc.id)]
    seen.add(first_arc.other(node))
    out.append(first_arc.other(node))
    while stack:
        n, came = stack.pop()
        for a in net.incident(n):
            if a.id == came:
                continue
            m = a.other(n)
            if m not in seen:
                seen.add(m)
                out.append(m)
                stack.append((m, a.id))
    return out


def iter_cut_subtree_stats(rooted: RootedSubtree, dist: LeafDistribution, cut_grid: tuple) -> Iterator[tuple[Fraction, Fraction]]:
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
    mat = rooted.subtree.materialize()
    net = mat.net
    root_name = mat.host_point_name(rooted.root)

    def arc_options(node: str, a) -> list[tuple[Fraction, Fraction]]:
        # choices for the branch entered via arc a from node: drop it, cut it
        # partway, or take it whole plus any combination above.
        opts = [(Fraction(0), Fraction(0))]
        opts += [(g * a.length, Fraction(0)) for g in fractions]
        child = a.other(node)
        for lam, m in node_options(child, a.id):
            opts.append((a.length + lam, m))
        return opts

    def node_options(node: str, came: str | None) -> list[tuple[Fraction, Fraction]]:
        arcs = [a for a in net.incident(node) if a.id != came]
        if not arcs:
            return [(Fraction(0), dist.mass_at(mat.node_to_host[node]))]
        combos = [(Fraction(0), Fraction(0))]
        for a in arcs:
            branch = arc_options(node, a)
            combos = [(l1 + l2, m1 + m2) for l1, m1 in combos for l2, m2 in branch]
        return combos

    for lam, m in node_options(root_name, None):
        if lam > 0:
            yield lam, m
