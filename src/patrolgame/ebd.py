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

    def _by_point(self) -> dict[Point, Fraction]:
        out: dict[Point, Fraction] = {}
        for p, m in self.atoms:
            out[p] = out.get(p, Fraction(0)) + m
        return out


def density(measure, subset: SubNetwork) -> Fraction:
    """Mass-to-length ratio of a measure over a positive-measure subset.

    `measure` is anything exposing ``mass_on(subnetwork)``; both leaf
    distributions and attack strategies do.
    """
    lam = subset.measure
    if lam <= 0:
        raise ValidationError("density undefined on a zero-measure subset")
    return measure.mass_on(subset) / lam


def _branches(rooted: RootedSubtree):
    """One tour of a rooted subtree, in place on the host.

    Returns its points in pre-order (root first); for each point, the pieces
    hanging beyond it as (next point, piece measure, branch measure) in host
    arc-id order; and the measure hanging beyond each point.  Return
    crossings come in post-order, so a point's measure is complete when the
    tour crosses back from it.
    """
    order = [rooted.root]
    children: dict[Point, list[tuple[Point, Fraction, Fraction]]] = {}
    beyond: dict[Point, Fraction] = {}
    for piece, p, outward in tree_tour(rooted.subtree._graph, rooted.root):
        if outward:
            order.append(piece.other(p))
            continue
        parent = piece.other(p)
        length = piece.measure
        branch = length + beyond[p] if p in beyond else length
        children.setdefault(parent, []).append((p, length, branch))
        beyond[parent] = beyond[parent] + branch if parent in beyond else branch
    return order, children, beyond


def ebd(rooted: RootedSubtree, total_mass) -> LeafDistribution:
    """Leaf measure with equal branch densities at every branch node.

    Mass enters at the root and is divided proportionally to branch measure
    wherever the subtree branches; degree-2 points pass it through unchanged.
    """
    mass = frac(total_mass)
    order, children, beyond = _branches(rooted)
    if rooted.root not in beyond:
        raise ValidationError("degenerate subtree: no segment ends at the root")
    if beyond[rooted.root] != rooted.subtree.measure:
        raise ValidationError("subtree is disconnected")
    inflow = {rooted.root: mass}
    atoms: dict[Point, Fraction] = {}
    for p in order:
        m = inflow.pop(p)
        if p not in children:
            atoms[p] = m
            continue
        for q, _, branch in children[p]:
            inflow[q] = m * branch / beyond[p]
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
    point of the subtree with at least two hanging branches, in pre-order."""
    order, children, _ = _branches(rooted)
    held = dist._by_point()
    below = {}  # mass at and beyond each point
    for p in reversed(order):
        below[p] = held.get(p, Fraction(0)) + sum((below[q] for q, _, _ in children.get(p, ())), Fraction(0))
    for p in order:
        kids = children.get(p, ())
        if len(kids) >= 2:
            yield p, tuple((branch, below[q]) for q, _, branch in kids)


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
    order, children, _ = _branches(rooted)
    held = dist._by_point()
    options = {}  # point -> (length, mass) choices for everything beyond it
    for p in reversed(order):
        if p not in children:
            options[p] = [(Fraction(0), held.get(p, Fraction(0)))]
            continue
        combos = [(Fraction(0), Fraction(0))]
        for q, length, _ in children[p]:
            # the branch entered via this piece: drop it, cut it partway, or
            # take it whole plus any combination beyond
            branch = [(Fraction(0), Fraction(0))]
            branch += [(g * length, Fraction(0)) for g in fractions]
            branch += [(length + lam, m) for lam, m in options.pop(q)]
            combos = [(l1 + l2, m1 + m2) for l1, m1 in combos for l2, m2 in branch]
        options[p] = combos
    for lam, m in options[rooted.root]:
        if lam > 0:
            yield lam, m
