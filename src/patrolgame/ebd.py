"""Equal branch density distributions on rooted subtrees.

The distribution places mass on the leaf nodes of a rooted subtree so that at
every branch node the hanging branches carry the same mass per unit length.
Splitting the incoming mass of each branch node proportionally to branch
measure realizes exactly that and is the unique such measure, so the
computation is a single top-down pass with exact integer ratios.
"""

from __future__ import annotations

import math
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
    """One tour of a rooted subtree, in place on the host.  Returns the scale
    of its integer measures (the lcm of D and the piece ends' denominators,
    as a cut point need not lie on D); its points in pre-order as (key,
    point), keyed by the piece the tour enters them by (None at the root);
    per key, the pieces hanging beyond its point as (key, piece measure,
    branch measure) in host arc-id order; and the measure beyond each key,
    complete when the tour crosses back from the point (in post-order)."""
    graph = rooted.subtree._graph
    scale = math.lcm(graph.host._units[0], *(x.denominator for q in graph.pieces for x in (q.lo, q.hi)))
    order, children, beyond, path = [(None, rooted.root)], {}, {}, [None]  # path: the keys down to here
    for piece, p, outward in tree_tour(graph, rooted.root):
        if outward:
            path.append(piece)
            order.append((piece, piece.other(p)))
            continue
        path.pop()
        lo, hi = piece.lo, piece.hi
        length = hi.numerator * (scale // hi.denominator) - lo.numerator * (scale // lo.denominator)
        branch = length + beyond.get(piece, 0)
        children.setdefault(path[-1], []).append((piece, length, branch))
        beyond[path[-1]] = beyond.get(path[-1], 0) + branch
    return scale, order, children, beyond


def ebd(rooted: RootedSubtree, total_mass) -> LeafDistribution:
    """Leaf measure with equal branch densities at every branch node.

    Mass enters at the root and is divided proportionally to branch measure
    wherever the subtree branches; degree-2 points pass it through unchanged.
    It is carried as an integer ratio, and one `Fraction` is built per leaf.
    """
    mass = frac(total_mass)
    scale, order, children, beyond = _branches(rooted)
    if None not in beyond:
        raise ValidationError("degenerate subtree: no segment ends at the root")
    if beyond[None] != rooted.subtree.measure * scale:
        raise ValidationError("subtree is disconnected")
    inflow, atoms = {None: (mass.numerator, mass.denominator)}, []
    for key, p in order:
        num, den = inflow.pop(key)
        if key not in children:
            atoms.append((p, Fraction(num, den)))
        for q, _, branch in children.get(key, ()):
            g = math.gcd(branch, beyond[key])
            inflow[q] = num * (branch // g), den * (beyond[key] // g)
    atoms.sort(key=lambda pm: pm[0].sort_key())
    return LeafDistribution(tuple(atoms), mass)


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
    scale, order, children, _ = _branches(rooted)
    held = dist._by_point()
    below = {}  # mass at and beyond each key's point
    for key, p in reversed(order):
        below[key] = held.get(p, Fraction(0)) + sum((below[q] for q, _, _ in children.get(key, ())), Fraction(0))
    for key, p in order:
        if len(children.get(key, ())) >= 2:
            yield p, tuple((Fraction(branch, scale), below[q]) for q, _, branch in children[key])


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
    scale, order, children, _ = _branches(rooted)
    held = dist._by_point()
    options = {}  # key -> (length, mass) choices for everything beyond its point
    for key, p in reversed(order):
        if key not in children:
            options[key] = [(Fraction(0), held.get(p, Fraction(0)))]
            continue
        combos = [(Fraction(0), Fraction(0))]
        for q, length, _ in children[key]:
            length = Fraction(length, scale)
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
