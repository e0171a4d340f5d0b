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

from .errors import ValidationError
from .network import Point, SubNetwork, frac, tree_tour


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


def density(measure, subset: SubNetwork) -> Fraction:
    """Mass-to-length ratio of a measure over a positive-measure subset.

    `measure` is anything exposing ``mass_on(subnetwork)``; both leaf
    distributions and attack strategies do.
    """
    lam = subset.measure
    if lam <= 0:
        raise ValidationError("density undefined on a zero-measure subset")
    return measure.mass_on(subset) / lam


def ebd(rooted: RootedSubtree, total_mass) -> LeafDistribution:
    """Leaf measure with equal branch densities at every branch node.

    Mass enters at the root and is divided proportionally to branch measure
    wherever the subtree branches; degree-2 points pass it through unchanged.
    One tour of the subtree's segment graph, in place on the host, gives the
    measures on its integer scale; the mass is carried as an integer ratio,
    and one `Fraction` and one `Point` are built per leaf.
    """
    mass = frac(total_mass)
    graph = rooted.subtree._graph
    root = graph.vertex(rooted.root)
    # the vertices in pre-order as (key, vertex), keyed by the piece the tour
    # enters them by (None at the root); per key, the pieces hanging beyond
    # its vertex as (key, branch measure) in host arc-id order; the measure
    # beyond each key, complete when the tour crosses back (in post-order)
    order, children, beyond, path = [(None, root)], {}, {}, [None]  # path: the keys down to here
    for piece, v, outward in tree_tour(graph, root):
        if outward:
            path.append(piece)
            order.append((piece, piece.other(v)))
            continue
        path.pop()
        branch = piece.hi - piece.lo + beyond.get(piece, 0)
        children.setdefault(path[-1], []).append((piece, branch))
        beyond[path[-1]] = beyond.get(path[-1], 0) + branch
    if None not in beyond:
        raise ValidationError("degenerate subtree: no segment ends at the root")
    if beyond[None] != rooted.subtree._total:
        raise ValidationError("subtree is disconnected")
    inflow, leaves = {None: (mass.numerator, mass.denominator)}, []
    for key, v in order:
        num, den = inflow.pop(key)
        if key not in children:
            leaves.append((v, num, den))
        for q, branch in children.get(key, ()):
            g = math.gcd(branch, beyond[key])
            inflow[q] = num * (branch // g), den * (beyond[key] // g)
    # `Point.sort_key` order: nodes by name, then (arc, offset), one scale
    leaves.sort(key=lambda leaf: (True, leaf[0]) if isinstance(leaf[0], tuple) else (False, leaf[0]))
    return LeafDistribution(tuple((graph.point(v), Fraction(num, den)) for v, num, den in leaves), mass)

