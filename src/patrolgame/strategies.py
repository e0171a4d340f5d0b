"""Attacker and Patroller strategies and the associated game values.

Attack strategies combine an exact spatial measure (leaf atoms plus
piecewise-uniform parts) with a start-time law; patrol strategies are finite
mixtures of periodic unit-speed closed walks, each played with a uniformly
random phase.  Strategy objects are immutable; sampling always goes through
an explicit random stream supplied by the caller (see the game engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import _extremity, _require_tree, subtree_decomposition
from .ebd import RootedSubtree, ebd
from .errors import FactorizationError, ValidationError
from .factorization import (Factorization, _require_even_complete, round_robin_one_factorization,
                            validate_factorization)
from .network import (Network, Point, SubNetwork, Walk, _require_same_network, _tour_from, _walk, frac, tree_tour,
                      validate_alpha)


@dataclass(frozen=True)
class TemporalLaw:
    """Start-time law: a fixed instant or uniform over [0, horizon]."""

    kind: str
    value: Fraction

    @classmethod
    def fixed(cls, t) -> "TemporalLaw":
        t = frac(t)
        if t < 0:
            raise ValidationError("attack start time must be nonnegative")
        return cls("fixed", t)

    @classmethod
    def uniform(cls, horizon) -> "TemporalLaw":
        h = frac(horizon)
        if h < 0:
            raise ValidationError("horizon must be nonnegative")
        if h == 0:
            return cls.fixed(0)
        return cls("uniform", h)


@dataclass(frozen=True)
class UniformPart:
    """Constant-density spatial mass spread over a subnetwork."""

    region: SubNetwork
    mass: Fraction

    @property
    def density(self) -> Fraction:
        return self.mass / self.region.measure


@dataclass(frozen=True)
class AttackStrategy:
    network: Network
    atoms: tuple[tuple[Point, Fraction], ...]
    uniform_parts: tuple[UniformPart, ...]
    temporal: TemporalLaw

    def __post_init__(self):
        total = self.total_mass
        if total != 1:
            raise ValidationError(f"attack masses sum to {total}, expected 1")
        if any(m < 0 for _, m in self.atoms) or any(p.mass < 0 for p in self.uniform_parts):
            raise ValidationError("negative attack mass")

    @property
    def total_mass(self) -> Fraction:
        return (sum((m for _, m in self.atoms), Fraction(0))
                + sum((p.mass for p in self.uniform_parts), Fraction(0)))

    @property
    def is_atomic(self) -> bool:
        return not self.uniform_parts

    def mass_on(self, sub: SubNetwork) -> Fraction:
        """Exact spatial mass of a subnetwork under this strategy."""
        total = sum((m for p, m in self.atoms if sub.contains(p)), Fraction(0))
        for part in self.uniform_parts:
            total += part.density * part.region.overlap_measure(sub)
        return total

    def discretized(self, step) -> "AttackStrategy":
        """Atomic approximation: each uniform part becomes midpoint atoms on
        cells no wider than `step`.  Exact masses, approximate positions.
        A segment must lie on one of this network's arcs; its cell
        midpoints are then interior points, and its cells share one mass.
        Atoms that coincide merge."""
        h = frac(step)
        if h <= 0:
            raise ValidationError("grid step must be positive")
        atoms: dict[Point, Fraction] = {}
        for p, m in self.atoms:
            atoms[p] = atoms.get(p, Fraction(0)) + m
        for part in self.uniform_parts:
            for seg in part.region.segment_list():
                if seg.hi > (length := self.network.arc(seg.arc).length):
                    raise ValidationError(f"segment {seg.lo}..{seg.hi} outside arc {seg.arc!r} of length {length}")
                cells = max(1, -(seg.measure // -h))  # ceil division
                width = seg.measure / cells
                mass, mid = part.density * width, seg.lo + width / 2
                for _ in range(cells):
                    p = Point(arc=seg.arc, offset=mid)
                    atoms[p] = atoms[p] + mass if p in atoms else mass
                    mid += width
        ordered = tuple(sorted(atoms.items(), key=lambda kv: kv[0].sort_key()))
        return AttackStrategy(self.network, ordered, (), self.temporal)


@dataclass(frozen=True)
class PatrolStrategy:
    """Mixture of periodic closed walks, each with uniform random phase."""

    network: Network
    components: tuple[tuple[Walk, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("patrol strategy needs at least one walk")
        total = sum((s for _, s in self.components), Fraction(0))
        if total != 1:
            raise ValidationError(f"selection probabilities sum to {total}, expected 1")
        for w, s in self.components:
            _require_same_network(self.network, w.net, "patrol walk")
            if s < 0:
                raise ValidationError("negative selection probability")
            if not w.is_closed:
                raise ValidationError("patrol walks must be closed")

    @classmethod
    def single(cls, walk: Walk) -> "PatrolStrategy":
        return cls(walk.net, ((walk, Fraction(1)),))


# -- values -------------------------------------------------------------------


def epsilon_horizon(alpha, epsilon) -> Fraction:
    """Randomizing the start time over [0, 3*alpha/epsilon] costs the
    Attacker at most epsilon of guarantee."""
    a, e = frac(alpha), frac(epsilon)
    if a <= 0:
        raise ValidationError("attack duration must be positive")
    if e <= 0:
        raise ValidationError("epsilon must be positive")
    return 3 * a / e

def game_value_tree(tree: Network, alpha) -> Fraction:
    """Value of the game on a tree: alpha / (mu + lambda(E))."""
    _require_tree(tree)
    a = validate_alpha(tree, alpha)
    return a / (tree.total_length + _extremity(tree, a).measure)


def value_complete(net: Network, factorization: Factorization, alpha) -> Fraction:
    """Value alpha/mu on a complete network, valid while the attack duration
    stays within mu minus the largest factor length; refuses beyond."""
    a = frac(alpha)
    if a <= 0:
        raise ValidationError("attack duration must be positive")
    mu = net.total_length
    bound = mu - factorization.delta
    if a > bound:
        raise ValidationError(
            f"value formula validated only for duration <= {bound}; got {a}")
    return a / mu


# -- attacker strategies -------------------------------------------------------


def uniform_attack(zone, temporal: TemporalLaw) -> AttackStrategy:
    """Attack at a uniformly random point of a connected zone."""
    if isinstance(zone, Network):
        zone = SubNetwork.whole(zone)
    if zone.measure <= 0:
        raise ValidationError("uniform attack needs a positive-measure zone")
    part = UniformPart(zone, Fraction(1))
    return AttackStrategy(zone.host, (), (part,), temporal)


def tree_attack_strategy(tree: Network, alpha, horizon=None, epsilon=None) -> AttackStrategy:
    """Attack mixing a uniform core point with leaf atoms on each extremity
    component, started uniformly in [0, T].

    The core carries its own length share of the total mass; each extremity
    component carries twice its length share, spread over its leaves with
    equal branch density.  The shares sum to one exactly.
    """
    _require_tree(tree)
    a = validate_alpha(tree, alpha)
    if horizon is not None:
        T = frac(horizon)
    else:
        T = epsilon_horizon(a, epsilon if epsilon is not None else Fraction(1, 20))
    if T <= 0:
        raise ValidationError("horizon must be positive")
    dec = subtree_decomposition(tree, a)
    denom = tree.total_length + dec.lambda_e
    atoms: dict[Point, Fraction] = {}
    for comp in dec.components:
        mass = 2 * comp.measure / denom
        dist = ebd(RootedSubtree(comp.subtree, comp.root), mass)
        for p, m in dist.atoms:
            atoms[p] = atoms[p] + m if p in atoms else m
    parts = ()
    core_mass = dec.core.measure / denom
    if core_mass > 0:
        parts = (UniformPart(dec.core, core_mass),)
    ordered = tuple(sorted(atoms.items(), key=lambda kv: kv[0].sort_key()))
    return AttackStrategy(tree, ordered, parts, TemporalLaw.uniform(T))


def k4_tightness_attack(net: Network | None = None, alpha=5) -> AttackStrategy:
    """Uniform attack on the unit complete 4-node network with start time
    uniform on [0, 6 - alpha]; defined for durations in (4, 6]."""
    from .network import complete_network

    a = frac(alpha)
    if not (4 < a <= 6):
        raise ValidationError("tightness attack defined for durations in (4, 6]")
    if net is None:
        net = complete_network(4)
    if len(net.nodes) != 4 or not net.is_simple or len(net.arcs) != 6 or any(
            arc.length != 1 for arc in net.arcs):
        raise ValidationError("network must be the unit complete 4-node network")
    return uniform_attack(net, TemporalLaw.uniform(6 - a))


# -- patroller strategies -------------------------------------------------------


def e_patrolling(tree: Network, alpha) -> PatrolStrategy:
    """Periodic patrol doubling coverage of the extremity components.

    One period double-traverses the core once and tours every extremity
    component exactly twice, giving period 2*(mu + lambda(E)).  The two tours
    of a component are placed so they sit at least an attack duration apart
    around the cycle: components hanging at an interior core point are toured
    once at each of its first two core arrivals, while components at a core
    leaf are toured in two consecutive round-robin passes (their combined
    hanging measure is at least half the attack duration, which separates the
    repeats enough).  Every point is then occupied twice per period with both
    gaps effectively at least the attack duration, so a uniform random phase
    intercepts any fixed attack with probability at least
    alpha / (mu + lambda(E)).  The mixture adds a fair random orientation.
    """
    dec = subtree_decomposition(tree, alpha)
    # the core and the components share the extremity closure's scale, so
    # a root is the same vertex of a component's segment graph and the core's,
    # and each crossing, an (arc id, (start, end)) of `graph.step`, is on it
    blocks: dict = {}
    for c in dec.components:
        graph = c.subtree._graph
        root = graph.vertex(c.root)
        blocks.setdefault(root, []).extend(graph.step(piece, v) for piece, v, _ in tree_tour(graph, root))

    if dec.core.measure == 0:
        (block,) = blocks.values()
        start, crossings = next(iter(dec.core.points)), block * 2
    else:
        graph = dec.core._graph
        nodes = dec.core.covered_nodes()
        start = nodes[0] if nodes else graph.pieces[0].u
        crossings = []
        arrivals: dict = {}

        def arrive(v):
            block = blocks.get(v)
            if block is None:
                return
            k = arrivals[v] = arrivals.get(v, 0) + 1
            if len(graph.incident(v)) >= 2:
                if k <= 2:
                    crossings.extend(block)
            elif k == 1:
                crossings.extend(block)
                crossings.extend(block)

        arrive(start)
        for piece, v, _ in tree_tour(graph, start):
            crossings.append(graph.step(piece, v))
            arrive(piece.other(v))
        start = graph.point(start)
    walk = _walk(tree, start, [aid for aid, _ in crossings], [pair for _, pair in crossings], graph.scale)

    expected = 2 * (tree.total_length + dec.lambda_e)
    assert walk.duration == expected and walk.is_closed
    half = Fraction(1, 2)
    return PatrolStrategy(tree, ((walk, half), (walk.reversed(), half)))


def _tour_mixture(net: Network, factors) -> PatrolStrategy:
    """Per factor, an Eulerian tour of the host network `net` with the factor's
    arcs left out, weighted by its share d / sum(d) of the total duration."""
    tours = [_tour_from(net, net.nodes[0], set(f)) for f in factors]
    total = sum((t.duration for t in tours), Fraction(0))
    return PatrolStrategy(net, tuple((t, t.duration / total) for t in tours))


def complete_patrolling(net: Network, factorization: Factorization | None = None) -> PatrolStrategy:
    """Mixture, over the factors of a 1-factorization, of Eulerian tours of
    `net` with the factor's arcs left out, each weighted by its share of the
    total tour length."""
    if len(net.nodes) < 4:
        raise ValidationError("complete-network patrolling needs an even node count of at least 4")
    _require_even_complete(net)
    if factorization is None:
        factorization = round_robin_one_factorization(net)
    violations = validate_factorization(net, factorization.factors, 1)
    if violations:
        raise FactorizationError(violations)
    return _tour_mixture(net, factorization.factors)


def factor_patrolling(net: Network, factorization: Factorization) -> PatrolStrategy:
    """Generalization to odd-k-regular networks with an m-factorization.

    Requires k odd, m odd, k >= n + m on 2n nodes.  Each tour is an Eulerian
    tour of `net` with one factor's arcs left out.  All violated hypotheses
    are reported together rather than one at a time.
    """
    violations = []
    n2 = len(net.nodes)
    if n2 % 2 != 0 or n2 < 4:
        violations.append(f"node count {n2} is not an even number >= 4")
    if not net.is_simple:
        violations.append("network is not simple")
    degrees = {net.degree(v) for v in net.nodes}
    if len(degrees) != 1:
        violations.append(f"network is not regular (degrees {sorted(degrees)})")
        k = None
    else:
        k = degrees.pop()
        if k % 2 == 0:
            violations.append(f"degree {k} is even")
    m = factorization.regularity
    if m % 2 == 0:
        violations.append(f"factor regularity {m} is even")
    if k is not None and n2 % 2 == 0 and k < n2 // 2 + m:
        violations.append(f"need degree >= n + m = {n2 // 2 + m}, got {k}")
    violations += validate_factorization(net, factorization.factors, m)
    if violations:
        raise FactorizationError(violations)
    # each complement is (k - m)-regular with k - m even, so Eulerian, and
    # k - m >= n, half the node count, so it is connected (Dirac)
    return _tour_mixture(net, factorization.factors)
