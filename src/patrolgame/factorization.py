"""Factorizations of regular networks into spanning regular factors.

A 1-factorization partitions the arcs of a complete (or regular) network
into perfect matchings.  The round-robin construction handles any even
complete network; exhaustive enumeration is guarded to at most 8 nodes.

Enumeration and the certified least-heaviest-factor search walk one search
tree, an exact cover of the arcs by perfect matchings: each level covers
the lowest uncovered arc with one perfect matching, tried in increasing
node index.  Arcs are bits of one mask, ranked in lexicographic order.
One table per node count (`_matching_table`, built once) holds the perfect
matchings and `live`: for each cover state (covered mask) the search
reaches, the matchings that lead to a complete factorization.  One walker
(`_factorization_walk`) walks that table, so no dead state is entered and
the leaves come out in the search's order.  Enumeration checks each leaf by
one sum of its factors' masks over the network's arcs.  The certified
search is a branch and bound over the same walk on the network's integer
arc lengths (`Network._units`).  It prunes a child when max(heaviest
factor so far, ceil(remaining length / factors left)) is at least the best
found, so of equally heavy optima it returns the first in enumeration
order; the pruning depends on the path, so the walker asks it before each
descent rather than the table holding it.  Beyond the 8-node guard a
seeded heuristic stands in: circle-method restarts rebalanced by
re-splitting the cycles of two factors' union, on the same node indices
and integer lengths, each factor a mate array (`mate[i]` is node i's
partner).  Every factorization a search returns is validated against the
network once.  Girth runs the network's one Dijkstra on those lengths.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import FactorizationError, SizeGuardError, ValidationError
from .network import Network, _is_int

ENUMERATION_NODE_LIMIT = 8


@dataclass(frozen=True)
class Factorization:
    """Arc-disjoint spanning m-regular factors covering every arc."""

    network: Network
    regularity: int
    factors: tuple[frozenset, ...]
    certified: bool = True

    @property
    def delta(self) -> Fraction:
        """Largest factor length."""
        return max(self.factor_length(i) for i in range(len(self.factors)))

    def factor_length(self, i: int) -> Fraction:
        return sum((self.network.arc(a).length for a in self.factors[i]), Fraction(0))


def _leaf(net: Network, factors: tuple[frozenset, ...]) -> Factorization:
    """`Factorization(net, 1, factors)`, not set field by field through `object.__setattr__`."""
    leaf = object.__new__(Factorization)
    leaf.__dict__.update(network=net, regularity=1, factors=factors, certified=True)
    return leaf


def validate_factorization(net: Network, factors, m: int) -> list[str]:
    """Return a list of violation messages; empty means valid.

    Checks each factor is m-regular and spanning, the factors cover every
    arc, and no two factors share an arc.
    """
    if not net.is_simple:
        return ["network is not simple"]
    violations = []
    ends = {arc.id: (arc.u, arc.v) for arc in net.arcs}
    seen: dict[str, int] = {}
    factors = [frozenset(f) for f in factors]
    for i, f in enumerate(factors, start=1):
        deg = dict.fromkeys(net.nodes, 0)
        for aid in f:
            if aid not in ends:
                violations.append(f"factor {i}: unknown arc {aid!r}")
                continue
            if aid in seen:
                violations.append(f"factors {seen[aid]} and {i} share arc {aid!r}")
            else:
                seen[aid] = i
            u, v = ends[aid]
            deg[u] += 1
            deg[v] += 1
        bad = {n: d for n, d in deg.items() if d != m}
        if bad:
            violations.append(f"factor {i}: not {m}-regular spanning (degrees {bad})")
    missing = [a.id for a in net.arcs if a.id not in seen]
    if missing:
        violations.append(f"arcs not covered by any factor: {sorted(missing)}")
    return violations


def _checked(net: Network, factors, m: int, certified=True) -> Factorization:
    violations = validate_factorization(net, factors, m)
    if violations:
        raise FactorizationError(violations)
    ordered = tuple(sorted((frozenset(f) for f in factors), key=lambda f: sorted(f)))
    return Factorization(net, m, ordered, certified)


def _require_even_complete(net: Network):
    n = len(net.nodes)
    if n % 2 != 0:
        raise ValidationError("1-factorization needs an even node count")
    if not net.is_simple or len(net.arcs) != n * (n - 1) // 2:
        raise ValidationError("network is not simple complete")


def _arc_lookup(net: Network) -> dict[tuple[str, str], str]:
    table = {}
    for a in net.arcs:
        table[(a.u, a.v)] = a.id
        table[(a.v, a.u)] = a.id
    return table


def round_robin_one_factorization(net: Network, node_order=None) -> Factorization:
    """Circle-method 1-factorization of a complete network on 2n nodes.

    `node_order`, a permutation of the nodes, puts its first node at the
    circle's centre and the others around it in order."""
    _require_even_complete(net)
    nodes = list(node_order) if node_order is not None else list(net.nodes)
    if len(nodes) != len(net.nodes) or set(nodes) != set(net.nodes):
        raise ValidationError(f"node_order must be a permutation of the network's nodes, got {nodes!r}")
    table = _arc_lookup(net)
    return _checked(net, [frozenset(table[p] for p in pairs) for pairs in _circle_rounds(nodes)], 1)


def _circle_rounds(order: list) -> list[list[tuple]]:
    """The circle method's rounds as lists of pairs: `order[0]` at the centre, the rest around it."""
    pivot, others = order[0], order[1:]
    m = len(others)
    return [[(pivot, others[r])] + [(others[(r + i) % m], others[(r - i) % m]) for i in range(1, len(order) // 2)]
            for r in range(m)]


def _matchings(remaining: int, acc: list, out: list):
    """Append to `out` every perfect matching of the complete graph on the
    node mask `remaining`, extending the pairs in `acc`.  The lowest
    remaining node pairs with each partner in increasing index."""
    if not remaining:
        out.append(tuple(acc))
        return
    low = remaining & -remaining
    u = low.bit_length() - 1
    rest = remaining ^ low
    cands = rest
    while cands:
        bit = cands & -cands
        cands ^= bit
        acc.append((u, bit.bit_length() - 1))
        _matchings(rest ^ bit, acc, out)
        acc.pop()


@functools.cache
def _matching_table(n: int) -> tuple[int, list[tuple], list[int], dict[int, tuple[int, ...]]]:
    """The search tree over the 1-factorizations of the complete network on
    node indices 0..n-1, as both searches walk it: (full, matchings, masks,
    live).  Built once per node count; both callers guard n to at most
    ENUMERATION_NODE_LIMIT.

    Arc (i, j), i < j, is bit k of an arc mask, k its rank in lexicographic
    order, and `full` has every arc's bit, so the lowest zero bit of a
    `covered` mask is the lowest uncovered arc.  `matchings` lists every
    perfect matching as its index pairs, in the order `_matchings` builds
    them, which is lexicographic, and `masks` their arc masks.  A level of
    the search covers the lowest uncovered arc with a matching through it
    that misses `covered`; filtering a lexicographic list keeps it
    lexicographic, so the order does not depend on how the candidates are
    found.  `live[covered]` lists, for each cover state the search reaches
    and in that order, the index of every such matching that has a complete
    factorization below it.
    """
    bit = {}
    for i in range(n):
        for j in range(i + 1, n):
            bit[i, j] = 1 << len(bit)
    full = (1 << len(bit)) - 1
    matchings: list[tuple] = []
    _matchings((1 << n) - 1, [], matchings)
    masks = [sum(bit[p] for p in pairs) for pairs in matchings]
    through: list[list[int]] = [[] for _ in bit]
    for index, pairs in enumerate(matchings):
        for p in pairs:
            through[bit[p].bit_length() - 1].append(index)
    live: dict[int, tuple[int, ...]] = {}

    def fill(covered) -> bool:
        # fills live[covered]; true when `covered` can be completed
        if covered == full:
            return True
        below = live.get(covered)
        if below is None:
            low = ~covered & (covered + 1)
            below = live[covered] = tuple(k for k in through[low.bit_length() - 1]
                                          if not masks[k] & covered and fill(covered | masks[k]))
        return bool(below)

    fill(0)
    return full, matchings, masks, live


def _factorization_walk(n: int, admit=None):
    """Depth-first walk over `_matching_table(n)` from the empty cover.

    Yields the list of chosen matching indices at every complete
    factorization, in search order; the list is the walk's own and changes
    as it moves on.  `admit(depth, pairs)`, when given, is asked before the
    walk descends into a child: `pairs` would become factor `depth`, and a
    false answer prunes the child's whole subtree.  Only live children are
    met, and a dead one holds no leaf, so skipping it changes neither the
    leaves nor their order.
    """
    full, matchings, masks, live = _matching_table(n)
    chosen: list[int] = []
    stack = [(0, iter(live[0]))]  # (covered, its live matchings left) per level
    while stack:
        state, below = stack[-1]
        for index in below:
            if admit is not None and not admit(len(chosen), matchings[index]):
                continue
            covered = state | masks[index]
            chosen.append(index)
            if covered != full:
                stack.append((covered, iter(live[covered])))
                break
            yield chosen
            chosen.pop()
        else:
            stack.pop()
            if chosen:
                chosen.pop()


def _arc_ids(net: Network) -> list[list]:
    """ids[i][j]: id of the arc between the i-th and j-th nodes (None on the diagonal)."""
    table = _arc_lookup(net)
    return [[table.get((a, b)) for b in net.nodes] for a in net.nodes]


def enumerate_one_factorizations(net: Network):
    """Iterator over every 1-factorization of a small complete network,
    each exactly once; a network it cannot enumerate raises at the call.

    Factorizations are distinct as unordered sets of factors; the search
    branches on the lowest uncovered arc so no set is produced twice.  The
    leaves come from `_factorization_walk`, which walks the node count's
    one table of live cover states, so no dead state is entered.  Each
    matching's arc set, lowest arc id and mask over the network's arcs are
    built once per call.  The walk meets a leaf's factors by lowest arc in
    node-index order, which is `_checked`'s order when the matchings'
    lowest arc ids rise in table order; else the leaf is sorted by lowest
    arc id (its factors are disjoint).  `_leaf` builds the leaf.

    Every factorization is checked before it is yielded.  The matchings are
    checked once to be perfect, and the masks of a leaf's n - 1 matchings
    must sum to the mask of every arc: a sum that equals it had no carries,
    so the factors are pairwise arc-disjoint and cover every arc.  A
    violation raises `FactorizationError` with `validate_factorization`'s
    messages.
    """
    _require_even_complete(net)
    n = len(net.nodes)
    if n > ENUMERATION_NODE_LIMIT:
        raise SizeGuardError(f"enumeration guarded to <= {ENUMERATION_NODE_LIMIT} nodes, got {n}")
    ids = _arc_ids(net)
    matchings = _matching_table(n)[1]
    arcs = [frozenset(ids[i][j] for i, j in pairs) for pairs in matchings]
    low = [min(f) for f in arcs]
    ordered = low == sorted(low)
    # check[k]: matching k's mask over the network's arcs, or a bit above
    # them all when its pairs are not a perfect matching
    bit = {a.id: 1 << k for k, a in enumerate(net.arcs)}
    every = (1 << len(net.arcs)) - 1
    check = [sum(bit[a] for a in arcs[k]) if sorted(x for pair in pairs for x in pair) == list(range(n))
             else every + 1 for k, pairs in enumerate(matchings)]

    def factorizations():
        for chosen in _factorization_walk(n):
            if sum(map(check.__getitem__, chosen)) != every:
                raise FactorizationError(validate_factorization(net, [arcs[k] for k in chosen], 1))
            yield _leaf(net, tuple(map(arcs.__getitem__, chosen if ordered else sorted(chosen, key=low.__getitem__))))

    return factorizations()


def best_one_factorization(net: Network, heuristic: bool = False, restarts: int = 32, seed: int = 0) -> Factorization:
    """1-factorization minimizing the largest factor length.

    Certified up to the enumeration guard: a branch and bound on integer
    arc lengths over the enumeration's own walk of live cover states.  A
    child is pruned when max(heaviest factor so far, ceil(remaining length
    / factors left)) is at least the incumbent's heaviest factor; pruning
    on ties means the first minimum in enumeration order is the one
    returned, as an exhaustive scan keeping the first minimum would.

    With `heuristic` the guard is lifted and a seeded round-robin restart
    search (`restarts` of them, a positive int) with pairwise
    cycle-rebalancing swaps returns an uncertified result.  Its factors are
    mate arrays on node indices, weighed in integer lengths; only the best
    restart's become arc-id sets, validated once by `_checked`.
    """
    _require_even_complete(net)
    if len(net.nodes) <= ENUMERATION_NODE_LIMIT and not heuristic:
        return _checked(net, _branch_and_bound(net), 1)
    if not heuristic:
        raise SizeGuardError(
            f"exhaustive search guarded to <= {ENUMERATION_NODE_LIMIT} nodes; pass heuristic=True")
    if not _is_int(restarts) or restarts <= 0:
        raise ValidationError(f"restarts must be a positive integer, got {restarts!r}")
    n = len(net.nodes)
    ids = _arc_ids(net)
    w = [[net._units[1].get(a, 0) for a in row] for row in ids]
    rng = random.Random(seed)
    order = list(range(n))
    best, best_key = None, None
    for _ in range(restarts):
        rng.shuffle(order)
        factors = [[0] * n for _ in range(n - 1)]
        for mate, pairs in zip(factors, _circle_rounds(order)):
            for i, j in pairs:
                mate[i], mate[j] = j, i
        factors.sort(key=lambda mate: min(map(list.__getitem__, ids, mate)))  # lowest arc id: `_checked`'s order
        key = _rebalance(factors, w, ids)
        if best is None or key < best_key:
            best, best_key = factors, key
    return _checked(net, [frozenset(ids[i][j] for i, j in enumerate(mate) if i < j) for mate in best], 1,
                    certified=False)


def _branch_and_bound(net: Network) -> list[frozenset]:
    """Factors of the first 1-factorization, in enumeration order, whose
    heaviest factor is least."""
    n = len(net.nodes)
    ids = _arc_ids(net)
    length = net._units[1]
    w = [[length.get(a, 0) for a in row] for row in ids]
    # heaviest[d], remaining[d]: heaviest factor and uncovered length once
    # d factors are chosen
    heaviest = [0] * n
    remaining = [sum(length.values())] + [0] * (n - 1)
    best, incumbent = None, None

    def admit(depth, pairs):
        weight = sum(w[i][j] for i, j in pairs)
        top = max(heaviest[depth], weight)
        rest = remaining[depth] - weight
        left = n - 2 - depth
        bound = max(top, -(-rest // left)) if left else top
        if incumbent is not None and bound >= incumbent:
            return False
        heaviest[depth + 1], remaining[depth + 1] = top, rest
        return True

    matchings = _matching_table(n)[1]
    for chosen in _factorization_walk(n, admit):
        # admitted leaves strictly beat the incumbent
        best = [frozenset(ids[i][j] for i, j in matchings[k]) for k in chosen]
        incumbent = heaviest[n - 1]
    return best


def _rebalance(factors: list[list[int]], w: list[list[int]], ids: list[list]) -> int:
    """Local improvement in place on mate arrays: re-split the heaviest
    factor with the first other factor whose union's cycles split more
    evenly, until none does.  Returns the heaviest factor's integer weight."""
    lengths = [sum(map(list.__getitem__, w, mate)) // 2 for mate in factors]  # each arc from both ends
    while True:
        worst = lengths.index(max(lengths))
        for j, other in enumerate(factors):
            if j != worst and (la := _best_cycle_split(factors[worst], other, lengths[worst], w, ids)) is not None:
                lengths[worst], lengths[j] = la, lengths[worst] + lengths[j] - la
                break
        else:
            return lengths[worst]


def _best_cycle_split(fa: list[int], fb: list[int], heavier: int, w: list[list[int]], ids: list[list]):
    """Re-split two disjoint perfect matchings, given as mate arrays, in
    place when the best split's larger weight is below `heavier`, theirs,
    and return `fa`'s new weight; else return None.  Their union is even
    cycles, ordered by lowest arc id; a cycle's "evens" are the arcs of the
    factor holding that arc, bit k of a mask gives `fa` cycle k's odds
    instead, and the first mask of the least larger weight wins."""
    x, size = fb[fa[0]], 2
    while x:
        x, size = fb[fa[x]], size + 2
    if size == len(fa):
        return None  # one cycle, whose two splits are the two factors
    seen = [False] * len(fa)
    cycles = []  # (lowest arc id, evens weight, odds weight, whether fa holds the evens, nodes)
    for start in range(len(fa)):
        if seen[start]:
            continue
        x, nodes, in_a, in_b = start, [], 0, 0
        low_a, low_b = ids[x][fa[x]], ids[x][fb[x]]
        while not seen[x]:
            y, z = fa[x], fb[fa[x]]
            seen[x] = seen[y] = True
            nodes += (x, y)
            in_a, low_a = in_a + w[x][y], min(low_a, ids[x][y])
            in_b, low_b = in_b + w[y][z], min(low_b, ids[y][z])
            x = z
        cycles.append((low_a, in_a, in_b, True, nodes) if low_a < low_b else (low_b, in_b, in_a, False, nodes))
    cycles.sort()
    total = sum(c[1] + c[2] for c in cycles)
    las = [sum(c[2] if mask >> k & 1 else c[1] for k, c in enumerate(cycles)) for mask in range(1 << len(cycles))]
    mask = min(range(len(las)), key=lambda m: max(las[m], total - las[m]))
    if max(las[mask], total - las[mask]) >= heavier:
        return None
    for k, (*_, evens_in_a, nodes) in enumerate(cycles):
        if bool(mask >> k & 1) == evens_in_a:  # fa takes fb's arcs on this cycle
            for x in nodes:
                fa[x], fb[x] = fb[x], fa[x]
    return las[mask]


def girth(net: Network) -> Fraction:
    """Minimum total length over circuits; errors on acyclic networks."""
    scale, length = net._units
    best = None
    for a in net.arcs:
        # a circuit through the arc closes it with a shortest path avoiding
        # it: the empty path for a loop, none across a bridge
        d = net._dijkstra(a.u, skip=a.id).get(a.v)
        if d is not None and (best is None or length[a.id] + d < best):
            best = length[a.id] + d
    if best is None:
        raise ValidationError("network is acyclic")
    return Fraction(best, scale)
