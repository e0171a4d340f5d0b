import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from patrolgame import (
    Factorization,
    FactorizationError,
    Network,
    SizeGuardError,
    ValidationError,
    best_one_factorization,
    complete_network,
    enumerate_one_factorizations,
    girth,
    round_robin_one_factorization,
    validate_factorization,
)
from patrolgame import factorization
from patrolgame.serialize import write_factorization
from oracles import (best_delta_bruteforce, count_one_factorizations_bruteforce, enumerate_reference,
                     girth_bruteforce, heuristic_reference)

F = Fraction


def rational_complete(seed: int, n: int) -> Network:
    """Complete network on n nodes with seeded rational arc lengths."""
    rng = random.Random(seed)
    base = complete_network(n)
    return Network(base.nodes, [(a.id, a.u, a.v, F(rng.randint(1, 16), rng.choice([1, 2, 3, 4])))
                                for a in base.arcs])


def scrambled_complete(seed: int, n: int) -> Network:
    """Complete network on n nodes with shuffled node names, arc ids whose
    string order runs against node-index order, and seeded rational
    lengths."""
    rng = random.Random(seed)
    names = [f"p{x}" for x in rng.sample(range(1, 400), n)]
    pairs = [(u, v) for i, u in enumerate(sorted(names)) for v in sorted(names)[i + 1:]]
    ids = [f"z{x}" for x in rng.sample(range(1, 200), len(pairs))]
    rng.shuffle(names)
    return Network(names, [(aid, *rng.sample(pair, 2), F(rng.randint(1, 16), rng.choice([1, 2, 3, 5])))
                           for aid, pair in zip(ids, pairs)])


def test_validate_ok(unit_k4):
    fact = round_robin_one_factorization(unit_k4)
    assert validate_factorization(unit_k4, fact.factors, 1) == []


def test_validate_shared_arc(unit_k4):
    factors = [frozenset({"v1-v2", "v3-v4"}), frozenset({"v1-v2", "v3-v4"}),
               frozenset({"v1-v4", "v2-v3"})]
    violations = validate_factorization(unit_k4, factors, 1)
    assert any("share arc" in v for v in violations)


def test_validate_not_spanning(unit_k6):
    rr = round_robin_one_factorization(unit_k6)
    broken = [set(f) for f in rr.factors]
    moved = next(iter(broken[0]))
    broken[0].discard(moved)
    violations = validate_factorization(unit_k6, broken, 1)
    assert any("not 1-regular" in v for v in violations)
    assert any("not covered" in v for v in violations)


@pytest.mark.parametrize("n,count,size", [(4, 3, 2), (6, 5, 3), (8, 7, 4)])
def test_round_robin(n, count, size):
    net = complete_network(n)
    fact = round_robin_one_factorization(net)
    assert len(fact.factors) == count
    assert all(len(f) == size for f in fact.factors)
    assert validate_factorization(net, fact.factors, 1) == []


@pytest.mark.parametrize("order", [["v1", "v1", "v2", "v3"], ["v1", "v2", "v3", "v9"], ["v1", "v2"]])
def test_round_robin_rejects_bad_node_order(unit_k4, order):
    with pytest.raises(ValidationError, match="permutation") as info:
        round_robin_one_factorization(unit_k4, node_order=order)
    assert not isinstance(info.value, FactorizationError)


@pytest.mark.parametrize("chosen", [
    # one matching twice: the factors share arcs and leave others uncovered
    [((0, 1), (2, 3)), ((0, 1), (2, 3)), ((0, 2), (1, 3))],
    # node 0 twice, node 3 never: not a perfect matching
    [((0, 1), (0, 2)), ((0, 3), (1, 2)), ((1, 3), (2, 3))],
    # disjoint perfect matchings that leave arcs uncovered
    [((0, 1), (2, 3)), ((0, 2), (1, 3))],
])
def test_enumeration_validates_every_factorization(unit_k4, monkeypatch, chosen):
    # a table whose k-th matching is the k-th injected one, covers the
    # search's k-th arc alone and is the one live matching once k arcs are
    # covered, so the walk's one leaf is the injected list; the cached
    # builder itself is replaced, so no fake table is left in its cache
    k = len(chosen)
    table = ((1 << k) - 1, list(chosen), [1 << i for i in range(k)], {(1 << i) - 1: (i,) for i in range(k)})
    monkeypatch.setattr(factorization, "_matching_table", lambda n: table)
    ids = factorization._arc_ids(unit_k4)
    factors = [frozenset(ids[i][j] for i, j in pairs) for pairs in chosen]
    expected = validate_factorization(unit_k4, factors, 1)
    assert expected
    with pytest.raises(FactorizationError) as info:
        next(enumerate_one_factorizations(unit_k4))
    assert info.value.violations == expected


@pytest.mark.parametrize("n, seeds", [(2, 3), (4, 4), (6, 4), (8, 2)])
def test_enumeration_matches_reference(n, seeds):
    for seed in range(seeds):
        net = scrambled_complete(seed, n)
        by_nodes = sorted(net.arcs, key=lambda a: sorted((a.u, a.v)))  # node-index order
        assert n == 2 or by_nodes != list(net.arcs)  # net.arcs is in id order
        got = [f.factors for f in enumerate_one_factorizations(net)]
        assert got == [f.factors for f in enumerate_reference(net)]
        assert len(got) == {2: 1, 4: 1, 6: 6, 8: 6240}[n]


def test_enumeration_leaves_are_plain_factorizations(unit_k4, unit_k6):
    # leaves skip the dataclass __init__ but are the objects it would build
    for net in (unit_k4, unit_k6, complete_network(8)):
        for fact in enumerate_one_factorizations(net):
            built = Factorization(net, 1, fact.factors)
            assert fact == built and hash(fact) == hash(built) and vars(fact) == vars(built)
            assert type(fact) is Factorization and fact.certified
            with pytest.raises(dataclasses.FrozenInstanceError):
                fact.certified = False


def test_enumeration_k2():
    net = complete_network(2)
    facts = list(enumerate_one_factorizations(net))
    assert [f.factors for f in facts] == [(frozenset({"v1-v2"}),)]
    assert best_one_factorization(net).factors == facts[0].factors


def test_enumeration_counts_small(unit_k4, unit_k6):
    assert sum(1 for _ in enumerate_one_factorizations(unit_k4)) == 1
    facts = list(enumerate_one_factorizations(unit_k6))
    assert len(facts) == 6
    # frozen from the set-cover brute force over explicit perfect matchings
    assert count_one_factorizations_bruteforce(6) == 6
    keys = {f.as_key() for f in facts}
    assert len(keys) == 6  # pairwise distinct as unordered factor sets
    for f in facts:
        assert validate_factorization(unit_k6, f.factors, 1) == []


def test_enumeration_checks_inputs_when_called():
    # raised by the call itself, before any factorization is asked for
    with pytest.raises(SizeGuardError, match="enumeration guarded to <= 8 nodes, got 10"):
        enumerate_one_factorizations(complete_network(10))
    with pytest.raises(ValidationError, match="even node count"):
        enumerate_one_factorizations(complete_network(5))


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        next(enumerate_one_factorizations(complete_network(10)))


def test_enumeration_rejects_odd():
    with pytest.raises(ValidationError):
        next(enumerate_one_factorizations(complete_network(5)))


def test_best_unit_networks(unit_k4, unit_k6):
    assert best_one_factorization(unit_k4).delta == 2
    assert best_one_factorization(unit_k6).delta == 3
    assert best_one_factorization(unit_k4).certified


def test_best_weighted_k4():
    net = Network(
        ["v1", "v2", "v3", "v4"],
        [("v1-v2", "v1", "v2", 9), ("v1-v3", "v1", "v3", 1), ("v1-v4", "v1", "v4", 1),
         ("v2-v3", "v2", "v3", 1), ("v2-v4", "v2", "v4", 1), ("v3-v4", "v3", "v4", 1)])
    best = best_one_factorization(net)
    assert best.delta == 10  # the long arc always pairs with its opposite
    assert sum(1 for _ in enumerate_one_factorizations(net)) == 1


def test_best_heuristic_mode():
    net = complete_network(10)
    with pytest.raises(SizeGuardError):
        best_one_factorization(net)
    fact = best_one_factorization(net, heuristic=True, restarts=4)
    assert not fact.certified
    assert validate_factorization(net, fact.factors, 1) == []
    assert fact.delta == 5  # unit lengths: every perfect matching weighs n


@pytest.mark.parametrize("n", [2, 4, 10, 12, 14])
def test_heuristic_matches_reference(n):
    # the heuristic on mate arrays and integer weights returns what the
    # restart loop over arc-id sets returns: shuffled node names with arc
    # ids sorting against node-index order, rational lengths, and lengths
    # of 1 or 2, whose ties test the cycle-split and restart tie rules
    rng = random.Random(n)
    base = complete_network(n)
    ties = Network(base.nodes, [(a.id, a.u, a.v, rng.choice([1, 2])) for a in base.arcs])
    for k, net in enumerate([scrambled_complete(n, n), scrambled_complete(n + 1, n), rational_complete(n, n), ties]):
        for restarts in (1, 4, 32):
            seed = 3 * k + restarts
            got = best_one_factorization(net, heuristic=True, restarts=restarts, seed=seed)
            want = heuristic_reference(net, restarts=restarts, seed=seed)
            assert (got.factors, got.delta, got.certified) == (want.factors, want.delta, False)


@pytest.mark.parametrize("restarts", [0, -1, True, 2.0, "4"])
def test_best_heuristic_rejects_bad_restarts(restarts):
    with pytest.raises(ValidationError):
        best_one_factorization(complete_network(10), heuristic=True, restarts=restarts)


def test_complement_regular_eulerian(unit_k6):
    fact = round_robin_one_factorization(unit_k6)
    for i in range(len(fact.factors)):
        q = unit_k6.without_arcs(fact.factors[i])
        assert all(q.degree(v) == 4 for v in q.nodes)
        assert q.is_eulerian()


def test_girth_fixtures(unit_k4, unit_k6):
    assert girth(unit_k4) == 3
    assert girth_bruteforce(unit_k4) == 3
    assert girth(unit_k6) == 3
    cyc = Network(["a", "b", "c", "d"],
                  [("e1", "a", "b", 1), ("e2", "b", "c", 2), ("e3", "c", "d", 3), ("e4", "d", "a", 4)])
    assert girth(cyc) == 10
    assert girth_bruteforce(cyc) == 10


def test_girth_acyclic(sample_tree):
    with pytest.raises(ValidationError):
        girth(sample_tree)


def test_girth_multigraph():
    # a triangle b-c-d of length 13/3 hangs off node b, joined to node a by
    # two parallel arcs (a circuit of 5/2) or by one bridge; a loop of 1/3
    # at a is the shortest circuit of all
    triangle = [("bc", "b", "c", 1), ("cd", "c", "d", 1), ("db", "d", "b", F(7, 3))]
    pair = [("ab1", "a", "b", 1), ("ab2", "a", "b", F(3, 2))]
    nodes = ["a", "b", "c", "d"]
    cases = [(pair + triangle + [("aa", "a", "a", F(1, 3))], F(1, 3)),
             (pair + triangle, F(5, 2)),
             ([("ab", "a", "b", 4)] + triangle, F(13, 3))]
    for arcs, want in cases:
        net = Network(nodes, arcs)
        assert girth(net) == want == girth_bruteforce(net)
        # a run that skips an arc leaves the shortest-path cache alone
        assert net.node_distances("a") == Network(nodes, arcs).node_distances("a")
        assert net.node_distances("b") == Network(nodes, arcs).node_distances("b")
    assert Network(nodes, pair + triangle).node_distances("a") == {"a": 0, "b": 1, "c": 2, "d": 3}
    path = Network(["a", "b", "c"], [("ab", "a", "b", 1), ("bc", "b", "c", F(1, 2))])
    with pytest.raises(ValidationError, match="^network is acyclic$"):
        girth(path)


def test_girth_random_matches_bruteforce():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.choice([4, 5])
        lengths = [F(rng.randint(1, 12), rng.choice([1, 2, 3])) for _ in range(n * (n - 1) // 2)]
        net = complete_network(n)
        net = Network(net.nodes, [(a.id, a.u, a.v, l) for a, l in zip(net.arcs, lengths)])
        assert girth(net) == girth_bruteforce(net)


def test_girth_inequality_random_lengths():
    # mu - delta(F) >= n(n-1)/2 * girth for every enumerated 1-factorization
    rng = random.Random(53)
    for n in (4, 6):
        base = complete_network(n)
        for _ in range(20):
            lengths = [F(rng.randint(1, 16), rng.choice([1, 2, 4])) for _ in base.arcs]
            net = Network(base.nodes, [(a.id, a.u, a.v, l) for a, l in zip(base.arcs, lengths)])
            g = girth(net)
            mu = net.total_length
            half_n = n // 2
            for fact in enumerate_one_factorizations(net):
                assert mu - fact.delta >= F(half_n * (half_n - 1), 2) * g


def test_enumeration_order_frozen():
    # SHA-256 of every factorization's file text, in enumeration order,
    # frozen from the set-based enumerator this one replaced
    frozen = {
        6: "4dfd8194815e9011947c71b752e5d85cccdb195da2fe9b9f7d4c7521efa802c2",
        8: "29b9eb693f959fe063a2cb6c5b26ab7cfc01be43863fed7d371ea94b83c58517",
    }
    for n, digest in frozen.items():
        h = hashlib.sha256()
        for fact in enumerate_one_factorizations(complete_network(n)):
            h.update(write_factorization(fact).encode())
        assert h.hexdigest() == digest


def test_best_matches_bruteforce_k6():
    for seed in range(10):
        net = rational_complete(seed, 6)
        delta, optima = best_delta_bruteforce(net)
        best = best_one_factorization(net)
        assert best.certified and best.delta == delta
        assert best.as_key() in optima
        # ties go to the first optimum in enumeration order
        first = next(f for f in enumerate_one_factorizations(net) if f.as_key() in optima)
        assert best.factors == first.factors
        # and in the order of the oracle's own search
        assert best.factors == next(f for f in enumerate_reference(net) if f.as_key() in optima).factors


def test_best_rational_k8_frozen():
    frozen = {
        1: (F(47, 2), "v1-v2 v3-v4 v5-v8 v6-v7 | v1-v3 v2-v5 v4-v7 v6-v8 | v1-v4 v2-v8 v3-v7 v5-v6 | "
                      "v1-v5 v2-v4 v3-v6 v7-v8 | v1-v6 v2-v7 v3-v8 v4-v5 | v1-v7 v2-v6 v3-v5 v4-v8 | "
                      "v1-v8 v2-v3 v4-v6 v5-v7"),
        2: (F(31, 2), "v1-v2 v3-v4 v5-v8 v6-v7 | v1-v3 v2-v5 v4-v6 v7-v8 | v1-v4 v2-v7 v3-v5 v6-v8 | "
                      "v1-v5 v2-v8 v3-v6 v4-v7 | v1-v6 v2-v3 v4-v8 v5-v7 | v1-v7 v2-v4 v3-v8 v5-v6 | "
                      "v1-v8 v2-v6 v3-v7 v4-v5"),
        3: (F(101, 4), "v1-v2 v3-v4 v5-v7 v6-v8 | v1-v3 v2-v5 v4-v8 v6-v7 | v1-v4 v2-v8 v3-v7 v5-v6 | "
                       "v1-v5 v2-v6 v3-v8 v4-v7 | v1-v6 v2-v4 v3-v5 v7-v8 | v1-v7 v2-v3 v4-v6 v5-v8 | "
                       "v1-v8 v2-v7 v3-v6 v4-v5"),
    }
    for seed, (delta, factors) in frozen.items():
        best = best_one_factorization(rational_complete(seed, 8))
        assert best.certified and best.delta == delta
        assert " | ".join(" ".join(sorted(f)) for f in best.factors) == factors


def test_best_matches_enumeration():
    # the branch and bound returns the first minimum of the exhaustive scan,
    # ties included
    rng = random.Random(59)
    ties = [Network(base.nodes, [(a.id, a.u, a.v, rng.choice([1, 2])) for a in base.arcs])
            for base in map(complete_network, (6, 6, 6, 8))]
    for net in [rational_complete(seed, 8) for seed in (11, 12, 13)] + ties:
        # integer lengths (denominators divide 12) keep the scan fast
        weight = {a.id: int(a.length * 12) for a in net.arcs}
        heaviest = lambda f: max(sum(weight[a] for a in x) for x in f.factors)
        first_min = min(enumerate_one_factorizations(net), key=heaviest)
        best = best_one_factorization(net)
        assert best.certified and best.factors == first_min.factors
        assert best.factors == min(enumerate_reference(net), key=heaviest).factors
    for n in (4, 6, 8):
        # every factorization of a unit network ties at n/2
        net = complete_network(n)
        assert best_one_factorization(net).factors == next(enumerate_one_factorizations(net)).factors
