import hashlib
import random
import warnings
from fractions import Fraction

import pytest

from patrolgame import (
    AttackStrategy,
    FactorizationError,
    Factorization,
    Network,
    RootedSubtree,
    Segment,
    SubNetwork,
    TemporalLaw,
    UniformPart,
    ValidationError,
    best_one_factorization,
    complete_network,
    complete_patrolling,
    critical_alpha,
    double_traversal,
    e_patrolling,
    epsilon_horizon,
    factor_patrolling,
    game_value_tree,
    k4_tightness_attack,
    local_root_of_tree,
    path_network,
    round_robin_one_factorization,
    subtree_decomposition,
    tree_attack_strategy,
    uniform_attack,
    value_complete,
)
from patrolgame.ebd import ebd as make_ebd
from patrolgame import serialize as ser
from conftest import make_sample_tree, random_alpha, random_tree
from oracles import arc_traversal_counts, discretized_reference, iter_cut_subtree_stats

F = Fraction


def test_game_value_fixtures(sample_tree):
    assert game_value_tree(sample_tree, 2) == F(2, 15)
    assert game_value_tree(sample_tree, 4) == F(4, 17)
    assert game_value_tree(sample_tree, 6) == F(6, 18)
    assert game_value_tree(sample_tree, 8) == F(8, 20)


def test_epsilon_horizon():
    assert epsilon_horizon(4, F(1, 20)) == 240
    assert epsilon_horizon(F(7, 3), 3) == F(7, 3)
    assert epsilon_horizon(6, F(1, 10)) == 180
    with pytest.raises(ValidationError):
        epsilon_horizon(4, 0)
    for alpha in (0, -1, F(-1, 2)):
        with pytest.raises(ValidationError, match="^attack duration must be positive$"):
            epsilon_horizon(alpha, 1)


def expected_masses(alpha):
    if alpha == 2:
        return {"node:L5": F(2, 15), "node:L62": F(2, 15), "node:L22": F(2, 15),
                "node:L3": F(2, 15), "node:L4": F(2, 15)}, F(5, 15)
    if alpha == 4:
        return {"node:L5": F(2, 17), "node:L62": F(4, 17), "node:L22": F(4, 17),
                "node:L3": F(2, 17), "node:L4": F(2, 17)}, F(3, 17)
    if alpha == 6:
        return {"node:L5": F(2, 18), "node:L62": F(4, 18), "node:L22": F(4, 18),
                "node:L3": F(3, 18), "node:L4": F(3, 18)}, F(2, 18)
    return {"node:L5": F(8, 60), "node:L62": F(16, 60), "node:L22": F(4, 20),
            "node:L3": F(4, 20), "node:L4": F(4, 20)}, F(0)


@pytest.mark.parametrize("alpha", [2, 4, 6, 8])
def test_tree_attack_masses(sample_tree, alpha):
    att = tree_attack_strategy(sample_tree, alpha)
    atoms, core_mass = expected_masses(alpha)
    assert {str(p): m for p, m in att.atoms} == atoms
    assert sum(p.mass for p in att.uniform_parts) == core_mass
    assert att.total_mass == 1
    assert att.temporal.kind == "uniform" and att.temporal.value == 60 * alpha


def test_tree_attack_horizon_options(sample_tree):
    assert tree_attack_strategy(sample_tree, 4, horizon=99).temporal.value == 99
    assert tree_attack_strategy(sample_tree, 4, epsilon=F(1, 10)).temporal.value == 120
    with pytest.raises(ValidationError):
        tree_attack_strategy(sample_tree, 30)


def test_tree_attack_mass_identity_random():
    rng = random.Random(41)
    done = 0
    while done < 200:
        tree = random_tree(rng)
        alpha = random_alpha(rng, tree)
        if alpha > 2 * tree.total_length:
            continue
        att = tree_attack_strategy(tree, alpha)
        assert att.total_mass == 1
        done += 1


def test_tree_attack_density_bound(sample_tree):
    # mass-to-length of any grid-cut subtree hanging at a component root
    # never exceeds 2 / (mu + lambda(E))
    for alpha in (2, 4, 6, 8):
        dec = subtree_decomposition(sample_tree, alpha)
        bound = F(2, 10 + dec.lambda_e)
        for comp in dec.components:
            rooted = RootedSubtree(comp.subtree, comp.root)
            dist = make_ebd(rooted, 2 * comp.measure / (10 + dec.lambda_e))
            for lam, m in iter_cut_subtree_stats(rooted, dist, (F(1, 2),)):
                assert m <= bound * lam


def test_uniform_attack(sample_tree, unit_k4):
    att = uniform_attack(sample_tree, TemporalLaw.fixed(0))
    assert att.uniform_parts[0].density == F(1, 10)
    att2 = k4_tightness_attack(unit_k4, alpha=5)
    assert att2.temporal == TemporalLaw.uniform(1)
    assert att2.uniform_parts[0].density == F(1, 6)
    arc = path_network(1)
    att3 = uniform_attack(arc, TemporalLaw.uniform(5))
    assert att3.uniform_parts[0].density == 1
    with pytest.raises(ValidationError):
        uniform_attack(SubNetwork.single_point(sample_tree, sample_tree.node_point("B")),
                       TemporalLaw.fixed(0))


def test_k4_tightness_attack_bounds(unit_k4):
    assert k4_tightness_attack(unit_k4, alpha=6).temporal == TemporalLaw.fixed(0)
    assert k4_tightness_attack(unit_k4, alpha=F(9, 2)).temporal == TemporalLaw.uniform(F(3, 2))
    with pytest.raises(ValidationError):
        k4_tightness_attack(unit_k4, alpha=4)
    with pytest.raises(ValidationError):
        k4_tightness_attack(unit_k4, alpha=7)
    with pytest.raises(ValidationError):
        k4_tightness_attack(complete_network(4, length=2), alpha=5)


@pytest.mark.parametrize("alpha,period", [(2, 30), (4, 34), (6, 36), (8, 40)])
def test_e_patrolling_period(sample_tree, alpha, period):
    pat = e_patrolling(sample_tree, alpha)
    assert len(pat.components) == 2
    for walk, s in pat.components:
        assert s == F(1, 2)
        assert walk.is_closed and walk.duration == period


def test_e_patrolling_path():
    path = path_network(3)
    pat = e_patrolling(path, 3)  # at the critical duration, everything is extremity
    assert pat.components[0][0].duration == 4 * 3


def test_e_patrolling_coverage(sample_tree):
    # points inside the core are passed twice per period, extremity points
    # four times (leaves twice, as tour turning points)
    pat = e_patrolling(sample_tree, 4)
    walk = pat.components[0][0]
    dec = subtree_decomposition(sample_tree, 4)
    core_pt = sample_tree.point("aAB", F(1, 2))
    assert len(walk.visit_times(core_pt)) == 2
    ext_pt = sample_tree.point("aL62", F(3, 2))
    assert len(walk.visit_times(ext_pt)) == 4
    for leaf in sample_tree.leaf_nodes():
        assert len(walk.visit_times(sample_tree.node_point(leaf))) == 2
    assert dec.core.contains(core_pt)


def test_e_patrolling_leaf_visits_alpha2(sample_tree):
    pat = e_patrolling(sample_tree, 2)
    walk = pat.components[0][0]
    assert walk.duration == 30
    for leaf in sample_tree.leaf_nodes():
        assert len(walk.visit_times(sample_tree.node_point(leaf))) == 2


def test_tree_constructions_check_the_tree_first(unit_k4):
    # on K4, which is neither a tree nor Eulerian, the duration's check
    # would warn; the tree check comes first and raises without a warning
    calls = (e_patrolling, tree_attack_strategy, game_value_tree)
    for make in calls:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError) as err:
                make(unit_k4, 1)
        assert str(err.value) == "network is not a tree" and seen == [], make.__name__


def test_complete_patrolling_unit_k4(unit_k4):
    pat = complete_patrolling(unit_k4)
    assert len(pat.components) == 3
    for walk, s in pat.components:
        assert s == F(1, 3)
        assert walk.duration == 4 and walk.is_closed


def test_complete_patrolling_weighted_k4():
    net = complete_network(4)
    arcs = [(a.id, a.u, a.v, 3 if a.id == "v1-v2" else F(3, 2) if a.id == "v3-v4" else 1)
            for a in net.arcs]
    # factor {v1-v2, v3-v4} has length 4.5; mu = 8.5
    weighted = type(net)(net.nodes, arcs)
    fact = round_robin_one_factorization(weighted)
    pat = complete_patrolling(weighted, fact)
    mu = weighted.total_length
    by_factor = {fs: s for (w, s), fs in zip(pat.components, fact.factors)}
    heavy = next(fs for fs in fact.factors if "v1-v2" in fs)
    assert by_factor[heavy] == (mu - F(9, 2)) / (2 * mu)
    assert sum(s for _, s in pat.components) == 1


def test_complete_patrolling_k6(unit_k6):
    pat = complete_patrolling(unit_k6)
    assert len(pat.components) == 5
    assert all(s == F(1, 5) for _, s in pat.components)
    assert all(w.duration == 12 for w, _ in pat.components)


def test_complete_patrolling_coverage(unit_k6):
    # nodes lie on every tour; a regular point lies on all but the tour
    # whose removed factor owns its arc
    pat = complete_patrolling(unit_k6)
    x = unit_k6.point("v1-v2", F(1, 3))
    on = sum(1 for w, _ in pat.components if w.visit_times(x))
    assert on == 4
    node = unit_k6.node_point("v3")
    assert all(w.visit_times(node) for w, _ in pat.components)


def test_value_complete(unit_k4):
    fact = round_robin_one_factorization(unit_k4)
    assert value_complete(unit_k4, fact, 3) == F(1, 2)
    assert value_complete(unit_k4, fact, 4) == F(2, 3)
    with pytest.raises(ValidationError):
        value_complete(unit_k4, fact, 5)


def test_value_complete_refuses_another_networks_factorization(unit_k4):
    # the factors of a K4 with arcs of 1/2 are shorter than unit K4's, whose
    # own factorization bounds alpha by 4
    half = round_robin_one_factorization(complete_network(4, F(1, 2)))
    with pytest.raises(ValidationError, match="^factorization is on another network$"):
        value_complete(unit_k4, half, F(9, 2))
    with pytest.raises(ValidationError, match="^value formula validated only for duration <= 4; got 9/2$"):
        value_complete(unit_k4, round_robin_one_factorization(unit_k4), F(9, 2))


def test_temporal_law_checked_when_built_directly():
    for kind, value, message in (
            ("uniform", F(0), "uniform horizon must be positive"),
            ("uniform", F(-2), "horizon must be nonnegative"),
            ("fixed", F(-1), "attack start time must be nonnegative"),
            ("bogus", F(-3), "unknown start-time law 'bogus'"),
            ("fixed", 3, "start-time law value must be a Fraction, got 3"),
            ("uniform", "2", "start-time law value must be a Fraction, got '2'")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            TemporalLaw(kind, value)
    assert TemporalLaw.uniform(0) == TemporalLaw.fixed(0) == TemporalLaw("fixed", F(0))
    assert TemporalLaw.uniform("5/2") == TemporalLaw("uniform", F(5, 2))
    for make, message in ((TemporalLaw.fixed, "attack start time must be nonnegative"),
                          (TemporalLaw.uniform, "horizon must be nonnegative")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make(-1)


def test_factor_patrolling_matches_complete(unit_k4):
    fact = round_robin_one_factorization(unit_k4)
    via_factor = factor_patrolling(unit_k4, fact)
    via_complete = complete_patrolling(unit_k4, fact)
    assert [(s, w.duration) for w, s in via_factor.components] == \
           [(s, w.duration) for w, s in via_complete.components]


def test_factor_patrolling_k8():
    k8 = complete_network(8)
    pat = factor_patrolling(k8, round_robin_one_factorization(k8))
    assert len(pat.components) == 7
    assert all(s == F(1, 7) for _, s in pat.components)
    assert all(w.duration == 24 for w, _ in pat.components)


def test_factor_patrolling_five_regular():
    pat = factor_patrolling(*_five_regular())
    assert len(pat.components) == 5
    assert sum(s for _, s in pat.components) == 1


def test_factor_patrolling_reports_violations(unit_k4, unit_k6):
    fact = round_robin_one_factorization(unit_k4)
    with pytest.raises(FactorizationError):
        factor_patrolling(unit_k6, fact)  # factors reference another network

    # even-degree network: every hypothesis failure is named in the report
    rr6 = round_robin_one_factorization(unit_k6)
    even_net = unit_k6.without_arcs(rr6.factors[0])
    even_fact = Factorization(even_net, 1, rr6.factors[1:])
    with pytest.raises(FactorizationError) as err:
        factor_patrolling(even_net, even_fact)
    assert any("even" in v for v in err.value.violations)

    # even factor regularity
    paired = Factorization(unit_k6, 2, (rr6.factors[0] | rr6.factors[1],
                                        rr6.factors[2] | rr6.factors[3],
                                        rr6.factors[4] | rr6.factors[0]))
    with pytest.raises(FactorizationError) as err:
        factor_patrolling(unit_k6, paired)
    assert any("regularity 2 is even" in v for v in err.value.violations)


def _rational_complete(n, rng):
    net = complete_network(n)
    return Network(net.nodes, [(a.id, a.u, a.v, F(rng.randint(1, 12), rng.randint(1, 4))) for a in net.arcs])


def _five_regular():
    """K8 minus two round-robin factors, with the other five as its 1-factors."""
    k8 = complete_network(8)
    rr = round_robin_one_factorization(k8)
    net5 = k8.without_arcs(rr.factors[5] | rr.factors[6])
    return net5, Factorization(net5, 1, rr.factors[:5])


def _mixture_digests():
    """SHA-256 of the patrol file of each tour mixture: complete_patrolling
    on unit K4, K6 and K8 and on two seeded rational K6s (certified best
    and round-robin factorizations), and factor_patrolling on the
    5-regular network."""
    patrols = [complete_patrolling(complete_network(n)) for n in (4, 6, 8)]
    rng = random.Random(23)
    for _ in range(2):
        k6 = _rational_complete(6, rng)
        patrols += [complete_patrolling(k6, best_one_factorization(k6)),
                    complete_patrolling(k6, round_robin_one_factorization(k6))]
    patrols.append(factor_patrolling(*_five_regular()))
    return [hashlib.sha256(ser.write_patrol(p).encode()).hexdigest() for p in patrols]


# frozen from the implementation that toured a standalone copy of each
# factor's complement
MIXTURE_DIGESTS = [
    "ea570a84c65a48a125819c2034504b5cd3eb8bd5dc40305eb2ef95e565ca1b95",
    "536e82d0225a2a369e3bac3850d943585b627bbc13f12e9304bca6d3395cfcc2",
    "f7f082b1a3aa9b1839f8d5e818c198dcc7f6e81c10d66ea95ce70cb08da0ee67",
    "9839d3f63634f7a580c7a3e95ca94d23340d4ae99154017c7bc9a993872be19c",
    "5abb731e67f2e80740281806440a0b2f716a4ff055820aa7b14588859fa639ca",
    "ffae9d427c27a9e5face0da29dd5d2d40cf74ff8befda2c63318bc132c47ce2a",
    "f2450aa4e98563f19e43e13fe36084509908a46270d072ee2c6fba4b08cd8a74",
    "868952b5ec0ecb9cb435beae33b02a312204c2c5fcbf3c0d0aad16a54320b69a",
]


def test_tour_mixture_bytes_frozen():
    assert _mixture_digests() == MIXTURE_DIGESTS


@pytest.mark.parametrize("n, dropped, m", [
    (10, 0, 1), (10, 2, 1), (12, 0, 1), (12, 2, 1), (12, 4, 1), (10, 0, 3), (12, 2, 3)])
def test_tour_mixture_tours_each_complement_once(n, dropped, m):
    # k-regular hosts, k odd, with k >= n/2 + m: K_n minus `dropped` seeded
    # round-robin factors, its other factors (in unions of three for m = 3)
    # as the factorization
    rng = random.Random(n * 100 + dropped * 10 + m)
    kn = _rational_complete(n, rng)
    rr = list(round_robin_one_factorization(kn).factors)
    rng.shuffle(rr)
    net = kn.without_arcs(frozenset().union(*rr[:dropped]))
    kept = rr[dropped:]
    factors = tuple(frozenset().union(*kept[i:i + m]) for i in range(0, len(kept), m))
    pat = factor_patrolling(net, Factorization(net, m, factors))
    assert len(pat.components) == len(factors)
    assert sum(s for _, s in pat.components) == 1
    for (walk, _), factor in zip(pat.components, factors):
        assert arc_traversal_counts(walk) == {a.id: 1 for a in net.arcs if a.id not in factor}


def test_e_patrolling_value_guarantee_random_trees():
    # the defining property: at every grid point the patrol intercepts any
    # fixed attack with probability at least alpha/(mu + lambda(E))
    from patrolgame import attacker_best_response

    rng = random.Random(83)
    done = 0
    while done < 15:
        tree = random_tree(rng, min_nodes=3)
        alpha = random_alpha(rng, tree)
        if alpha > 2 * tree.total_length:
            continue
        pat = e_patrolling(tree, alpha)
        assert pat.components[0][0].duration == \
            2 * (tree.total_length + subtree_decomposition(tree, alpha).lambda_e)
        dec = subtree_decomposition(tree, alpha)
        br = attacker_best_response(pat, alpha, space_step=F(1, 4),
                                    extra_points=[c.root for c in dec.components])
        v_star = game_value_tree(tree, alpha)
        assert br.probability >= v_star, \
            f"{br.probability} < {v_star} at {br.point} (alpha={alpha})"
        done += 1


def test_e_patrolling_interior_core_start_round_trips():
    from patrolgame import serialize as ser

    path = path_network(4)
    pat = e_patrolling(path, 2)  # core is a mid-arc segment; start is interior
    walk = pat.components[0][0]
    assert not walk.start.is_node
    again = ser.parse_patrol(path, ser.write_patrol(pat))
    assert [(w.start, w.steps) for w, _ in again.components] == \
           [(w.start, w.steps) for w, _ in pat.components]


def test_patrol_strategy_validation(sample_tree):
    from patrolgame import PatrolStrategy, Walk

    w = Walk(sample_tree, sample_tree.node_point("A"))
    with pytest.raises(ValidationError):
        PatrolStrategy(sample_tree, ((w, F(1, 2)),))


def test_deep_path_needs_no_recursion():
    """A 10k-arc path is far deeper than the interpreter's recursion limit;
    the tree walks keep explicit stacks, so every construction completes."""
    path = path_network(10000, pieces=10000)
    end = path.node_point("p0")
    tour = double_traversal(path, "p0")
    assert tour.duration == 20000 and tour.is_closed
    patrol = e_patrolling(path, 4)
    assert patrol.components[0][0].duration == 2 * (10000 + 4)
    attack = tree_attack_strategy(path, 4)
    assert attack.atoms == ((end, F(1, 2501)), (path.node_point("p10000"), F(1, 2501)))
    dist = make_ebd(RootedSubtree(SubNetwork.whole(path), end), 1)
    assert dist.atoms == ((path.node_point("p10000"), F(1)),)


def _solution_digest(tree, alpha):
    dec = subtree_decomposition(tree, alpha)
    text = (ser.write_decomposition_report(tree, dec, critical_alpha(tree), local_root_of_tree(tree),
                                           game_value_tree(tree, alpha))
            + ser.write_attack(tree_attack_strategy(tree, alpha))
            + ser.write_patrol(e_patrolling(tree, alpha)))
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the decomposition report, attack and patrol files, frozen from
# the implementation that toured a standalone copy of every component; the
# digests at 7/3 and 13/5 (durations whose denominators widen the tree's
# integer scale) were frozen from the tree layer's `Fraction` implementation
DEMO_ALPHAS = (1, 2, 3, 4, 5, 6, 8, 10, 12, F(7, 3), F(13, 5))
DEMO_DIGESTS = [
    "003c99465c9b530150811dc87fd1a296081b2d34d273803a4c55f4e6a2d7b2c1",
    "9be4c4d496fce25e56cad6aef7c0f8767360e5ad547e728cd2230c6340edcf4c",
    "f8187a868e1532bfc513324f01f9190283328075d98f02145b1202dcb0fc8bf4",
    "3fe267ef5a6e300086a65f92b7d573efd3d5b7d41f546c624770953dd1f78f14",
    "f7a77092a6dae80ff1df7d1d8e1542a059fd9ba141e590b110df84c79a8886df",
    "6ef4dd9e31c5f453cc6214e9c86c0eae42791a44942988ee8a826398e6d4670a",
    "57f9e6c3cf01c2318803b155ca505199f7325570718e2f96f4f6a725dc42cd96",
    "bcf58683a99b1c0fa1f970d935c5e4b837f45ea6cff483ab8dd2006a359a08d9",
    "c82b53090b9ccf4df9b4e96c983bb353ab40aeac2d43e9470fb0f0fa120649f3",
    "656b468b10eeebf17713e6de3be64944519a7cf7114bc81773a3d38f2b97948a",
    "d75bf9c2eb04f37e0017329e497421f9a95f2cbca9a170fac512be0495957704",
]
SEEDED_DIGESTS = [
    "abb33bc01de4f9e2c31134db2437cdd84688396cab81199f1c11fb282f5e3269",
    "124d7100065b553909ab129798ada1589c2f97d5c222681ebab218235957acba",
    "fa129b5f85bf3f6d68221f3b008bfbd44e08c502d0d54b9cf6ea3a08666b2d4b",
    "d3b82ee0126ad8723a1661fe40716345bd1e698290dd933977d582988476651f",
    "b5b55faf88c8ab98f6a3abd6ea47c6f46dc93a87b05c3494951a232678b1fb04",
    "63875f133e4e73e35b46299b38bc39e3d4cfd8fee41ef9cd0eb870397f10f4b1",
    "1b1cb87a1e5c562912077216920291e22aad5d8d424cba0dc07699fc04093f8f",
    "9a3bfedc996c645b613a794f0be48dd1ce8bdcfdf88a361f2ff6cd5042ceb90a",
    "c474bdaa3dc3dd9b61ebf773aa02f81275d840cb0bd190921b6b53145e89c803",
    "da4980c32fede207254d29bcdcb2a2ed8e02e1673691f72eed93c47b1a524b48",
    "855d1b399fce84c543c85080d984878cb70feaa9180399e1a691495a71ed03ea",
    "9dedbc6209f745bcc0e3b78378717cca236ca09bdc7483b26c161801a4a2ceed",
    "caf3548c11f087bf1eda07d0144dde6d1b49b09e3979324ec044acc4c41bf63b",
    "a8bd4a6095ec16acb6d4b7ff921c2663b8837bf7ba1ce04d651b2f013ff5805d",
    "12ce2ddf719e32c604e17c583d6c621db22e448b4090ba61df10f0ef47988bc5",
    "61592f35f76734aff255214ef79ffbe189efc895a1607ae42ea94af3fd4f9ad3",
    "38829265e50fa72ac3c446eb7fa6e40870bbfbee2db794452e8fac3968b6d5e3",
    "61e9bc3be8a8b8751f09b45e97d09a9c2ac4fcfea613bd1111b41c285c242986",
    "52897ffe5ab45c786681955e986e3ceae88033d98422cc2c77d1bf293360f1d1",
    "ad82229164a09c197b762d82cf549aca8acd2cde22bfa80e34244009e3f3d64e",
]


def test_tree_solution_bytes_frozen():
    tree = make_sample_tree()
    assert [_solution_digest(tree, a) for a in DEMO_ALPHAS] == DEMO_DIGESTS
    rng = random.Random(61)
    got = []
    for _ in SEEDED_DIGESTS:
        tree = random_tree(rng, max_nodes=40, min_nodes=5)  # fixed-width arc ids
        share = rng.randint(20, 120)  # percent of the critical duration
        alpha = max(F(1, 4), F(int(critical_alpha(tree) * share / 25), 4))
        got.append(_solution_digest(tree, alpha))
    assert got == SEEDED_DIGESTS


def test_e_patrolling_children_in_host_arc_order():
    # arc 'e' is a prefix of 'e1': the component hanging at f's cut point
    # tours e before e1, as in host arc-id order
    net = Network(["r", "c", "x", "y", "w"],
                  [("f", "r", "c", 5), ("e", "c", "x", 1), ("e1", "c", "y", 1), ("g", "r", "w", 5)])
    walk = e_patrolling(net, 6).components[0][0]
    assert walk.start == net.node_point("r")
    block = ["f", "e", "e", "e1", "e1", "f"]
    assert [s.arc for s in walk.steps] == ["f", *block, *block, "f", *["g"] * 6]


def test_e_patrolling_core_without_nodes_starts_at_lo_end():
    path = path_network(F(3, 2))
    walk = e_patrolling(path, 1).components[0][0]
    assert walk.start == path.point("pa0", F(1, 2))
    half, one, end = F(1, 2), F(1), F(3, 2)
    assert [(s.start, s.end) for s in walk.steps] == [
        (half, 0), (0, half), (half, 0), (0, half), (half, one),
        (one, end), (end, one), (one, end), (end, one), (one, half)]


def _assert_discretized_matches_reference(attack, step):
    got, want = attack.discretized(step), discretized_reference(attack, step)
    assert got == want  # atoms compared as one tuple, so their order too
    assert all(type(m) is Fraction for _, m in got.atoms)
    assert all(type(p.offset) is Fraction for p, _ in got.atoms if not p.is_node)
    assert got.is_atomic and got.total_mass == 1


def test_discretized_matches_reference(sample_tree):
    k4 = complete_network(4)
    for alpha in (F(9, 2), F(5), F(11, 2), F(6)):
        for step in (F(1, 4), F(1, 8), F(1, 3), F(1)):
            _assert_discretized_matches_reference(k4_tightness_attack(k4, alpha=alpha), step)
    for alpha in (2, F(7, 3), 4, 8):
        _assert_discretized_matches_reference(tree_attack_strategy(sample_tree, alpha, horizon=240), F(1, 8))
    rng = random.Random(83)
    pool = [F(1, 3), F(2, 3), F(2, 7), F(9, 7), F(5, 12), F(13, 12), F(1), F(5, 2)]
    steps = [F(1, 4), F(1, 3), F(2, 7), F(1, 12), F(3, 5), F(7)]  # F(7) is wider than every segment
    trees_attacked = 0
    for _ in range(40):
        n = rng.randint(2, 9)
        tree = Network([f"n{i}" for i in range(n)],
                       [(f"e{i:02d}", f"n{rng.randrange(i)}", f"n{i}", rng.choice(pool)) for i in range(1, n)])
        law = TemporalLaw.uniform(rng.choice([1, F(7, 3)]))
        arcs = list(tree.arcs)
        # overlapping regions with rational cut points, from `from_segments`
        regions = []
        for _ in range(2):
            segs = []
            for a in rng.sample(arcs, rng.randint(1, len(arcs))):
                lo, hi = sorted(rng.sample(range(13), 2))
                segs.append(Segment(a.id, a.length * lo / 12, a.length * hi / 12))
            regions.append(SubNetwork.from_segments(tree, segs))
        # an atom on a cell midpoint of the first region's first segment at
        # the first step, another on a node
        seg = regions[0].segment_list()[0]
        cells = -(seg.measure // -steps[0])
        on_mid = tree.point(seg.arc, seg.lo + seg.measure / cells / 2)
        atoms = ((on_mid, F(1, 6)), (tree.node_point(rng.choice(tree.nodes)), F(1, 12)))
        parts = (UniformPart(regions[0], F(1, 2)), UniformPart(regions[1], F(1, 4)))
        attacks = [AttackStrategy(tree, atoms, parts, law), uniform_attack(tree, law)]
        alpha = random_alpha(rng, tree)
        if tree.is_tree and alpha < 2 * tree.total_length:
            attacks.append(tree_attack_strategy(tree, alpha, horizon=60))
        for attack in attacks:
            _assert_discretized_matches_reference(attack, rng.choice(steps))
        _assert_discretized_matches_reference(attacks[0], steps[0])
        assert dict(attacks[0].discretized(steps[0]).atoms)[on_mid] > F(1, 6)  # the atom and its cell merged
        trees_attacked += len(attacks) == 3
    assert trees_attacked >= 10


@pytest.mark.parametrize("step, error", [(0, ValidationError), (-1, ValidationError), (F(-1, 3), ValidationError),
                                         (0.25, TypeError), (True, TypeError)])
def test_discretized_rejects_bad_step(step, error):
    attack = k4_tightness_attack(complete_network(4), alpha=5)
    with pytest.raises(error) as got:
        attack.discretized(step)
    with pytest.raises(error) as want:
        discretized_reference(attack, step)
    assert str(got.value) == str(want.value)


def test_discretized_rejects_region_off_the_network():
    # a uniform part whose region lies on another network: an arc id this
    # network lacks, or a segment past the end of this network's arc
    k4, law = complete_network(4), TemporalLaw.fixed(0)
    for other, error in [(complete_network(4, prefix="w"), "unknown arc 'w1-w2'"),
                         (complete_network(4, length=3), "segment 0..3 outside arc 'v1-v2' of length 1")]:
        attack = AttackStrategy(k4, (), (UniformPart(SubNetwork.whole(other), F(1)),), law)
        with pytest.raises(ValidationError, match=error):
            attack.discretized(F(1, 4))
        with pytest.raises(ValidationError):
            discretized_reference(attack, F(1, 4))
