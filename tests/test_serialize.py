from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolgame import (
    Factorization,
    FormatError,
    FactorizationError,
    TemporalLaw,
    ValidationError,
    complete_network,
    complete_patrolling,
    e_patrolling,
    k4_tightness_attack,
    round_robin_one_factorization,
    tree_attack_strategy,
    subtree_decomposition,
    critical_alpha,
    local_root_of_tree,
    game_value_tree,
)
from patrolgame import serialize as ser

F = Fraction


def test_point_round_trip(sample_tree):
    for p in (sample_tree.node_point("B"), sample_tree.point("bBC", F(7, 5))):
        assert ser.parse_point(sample_tree, ser.fmt_point(p)) == p
    with pytest.raises(FormatError):
        ser.parse_point(sample_tree, "nowhere:B")


def test_attack_round_trip(sample_tree):
    for alpha in (2, 4, 8):
        att = tree_attack_strategy(sample_tree, alpha)
        again = ser.parse_attack(sample_tree, ser.write_attack(att))
        assert again.atoms == att.atoms
        assert again.temporal == att.temporal
        assert [(p.mass, p.region.segment_list()) for p in again.uniform_parts] == \
               [(p.mass, p.region.segment_list()) for p in att.uniform_parts]
        # byte-stable writer
        assert ser.write_attack(again) == ser.write_attack(att)


def test_attack_round_trip_fixed_time(unit_k4):
    att = k4_tightness_attack(unit_k4, alpha=6)
    again = ser.parse_attack(unit_k4, ser.write_attack(att))
    assert again.temporal == TemporalLaw.fixed(0)


def test_patrol_round_trip(sample_tree, unit_k4):
    for pat in (e_patrolling(sample_tree, 4), complete_patrolling(unit_k4)):
        text = ser.write_patrol(pat)
        again = ser.parse_patrol(pat.network, text)
        assert [(w.start, w.steps, s) for w, s in again.components] == \
               [(w.start, w.steps, s) for w, s in pat.components]
        assert ser.write_patrol(again) == text


def test_factorization_round_trip(unit_k6):
    fact = round_robin_one_factorization(unit_k6)
    text = ser.write_factorization(fact)
    again = ser.parse_factorization(unit_k6, text)
    assert again.factors == fact.factors
    assert again.regularity == 1 and again.certified
    loose = ser.write_factorization(Factorization(unit_k6, 1, fact.factors, certified=False))
    assert loose.startswith("factorization m=1 uncertified\n")
    assert not ser.parse_factorization(unit_k6, loose).certified


def test_factorization_parse_validates(unit_k4):
    bad = "factorization m=1\nfactor v1-v2 v3-v4\nfactor v1-v2 v2-v4\nfactor v1-v4 v2-v3\n"
    with pytest.raises(FactorizationError):
        ser.parse_factorization(unit_k4, bad)


def test_factorization_parse_messages(unit_k4):
    bad = "factorization m=1\nfactor v1-v2 zz\nfactor v1-v3 v2-v4\nfactor v1-v4 v2-v3\n"
    with pytest.raises(FactorizationError) as err:
        ser.parse_factorization(unit_k4, bad)
    assert err.value.violations == [
        "factor 1: unknown arc 'zz'",
        "factor 1: not 1-regular spanning (degrees {'v3': 0, 'v4': 0})",
        "arcs not covered by any factor: ['v3-v4']",
    ]


K4 = complete_network(4)
K4_FACTORS = ["factor v1-v2 v3-v4", "factor v1-v3 v2-v4", "factor v1-v4 v2-v3"]
_tokens = st.one_of(st.sampled_from([a.id for a in K4.arcs]), st.text(max_size=6))
_lines = st.lists(st.one_of(st.sampled_from(K4_FACTORS),
                            st.lists(_tokens, min_size=1, max_size=4).map(lambda t: "factor " + " ".join(t)),
                            st.text(max_size=12)), max_size=5)
_headers = st.one_of(st.sampled_from(["factorization m=1", "factorization m=1 uncertified",
                                      "factorization m=2", "factorization m=x", "factorization"]),
                     st.text(max_size=20))
_ends = st.sampled_from(["", "\n", "\n\n", "  # note\n"])
_join = lambda head, lines, end: "\n".join([head, *lines]) + end
factorization_texts = st.one_of(
    st.text(),
    st.builds(_join, _headers, _lines, _ends),
    # near-valid: the K4 factors in any order, some blank or comment lines
    st.builds(_join, st.sampled_from(["factorization m=1", "factorization m=1 uncertified"]),
              st.permutations(["factor v1-v2 v3-v4", "factor v2-v4 v1-v3", "factor v2-v3 v1-v4  # c",
                              "", "# comment"]), _ends))


@settings(max_examples=300, deadline=None)
@given(factorization_texts)
def test_parse_factorization_fuzz(text):
    # any text parses to a factorization whose file text is a fixed point,
    # or fails with a ValidationError (FormatError or FactorizationError)
    try:
        fact = ser.parse_factorization(K4, text)
    except ValidationError:
        return
    out = ser.write_factorization(fact)
    assert ser.write_factorization(ser.parse_factorization(K4, out)) == out


def test_attack_parse_errors(sample_tree):
    with pytest.raises(FormatError, match="line 1"):
        ser.parse_attack(sample_tree, "strategy\n")
    with pytest.raises(FormatError, match="line 3"):
        ser.parse_attack(sample_tree, "attack\ntemporal fixed 0\nblob x y\n")


@pytest.mark.parametrize("body, line", [
    ("temporal fixed 0\natom node:L3 1/0", 3),
    ("temporal fixed 0\natom node:L3 abc", 3),
    ("temporal fixed 0\natom arc:bBC:x 1", 3),
    ("temporal fixed 0\nuniform 1/0 bBC:0:2", 3),
    ("temporal fixed 0\nuniform 1 bBC:0:2/0", 3),
    ("temporal fixed 1/0\natom node:L3 1", 2),
    ("temporal uniform 0 abc\natom node:L3 1", 2),
    ("temporal\natom node:L3 1", 2),
])
def test_attack_parse_bad_fields(sample_tree, body, line):
    with pytest.raises(FormatError, match=f"line {line}: bad"):
        ser.parse_attack(sample_tree, f"attack\n{body}\n")


@pytest.mark.parametrize("body, line", [
    ("mix 1/0\nwalk node:A\nstep aL5 0 1", 2),
    ("mix 1\nwalk arc:aL5:0/0\nstep aL5 0 1", 3),
    ("mix 1\nwalk node:A\nstep aL5 0 one", 4),
    ("mix 1\nwalk node:A\nstep aL5 1/0 1", 4),
])
def test_patrol_parse_bad_rationals(sample_tree, body, line):
    with pytest.raises(FormatError, match=f"line {line}: bad"):
        ser.parse_patrol(sample_tree, f"patrol\n{body}\n")


def test_point_and_segment_bad_rationals(sample_tree):
    with pytest.raises(FormatError, match="bad offset"):
        ser.parse_point(sample_tree, "arc:bBC:1/0")
    with pytest.raises(FormatError, match="bad offset"):
        ser.parse_segment("bBC:0:z")


def test_decomposition_report(sample_tree):
    dec = subtree_decomposition(sample_tree, 4)
    report = ser.write_decomposition_report(
        sample_tree, dec, critical_alpha(sample_tree),
        local_root_of_tree(sample_tree), game_value_tree(sample_tree, 4))
    assert "lambda_e 7" in report
    assert "value 4/17" in report
    assert "core measure=3" in report
    assert report.count("component") == 5


def test_result_csv(unit_k4):
    from patrolgame import evaluate, uniform_attack

    pat = complete_patrolling(unit_k4)
    att = uniform_attack(unit_k4, TemporalLaw.fixed(0))
    row = ser.result_csv_row(evaluate(pat, att, 3, method="grid"))
    assert row.startswith("grid,1/2,")
    mc = evaluate(pat, att, 3, method="mc", trials=1000, seed=1)
    row2 = ser.result_csv_row(mc)
    assert row2.split(",")[0] == "monte-carlo"
    assert row2.split(",")[3] == "1000"
