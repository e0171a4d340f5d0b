import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolgame import (
    Factorization,
    FormatError,
    FactorizationError,
    TemporalLaw,
    Network,
    PatrolStrategy,
    Step,
    ValidationError,
    Walk,
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
    format_network,
    parse_network,
)
from patrolgame import serialize as ser
from patrolgame.network import parse_rational
from conftest import make_sample_tree, random_alpha, random_tree, walk_fields
from oracles import write_patrol_reference

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


@pytest.mark.parametrize("head", ["factorization m=1 uncertifed", "factorization m=1 certified",
                                  "factorization m=1 uncertified uncertified"])
def test_factorization_header_is_strict(unit_k4, head):
    # only `factorization m=<k>`, optionally followed by `uncertified`: a
    # misspelt mark must not read as a certificate
    text = "\n".join([head, "factor v1-v2 v3-v4", "factor v1-v3 v2-v4", "factor v1-v4 v2-v3"]) + "\n"
    with pytest.raises(FormatError, match="^line 1: "):
        ser.parse_factorization(unit_k4, text)


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


TREE = make_sample_tree()


def _edit(text, i, cut, record):
    """Put `record` at line i of `text`, replacing that line when `cut`;
    a None record only deletes."""
    lines = text.splitlines()
    i %= len(lines) + 1
    lines[i:i + cut] = [] if record is None else [record]
    return "\n".join(lines) + "\n"


def _texts(valid, records):
    # arbitrary text; valid files with one line replaced, inserted or
    # deleted; and a valid header over records drawn from a pool of valid
    # and broken ones
    record = st.one_of(st.sampled_from(records), st.text(max_size=12))
    return st.one_of(
        st.text(),
        st.builds(_edit, st.sampled_from(valid), st.integers(0, 60), st.integers(0, 1),
                  st.one_of(st.none(), record)),
        st.builds(_join, st.just(valid[0].splitlines()[0]), st.lists(record, max_size=6), _ends))


NETWORK_VALID = [format_network(TREE), "node a\nnode b\narc e a b 3/2\n"]
NETWORK_RECORDS = ["node a", "node b", "node c", "arc e a b 1", "arc f b c 3/2", "arc g a c 2.5",
                   "arc e a b 2", "arc h a a 1", "arc x a z 1", "arc y a b -1", "arc y a b 0",
                   "arc y a b 1/0", "node", "arc e a b", "edge e a b 1", "# comment", ""]
ATTACK_VALID = [ser.write_attack(tree_attack_strategy(TREE, 4)),
                ser.write_attack(tree_attack_strategy(TREE, 8)),
                "attack\ntemporal fixed 0\natom node:L3 1/2\nuniform 1/2 bBC:0:2\n"]
ATTACK_RECORDS = ["temporal fixed 0", "temporal fixed 1/2", "temporal uniform 0 5",
                  "temporal uniform 0 0", "temporal uniform 0 -1", "temporal uniform 1 5",
                  "temporal", "atom node:L3 1", "atom node:L3 1/2", "atom node:L4 1/2",
                  "atom arc:bBC:1 1/2", "atom arc:bBC:0 1/2", "atom arc:bBC:3 1/2", "atom node:Q 1",
                  "atom arc:zz:1 1", "atom node:L3 -1/2", "atom node:L3", "uniform 1/2 bBC:0:2",
                  "uniform 1/2 bBC:1:2 aAB:0:1", "uniform 1 bBC:0:3", "uniform 1 zz:0:1",
                  "uniform 1/2 bBC:1:1", "# comment", ""]
PATROL_VALID = [ser.write_patrol(e_patrolling(TREE, 4)),
                "patrol\nmix 1\nwalk arc:aL5:1/2\nstep aL5 1/2 1\nstep aL5 1 0\nstep aL5 0 1/2\n"]
PATROL_RECORDS = ["mix 1", "mix 1/2", "mix -1", "walk node:A", "walk node:L5", "walk arc:aL5:1/2",
                  "walk node:Q", "walk arc:aL5:7", "step aL5 0 1", "step aL5 1 0", "step aL5 0 1/2",
                  "step aL5 1/2 0", "step aL5 1/2 1", "step aL5 1 1/2", "step aL5 1 1",
                  "step aL5 0 2", "step zz 0 1", "step aAB 0 1", "step aL5 0", "# comment", ""]


@settings(max_examples=300, deadline=None)
@given(_texts(NETWORK_VALID, NETWORK_RECORDS))
def test_parse_network_fuzz(text):
    # any text parses to a network whose file text is a fixed point, or
    # fails with a ValidationError
    try:
        net = parse_network(text)
    except ValidationError:
        return
    out = format_network(net)
    assert format_network(parse_network(out)) == out


@settings(max_examples=300, deadline=None)
@given(_texts(ATTACK_VALID, ATTACK_RECORDS))
def test_parse_attack_fuzz(text):
    try:
        attack = ser.parse_attack(TREE, text)
    except ValidationError:
        return
    out = ser.write_attack(attack)
    assert ser.write_attack(ser.parse_attack(TREE, out)) == out


@settings(max_examples=300, deadline=None)
@given(_texts(PATROL_VALID, PATROL_RECORDS))
def test_parse_patrol_fuzz(text):
    try:
        patrol = ser.parse_patrol(TREE, text)
    except ValidationError:
        return
    out = ser.write_patrol(patrol)
    assert ser.write_patrol(ser.parse_patrol(TREE, out)) == out


@pytest.mark.parametrize("header, body, line, message", [
    ("attack", "temporal fixed 0\natom node:Q 1", 3, "unknown node 'Q'"),
    ("attack", "temporal fixed 0\natom arc:zz:1 1", 3, "unknown arc 'zz'"),
    ("attack", "temporal fixed 0\n\nuniform 1 bBC:0:3", 4, "segment seg:bBC:0:3 outside arc"),
    ("attack", "temporal uniform 0 -1\natom node:L3 1", 2, "horizon must be nonnegative"),
    ("attack", "temporal fixed -1\natom node:L3 1", 2, "attack start time must be nonnegative"),
    ("attack", "temporal fixed 0\natom node:L3 1\ntemporal uniform 0 5", 4, "second temporal record"),
    ("patrol", "mix 1\nwalk node:Q", 3, "unknown node 'Q'"),
    ("patrol", "mix 1\nwalk node:A\nstep aL5 1 0\nstep aL5 0 1", 3,
     "step on 'aL5' starts at node:L5, walk is at node:A"),
    ("patrol", "mix 1/2\nwalk node:A\nstep aL5 0 1\nstep aL5 1 0\nmix 1/2\n\nwalk node:A\nstep zz 0 1",
     8, "unknown arc 'zz'"),
    # records out of order: a walk before any mix, a step before its walk
    # (also when the step record was parsed before), a second walk in a mix
    ("patrol", "walk node:A\nstep aL5 0 1\nmix 1\nwalk node:A", 2, "walk record before any mix"),
    ("patrol", "walk node:A\nstep aL5 0 1", 2, "walk record before any mix"),
    ("patrol", "step aL5 0 1\nmix 1\nwalk node:A", 2, "step record before its walk"),
    ("patrol", "mix 1\nstep aL5 0 1\nwalk node:A\nstep aL5 1 0", 3, "step record before its walk"),
    ("patrol", "mix 1/2\nwalk node:A\nstep aL5 0 1\nstep aL5 1 0\nmix 1/2\nstep aL5 0 1\nwalk node:A",
     7, "step record before its walk"),
    ("patrol", "mix 1\nwalk node:A\nstep aL5 0 1\nwalk node:L5\nstep aL5 1 0", 5,
     "second walk record in one mix"),
])
def test_parse_errors_name_their_line(sample_tree, header, body, line, message):
    parse = ser.parse_attack if header == "attack" else ser.parse_patrol
    with pytest.raises(FormatError, match=f"^line {line}: {re.escape(message)}"):
        parse(sample_tree, f"{header}\n{body}\n")


def test_attack_segment_errors_name_their_line(sample_tree):
    # an empty or reversed segment has its own message; one past an end of
    # its arc keeps the old one
    for seg, message in (("aAB:1/2:1/2", "segment seg:aAB:1/2:1/2 is empty or reversed"),
                         ("aAB:3/4:1/4", "segment seg:aAB:3/4:1/4 is empty or reversed"),
                         ("aAB:1/2:3/2", "segment seg:aAB:1/2:3/2 outside arc of length 1"),
                         ("aAB:-1/2:1/2", "segment seg:aAB:-1/2:1/2 outside arc of length 1"),
                         ("aAB:3:2", "segment seg:aAB:3:2 outside arc of length 1")):
        text = f"attack\ntemporal fixed 0\natom node:L3 1/2\nuniform 1/2 bBC:0:2 {seg}\n"
        with pytest.raises(FormatError, match=f"^line 4: {re.escape(message)}$"):
            ser.parse_attack(sample_tree, text)


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


def _parse_record_by_record(net, text):
    """What parsing a well-ordered patrol text gives, each record parsed from
    its own text: per mix its walk's fields and offset types, or the error."""
    comps, mix = [], None

    def flush():
        if mix is not None:
            prob, ln, start, steps = mix
            try:
                w = Walk(net, start, steps)
            except ValidationError as e:
                raise FormatError(f"line {ln}: {e}") from None
            comps.append((prob, w.start, w.steps, w.end_point, w.duration,
                          [(type(s.start), type(s.end)) for s in w.steps]))

    try:
        for ln, line in enumerate(text.splitlines()[1:], start=2):
            tok = line.split("#", 1)[0].split()
            if not tok:
                continue
            if tok[0] == "mix":
                flush()
                mix = [parse_rational(tok[1], "probability", ln), None, None, []]
            elif tok[0] == "walk":
                mix[1:3] = ln, ser.parse_point(net, tok[1], ln)
            else:
                mix[3].append(Step(tok[1], *(parse_rational(t, "offset", ln) for t in tok[2:])))
        flush()
    except ValidationError as e:
        return type(e), str(e)
    return comps


def _parse_patrol_outcome(net, text):
    try:
        patrol = ser.parse_patrol(net, text)
    except ValidationError as e:
        return type(e), str(e)
    return [(s, w.start, w.steps, w.end_point, w.duration, [(type(st.start), type(st.end)) for st in w.steps])
            for w, s in patrol.components]


def _respell(rng, line):
    """The same step record with other spacing, a comment or equal rationals."""
    tok = line.split()
    if rng.random() < 0.4:
        tok[2:] = [f"{t}/1" if "/" not in t else "/".join(str(2 * int(n)) for n in t.split("/"))
                   for t in tok[2:]]
    sep = rng.choice([" ", "  ", "\t"])
    return rng.choice(["", "  "]) + sep.join(tok) + rng.choice(["", " ", "  # again", "#"])


def test_repeated_patrol_records_parse_like_fresh_ones():
    # an E-patrol writes every step record once in each direction in each of
    # its two walks; copies that differ only in comments, spacing or the
    # spelling of a rational must parse to the same steps and offset types,
    # and a bad record that repeats must be reported at its first line
    rng = random.Random(19)
    bad_records = ["step {arc} 0 one", "step {arc} 1/0 0", "step {arc} 0 -1", "step zz 0 1",
                   "step {arc} 0 0"]
    kinds = Counter()
    for _ in range(16):
        tree = random_tree(rng, max_nodes=10, min_nodes=3)
        lines = ser.write_patrol(e_patrolling(tree, random_alpha(rng, tree))).splitlines()
        step_at = [i for i, line in enumerate(lines) if line.startswith("step ")]
        variants = ["\n".join(lines) + "\n"]
        copy = list(lines)
        for i in step_at:
            if rng.random() < 0.5:
                copy[i] = _respell(rng, copy[i])
        variants.append("\n".join(copy) + "\n")
        for _ in range(3):
            i, j = sorted(rng.sample(step_at, 2))
            record = rng.choice(bad_records).format(arc=lines[i].split()[1])
            copy = list(lines)
            copy[i], copy[j] = record, _respell(rng, record)
            variants.append("\n".join(copy) + "\n")
        for text in variants:
            got = _parse_patrol_outcome(tree, text)
            assert got == _parse_record_by_record(tree, text)
            if isinstance(got[0], type):
                kinds[got[1].split(": ", 1)[1].split()[0]] += 1
    assert set(kinds) == {"bad", "unknown", "zero-length", "step"}, kinds


def test_repeated_bad_record_names_its_first_line(sample_tree):
    text = "patrol\nmix 1\nwalk node:A\nstep aL5 0 x\nstep aL5 0 x\n"
    with pytest.raises(FormatError, match="^line 4: bad offset 'x'$"):
        ser.parse_patrol(sample_tree, text)
    text = "patrol\nmix 1\nwalk node:A\nstep aL5 0 1\nstep aL5 1 0 # back\nstep aL5  0 1\nstep aL5 1/1 0\n"
    patrol = ser.parse_patrol(sample_tree, text)
    steps = patrol.components[0][0].steps
    assert steps == (Step("aL5", 0, 1), Step("aL5", 1, 0)) * 2
    assert all(type(o) is F for s in steps for o in (s.start, s.end))


def test_write_patrol_matches_fmt_frac_reference():
    # the writer reads each walk's integer offsets; the reference formats
    # every step offset with fmt_frac
    net = Network(["u", "v", "w"], [("a", "u", "v", F(3, 2)), ("b", "v", "w", 2)])  # D = 2
    around = Walk(net, net.point("a", F(1, 3)), [     # interior start, scale 6 > D
        Step("a", F(1, 3), F(3, 2)), Step("b", 0, 2), Step("b", 2, F(5, 7)), Step("b", F(5, 7), 0),
        Step("a", F(3, 2), 0), Step("a", 0, F(1, 3))])
    still = Walk(net, net.point("b", F(4, 5)))        # stationary, inside an arc
    ints = Walk(net, net.node_point("v"), [Step("b", 0, 2), Step("b", 2, 0)])  # int offsets
    assert around._scale == 42 > net._units[0]
    patrols = [PatrolStrategy(net, ((around, F(1, 3)), (still, F(1, 6)), (ints, F(1, 2)))),
               PatrolStrategy(net, ((around, F(2, 3)), (around.reversed(), F(1, 3)))),
               PatrolStrategy.single(still), e_patrolling(make_sample_tree(), F(7, 3))]
    rng = random.Random(47)
    for _ in range(12):
        tree = random_tree(rng, max_nodes=12, min_nodes=2)
        patrols.append(e_patrolling(tree, random_alpha(rng, tree)))
    k6 = complete_network(6)
    patrols.append(complete_patrolling(Network(k6.nodes, [(a.id, a.u, a.v, F(1 + k % 5, 1 + k % 3))
                                                          for k, a in enumerate(k6.arcs)])))
    for patrol in patrols:
        assert ser.write_patrol(patrol) == write_patrol_reference(patrol)


def _counting_walks(monkeypatch):
    """The arguments of every `Walk.__init__` call made inside a
    `ser.parse_patrol` call; calls anywhere else are not counted."""
    built, parsing = [], []
    init, parse = Walk.__init__, ser.parse_patrol

    def counting_init(self, *args):
        if parsing:
            built.append(args)
        init(self, *args)

    def counting_parse(*args):
        parsing.append(True)
        try:
            return parse(*args)
        finally:
            parsing.pop()
    monkeypatch.setattr(Walk, "__init__", counting_init)
    monkeypatch.setattr(ser, "parse_patrol", counting_parse)
    return built


def test_parse_patrol_reverse_is_constructor_walk(monkeypatch):
    # the second walk of an E-patrol is the reverse of the first: the walk
    # kernel builds it, as every parsed walk, and its fields equal the
    # constructor's
    rng = random.Random(53)
    built = _counting_walks(monkeypatch)
    for _ in range(12):
        tree = random_tree(rng, max_nodes=12, min_nodes=2)
        text = ser.write_patrol(e_patrolling(tree, random_alpha(rng, tree)))
        built.clear()
        (first, _), (second, _) = ser.parse_patrol(tree, text).components
        assert built == []
        want = Walk(tree, first.end_point, [Step(s.arc, s.end, s.start) for s in reversed(first.steps)])
        assert walk_fields(second) == walk_fields(want)


def test_parse_patrol_near_reverse_gets_constructor_error(monkeypatch):
    # one offset changed in the second walk: the walk kernel rejects that
    # walk with the constructor's error, which names the walk's line, as for
    # any other walk
    rng = random.Random(59)
    built = _counting_walks(monkeypatch)
    for _ in range(12):
        tree = random_tree(rng, max_nodes=12, min_nodes=3)
        lines = ser.write_patrol(e_patrolling(tree, random_alpha(rng, tree))).splitlines()
        walk_ln = [ln for ln, line in enumerate(lines, start=1) if line.startswith("walk ")][1]
        i = rng.randrange(walk_ln, len(lines) - 1)  # a step of the second walk, not its last
        _, arc, lo, hi = lines[i].split()
        lines[i] = f"step {arc} {lo} {ser.fmt_frac((F(lo) + F(hi)) / 2)}"  # stops short
        text = "\n".join(lines) + "\n"
        built.clear()
        got = _parse_patrol_outcome(tree, text)
        assert got == _parse_record_by_record(tree, text)
        assert got[0] is FormatError and got[1].startswith(f"line {walk_ln}: step on ")
        assert built == []


def test_parse_patrol_reverse_prefix_extension_or_moved_start_match_constructor(monkeypatch):
    # a second walk that is the reverse without its last step, the reverse
    # with one more step back and forth, or the reverse from another start
    # point: the walk kernel builds or rejects it as the constructor would
    rng = random.Random(71)
    built = _counting_walks(monkeypatch)
    for _ in range(8):
        tree = random_tree(rng, max_nodes=12, min_nodes=3)
        lines = ser.write_patrol(e_patrolling(tree, random_alpha(rng, tree))).splitlines()
        walk_ln = [ln for ln, line in enumerate(lines, start=1) if line.startswith("walk ")][1]
        _, arc, lo, hi = lines[-1].split()
        other = next(n for n in tree.nodes if f"walk node:{n}" != lines[walk_ln - 1])
        variants = [(lines[:-1], (ValidationError, "patrol walks must be closed")),
                    (lines + [f"step {arc} {hi} {lo}", lines[-1]], None),
                    (lines[:walk_ln - 1] + [f"walk node:{other}"] + lines[walk_ln:], None)]
        for variant, error in variants:
            text = "\n".join(variant) + "\n"
            built.clear()
            got = _parse_patrol_outcome(tree, text)
            assert got == (error or _parse_record_by_record(tree, text))
            assert built == []


def test_parse_patrol_other_second_walks_match_constructor(monkeypatch, sample_tree):
    # the same walk twice, or two tours that are not reverses, each go
    # through the walk kernel and parse as record by record
    built = _counting_walks(monkeypatch)
    walk = e_patrolling(sample_tree, 4).components[0][0]
    texts = [(sample_tree, ser.write_patrol(PatrolStrategy(sample_tree, ((walk, F(1, 2)), (walk, F(1, 2))))))]
    k4 = complete_network(4)
    texts.append((k4, ser.write_patrol(complete_patrolling(k4))))
    for net, text in texts:
        built.clear()
        got = _parse_patrol_outcome(net, text)
        assert got == _parse_record_by_record(net, text)
        assert built == []


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
