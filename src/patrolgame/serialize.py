"""Readers and writers for the structured text formats.

Every rational field is written as ``p/q`` (or a plain integer) and parsed
back exactly, so a write/parse round trip reproduces the in-memory object
bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

from .errors import FormatError, ValidationError
from .factorization import Factorization, _checked
from .network import Network, Point, Segment, SubNetwork, _on_scale, _walk, frac, parse_rational
from .strategies import AttackStrategy, PatrolStrategy, TemporalLaw, UniformPart


def fmt_frac(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_point(p: Point) -> str:
    if p.is_node:
        return f"node:{p.node}"
    return f"arc:{p.arc}:{fmt_frac(p.offset)}"


def _where(ln: int | None) -> str:
    return f"line {ln}: " if ln is not None else ""


@contextmanager
def _at_line(ln: int):
    """Re-raise a ValidationError from the record on line `ln` as a
    FormatError naming that line."""
    try:
        yield
    except FormatError:
        raise
    except ValidationError as e:
        raise FormatError(f"line {ln}: {e}") from None


def parse_point(net: Network, text: str, ln: int | None = None) -> Point:
    parts = text.split(":")
    if parts[0] == "node" and len(parts) == 2:
        return net.node_point(parts[1])
    if parts[0] == "arc" and len(parts) == 3:
        return net.point(parts[1], parse_rational(parts[2], "offset", ln))
    raise FormatError(f"{_where(ln)}bad point {text!r}")


def _fmt_segments(sub: SubNetwork, sep: str) -> str:
    """A subnetwork's segments as `arc:lo:hi` records, each offset written
    as `fmt_frac` writes it, from their ints."""
    def fmt(x: int) -> str:
        g = math.gcd(x, sub._scale)
        return str(x // g) if g == sub._scale else f"{x // g}/{sub._scale // g}"
    return sep.join(f"{aid}:{fmt(lo)}:{fmt(hi)}" for aid, ivs in sub._ivs.items() for lo, hi in ivs)


def parse_segment(text: str, ln: int | None = None) -> Segment:
    parts = text.split(":")
    if len(parts) != 3:
        raise FormatError(f"{_where(ln)}bad segment {text!r}")
    lo, hi = (parse_rational(t, "offset", ln) for t in parts[1:])
    return Segment(parts[0], lo, hi)


def _fmt_temporal(t: TemporalLaw) -> str:
    if t.kind == "fixed":
        return f"temporal fixed {fmt_frac(t.value)}"
    return f"temporal uniform 0 {fmt_frac(t.value)}"


def _parse_temporal(parts: list[str], ln: int) -> TemporalLaw:
    if len(parts) == 3 and parts[1] == "fixed":
        return TemporalLaw.fixed(parse_rational(parts[2], "time", ln))
    if len(parts) == 4 and parts[1] == "uniform" and parts[2] == "0":
        return TemporalLaw.uniform(parse_rational(parts[3], "horizon", ln))
    raise FormatError(f"line {ln}: bad temporal law")


# -- attack strategies ---------------------------------------------------------


def write_attack(a: AttackStrategy) -> str:
    lines = ["attack", _fmt_temporal(a.temporal)]
    for p, m in a.atoms:
        lines.append(f"atom {fmt_point(p)} {fmt_frac(m)}")
    for part in a.uniform_parts:
        lines.append(f"uniform {fmt_frac(part.mass)} {_fmt_segments(part.region, ' ')}")
    return "\n".join(lines) + "\n"


def parse_attack(net: Network, text: str) -> AttackStrategy:
    temporal = None
    atoms = []
    parts = []
    lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    if not lines or lines[0] != "attack":
        raise FormatError("line 1: expected 'attack' header")
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        tok = line.split()
        with _at_line(ln):
            if tok[0] == "temporal":
                if temporal is not None:
                    raise FormatError(f"line {ln}: second temporal record")
                temporal = _parse_temporal(tok, ln)
            elif tok[0] == "atom" and len(tok) == 3:
                atoms.append((parse_point(net, tok[1], ln), parse_rational(tok[2], "mass", ln)))
            elif tok[0] == "uniform" and len(tok) >= 3:
                mass = parse_rational(tok[1], "mass", ln)
                segs = [parse_segment(t, ln) for t in tok[2:]]
                parts.append(UniformPart(SubNetwork.from_segments(net, segs), mass))
            else:
                raise FormatError(f"line {ln}: bad attack record {tok[0]!r}")
    if temporal is None:
        raise FormatError("missing temporal law")
    return AttackStrategy(net, tuple(atoms), tuple(parts), temporal)


# -- patrol strategies -----------------------------------------------------------


def write_patrol(p: PatrolStrategy) -> str:
    """Steps are written from each walk's arc ids and integer offsets
    (`Walk._arcs`, and `Walk._offsets` on `Walk._scale`), each distinct
    offset formatted once per walk."""
    lines = ["patrol"]
    for walk, s in p.components:
        lines += [f"mix {fmt_frac(s)}", f"walk {fmt_point(walk.start)}"]
        text = {x: fmt_frac(Fraction(x, walk._scale)) for x in {x for pair in walk._offsets for x in pair}}
        lines += [f"step {aid} {text[lo]} {text[hi]}" for aid, (lo, hi) in zip(walk._arcs, walk._offsets)]
    return "\n".join(lines) + "\n"


def parse_patrol(net: Network, text: str) -> PatrolStrategy:
    """Records run `mix`, `walk`, then that walk's `step`s, per component.
    Each distinct step record (a walk and its reverse repeat them all) is
    read once into its arc id and offset texts, and each offset text parsed
    once.  A walk's distinct offsets go on one scale, and the walk kernel
    checks and times every walk from its arc ids and those ints."""
    lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    if not lines or lines[0] != "patrol":
        raise FormatError("line 1: expected 'patrol' header")
    comps, prob, start, walk_ln = [], None, None, 0
    steps: list[tuple[str, ...]] = []  # the walk's steps, each (arc id, start text, end text)
    parsed: dict[str, tuple[str, ...]] = {}  # step record text -> its step
    offsets: dict[str, Fraction] = {}  # offset text -> its value

    def flush(ln):
        if prob is None:
            return
        if start is None:
            raise FormatError(f"line {ln}: mix record without a walk")
        texts = list({t for _, lo, hi in steps for t in (lo, hi)})
        scale, ints = _on_scale(net._units[0], (offsets[t] for t in texts))
        scaled = dict(zip(texts, ints))
        with _at_line(walk_ln):
            comps.append((_walk(net, start, [aid for aid, _, _ in steps],
                                [(scaled[lo], scaled[hi]) for _, lo, hi in steps], scale), prob))

    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        step = parsed.get(line)
        tok = None if step is not None else line.split()
        if step is not None or (tok[0] == "step" and len(tok) == 4):
            if start is None:
                raise FormatError(f"line {ln}: step record before its walk")
            if step is None:
                for t in tok[2:]:
                    if t not in offsets:
                        offsets[t] = parse_rational(t, "offset", ln)
                step = parsed[line] = tuple(tok[1:])
            steps.append(step)
        elif tok[0] == "mix" and len(tok) == 2:
            flush(ln)
            prob = parse_rational(tok[1], "probability", ln)
            start = None
            steps.clear()
        elif tok[0] == "walk" and len(tok) == 2:
            if prob is None:
                raise FormatError(f"line {ln}: walk record before any mix")
            if start is not None:
                raise FormatError(f"line {ln}: second walk record in one mix")
            with _at_line(ln):
                start = parse_point(net, tok[1], ln)
            walk_ln = ln
        else:
            raise FormatError(f"line {ln}: bad patrol record {tok[0]!r}")
    flush(len(lines))
    return PatrolStrategy(net, tuple(comps))


# -- factorizations ----------------------------------------------------------------


def write_factorization(f: Factorization) -> str:
    lines = [f"factorization m={f.regularity}" + ("" if f.certified else " uncertified")]
    for factor in f.factors:
        lines.append("factor " + " ".join(sorted(factor)))
    return "\n".join(lines) + "\n"


def parse_factorization(net: Network, text: str) -> Factorization:
    lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    if not lines or not lines[0].startswith("factorization m="):
        raise FormatError("line 1: expected 'factorization m=<k>' header")
    head = lines[0].split()
    try:
        m = int(head[1].split("=", 1)[1])
    except (IndexError, ValueError):
        raise FormatError("line 1: bad regularity") from None
    if head[2:] not in ([], ["uncertified"]):
        raise FormatError(f"line 1: expected 'uncertified' or nothing after m={m}, got {' '.join(head[2:])!r}")
    certified = len(head) == 2
    factors = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        tok = line.split()
        if tok[0] != "factor" or len(tok) < 2:
            raise FormatError(f"line {ln}: expected 'factor <arc>...'")
        factors.append(frozenset(tok[1:]))
    return _checked(net, factors, m, certified)


# -- reports --------------------------------------------------------------------


def write_decomposition_report(tree: Network, dec, alpha_star, local_root, value) -> str:
    lines = [
        f"alpha {fmt_frac(dec.alpha)}",
        f"mu {fmt_frac(tree.total_length)}",
        f"lambda_e {fmt_frac(dec.lambda_e)}",
        f"alpha_star {fmt_frac(alpha_star)}",
        f"local_root {fmt_point(local_root)}",
        f"value {fmt_frac(value)}",
    ]
    segs = _fmt_segments(dec.core, ",")
    if dec.core.measure == 0:
        segs = ",".join(fmt_point(p) for p in sorted(dec.core.points, key=Point.sort_key))
    lines.append(f"core measure={fmt_frac(dec.core.measure)} segments={segs}")
    for j, comp in enumerate(dec.components, start=1):
        lines.append(f"component {j} root={fmt_point(comp.root)} measure={fmt_frac(comp.measure)} "
                     f"segments={_fmt_segments(comp.subtree, ',')}")
    return "\n".join(lines) + "\n"


RESULT_HEADER = "method,probability,ci_halfwidth,trials,seed,argmin_point,argmin_time"


def result_csv_row(result, argmin_point=None, argmin_time=None) -> str:
    prob = result.probability
    prob_s = fmt_frac(prob) if isinstance(prob, (Fraction, int)) else repr(prob)
    ci = "" if result.ci_halfwidth is None else repr(result.ci_halfwidth)
    trials = "" if result.trials is None else str(result.trials)
    seed = "" if result.seed is None else str(result.seed)
    pt = "" if argmin_point is None else fmt_point(argmin_point)
    tm = "" if argmin_time is None else fmt_frac(argmin_time)
    return f"{result.method},{prob_s},{ci},{trials},{seed},{pt},{tm}"
