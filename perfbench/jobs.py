"""Benchmark jobs: public library calls, each wrapped in a span named after
the layer it enters, followed by exact checks of the paper's guarantees.

A job raises `CheckFailed` when an output is wrong; the runner counts that,
like any other exception, as a failed job.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import patrolgame as pg
from patrolgame import cli, serialize
from patrolgame.ebd import RootedSubtree

import hostspeed
from inputs import (CompleteInput, EnumerationInput, SearchInput, TreeInput, WorkloadInputs, fmt,
                    unit_complete_text)

EPSILON = Fraction(1, 20)
GRID_STEP = Fraction(1, 8)
SPACE_STEP = Fraction(1, 8)
MC_TRIALS = 1_000_000
MC_MAX_JOBS = 2
TIME_POINTS = 4  # time-grid points per period in the second best response
SEARCH_STEP = Fraction(1, 4)  # offset and grid step of patrol_search
COMPLETE_SPACE_STEP = Fraction(1, 2)
ENUMERATION_COUNTS = {4: 1, 6: 6, 8: 6240}


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable  # run(tracer) -> None; raises on failure


def tree_alpha(a_star: Fraction, share: Fraction) -> Fraction:
    """Attack duration below the critical one, on a quarter grid."""
    return max(Fraction(1, 4), Fraction(int(a_star * share * 4), 4))


# -- tree_solve ------------------------------------------------------------------


def solve_tree(t: TreeInput, tr) -> None:
    with tr.span("network.parse"):
        net = pg.parse_network(t.text)
    tr.count("network.parse.arcs", len(net.arcs))
    mu = net.total_length
    with tr.span("network.walk"):
        tour = pg.double_traversal(net, net.nodes[0])
    with tr.span("decomposition.critical"):
        a_star = pg.critical_alpha(net)
    alpha = tree_alpha(a_star, t.alpha_share)
    with tr.span("decomposition.decompose"):
        dec = pg.subtree_decomposition(net, alpha)
    tr.count("decomposition.decompose.components", len(dec.components))
    with tr.span("decomposition.extremity"):
        ext = pg.extremity_set(net, alpha)
    with tr.span("decomposition.local_root"):
        root = pg.local_root_of_tree(net)
    with tr.span("strategies.value"):
        value = pg.game_value_tree(net, alpha)
    with tr.span("strategies.attack"):
        attack = pg.tree_attack_strategy(net, alpha, epsilon=EPSILON)
    with tr.span("strategies.patrol"):
        patrol = pg.e_patrolling(net, alpha)
    tr.count("strategies.patrol.steps", sum(len(w.steps) for w, _ in patrol.components))

    denom = mu + dec.lambda_e
    expected: dict = {}
    for comp in dec.components:
        with tr.span("ebd.leaves"):
            dist = pg.ebd(RootedSubtree(comp.subtree, comp.root), 2 * comp.measure / denom)
        tr.count("ebd.leaves.atoms", len(dist.atoms))
        for p, m in dist.atoms:
            expected[p] = expected.get(p, Fraction(0)) + m

    with tr.span("serialize.write"):
        texts = (serialize.write_attack(attack), serialize.write_patrol(patrol),
                 serialize.write_decomposition_report(net, dec, a_star, root, value))
    tr.count("serialize.write.bytes", sum(len(x) for x in texts))
    with tr.span("serialize.parse"):
        attack_back = serialize.parse_attack(net, texts[0])
        patrol_back = serialize.parse_patrol(net, texts[1])
    tr.count("serialize.parse.bytes", len(texts[0]) + len(texts[1]))
    with tr.span("serialize.write"):
        again = (serialize.write_attack(attack_back), serialize.write_patrol(patrol_back))
    tr.count("serialize.write.bytes", sum(len(x) for x in again))

    with tr.span("bench.check"):
        check(tour.duration == 2 * mu, "double traversal lasts twice the length")
        check(dec.lambda_e == ext.measure, "lambda(E) of the decomposition equals the extremity measure")
        check(value == alpha / denom, "value equals alpha/(mu + lambda(E))")
        check(all(w.duration == 2 * denom for w, _ in patrol.components),
              "patrol period equals 2(mu + lambda(E))")
        check(dict(attack.atoms) == expected, "attack atoms equal the per-component EBD")
        check(again == texts[:2], "write, parse, write gives identical bytes")


def probe_spine(t: TreeInput, tr) -> None:
    """Linear calls that recurse, on a deep tree rooted at a spine end."""
    net = pg.parse_network(t.text)
    with tr.span("network.walk"):
        tour = pg.double_traversal(net, "s0")
    with tr.span("ebd.leaves"):
        dist = pg.ebd(RootedSubtree(pg.SubNetwork.whole(net), net.node_point("s0")), 1)
    check(tour.duration == 2 * net.total_length and dist.total == 1, "spine tour and EBD")


# -- tree_verify -----------------------------------------------------------------


def _cli(tr, name: str, argv: list[str], outputs: list[Path]) -> None:
    out = io.StringIO()
    with tr.span(name), redirect_stdout(out):
        code = cli.main(argv)
    tr.count("cli.bytes_out", len(out.getvalue()) + sum(p.stat().st_size for p in outputs))
    check(code == 0, f"{argv[0]} exits with 0")


def verify_tree(t: TreeInput, path: Path, workdir: Path, index: int, tr) -> None:
    with tr.span("network.parse"):
        net = pg.parse_network(t.text)
    tr.count("network.parse.arcs", len(net.arcs))
    if t.alpha_share:
        with tr.span("decomposition.critical"):
            alpha = tree_alpha(pg.critical_alpha(net), t.alpha_share)
    else:
        alpha = Fraction(4)  # the demo tree's worked example
    with tr.span("decomposition.decompose"):
        dec = pg.subtree_decomposition(net, alpha)
    tr.count("decomposition.decompose.components", len(dec.components))
    with tr.span("strategies.value"):
        value = pg.game_value_tree(net, alpha)

    a = fmt(alpha)
    apath, ppath, rpath = (workdir / f"{t.name}.{ext}" for ext in ("attack", "patrol", "csv"))
    _cli(tr, "cli.attack", ["attack", str(path), "--alpha", a, "--epsilon", fmt(EPSILON),
                            "-o", str(apath)], [apath])
    _cli(tr, "cli.patrol", ["patrol", str(path), "--alpha", a, "--kind", "e", "-o", str(ppath)],
         [ppath])
    with tr.span("serialize.parse"):
        atext, ptext = apath.read_text(), ppath.read_text()
        attack = serialize.parse_attack(net, atext)
        patrol = serialize.parse_patrol(net, ptext)
    tr.count("serialize.parse.bytes", len(atext) + len(ptext))

    with tr.span("engine.grid"):
        grid = pg.evaluate(patrol, attack, alpha, method="grid", grid_step=GRID_STEP)
    if tr.enabled:
        tr.count("engine.grid.atoms", len(attack.discretized(GRID_STEP).atoms))
    jobs = min(1 + index % 2, MC_MAX_JOBS, os.cpu_count() or 1)
    t0 = time.perf_counter()
    with tr.span("engine.mc"), hostspeed.paused():
        mc = pg.evaluate(patrol, attack, alpha, method="mc", trials=MC_TRIALS, seed=index,
                         jobs=jobs)
    tr.count(f"engine.mc.j{jobs}.busy_s", time.perf_counter() - t0)
    tr.count(f"engine.mc.j{jobs}.trials", MC_TRIALS)
    period = patrol.components[0][0].duration
    with tr.span("engine.best_response"):
        br = pg.attacker_best_response(patrol, alpha, space_step=SPACE_STEP, extra_points=dec.roots)
    with tr.span("engine.best_response"):
        br_t = pg.attacker_best_response(patrol, alpha, space_step=SPACE_STEP,
                                         time_step=period / TIME_POINTS, extra_points=dec.roots)
    if tr.enabled:
        points = len(pg.SubNetwork.whole(net).grid_points(SPACE_STEP, extra=dec.roots))
        tr.count("engine.best_response.evaluations", points * (1 + TIME_POINTS))
    _cli(tr, "cli.simulate", ["simulate", str(path), "--patrol", str(ppath), "--attack", str(apath),
                              "--alpha", a, "--method", "exact", "-o", str(rpath)], [rpath])

    with tr.span("bench.check"):
        check(grid.probability >= value, "grid probability >= v*")
        check(br.probability >= value, "best response >= v*")
        check((br_t.point, br_t.probability) == (br.point, br.probability),
              "best response identical with and without the time grid")
        check(abs(mc.probability - float(grid.probability)) <= 4 * mc.ci_halfwidth,
              "Monte Carlo within 4 CI half-widths of the grid value")
        row = serialize.RESULT_HEADER + "\n" + serialize.result_csv_row(grid) + "\n"
        check(rpath.read_text() == row, "CLI result row matches the library")


# -- complete_search ---------------------------------------------------------------


def search_k4(s: SearchInput, tr) -> None:
    with tr.span("strategies.attack"):
        attack = pg.k4_tightness_attack(alpha=s.alpha)
    net = attack.network
    with tr.span("engine.search"):
        res = pg.patrol_search(net, attack, s.alpha, max_steps=s.max_steps,
                               offset_step=SEARCH_STEP, grid_step=SEARCH_STEP)
    tr.count("engine.search.walks", res.walks_examined)
    with tr.span("engine.walk_check"):
        replay = pg.walk_attack_probability(res.walk, attack, s.alpha, grid_step=SEARCH_STEP)
    with tr.span("bench.check"):
        check(res.probability < s.alpha / net.total_length,
              "search stays below alpha/mu (the bound is tight past mu - delta)")
        check(replay == res.probability, "search probability equals walk_attack_probability")


def _min_triangle(net) -> Fraction:
    length = {frozenset((a.u, a.v)): a.length for a in net.arcs}
    nodes = net.nodes
    return min(length[frozenset((x, y))] + length[frozenset((y, z))] + length[frozenset((x, z))]
               for i, x in enumerate(nodes) for j, y in enumerate(nodes[i + 1:], i + 1)
               for z in nodes[j + 1:])


def complete_factorize(c: CompleteInput, tr) -> None:
    with tr.span("network.parse"):
        net = pg.parse_network(c.text)
    tr.count("network.parse.arcs", len(net.arcs))
    if not c.certified:
        with tr.span("factorization.heuristic"):
            fact = pg.best_one_factorization(net, heuristic=True)
        with tr.span("factorization.validate"):
            violations = pg.validate_factorization(net, fact.factors, 1)
        with tr.span("bench.check"):
            check(not violations, "heuristic factorization is valid")
        return
    with tr.span("factorization.best"):
        fact = pg.best_one_factorization(net)
    with tr.span("factorization.round_robin"):
        rr = pg.round_robin_one_factorization(net)
    with tr.span("factorization.validate"):
        violations = pg.validate_factorization(net, fact.factors, 1)
    mu = net.total_length
    alpha = mu - fact.delta
    with tr.span("strategies.complete"):
        patrol = pg.complete_patrolling(net, fact)
    with tr.span("engine.best_response"):
        br = pg.attacker_best_response(patrol, alpha, space_step=COMPLETE_SPACE_STEP)
    if tr.enabled:
        tr.count("engine.best_response.evaluations",
                 len(pg.SubNetwork.whole(net).grid_points(COMPLETE_SPACE_STEP)))
    with tr.span("factorization.girth"):
        g = pg.girth(net)
    with tr.span("bench.check"):
        check(fact.certified and fact.delta <= rr.delta, "certified delta <= round-robin delta")
        check(not violations, "certified factorization is valid")
        check(br.probability >= alpha / mu, "complete-patrol best response >= alpha/mu")
        check(0 < g <= _min_triangle(net), "girth is positive and at most the lightest triangle")


def enumerate_counts(texts: dict[int, str], tr) -> None:
    counts = {}
    for n, text in texts.items():
        with tr.span("network.parse"):
            net = pg.parse_network(text)
        with tr.span("factorization.enumerate"):
            counts[n] = sum(1 for _ in pg.enumerate_one_factorizations(net))
        tr.count("factorization.enumerate.count", counts[n])
    with tr.span("bench.check"):
        check(all(counts[n] == ENUMERATION_COUNTS[n] for n in counts),
              "1-factorization counts are 1, 6 and 6240 on K4, K6 and K8")


# -- job lists ----------------------------------------------------------------------


def _job(item, workdir: Path | None, index: int) -> Job:
    if isinstance(item, SearchInput):
        return Job(item.name, lambda tr: search_k4(item, tr))
    if isinstance(item, CompleteInput):
        return Job(item.name, lambda tr: complete_factorize(item, tr))
    if isinstance(item, EnumerationInput):
        texts = {n: unit_complete_text(n) for n in item.sizes}
        return Job(item.name, lambda tr: enumerate_counts(texts, tr))
    if workdir is None:
        return Job(item.name, lambda tr: solve_tree(item, tr))
    path = workdir / f"{item.name}-{index}.net"
    path.write_text(item.text)
    return Job(item.name, lambda tr: verify_tree(item, path, workdir, index, tr))


def build_jobs(workload: str, inputs: WorkloadInputs, workdir: Path) -> list[list[Job]]:
    """The passes of a run, each a list of jobs in the order the client sends
    them.  Network files the CLI reads are written here, as part of set-up."""
    workdir = workdir if workload == "tree_verify" else None
    passes, index = [], inputs.seed * 1000
    for items in inputs.passes:
        passes.append([])
        for item in items:
            passes[-1].append(_job(item, workdir, index))
            index += 1
    return passes


def probe_jobs(inputs: WorkloadInputs) -> list[Job]:
    return [Job(t.name, lambda tr, t=t: probe_spine(t, tr)) for t in inputs.probes]
