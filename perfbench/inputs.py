"""Seeded input generation for the benchmark.

Every input is a pure function of the workload seed: network text is written
here, never produced by the library, so the program under test receives only
generated text and the objects it parses from it.  Sizes follow fixed ladders
(log-uniform rungs) while the seed draws structure, arc lengths and attack
durations; the cost of a pass therefore depends on the seed only through the
shape of the inputs, not through how large they happen to be.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

LENGTH_POOL = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
               Fraction(1, 4), Fraction(3), Fraction(5, 2))

# Passes generated per run; a run that outlasts them sends them again.
PASSES = 12
# tree_solve: random-attachment trees on a log-uniform ladder of node counts.
SOLVE_SIZE_RANGE = (30, 160)
SOLVE_RUNGS = 12
# Deep spine trees for the recursion probe: arcs on the spine, and whether
# short leaves hang off it (the largest is a bare path).
PROBE_SPINES = ((2000, True), (5000, True), (10000, False))
# tree_verify: the demo tree plus seeded trees of these node counts.
VERIFY_SIZES = (8, 12, 16, 20, 24)
# complete_search: durations of the K4 tightness attack.
TIGHTNESS_ALPHAS = (Fraction(9, 2), Fraction(5), Fraction(11, 2), Fraction(6))
# The five-step search runs at the duration where the K4 bound is 5/6; a
# seeded duration would make the cost of the pass depend on the seed.
LONG_SEARCH_ALPHA = Fraction(5)

SAMPLE_TREE = """\
# Five-leaf tree of total length 10 (the package's demo tree).
node A
node B
node C
node L5
node L62
node L22
node L3
node L4
arc aL5 A L5 1
arc aL62 A L62 2
arc aAB A B 1
arc bL22 B L22 2
arc bBC B C 2
arc cL3 C L3 1
arc cL4 C L4 1
"""


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def network_text(nodes, arcs) -> str:
    lines = [f"node {n}" for n in nodes]
    lines += [f"arc {aid} {u} {v} {fmt(length)}" for aid, u, v, length in arcs]
    return "\n".join(lines) + "\n"


def tree_text(rng: random.Random, n: int) -> str:
    """Random-attachment tree: node i hangs off a uniformly chosen earlier node."""
    nodes = [f"n{i}" for i in range(n)]
    arcs = [(f"e{i:04d}", nodes[rng.randrange(i)], nodes[i], rng.choice(LENGTH_POOL))
            for i in range(1, n)]
    return network_text(nodes, arcs)


def spine_text(rng: random.Random, arcs_on_spine: int, leaves: bool) -> str:
    """A path of unit arcs; with `leaves`, about one node in ten also carries
    a short pendant arc, so the tree is deep but not a bare path."""
    nodes = [f"s{i}" for i in range(arcs_on_spine + 1)]
    arcs = [(f"a{i:05d}", nodes[i], nodes[i + 1], Fraction(1)) for i in range(arcs_on_spine)]
    if leaves:
        for i in range(1, arcs_on_spine):
            if rng.random() < 0.1:
                nodes.append(f"t{i}")
                arcs.append((f"b{i:05d}", f"s{i}", f"t{i}", rng.choice(LENGTH_POOL)))
    return network_text(nodes, arcs)


def complete_text(rng: random.Random, n: int) -> str:
    """Complete network on n nodes with lengths drawn from the rational pool."""
    nodes = [f"v{i}" for i in range(1, n + 1)]
    arcs = [(f"{nodes[i]}-{nodes[j]}", nodes[i], nodes[j], rng.choice(LENGTH_POOL))
            for i in range(n) for j in range(i + 1, n)]
    return network_text(nodes, arcs)


def unit_complete_text(n: int) -> str:
    nodes = [f"v{i}" for i in range(1, n + 1)]
    return network_text(nodes, [(f"{x}-{y}", x, y, 1)
                                for i, x in enumerate(nodes) for y in nodes[i + 1:]])


def ladder(lo: int, hi: int, rungs: int) -> list[int]:
    """Geometric midpoints of `rungs` equal log-width strata of [lo, hi)."""
    r = math.log(hi / lo)
    return [round(lo * math.exp(r * (k + 0.5) / rungs)) for k in range(rungs)]


def alpha_fraction(rng: random.Random) -> Fraction:
    """Share of the critical duration given to a tree job: strictly inside
    (0, 1), so the core and the extremity components are both non-trivial."""
    return Fraction(rng.randint(35, 65), 100)


@dataclass(frozen=True)
class TreeInput:
    name: str  # job class: jobs of one class are exchangeable draws
    text: str
    alpha_share: Fraction  # attack duration as a share of the critical one


@dataclass(frozen=True)
class SearchInput:
    name: str
    alpha: Fraction
    max_steps: int


@dataclass(frozen=True)
class CompleteInput:
    name: str
    text: str
    certified: bool  # certified optimum (n <= 8) or heuristic


@dataclass(frozen=True)
class EnumerationInput:
    name: str
    sizes: tuple[int, ...]  # unit complete networks to count 1-factorizations of


@dataclass(frozen=True)
class WorkloadInputs:
    """Jobs for one run: `passes` are sent in order and cycled if the run
    outlasts them."""

    seed: int
    passes: tuple[tuple, ...]
    probes: tuple[TreeInput, ...] = ()

    def digest(self) -> str:
        """SHA-256 over every generated input, so two runs can be shown to
        have used identical inputs."""
        h = hashlib.sha256()
        for group in (*self.passes, self.probes):
            for item in group:
                h.update(json.dumps([type(item).__name__, *map(str, vars(item).values())]).encode())
        return h.hexdigest()


def tree_solve_inputs(seed: int) -> WorkloadInputs:
    rng = random.Random(f"tree_solve:{seed}")
    sizes = ladder(*SOLVE_SIZE_RANGE, SOLVE_RUNGS)
    passes = tuple(tuple(TreeInput(f"solve-n{n}", tree_text(rng, n), alpha_fraction(rng))
                         for n in sizes) for _ in range(PASSES))
    probes = tuple(TreeInput(f"spine-{k}", spine_text(rng, k, leaves), Fraction(0))
                   for k, leaves in PROBE_SPINES)
    return WorkloadInputs(seed, passes, probes=probes)


def tree_verify_inputs(seed: int) -> WorkloadInputs:
    rng = random.Random(f"tree_verify:{seed}")
    passes = tuple((TreeInput("verify-sample", SAMPLE_TREE, Fraction(0)),
                    *(TreeInput(f"verify-n{n}", tree_text(rng, n), alpha_fraction(rng))
                      for n in VERIFY_SIZES)) for _ in range(PASSES))
    return WorkloadInputs(seed, passes)


def complete_search_inputs(seed: int) -> WorkloadInputs:
    rng = random.Random(f"complete_search:{seed}")
    passes = tuple((
        CompleteInput("k6", complete_text(rng, 6), True),
        EnumerationInput("enumerate-small", (4, 6)),
        CompleteInput("k10", complete_text(rng, 10), False),
        CompleteInput("k12", complete_text(rng, 12), False),
        *(SearchInput(f"search-a{fmt(a)}", a, 4)
          for a in rng.sample(TIGHTNESS_ALPHAS, len(TIGHTNESS_ALPHAS))),
        CompleteInput("k8", complete_text(rng, 8), True),
        SearchInput("search-s5", LONG_SEARCH_ALPHA, 5),
        EnumerationInput("enumerate-k8", (8,)),
    ) for _ in range(PASSES))
    return WorkloadInputs(seed, passes)


GENERATORS = {
    "tree_solve": tree_solve_inputs,
    "tree_verify": tree_verify_inputs,
    "complete_search": complete_search_inputs,
}
