import random
from fractions import Fraction

import pytest

from patrolgame import Network, Walk, complete_network


@pytest.fixture
def sample_tree() -> Network:
    """Five-leaf tree of length 10 used as the standing worked example."""
    return make_sample_tree()


def make_sample_tree() -> Network:
    return Network(
        ["A", "B", "C", "L5", "L62", "L22", "L3", "L4"],
        [
            ("aL5", "A", "L5", 1),
            ("aL62", "A", "L62", 2),
            ("aAB", "A", "B", 1),
            ("bL22", "B", "L22", 2),
            ("bBC", "B", "C", 2),
            ("cL3", "C", "L3", 1),
            ("cL4", "C", "L4", 1),
        ],
    )


@pytest.fixture
def unit_k4() -> Network:
    return complete_network(4)


@pytest.fixture
def unit_k6() -> Network:
    return complete_network(6)


LENGTH_POOL = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1, 4), Fraction(3), Fraction(5, 2)]


def random_tree(rng: random.Random, max_nodes: int = 9, min_nodes: int = 2) -> Network:
    """Random attachment tree with rational lengths; at most max_nodes - 1 leaves."""
    n = rng.randint(min_nodes, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    arcs = []
    for i in range(1, n):
        parent = rng.randrange(i)
        arcs.append((f"e{i:02d}", nodes[parent], nodes[i], rng.choice(LENGTH_POOL)))
    return Network(nodes, arcs)


def random_alpha(rng: random.Random, tree: Network) -> Fraction:
    """Valid attack duration with a small denominator."""
    hi = 2 * tree.total_length
    num = rng.randint(1, int(hi * 4))
    return Fraction(num, 4)


def walk_fields(w: Walk, types: bool = True):
    """Every field of a walk, with the types of its offsets when `types`."""
    fields = (w.net, w.start, w.steps, w.end_point, w.duration, w._scale, w._arcs, w._ticks, w._offsets,
              w._stops)
    if not types:
        return fields
    offsets = [p.offset for p in (w.start, w.end_point)] + [o for s in w.steps for o in (s.start, s.end)]
    return fields, [type(o) for o in offsets], type(w.duration)
