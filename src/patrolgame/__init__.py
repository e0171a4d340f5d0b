"""Continuous patrolling games on metric networks.

Library for decomposing tree networks into extremity components, building
the matching attacker and patroller strategies, factorizing complete
networks, and evaluating interception probabilities exactly or by seeded
Monte Carlo.
"""

from .decomposition import (
    ExtremitySet,
    SubtreeDecomposition,
    TreeComponent,
    core,
    critical_alpha,
    extremity_set,
    local_root_of_tree,
    subtree_decomposition,
)
from .ebd import LeafDistribution, RootedSubtree, density, ebd
from .engine import (
    BestResponse,
    EvaluationResult,
    SearchResult,
    attacker_best_response,
    evaluate,
    intercept,
    interception_probability,
    patrol_search,
    walk_attack_probability,
)
from .errors import FactorizationError, FormatError, SizeGuardError, ValidationError
from .factorization import (
    Factorization,
    best_one_factorization,
    enumerate_one_factorizations,
    girth,
    round_robin_one_factorization,
    validate_factorization,
)
from .network import (
    Arc,
    Network,
    Point,
    Segment,
    Step,
    SubNetwork,
    Walk,
    complete_network,
    components_after_removal,
    double_traversal,
    eulerian_tour,
    format_network,
    frac,
    parse_network,
    path_network,
    star_network,
    validate_alpha,
    walk_through_nodes,
)
from .strategies import (
    AttackStrategy,
    PatrolStrategy,
    TemporalLaw,
    UniformPart,
    complete_patrolling,
    e_patrolling,
    epsilon_horizon,
    factor_patrolling,
    game_value_tree,
    k4_tightness_attack,
    tree_attack_strategy,
    uniform_attack,
    value_complete,
)

__version__ = "0.1.0"
