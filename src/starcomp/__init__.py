"""starcomp: exact-arithmetic star complement toolkit.

Verify and search star sets for rational graph eigenvalues, enumerate the
maximal graphs admitting a prescribed star complement, and reproduce the
classification of regular graphs whose star complement is a complete split
graph.  All linear algebra is exact; nothing is ever rounded.
"""

from .extend import (
    Candidate,
    PairClass,
    assemble_graph,
    build_compat_graph,
    degree_balance,
    enumerate_candidates,
    maximal_extensions,
    pair_class,
)
from .graphs import (
    Graph,
    Graph6Error,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_isomorphic,
    is_regular,
    join,
    make_cocktail,
    make_complete_split,
    matching_graph,
    parse_graph6,
    path_graph,
    relabel,
    write_graph6,
)
from .linalg import (
    NotAnEigenvalueError,
    Polynomial,
    SingularResolventError,
    adjacency_matrix,
    char_poly,
    eig_multiplicity,
    format_rational,
    is_nonmain,
    min_poly,
    parse_rational,
    rank,
    resolvent_bilinear,
    resolvent_via_minpoly,
)
from .multipartite import (
    BlockSpec,
    TypeVector,
    closed_bilinear,
    coeffs,
    corollary_ab,
    diag_constraint,
    minpoly_formula,
    nonmain_constraint,
    power_blocks,
    quadratic_in_a,
    resolvent_block,
    solution_explorer,
    theorem_check,
)
from .starsets import (
    BudgetExceededError,
    InvalidStarSetError,
    eigenspace_from_star,
    find_star_sets,
    verify_star_set,
)

__version__ = "0.1.0"
