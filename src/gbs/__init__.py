"""Decision procedures for generalized Baumslag-Solitar groups.

The package decides the word problem, computes Britton-reduced and
cyclically Britton-reduced normal forms, and decides conjugacy (with
verified witnesses) for fundamental groups of finite graphs of groups whose
vertex and edge groups are all infinite cyclic.  It also converts between
commutative-monoid word-problem instances and elliptic conjugacy instances,
and ships brute-force oracles for cross-checking every fast path.
"""

from .arith import ExactRational, FactoredInt, PrimeSet, factor_over, solve_congruence, valuation
from .britton import (
    ColorTable,
    PrefixRatios,
    britton_reduce_fast,
    britton_reduce_naive,
    color,
    cyclically_reduce,
    is_britton_reduced,
    k_interval,
    rho,
    sim_c,
    vertex_group_exponent,
    word_problem,
)
from .conjugacy import (
    ConjResult,
    ConjVerdict,
    conj_brute,
    conj_elliptic,
    conj_elliptic_bs,
    conj_hyperbolic,
    conjugate,
    hyperbolic_system,
)
from .freegroup import embed_f2, free_reduce_classes, free_reduce_stack, is_trivial
from .graphs import (
    EdgeLetter,
    GbsError,
    GbsGraph,
    GFactorization,
    GraphError,
    VertexPower,
    WordError,
    bs_graph,
    invert,
    letters_to_text,
    orientation,
    parse_factorization,
    parse_graph,
    parse_word,
    rebase,
    spanning_tree,
    to_factorization,
    validate,
)
from .monoid import CongResult, MonPresentation, Verdict, congruent, gbs_to_monoid, monoid_to_gbs

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
