"""Decision procedures for generalized Baumslag-Solitar groups.

The package decides the word problem, computes Britton-reduced and
cyclically Britton-reduced normal forms, and decides conjugacy (with
verified witnesses) for fundamental groups of finite graphs of groups whose
vertex and edge groups are all infinite cyclic.  It also converts between
commutative-monoid word-problem instances and elliptic conjugacy instances.
Words, normal forms and witnesses are all :class:`GFactorization` values,
and :func:`parse_factorization` is the one reader of word text; the
``--pi1`` reading, :func:`rebase`, runs it on each token and joins the
tokens to the base through the :func:`spanning_tree`.
The paper's colouring construction lives in ``gbs.britton`` and
``gbs.freegroup`` and is not exported; the tests check it and the fast
paths against the reference implementations in ``tests/oracles.py``.
"""

from .arith import solve_congruence
from .britton import (
    britton_reduce_fast,
    cyclically_reduce,
    word_problem,
)
from .conjugacy import (
    ConjResult,
    ConjVerdict,
    conj_elliptic,
    conj_hyperbolic,
    conjugate,
    hyperbolic_system,
)
from .graphs import (
    GbsError,
    GbsGraph,
    GFactorization,
    GraphError,
    WordError,
    bs_graph,
    invert,
    orientation,
    parse_factorization,
    parse_graph,
    rebase,
    spanning_tree,
    validate,
)
from .monoid import CongResult, MonPresentation, Verdict, congruent, gbs_to_monoid, monoid_to_gbs

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
