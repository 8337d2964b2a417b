"""Conjugacy decision for closed factorizations.

After cyclic Britton reduction a word is either elliptic (a single vertex
power) or hyperbolic (at least one edge).  Hyperbolic pairs are decided by
rotating one operand over the other and, for each rotation with the same
underlying path, walking the loop once with integers to find the conjugating
vertex power: one linear congruence per edge and one closing equation.  The
rotations are walked in place, without building them, and each distinct
rotation once, so a proper power ``u^m`` costs no more walks than u alone;
a negative pair of periodic paths whose exponents differ still costs one
O(n) walk per aligned rotation.
Elliptic pairs reduce to a commutative-monoid congruence of exponent vectors
over a coprime basis of the edge labels, which the encoding derives from the
graph by gcds; it builds its relations on first use.  Two cheap invariants
decide most negatives first: the residuals that the basis leaves must agree,
which builds no relation, and the difference of the two vectors must lie in
the lattice of the relation differences, tested by one integer elimination.
Only the pairs that pass both reach the completion; only a caller's coordinate
bound can stop it short, so the verdict is three-valued.  Every positive
answer carries a witness verified against the word problem; one that fails
raises :class:`InternalError`, never a negative verdict.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from . import arith, monoid
from .britton import cyclically_reduce_with_conjugator, word_problem
from .graphs import (
    GbsError,
    GbsGraph,
    GFactorization,
    InternalError,
    WordError,
    concat,
    invert,
    tree_path,
)


class ConjVerdict(enum.Enum):
    CONJUGATE = "conjugate"
    NOT_CONJUGATE = "not-conjugate"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConjResult:
    """A verdict; on CONJUGATE, ``witness`` is a word z from w's base to
    v's with ``z v z^-1 = w``, verified before it is returned."""

    verdict: ConjVerdict
    witness: Optional[GFactorization] = None
    reason: str = ""


def verify_conjugator(z: GFactorization, v: GFactorization, w: GFactorization) -> bool:
    """Whether ``z v z^-1 w^-1`` is a valid closed word representing the
    identity.  :func:`concat` checks every seam, which forces z to run from
    w's base to v's; a word that does not join up is no witness."""
    try:
        return word_problem(concat(z, v, invert(z), invert(w)))
    except WordError:
        return False


def _verified(kind: str, v: GFactorization, w: GFactorization, build) -> ConjResult:
    """CONJUGATE with the witness ``build()`` makes.  Its parts come from
    this package, so a witness that does not join up into a word or does
    not verify raises :class:`InternalError`, never a verdict."""
    try:
        z = build()
    except GbsError:
        z = None
    if z is None or not verify_conjugator(z, v, w):
        raise InternalError(f"{kind} conjugator failed verification")
    return ConjResult(ConjVerdict.CONJUGATE, z)


def _underlying_path(f: GFactorization) -> tuple[str, ...]:
    return tuple(name for name, _ in f.steps)


def hyperbolic_system(v: GFactorization, w: GFactorization, r: int = 0) -> Optional[int]:
    """The integer x with ``base^x v base^-x`` equal to rotation r of w (the
    word ``w.steps[r:] + w.steps[:r]``), for two cyclically reduced
    hyperbolic factorizations, or None.  The rotation is read where it lies,
    at index ``(i + r) % n`` of w, so nothing is copied.

    Matching the two words through Britton moves forces one condition per
    edge: walking the loop backwards, the carried power ``cur`` must be
    divisible by the edge's beta before it crosses to alpha * cur / beta, and
    after the last edge ``x + cur`` must vanish.  The walk keeps x and cur
    affine in one unknown s, ``x = c + m*s`` and ``cur = p + q*s``; each
    divisibility restricts s to a progression, and the closing equation
    ``(m + q) s = -(c + p)`` has one solution, every s (ratio product one)
    or none.  m divides the product of the betas, so every number stays
    linear in the input size.

    The rotation must trace v's path: a length mismatch, or an edge where
    the walk finds the rotation off v's path, raises :class:`WordError`, so
    no x is ever returned for such a pair.
    """
    n = v.n
    if n == 0 or w.n != n:
        raise WordError("hyperbolic_system needs two hyperbolic words of one length")
    by_name = v.graph.by_name
    ws = w.steps
    c, m, p, q = 0, 1, 0, -1
    for i in range(n - 1, -1, -1):
        name, k = v.steps[i]
        wname, wk = ws[(i + r) % n]
        if wname != name:
            raise WordError(f"rotation {r} of w leaves the path of v at edge {i}")
        e = by_name[name]
        p += k - wk
        sol = arith.solve_congruence(q, -p, e.beta)
        if sol is None:
            return None
        s0, step = sol
        c, m = c + m * s0, m * step
        p, q = p + q * s0, q * step
        p, q = e.alpha * (p // e.beta), e.alpha * (q // e.beta)
    if m + q == 0:
        return c if c + p == 0 else None
    s, rem = divmod(-(c + p), m + q)
    return None if rem else c + m * s


def _borders(seq: Sequence) -> list[int]:
    """``border[i]``: the length of the longest proper border of
    ``seq[:i + 1]`` (the Knuth-Morris-Pratt prefix function)."""
    border = [0] * len(seq)
    b = 0
    for i in range(1, len(seq)):
        while b and seq[i] != seq[b]:
            b = border[b - 1]
        if seq[i] == seq[b]:
            b += 1
        border[i] = b
    return border


def _rotation_period(seq: Sequence) -> int:
    """The least d >= 1 with ``seq[d:] + seq[:d] == seq``: the smallest
    period of seq when it divides ``len(seq)``, else ``len(seq)``."""
    n = len(seq)
    d = n - _borders(seq)[-1]
    return d if n % d == 0 else n


def _aligned_rotations(path: Sequence[str], wpath: Sequence[str]):
    """Every r with ``wpath[r:] + wpath[:r] == path``, ascending: one
    Knuth-Morris-Pratt pass of path over wpath followed by wpath[:-1]."""
    n = len(path)
    border = _borders(path)
    b = 0
    for i, name in enumerate(wpath + wpath[:-1]):
        while b and name != path[b]:
            b = border[b - 1]
        if name == path[b]:
            b += 1
            if b == n:
                yield i - n + 1
                b = border[b - 1]


def conj_hyperbolic(
    v: GFactorization, w: GFactorization
) -> Optional[tuple[int, int]]:
    """First rotation of w aligning its underlying path with v's that admits
    a conjugating vertex power, as ``(rotation, x)``; None when no rotation
    works.  Both inputs must be cyclically reduced, hyperbolic, and start
    with an edge letter.

    Each aligned rotation is walked in place by :func:`hyperbolic_system`.
    Rotations r and r + d give the same word when d is w's rotation period
    (:func:`_rotation_period` of its ``(edge, exponent)`` steps), so the
    loop stops at the first aligned r >= d: each distinct rotation is
    walked once, so a proper power ``u^m`` costs at most ``len(u)`` walks
    whatever m, one when u has one edge.  A negative pair of periodic paths
    whose exponents differ still costs one O(n) walk per aligned rotation.
    """
    for f in (v, w):
        if f.n == 0 or f.k0 != 0 or not f.is_closed:
            raise WordError("expected a cyclically reduced hyperbolic word")
    if v.n != w.n:
        return None
    period = _rotation_period(w.steps)
    for r in _aligned_rotations(_underlying_path(v), _underlying_path(w)):
        if r >= period:
            break
        x = hyperbolic_system(v, w, r)
        if x is not None:
            return r, x
    return None


def conj_elliptic(
    a: str,
    k: int,
    b: str,
    ell: int,
    graph: GbsGraph,
    bound: Optional[int] = None,
) -> ConjResult:
    """Conjugacy of the vertex powers ``a^k`` and ``b^ell``: the residuals
    that the coprime basis of the labels leaves must agree, and the exponent
    vectors must be congruent in the derived monoid (see
    :func:`monoid.gbs_to_monoid`), which builds its relations only then and
    tests its lattice before its completion; a congruence path maps back to
    an edge-path conjugator, and ``1`` at a to ``1`` at b takes a tree path.
    Every witness is verified.  ``bound`` caps the completion's
    coordinates, the sign and basis exponents (see :func:`monoid.congruent`);
    when it stops the completion short, the verdict is UNKNOWN."""
    for v in (a, b):  # an unknown vertex is an error on every path
        if v not in graph.vertex_set:
            raise WordError(f"unknown vertex {v!r}")
    if k == 0 and ell == 0:  # any path from b to a conjugates 1 at a to 1 at b
        steps = tuple((name, 0) for name in tree_path(graph, b, a))
    elif k == 0 or ell == 0:
        return ConjResult(ConjVerdict.NOT_CONJUGATE, reason="only 1 is conjugate to 1")
    else:
        enc = monoid.gbs_to_monoid(graph)
        rk, e = enc.split(a, k)
        rl, f = enc.split(b, ell)
        if rk != rl:
            return ConjResult(ConjVerdict.NOT_CONJUGATE, reason="residual mismatch")
        res = monoid.congruent(e, f, enc.presentation, bound)
        if res.verdict is monoid.Verdict.NOT_CONGRUENT:
            return ConjResult(ConjVerdict.NOT_CONJUGATE, reason=res.reason)
        if res.verdict is monoid.Verdict.UNKNOWN:
            return ConjResult(ConjVerdict.UNKNOWN, reason=res.reason)
        steps = tuple((name, 0) for name in enc.conjugator_path(res.path))
    va, wb = GFactorization._trusted(graph, a, k, ()), GFactorization._trusted(graph, b, ell, ())
    return _verified("elliptic", va, wb, lambda: GFactorization(graph, b, 0, steps))


def conjugate(
    v: GFactorization, w: GFactorization, bound: Optional[int] = None
) -> ConjResult:
    """Decide conjugacy of two closed factorizations.

    Both are cyclically reduced first.  Two elliptic words go through the
    monoid route (the one place an UNKNOWN can arise, and only under a
    ``bound``); two hyperbolic words go through rotations and the exact
    conjugating-power system; a mixed pair, or hyperbolic words of different
    lengths, cannot be conjugate.
    """
    if v.graph != w.graph:
        raise GbsError("words live over different graphs")
    graph = v.graph
    vh, zv = cyclically_reduce_with_conjugator(v)
    wh, zw = cyclically_reduce_with_conjugator(w)

    if vh.n == 0 and wh.n == 0:
        res = conj_elliptic(vh.base, vh.k0, wh.base, wh.k0, graph, bound)
        # bare powers reduce to themselves with empty conjugators, so
        # conj_elliptic has already verified this witness for v and w
        if res.verdict is not ConjVerdict.CONJUGATE or (v.n == 0 and w.n == 0):
            return res
        return _verified("elliptic", v, w, lambda: concat(invert(zw), res.witness, zv))

    if vh.n != wh.n or vh.n == 0 or wh.n == 0:
        return ConjResult(
            ConjVerdict.NOT_CONJUGATE, reason="cyclically reduced shapes differ"
        )

    found = conj_hyperbolic(vh, wh)
    if found is None:
        return ConjResult(
            ConjVerdict.NOT_CONJUGATE, reason="no rotation admits a conjugating power"
        )
    r, x = found
    # rotation r of wh is zr wh zr^-1 (zr is empty at r = 0, not the whole
    # loop), and base^x conjugates vh to it
    zr = GFactorization._trusted(graph, graph.by_name[wh.steps[r][0]].src, 0, wh.steps[r:] if r else ())
    middle = GFactorization._trusted(graph, vh.base, x, ())
    return _verified("hyperbolic", v, w, lambda: concat(invert(zw), invert(zr), middle, zv))
