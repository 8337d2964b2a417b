"""Finitely presented commutative monoid congruences, decided by binomial
completion, plus the two translations between elliptic conjugacy in a graph
of groups and monoid congruence instances.

Vectors are tuples of naturals.  A relation (r, s) may be applied to v in
either direction when the subtracted side fits componentwise, moving v to
``v - r + s`` or ``v - s + r``; two vectors are congruent exactly when a
chain of such moves links them.  Oriented from the larger side to the
smaller in a graded order, the relations form a rewriting system, and
completing it (Buchberger's algorithm restricted to binomials, after
Ballantyne and Lankford) leaves every class one normal form.

Every move adds ``s - r`` or subtracts it, so congruent vectors differ by an
element of the relation lattice L, the integer span of these differences.
The completion has no polynomial bound, but a pair whose difference lies
outside L is told apart by one integer elimination, before any completion.
:func:`gbs_to_monoid` derives the coprime basis of a graph's labels itself,
and its encoding builds the relations on first use.
"""
from __future__ import annotations

import enum
import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import add, ge, mul, sub
from typing import Optional, Sequence

from . import arith
from .graphs import Edge, GbsGraph, GbsError, InternalError, orientation

ExpVec = tuple  # tuple[int, ...]

# Step in a relation path: (relation index, +1 for r->s, -1 for s->r).
PathStep = tuple


class Verdict(enum.Enum):
    CONGRUENT = "congruent"
    NOT_CONGRUENT = "not-congruent"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MonPresentation:
    """Relations over vectors of length ``dim``.  The last ``units``
    coordinates, when there are any, are vertex units: every relation side
    holds exactly one, so every move keeps a vector's unit count, and the
    completion keeps one rule table per vertex (see :func:`_complete`)."""

    dim: int
    relations: tuple[tuple[ExpVec, ExpVec], ...]
    units: int = 0

    def __post_init__(self):
        if not 0 <= self.units <= self.dim:
            raise GbsError("unit count out of range")
        for r, s in self.relations:
            if len(r) != self.dim or len(s) != self.dim:
                raise GbsError("relation dimension mismatch")
            if min(r + s, default=0) < 0:
                raise GbsError("relation entries must be naturals")
            if self.units and not sum(r[-self.units:]) == sum(s[-self.units:]) == 1:
                raise GbsError("every relation side must hold exactly one unit")

    @cached_property
    def deltas(self) -> tuple[ExpVec, ...]:
        """s - r for each relation (r, s): a step r->s adds it to a vector,
        a step s->r subtracts it."""
        return tuple([tuple(map(sub, s, r)) for r, s in self.relations])

    @cached_property
    def _lattice(self) -> tuple[tuple[int, ExpVec], ...]:
        """The Hermite basis of the relation lattice L, the integer span of
        :attr:`deltas`, as ``(column, row)`` pairs with descending columns:
        each row is positive in its column, zero in every column after it,
        and below the entry of every later row in that row's column.

        Each difference is reduced from its last nonzero column down.  It
        becomes the pivot of the first column that has none, negated if its
        entry there is negative.  Otherwise the floor multiple of the pivot
        is subtracted, and a remainder left in the column replaces the pivot
        and the difference by their extended-gcd combination, the column's
        new pivot, and a row that vanishes in the column.  Every step is
        unimodular, so the pivots and what is left span L.  :func:`_settle`
        reduces each new pivot by those below it, which keeps entries small.
        One final pass, lowest column first, establishes the Hermite
        condition: it reduces each pivot by every final pivot below it.  An
        encoding's unit slots (:class:`MonoidEncoding`) come last and hold
        only 0 and +-1 in every difference, so they pivot on 1 first."""
        pivots: list = [None] * self.dim  # the pivot of each column, if any
        columns = range(self.dim - 1, -1, -1)
        for row in dict.fromkeys(self.deltas):
            for c in columns:
                b = row[c]
                if not b:
                    continue
                pivot = pivots[c]
                if pivot is None:
                    _settle(pivots, c, row if b > 0 else tuple([-x for x in row]))
                    break
                a = pivot[c]
                q, b = divmod(b, a)
                if q:
                    row = tuple([y - q * p for p, y in zip(pivot, row)])
                if b:  # 0 < b < a
                    g = math.gcd(a, b)
                    x, m = arith.solve_congruence(a, g, b)  # x*a + y*b = g, and m = b/g
                    y = (g - x * a) // b
                    _settle(pivots, c, tuple([x * u + y * v for u, v in zip(pivot, row)]))
                    row = tuple([m * u - a // g * v for u, v in zip(pivot, row)])
        basis: list = []  # the final pivots so far, ascending
        for c, pivot in enumerate(pivots):
            if pivot:
                basis.append((c, _reduced(pivot, reversed(basis))))
        return tuple(basis[::-1])

    def in_lattice(self, t: Sequence[int]) -> bool:
        """Whether the integer vector t lies in the relation lattice L.  The
        basis of :attr:`_lattice` is in Hermite form, so t lies in L exactly
        when its floor reduction by that basis (:func:`_reduced`) is zero."""
        return not any(_reduced(t, self._lattice))


def _settle(pivots: list, c: int, row: ExpVec) -> None:
    """Make row, positive in column c and zero after it, the pivot of c,
    reduced by the pivots below c as they stand.  The pivots above c are
    left as they are until the final pass of ``_lattice`` establishes the
    Hermite condition."""
    pivots[c] = _reduced(row, [(d, pivots[d]) for d in range(c - 1, -1, -1) if pivots[d]])


def _reduced(row: Sequence[int], pivots: Sequence[tuple[int, ExpVec]]) -> Sequence[int]:
    """Row less the floor multiple of each ``(column, pivot)`` in turn,
    columns descending, that leaves its entry in the pivot's range."""
    for d, pivot in pivots:
        q = row[d] // pivot[d]
        if q:
            row = tuple([y - q * p for p, y in zip(pivot, row)])
    return row


@dataclass(frozen=True)
class CongResult:
    verdict: Verdict
    path: Optional[tuple[PathStep, ...]] = None  # present on CONGRUENT
    reason: str = ""


def replay_path(
    e: ExpVec, path: Sequence[PathStep], pres: MonPresentation
) -> ExpVec:
    """Apply a relation path to e; raises if any step does not fit."""
    v = tuple(e)
    for idx, direction in path:
        r, s = pres.relations[idx]
        sub, add = (r, s) if direction > 0 else (s, r)
        if any(x < y for x, y in zip(v, sub)):
            raise GbsError(f"path step ({idx}, {direction}) does not fit {v}")
        v = tuple(x - y + z for x, y, z in zip(v, sub, add))
    return v


def _key(v: ExpVec) -> tuple:
    """The graded order: total degree first, then lexicographic."""
    return (sum(v), v)


def _reverse(steps: Sequence[PathStep]) -> list[PathStep]:
    return [(j, -d) for j, d in reversed(steps)]


def _normal_form(v: ExpVec, tables: dict, cut: int) -> tuple[ExpVec, list[PathStep]]:
    """Rewrite v by the first rule ``lhs: (rhs - lhs, equation)`` that fits
    in the table of its vertex, its unit slots ``v[cut:]``, until none does;
    the form and the steps."""
    steps = []
    while True:
        for lhs, (delta, i) in tables[v[cut:]].items():
            if all(map(ge, v, lhs)):
                v = tuple(map(add, v, delta))
                steps.append((i, 1))
                break
        else:
            return v, steps


def _complete(e: ExpVec, f: ExpVec, pres: MonPresentation, bound: Optional[int]):
    """Complete the presentation into a confluent rewriting system until e
    and f share a normal form, or to the end.

    ``eqs`` holds equations ``(u, v, path)``: path leads from u to v in
    steps ``(j, d)`` that apply equation j forwards (d = 1) or backwards
    (d = -1) and name only earlier equations.  The first equations are the
    relations themselves, with path None.  ``tables`` is the rewriting
    system, one ordered table ``u: (v - u, j)`` per vertex, keyed by left
    side, with u above v in the graded order and equation j proving u = v;
    the other equations stay only as derivations.  A vector's vertex is its
    unit slots ``u[cut:]``, empty without units.  Every vector met here holds
    one unit, so a rule never fits a vector of another vertex and no
    critical pair joins two vertices: rewriting, deleting and pairing read
    one table.  A new rule goes at the end of its table; the rules whose
    left side it divides are deleted (their equations are resolved again),
    and the right sides it divides, of any vertex, are rewritten in place,
    the vertex tables read in turn.  Rewriting applies the first rule in
    table order that fits.  A critical pair names its table and its two
    left sides, and is resolved, in the order of its lcm, with the right
    sides the table holds then.  It is skipped when the two left sides share
    no coordinate (Buchberger's first criterion), or when a coordinate of
    the lcm exceeds ``bound``.  After each new rule, e and f are rewritten
    further.  A pair holding more than one unit is refused with
    :class:`GbsError`.

    Returns ``(eqs, steps, capped)``: steps over ``eqs`` lead from e to f,
    or are None when the normal forms stay apart; ``capped`` says whether a
    pair skipped for the bound has both its left sides still in the table.
    """
    cut = pres.dim - pres.units
    if sum(e[cut:]) > 1 or sum(f[cut:]) > 1:
        raise GbsError("the completion takes vectors of at most one unit")
    eqs: list = [(r, s, None) for r, s in pres.relations]
    todo = [(r, s, ((j, 1),)) for j, (r, s) in enumerate(pres.relations)][::-1]
    tables = defaultdict(dict)  # unit slots -> {lhs: (rhs - lhs, equation)} of that vertex
    # A pair is live while both its left sides are keys of its table; a
    # rewritten right side keeps its key.  A deleted left side stays
    # divisible by some rule's left side (a rule is only deleted for one
    # that divides it), and a new left side is in normal form, so a deleted
    # key never returns.  The lcm key and equations order the heap, never the table.
    pairs: list = []  # heap of (graded key of the lcm, equation, equation, table, lhs, lhs)
    capped: list[tuple[dict, ExpVec, ExpVec]] = []
    ends = [(e, []), (f, [])]  # e and f as far as they are rewritten, with the steps taken

    while todo or pairs:
        if todo:
            u, v, path = todo.pop()
        else:
            _, _, _, table, a, b = heapq.heappop(pairs)
            if a not in table or b not in table:
                continue
            (da, i), (db, j) = table[a], table[b]
            lcm = tuple(map(max, a, b))
            u, v = tuple(map(add, lcm, da)), tuple(map(add, lcm, db))
            path = ((i, -1), (j, 1))
        u, pu = _normal_form(u, tables, cut)
        v, pv = _normal_form(v, tables, cut)
        if u == v:
            continue
        path = _reverse(pu) + list(path) + pv
        if _key(u) < _key(v):
            u, v, path = v, u, _reverse(path)
        new = len(eqs)
        eqs.append((u, v, tuple(path)))
        table = tables[u[cut:]]
        for lhs in [lhs for lhs in table if all(map(ge, lhs, u))]:
            k = table.pop(lhs)[1]
            todo.append((lhs, eqs[k][1], ((k, 1),)))
        table[u] = (tuple(map(sub, v, u)), new)
        top = max(t for t, x in enumerate(u) if x)  # u > v >= 0, so u is not zero
        for rules in list(tables.values()):  # rewriting may add an empty table
            for lhs, (_, k) in rules.items():
                rhs = eqs[k][1]
                if rhs[top] >= u[top] and all(map(ge, rhs, u)):  # never the new rule: v lies below u
                    rhs, steps = _normal_form(rhs, tables, cut)
                    rules[lhs] = (tuple(map(sub, rhs, lhs)), len(eqs))
                    eqs.append((lhs, rhs, ((k, 1), *steps)))
        for lhs, (_, k) in table.items():
            # k == new: u itself; the left sides share a coordinate where x * y > 0
            if k == new or not any(map(mul, lhs, u)):
                continue
            lcm = tuple(map(max, lhs, u))
            if bound is not None and max(lcm) > bound:
                capped.append((table, lhs, u))
                continue
            heapq.heappush(pairs, (_key(lcm), k, new, table, lhs, u))
        for end, (w, steps) in enumerate(ends):
            if all(map(ge, w, u)):  # only the new rule can apply to an end
                w, more = _normal_form(w, tables, cut)
                ends[end] = (w, steps + more)
        if ends[0][0] == ends[1][0]:
            return eqs, ends[0][1] + _reverse(ends[1][1]), False
    return eqs, None, any(a in table and b in table for table, a, b in capped)


def _support(v: ExpVec) -> int:
    """The coordinates where v is nonzero, as a bit mask."""
    return sum(1 << i for i, x in enumerate(v) if x)


def _reach(v: ExpVec, pres: MonPresentation) -> int:
    """The coordinates that a vector congruent to v can hold, as a bit
    mask: those of v, and the coordinates of every side that a move puts in
    once each coordinate of the side it takes away has been reached.  A
    move fits only a vector that holds the side it takes away, so every
    vector on a chain of moves from v holds reached coordinates only.

    The first move of a chain must fit v itself, not just its support, but
    that adds nothing here: a move that fits v opens anyway, and a v that
    no move fits has already been answered by :func:`congruent`."""
    moves = [(_support(a), _support(b)) for r, s in pres.relations for a, b in ((r, s), (s, r))]
    reached = _support(v)
    grown = True
    while grown:
        grown = False
        for away, put in moves:
            if not away & ~reached and put & ~reached:
                reached |= put
                grown = True
    return reached


def _cut_loops(start: ExpVec, path: Sequence[PathStep], pres: MonPresentation) -> list[PathStep]:
    """The relation path from start with every stretch that comes back to an
    earlier vector cut out."""
    at = {start: 0}  # vector -> number of steps kept when it was reached
    trail = [start]
    out: list[PathStep] = []
    v = start
    deltas = pres.deltas
    for idx, d in path:
        v = tuple(map(add if d > 0 else sub, v, deltas[idx]))
        if v in at:
            keep = at[v]
            for w in trail[keep + 1:]:
                del at[w]
            del trail[keep + 1:], out[keep:]
        else:
            out.append((idx, d))
            trail.append(v)
            at[v] = len(out)
    return out


def _relation_path(
    start: ExpVec, steps: Sequence[PathStep], eqs: list, pres: MonPresentation
) -> tuple[PathStep, ...]:
    """Expand steps over equations, taken from start, into relation steps.
    Every equation named is expanded once, from its own first vector, with
    its loops cut; paths move by translation, so the expansion fits wherever
    the equation applies."""
    need, stack = set(), [j for j, _ in steps]
    while stack:
        j = stack.pop()
        if j not in need:
            need.add(j)
            stack += [k for k, _ in eqs[j][2] or ()]
    paths: dict[int, list[PathStep]] = {}

    def splice(seq: Sequence[PathStep]) -> list[PathStep]:
        out: list[PathStep] = []
        for j, d in seq:
            out += paths[j] if d > 0 else _reverse(paths[j])
        return out

    for j in sorted(need):
        u, _, deriv = eqs[j]
        paths[j] = [(j, 1)] if deriv is None else _cut_loops(u, splice(deriv), pres)
    return tuple(_cut_loops(start, splice(steps), pres))


def congruent(
    e: ExpVec, f: ExpVec, pres: MonPresentation, bound: Optional[int] = None
) -> CongResult:
    """Decide whether e and f are congruent under the presentation.

    A vector that no relation side fits is alone in its class.  A pair
    whose difference ``f - e`` lies outside the relation lattice
    (:meth:`MonPresentation.in_lattice`), as does every pair whose unit
    counts differ, is NOT_CONGRUENT at any bound, with the reason ``outside
    the relation lattice``.  Otherwise the presentation is completed
    (:func:`_complete`) and e and f are rewritten to their normal forms.
    Equal normal forms give CONGRUENT with a relation path from e to f,
    replayed before it is returned; distinct ones give NOT_CONGRUENT.
    ``bound`` caps the coordinates of the critical pairs the completion
    resolves.  When the normal forms differ and it skipped a pair whose two
    left sides are both still rules at the end, the completion stops short.
    Then a vector that holds a coordinate the other's moves never reach
    (:func:`_reach`) is NOT_CONGRUENT with the reason ``support out of
    reach``, and any other pair is UNKNOWN.  Without a bound the completion
    always ends, by Dickson's lemma.  It
    keeps one rule table per vertex, so in a presentation with units it
    refuses, with :class:`GbsError`, a pair that holds more than one unit.
    """
    e, f = tuple(e), tuple(f)
    if len(e) != pres.dim or len(f) != pres.dim:
        raise GbsError("vector dimension mismatch")
    if any(x < 0 for x in e + f):
        raise GbsError("vectors must be naturals")
    if e == f:
        return CongResult(Verdict.CONGRUENT, ())
    for v in (e, f):
        if not any(all(map(ge, v, side)) for rel in pres.relations for side in rel):
            return CongResult(Verdict.NOT_CONGRUENT, reason="no relation applies")
    if not pres.in_lattice(tuple(map(sub, f, e))):
        return CongResult(Verdict.NOT_CONGRUENT, reason="outside the relation lattice")
    eqs, steps, stopped = _complete(e, f, pres, bound)
    if steps is None:
        if not stopped:
            return CongResult(Verdict.NOT_CONGRUENT, reason="distinct normal forms")
        if _support(f) & ~_reach(e, pres) or _support(e) & ~_reach(f, pres):
            return CongResult(Verdict.NOT_CONGRUENT, reason="support out of reach")
        return CongResult(Verdict.UNKNOWN, reason=f"completion capped at bound {bound}")
    path = _relation_path(e, steps, eqs, pres)
    try:
        end = replay_path(e, path, pres)
    except GbsError:
        end = None
    if end != f:
        raise InternalError("congruence path failed to replay")
    return CongResult(Verdict.CONGRUENT, path)


def parse_presentation(text: str) -> MonPresentation:
    """Parse a presentation file: a ``dim <m>`` line, then ``rel <r> ~ <s>``
    lines with comma-separated natural vectors; ``#`` starts a comment."""
    dim: Optional[int] = None
    relations: list[tuple[ExpVec, ExpVec]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "dim":
            if dim is not None or len(toks) != 2:
                raise GbsError(f"line {lineno}: bad dim line")
            if not toks[1].isdecimal():
                raise GbsError(f"line {lineno}: dim must be a natural number")
            dim = int(toks[1])
        elif toks[0] == "rel":
            if len(toks) != 4 or toks[2] != "~":
                raise GbsError(f"line {lineno}: expected rel <r> ~ <s>")
            if dim is None:
                raise GbsError(f"line {lineno}: rel before dim")
            relations.append((parse_vector(toks[1], dim), parse_vector(toks[3], dim)))
        else:
            raise GbsError(f"line {lineno}: unknown directive {toks[0]!r}")
    if dim is None:
        raise GbsError("missing dim line")
    return MonPresentation(dim, tuple(relations))


def parse_vector(text: str, dim: Optional[int] = None) -> ExpVec:
    try:
        vec = tuple(int(t) for t in text.split(",")) if text else ()  # '' is dim 0's vector
    except ValueError:
        raise GbsError(f"malformed vector {text!r}") from None
    if any(x < 0 for x in vec):
        raise GbsError(f"vector {text!r} has negative entries")
    if dim is not None and len(vec) != dim:
        raise GbsError(f"vector {text!r} should have {dim} entries")
    return vec


@dataclass(frozen=True)
class MonoidEncoding:
    """Elliptic conjugacy of a graph of groups as a monoid congruence.

    ``basis`` is a coprime basis of the edge labels, built by gcds
    (:func:`arith.coprime_basis`): pairwise coprime, every label plus or
    minus a product of their powers.  Exponent vectors have a sign slot,
    one slot per basis element and one unit slot per vertex.  As the basis
    is coprime, alpha divides k exactly when k's basis exponents dominate
    alpha's, and the residual of k that no basis element divides is kept by
    every move.  Each inverse-edge pair contributes one relation identifying
    alpha at the source with beta at the target; each vertex gets a sign
    relation absorbing squared signs.  Every relation side holds one vertex
    unit, so the vertex slots are the presentation's units, and the
    completion for a vertex power keeps one rule table per vertex: a rule of
    one vertex never fits a vector of another, and no critical pair joins
    two vertices.  Relation i is ``edges[i]``, the ``orientation(graph)[i]``
    edge, while i is below the number of pairs, a sign relation after;
    applied r->s, it conjugates by the edge's inverse, s->r by the edge.
    """

    graph: GbsGraph
    basis: tuple[int, ...]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edge of each edge relation, found on first use."""
        return tuple([self.graph.by_name[n] for n in orientation(self.graph)])

    def split(self, vertex: str, k: int) -> tuple[int, ExpVec]:
        """The residual of a nonzero vertex power's exponent k over the
        basis, and its vector: the sign bit, the exponents of k over the
        basis, then the unit vector of the vertex.  Two powers with
        different residuals are never conjugate."""
        if vertex not in self.graph.vertex_set:
            raise GbsError(f"unknown vertex {vertex!r}")
        residual, exps = arith.split(k, self.basis)
        return residual, (int(k < 0),) + exps + tuple([int(v == vertex) for v in self.graph.vertices])

    @cached_property
    def presentation(self) -> MonPresentation:
        """The relations, built on first use: a pair told apart by its
        residuals needs none."""
        vertices = self.graph.vertices
        relations = [(self.split(e.src, e.alpha)[1], self.split(e.dst, e.beta)[1]) for e in self.edges]
        sign_one = (2,) + (0,) * len(self.basis)
        for v in vertices:
            unit = tuple([int(u == v) for u in vertices])
            relations.append((sign_one + unit, (0,) * len(sign_one) + unit))
        return MonPresentation(len(sign_one) + len(vertices), tuple(relations), len(vertices))

    def conjugator_path(self, path: Sequence[PathStep]) -> tuple[str, ...]:
        """Edge names of a conjugator for a relation path: a step r->s
        conjugates by the inverse of its relation's edge, a step s->r by the
        edge, a sign step by nothing, and the steps compose right to left,
        so the word maps the path's start to its end."""
        edges = self.edges
        return tuple(
            edges[i].inv if d > 0 else edges[i].name
            for i, d in reversed(path) if i < len(edges)
        )


def gbs_to_monoid(graph: GbsGraph) -> MonoidEncoding:
    """The encoding whose congruences mirror elliptic conjugacy in the graph
    of groups, over the coprime basis of its labels; its relations are
    built on first use.  The graph is taken as valid (see
    ``graphs.validate``), as ``graphs.parse_graph`` returns it."""
    return MonoidEncoding(graph, arith.coprime_basis(e.alpha for e in graph.edges))


def monoid_to_gbs(
    pres: MonPresentation, e: ExpVec, f: ExpVec
) -> tuple[GbsGraph, int, int]:
    """Build a one-vertex graph of groups whose elliptic conjugacy question
    ``a^k ~ a^l`` matches the congruence question e ~ f.

    Presentations must be normalized: every relation side and both input
    vectors have at most four nonzero entries, each at most 2.  The m first
    primes encode the coordinates; relation sides become the alpha and beta
    of one loop pair each.
    """
    m = pres.dim
    for vec in [e, f, *(v for r in pres.relations for v in r)]:
        if len(vec) != m:
            raise GbsError("vector dimension mismatch")
        if sum(1 for x in vec if x) > 4 or any(x > 2 or x < 0 for x in vec):
            raise GbsError("vectors must have <= 4 nonzero entries, each <= 2")
    primes = arith.first_primes(m)

    def value(vec: ExpVec) -> int:
        v = 1
        for p, x in zip(primes, vec):
            v *= p ** x
        return v

    edges = []
    for i, (r, s) in enumerate(pres.relations):
        edges.append(Edge(f"y{i}", "a", "a", value(r), value(s), f"Y{i}"))
        edges.append(Edge(f"Y{i}", "a", "a", value(s), value(r), f"y{i}"))
    graph = GbsGraph(("a",), tuple(edges))
    return graph, value(e), value(f)
