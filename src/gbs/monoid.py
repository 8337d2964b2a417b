"""Finitely presented commutative monoid congruences, decided by bounded
bidirectional closure, plus the two translations between elliptic conjugacy
in a graph of groups and monoid congruence instances.

Vectors are tuples of naturals.  A relation (r, s) may be applied to v in
either direction when the subtracted side fits componentwise, moving v to
``v - r + s`` or ``v - s + r``; two vectors are congruent exactly when a
chain of such moves links them.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from . import arith
from .graphs import EdgeLetter, GbsGraph, GbsError, InternalError, Letter, orientation, validate

ExpVec = tuple  # tuple[int, ...]

# Step in a relation path: (relation index, +1 for r->s, -1 for s->r).
PathStep = tuple


class Verdict(enum.Enum):
    CONGRUENT = "congruent"
    NOT_CONGRUENT = "not-congruent"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MonPresentation:
    dim: int
    relations: tuple[tuple[ExpVec, ExpVec], ...]

    def __post_init__(self):
        for r, s in self.relations:
            if len(r) != self.dim or len(s) != self.dim:
                raise GbsError("relation dimension mismatch")
            if any(x < 0 for x in r + s):
                raise GbsError("relation entries must be naturals")


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


def _lattice_solvable(deltas: list[tuple[int, ...]], target: tuple[int, ...]) -> bool:
    """Whether target lies in the integer span of the given vectors.

    Row-reduces the generators over the integers (extended gcd elimination)
    and then reduces the target against the resulting triangular basis.
    """
    rows = [list(d) for d in deltas if any(d)]
    dim = len(target)
    basis: list[list[int]] = []
    for col in range(dim):
        pivot = None
        for row in rows:
            if row[col]:
                if pivot is None:
                    pivot = row
                else:
                    # fold row into pivot so pivot[col] becomes the gcd
                    while row[col]:
                        q = pivot[col] // row[col]
                        for t in range(dim):
                            pivot[t] -= q * row[t]
                        pivot, row = row, pivot
        if pivot is not None:
            rows = [row for row in rows if row is not pivot]
            basis.append(pivot)
    t = list(target)
    for pivot in basis:
        col = next(c for c in range(dim) if pivot[c])
        if t[col] % pivot[col]:
            return False
        q = t[col] // pivot[col]
        for c in range(dim):
            t[c] -= q * pivot[c]
    return not any(t)


def default_bound(e: ExpVec, f: ExpVec, pres: MonPresentation) -> int:
    """Coordinate cap covering the test corpus: largest input coordinate plus
    sixteen times one more than the total relation norm."""
    norm = sum(sum(r) + sum(s) for r, s in pres.relations)
    top = max([*e, *f, 0])
    return top + 16 * (1 + norm)


_DEFAULT_NODE_BUDGET = 200_000


def congruent(
    e: ExpVec,
    f: ExpVec,
    pres: MonPresentation,
    bound: Optional[int] = None,
    node_budget: int = _DEFAULT_NODE_BUDGET,
) -> CongResult:
    """Decide whether e and f are congruent under the presentation.

    Bidirectional breadth-first closure under relation moves, coordinates
    capped at ``bound``.  Meeting frontiers yield CONGRUENT with a relation
    path from e to f.  When either closure is fully enumerated without ever
    discarding a successor (by the cap or the node budget) and no meeting
    happened, the verdict is a definitive NOT_CONGRUENT; otherwise UNKNOWN.
    A cheap necessary condition runs first: f - e must lie in the integer
    span of the relation differences, each move displacing by one of them.
    """
    e, f = tuple(e), tuple(f)
    if len(e) != pres.dim or len(f) != pres.dim:
        raise GbsError("vector dimension mismatch")
    if any(x < 0 for x in e + f):
        raise GbsError("vectors must be naturals")
    if e == f:
        return CongResult(Verdict.CONGRUENT, ())
    moves = []
    for idx, (r, s) in enumerate(pres.relations):
        if r == s:
            continue  # degenerate relations carry no move
        moves.append((idx, 1, r, s))
        moves.append((idx, -1, s, r))
    deltas = [tuple(b - a for a, b in zip(r, s)) for _, _, r, s in moves[::2]]
    if not _lattice_solvable(deltas, tuple(y - x for x, y in zip(e, f))):
        return CongResult(Verdict.NOT_CONGRUENT, reason="outside the relation lattice")
    if bound is None:
        bound = default_bound(e, f, pres)

    # parent maps: vector -> (previous vector, (idx, dir)) per search side
    visited = ({e: None}, {f: None})
    frontier = ([e], [f])
    complete = [True, True]
    nodes = 2

    def rebuild(side: int, vec: ExpVec) -> list[PathStep]:
        steps = []
        while visited[side][vec] is not None:
            vec, step = visited[side][vec]
            steps.append(step)
        steps.reverse()
        return steps

    meet: Optional[ExpVec] = None
    while (frontier[0] or frontier[1]) and meet is None:
        side = 0 if frontier[0] and (
            not frontier[1] or len(frontier[0]) <= len(frontier[1])
        ) else 1
        here, there = visited[side], visited[1 - side]
        layer: list[ExpVec] = []
        found: list[ExpVec] = []
        for v in frontier[side]:
            for idx, direction, sub, add in moves:
                ok = True
                for x, y in zip(v, sub):
                    if x < y:
                        ok = False
                        break
                if not ok:
                    continue
                w = tuple(x - y + z for x, y, z in zip(v, sub, add))
                if w in here:
                    continue
                if max(w) > bound or nodes >= node_budget:
                    complete[side] = False
                    continue
                here[w] = (v, (idx, direction))
                nodes += 1
                layer.append(w)
                if w in there:
                    found.append(w)
        if found:
            meet = min(found)
        frontier[side][:] = layer

    if meet is not None:
        forward = rebuild(0, meet)
        backward = rebuild(1, meet)
        path = tuple(forward) + tuple(
            (idx, -direction) for idx, direction in reversed(backward)
        )
        if replay_path(e, path, pres) != f:
            raise InternalError("congruence path failed to replay")
        return CongResult(Verdict.CONGRUENT, path)
    if complete[0] or complete[1]:
        return CongResult(Verdict.NOT_CONGRUENT, reason="closure exhausted")
    return CongResult(Verdict.UNKNOWN, reason=f"closure capped at bound {bound}")


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
        vec = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise GbsError(f"malformed vector {text!r}") from None
    if any(x < 0 for x in vec):
        raise GbsError(f"vector {text!r} has negative entries")
    if dim is not None and len(vec) != dim:
        raise GbsError(f"vector {text!r} should have {dim} entries")
    return vec


def format_vector(vec: ExpVec) -> str:
    return ",".join(str(x) for x in vec)


@dataclass(frozen=True)
class MonoidEncoding:
    """Elliptic conjugacy of a graph of groups as a monoid congruence.

    Exponent vectors have one slot per prime (the sign prime -1 first) and
    one unit slot per vertex.  Each inverse-edge pair contributes one
    relation identifying alpha at the source with beta at the target; each
    vertex gets a sign relation absorbing squared signs.  ``step_letters``
    maps a relation applied r->s to the conjugating edge letter (None for
    sign relations); the reverse application conjugates by the inverse edge.
    """

    graph: GbsGraph
    presentation: MonPresentation
    primes: arith.PrimeSet
    vertices: tuple[str, ...]
    step_letters: tuple[Optional[str], ...]

    def encode(self, vertex: str, k: int) -> ExpVec:
        """Vector of a nonzero vertex power: prime exponents of k, then the
        unit vector of the vertex.  The coprime residual is dropped; compare
        residuals separately."""
        if vertex not in self.vertices:
            raise GbsError(f"unknown vertex {vertex!r}")
        fact = arith.factor_over(k, self.primes)
        unit = tuple(1 if v == vertex else 0 for v in self.vertices)
        return fact.exps + unit

    def conjugator_letter(self, step: PathStep) -> Optional[Letter]:
        idx, direction = step
        name = self.step_letters[idx]
        if name is None:
            return None
        if direction > 0:
            return EdgeLetter(self.graph.inverse(name))
        return EdgeLetter(name)

    def witness_letters(self, path: Sequence[PathStep]) -> tuple[Letter, ...]:
        """Conjugator word for a relation path: the per-step edge letters
        composed so the whole word maps the path's start to its end."""
        letters = []
        for step in path:
            letter = self.conjugator_letter(step)
            if letter is not None:
                letters.append(letter)
        letters.reverse()
        return tuple(letters)


def gbs_to_monoid(graph: GbsGraph) -> MonoidEncoding:
    """Derive the congruence presentation whose word problem mirrors
    elliptic conjugacy in the graph of groups."""
    report = validate(graph)
    if report:
        raise GbsError("; ".join(report))
    primes = graph.prime_set()
    vertices = graph.vertices
    m = len(primes)
    dim = m + len(vertices)

    def vec(value: int, vertex: str) -> ExpVec:
        exps = arith.factor_over(value, primes).exps
        return exps + tuple(1 if v == vertex else 0 for v in vertices)

    relations: list[tuple[ExpVec, ExpVec]] = []
    letters: list[Optional[str]] = []
    for name in orientation(graph):
        e = graph.edge(name)
        relations.append((vec(e.alpha, e.src), vec(e.beta, e.dst)))
        letters.append(name)
    sign_one = tuple(2 if i == 0 else 0 for i in range(m))
    for v in vertices:
        unit = tuple(1 if u == v else 0 for u in vertices)
        relations.append((sign_one + unit, (0,) * m + unit))
        letters.append(None)
    return MonoidEncoding(
        graph, MonPresentation(dim, tuple(relations)), primes, vertices, tuple(letters)
    )


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
    from .graphs import Edge  # local import to keep module tops light

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
