"""Reference implementations that the tests compare the fast paths against.

Everything here is deliberately naive: leftmost-first rewriting with list
deletions, cyclic reduction by rotating the last edge round to the front,
chain search over vertex powers, brute-force conjugacy over a radius, and the
closed formula for the one-loop group.  Words are sequences of letters, the
:class:`VertexPower` and :class:`EdgeLetter` values defined here; the
package itself has none.  :func:`parse_word` reads text into letters and is
the reference grammar for ``parse_factorization``.  Witnesses are replayed
through the rewriting reducer, after joining them letter by letter with
:func:`to_factorization`, the reference for ``parse_factorization`` and
``concat``.  :func:`parse_graph_lines` reads a graph file one line at a
time and is the reference reader for ``parse_graph``: its graphs and its
error texts.  :func:`validate_reference` runs every check of ``validate``
on every edge.  From ``gbs`` this module uses only the data types and
errors of :mod:`gbs.graphs` and the :class:`ConjVerdict` enum, so a
cross-check never runs the code it checks
(``tests/test_source.py::test_oracles_share_no_code_with_the_fast_paths``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from gbs.conjugacy import ConjVerdict
from gbs.graphs import (
    Edge,
    GbsError,
    GbsGraph,
    GFactorization,
    GraphError,
    WordError,
)


@dataclass(frozen=True)
class VertexPower:
    vertex: str
    exp: int


@dataclass(frozen=True)
class EdgeLetter:
    edge: str


Letter = Union[VertexPower, EdgeLetter]


def parse_word(text: str, graph: GbsGraph) -> tuple[Letter, ...]:
    """Parse whitespace-separated tokens ``<vertex>^<int>``, ``<vertex>``
    (exponent 1) and ``<edge-id>``; the token ``1`` is the empty word."""
    word: list[Letter] = []
    for tok in text.split():
        if tok == "1":
            continue
        if "^" in tok:
            name, _, exp = tok.partition("^")
            if name not in graph.vertex_set:
                raise WordError(f"unknown vertex {name!r}")
            try:
                k = int(exp)
            except ValueError:
                raise WordError(f"malformed exponent in {tok!r}") from None
            word.append(VertexPower(name, k))
        elif tok in graph.by_name:
            word.append(EdgeLetter(tok))
        elif tok in graph.vertex_set:
            word.append(VertexPower(tok, 1))
        else:
            raise WordError(f"unknown id {tok!r}")
    return tuple(word)



def parse_graph_lines(text: str) -> GbsGraph:
    """The graph file format read one line at a time, without the
    structural checks of ``validate``; a bad line raises
    :class:`GraphError` naming it."""
    vertices: list[str] = []
    edges: list[Edge] = []
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.partition("#")[0].split()
        if toks:
            rows.append((lineno, toks))

    def fail(lineno, msg):
        raise GraphError(f"line {lineno}: {msg}")

    if len(rows) == 1 and rows[0][1][0] == "bs":
        lineno, toks = rows[0]
        if len(toks) != 3:
            fail(lineno, "expected: bs <p> <q>")
        try:
            p, q = int(toks[1]), int(toks[2])
        except ValueError:
            fail(lineno, "p and q must be integers")
        return GbsGraph(("a",), (Edge("y", "a", "a", q, p, "Y"), Edge("Y", "a", "a", p, q, "y")))
    ids: set[str] = set()
    for lineno, toks in rows:
        kind = toks[0]
        if kind == "vertex":
            if len(toks) != 2:
                fail(lineno, "expected: vertex <id>")
        elif kind == "edge":
            if len(toks) != 7:
                fail(lineno, "expected: edge <id> <src> <dst> <alpha> <beta> <inv-id>")
        elif kind == "bs":
            fail(lineno, "bs must be the only line of the file")
        else:
            fail(lineno, f"unknown directive {kind!r}")
        name = toks[1]
        if name == "1" or "^" in name:
            fail(lineno, f"bad id {name!r}")
        if name in ids:
            fail(lineno, f"duplicate id {name!r}")
        ids.add(name)
        if kind == "vertex":
            vertices.append(name)
            continue
        try:
            alpha, beta = int(toks[4]), int(toks[5])
        except ValueError:
            fail(lineno, "alpha and beta must be integers")
        edges.append(Edge(name, toks[2], toks[3], alpha, beta, toks[6]))
    return GbsGraph(vertices, edges)


def validate_reference(graph: GbsGraph) -> list[str]:
    """``validate``'s report written check by check for every id and edge,
    its tables and its connectivity search rebuilt here: every id must be
    neither ``1`` nor empty and hold no ``^``, ``#`` or whitespace, and every
    vertex must be reached from the least one along edges whose source is a
    vertex."""
    report: list[str] = []
    vertex_set = set(graph.vertices)
    by_name = {e.name: e for e in graph.edges}
    if not graph.vertices:
        report.append("graph has no vertices")
    if len(vertex_set) != len(graph.vertices):
        report.append("duplicate vertex ids")
    if len(by_name) != len(graph.edges):
        report.append("duplicate edge ids")
    if not vertex_set.isdisjoint(by_name):
        report.append("vertex and edge ids overlap")
    for kind, ids in (("vertex", vertex_set), ("edge", by_name)):
        for name in sorted(ids):
            if name in ("", "1") or any(ch in "^#" or ch.isspace() for ch in name):
                report.append(f"bad {kind} id {name!r}")
    for e in graph.edges:
        if e.alpha == 0 or e.beta == 0:
            report.append(f"edge {e.name}: zero label")
        if e.src not in vertex_set:
            report.append(f"edge {e.name}: unknown source vertex {e.src!r}")
        if e.dst not in vertex_set:
            report.append(f"edge {e.name}: unknown target vertex {e.dst!r}")
        inv = by_name.get(e.inv)
        if inv is None:
            report.append(f"edge {e.name}: missing inverse {e.inv!r}")
            continue
        if inv.name == e.name:
            report.append(f"edge {e.name}: is its own inverse")
            continue
        if inv.inv != e.name:
            report.append(f"edge {e.name}: involution is not symmetric")
        if inv.src != e.dst or inv.dst != e.src:
            report.append(f"edge {e.name}: inverse endpoints do not match")
        if inv.beta != e.alpha:
            report.append(f"edge {e.name}: alpha differs from beta of inverse")
    if graph.vertices:
        reached = {min(graph.vertices)}
        grown = True
        while grown:
            grown = False
            for e in graph.edges:
                if e.src in reached and e.src in vertex_set and e.dst not in reached:
                    reached.add(e.dst)
                    grown = True
        if not vertex_set <= reached:
            report.append("graph is not connected")
    return report


def letters(f: GFactorization) -> tuple[Letter, ...]:
    """The letters of f: its nonzero powers and its edges, in order."""
    out: list[Letter] = []
    if f.k0:
        out.append(VertexPower(f.base, f.k0))
    g = f.graph
    for name, k in f.steps:
        out.append(EdgeLetter(name))
        if k:
            out.append(VertexPower(g.by_name[name].dst, k))
    return tuple(out)


def to_factorization(word: Sequence[Letter], graph: GbsGraph) -> GFactorization:
    """Normalize a letter sequence: merge adjacent vertex powers, insert zero
    exponents between consecutive edges, and check that powers sit at the
    vertex the path is passing through.  The empty word lies at the first
    vertex."""
    base: Optional[str] = None
    k0 = 0
    steps: list[list] = []
    cur: Optional[str] = None
    for letter in word:
        if isinstance(letter, VertexPower):
            if letter.vertex not in graph.vertex_set:
                raise WordError(f"unknown vertex {letter.vertex!r}")
            if cur is None:
                base = cur = letter.vertex
            elif letter.vertex != cur:
                raise WordError(
                    f"vertex power {letter.vertex!r} at path position {cur!r}"
                )
            if steps:
                steps[-1][1] += letter.exp
            else:
                k0 += letter.exp
        else:
            e = graph.by_name[letter.edge]
            if cur is None:
                base = cur = e.src
            elif e.src != cur:
                raise WordError(f"edge {e.name} does not continue the path at {cur}")
            steps.append([e.name, 0])
            cur = e.dst
    if base is None:
        if not graph.vertices:
            raise WordError("empty graph")
        base = graph.vertices[0]
    return GFactorization(graph, base, k0, tuple((n, k) for n, k in steps))


def join(*parts: GFactorization) -> GFactorization:
    """The parts' letters joined into one factorization, each opened by a
    zero power at its base so that every seam is checked."""
    word = [x for p in parts for x in (VertexPower(p.base, 0), *letters(p))]
    return to_factorization(word, parts[0].graph)


def britton_reduce_naive(f: GFactorization) -> GFactorization:
    """Repeatedly contract the leftmost factor ``y v^k Y`` with beta(y) | k
    into a vertex power, merging adjacent powers."""
    g = f.graph
    exps = [f.k0] + [k for _, k in f.steps]
    names = [""] + [name for name, _ in f.steps]
    r = 1
    while r < len(names) - 1:
        e = g.by_name[names[r]]
        if names[r + 1] == e.inv and exps[r] % e.beta == 0:
            exps[r - 1] += e.alpha * (exps[r] // e.beta) + exps[r + 1]
            del names[r : r + 2]
            del exps[r : r + 2]
            r = max(1, r - 1)
        else:
            r += 1
    return GFactorization(g, f.base, exps[0], tuple(zip(names[1:], exps[1:])))


def is_britton_reduced(f: GFactorization) -> bool:
    """No factor ``y v^k Y`` with beta(y) dividing k."""
    by_name = f.graph.by_name
    for r in range(f.n - 1):
        name, k = f.steps[r]
        if f.steps[r + 1][0] == by_name[name].inv and k % by_name[name].beta == 0:
            return False
    return True


def cyclically_reduce_naive(f: GFactorization) -> tuple[GFactorization, tuple[Letter, ...]]:
    """Cyclic reduction and the letters of z with ``result = z f z^-1``.

    Reduce with the rewriting oracle.  While two or more edges are left,
    conjugate the last edge and its power round to the front, where it
    absorbs the leading vertex power, and reduce again; keep the rotation
    only if the seam pair contracted.  A leftover leading power is finally
    conjugated onto the last exponent.
    """
    if not f.is_closed:
        raise WordError("cyclic reduction needs a closed factorization")
    g = f.graph
    h = britton_reduce_naive(f)
    z: list[Letter] = []
    while h.n >= 2:
        name, k = h.steps[-1]
        src = g.by_name[name].src
        front = GFactorization(g, src, 0, ((name, k + h.k0),) + h.steps[:-1])
        rotated = britton_reduce_naive(front)
        if rotated.n == h.n:
            break
        z[:0] = letters(GFactorization(g, src, 0, ((name, k),)))
        h = rotated
    if h.n == 0:
        return h, tuple(z)
    c = h.k0
    (name, k), rest = h.steps[-1], h.steps[:-1]
    if c:
        z.insert(0, VertexPower(h.base, -c))
    return GFactorization(g, h.base, 0, rest + ((name, k + c),)), tuple(z)


def _inverse(word: Sequence[Letter], graph: GbsGraph) -> tuple[Letter, ...]:
    """The letters reversed, each edge replaced by its inverse and each
    power negated."""
    return tuple(
        VertexPower(x.vertex, -x.exp) if isinstance(x, VertexPower)
        else EdgeLetter(graph.by_name[x.edge].inv)
        for x in reversed(word)
    )


def replays_to_identity(z: GFactorization, v: GFactorization, w: GFactorization) -> bool:
    """Whether ``z v z^-1 w^-1`` joins into a closed word that the rewriting
    oracle reduces to the empty word with exponent zero.  The inverses are
    taken letter by letter, each opened by a zero power at its own base,
    the end of the word it inverts, so that every seam is checked."""
    g = z.graph
    parts = [
        (z.base, letters(z)), (v.base, letters(v)),
        (z.end, _inverse(letters(z), g)), (w.end, _inverse(letters(w), g)),
    ]
    try:
        f = to_factorization([x for base, word in parts for x in (VertexPower(base, 0), *word)], g)
    except WordError:
        return False
    h = britton_reduce_naive(f)
    return f.is_closed and h.n == 0 and h.k0 == 0


def elliptic_closure(
    graph: GbsGraph, vertex: str, k: int, radius: int, node_cap: int = 500_000
):
    """Chain-search closure of a vertex power under single edge-letter
    conjugations with exponents capped at ``radius``.

    Returns ``(parents, capped)`` where parents maps each reached state
    ``(vertex, exponent)`` to ``(previous state, edge letter)`` (None at the
    start state) and ``capped`` reports whether anything was pruned.
    """
    into: dict[str, list] = {u: [] for u in graph.vertices}
    for e in graph.edges:
        into[e.dst].append(e)
    start = (vertex, k)
    parents: dict[tuple[str, int], Optional[tuple]] = {start: None}
    frontier = [start]
    capped = False
    while frontier:
        nxt = []
        for state in frontier:
            u, m = state
            for e in into[u]:
                if m % e.beta:
                    continue
                m2 = e.alpha * (m // e.beta)
                if abs(m2) > radius:
                    capped = True
                    continue
                s2 = (e.src, m2)
                if s2 in parents:
                    continue
                if len(parents) >= node_cap:
                    capped = True
                    continue
                parents[s2] = (state, e.name)
                nxt.append(s2)
        frontier = nxt
    return parents, capped


def _chain_letters(parents, goal) -> tuple[Letter, ...]:
    chain: list[Letter] = []
    state = goal
    while parents[state] is not None:
        state, name = parents[state]
        chain.append(EdgeLetter(name))
    return tuple(chain)


def conj_brute_status(
    v: GFactorization, w: GFactorization, radius: int
) -> tuple[ConjVerdict, Optional[GFactorization]]:
    """Search-only conjugacy oracle.

    Elliptic pairs: breadth-first chain search over (vertex, exponent)
    states; an exhausted closure below the radius is a definitive no.
    Hyperbolic pairs: scan every rotation and every conjugating power with
    |x| <= radius; only a found witness decides.  Everything else is
    UNKNOWN.  Witnesses are replayed before being returned.
    """
    graph = v.graph

    def witness(word: Sequence[Letter]) -> Optional[GFactorization]:
        try:
            z = to_factorization((VertexPower(w.base, 0), *word), graph)
        except WordError:
            return None
        return z if replays_to_identity(z, v, w) else None

    vh, zv = cyclically_reduce_naive(v)
    wh, zw = cyclically_reduce_naive(w)
    zw_inv = _inverse(zw, graph)

    if vh.n == 0 and wh.n == 0:
        parents, capped = elliptic_closure(graph, vh.base, vh.k0, radius)
        goal = (wh.base, wh.k0)
        if goal in parents:
            z = witness(zw_inv + _chain_letters(parents, goal) + zv)
            return (ConjVerdict.UNKNOWN, None) if z is None else (ConjVerdict.CONJUGATE, z)
        return (ConjVerdict.UNKNOWN if capped else ConjVerdict.NOT_CONJUGATE), None

    if vh.n == 0 or wh.n == 0 or vh.n != wh.n:
        return ConjVerdict.UNKNOWN, None

    n = vh.n
    ks = [k for _, k in vh.steps]
    alpha = [graph.by_name[name].alpha for name, _ in vh.steps]
    beta = [graph.by_name[name].beta for name, _ in vh.steps]
    path = [name for name, _ in vh.steps]
    for r in range(n):
        steps = wh.steps[r:] + wh.steps[:r]  # the rotation zr wh zr^-1
        if [name for name, _ in steps] != path:
            continue
        zr = letters(GFactorization(graph, graph.by_name[steps[0][0]].src, 0, wh.steps[r:]))
        ls = [k for _, k in steps]

        def works(x: int) -> bool:
            cur = ks[n - 1] - x - ls[n - 1]
            for i in range(n - 1, -1, -1):
                if cur % beta[i]:
                    return False
                t = alpha[i] * (cur // beta[i])
                if i == 0:
                    return x + t == 0
                cur = ks[i - 1] - ls[i - 1] + t
            return False

        step = abs(beta[n - 1])
        first = -radius + (ks[n - 1] - ls[n - 1] + radius) % step
        for x in range(first, radius + 1, step):
            if not works(x):
                continue
            middle = (VertexPower(vh.base, x),) if x else ()
            z = witness(zw_inv + _inverse(zr, graph) + middle + zv)
            if z is not None:
                return ConjVerdict.CONJUGATE, z
    return ConjVerdict.UNKNOWN, None


def conj_brute(
    v: GFactorization, w: GFactorization, radius: int
) -> Optional[GFactorization]:
    """A replayed conjugator found by brute search, or None (inconclusive)."""
    verdict, witness = conj_brute_status(v, w, radius)
    return witness if verdict is ConjVerdict.CONJUGATE else None


def _power_match(c1: int, m1: int, c2: int, m2: int) -> bool:
    """Whether ``c1 * m1^j == c2 * m2^j`` for some j >= 1 (|m1| != |m2|)."""
    a1, a2 = abs(m1), abs(m2)
    x, y = c1 * m1, c2 * m2
    while True:
        if x == y:
            return True
        if a1 > a2 and abs(x) > abs(y):
            return False
        if a1 < a2 and abs(x) < abs(y):
            return False
        x *= m1
        y *= m2


def conj_elliptic_bs(p: int, q: int, k: int, ell: int) -> bool:
    """Conjugacy of two vertex powers in the one-loop group
    ``<a, y | y a^p Y = a^q>``: some power of q/p carries k to ell, with k
    divisible by p and ell by q for positive powers (swapped for negative)."""
    if p == 0 or q == 0:
        raise GbsError("p and q must be nonzero")
    if k == 0 or ell == 0:
        return k == ell
    if k == ell:
        return True
    pos_ok = k % p == 0 and ell % q == 0
    neg_ok = k % q == 0 and ell % p == 0
    if abs(p) == abs(q):
        # the ratio has magnitude one; only single steps matter
        return (pos_ok and k * q == ell * p) or (neg_ok and ell * q == k * p)
    if pos_ok and _power_match(k, q, ell, p):
        return True
    return neg_ok and _power_match(ell, q, k, p)
