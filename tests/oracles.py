"""The tests' side of the reference implementations.

Britton reduction, reducedness, witness replay and exact conjugacy are
checked against the benchmark's oracle, ``perfbench/oracle.py``, loaded
here as it is as :data:`ref`.  It imports nothing from ``gbs``, so a fault
in the package's data types cannot also hide in the reference that checks
them.  :func:`to_ref` is the one boundary: it turns a graph's words into
the reference's values.

What stays here builds ``gbs`` objects or has no counterpart there.  Words
are sequences of letters, the :class:`VertexPower` and :class:`EdgeLetter`
values defined here.  :func:`parse_word` is the reference grammar for
``parse_factorization``, :func:`to_factorization` and :func:`join` the
references for ``parse_factorization`` and ``concat``, and
:func:`parse_graph_lines` the line-at-a-time reader that ``parse_graph``
must match, error texts included.  :func:`validate_reference` runs every
check of ``validate`` on every edge.  :func:`cyclically_reduce_naive`
gives the conjugator letters that cyclic reduction must match byte for
byte.  :func:`elliptic_closure` is a chain search within a radius, which
:func:`conjugacy_reference` falls back on where the reference refuses an
unbounded orbit, and :func:`conj_elliptic_bs` the closed formula for the
one-loop group.  From ``gbs`` this module takes only the data types and
errors of :mod:`gbs.graphs`, so a cross-check never runs the code it
checks (``tests/test_source.py``).
"""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from gbs.graphs import Edge, GbsError, GbsGraph, GFactorization, GraphError, WordError


def _load_reference():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


ref = _load_reference()


def to_ref(*words: GFactorization) -> tuple:
    """Each word as the reference's ``Word``, then the reference's ``Graph``
    for their graph: the order in which the reference's functions take
    them."""
    g = words[0].graph
    edges = [ref.Edge(e.name, e.src, e.dst, e.alpha, e.beta, e.inv) for e in g.edges]
    return (*(ref.Word(f.base, f.k0, tuple(f.steps)) for f in words), ref.Graph(g.vertices, edges))


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


def cyclically_reduce_naive(f: GFactorization) -> tuple:
    """Cyclic reduction, as the reference's ``Word``, and the letters of z
    with ``result = z f z^-1``.

    Reduce with the reference's ``naive_reduce``.  While two or more edges
    are left, conjugate the last edge and its power round to the front,
    where it absorbs the leading vertex power, and reduce again; keep the
    rotation only if the seam pair contracted.  A leftover leading power is
    finally conjugated onto the last exponent.
    """
    h, g = to_ref(f)
    if ref.end_vertex(h, g) != h.base:
        raise WordError("cyclic reduction needs a closed factorization")
    h = ref.naive_reduce(h, g)
    z: list[Letter] = []
    while h.n >= 2:
        name, k = h.steps[-1]
        e = g.edge[name]
        rotated = ref.naive_reduce(ref.Word(e.src, 0, ((name, k + h.k0),) + h.steps[:-1]), g)
        if rotated.n == h.n:
            break
        z[:0] = (EdgeLetter(name), VertexPower(e.dst, k)) if k else (EdgeLetter(name),)
        h = rotated
    if h.n == 0:
        return h, tuple(z)
    c = h.k0
    (name, k), rest = h.steps[-1], h.steps[:-1]
    if c:
        z.insert(0, VertexPower(h.base, -c))
    return ref.Word(h.base, 0, rest + ((name, k + c),)), tuple(z)


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


def conjugacy_reference(v: GFactorization, w: GFactorization, radius: int) -> Optional[bool]:
    """Whether v and w are conjugate, by the reference's ``words_conjugate``.
    Where that refuses an elliptic orbit too large to list, a chain search
    (:func:`elliptic_closure`) within the radius decides instead: a hit is a
    yes, an orbit exhausted inside the radius a no, and anything else None."""
    *words, g = to_ref(v, w)
    try:
        return ref.words_conjugate(*words, g)
    except ref.OracleError:
        vh, wh = (ref.cyclic_reduce(x, g) for x in words)
        if vh.n or wh.n:
            raise
        parents, capped = elliptic_closure(v.graph, vh.base, vh.k0, radius)
        if (wh.base, wh.k0) in parents:
            return True
        return None if capped else False


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
