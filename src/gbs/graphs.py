"""Graphs of groups with infinite cyclic vertex and edge groups.

A group presentation is a finite connected graph with an involution on edges
and two nonzero integer labels alpha, beta per edge; the edge relation reads
``y * target(y)^beta(y) * inverse(y) = source(y)^alpha(y)``.  Words over the
vertex powers and edge letters whose edges trace a path are normalized into
factorizations ``base^k0 y1 v1^k1 ... yn vn^kn``, the shape every decision
procedure in this package works on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union


class GbsError(ValueError):
    """Base class for input and structure errors."""


class GraphError(GbsError):
    pass


class WordError(GbsError):
    pass


class InternalError(GbsError):
    """A self-check failed: a computed witness did not verify.  Never a
    verdict; the CLI reports it as an error."""


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    name: str
    src: str
    dst: str
    alpha: int
    beta: int
    inv: str

    def __init__(self, name, src, dst, alpha, beta, inv):
        # the slots' own setters: the frozen __init__'s object.__setattr__ costs twice this
        _set_name(self, name)
        _set_src(self, src)
        _set_dst(self, dst)
        _set_alpha(self, alpha)
        _set_beta(self, beta)
        _set_inv(self, inv)


_set_name, _set_src, _set_dst, _set_alpha, _set_beta, _set_inv = (
    vars(Edge)[f].__set__ for f in Edge.__slots__
)


@dataclass(frozen=True)
class VertexPower:
    vertex: str
    exp: int


@dataclass(frozen=True)
class EdgeLetter:
    edge: str


Letter = Union[VertexPower, EdgeLetter]

# reserved: prints as the empty word
_EMPTY_TOKEN = "1"


class GbsGraph:
    """Immutable graph with edge involution and labels; indexes are built
    eagerly, deeper well-formedness lives in :func:`validate`.  ``by_name``
    maps each edge name to its :class:`Edge`; hot loops read it directly."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge]):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._vertex_set = set(self.vertices)
        self.by_name = {e.name: e for e in self.edges}
        self._out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.src in self._out:
                self._out[e.src].append(e.name)

    def __eq__(self, other):
        return (
            isinstance(other, GbsGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"GbsGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    def has_edge(self, name: str) -> bool:
        return name in self.by_name

    def edge(self, name: str) -> Edge:
        try:
            return self.by_name[name]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None

    def alpha(self, name: str) -> int:
        return self.edge(name).alpha

    def beta(self, name: str) -> int:
        return self.edge(name).beta

    def source(self, name: str) -> str:
        return self.edge(name).src

    def target(self, name: str) -> str:
        return self.edge(name).dst

    def inverse(self, name: str) -> str:
        return self.edge(name).inv

    def out_edges(self, v: str) -> tuple[str, ...]:
        return tuple(self._out.get(v, ()))

    def to_text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [
            f"edge {e.name} {e.src} {e.dst} {e.alpha} {e.beta} {e.inv}"
            for e in self.edges
        ]
        return "\n".join(lines) + "\n"


def bs_graph(p: int, q: int) -> GbsGraph:
    """The one-vertex, one-loop graph presenting ``<a, y | y a^p Y = a^q>``."""
    return GbsGraph(
        ("a",),
        (Edge("y", "a", "a", q, p, "Y"), Edge("Y", "a", "a", p, q, "y")),
    )


def parse_graph(text: str, *, check: bool = True) -> GbsGraph:
    """Parse the line-oriented graph format.

    Either a single ``bs <p> <q>`` line, or ``vertex <id>`` and
    ``edge <id> <src> <dst> <alpha> <beta> <inv-id>`` lines; ``#`` starts a
    comment.  An id is a token other than ``1`` without ``^``, unique across
    vertices and edges.  Only the syntax is checked here; with ``check`` (the
    default) the parsed graph must also pass :func:`validate`, which covers
    endpoints, inverses, labels and connectivity.
    """
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
        graph = bs_graph(p, q)
    else:
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
            name = toks[1]  # split() leaves no whitespace, and the comment no "#"
            if name == _EMPTY_TOKEN or "^" in name:
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
        graph = GbsGraph(vertices, edges)

    if check:
        report = validate(graph)
        if report:
            raise GraphError("; ".join(report))
    return graph


def validate(graph: GbsGraph) -> list[str]:
    """All structural violations, as human-readable strings (empty = valid).

    Checked: endpoints that are vertices, nonzero labels, the involution
    being fixed-point free and consistent with endpoints and labels, and
    connectivity.
    """
    report: list[str] = []
    vertex_set, by_name = graph._vertex_set, graph.by_name
    if not graph.vertices:
        report.append("graph has no vertices")
    if len(vertex_set) != len(graph.vertices):
        report.append("duplicate vertex ids")
    if len(by_name) != len(graph.edges):
        report.append("duplicate edge ids")
    if not vertex_set.isdisjoint(by_name):
        report.append("vertex and edge ids overlap")
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
    if graph.vertices and not _search(graph, graph.vertices[0]).keys() >= vertex_set:
        report.append("graph is not connected")
    return report


def _search(
    graph: GbsGraph, root: str, edges: Optional[frozenset] = None
) -> dict[str, Optional[tuple[str, str]]]:
    """Breadth-first search from ``root`` along out-edges in file order, using
    only ``edges`` when given.  Maps every vertex reached to the step that
    first reached it, ``(previous vertex, edge name)``, and ``root`` to None."""
    by_name, out = graph.by_name, graph._out
    prev: dict[str, Optional[tuple[str, str]]] = {root: None}
    order = [root]
    for v in order:  # the list grows as the search goes: a FIFO queue
        for name in out.get(v, ()):
            if edges is None or name in edges:
                w = by_name[name].dst
                if w not in prev:
                    prev[w] = (v, name)
                    order.append(w)
    return prev


def _path_to(prev: dict, root: str, goal: str) -> list[str]:
    """Edge names from ``root`` to ``goal`` in the result of a :func:`_search`
    from ``root``."""
    if goal not in prev:
        raise GraphError(f"no tree path from {root} to {goal}")
    path: list[str] = []
    step = prev[goal]
    while step is not None:
        path.append(step[1])
        step = prev[step[0]]
    path.reverse()
    return path


@dataclass(frozen=True)
class GFactorization:
    """``base^k0 y1 v1^k1 ... yn vn^kn`` with the edges tracing a path from
    ``base``; closed when the path returns to ``base`` (or has no edges)."""

    graph: GbsGraph
    base: str
    k0: int
    steps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        g = self.graph
        if not g.has_vertex(self.base):
            raise WordError(f"unknown vertex {self.base!r}")
        by_name = g.by_name
        cur = self.base
        for name, _ in self.steps:
            e = by_name.get(name)
            if e is None:
                raise GraphError(f"unknown edge {name!r}")
            if e.src != cur:
                raise WordError(f"edge {name} does not continue the path at {cur}")
            cur = e.dst

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> str:
        return self.graph.target(self.steps[-1][0]) if self.steps else self.base

    @property
    def is_closed(self) -> bool:
        return self.end == self.base

    def __str__(self):
        """Canonical text: exponents always printed, zero powers omitted, the
        empty word printed as ``1``; :func:`parse_factorization` reads it back."""
        by_name = self.graph.by_name
        toks = [f"{self.base}^{self.k0}"] if self.k0 else []
        for name, k in self.steps:
            toks.append(name)
            if k:
                toks.append(f"{by_name[name].dst}^{k}")
        return " ".join(toks) if toks else _EMPTY_TOKEN


def parse_word(text: str, graph: GbsGraph) -> tuple[Letter, ...]:
    """Parse whitespace-separated tokens ``<vertex>^<int>``, ``<vertex>``
    (exponent 1) and ``<edge-id>``; the token ``1`` is the empty word."""
    letters: list[Letter] = []
    for tok in text.split():
        if tok == _EMPTY_TOKEN:
            continue
        if "^" in tok:
            name, _, exp = tok.partition("^")
            if not graph.has_vertex(name):
                raise WordError(f"unknown vertex {name!r}")
            try:
                k = int(exp)
            except ValueError:
                raise WordError(f"malformed exponent in {tok!r}") from None
            letters.append(VertexPower(name, k))
        elif graph.has_edge(tok):
            letters.append(EdgeLetter(tok))
        elif graph.has_vertex(tok):
            letters.append(VertexPower(tok, 1))
        else:
            raise WordError(f"unknown id {tok!r}")
    return tuple(letters)


def parse_factorization(text: str, graph: GbsGraph) -> GFactorization:
    """Parse the tokens of :func:`parse_word` into a factorization in one
    pass: adjacent powers merge, edges in a row get zero exponents, and a
    power or edge off the path is reported once every token is parsed."""
    vertices, by_name = graph._vertex_set, graph.by_name
    base = cur = None
    k0 = 0
    names: list[str] = []
    exps: list[int] = []
    off_path: Optional[str] = None  # the first path error, raised after parsing
    for tok in text.split():
        if tok == _EMPTY_TOKEN:
            continue
        if "^" in tok:
            v, _, exp = tok.partition("^")
            if v not in vertices:
                raise WordError(f"unknown vertex {v!r}")
            try:
                k = int(exp)
            except ValueError:
                raise WordError(f"malformed exponent in {tok!r}") from None
        elif tok in by_name:
            e = by_name[tok]
            if cur is None:
                base = e.src
            elif e.src != cur and off_path is None:
                off_path = f"edge {tok} does not continue the path at {cur}"
            names.append(tok)
            exps.append(0)
            cur = e.dst
            continue
        elif tok in vertices:
            v, k = tok, 1
        else:
            raise WordError(f"unknown id {tok!r}")
        if cur is None:
            base = cur = v
        elif v != cur and off_path is None:
            off_path = f"vertex power {v!r} at path position {cur!r}"
        if exps:
            exps[-1] += k
        else:
            k0 += k
    if off_path is not None:
        raise WordError(off_path)
    if base is None:
        if not graph.vertices:
            raise WordError("empty graph")
        base = graph.vertices[0]
    return GFactorization(graph, base, k0, tuple(zip(names, exps)))


def invert(f: GFactorization) -> GFactorization:
    """The formal inverse ``vn^-kn Yn ... Y1 base^-k0``."""
    g = f.graph
    if not f.steps:
        return GFactorization(g, f.base, -f.k0, ())
    exps = [f.k0] + [k for _, k in f.steps]
    steps = tuple(
        (g.inverse(f.steps[i][0]), -exps[i]) for i in range(f.n - 1, -1, -1)
    )
    return GFactorization(g, f.end, -f.steps[-1][1], steps)


def concat(*parts: GFactorization) -> GFactorization:
    """Concatenate factorizations along matching endpoints; at each seam the
    power that opens a part joins the last exponent before it."""
    if not parts:
        raise WordError("nothing to concatenate")
    first = parts[0]
    k0, steps, end = first.k0, list(first.steps), first.end
    for p in parts[1:]:
        if p.base != end:
            raise WordError(f"a word from {p.base} does not continue the path at {end}")
        if steps:
            steps[-1] = (steps[-1][0], steps[-1][1] + p.k0)
        else:
            k0 += p.k0
        steps += p.steps
        end = p.end
    return GFactorization(first.graph, first.base, k0, tuple(steps))


def spanning_tree(graph: GbsGraph) -> frozenset:
    """Deterministic spanning tree: breadth-first from the lexicographically
    least vertex, edges explored in file order.  Contains both directions of
    every selected edge pair.  The graph is taken as valid (see
    :func:`validate`) apart from connectivity, which the search checks."""
    if not graph.vertices:
        raise GraphError("graph has no vertices")
    prev = _search(graph, min(graph.vertices))
    if any(v not in prev for v in graph.vertices):
        raise GraphError("graph is not connected")
    tree: set[str] = set()
    for step in prev.values():
        if step is not None:
            tree.add(step[1])
            tree.add(graph.inverse(step[1]))
    return frozenset(tree)


def tree_path(graph: GbsGraph, tree: frozenset, start: str, goal: str) -> tuple[str, ...]:
    """Edge names of the unique reduced path from start to goal inside a
    spanning tree."""
    return tuple(_path_to(_search(graph, start, tree), start, goal))


def rebase(
    letters: Sequence[Letter], graph: GbsGraph, tree: frozenset, base: str
) -> GFactorization:
    """Image of a word under the isomorphism onto the fundamental group based
    at ``base``: every edge letter y becomes path(base, source(y)) y
    path(target(y), base) and every power v^k becomes path(base, v) v^k
    path(v, base); the result is a closed factorization at ``base``.

    One tree search from ``base`` serves every letter: each vertex's path
    is walked back once, and path(v, base) is its inverse edges reversed.
    The steps are written directly, as :func:`parse_factorization` would
    make them from that word's text: a power joins the exponent before it."""
    if not graph.has_vertex(base):
        raise GraphError(f"unknown vertex {base!r}")
    by_name = graph.by_name
    prev = _search(graph, base, tree)
    paths: dict[str, tuple[list, list]] = {}
    steps: list = [(None, 0)]  # the head holds the power at base before any edge
    for letter in letters:
        if isinstance(letter, EdgeLetter):
            e = graph.edge(letter.edge)
            src, dst = e.src, e.dst
        else:
            e, src, dst = None, letter.vertex, letter.vertex
        for v in (src, dst):
            if v not in paths:
                there = _path_to(prev, base, v)
                paths[v] = (
                    [(name, 0) for name in there],
                    [(by_name[name].inv, 0) for name in reversed(there)],
                )
        steps += paths[src][0]
        if e is not None:
            steps.append((e.name, 0))
        else:
            steps[-1] = (steps[-1][0], steps[-1][1] + letter.exp)
        steps += paths[dst][1]
    return GFactorization(graph, base, steps[0][1], tuple(steps[1:]))


def orientation(graph: GbsGraph) -> tuple[str, ...]:
    """One edge per inverse pair: the one occurring earlier in the edge list."""
    chosen: list[str] = []
    seen: set[str] = set()
    for e in graph.edges:
        if e.name not in seen:
            chosen.append(e.name)
            seen.add(e.name)
            seen.add(e.inv)
    return tuple(chosen)
