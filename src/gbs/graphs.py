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
from functools import cached_property
from typing import Collection, Optional, Sequence


class GbsError(ValueError):
    """Base class for input and structure errors."""


class GraphError(GbsError):
    pass


class WordError(GbsError):
    pass


class InternalError(GbsError):
    """A self-check failed: a computed witness did not verify.  Never a
    verdict; the CLI reports it as an internal error."""


@dataclass(frozen=True, slots=True)
class Edge:
    """A frozen edge value.  :func:`parse_graph` builds a file's edges as
    :class:`_EdgeRecord` and then gives each of them this class."""

    name: str
    src: str
    dst: str
    alpha: int
    beta: int
    inv: str


class _EdgeRecord:
    """:class:`Edge`'s slots under a plain ``__init__``, whose six stores the
    interpreter specializes into slot stores: with the class change, a third
    of the frozen one's cost.  The layouts match, so the change is allowed."""

    __slots__ = Edge.__slots__

    def __init__(self, name, src, dst, alpha, beta, inv):
        self.name = name
        self.src = src
        self.dst = dst
        self.alpha = alpha
        self.beta = beta
        self.inv = inv


class _LabelTable(dict):
    """One graph file's label texts and their integers, each text converted
    by ``int`` on its first lookup: a file of a thousand edges holds a few
    distinct labels, and a small file pays one dict for the table."""

    __slots__ = ()

    def __missing__(self, text: str) -> int:
        self[text] = n = int(text)
        return n


# reserved: prints as the empty word
_EMPTY_TOKEN = "1"

# a breadth-first search: each vertex reached -> (previous vertex, edge name), the root -> None
_Tree = dict[str, Optional[tuple[str, str]]]


class GbsGraph:
    """Immutable graph: ``vertices`` and ``edges`` in file order, and two
    tables that every caller reads directly: ``vertex_set``, the frozenset of
    vertex ids, and ``by_name``, each edge name's :class:`Edge` (source,
    target, labels, inverse).  The private ``_out`` lists each vertex's
    out-edges as :class:`Edge` records in file order, for :func:`_search`;
    :meth:`out_edges` gives their names, and the private ``_id_problems``
    holds :func:`validate`'s id checks, made once per graph so that a load
    scans each id once.  Deeper well-formedness lives in :func:`validate`."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge]):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.vertex_set = frozenset(self.vertices)
        self.by_name = {e.name: e for e in self.edges}
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.src in out:
                out[e.src].append(e)
        self._out = out
        self._id_problems = tuple(_id_report(self))

    def __eq__(self, other):
        return (
            isinstance(other, GbsGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    @cached_property
    def _tree(self) -> _Tree:
        """:func:`_search` from the least vertex, run once per graph: the
        one search behind :func:`validate`'s connectivity check and every
        tree path.  Needs a vertex."""
        return _search(self, min(self.vertices))

    def __repr__(self):
        return f"GbsGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def out_edges(self, v: str) -> tuple[str, ...]:
        return tuple(e.name for e in self._out.get(v, ()))

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
    vertices and edges.  Without ``check`` only the syntax and the ids are
    checked; with it (the default) the graph must pass all of
    :func:`validate`, which also covers endpoints, inverses, labels and
    connectivity.

    Every file is read in one bulk pass: every line split at once,
    directives and arities checked by counting the rows that match, labels
    by ``int``, once per distinct label text (a file of a thousand edges
    spells a handful), edges as records that take the class :class:`Edge`,
    and ids once, by :func:`validate`'s id checks, which the graph keeps.
    A file that breaks an id rule goes straight to its first bad line,
    before any other check.  A failing file's error names its first bad
    line, or is the checks' report if it has none.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    rows = list(filter(None, map(str.split, lines)))
    vertices = [toks[1] for toks in rows if len(toks) == 2 and toks[0] == "vertex"]
    edge_rows = [toks for toks in rows if len(toks) == 7 and toks[0] == "edge"]
    graph = None
    try:
        if len(rows) == 1 and rows[0][0] == "bs":
            _, p, q = rows[0]  # another arity raises ValueError, as int() does
            graph = bs_graph(int(p), int(q))
        elif len(vertices) + len(edge_rows) == len(rows):
            num = _LabelTable()
            edges = [_EdgeRecord(n, s, d, num[a], num[b], inv) for _, n, s, d, a, b, inv in edge_rows]
            for e in edges:
                e.__class__ = Edge
            graph = GbsGraph(vertices, edges)
    except ValueError:
        pass
    if graph is None:
        raise GraphError(_first_bad_line(lines))
    report = graph._id_problems
    if check and not report:  # a file that breaks an id rule is named by its first bad line
        report = validate(graph)
    if report:
        raise GraphError(_first_bad_line(lines) or "; ".join(report))
    return graph


def _first_bad_line(lines: Sequence[str]) -> Optional[str]:
    """Asked when :func:`parse_graph`'s bulk pass or checks fail: ``line <n>:
    <what>`` for the first of the comment-stripped lines to break a rule,
    tried in a fixed order, or None if none does (a good ``bs`` line too)."""
    rows = [(lineno, toks) for lineno, toks in enumerate(map(str.split, lines), 1) if toks]
    if len(rows) == 1 and rows[0][1][0] == "bs":
        lineno, toks = rows[0]
        if len(toks) != 3:
            return f"line {lineno}: expected: bs <p> <q>"
        try:
            int(toks[1]), int(toks[2])
        except ValueError:
            return f"line {lineno}: p and q must be integers"
        return None
    ids: set[str] = set()
    for lineno, toks in rows:
        kind = toks[0]
        if kind == "vertex":
            if len(toks) != 2:
                return f"line {lineno}: expected: vertex <id>"
        elif kind == "edge":
            if len(toks) != 7:
                return f"line {lineno}: expected: edge <id> <src> <dst> <alpha> <beta> <inv-id>"
        elif kind == "bs":
            return f"line {lineno}: bs must be the only line of the file"
        else:
            return f"line {lineno}: unknown directive {kind!r}"
        name = toks[1]
        if _unreadable((name,)):
            return f"line {lineno}: bad id {name!r}"
        if name in ids:
            return f"line {lineno}: duplicate id {name!r}"
        ids.add(name)
        try:
            for label in toks[4:6]:  # none on a vertex line
                int(label)
        except ValueError:
            return f"line {lineno}: alpha and beta must be integers"


def validate(graph: GbsGraph) -> list[str]:
    """All structural violations, as human-readable strings (empty = valid).

    Checked: ids that words can name, endpoints that are vertices, nonzero
    labels, the involution being fixed-point free and consistent with
    endpoints and labels, and connectivity: every vertex is reached by the
    spanning tree's search from the least vertex, which the graph keeps for
    its tree paths.  With a valid involution every edge has a reverse, so
    any root reaches the same vertices; with a broken one the verdict can
    hang on the root.
    """
    report = ([] if graph.vertices else ["graph has no vertices"]) + list(graph._id_problems)
    vertex_set, by_name = graph.vertex_set, graph.by_name
    for e in graph.edges:
        inv = by_name.get(e.inv)
        if e.alpha == 0 or e.beta == 0:
            report.append(f"edge {e.name}: zero label")
        if e.src not in vertex_set:
            report.append(f"edge {e.name}: unknown source vertex {e.src!r}")
        if e.dst not in vertex_set:
            report.append(f"edge {e.name}: unknown target vertex {e.dst!r}")
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
    if graph.vertices and not graph._tree.keys() >= vertex_set:
        report.append("graph is not connected")
    return report


def _id_report(graph: GbsGraph) -> list[str]:
    """:func:`validate`'s id checks, in its order, and all of it that
    ``parse_graph(check=False)`` runs: unique ids that words can name."""
    vertex_set, by_name = graph.vertex_set, graph.by_name
    report = [what for what, failed in (
        ("duplicate vertex ids", len(vertex_set) != len(graph.vertices)),
        ("duplicate edge ids", len(by_name) != len(graph.edges)),
        ("vertex and edge ids overlap", not vertex_set.isdisjoint(by_name)),
    ) if failed]
    for kind, ids in (("vertex", vertex_set), ("edge", by_name)):
        if _unreadable(ids):
            report += [f"bad {kind} id {i!r}" for i in sorted(ids) if _unreadable((i,))]
    return report


def _unreadable(ids: Collection[str]) -> bool:
    """Whether word text cannot name some id: ``1``, the empty id, or one
    holding ``^``, ``#`` or whitespace; a few C-level scans of the ids."""
    text = "".join(ids)
    return _EMPTY_TOKEN in ids or "" in ids or "^" in text or "#" in text or "".join(text.split()) != text


def _search(graph: GbsGraph, root: str) -> _Tree:
    """Breadth-first search from ``root`` along out-edges in file order,
    read as the :class:`Edge` records of ``graph._out``, so no edge is
    looked up by name.  Maps every vertex reached to the step that first
    reached it, ``(previous vertex, edge name)``, and ``root`` to None."""
    out = graph._out
    prev: _Tree = {root: None}
    order = [root]
    for v in order:  # the list grows as the search goes: a FIFO queue
        for e in out.get(v, ()):
            w = e.dst
            if w not in prev:
                prev[w] = (v, e.name)
                order.append(w)
    return prev


@dataclass(frozen=True)
class GFactorization:
    """``base^k0 y1 v1^k1 ... yn vn^kn`` with the edges tracing a path from
    ``base``; closed when the path returns to ``base`` (or has no edges)."""

    graph: GbsGraph
    base: str
    k0: int
    steps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.base not in self.graph.vertex_set:
            raise WordError(f"unknown vertex {self.base!r}")
        by_name = self.graph.by_name
        cur = self.base
        for name, _ in self.steps:
            e = by_name.get(name)
            if e is None:
                raise GraphError(f"unknown edge {name!r}")
            if e.src != cur:
                raise WordError(f"edge {name} does not continue the path at {cur}")
            cur = e.dst

    @classmethod
    def _trusted(cls, graph: GbsGraph, base: str, k0: int, steps: tuple) -> GFactorization:
        """A factorization whose path is valid by construction, or checked
        already: skips the walk in ``__post_init__``."""
        f = object.__new__(cls)
        f.__dict__.update(graph=graph, base=base, k0=k0, steps=steps)
        return f

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> str:
        return self.graph.by_name[self.steps[-1][0]].dst if self.steps else self.base

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


def parse_factorization(text: str, graph: GbsGraph) -> GFactorization:
    """Parse whitespace-separated tokens ``<vertex>^<int>``, ``<vertex>``
    (exponent 1) and ``<edge-id>``, the token ``1`` being the empty word,
    into a factorization in one pass: adjacent powers merge, edges in a row
    get zero exponents, and a power or edge off the path is reported once
    every token is parsed.  This is the package's one word grammar."""
    vertices, by_name = graph.vertex_set, graph.by_name
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
    elif base not in vertices:  # the source of the first edge, in a graph not validated
        raise WordError(f"unknown vertex {base!r}")
    return GFactorization._trusted(graph, base, k0, tuple(zip(names, exps)))


def invert(f: GFactorization) -> GFactorization:
    """The formal inverse ``vn^-kn Yn ... Y1 base^-k0``."""
    g = f.graph
    if not f.steps:
        return GFactorization._trusted(g, f.base, -f.k0, ())
    by_name = g.by_name
    exps = [f.k0] + [k for _, k in f.steps]
    steps = tuple(
        (by_name[f.steps[i][0]].inv, -exps[i]) for i in range(f.n - 1, -1, -1)
    )
    return GFactorization._trusted(g, f.end, -f.steps[-1][1], steps)


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
    return GFactorization._trusted(first.graph, first.base, k0, tuple(steps))


def _checked_tree(graph: GbsGraph, *ends: str) -> _Tree:
    """The graph's own search (:attr:`GbsGraph._tree`), after the checks
    every tree path needs: known ``ends``, a vertex, connectivity."""
    for v in ends:
        if v not in graph.vertex_set:
            raise GraphError(f"unknown vertex {v!r}")
    if not graph.vertices:
        raise GraphError("graph has no vertices")
    prev = graph._tree
    if not prev.keys() >= graph.vertex_set:
        raise GraphError("graph is not connected")
    return prev


def _root_path(prev: _Tree, v: str) -> list[str]:
    """Edge names of the tree path from the root to ``v``, reached by ``prev``."""
    path = []
    while prev[v] is not None:
        v, name = prev[v]
        path.append(name)
    return path[::-1]


def _path_from(graph: GbsGraph, prev: _Tree, up: list[str], v: str) -> list[str]:
    """Edge names of path(start, v) in the tree, given ``up`` = path(root,
    start): ``up`` inverted, then path(root, v), less their common prefix,
    which is the one reduced path between the two in a tree."""
    down = _root_path(prev, v)
    i = 0
    while i < min(len(up), len(down)) and up[i] == down[i]:
        i += 1
    return [graph.by_name[name].inv for name in reversed(up[i:])] + down[i:]


def spanning_tree(graph: GbsGraph) -> frozenset:
    """Deterministic spanning tree: breadth-first from the lexicographically
    least vertex, edges explored in file order.  Contains both directions of
    every selected edge pair.  It is the tree whose paths :func:`tree_path`
    and :func:`rebase` follow."""
    tree: set[str] = set()
    for step in _checked_tree(graph).values():
        if step is not None:
            tree.add(step[1])
            tree.add(graph.by_name[step[1]].inv)
    return frozenset(tree)


def tree_path(graph: GbsGraph, start: str, goal: str) -> tuple[str, ...]:
    """Edge names of the unique reduced path from start to goal inside the
    :func:`spanning_tree`, found by that tree's own search."""
    prev = _checked_tree(graph, start, goal)
    return tuple(_path_from(graph, prev, _root_path(prev, start), goal))


def rebase(text: str, graph: GbsGraph, base: str) -> GFactorization:
    """Image of a word under the isomorphism onto the fundamental group based
    at ``base``, relative to the :func:`spanning_tree`: every edge y becomes
    path(base, source(y)) y path(target(y), base) and every power v^k
    becomes path(base, v) v^k path(v, base); the result is a closed
    factorization at ``base``.

    Each token of ``text`` but ``1`` is read on its own by
    :func:`parse_factorization` (so ``v^0`` still makes its round trip),
    and all of them before ``base`` is checked.  The tree's one search
    serves every token: each vertex's path is found once, and path(v, base)
    is its inverse edges reversed.  The steps are written directly, as
    :func:`parse_factorization` would make them from that word's text."""
    words = [parse_factorization(tok, graph) for tok in text.split() if tok != _EMPTY_TOKEN]
    prev = _checked_tree(graph, base)
    up = _root_path(prev, base)
    by_name = graph.by_name
    paths: dict[str, tuple[list, list]] = {}
    steps: list = [(None, 0)]  # the head holds the power at base before any edge
    for f in words:  # a power v^k, or an edge with k0 = 0
        src, dst = f.base, f.end
        for v in (src, dst):
            if v not in paths:
                there = _path_from(graph, prev, up, v)
                paths[v] = (
                    [(name, 0) for name in there],
                    [(by_name[name].inv, 0) for name in reversed(there)],
                )
        steps += paths[src][0]
        steps[-1] = (steps[-1][0], steps[-1][1] + f.k0)
        steps += f.steps
        steps += paths[dst][1]
    return GFactorization._trusted(graph, base, steps[0][1], tuple(steps[1:]))


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
