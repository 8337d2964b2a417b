"""Reference answers for the benchmark, written apart from the package.

Nothing here imports ``gbs``: the oracles share no code with the paths the
benchmark times, so a fault in a fast path cannot also hide in its check.

Words are factorizations ``base^k0 y1 v1^k1 ... yn vn^kn`` stored as
``Word(base, k0, steps)`` with ``steps`` a tuple of ``(edge, exponent)``.
Graphs are :class:`Graph` objects built from the same line format the CLI
reads.
"""
from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


class OracleError(RuntimeError):
    """An oracle could not certify an answer it was asked for."""


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str
    alpha: int
    beta: int
    inv: str


class Graph:
    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge]):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.edge = {e.name: e for e in self.edges}

    @classmethod
    def bs(cls, p: int, q: int) -> "Graph":
        return cls(("a",), (Edge("y", "a", "a", q, p, "Y"), Edge("Y", "a", "a", p, q, "y")))

    @classmethod
    def pairs(cls, vertices, pairs) -> "Graph":
        """Graph from ``(name, inv, src, dst, alpha, beta)`` edge pairs."""
        edges = []
        for name, inv, src, dst, alpha, beta in pairs:
            edges.append(Edge(name, src, dst, alpha, beta, inv))
            edges.append(Edge(inv, dst, src, beta, alpha, name))
        return cls(vertices, edges)

    def to_text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e.name} {e.src} {e.dst} {e.alpha} {e.beta} {e.inv}" for e in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Word:
    base: str
    k0: int
    steps: tuple

    @property
    def n(self) -> int:
        return len(self.steps)


def word_text(w: Word, g: Graph) -> str:
    toks = [f"{w.base}^{w.k0}"] if w.k0 else []
    for name, k in w.steps:
        toks.append(name)
        if k:
            toks.append(f"{g.edge[name].dst}^{k}")
    return " ".join(toks) if toks else "1"


def parse_output(text: str, g: Graph, base: str) -> Word:
    """Read a printed word back; raises ``OracleError`` on any token the
    graph does not know or a power off the path."""
    k0, steps, cur = 0, [], None
    for tok in text.split():
        if tok == "1":
            continue
        if "^" in tok:
            v, _, e = tok.partition("^")
            if v not in g.vertices:
                raise OracleError(f"unknown vertex in output: {tok!r}")
            if cur is None:
                base = cur = v
            elif v != cur:
                raise OracleError(f"power {tok!r} off the path at {cur}")
            if steps:
                steps[-1][1] += int(e)
            else:
                k0 += int(e)
        elif tok in g.edge:
            e = g.edge[tok]
            if cur is None:
                base = cur = e.src
            elif e.src != cur:
                raise OracleError(f"edge {tok} does not continue the path")
            steps.append([tok, 0])
            cur = e.dst
        else:
            raise OracleError(f"unknown token in output: {tok!r}")
    return Word(base, k0, tuple((n, k) for n, k in steps))


def end_vertex(w: Word, g: Graph) -> str:
    return g.edge[w.steps[-1][0]].dst if w.steps else w.base


def invert(w: Word, g: Graph) -> Word:
    if not w.steps:
        return Word(w.base, -w.k0, ())
    exps = [w.k0] + [k for _, k in w.steps]
    steps = tuple((g.edge[w.steps[i][0]].inv, -exps[i]) for i in range(w.n - 1, -1, -1))
    return Word(end_vertex(w, g), -w.steps[-1][1], steps)


def concat(g: Graph, *parts: Word) -> Word:
    base, k0, steps = parts[0].base, 0, []
    for p in parts:
        if steps:
            steps[-1][1] += p.k0
        else:
            k0 += p.k0
        steps.extend([n, k] for n, k in p.steps)
    return Word(base, k0, tuple((n, k) for n, k in steps))


def naive_reduce(w: Word, g: Graph) -> Word:
    """Britton reduction by leftmost contraction of ``y v^k Y`` with
    beta(y) | k, stepping back one place after each contraction."""
    exps = [w.k0] + [k for _, k in w.steps]
    names = [""] + [n for n, _ in w.steps]
    r = 1
    while r < len(names) - 1:
        e = g.edge[names[r]]
        if names[r + 1] == e.inv and exps[r] % e.beta == 0:
            exps[r - 1] += e.alpha * (exps[r] // e.beta) + exps[r + 1]
            del names[r : r + 2]
            del exps[r : r + 2]
            r = max(1, r - 1)
        else:
            r += 1
    return Word(w.base, exps[0], tuple(zip(names[1:], exps[1:])))


def is_trivial(w: Word, g: Graph) -> bool:
    """Britton's lemma: a closed word is trivial iff it reduces to nothing."""
    h = naive_reduce(w, g)
    return h.n == 0 and h.k0 == 0


def is_britton_reduced(w: Word, g: Graph) -> bool:
    for (a, k), (b, _) in zip(w.steps, w.steps[1:]):
        e = g.edge[a]
        if b == e.inv and k % e.beta == 0:
            return False
    return True


def _fold(w: Word) -> Word:
    """Conjugate by ``base^k0`` so a hyperbolic word starts with an edge."""
    if not w.steps or not w.k0:
        return w
    steps = list(w.steps)
    steps[-1] = (steps[-1][0], steps[-1][1] + w.k0)
    return Word(w.base, 0, tuple(steps))


def rotate(w: Word, g: Graph, m: int) -> Word:
    """Cyclic rotation of a folded hyperbolic word by m edges."""
    steps = w.steps[m:] + w.steps[:m]
    return Word(g.edge[steps[0][0]].src, 0, steps)


def is_cyclically_reduced(w: Word, g: Graph) -> bool:
    if not w.steps:
        return True
    f = _fold(w)
    if not is_britton_reduced(f, g):
        return False
    (a, k), (b, _) = f.steps[-1], f.steps[0]
    e = g.edge[a]
    return w.n == 1 or not (b == e.inv and k % e.beta == 0)


def cyclic_reduce(w: Word, g: Graph) -> Word:
    """A cyclically reduced conjugate, by naive reduction and one-edge
    rotations that bring a contractible seam inside the word."""
    h = _fold(naive_reduce(w, g))
    while h.n >= 2 and not is_cyclically_reduced(h, g):
        h = _fold(naive_reduce(rotate(h, g, 1), g))
    return h


def conjugating_power(v: Word, w: Word, g: Graph) -> Optional[int]:
    """The x with ``base^x v base^-x = w`` for two folded hyperbolic words
    over the same edge path, or None.

    Pushing ``base^x`` through edge i needs alpha_i | x_(i-1) and leaves
    ``x_i = beta_i x_(i-1) / alpha_i + k_i - l_i``; the word closes when
    ``x_n = x``.  Each x_i is affine in x; with a ratio product other than
    one the closing equation fixes x, otherwise the divisibility conditions
    are folded one at a time into a running ``x = c mod m``.
    """
    p, q = Fraction(1), Fraction(0)
    coeffs = []
    for (name, k), (_, ell) in zip(v.steps, w.steps):
        e = g.edge[name]
        coeffs.append((p, q, e.alpha))
        p, q = p * e.beta / e.alpha, q * e.beta / e.alpha + k - ell
    if p != 1:
        x = q / (1 - p)
        if x.denominator != 1:
            return None
        x = int(x)
        return x if all((pi * x + qi) % a == 0 for pi, qi, a in coeffs) else None
    if q != 0:
        return None
    c, m = 0, 1
    for pi, qi, a in coeffs:
        d = math.lcm(pi.denominator, qi.denominator)
        pn, qn, mod = int(pi * d), int(qi * d), d * abs(a)
        # pn (c + m s) + qn = 0 mod `mod`, solved for s
        rhs = -(pn * c + qn)
        gcd = math.gcd(pn * m, mod)
        if rhs % gcd:
            return None
        step = mod // gcd
        s = (rhs // gcd) * pow((pn * m) // gcd, -1, step) % step if step > 1 else 0
        c, m = c + m * s, m * step
        c %= m
    return c


def hyperbolic_conjugate(v: Word, w: Word, g: Graph) -> Optional[tuple[int, int]]:
    """``(rotation, x)`` with ``base^x v base^-x = rot(w)``, for two
    cyclically reduced hyperbolic words, or None when none exists (Collins'
    lemma: only rotations with the same edge path and a base power can
    conjugate them).  Every answer is replayed through the naive reducer."""
    v, w = _fold(v), _fold(w)
    if v.n != w.n:
        return None
    path = [n for n, _ in v.steps]
    for r in range(w.n):
        rot = rotate(w, g, r)
        if [n for n, _ in rot.steps] != path:
            continue
        x = conjugating_power(v, rot, g)
        if x is None:
            continue
        check = concat(g, Word(v.base, x, ()), v, Word(v.base, -x, ()), invert(rot, g))
        if not is_trivial(check, g):
            raise OracleError("conjugating power failed its replay")
        return r, x
    return None


def elliptic_orbit(g: Graph, vertex: str, k: int, cap: int = 10_000) -> set:
    """All ``(vertex, exponent)`` states conjugate to ``vertex^k`` through
    single edge letters; raises ``OracleError`` past ``cap`` states or once
    an exponent has 64 bits more than k (the orbit is then unbounded)."""
    into: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        into[e.dst].append(e)
    seen = {(vertex, k)}
    todo = deque(seen)
    while todo:
        u, m = todo.popleft()
        for e in into[u]:
            if m % e.beta == 0:
                s = (e.src, e.alpha * (m // e.beta))
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
                    if len(seen) > cap or abs(s[1]).bit_length() > 64 + abs(k).bit_length():
                        raise OracleError("elliptic orbit too large to enumerate")
    return seen


def words_conjugate(v: Word, w: Word, g: Graph) -> bool:
    """Conjugacy of two closed words through their cyclic reductions."""
    vh, wh = cyclic_reduce(v, g), cyclic_reduce(w, g)
    if vh.n != wh.n:
        return False
    if vh.n == 0:
        if vh.k0 == 0 or wh.k0 == 0:
            return vh.k0 == wh.k0
        return (wh.base, wh.k0) in elliptic_orbit(g, vh.base, vh.k0)
    return hyperbolic_conjugate(vh, wh, g) is not None


# -- spanning trees and the --pi1 rebasing -----------------------------------


def tree_parents(g: Graph) -> tuple[str, dict]:
    """The documented deterministic spanning tree: breadth first from the
    least vertex, out-edges in file order.  Returns the root and, per
    vertex, the tree edge leading to it from its parent."""
    out: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        out[e.src].append(e)
    root = min(g.vertices)
    parent = {root: None}
    todo = deque([root])
    while todo:
        v = todo.popleft()
        for e in out[v]:
            if e.dst not in parent:
                parent[e.dst] = e
                todo.append(e.dst)
    return root, parent


def tree_path(v: str, parent: dict) -> list:
    """Edge names of the tree path from the root to v."""
    p = []
    while parent[v] is not None:
        p.append(parent[v].name)
        v = parent[v].src
    return p[::-1]


def rebase(letters: Sequence, g: Graph, root: str, parent: dict) -> Word:
    """Closed word at the root for a letter list (``("e", name)`` or
    ``("v", vertex, k)``), each letter conjugated by tree paths."""
    down: dict[str, list[str]] = {}

    def to(v):
        if v not in down:
            down[v] = tree_path(v, parent)
        return down[v]

    k0, steps = 0, []
    for letter in letters:
        there = g.edge[letter[1]].src if letter[0] == "e" else letter[1]
        back = g.edge[letter[1]].dst if letter[0] == "e" else letter[1]
        steps.extend([n, 0] for n in to(there))
        if letter[0] == "e":
            steps.append([letter[1], 0])
        elif steps:
            steps[-1][1] += letter[2]
        else:
            k0 += letter[2]
        steps.extend([g.edge[n].inv, 0] for n in reversed(to(back)))
    return Word(root, k0, tuple((n, k) for n, k in steps))


# -- free-product residues (alpha = beta graphs) -----------------------------


def residue_cycle(w: Word, g: Graph, mods: dict) -> tuple:
    """Image of a folded cyclically reduced word in the free product of the
    cyclic groups Z/mods[v] over the graph: each edge with the residue of
    the power after it.  The map kills ``v^alpha`` at every edge end, so it
    is a homomorphism when every label at v is a multiple of mods[v]."""
    return tuple((n, k % mods[g.edge[n].dst]) for n, k in _fold(w).steps)


def is_rotation(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(b[r:] + b[:r] == a for r in range(len(b)))


# -- commutative monoids ----------------------------------------------------


def monoid_closure(e: tuple, rels: Sequence, cap: int, box: Optional[int] = None) -> Optional[set]:
    """The congruence class of e when it has at most ``cap`` members, else
    None.  Moves replace one side of a relation by the other.  With ``box``,
    only the part of the class reachable inside ``[0, box]^dim``."""
    moves = [(r, s) for r, s in rels if r != s] + [(s, r) for r, s in rels if r != s]
    seen = {tuple(e)}
    todo = [tuple(e)]
    while todo:
        v = todo.pop()
        for minus, plus in moves:
            if all(map(operator.ge, v, minus)):
                u = tuple(map(operator.add, map(operator.sub, v, minus), plus))
                if u not in seen and (box is None or max(u) <= box):
                    seen.add(u)
                    if len(seen) > cap:
                        return None
                    todo.append(u)
    return seen


def groebner_congruent(e: tuple, f: tuple, rels: Sequence) -> bool:
    """Membership of ``x^e - x^f`` in the binomial ideal of the relations;
    in a finitely presented commutative monoid this holds exactly when e
    and f are congruent."""
    import sympy

    xs = sympy.symbols(f"x0:{len(e)}")

    def mono(vec):
        out = sympy.Integer(1)
        for x, p in zip(xs, vec):
            out *= x**p
        return out

    polys = [mono(r) - mono(s) for r, s in rels if r != s]
    target = mono(e) - mono(f)
    if target == 0:
        return True
    if not polys:
        return False
    basis = sympy.groebner(polys, *xs, order="grevlex")
    return basis.contains(target)



def in_lattice(rels: Sequence, e: tuple, f: tuple) -> bool:
    """Whether f - e is an integer combination of the relation differences
    (a necessary condition for congruence), by integer row reduction."""
    rows = [[b - a for a, b in zip(r, s)] for r, s in rels]
    target = [b - a for a, b in zip(e, f)]
    for col in range(len(target)):
        live = [row for row in rows if row[col]]
        rest = [row for row in rows if not row[col]]
        while len(live) > 1:  # Euclid on the pivot column
            live.sort(key=lambda row: abs(row[col]))
            pivot = live[0]
            for row in live[1:]:
                q = row[col] // pivot[col]
                for t in range(len(row)):
                    row[t] -= q * pivot[t]
            rest += [row for row in live[1:] if not row[col]]
            live = [pivot] + [row for row in live[1:] if row[col]]
        if live:
            pivot = live[0]
            if target[col] % pivot[col]:
                return False
            q = target[col] // pivot[col]
            for t in range(len(target)):
                target[t] -= q * pivot[t]
        elif target[col]:
            return False
        rows = rest
    return True
