"""Seeded corpora for the four workloads.

Each builder takes a ``random.Random`` and a directory for the graph and
presentation files, and returns the fixed query list of one pass.  Every
query carries its expected answer, labelled here by the oracles in
:mod:`oracle` before anything is timed; ``check`` compares one CLI result
(exit code and stdout) with it and returns None or the reason it is wrong.

The corpora are stratified: sizes sit on fixed grids and every family has
a fixed count, so that two seeds differ in content but not in the amount of
work, and the spread between seeds stays small.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle as O
from oracle import Graph, Word

YES, NO, UNKNOWN = 0, 1, 2


@dataclass
class Query:
    qid: str
    argv: list
    check: Callable[[int, str], Optional[str]] = field(repr=False)


def _exp(rng: random.Random, bits: int) -> int:
    """A signed exponent of up to ``bits`` bits, never zero."""
    k = rng.getrandbits(rng.randint(1, bits)) or 1
    return -k if rng.random() < 0.5 else k


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _walk(rng: random.Random, g: Graph, start: str, n: int, bits: int, end=None) -> Word:
    """A random path of n edges from ``start`` with random exponents; with
    ``end`` the walk is steered back to that vertex along the last edges."""
    out: dict[str, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        out[e.src].append(e)
    names, cur = [], start
    for i in range(n):
        choices = out[cur]
        if end is not None and n - i <= len(g.vertices):
            dist = _distances_to(g, end)
            choices = [e for e in choices if dist[e.dst] <= n - i - 1] or choices
        e = rng.choice(choices)
        names.append(e.name)
        cur = e.dst
    return Word(start, 0, tuple((name, _exp(rng, bits)) for name in names))


def _distances_to(g: Graph, target: str) -> dict:
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for v in frontier:
            for e in g.edges:
                if e.dst == v and e.src not in dist:
                    dist[e.src] = dist[v] + 1
                    nxt.append(e.src)
        frontier = nxt
    return dist


def _closed(rng: random.Random, g: Graph, base: str, n: int, bits: int) -> Word:
    while True:
        w = _walk(rng, g, base, n, bits, end=base)
        if O.end_vertex(w, g) == base:
            return w


# -- checks ------------------------------------------------------------------


def _verdict_check(expected: int, yes: str, no: str, unknown: Optional[str] = None):
    def check(code: int, out: str) -> Optional[str]:
        text = out.strip()
        if unknown is not None and code == UNKNOWN and text == unknown:
            return None
        if code == expected and text == (yes if expected == YES else no):
            return None
        return f"expected exit {expected}, got {code} with {text[:60]!r}"

    return check


def _reduce_check(g: Graph, word: Word, nf: Word):
    """A reduce answer must be Britton-reduced and equal in the group to the
    naive normal form; the exact spelling is not pinned."""

    def check(code: int, out: str) -> Optional[str]:
        if code != YES:
            return f"exit {code}"
        got = O.parse_output(out, g, word.base)
        if got.base != word.base or O.end_vertex(got, g) != O.end_vertex(word, g):
            return "endpoints differ from the input"
        if not O.is_britton_reduced(got, g):
            return "output is not Britton-reduced"
        if got.n != nf.n or not O.is_trivial(O.concat(g, got, O.invert(nf, g)), g):
            return "output differs from the naive normal form in the group"
        return None

    return check


def _cyc_check(g: Graph, cyc: Word):
    """A cyc-reduce answer must be cyclically reduced and conjugate to the
    oracle's cyclic reduction of the input."""

    def check(code: int, out: str) -> Optional[str]:
        if code != YES:
            return f"exit {code}"
        got = O.parse_output(out, g, cyc.base)
        if O.end_vertex(got, g) != got.base:
            return "output is not closed"
        if not O.is_cyclically_reduced(got, g):
            return "output is not cyclically reduced"
        if got.n != cyc.n:
            return "cyclic length differs from the oracle's"
        if not O.words_conjugate(cyc, got, g):
            return "output is not conjugate to the input"
        return None

    return check


def _witness_check(g: Graph, v: Word, w: Word, expected: int):
    """conj --witness: the verdict must match, and a printed conjugator z
    must make ``z v z^-1 w^-1`` reduce to nothing under the naive reducer."""

    def check(code: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        if code == UNKNOWN and lines == ["unknown"]:
            return None  # incompleteness, counted in undecided_rate
        if code != expected:
            return f"expected exit {expected}, got {code}"
        if expected == NO:
            return None if lines == ["not-conjugate"] else "bad not-conjugate output"
        if len(lines) != 2 or lines[0] != "conjugate":
            return "conjugate answer without a witness line"
        z = O.parse_output(lines[1], g, w.base)
        check_word = O.concat(g, z, v, O.invert(z, g), O.invert(w, g))
        if not _closed_path(check_word, g) or not O.is_trivial(check_word, g):
            return "witness fails the naive replay"
        return None

    return check


def _closed_path(w: Word, g: Graph) -> bool:
    cur = w.base
    for name, _ in w.steps:
        if g.edge[name].src != cur:
            return False
        cur = g.edge[name].dst
    return cur == w.base


# -- wp_long -------------------------------------------------------------------

# A graph in which every cycle has ratio product one although the labels
# differ (2/3 * 3/5 * 5/2 around the triangle), so commutators of closed
# words have total exponent zero and force the full colouring.
TRIANGLE = Graph.pairs(
    ("a", "b", "c"),
    [("t", "T", "a", "b", 2, 3), ("s", "S", "b", "c", 3, 5),
     ("r", "R", "c", "a", 5, 2), ("u", "U", "a", "a", 4, 4)],
)
WP_GRAPHS = (("bs23", Graph.bs(2, 3), "bs 2 3\n"), ("bs11", Graph.bs(1, 1), "bs 1 1\n"),
             ("tri", TRIANGLE, TRIANGLE.to_text()))
# edge letters of each word per family; periodic words are quadratic for
# the colouring.  A pass sorts into four blocks: the 27 queries on periodic
# words, the 24 `reduce` and `cyc-reduce` queries on the long words of bs11
# and tri, the 12 on those of bs23 (dearer), and the 18 `wp` queries on the
# long words.  The first block is as large as the last two together, so the
# median falls in the middle of the second one, not on a step between two
# blocks.  The eight `wp` queries on the commutators of bs23 and tri are the
# dearest, of about the same cost, and p95 falls in the middle of them
WP_FAMILIES = (("trivial", (600,) * 2), ("commutator", (600,) * 4), ("periodic", (150,) * 3))


def _balanced(rng: random.Random, g: Graph, n: int, bits: int) -> Word:
    """A closed word at ``a`` whose ratio product is one."""
    if g is TRIANGLE:
        return _closed(rng, g, "a", n, bits)
    names = ["y", "Y"] * (n // 2)
    rng.shuffle(names)
    return Word("a", 0, tuple((name, _exp(rng, bits)) for name in names))


def _wp_word(rng: random.Random, g: Graph, family: str, n: int, bits: int = 256) -> Word:
    """A closed word of about n edges from one of the three families."""
    if family == "trivial":  # u u^-1
        u = _walk(rng, g, "a", n // 2, bits)
        return O.concat(g, u, O.invert(u, g))
    if family == "commutator":  # total exponent zero, nontrivial in general
        if g.edge.get("y") and g.edge["y"].alpha == g.edge["y"].beta == 1:
            # bs 1 1 is Z x Z: zero exponent sum, net edge count two
            names = ["y"] * (n // 2 + 1) + ["Y"] * (n // 2 - 1)
            rng.shuffle(names)
            exps = [_exp(rng, bits) for _ in names]
            exps[-1] -= sum(exps)
            return Word("a", 0, tuple(zip(names, exps)))
        u, v = _balanced(rng, g, n // 4, bits), _balanced(rng, g, n // 4, bits)
        return O.concat(g, u, v, O.invert(u, g), O.invert(v, g))
    # periodic: blocks y v^(beta t) Y v^(-alpha t), each trivial, so every y
    # may pair with every later Y and the colouring sees ~n^2/8 candidates
    e = g.edge["y" if "y" in g.edge else "u"]
    blocks = []
    for _ in range(n // 2):
        t = _exp(rng, bits)
        blocks.append([e.beta * t, -e.alpha * t])
    if e.beta > 1 and rng.random() < 0.5:
        # shift two blocks by +d and -d: both stop contracting, while the
        # total exponent stays zero
        i, j = rng.sample(range(len(blocks)), 2)
        d = rng.randrange(1, e.beta)
        blocks[i][0] += d
        blocks[j][0] -= d
    steps = []
    for k, ell in blocks:
        steps += [(e.name, k), (e.inv, ell)]
    return Word(e.src, 0, tuple(steps))


def _wp_long(rng: random.Random, workdir: Path) -> list:
    queries = []
    for gname, g, text in WP_GRAPHS:
        path = _write(workdir, f"{gname}.graph", text)
        for family, sizes in WP_FAMILIES:
            for j, n in enumerate(sizes):
                w = _wp_word(rng, g, family, n)
                nf = O.naive_reduce(w, g)
                trivial = nf.n == 0 and nf.k0 == 0
                text_w = O.word_text(w, g)
                tag = f"{gname}-{family}-{n}-{j}"
                queries += [
                    Query(f"wp-{tag}", ["wp", "--literal", path, text_w],
                          _verdict_check(YES if trivial else NO, "trivial", "nontrivial")),
                    Query(f"reduce-{tag}", ["reduce", "--literal", path, text_w],
                          _reduce_check(g, w, nf)),
                    Query(f"cyc-{tag}", ["cyc-reduce", "--literal", path, text_w],
                          _cyc_check(g, O.cyclic_reduce(w, g))),
                ]
    return queries


# -- conj_hyperbolic ---------------------------------------------------------

# label p on every edge: every loop has ratio product one, and v -> v mod p
# at each vertex maps the group onto a free product of copies of Z/p
DUMBBELL = Graph.pairs(
    ("a", "b"),
    [("x", "X", "a", "a", 2, 2), ("t", "T", "a", "b", 2, 2), ("z", "Z", "b", "b", 2, 2)],
)
LOPSIDED = Graph.pairs(  # loops with ratio 3/2 and 2/3, no label 1
    ("a", "b"),
    [("x", "X", "a", "a", 3, 2), ("t", "T", "a", "b", 2, 2), ("z", "Z", "b", "b", 2, 3)],
)


def _contracts(g: Graph, a: str, k: int, b: str) -> bool:
    e = g.edge[a]
    return b == e.inv and k % e.beta == 0


def _cyclic_word(rng: random.Random, g: Graph, n: int, span: int, periodic: bool) -> Word:
    """A cyclically reduced hyperbolic word of n edges at ``a``; exponents
    that would let ``y v^k Y`` contract are nudged off the divisor."""
    if periodic:  # one loop letter all the way round: every rotation aligns
        name = rng.choice([e.name for e in g.edges if e.src == e.dst == "a"])
        names = [name] * n
    else:
        names = [name for name, _ in _closed(rng, g, "a", n, 1).steps]
    steps = []
    for i, name in enumerate(names):
        k = rng.randint(-span, span)
        while _contracts(g, name, k, names[(i + 1) % n]):
            k += 1
        steps.append((name, k))
    return Word("a", 0, tuple(steps))


def _push_conjugate(rng: random.Random, g: Graph, v: Word, span: int) -> Optional[Word]:
    """``a^x v a^-x`` rewritten through the edge relations: the power left
    after edge i is a random multiple of the next edge's alpha, and the
    exponents absorb the rest.  None when the result is not cyclically
    reduced."""
    names = [name for name, _ in v.steps]
    alphas = [g.edge[name].alpha for name in names[1:] + names[:1]]
    x0 = g.edge[names[0]].alpha * rng.randint(-span, span)
    steps, prev = [], x0
    for i, (name, k) in enumerate(v.steps):
        e = g.edge[name]
        for _ in range(8):
            nxt = x0 if i == v.n - 1 else alphas[i] * rng.randint(-span, span)
            ell = e.beta * (prev // e.alpha) + k - nxt
            if not _contracts(g, name, ell, names[(i + 1) % v.n]):
                break
        else:
            return None
        steps.append((name, ell))
        prev = nxt
    return Word("a", 0, tuple(steps))


# name, graph, file text, residue prime, walk length -> conjugates, lengths
# of periodic words.  The 15 conjugate pairs of walks of 30 edges cost about
# the same, and there are about as many queries cheaper than them as dearer:
# the median of the pass sits inside that block, not between two families.
# The four residue negatives of periodic words are the dearest queries, and
# p95 falls among them; on bs 3 3 they would cost a third more, so it has none
CONJ_UNIMODULAR = (
    ("bs22", Graph.bs(2, 2), "bs 2 2\n", 2, {30: 4, 45: 1}, (30,)),
    ("bs33", Graph.bs(3, 3), "bs 3 3\n", 3, {30: 1, 45: 1}, ()),
    ("dumbbell", DUMBBELL, DUMBBELL.to_text(), 2, {30: 10, 45: 1}, (30,)),
)
CONJ_SKEW = (("bs23", Graph.bs(2, 3), "bs 2 3\n"), ("lopsided", LOPSIDED, LOPSIDED.to_text()))
CONJ_SKEW_SIZES = (40, 70)
CONJ_SKEW_PAIRS = 1  # per graph and size
SPAN = 20


def _ratio_product(g: Graph, v: Word) -> Fraction:
    """Product of alpha/beta over the edges of v."""
    return math.prod((Fraction(g.edge[name].alpha, g.edge[name].beta) for name, _ in v.steps), start=Fraction(1))


def _conjugate_pair(rng: random.Random, g: Graph, v: Word, turn: Optional[int] = None) -> Word:
    """A cyclically reduced conjugate of v, rotated by ``turn`` edges (by a
    random amount when None)."""
    while True:
        w = _push_conjugate(rng, g, v, SPAN)
        if w is not None:
            return O.rotate(w, g, rng.randrange(w.n) if turn is None else turn)


def _residue_negative(rng: random.Random, g: Graph, v: Word, mods: dict) -> Word:
    """Shift two exponents of a conjugate by +d and -d: the exponent sum,
    and with it the closing equation, still matches, but the free-product
    residues no longer do."""
    while True:
        w = list(_conjugate_pair(rng, g, v).steps)
        i, j = rng.sample(range(len(w)), 2)
        d = rng.randrange(1, mods["a"])
        w[i] = (w[i][0], w[i][1] + d)
        w[j] = (w[j][0], w[j][1] - d)
        w = Word("a", 0, tuple(w))
        if O.is_cyclically_reduced(w, g) and not O.is_rotation(
            O.residue_cycle(v, g, mods), O.residue_cycle(w, g, mods)
        ):
            return w


def _sum_negative(rng: random.Random, g: Graph, v: Word) -> Word:
    """Change one exponent of a conjugate: the exponent sum, a conjugacy
    invariant when alpha = beta on every edge, now differs."""
    while True:
        w = list(_conjugate_pair(rng, g, v).steps)
        i = rng.randrange(len(w))
        w[i] = (w[i][0], w[i][1] + rng.choice((-1, 1)) * rng.randint(1, SPAN))
        w = Word("a", 0, tuple(w))
        if O.is_cyclically_reduced(w, g):
            return w


def _skew_negative(rng: random.Random, g: Graph, v: Word) -> Word:
    """Change one exponent of a conjugate and certify the result with the
    exact forced-power check over every aligned rotation."""
    while True:
        w = list(_conjugate_pair(rng, g, v).steps)
        i = rng.randrange(len(w))
        w[i] = (w[i][0], w[i][1] + 1)
        w = Word("a", 0, tuple(w))
        if O.is_cyclically_reduced(w, g) and O.hyperbolic_conjugate(v, w, g) is None:
            return w


def _conj_hyperbolic(rng: random.Random, workdir: Path) -> list:
    cases = []  # (tag, graph, path, v, w, expected)
    for gname, g, text, p, walks, periodic_sizes in CONJ_UNIMODULAR:
        path = _write(workdir, f"{gname}.graph", text)
        mods = {vx: p for vx in g.vertices}
        for periodic, sizes in ((False, tuple(walks)), (True, periodic_sizes)):
            for n in sizes:
                v = _cyclic_word(rng, g, n, SPAN, periodic)
                tag = f"{gname}-{'periodic' if periodic else 'walk'}-{n}"
                # a periodic word aligns at every rotation and the solver tries
                # them in order, so its cost grows with the turn: fix it
                turn = n // 2 if periodic else None
                cases.append((f"{tag}-pos", g, path, v, _conjugate_pair(rng, g, v, turn), YES))
                cases.append((f"{tag}-negres", g, path, v, _residue_negative(rng, g, v, mods), NO))
                if periodic:  # n systems each: the slowest queries of the pass
                    cases.append((f"{tag}-negres2", g, path, v, _residue_negative(rng, g, v, mods), NO))
                else:
                    for i in range(2, walks[n] + 1):
                        # a word of its own: the cost of one word does not
                        # decide where the whole block sits
                        u = _cyclic_word(rng, g, n, SPAN, False)
                        cases.append((f"{tag}-pos{i}", g, path, u, _conjugate_pair(rng, g, u), YES))
                    cases.append((f"{tag}-negsum", g, path, v, _sum_negative(rng, g, v), NO))
    for gname, g, text in CONJ_SKEW:
        path = _write(workdir, f"{gname}.graph", text)
        for n in CONJ_SKEW_SIZES:
            for r in range(CONJ_SKEW_PAIRS):
                v = _cyclic_word(rng, g, n, SPAN, False)
                while _ratio_product(g, v) == 1:  # that one takes the crt_solve path
                    v = _cyclic_word(rng, g, n, SPAN, False)
                tag = f"{gname}-walk-{n}-{r}"
                cases.append((f"{tag}-pos", g, path, v, _conjugate_pair(rng, g, v), YES))
                cases.append((f"{tag}-neg", g, path, v, _skew_negative(rng, g, v), NO))
    queries = []
    for tag, g, path, v, w, expected in cases:
        if expected == YES and O.hyperbolic_conjugate(v, w, g) is None:
            raise O.OracleError(f"generated conjugate pair {tag} does not replay")
        argv = ["conj", "--literal", "--witness", path, O.word_text(v, g), O.word_text(w, g)]
        queries.append(Query(f"conj-{tag}", argv, _witness_check(g, v, w, expected)))
    return queries


# -- elliptic_monoid ---------------------------------------------------------

PRIMES = (2, 3, 5)
CLOSURE_CAP = 2_000
# deep queries run with this coordinate bound: the search then stops at the
# box [0, DEEP_BOUND]^dim, not at its node budget, and each takes a fraction
# of a second instead of seconds
DEEP_BOUND = 30
# a deep instance's two classes fill at least this many of the 961 points
# of the box, so every deep query searches about as many nodes
DEEP_FILL = 880
# queries per pass and stratum; see README for why the strata are fixed
MONOID_STRATA = {"easy": 20, "shallow": 1, "deep": 0, "other": 0}
CONVERTED_STRATA = {"easy": 20, "shallow": 0, "deep": 6, "other": 0}
GRAPH_PAIRS = 6  # conjugate chains, and as many certified negatives


@dataclass
class MonoidCase:
    dim: int
    rels: list
    e: tuple
    f: tuple
    congruent: bool
    stratum: str


def _monoid_case(rng: random.Random, dim: int = 0, nrels: int = -1) -> MonoidCase:
    """A criterion-8-shaped instance with its oracle label and stratum.

    The hard instances are those that are not congruent although the
    relation lattice does not separate e from f and one of the two classes
    is infinite: a search has nothing finite to exhaust.  Of these,
    ``deep`` ones have dimension 2, three non-degenerate relations and two
    classes that together fill the box ``[0, DEEP_BOUND]^2`` (at least
    ``DEEP_FILL`` members inside it): a search bounded by the box visits
    about the same number of nodes on every one.  ``shallow`` ones have
    dimension 1, and ``other`` ones (cost anywhere from a millisecond to
    five seconds) are not drawn.  ``easy``: everything else.  A given
    ``dim`` or ``nrels`` draws from the instances that have it.
    """
    dim = dim or rng.randint(1, 3)
    vec = lambda: tuple(rng.randint(0, 2) for _ in range(dim))  # noqa: E731
    rels = [(vec(), vec()) for _ in range(nrels if nrels >= 0 else rng.randint(0, 3))]
    e, f = vec(), vec()
    ce = O.monoid_closure(e, rels, CLOSURE_CAP)
    cf = O.monoid_closure(f, rels, CLOSURE_CAP)
    if ce is not None:
        congruent = f in ce
    elif cf is not None:
        congruent = e in cf
    else:
        congruent = O.groebner_congruent(e, f, rels)
    stratum = "easy"
    if not congruent and (ce is None or cf is None) and O.in_lattice(rels, e, f):
        live = sum(r != s for r, s in rels)
        filled = dim == 2 and live == 3 and sum(
            len(O.monoid_closure(v, rels, (DEEP_BOUND + 1) ** 2, box=DEEP_BOUND)) for v in (e, f)
        ) >= DEEP_FILL
        stratum = "shallow" if dim == 1 else "deep" if filled else "other"
    return MonoidCase(dim, rels, e, f, congruent, stratum)


def _draw_strata(rng: random.Random, counts: dict) -> list:
    want = dict(counts)
    out = []
    while any(want.values()):
        # once only deep instances are wanted, draw from their shape alone
        case = _monoid_case(rng, 2, 3) if want["deep"] == sum(want.values()) else _monoid_case(rng)
        if want[case.stratum]:
            want[case.stratum] -= 1
            out.append(case)
    return out


def _fmt(vec) -> str:
    return ",".join(str(x) for x in vec)


def _presentation_text(case: MonoidCase) -> str:
    lines = [f"dim {case.dim}"] + [f"rel {_fmt(r)} ~ {_fmt(s)}" for r, s in case.rels]
    return "\n".join(lines) + "\n"


def _encoded_graph(case: MonoidCase) -> tuple:
    """The one-vertex graph of the monoid-to-gbs reduction: coordinate i is
    the i-th prime and relation j becomes a loop pair labelled by the values
    of its two sides; a^value(e) ~ a^value(f) iff e ~ f."""
    value = lambda vec: math.prod(p**x for p, x in zip(PRIMES, vec))  # noqa: E731
    pairs = [(f"y{j}", f"Y{j}", "a", "a", value(r), value(s)) for j, (r, s) in enumerate(case.rels)]
    return Graph.pairs(("a",), pairs), value(case.e), value(case.f)


def _random_graph(rng: random.Random) -> Graph:
    """A connected graph: a random tree on 2-4 vertices plus extra pairs,
    labels drawn from the nonzero integers up to 5 in absolute value."""
    nv = rng.randint(2, 4)
    vs = "abcd"[:nv]
    ends = [(vs[rng.randrange(i)], vs[i]) for i in range(1, nv)]
    ends += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(1, 3))]
    label = lambda: rng.choice((-1, 1)) * rng.randint(1, 5)  # noqa: E731
    return Graph.pairs(vs, [(f"y{i}", f"Y{i}", u, v, label(), label()) for i, (u, v) in enumerate(ends)])


def _residual(k: int, g: Graph) -> int:
    """|k| with every prime that divides a label removed: edge moves only
    multiply by label ratios, so this is a conjugacy invariant."""
    k = abs(k)
    for p in PRIMES:
        if any(x % p == 0 for e in g.edges for x in (e.alpha, e.beta)):
            while k % p == 0:
                k //= p
    return k


def _graph_pair(rng: random.Random, positive: bool) -> tuple:
    """``(graph, (a, k), (b, l))`` vertex powers: the ends of a chain of edge
    moves for a conjugate pair, else a pair whose residuals differ."""
    while True:
        g = _random_graph(rng)
        a = rng.choice(g.vertices)
        k = rng.choice((-1, 1)) * math.prod(rng.choice((1, 2, 3, 4, 5)) for _ in range(3))
        if positive:
            try:
                orbit = O.elliptic_orbit(g, a, k, cap=5_000)
            except O.OracleError:
                continue
            others = sorted(s for s in orbit if s != (a, k))
            if others:
                return g, (a, k), rng.choice(others)
        else:
            b, ell = rng.choice(g.vertices), rng.choice((-1, 1)) * rng.randint(1, 60)
            if _residual(ell, g) != _residual(k, g):
                return g, (a, k), (b, ell)


def _elliptic_monoid(rng: random.Random, workdir: Path) -> list:
    queries = []
    for i, case in enumerate(_draw_strata(rng, MONOID_STRATA)):
        path = _write(workdir, f"mon{i}.pres", _presentation_text(case))
        argv = ["monoid", "congruent", path, _fmt(case.e), _fmt(case.f)]
        check = _verdict_check(YES if case.congruent else NO, "congruent", "not-congruent", "unknown")
        queries.append(Query(f"monoid-{case.stratum}-{i}", argv, check))
    for i, case in enumerate(_draw_strata(rng, CONVERTED_STRATA)):
        g, k, ell = _encoded_graph(case)
        path = _write(workdir, f"enc{i}.graph", g.to_text())
        argv = ["conj", "--literal", "--witness", path, f"a^{k}", f"a^{ell}"]
        if case.stratum == "deep":
            argv[3:3] = ["--bound", str(DEEP_BOUND)]
        v, w = Word("a", k, ()), Word("a", ell, ())
        check = _witness_check(g, v, w, YES if case.congruent else NO)
        queries.append(Query(f"conj-encoded-{case.stratum}-{i}", argv, check))
    for i in range(2 * GRAPH_PAIRS):
        positive = i < GRAPH_PAIRS
        g, (a, k), (b, ell) = _graph_pair(rng, positive)
        path = _write(workdir, f"ell{i}.graph", g.to_text())
        argv = ["conj", "--literal", "--witness", path, f"{a}^{k}", f"{b}^{ell}"]
        check = _witness_check(g, Word(a, k, ()), Word(b, ell, ()), YES if positive else NO)
        queries.append(Query(f"conj-graph-{'pos' if positive else 'neg'}-{i}", argv, check))
    return queries


# -- pi1_large_graph ---------------------------------------------------------

# vertices of each graph, one word per family on each.  The extra graphs of
# 750 vertices put the median of the pass inside their block, not on the
# step between two sizes, and a block spread over three random graphs does
# not move with the shape of one
PI1_GRAPHS = (500, 750, 750, 750)
# edges after rebasing: letters are drawn until their tree paths reach it
# (about 50 letters), so the work per word does not hang on tree depth
PI1_EDGES = 600


def _tree_graph(rng: random.Random, nv: int) -> Graph:
    """A random recursive tree on nv vertices plus nv/10 extra edge pairs,
    labels in 1..3 with random signs."""
    vs = [f"v{i}" for i in range(nv)]
    ends = [(vs[rng.randrange(i)], vs[i]) for i in range(1, nv)]
    ends += [(rng.choice(vs), rng.choice(vs)) for _ in range(nv // 10)]
    label = lambda: rng.choice((-1, 1)) * rng.randint(1, 3)  # noqa: E731
    return Graph.pairs(vs, [(f"e{i}", f"E{i}", u, v, label(), label()) for i, (u, v) in enumerate(ends)])


def _letters(rng: random.Random, g: Graph, depth: dict, edges: int) -> list:
    """Random letters until their rebased form has ``edges`` edges."""
    out, total = [], 0
    while total < edges:
        if rng.random() < 0.5:
            e = rng.choice(g.edges)
            out.append(("e", e.name))
            total += depth[e.src] + 1 + depth[e.dst]
        else:
            v = rng.choice(g.vertices)
            out.append(("v", v, rng.choice((-1, 1)) * rng.randint(1, 9)))
            total += 2 * depth[v]
    return out


def _letters_text(letters: list) -> str:
    return " ".join(x[1] if x[0] == "e" else f"{x[1]}^{x[2]}" for x in letters)


def _pi1_large_graph(rng: random.Random, workdir: Path) -> list:
    queries = []
    for j, nv in enumerate(PI1_GRAPHS):
        g = _tree_graph(rng, nv)
        path = _write(workdir, f"tree{j}-{nv}.graph", g.to_text())
        root, parent = O.tree_parents(g)
        depth = {v: len(O.tree_path(v, parent)) for v in g.vertices}
        for family in ("trivial", "random"):
            if family == "trivial":  # u u^-1, letter by letter
                u = _letters(rng, g, depth, PI1_EDGES // 2)
                inv = [("e", g.edge[x[1]].inv) if x[0] == "e" else ("v", x[1], -x[2]) for x in reversed(u)]
                letters = u + inv
            else:
                letters = _letters(rng, g, depth, PI1_EDGES)
            word = O.rebase(letters, g, root, parent)
            nf = O.naive_reduce(word, g)
            trivial = nf.n == 0 and nf.k0 == 0
            text = _letters_text(letters)
            tag = f"{nv}-{j}-{family}"
            queries += [
                Query(f"wp-pi1-{tag}", ["wp", "--pi1", "--literal", path, text],
                      _verdict_check(YES if trivial else NO, "trivial", "nontrivial")),
                Query(f"reduce-pi1-{tag}", ["reduce", "--pi1", "--literal", path, text],
                      _reduce_check(g, word, nf)),
            ]
    return queries


WORKLOADS = {
    "wp_long": _wp_long,
    "conj_hyperbolic": _conj_hyperbolic,
    "elliptic_monoid": _elliptic_monoid,
    "pi1_large_graph": _pi1_large_graph,
}
