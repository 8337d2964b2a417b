"""Britton reduction and the word problem for factorizations, plus the
paper's position colouring.

Production runs on one left-to-right stack pass that contracts ``y v^k Y``
(beta(y) | k) against the top of the stack.  The interval exponents and the
colouring are the paper's reduction to the free group; only the tests run
them, as a cross-check.  The tests also compare the stack pass with a
rewriting oracle in ``tests/oracles.py``.

Edge positions are 1-based: a factorization ``base^k0 y1 v1^k1 ... yn vn^kn``
has edges 1..n, and interval indices (i, j) with 0 <= i <= j <= n refer to the
slice ``vi^ki y_{i+1} ... y_j vj^kj``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import freegroup
from .freegroup import FWord
from .graphs import (
    GFactorization,
    GbsGraph,
    WordError,
    orientation,
)


class PrefixRatios:
    """Prefix products of the edge ratios alpha/beta and the derived interval
    exponents.

    ``ratio(i)`` is the product of alpha/beta over edges 1..i (1 at i=0), and
    ``k(i, j)`` the exact rational sum of the slice exponents, each scaled by
    the ratio product from position i+1 up to it.  All values share one big
    integer table with a common denominator, so a single subtraction and one
    division test serve every interval query.
    """

    def __init__(self, f: GFactorization):
        by_name = f.graph.by_name
        n = f.n
        alpha = [1] * (n + 1)
        beta = [1] * (n + 1)
        for i, (name, _) in enumerate(f.steps, 1):
            e = by_name[name]
            alpha[i] = e.alpha
            beta[i] = e.beta
        num = [1] * (n + 1)  # prod of alpha, edges 1..i
        den = [1] * (n + 1)  # prod of beta, edges 1..i
        for i in range(1, n + 1):
            num[i] = num[i - 1] * alpha[i]
            den[i] = den[i - 1] * beta[i]
        suf = [1] * (n + 1)  # prod of beta, edges i+1..n
        for i in range(n - 1, -1, -1):
            suf[i] = suf[i + 1] * beta[i + 1]
        exps = [f.k0] + [k for _, k in f.steps]
        acc = 0
        total = [0] * (n + 1)  # scaled prefix sums over the common denominator
        for t in range(n + 1):
            acc += exps[t] * num[t] * suf[t]
            total[t] = acc
        self.n = n
        self.alpha = alpha
        self.beta = beta
        self._num = num
        self._den = den
        self._suf = suf
        self._total = total
        self._scale = [num[i] * suf[i] for i in range(n + 1)]

    def _check(self, i: int, j: int):
        if not 0 <= i <= j <= self.n:
            raise IndexError(f"interval ({i}, {j}) out of range for n={self.n}")

    def ratio(self, i: int) -> Fraction:
        """Product of alpha/beta over edges 1..i."""
        self._check(i, i)
        return Fraction(self._num[i], self._den[i])

    def k_numerator(self, i: int, j: int) -> int:
        return self._total[j] - (self._total[i - 1] if i else 0)

    def k(self, i: int, j: int) -> Fraction:
        self._check(i, j)
        return Fraction(self.k_numerator(i, j), self._scale[i])

    def k_divisible(self, i: int, j: int, d: int) -> bool:
        """Whether k(i, j) is an integer divisible by d."""
        self._check(i, j)
        num, scale = self.k_numerator(i, j), self._scale[i]
        return num % scale == 0 and (num // scale) % d == 0


def k_interval(f: GFactorization, i: int, j: int) -> Fraction:
    """Exact rational exponent accumulated by the slice between i and j."""
    return PrefixRatios(f).k(i, j)


def _rho_prefixes(f: GFactorization, oriented: Sequence[str]) -> list[tuple[int, ...]]:
    """Signed oriented-edge counts of every prefix, as hashable tuples."""
    slot: dict[str, tuple[int, int]] = {}
    by_name = f.graph.by_name
    for idx, name in enumerate(oriented):
        slot[name] = (idx, 1)
        slot[by_name[name].inv] = (idx, -1)
    cur = [0] * len(oriented)
    out = [tuple(cur)]
    for name, _ in f.steps:
        idx, sgn = slot[name]
        cur[idx] += sgn
        out.append(tuple(cur))
    return out


def rho(
    f: GFactorization, i: int, j: int, oriented: Optional[Sequence[str]] = None
) -> tuple[int, ...]:
    """Signed count of each oriented edge among the slice's edges i+1..j."""
    if not 0 <= i <= j <= f.n:
        raise IndexError(f"interval ({i}, {j}) out of range for n={f.n}")
    if oriented is None:
        oriented = orientation(f.graph)
    pre = _rho_prefixes(f, oriented)
    return tuple(b - a for a, b in zip(pre[i], pre[j]))


def sim_c(f: GFactorization, i: int, j: int) -> bool:
    """Whether edges i and j are mutually inverse with a cancelable interior:
    the enclosed slice counts zero on every oriented edge and accumulates an
    exponent divisible by beta of the earlier edge."""
    n = f.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"positions ({i}, {j}) out of range for n={n}")
    if i == j:
        return False
    if i > j:
        i, j = j, i
    g = f.graph
    if f.steps[j - 1][0] != g.by_name[f.steps[i - 1][0]].inv:
        return False
    pre = _rho_prefixes(f, orientation(g))
    if pre[i] != pre[j - 1]:
        return False
    pr = PrefixRatios(f)
    return pr.k_divisible(i, j - 1, pr.beta[i])


@dataclass(frozen=True)
class ColorTable:
    """Partition of the edge positions 1..n into cancellation-color classes
    with a partial fixed-point-free involution between paired classes.

    The representative of a class is the smallest position in the union of
    the class and its partner; the class holding the representative carries
    sign +1, its partner -1.
    """

    n: int
    class_of: tuple[int, ...]  # position (1-based; slot 0 unused) -> class id
    classes: tuple[tuple[int, ...], ...]
    inverse: tuple[Optional[int], ...]
    representative: tuple[int, ...]
    sign: tuple[int, ...]

    def partition(self) -> tuple[tuple[int, ...], ...]:
        return self.classes

    def letter(self, position: int) -> freegroup.FLetter:
        c = self.class_of[position]
        return (self.representative[c], self.sign[c])

    def slice_word(self, i: int, j: int) -> FWord:
        """Color letters of the slice between interval indices i and j."""
        return tuple(self.letter(t) for t in range(i + 1, j + 1))


def _sim_pairs(f: GFactorization, pr: PrefixRatios):
    """All position pairs i < j with ``sim_c(f, i, j)``, grouped candidates
    first by equal oriented-edge prefix, then filtered by the letter and
    divisibility conditions."""
    n = f.n
    g = f.graph
    inv = [""] + [g.by_name[name].inv for name, _ in f.steps]
    names = [""] + [name for name, _ in f.steps]
    pre = _rho_prefixes(f, orientation(g))
    groups: dict[tuple[int, ...], list[int]] = {}
    for t in range(1, n + 1):
        groups.setdefault(pre[t], []).append(t)
    total = pr._total
    scale = pr._scale
    for group in groups.values():
        for a, i in enumerate(group):
            want = inv[i]
            mod = scale[i] * pr.beta[i]
            base_num = total[i - 1]
            for t in group[a:]:
                j = t + 1
                if j > n:
                    break
                if names[j] == want and (total[t] - base_num) % mod == 0:
                    yield i, j


def color(f: GFactorization) -> tuple[ColorTable, FWord]:
    """Color the edge positions and return the table plus the color word,
    one letter ``(representative, sign)`` per position.

    Two positions are ``sim_c``-related only if their letters can cancel;
    the classes are the even-distance sides of the connected components of
    that relation, and the involution swaps the two sides of a component.
    """
    n = f.n
    pr = PrefixRatios(f)
    parent = list(range(n + 1))
    parity = [0] * (n + 1)

    def find(x: int) -> tuple[int, int]:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        p = 0
        for node in reversed(path):
            p ^= parity[node]
            parity[node] = p
            parent[node] = x
        return x, parity[path[0]] if path else 0

    for i, j in _sim_pairs(f, pr):
        ri, pi = find(i)
        rj, pj = find(j)
        if ri == rj:
            if pi == pj:
                raise AssertionError("coloring produced an odd cancellation cycle")
            continue
        parent[rj] = ri
        parity[rj] = pi ^ pj ^ 1

    roots = [0] * (n + 1)
    sides = [0] * (n + 1)
    members: dict[int, list[int]] = {}
    for t in range(1, n + 1):
        r, p = find(t)
        roots[t] = r
        sides[t] = p
        members.setdefault(r, []).append(t)

    class_ids: dict[tuple[int, int], int] = {}
    class_of = [0] * (n + 1)
    classes: list[list[int]] = []
    for t in range(1, n + 1):
        key = (roots[t], sides[t])
        if key not in class_ids:
            class_ids[key] = len(classes)
            classes.append([])
        c = class_ids[key]
        class_of[t] = c
        classes[c].append(t)

    inverse: list[Optional[int]] = []
    representative: list[int] = []
    sign: list[int] = []
    for (root, side), c in sorted(class_ids.items(), key=lambda kv: kv[1]):
        partner = class_ids.get((root, 1 - side))
        inverse.append(partner)
        rep = members[root][0]
        representative.append(rep)
        sign.append(1 if sides[rep] == side else -1)

    table = ColorTable(
        n,
        tuple(class_of),
        tuple(tuple(c) for c in classes),
        tuple(inverse),
        tuple(representative),
        tuple(sign),
    )
    word = tuple(table.letter(t) for t in range(1, n + 1))
    return table, word


def britton_reduce_fast(f: GFactorization) -> GFactorization:
    """Britton-reduce in one left-to-right stack pass: an incoming edge that
    is the inverse of the top edge, with beta(top) dividing the top's
    exponent, pops the top and contracts into the exponent below it.  This is
    the leftmost-first rewriting rule, in linear time."""
    by_name = f.graph.by_name
    edges, exps = [None], [f.k0]  # slot 0 carries k0 and is never popped
    for name, k in f.steps:
        top = edges[-1]
        if top is not None and name == top.inv and exps[-1] % top.beta == 0:
            edges.pop()
            t = exps.pop() // top.beta
            exps[-1] += top.alpha * t + k
        else:
            edges.append(by_name[name])
            exps.append(k)
    steps = tuple(zip([e.name for e in edges[1:]], exps[1:]))
    return GFactorization._trusted(f.graph, f.base, exps[0], steps)


def word_problem(f: GFactorization) -> bool:
    """Whether a closed factorization represents the identity: by Britton's
    lemma, iff it reduces to the empty word with a zero vertex exponent."""
    if not f.is_closed:
        raise WordError("word problem needs a closed factorization")
    h = britton_reduce_fast(f)
    return h.n == 0 and h.k0 == 0


def cyclically_reduce_with_conjugator(f: GFactorization):
    """Cyclically Britton-reduce a closed factorization; also return a word
    z, from the result's base to f's, with ``result = z f z^-1``.

    After Britton reduction only the seam between the last and the first
    edge can still contract.  One pass folds ``k0`` into the last exponent,
    then peels contractible ``y v^k Y`` pairs off both ends, carrying each
    contracted power into the new last exponent; no other adjacent pair
    changes, so what is left is cyclically reduced, and hyperbolic results
    start with an edge letter.  z is the inverse of the carried power
    followed by the peeled suffix; an elliptic result commutes with that
    power, so there z is the suffix alone.
    """
    if not f.is_closed:
        raise WordError("cyclic reduction needs a closed factorization")
    h = britton_reduce_fast(f)
    if not h.n:
        return h, GFactorization._trusted(f.graph, h.base, 0, ())
    g, by_name = f.graph, f.graph.by_name
    steps = h.steps
    lo, hi, c = 0, h.n - 1, h.k0  # the word is steps[lo..hi], c added to the last exponent
    while lo < hi:
        e = by_name[steps[hi][0]]
        k = steps[hi][1] + c
        if steps[lo][0] != e.inv or k % e.beta:
            break
        c = e.alpha * (k // e.beta) + steps[lo][1]
        lo, hi = lo + 1, hi - 1
    trusted = GFactorization._trusted  # pieces of h's path
    if lo > hi:
        return trusted(g, e.src, c, ()), trusted(g, e.src, 0, steps[hi + 1 :])
    base = by_name[steps[lo][0]].src
    middle = steps[lo:hi] + ((steps[hi][0], steps[hi][1] + c),)
    return trusted(g, base, 0, middle), trusted(g, base, -c, steps[hi + 1 :])


def cyclically_reduce(f: GFactorization) -> GFactorization:
    """Cyclically Britton-reduced factorization conjugate to the input."""
    out, _ = cyclically_reduce_with_conjugator(f)
    return out
