"""Cross-check of the monoid completion against sympy's Groebner bases.

In a finitely presented commutative monoid, e and f are congruent exactly
when ``x^e - x^f`` lies in the binomial ideal of the relations, which a
Groebner basis decides independently of the package.  Skipped when sympy
cannot be imported; the package itself never imports it.
"""
import random

import pytest

from gbs.graphs import parse_graph
from gbs.monoid import (
    MonPresentation,
    Verdict,
    congruent,
    gbs_to_monoid,
    monoid_to_gbs,
    replay_path,
)
import gen

sympy = pytest.importorskip("sympy")


class Ideal:
    """Membership in the binomial ideal of a presentation's relations."""

    def __init__(self, pres: MonPresentation):
        self.xs = sympy.symbols(f"x0:{pres.dim}")
        polys = [self.mono(r) - self.mono(s) for r, s in pres.relations if r != s]
        self.basis = sympy.groebner(polys, *self.xs, order="grevlex") if polys else None

    def mono(self, vec):
        out = sympy.Integer(1)
        for x, p in zip(self.xs, vec):
            out *= x**p
        return out

    def congruent(self, e, f) -> bool:
        target = self.mono(e) - self.mono(f)
        return target == 0 or (self.basis is not None and self.basis.contains(target))


def _check(pres, ideal, e, f):
    res = congruent(e, f, pres)
    assert res.verdict is not Verdict.UNKNOWN
    assert (res.verdict is Verdict.CONGRUENT) == ideal.congruent(e, f), (pres, e, f)
    if res.verdict is Verdict.CONGRUENT:
        assert replay_path(e, res.path, pres) == f
    return res.verdict


def test_completion_matches_groebner_on_random_presentations():
    rng = random.Random(0x6B)
    verdicts = []
    for _ in range(500):
        dim = rng.randint(1, 3)
        vec = lambda: tuple(rng.randint(0, 2) for _ in range(dim))  # noqa: E731
        pres = MonPresentation(dim, tuple((vec(), vec()) for _ in range(rng.randint(0, 4))))
        ideal = Ideal(pres)
        for _ in range(3):
            verdicts.append(_check(pres, ideal, vec(), vec()))
    assert verdicts.count(Verdict.CONGRUENT) > 300
    assert verdicts.count(Verdict.NOT_CONGRUENT) > 300


def test_completion_matches_groebner_on_graph_encodings():
    rng = random.Random(0x6C)
    verdicts = []
    for _ in range(60):
        graph = gen.random_graph(rng)
        enc = gbs_to_monoid(graph)
        ideal = Ideal(enc.presentation)
        for _ in range(3):
            a, b = rng.choice(graph.vertices), rng.choice(graph.vertices)
            k = rng.choice((-1, 1)) * rng.randint(1, 60)
            ell = rng.choice((-1, 1)) * rng.randint(1, 60)
            e, f = enc.split(a, k)[1], enc.split(b, ell)[1]
            verdicts.append(_check(enc.presentation, ideal, e, f))
    assert verdicts.count(Verdict.CONGRUENT) > 10
    assert verdicts.count(Verdict.NOT_CONGRUENT) > 10


def test_verdicts_that_were_unknown():
    # the two pumping classes of the monoid tests
    pres = MonPresentation(2, (((2, 0), (1, 0)), ((0, 2), (0, 1))))
    assert _check(pres, Ideal(pres), (1, 1), (1, 0)) is Verdict.NOT_CONGRUENT
    # a^6 and a^2 of the CLI test, encoded
    graph = parse_graph(
        "vertex a\nedge y a a 4 2 Y\nedge Y a a 2 4 y\nedge z a a 9 3 Z\nedge Z a a 3 9 z\n"
    )
    enc = gbs_to_monoid(graph)
    e, f = enc.split("a", 6)[1], enc.split("a", 2)[1]
    assert _check(enc.presentation, Ideal(enc.presentation), e, f) is Verdict.NOT_CONGRUENT
    # a converted presentation goes through the same check
    graph, k, ell = monoid_to_gbs(pres, (1, 1), (1, 0))
    enc = gbs_to_monoid(graph)
    e, f = enc.split("a", k)[1], enc.split("a", ell)[1]
    assert _check(enc.presentation, Ideal(enc.presentation), e, f) is Verdict.NOT_CONGRUENT


def test_pairs_decided_by_their_support_are_outside_the_ideal():
    # on small encodings, every pair that a capped completion leaves to the
    # support check, and that the check decides, is not congruent
    rng = random.Random(0x6D)
    decided = 0
    for _ in range(200):
        graph = gen.random_graph(rng, 3, 4, 6)
        enc = gbs_to_monoid(graph)
        ideal = None
        for _ in range(5):
            a, b = rng.choice(graph.vertices), rng.choice(graph.vertices)
            (ra, e), (rb, f) = enc.split(a, gen.label_power(rng, graph)), enc.split(b, gen.label_power(rng, graph))
            if ra != rb:
                continue
            for bound in (2, 1, 0):
                if congruent(e, f, enc.presentation, bound).reason == "support out of reach":
                    ideal = ideal or Ideal(enc.presentation)
                    assert not ideal.congruent(e, f), (graph, e, f, bound)
                    decided += 1
    assert decided > 40, decided
