"""Membership in the relation lattice, cross-checked against sympy's Smith
normal form.

``MonPresentation.in_lattice`` decides whether an integer vector t is an
integer combination of the relation differences ``s - r``.  The reference
here shares no code with it: L contains t exactly when adding t as one more
row keeps both the rank and the product of the nonzero invariant factors
(for lattices L within L + Zt of one rank, that product falls by the index
[L + Zt : L]).  Skipped when sympy cannot be imported; the package itself
never imports it.
"""
import math
import random

import pytest

from gbs.monoid import MonPresentation, gbs_to_monoid
import gen

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402


def _invariants(rows):
    """Rank and product of the nonzero invariant factors of the rows."""
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    diagonal = [int(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]
    return len(diagonal), abs(math.prod(diagonal))


def reference_in_lattice(deltas, t) -> bool:
    rows = [list(row) for row in deltas if any(row)]
    if not any(t):
        return True
    return bool(rows) and _invariants(rows) == _invariants(rows + [list(t)])


def _targets(rng, pres, count):
    """Random vectors, each difference, and integer combinations of the
    differences with and without a unit nudge in one coordinate."""
    dim, deltas = pres.dim, pres.deltas
    out = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(count)]
    out += deltas
    for _ in range(count):
        combo = [0] * dim
        for row in deltas:
            c = rng.randint(-3, 3)
            combo = [x + c * y for x, y in zip(combo, row)]
        out.append(tuple(combo))
        combo[rng.randrange(dim)] += rng.choice((-1, 1))
        out.append(tuple(combo))
    return out


def _check(pres, targets, seen):
    for t in targets:
        got = pres.in_lattice(t)
        assert got == reference_in_lattice(pres.deltas, t), (pres, t)
        seen[got] += 1


def test_membership_matches_the_smith_form_on_random_presentations():
    rng = random.Random(0x1A77)
    seen = {True: 0, False: 0}
    for _ in range(150):
        dim = rng.randint(1, 4)
        vec = lambda: tuple(rng.randint(0, 3) for _ in range(dim))  # noqa: E731
        pres = MonPresentation(dim, tuple((vec(), vec()) for _ in range(rng.randint(0, 5))))
        _check(pres, _targets(rng, pres, 4), seen)
    assert min(seen.values()) > 300, seen


def test_membership_matches_the_smith_form_on_graph_encodings():
    # composite labels up to 12 give basis exponents above 1, so pivots
    # meet entries they do not divide and take the extended-gcd step
    rng = random.Random(0x1A78)
    seen = {True: 0, False: 0}
    for _ in range(40):
        pres = gbs_to_monoid(gen.random_graph(rng, 5, 8, 12)).presentation
        _check(pres, _targets(rng, pres, 3), seen)
    assert min(seen.values()) > 80, seen


def _hermite(pres):
    """Assert that the lattice basis is in Hermite normal form."""
    lattice = pres._lattice
    assert [c for c, _ in lattice] == sorted({c for c, _ in lattice}, reverse=True)
    for i, (c, row) in enumerate(lattice):
        assert row[c] > 0 and not any(row[c + 1:]), (pres, c)
        for d, later in lattice[i + 1:]:
            assert 0 <= row[d] < later[d], (pres, c, d)


def test_the_lattice_basis_is_the_hermite_normal_form():
    # the Hermite normal form of a lattice is unique, so the basis cannot
    # depend on the order of the relations
    rng = random.Random(0x1A79)
    for _ in range(150):
        if rng.random() < 0.5:
            dim = rng.randint(1, 5)
            vec = lambda: tuple(rng.randint(0, 6) for _ in range(dim))  # noqa: E731
            pres = MonPresentation(dim, tuple((vec(), vec()) for _ in range(rng.randint(0, 7))))
        else:
            pres = gbs_to_monoid(gen.random_graph(rng, 5, 8, 12)).presentation
        _hermite(pres)
        shuffled = list(pres.relations)
        rng.shuffle(shuffled)
        again = MonPresentation(pres.dim, tuple(shuffled), pres.units)
        assert again._lattice == pres._lattice, pres


def test_the_final_hermite_pass_on_graphs_with_many_cycles():
    # 50 to 100 vertex slots: many pivots are settled before a pivot of a
    # lower column appears or shrinks, and only the final pass reduces them
    for vertices, chords in ((50, 50), (100, 25)):
        rng = random.Random(vertices)
        pres = gbs_to_monoid(gen.cycle_with_chords(rng, vertices, chords)).presentation
        _hermite(pres)
        shuffled = list(pres.relations)
        rng.shuffle(shuffled)
        again = MonPresentation(pres.dim, tuple(shuffled), pres.units)
        assert again._lattice == pres._lattice, (vertices, chords)
