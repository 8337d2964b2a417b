import random
from fractions import Fraction

import pytest

from gbs import monoid
from gbs.conjugacy import ConjVerdict, conj_elliptic, conjugate
from gbs.graphs import GbsError, GFactorization, InternalError
from gbs.monoid import (
    CongResult,
    MonPresentation,
    Verdict,
    congruent,
    gbs_to_monoid,
    monoid_to_gbs,
    parse_presentation,
    parse_vector,
    replay_path,
)
import gen
from conftest import LATTICE_NEGATIVE, keeps_its_decision, without_the_lattice_test

SWAP = MonPresentation(2, (((1, 0), (0, 1)),))


def test_congruent_single_application():
    res = congruent((1, 1), (0, 2), SWAP)
    assert res.verdict is Verdict.CONGRUENT
    assert len(res.path) == 1
    assert replay_path((1, 1), res.path, SWAP) == (0, 2)


def test_congruent_exhausted_closure():
    # no relation side fits (0, 0), which is alone in its class at any bound
    for bound in (None, 0):
        res = congruent((0, 0), (1, 0), SWAP, bound)
        assert (res.verdict, res.reason) == (Verdict.NOT_CONGRUENT, "no relation applies")


def test_a_path_that_does_not_replay_is_an_internal_error(monkeypatch):
    # an empty path stops short of f; a backward swap does not fit (2, 0)
    for bad in ((), ((0, -1),)):
        monkeypatch.setattr(monoid, "_relation_path", lambda *args, bad=bad: bad)
        with pytest.raises(InternalError):
            congruent((2, 0), (0, 2), SWAP)


def test_congruent_reflexive():
    res = congruent((3, 4), (3, 4), SWAP)
    assert res.verdict is Verdict.CONGRUENT and res.path == ()


def test_congruent_dimension_mismatch():
    with pytest.raises(GbsError):
        congruent((1,), (0, 1), SWAP)


def test_degenerate_relations_are_ignored():
    pres = MonPresentation(2, (((1, 1), (1, 1)),))
    assert congruent((1, 0), (0, 1), pres).verdict is Verdict.NOT_CONGRUENT


def test_meets_found_inside_infinite_closures():
    # 2 ~ 1 collapses all positive naturals into one class
    pres = MonPresentation(1, (((2,), (1,)),))
    assert congruent((1,), (4,), pres, bound=100).verdict is Verdict.CONGRUENT
    assert congruent((2,), (3,), pres, bound=100).verdict is Verdict.CONGRUENT
    assert congruent((0,), (3,), pres, bound=100).verdict is Verdict.NOT_CONGRUENT


def test_one_sided_exhaustion_decides():
    # from (0, 0) nothing moves, so the no-verdict needs only that side
    pres = MonPresentation(2, (((1, 0), (2, 0)),))
    res = congruent((1, 0), (0, 0), pres, bound=40)
    assert (res.verdict, res.reason) == (Verdict.NOT_CONGRUENT, "no relation applies")


# y^2 ~ 1 and xy ~ 1 make y ~ x, but only through the critical pair of the
# two rules, whose lcm x y^2 has a coordinate of 2
CAPPED = MonPresentation(2, (((0, 0), (0, 2)), ((0, 0), (1, 1))))


def test_unknown_honest_third_verdict():
    # both classes pump upward forever and never meet: the class of (1, 0)
    # is every (a, 0) with a >= 1, since no relation moves a vector with a
    # zero second coordinate off it; the completion decides it at any cap
    pres = MonPresentation(2, (((2, 0), (1, 0)), ((0, 2), (0, 1))))
    assert congruent((1, 1), (1, 0), pres).verdict is Verdict.NOT_CONGRUENT
    assert congruent((1, 1), (1, 0), pres, bound=30).verdict is Verdict.NOT_CONGRUENT
    # a cap below the one critical pair leaves the answer open
    res = congruent((0, 1), (1, 0), CAPPED, bound=1)
    assert res.verdict is Verdict.UNKNOWN and "bound 1" in res.reason
    for bound in (None, 2):
        res = congruent((0, 1), (1, 0), CAPPED, bound=bound)
        assert res.verdict is Verdict.CONGRUENT
        assert replay_path((0, 1), res.path, CAPPED) == (1, 0)


def _bounded_corpus():
    """1,500 small presentations, each with one pair of vectors."""
    rng = random.Random(1606)
    for _ in range(1500):
        dim = rng.randint(1, 3)
        vec = lambda top: tuple(rng.randint(0, top) for _ in range(dim))  # noqa: E731
        pres = MonPresentation(dim, tuple((vec(3), vec(3)) for _ in range(rng.randint(1, 4))))
        yield pres, vec(4), vec(4)


def test_bounded_verdicts_agree_with_the_unbounded_one():
    # a bound may leave a query open, but a verdict it gives is the true one
    decided = 0
    for pres, e, f in _bounded_corpus():
        truth = congruent(e, f, pres).verdict
        assert truth is not Verdict.UNKNOWN
        for bound in range(7):
            verdict = congruent(e, f, pres, bound).verdict
            if verdict is not Verdict.UNKNOWN:
                assert verdict is truth, (pres, e, f, bound)
                decided += 1
    assert decided > 8000


def test_capped_pairs_whose_support_is_out_of_reach_are_not_congruent():
    # a capped completion that stops short leaves the pair to the support
    # check: on the label-built corpus each pair that it decides is not
    # conjugate by the uncapped completion, and every other capped answer
    # is the uncapped one or unknown
    decided = 0
    for g, a, k, b, ell in gen.label_built_queries(random.Random(10), 60):
        truth = conj_elliptic(a, k, b, ell, g).verdict
        for bound in (2, 1, 0):
            res = conj_elliptic(a, k, b, ell, g, bound)
            if res.reason == "support out of reach":
                assert truth is ConjVerdict.NOT_CONJUGATE, (g, a, k, b, ell, bound)
                decided += 1
            elif res.verdict is not ConjVerdict.UNKNOWN:
                assert res.verdict is truth, (g, a, k, b, ell, bound)
    assert decided > 60, decided


def test_a_capped_pair_is_decided_by_the_coordinates_each_side_reaches():
    # x^2 ~ x, x y ~ x and z^2 ~ z: the one critical pair, of x^2 and x y,
    # has the lcm x^2 y, above bound 1.  x y never reaches z, and x z never
    # loses it, so the pair is decided at bound 1 in either order, as the
    # uncapped completion decides it
    pres = MonPresentation(3, (((2, 0, 0), (1, 0, 0)), ((1, 1, 0), (1, 0, 0)), ((0, 0, 2), (0, 0, 1))))
    assert monoid._reach((1, 1, 0), pres) == 0b011
    assert monoid._reach((1, 0, 1), pres) == 0b111
    for e, f in (((1, 1, 0), (1, 0, 1)), ((1, 0, 1), (1, 1, 0))):
        res = congruent(e, f, pres, bound=1)
        assert (res.verdict, res.reason) == (Verdict.NOT_CONGRUENT, "support out of reach")
        assert congruent(e, f, pres).reason == "distinct normal forms"
    # x y and x^2 are congruent, and the capped completion finds it
    assert congruent((1, 1, 0), (2, 0, 0), pres, bound=1).verdict is Verdict.CONGRUENT


def test_the_lattice_test_keeps_every_decision_of_the_completion(monkeypatch):
    # the lattice test only answers no, and only where the completion says
    # no or stops at its bound; every other result, paths included, is the
    # completion's own
    queries = [(pres, e, f, bound) for pres, e, f in _bounded_corpus() for bound in (None, 0, 1, 3)]
    filtered = [congruent(e, f, pres, bound) for pres, e, f, bound in queries]
    without_the_lattice_test(monkeypatch)
    for query, res in zip(queries, filtered):
        pres, e, f, bound = query
        assert keeps_its_decision(res, congruent(e, f, pres, bound)), query
    opened = sum(res.reason == LATTICE_NEGATIVE for res in filtered)
    assert opened > 1000, opened


def _rank(rows) -> int:
    """Rank over the rationals, by Gaussian elimination on fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows[rank:] if row[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for row in rows[rank + 1:]:
            q = row[c] / pivot[c]
            row[:] = [x - q * y for x, y in zip(row, pivot)]
        rank += 1
    return rank


def test_every_relation_lies_in_its_lattice():
    # a lattice that left relation j out would answer no for its own two
    # sides whenever s - r is independent of the other differences
    rng = random.Random(0x5E1F)
    independent = [0] * 5  # by the index of the relation
    for _ in range(300):
        count = rng.randint(1, 5)
        dim = rng.randint(max(2, count), 6)
        vec = lambda: tuple(rng.randint(0, 3) for _ in range(dim))  # noqa: E731
        rels = tuple((vec(), vec()) for _ in range(count))
        pres = MonPresentation(dim, rels)
        for j, (r, s) in enumerate(rels):
            assert pres.in_lattice(pres.deltas[j]), (pres, j)
            assert congruent(r, s, pres).verdict is Verdict.CONGRUENT, (pres, j)
            others = pres.deltas[:j] + pres.deltas[j + 1:]
            independent[j] += _rank(others + (pres.deltas[j],)) > _rank(others)
    assert min(independent) > 40, independent


def test_a_pair_outside_the_relation_lattice_is_decided_at_every_bound():
    # (2, 1) - (1, 1) = (1, 0) is no integer combination of (-2, 2) and
    # (2, -1); the completion alone stops at bound 1 without an answer
    pres = MonPresentation(2, (((2, 0), (0, 2)), ((1, 1), (3, 0))))
    for bound in (None, 0, 1, 5):
        res = congruent((2, 1), (1, 1), pres, bound)
        assert (res.verdict, res.reason) == (Verdict.NOT_CONGRUENT, LATTICE_NEGATIVE)
    assert not pres.in_lattice((1, 0)) and pres.in_lattice((2, 0))


def test_capped_pairs_of_deleted_rules_leave_nothing_open():
    # the pair of the first two rules is capped at bound 1, but the third
    # rule divides both their left sides and deletes them: nothing is open
    pres = MonPresentation(2, (((1, 2), (0, 2)), ((2, 1), (1, 1)), ((1, 0), (0, 0))))
    res = congruent((2, 2), (0, 1), pres, bound=1)
    assert res.verdict is Verdict.NOT_CONGRUENT


def test_right_sides_are_rewritten_by_new_rules():
    # a rule whose right side a new rule divides is rewritten in place; the
    # stale right side would leave the first query open and take the second
    # a different way
    pres = MonPresentation(3, (
        ((1, 1, 1), (0, 3, 3)), ((2, 1, 1), (2, 0, 2)),
        ((0, 3, 2), (3, 0, 0)), ((1, 3, 0), (1, 0, 0)),
    ))
    res = congruent((4, 4, 2), (2, 3, 1), pres, bound=3)
    assert res.verdict is Verdict.CONGRUENT
    pres = MonPresentation(2, (((1, 2), (0, 3)), ((2, 2), (0, 3)), ((0, 0), (0, 3)), ((3, 0), (0, 2))))
    res = congruent((3, 0), (1, 0), pres)
    assert res.path == ((2, 1), (1, 1), (0, -1), (0, -1), (1, 1), (2, -1))


def test_parity_is_not_congruent():
    pres = MonPresentation(1, (((2,), (0,)),))
    assert congruent((0,), (1,), pres).verdict is Verdict.NOT_CONGRUENT
    assert congruent((3,), (1,), pres).verdict is Verdict.CONGRUENT


def test_unit_counts_are_checked():
    with pytest.raises(GbsError):
        MonPresentation(2, (((1, 1), (1, 0)),), units=1)
    with pytest.raises(GbsError):
        MonPresentation(1, (), units=2)
    # every relation difference has unit sum 0, so the lattice test
    # answers a pair whose unit counts differ
    pres = MonPresentation(2, (((2, 1), (0, 1)),), units=1)
    res = congruent((0, 1), (0, 2), pres)
    assert res == CongResult(Verdict.NOT_CONGRUENT, reason="outside the relation lattice")
    rng = random.Random(209)
    for _ in range(20):
        enc = gbs_to_monoid(gen.random_graph(rng, 4, 6, 12))
        units = enc.presentation.units
        e = enc.split(enc.graph.vertices[0], 6)[1]
        f = e[:-units] + tuple(x + 1 for x in e[-units:])
        assert congruent(e, f, enc.presentation).reason == "outside the relation lattice"


def test_every_relation_side_holds_exactly_one_unit():
    # the completion keeps one rule table per vertex, so a side with no
    # unit or with two is refused, even where both sides hold as many
    for r, s in (((1, 0, 0), (2, 0, 0)), ((1, 1, 1), (0, 1, 1)), ((1, 2, 0), (0, 1, 1))):
        with pytest.raises(GbsError, match="^every relation side must hold exactly one unit$"):
            MonPresentation(3, ((r, s),), units=2)
    pres = MonPresentation(3, (((1, 1, 0), (0, 0, 1)), ((2, 0, 1), (0, 0, 1))), units=2)
    assert congruent((1, 1, 0), (2, 0, 1), pres).path == ((0, 1), (1, -1))


def test_the_completion_refuses_a_pair_holding_more_than_one_unit():
    # no caller builds such a pair: a vertex power holds one unit, and a
    # pair whose unit counts differ is answered by the lattice first
    pres = MonPresentation(2, (((2, 1), (0, 1)),), units=1)
    with pytest.raises(GbsError, match="^the completion takes vectors of at most one unit$"):
        congruent((2, 2), (0, 2), pres)
    assert congruent((2, 1), (0, 1), pres).verdict is Verdict.CONGRUENT
    enc = gbs_to_monoid(gen.random_graph(random.Random(26), 4, 6, 12))
    pres = enc.presentation
    for r, s in pres.relations:
        doubled = tuple(x + y for x, y in zip(r, (0,) * (pres.dim - pres.units) + r[-pres.units:]))
        f = tuple(x - y + z for x, y, z in zip(doubled, r, s))
        assert pres.in_lattice(tuple(y - x for x, y in zip(doubled, f)))
        with pytest.raises(GbsError, match="at most one unit"):
            congruent(doubled, f, pres)


def test_translation_invariance_sample():
    rng = random.Random(55)
    pres = MonPresentation(3, (((1, 0, 2), (0, 1, 0)), ((0, 2, 0), (1, 0, 1))))
    found = 0
    for _ in range(200):
        e = tuple(rng.randint(0, 3) for _ in range(3))
        moves = rng.randint(1, 4)
        f = e
        for _ in range(moves):
            idx = rng.randrange(2)
            d = rng.choice((1, -1))
            r, s = pres.relations[idx]
            sub, add = (r, s) if d > 0 else (s, r)
            if all(x >= y for x, y in zip(f, sub)):
                f = tuple(x - y + z for x, y, z in zip(f, sub, add))
        res = congruent(e, f, pres)
        if res.verdict is not Verdict.CONGRUENT:
            continue
        found += 1
        g = tuple(rng.randint(0, 5) for _ in range(3))
        eg = tuple(x + y for x, y in zip(e, g))
        fg = tuple(x + y for x, y in zip(f, g))
        res2 = congruent(eg, fg, pres)
        assert res2.verdict is Verdict.CONGRUENT
        assert replay_path(eg, res.path, pres) == fg
    assert found > 50


def test_gbs_to_monoid_bs23(bs23):
    enc = gbs_to_monoid(bs23)
    assert enc.basis == (2, 3)  # after the sign slot
    assert enc.presentation.dim == 4
    assert enc.presentation.relations == (
        ((0, 0, 1, 1), (0, 1, 0, 1)),  # one loop pair: alpha 3 ~ beta 2
        ((2, 0, 0, 1), (0, 0, 0, 1)),  # squared sign disappears
    )
    # relation 0 is the edge y (r->s conjugates by Y, s->r by y), relation 1
    # a sign relation (no letter); the steps compose right to left
    assert enc.conjugator_path(((0, 1), (1, 1), (0, -1))) == ("y", "Y")
    assert enc.conjugator_path(((1, -1),)) == ()
    assert enc.split("a", 12) == (1, (0, 2, 1, 1))
    assert enc.split("a", 18) == (1, (0, 1, 2, 1))
    assert enc.split("a", -90) == (5, (1, 1, 2, 1))
    with pytest.raises(GbsError, match="^unknown vertex 'z'$"):
        enc.split("z", 12)


def test_gbs_monoid_queries(bs23):
    enc = gbs_to_monoid(bs23)
    res = congruent(enc.split("a", 12)[1], enc.split("a", 18)[1], enc.presentation)
    assert res.verdict is Verdict.CONGRUENT
    res = congruent(enc.split("a", 2)[1], enc.split("a", -2)[1], enc.presentation)
    assert res.verdict is Verdict.NOT_CONGRUENT


def test_monoid_to_gbs_example():
    pres = MonPresentation(2, (((2, 0), (0, 1)),))
    graph, k, ell = monoid_to_gbs(pres, (2, 0), (0, 1))
    assert (k, ell) == (4, 3)
    assert graph.by_name["y0"].alpha == 4 and graph.by_name["y0"].beta == 3
    res = conjugate(
        GFactorization(graph, "a", k, ()), GFactorization(graph, "a", ell, ())
    )
    assert res.verdict is ConjVerdict.CONJUGATE


def test_monoid_to_gbs_equal_and_empty():
    pres = MonPresentation(2, ())
    graph, k, ell = monoid_to_gbs(pres, (1, 1), (1, 1))
    assert k == ell == 6
    res = conjugate(
        GFactorization(graph, "a", k, ()), GFactorization(graph, "a", ell, ())
    )
    assert res.verdict is ConjVerdict.CONJUGATE
    graph, k, ell = monoid_to_gbs(pres, (1, 0), (0, 1))
    res = conjugate(
        GFactorization(graph, "a", k, ()), GFactorization(graph, "a", ell, ())
    )
    assert res.verdict is ConjVerdict.NOT_CONJUGATE


def test_monoid_to_gbs_normalization_enforced():
    pres = MonPresentation(1, (((3,), (1,)),))
    with pytest.raises(GbsError):
        monoid_to_gbs(pres, (1,), (0,))
    pres = MonPresentation(5, ())
    with pytest.raises(GbsError):
        monoid_to_gbs(pres, (1, 1, 1, 1, 1), (0,) * 5)


def test_presentation_parsing_round_trip():
    text = "dim 3\nrel 1,0,2 ~ 0,1,0\nrel 0,2,0 ~ 1,0,1\n"
    pres = parse_presentation(text)
    assert pres.dim == 3
    assert pres.relations[1] == ((0, 2, 0), (1, 0, 1))
    assert parse_vector("1,2,3") == (1, 2, 3)
    with pytest.raises(GbsError):
        parse_presentation("rel 1 ~ 2\n")
    with pytest.raises(GbsError):
        parse_vector("1,-2")


def test_paths_are_deterministic():
    pres = MonPresentation(2, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    first = congruent((2, 0), (0, 2), pres)
    second = congruent((2, 0), (0, 2), pres)
    assert first == second


def test_round_trip_consistency_random():
    rng = random.Random(404)
    for _ in range(60):
        dim = rng.randint(1, 3)
        rels = []
        for _ in range(rng.randint(0, 3)):
            r = tuple(rng.randint(0, 2) for _ in range(dim))
            s = tuple(rng.randint(0, 2) for _ in range(dim))
            if sum(1 for x in r if x) <= 4 and sum(1 for x in s if x) <= 4:
                rels.append((r, s))
        pres = MonPresentation(dim, tuple(rels))
        e = tuple(rng.randint(0, 2) for _ in range(dim))
        f = tuple(rng.randint(0, 2) for _ in range(dim))
        graph, k, ell = monoid_to_gbs(pres, e, f)
        mon = congruent(e, f, pres)
        conj = conjugate(
            GFactorization(graph, "a", k, ()), GFactorization(graph, "a", ell, ())
        )
        assert (mon.verdict is Verdict.CONGRUENT) == (conj.verdict is ConjVerdict.CONJUGATE)
        assert mon.verdict is not Verdict.UNKNOWN and conj.verdict is not ConjVerdict.UNKNOWN


def test_presentations_and_vectors_check_their_inputs():
    with pytest.raises(GbsError, match="^relation dimension mismatch$"):
        MonPresentation(2, (((1, 0), (0, 1, 0)),))
    with pytest.raises(GbsError, match="^relation entries must be naturals$"):
        MonPresentation(2, (((1, -1), (0, 1)),))
    with pytest.raises(GbsError, match="^vectors must be naturals$"):
        congruent((1, -1), (0, 1), SWAP)
    with pytest.raises(GbsError, match="^malformed vector '1,x'$"):
        parse_vector("1,x")
    with pytest.raises(GbsError, match="^vector dimension mismatch$"):
        monoid_to_gbs(SWAP, (1, 0, 0), (0, 1))
