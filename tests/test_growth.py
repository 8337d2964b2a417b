"""Growth gates: each counts deterministic work with a ``monkeypatch``
wrapper and asserts the count, never a time.  The whole module stays under
five seconds.
"""
import builtins
import random

from gbs import graphs, monoid
from gbs.conjugacy import conj_elliptic
from gbs.monoid import congruent
import gen
from conftest import LATTICE_NEGATIVE


def _counting_completions(monkeypatch) -> list:
    calls = []
    complete = monoid._complete

    def counted(e, f, pres, bound):
        calls.append((e, f))
        return complete(e, f, pres, bound)

    monkeypatch.setattr(monoid, "_complete", counted)
    return calls


def test_a_lattice_negative_never_enters_the_completion(monkeypatch):
    # no query is completed twice, and the label-built exponents leave
    # plenty of pairs to the completion as well
    calls = _counting_completions(monkeypatch)
    lattice_negatives = completed = 0
    for g, a, k, b, ell in gen.label_built_queries(random.Random(10), 60):
        for bound in (None, 2):
            before = len(calls)
            res = conj_elliptic(a, k, b, ell, g, bound)
            entered = len(calls) - before
            assert entered <= (res.reason != LATTICE_NEGATIVE), (g, a, k, b, ell, bound)
            lattice_negatives += res.reason == LATTICE_NEGATIVE
            completed += entered
    assert lattice_negatives > 300 and completed > 150, (lattice_negatives, completed)


def test_a_pair_outside_the_lattice_is_not_completed_at_any_bound(monkeypatch):
    calls = _counting_completions(monkeypatch)
    pres = monoid.MonPresentation(2, (((2, 0), (0, 2)), ((1, 1), (3, 0))))
    for bound in (None, 0, 1, 30):
        assert congruent((2, 1), (1, 1), pres, bound).reason == LATTICE_NEGATIVE
    assert calls == []
    assert congruent((2, 1), (0, 3), pres).verdict is monoid.Verdict.CONGRUENT
    assert calls == [((2, 1), (0, 3))]


def _counting_presentations(monkeypatch) -> list:
    built = []
    check = monoid.MonPresentation.__post_init__

    def counted(self):
        built.append(self.dim)
        check(self)

    monkeypatch.setattr(monoid.MonPresentation, "__post_init__", counted)
    return built


def test_the_relations_are_built_only_once_the_residuals_agree(monkeypatch):
    # label products have residual 1 (gen.label_power), and 13, a prime
    # above every label, is a residual of its own
    built = _counting_presentations(monkeypatch)
    assert conj_elliptic("a", 5, "a", 7, graphs.parse_graph("bs 2 3")).reason == "residual mismatch"
    assert built == []
    for g, a, k, b, ell in gen.label_built_queries(random.Random(22), 40):
        assert conj_elliptic(a, k, b, 13 * ell, g).reason == "residual mismatch"
        assert built == [], (g, a, k, b, ell)
        conj_elliptic(a, k, b, ell, g, 2)
        assert len(built) == 1, (g, a, k, b, ell)
        built.clear()


def test_the_lattice_basis_keeps_small_entries_on_graphs_with_many_cycles():
    # an echelon form that never reduces above its pivots reaches 8 and 20
    # digits on these two graphs; the Hermite basis stays within 3
    for vertices, chords in ((50, 50), (100, 25)):
        graph = gen.cycle_with_chords(random.Random(vertices), vertices, chords)
        lattice = monoid.gbs_to_monoid(graph).presentation._lattice
        assert len(lattice) >= vertices - 1
        largest = max(abs(x) for _, row in lattice for x in row)
        assert largest < 1000, (vertices, chords, largest)


def test_the_elimination_keeps_each_new_pivot_small(monkeypatch):
    # the final pass makes the basis Hermite whatever the elimination does,
    # so only the pivots as they are settled show what _settle's reduction
    # by every lower pivot is for: with it the largest entry here is
    # 118,611, and skipping column 0, column c - 1 or every other column
    # gives 8 to 16 digits
    real, largest = monoid._settle, [0]

    def settle(pivots, c, row):
        real(pivots, c, row)
        largest[0] = max(largest[0], *map(abs, pivots[c]))

    monkeypatch.setattr(monoid, "_settle", settle)
    for vertices, chords in ((50, 50), (100, 25), (50, 100), (60, 30)):
        graph = gen.cycle_with_chords(random.Random(vertices), vertices, chords)
        monoid.gbs_to_monoid(graph).presentation._lattice
    assert 0 < largest[0] < 10**6, largest


def _counting_calls(monkeypatch, *names) -> list:
    # every rule that the completion's scans visit in full costs one
    # ``all`` (does it fit?) or one ``any`` (do two left sides share a
    # coordinate?) in the monoid module
    counted = [0]

    def counter(real):
        def count(iterable):
            counted[0] += 1
            return real(iterable)
        return count

    for name in names:
        monkeypatch.setattr(monoid, name, counter(getattr(builtins, name)), raising=False)
    return counted


def test_the_completion_compares_in_full_only_rules_of_the_vector_s_vertex(monkeypatch):
    # an encoding's rules are kept per vertex, and a rule of one vertex
    # never fits a vector of another, so only the rules of the vector's
    # vertex are compared in full: about 337,000 full comparisons on these
    # queries, against about 1,458,000 when the rules of every vertex are
    # compared in full
    compared = _counting_calls(monkeypatch, "all")
    for g, a, k, b, ell in gen.label_built_queries(random.Random(10), 20):
        conj_elliptic(a, k, b, ell, g)
    assert 100_000 < compared[0] < 700_000, compared[0]


def test_the_completion_scans_only_the_rules_of_the_vertex_at_hand(monkeypatch):
    # rewriting, deleting and pairing read the table of one vertex: 1,504
    # rule visits in each capped completion on this graph of 100 vertices,
    # where scanning the rules of every vertex makes 26,304.  Only the
    # completion's own visits are counted, and its capped flag shows that
    # it stopped at the bound, whatever step decides the query afterwards
    counted = _counting_calls(monkeypatch, "all", "any")
    runs = []
    complete = monoid._complete

    def scanned(e, f, pres, bound):
        before = counted[0]
        out = complete(e, f, pres, bound)
        runs.append((counted[0] - before, out[2]))
        return out

    monkeypatch.setattr(monoid, "_complete", scanned)
    graph = gen.cycle_with_chords(random.Random(100), 100, 25)
    rng = random.Random(1)
    for _ in range(2):
        a, b = rng.choice(graph.vertices), rng.choice(graph.vertices)
        k, ell = gen.label_power(rng, graph), gen.label_power(rng, graph)
        runs.clear()
        conj_elliptic(a, k, b, ell, graph, 0)
        [(scans, capped)] = runs
        assert capped and 500 < scans < 8_000, (a, k, b, ell, scans)
