import random
from fractions import Fraction

import pytest

from gbs import britton
from gbs.britton import (
    PrefixRatios,
    britton_reduce_fast,
    color,
    cyclically_reduce,
    cyclically_reduce_with_conjugator,
    k_interval,
    rho,
    sim_c,
    word_problem,
)
from gbs.conjugacy import verify_conjugator
from gbs.freegroup import is_trivial
from gbs.graphs import (
    GFactorization,
    WordError,
    concat,
    invert,
    parse_graph,
)
import gen
from conftest import fact
from oracles import ref, to_ref


def test_k_interval_examples(example_fact):
    assert k_interval(example_fact, 2, 2) == 1
    assert k_interval(example_fact, 3, 3) == 3
    assert k_interval(example_fact, 0, 8) == 15


def test_k_interval_range_check(example_fact):
    with pytest.raises(IndexError):
        k_interval(example_fact, 3, 2)
    with pytest.raises(IndexError):
        k_interval(example_fact, 0, 9)


def test_prefix_ratio_recurrence(example_fact):
    pr = PrefixRatios(example_fact)
    assert pr.ratio(0) == 1
    for i in range(1, example_fact.n + 1):
        assert pr.ratio(i) == pr.ratio(i - 1) * Fraction(pr.alpha[i], pr.beta[i])


def test_splitting_identity(bs23):
    rng = random.Random(17)
    for _ in range(40):
        f = gen.random_closed_factorization(rng, bs23, max_len=8, max_exp=4)
        pr = PrefixRatios(f)
        ks = [f.k0] + [k for _, k in f.steps]
        for i in range(f.n + 1):
            for l in range(i, f.n + 1):
                for j in range(l, f.n + 1):
                    p_il = pr.ratio(l) / pr.ratio(i)
                    assert pr.k(i, j) == pr.k(i, l) + p_il * (pr.k(l, j) - ks[l])


def test_rho_examples(example_fact):
    assert rho(example_fact, 0, 8) == (0,)
    assert rho(example_fact, 0, 1) == (1,)


def test_rho_and_sim_c_check_their_positions(example_fact):
    assert example_fact.n == 8
    with pytest.raises(IndexError, match=r"^interval \(0, 9\) out of range for n=8$"):
        rho(example_fact, 0, 9)
    with pytest.raises(IndexError, match=r"^interval \(2, 1\) out of range for n=8$"):
        rho(example_fact, 2, 1)
    with pytest.raises(IndexError, match=r"^positions \(0, 1\) out of range for n=8$"):
        sim_c(example_fact, 0, 1)
    with pytest.raises(IndexError, match=r"^positions \(1, 9\) out of range for n=8$"):
        sim_c(example_fact, 1, 9)


def test_rho_explicit_orientation(example_fact):
    assert rho(example_fact, 0, 1, oriented=("Y",)) == (-1,)
    assert rho(example_fact, 0, 3, oriented=("y",)) == (1,)


def test_rho_additivity(example_fact):
    n = example_fact.n
    for i in range(n + 1):
        for l in range(i, n + 1):
            for j in range(l, n + 1):
                left = rho(example_fact, i, l)
                right = rho(example_fact, l, j)
                whole = rho(example_fact, i, j)
                assert whole == tuple(x + y for x, y in zip(left, right))


def test_sim_c_examples(example_fact):
    assert sim_c(example_fact, 3, 4) is True
    assert sim_c(example_fact, 2, 3) is False


def test_sim_c_symmetric_irreflexive(example_fact):
    n = example_fact.n
    for i in range(1, n + 1):
        assert sim_c(example_fact, i, i) is False
        for j in range(1, n + 1):
            assert sim_c(example_fact, i, j) == sim_c(example_fact, j, i)


def test_sim_c_three_hop_closure(bs23):
    rng = random.Random(23)
    for _ in range(60):
        f = gen.random_closed_factorization(rng, bs23, max_len=10, max_exp=3)
        n = f.n
        rel = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and sim_c(f, i, j)
        }
        for (i, l) in rel:
            for m in range(1, n + 1):
                if (l, m) in rel:
                    for j in range(1, n + 1):
                        if (m, j) in rel and i != j:
                            assert (i, j) in rel


def test_color_example(example_fact):
    table, word = color(example_fact)
    assert set(map(frozenset, table.partition())) == {
        frozenset({1, 7}), frozenset({6, 8}),
        frozenset({2}), frozenset({5}),
        frozenset({3}), frozenset({4}),
    }
    assert word == (
        (1, 1), (2, 1), (3, 1), (3, -1), (2, -1), (1, -1), (1, 1), (1, -1),
    )
    # involution pairs the two sides of each component
    c17 = table.class_of[1]
    c68 = table.class_of[6]
    assert table.inverse[c17] == c68 and table.inverse[c68] == c17
    assert table.representative[c17] == table.representative[c68] == 1
    assert table.sign[c17] == 1 and table.sign[c68] == -1


def test_color_empty_and_unrelated(bs23):
    table, word = color(fact(bs23, "a^4"))
    assert word == () and table.partition() == ()
    f = fact(bs23, "y a y")
    table, word = color(f)
    assert table.partition() == ((1,), (2,))
    assert word == ((1, 1), (2, 1))


def test_color_table_tracks_sim_c():
    rng = random.Random(41)
    for _ in range(60):
        g = gen.random_graph(rng)
        f = gen.random_closed_factorization(rng, g, max_len=10, max_exp=3)
        table, word = color(f)
        for ci, partner in enumerate(table.inverse):
            if partner is not None:
                assert partner != ci
                assert table.inverse[partner] == ci
        for i in range(1, f.n + 1):
            for j in range(1, f.n + 1):
                if i != j and sim_c(f, i, j):
                    ci, cj = table.class_of[i], table.class_of[j]
                    assert table.inverse[ci] == cj
        # letters of paired positions are mutually inverse in the color word
        for i in range(1, f.n + 1):
            rep, sign = word[i - 1]
            assert rep == table.representative[table.class_of[i]]


def test_color_refuses_an_odd_cancellation_cycle(bs23, monkeypatch):
    # sim_c never closes an odd cycle, so each component has two sides; a
    # relation that did would leave no colouring, and color says so
    monkeypatch.setattr(britton, "_sim_pairs", lambda f, pr: iter([(1, 2), (2, 3), (1, 3)]))
    with pytest.raises(AssertionError, match="odd cancellation cycle"):
        color(fact(bs23, "y Y y Y"))


def test_fast_reduce_open_paths(amalgam):
    # t runs a -> b, so "t b^3 T t" is an open path ending at b
    f = fact(amalgam, "t b^3 T t")
    out = britton_reduce_fast(f)
    assert out == fact(amalgam, "a^2 t")
    word, want, g = to_ref(f, out)
    assert ref.naive_reduce(word, g) == want
    assert not out.is_closed


def test_word_problem_examples(bs23, example_fact):
    assert word_problem(example_fact) is False
    extended = concat(example_fact, fact(bs23, "a^-15"))
    assert word_problem(extended) is True
    assert word_problem(fact(bs23, "a^0")) is True


def test_word_problem_rejects_open_words(amalgam):
    with pytest.raises(WordError):
        word_problem(fact(amalgam, "t"))


def vertex_group_exponent(f, i, j):
    """The exponent the slice between i and j contracts to when it lies in
    the vertex group at its start, else None: by Britton's lemma, when the
    stack reducer leaves a bare vertex power."""
    if i == 0:
        start, k = f.base, f.k0
    else:
        name, k = f.steps[i - 1]
        start = f.graph.by_name[name].dst
    h = britton_reduce_fast(GFactorization(f.graph, start, k, f.steps[i:j]))
    return None if h.n else h.k0


def test_vertex_group_exponent(example_fact):
    assert vertex_group_exponent(example_fact, 0, 8) == 15
    assert vertex_group_exponent(example_fact, 2, 4) == 4
    assert vertex_group_exponent(example_fact, 2, 3) is None
    # the paper's construction: a slice lies in the vertex group iff its
    # colour word is trivial, and then it contracts to k(i, j)
    rng = random.Random(284)
    inside = 0
    for _ in range(1500):
        g = gen.random_graph(rng)
        f = gen.random_closed_factorization(rng, g, max_len=12, max_exp=6)
        i = rng.randint(0, f.n)
        j = rng.randint(i, f.n)
        table, _ = color(f)
        paper = None
        if is_trivial(table.slice_word(i, j)):
            k = PrefixRatios(f).k(i, j)
            assert k.denominator == 1
            paper = k.numerator
        assert vertex_group_exponent(f, i, j) == paper
        inside += paper is not None
    assert 300 < inside < 1200
    # (y Y)^1000 over bs 1 1 at linear cost: every prefix ending on a Y is trivial
    bs11 = parse_graph("bs 1 1")
    f = GFactorization(bs11, "a", 0, (("y", 0), ("Y", 0)) * 1000)
    assert vertex_group_exponent(f, 0, 2000) == 0
    assert vertex_group_exponent(f, 0, 1999) is None


def test_naive_reduce_examples(bs23):
    for text, reduced in (("y a^2 Y", "a^3"), ("Y a^3 y", "a^2"), ("y a Y", "y a Y")):
        word, want, g = to_ref(fact(bs23, text), fact(bs23, reduced))
        assert ref.naive_reduce(word, g) == want


def test_is_britton_reduced(bs23):
    for text, reduced in (("y a Y", True), ("y a^2 Y", False), ("1", True)):
        assert ref.is_britton_reduced(*to_ref(fact(bs23, text))) is reduced


def test_fast_reduce_examples(bs23, example_fact):
    assert britton_reduce_fast(fact(bs23, "y a^2 Y a^5")) == fact(bs23, "a^8")
    assert britton_reduce_fast(example_fact) == fact(bs23, "a^15")
    f = fact(bs23, "y a Y a^3")
    assert britton_reduce_fast(f) == f


def _bits(f):
    return sum(abs(k).bit_length() + 1 for _, k in f.steps) + abs(f.k0).bit_length() + f.n + 1


def test_reductions_agree_on_random_corpus():
    rng = random.Random(31)
    for _ in range(400):
        g = gen.random_graph(rng)
        f = gen.random_closed_factorization(rng, g)
        fast = britton_reduce_fast(f)
        word, out, G = to_ref(f, fast)
        assert out == ref.naive_reduce(word, G)
        assert ref.is_britton_reduced(out, G)
        assert word_problem(concat(fast, invert(fast)))
        assert word_problem(f) == ref.is_trivial(word, G)
        assert fast.n <= f.n
        assert _bits(fast) <= 8 * _bits(f) + 16


def _long_words():
    """(factorization, whether it is trivial, expected cyclic reduction or
    None) at sizes where a quadratic reducer shows."""
    rng = random.Random(53)
    bs11 = parse_graph("bs 1 1")
    bs23 = parse_graph("bs 2 3")
    adversarial = GFactorization(bs11, "a", 0, (("y", 0), ("Y", 0)) * 2_000)
    u = GFactorization(
        bs23,
        "a",
        rng.getrandbits(256),
        tuple(
            (rng.choice("yY"), rng.choice((1, -1)) * rng.getrandbits(256))
            for _ in range(4_000)
        ),
    )
    m = 2_000
    nested = GFactorization(bs23, "a", 0, (("y", 0),) * (m - 1) + (("y", 1),) + (("Y", 0),) * m)
    return [
        pytest.param(adversarial, True, None, id="adversarial-yY-bs11-n4000"),
        pytest.param(concat(u, invert(u)), True, None, id="trivial-uU-bs23-256bit-n8000"),
        pytest.param(
            nested, False, GFactorization(bs23, "a", 1, ()), id="cyclic-ymaYm-bs23-m2000"
        ),
    ]


@pytest.mark.parametrize("f, trivial, cyclic", _long_words())
def test_stack_reducer_on_long_words(f, trivial, cyclic):
    word, fast, g = to_ref(f, britton_reduce_fast(f))
    naive = ref.naive_reduce(word, g)
    assert fast == naive
    assert (naive.n == 0 and naive.k0 == 0) is trivial
    assert word_problem(f) is trivial
    if cyclic is not None:
        out, z = cyclically_reduce_with_conjugator(f)
        assert out == cyclic
        assert verify_conjugator(z, f, out)


def test_cyclically_reduce_examples(bs23):
    assert cyclically_reduce(fact(bs23, "y a Y")) == fact(bs23, "a^1")
    assert cyclically_reduce(fact(bs23, "a^3")) == fact(bs23, "a^3")
    f = fact(bs23, "Y a y a^3")
    out = cyclically_reduce(f)
    assert out.n == 2
    word, g = to_ref(out)
    assert ref.is_britton_reduced(ref.concat(g, word, word), g)


def test_cyclically_reduce_rejects_open_words(amalgam):
    with pytest.raises(WordError):
        cyclically_reduce(fact(amalgam, "t b^2"))


def test_cyclic_reduction_output_and_conjugator():
    rng = random.Random(37)
    for _ in range(200):
        g = gen.random_graph(rng)
        f = gen.random_closed_factorization(rng, g, max_len=10, max_exp=5)
        out, z = cyclically_reduce_with_conjugator(f)
        Z, F, OUT, G = to_ref(z, f, out)
        if out.n:
            assert out.k0 == 0
            assert ref.is_britton_reduced(ref.concat(G, OUT, OUT), G)
        # out equals z f z^-1, for z from out's base to f's: each seam of
        # the replay meets, the whole word closes, and it reduces to nothing
        assert (z.base, z.end) == (out.base, f.base)
        parts = (Z, F, ref.invert(Z, G), ref.invert(OUT, G))
        assert all(ref.end_vertex(p, G) == q.base for p, q in zip(parts, parts[1:] + parts[:1]))
        assert ref.is_trivial(ref.concat(G, *parts), G)
