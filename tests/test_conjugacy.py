import random

import pytest

from gbs import conjugacy, monoid
from gbs.britton import cyclically_reduce_with_conjugator
from gbs.conjugacy import (
    ConjVerdict,
    _aligned_rotations,
    _rotation_period,
    conj_elliptic,
    conj_hyperbolic,
    conjugate,
    hyperbolic_system,
    verify_conjugator,
)
from gbs.graphs import (
    GbsError,
    GFactorization,
    InternalError,
    WordError,
    bs_graph,
    parse_factorization,
    parse_graph,
)
import gen
from conftest import fact
from oracles import conj_elliptic_bs, conjugacy_reference, elliptic_closure, ref, to_ref


def test_conjugate_hyperbolic_example(bs23):
    v, w = fact(bs23, "y a"), fact(bs23, "y")
    res = conjugate(v, w)
    assert res.verdict is ConjVerdict.CONJUGATE
    assert str(res.witness) == "a^3"
    assert verify_conjugator(res.witness, v, w)
    # the defining witness from the worked equations also checks out
    assert verify_conjugator(fact(bs23, "a^3"), v, w)


def test_conjugate_defining_relation(bs23):
    res = conjugate(fact(bs23, "a^2"), fact(bs23, "a^3"))
    assert res.verdict is ConjVerdict.CONJUGATE
    assert str(res.witness) == "y"


def test_conjugate_path_mismatch(bs23):
    res = conjugate(fact(bs23, "y a"), fact(bs23, "Y a"))
    assert res.verdict is ConjVerdict.NOT_CONJUGATE


def test_conjugate_requires_closed(amalgam):
    with pytest.raises(WordError):
        conjugate(fact(amalgam, "t"), fact(amalgam, "t"))


def test_conjugate_rejects_mixed_graphs(bs23, amalgam):
    with pytest.raises(GbsError):
        conjugate(fact(bs23, "a"), fact(amalgam, "a"))


def test_conj_hyperbolic_examples(bs23):
    assert conj_hyperbolic(fact(bs23, "y a"), fact(bs23, "y")) == (0, 3)
    assert conj_hyperbolic(fact(bs23, "y a Y a"), fact(bs23, "y a Y a^2")) is None
    v = fact(bs23, "y a^2 Y a^3")
    assert conj_hyperbolic(v, v) == (0, 0)


def test_conj_hyperbolic_words_of_different_lengths_are_not_conjugate(bs23):
    assert conj_hyperbolic(fact(bs23, "y"), fact(bs23, "y y")) is None
    assert conj_hyperbolic(fact(bs23, "y a y a^2"), fact(bs23, "y a")) is None


def test_conj_hyperbolic_checks_preconditions(bs23):
    with pytest.raises(WordError):
        conj_hyperbolic(fact(bs23, "a^2"), fact(bs23, "a^2"))
    with pytest.raises(WordError):
        conj_hyperbolic(fact(bs23, "a y a"), fact(bs23, "y"))


TWO_LOOPS = """\
vertex a
edge y a a 4 2 Y
edge Y a a 2 4 y
edge z a a 2 4 Z
edge Z a a 4 2 z
"""


def test_conj_hyperbolic_congruence_branch():
    # the ratio product over the path y z is one, so the solver must decide
    # the simultaneous congruences for the conjugating power
    g = __import__("gbs").graphs.parse_graph(TWO_LOOPS)
    v = fact(g, "y a z")
    w_yes = fact(g, "y a^-1 z a^4")
    res = conjugate(v, w_yes)
    assert res.verdict is ConjVerdict.CONJUGATE
    assert verify_conjugator(res.witness, v, w_yes)
    assert ref.words_conjugate(*to_ref(v, w_yes)) is True
    # closing identity holds but the congruences have no common solution
    w_no = fact(g, "y z a^2")
    res = conjugate(v, w_no)
    assert res.verdict is ConjVerdict.NOT_CONJUGATE
    assert ref.words_conjugate(*to_ref(v, w_no)) is False


def _rotation_paths(rng):
    """Random paths, proper powers of a short unit and periodic paths whose
    period does not divide their length, over alphabets of one to four
    letters."""
    for _ in range(300):
        alphabet = "yYzZ"[: rng.randint(1, 4)]
        unit = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
        yield tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        yield unit * rng.randint(2, 8)
        yield unit * rng.randint(1, 6) + unit[: rng.randint(1, len(unit))]


def test_aligned_rotations_match_a_plain_scan():
    rng = random.Random(4242)
    hits = 0
    for path in _rotation_paths(rng):
        n = len(path)
        changed = list(path)
        changed[rng.randrange(n)] = rng.choice("yYzZ")
        r = rng.randrange(n)
        for wpath in (path, path[r:] + path[:r], tuple(changed), tuple(changed[r:] + changed[:r])):
            scan = [s for s in range(n) if wpath[s:] + wpath[:s] == path]
            assert list(_aligned_rotations(path, wpath)) == scan, (path, wpath)
            hits += len(scan)
    assert hits > 3000


def test_rotation_period_matches_a_plain_scan():
    rng = random.Random(2357)
    lengths = set()
    for _ in range(600):
        unit = tuple((rng.choice("yz"), rng.randint(-1, 1)) for _ in range(rng.randint(1, 4)))
        seq = unit * rng.randint(1, 6) + unit[: rng.randrange(len(unit) + 1)]
        n = len(seq)
        scan = next(d for d in range(1, n + 1) if seq[d:] + seq[:d] == seq)
        assert _rotation_period(seq) == scan, seq
        lengths.add((n == 1, scan == n, n % len(unit) != 0))
    # single steps, primitive words and words their unit does not tile all occur
    assert {(True, True, False), (False, True, True), (False, False, False)} <= lengths


def test_hyperbolic_system_rejects_a_rotation_off_the_path(bs23):
    with pytest.raises(WordError):  # y against Y
        hyperbolic_system(fact(bs23, "y a^2"), fact(bs23, "Y a^5"))
    with pytest.raises(WordError):  # w longer than v
        hyperbolic_system(fact(bs23, "y a"), fact(bs23, "y a y a^2"))
    with pytest.raises(WordError):  # w shorter than v
        hyperbolic_system(fact(bs23, "y a y a^2"), fact(bs23, "y a"))
    bs11 = bs_graph(1, 1)  # beta 1: every congruence holds, so the walk meets the mismatch
    with pytest.raises(WordError):
        hyperbolic_system(fact(bs11, "y a y a^2"), fact(bs11, "Y a y a^2"))
    with pytest.raises(WordError):
        hyperbolic_system(fact(bs11, "y a y a^2"), fact(bs11, "Y a y a^2"), 1)


DUMBBELL = """\
vertex a
vertex b
edge y a a 2 -3 Y
edge Y a a -3 2 y
edge t a b -2 4 T
edge T b a 4 -2 t
edge z b b 6 -4 Z
edge Z b b -4 6 z
"""


def _closed_walk(rng, g, n):
    """A closed walk of n edges from a that never takes an edge straight
    back, also across the seam, so any exponents leave it cyclically
    reduced; None when the random walk does not close."""
    names = [rng.choice(g.out_edges("a"))]
    for _ in range(n - 1):
        prev = g.by_name[names[-1]]
        names.append(rng.choice([e for e in g.out_edges(prev.dst) if e != prev.inv]))
    first, last = g.by_name[names[0]], g.by_name[names[-1]]
    if last.dst != "a" or first.inv == last.name:
        return None
    return names


def _pushed(rng, v):
    """A word equal to ``a^x v a^-x`` over v's path, x nonzero when the first
    label allows: each carried power crosses the next edge, and a random
    multiple of the following alpha is carried on."""
    g = v.graph
    labels = [g.by_name[name] for name, _ in v.steps]
    carry = labels[0].alpha * rng.randint(-3, 3)
    x, steps = carry, []
    for i, ((name, k), e) in enumerate(zip(v.steps, labels)):
        pushed = carry // e.alpha * e.beta
        carry = labels[i + 1].alpha * rng.randint(-3, 3) if i + 1 < v.n else x
        steps.append((name, k + pushed - carry))
    return GFactorization(g, "a", 0, tuple(steps)), x


def test_hyperbolic_system_walks_a_rotation_in_place():
    rng = random.Random(99)
    g = parse_graph(TWO_LOOPS)
    v = _odd_exponent_loop(rng, g, "yzYzzZyy")
    powers = set()
    for r in range(v.n):
        rot = GFactorization(g, "a", 0, v.steps[r:] + v.steps[:r])
        u, x = _pushed(rng, rot)  # a^x rot a^-x = u
        found = hyperbolic_system(u, v, r)
        assert found is not None and found == hyperbolic_system(u, rot)
        powers.add(found)
    assert len(powers) > 2


def _periodic_pairs(rng):
    """Pairs over periodic paths: proper powers with w's unit exponents equal
    to v's or redrawn, periodic paths whose exponents differ, conjugates
    pushed through a vertex power, and a proper power with one exponent
    changed in w or in both words; w is rotated."""
    graphs = [bs_graph(p, q) for p, q in ((2, 2), (-2, 2), (2, -3), (1, -1), (3, 3), (1, 1))]
    graphs += [parse_graph(TWO_LOOPS), parse_graph(DUMBBELL)]
    while True:
        g = rng.choice(graphs)
        unit = _closed_walk(rng, g, rng.randint(1, 3))
        if unit is None:
            continue
        m = rng.randint(2, 6)
        ks = [rng.randint(-4, 4) for _ in unit]
        v = GFactorization(g, "a", 0, tuple(zip(unit * m, ks * m)))
        family = rng.randrange(4)
        if family == 0:  # a proper power, same or redrawn unit exponents
            ws = ks if rng.random() < 0.5 else [rng.randint(-4, 4) for _ in unit]
            w = GFactorization(g, "a", 0, tuple(zip(unit * m, ws * m)))
        elif family == 1:  # periodic path, exponents differ
            v = GFactorization(g, "a", 0, tuple((name, rng.randint(-4, 4)) for name in unit * m))
            w = GFactorization(g, "a", 0, tuple((name, rng.randint(-4, 4)) for name in unit * m))
        elif family == 2:  # a conjugate by a vertex power
            w, _ = _pushed(rng, v)
        else:  # one exponent changed in w, or in both (then most periods do not divide n)
            steps = list(v.steps)
            i = rng.randrange(len(steps))
            steps[i] = (steps[i][0], steps[i][1] + rng.choice((-1, 1)))
            w = GFactorization(g, "a", 0, tuple(steps))
            if rng.random() < 0.5:
                v = w
        r = rng.randrange(w.n)
        if g.by_name[w.steps[r][0]].src != "a":
            continue
        yield v, GFactorization(g, "a", 0, w.steps[r:] + w.steps[:r])


def _every_rotation(v, w):
    """The loop without the in-place walk or the period skip: each aligned
    rotation is built as a word and walked from its start."""
    path = [name for name, _ in v.steps]
    for r in range(w.n):
        steps = w.steps[r:] + w.steps[:r]
        if [name for name, _ in steps] == path:
            x = hyperbolic_system(v, GFactorization(v.graph, v.base, 0, steps))
            if x is not None:
                return r, x
    return None


def test_conj_hyperbolic_matches_the_per_rotation_loop_on_periodic_corpora():
    rng = random.Random(1618)
    pairs = _periodic_pairs(rng)
    seen = {"hit": 0, "rotated": 0, "powered": 0, "miss": 0, "skipped": 0, "reference": 0}
    for _ in range(1500):
        v, w = next(pairs)
        found = conj_hyperbolic(v, w)
        assert found == _every_rotation(v, w), (str(v), str(w))
        if found is None:
            seen["miss"] += 1
            seen["skipped"] += _rotation_period(w.steps) < w.n
        else:
            seen["hit"] += 1
            seen["rotated"] += found[0] > 0
            seen["powered"] += found[1] != 0
        if v.n <= 8:
            assert ref.words_conjugate(*to_ref(v, w)) is (found is not None), (str(v), str(w))
            seen["reference"] += 1
    assert min(seen.values()) > 100, seen


def _counting_walks(monkeypatch):
    calls = []
    walk = conjugacy.hyperbolic_system

    def counted(v, w, r=0):
        calls.append(r)
        return walk(v, w, r)

    monkeypatch.setattr(conjugacy, "hyperbolic_system", counted)
    return calls


def test_an_elliptic_witness_is_replayed_once_for_bare_powers(bs23, monkeypatch):
    calls = []
    verify = conjugacy.verify_conjugator
    monkeypatch.setattr(conjugacy, "verify_conjugator", lambda z, v, w: calls.append(z) or verify(z, v, w))
    v, w = fact(bs23, "a^2"), fact(bs23, "a^3")
    res = conjugate(v, w)
    assert res.verdict is ConjVerdict.CONJUGATE and str(res.witness) == "y"
    assert calls == [res.witness]
    # a pair that cyclic reduction changes still replays the whole witness
    calls.clear()
    v = fact(bs23, "y a^2 Y")  # equals a^3
    res = conjugate(v, fact(bs23, "a^2"))
    assert res.verdict is ConjVerdict.CONJUGATE and len(calls) == 2
    assert verify(res.witness, v, fact(bs23, "a^2"))


def test_a_proper_power_costs_one_walk(monkeypatch):
    bs22 = bs_graph(2, 2)
    v = GFactorization(bs22, "a", 0, (("y", 1),) * 2000)
    w = GFactorization(bs22, "a", 0, (("y", 3),) * 2000)
    calls = _counting_walks(monkeypatch)
    assert conjugate(v, w).verdict is ConjVerdict.NOT_CONJUGATE
    assert calls == [0]


def test_a_periodic_path_walks_each_aligned_rotation_up_to_the_first_hit(monkeypatch):
    # no power of a is central over these labels, so with random exponents
    # no rotation before the shift conjugates
    rng = random.Random(31)
    loops = parse_graph(
        "vertex a\nedge y a a 2 3 Y\nedge Y a a 3 2 y\nedge z a a 5 7 Z\nedge Z a a 7 5 z\n"
    )
    cases = ((bs_graph(2, 3), "y" * 60, 17, range(60)), (loops, "yz" * 30, 22, range(0, 60, 2)))
    calls = _counting_walks(monkeypatch)
    for g, path, shift, aligned in cases:
        f = GFactorization(g, "a", 0, tuple((name, rng.randint(-99, 99)) for name in path))
        w = GFactorization(g, "a", 0, f.steps[shift:] + f.steps[:shift])
        calls.clear()
        assert conj_hyperbolic(w, f) == (shift, 0)
        assert calls == [r for r in aligned if r <= shift]
        steps = list(f.steps)
        steps[5] = (steps[5][0], steps[5][1] + 2)
        calls.clear()
        assert conj_hyperbolic(f, GFactorization(g, "a", 0, tuple(steps))) is None
        assert calls == list(aligned)


def _odd_exponent_loop(rng, graph, path):
    # odd exponents keep every y v^k Y with beta in {2, 4} uncontracted, so
    # the word is cyclically reduced with exactly this underlying path
    steps = tuple((name, rng.randrange(-99, 100, 2)) for name in path)
    return GFactorization(graph, "a", 0, steps)


def _scale_pairs():
    rng = random.Random(1000)
    bs22 = bs_graph(2, 2)
    two_loops = parse_graph(TWO_LOOPS)
    # ratio product one: every y/Y on bs 2 2; on TWO_LOOPS as many of
    # {y, Z} (ratio 2) as of {Y, z} (ratio 1/2)
    bs_path = [rng.choice("yY") for _ in range(1000)]
    loops_path = [rng.choice("yZ") for _ in range(500)] + [rng.choice("Yz") for _ in range(500)]
    rng.shuffle(loops_path)
    pairs = [
        pytest.param(bs22, _odd_exponent_loop(rng, bs22, bs_path), None, True, id="bs22"),
        pytest.param(
            two_loops, _odd_exponent_loop(rng, two_loops, loops_path), None, False,
            id="two-loops",
        ),
    ]
    # w is v rotated by n/3: the rotation search has to reach that far
    long_path = [rng.choice("yY") for _ in range(16_000)]
    v = _odd_exponent_loop(rng, bs22, long_path)
    pairs.append(pytest.param(bs22, v, 16_000 // 3, True, id="bs22-n16000-rotated"))
    return pairs


@pytest.mark.parametrize("graph, v, shift, abelian_negative", _scale_pairs())
def test_hyperbolic_conjugacy_at_scale_with_ratio_product_one(graph, v, shift, abelian_negative):
    rng = random.Random(7)
    path = "".join(name for name, _ in v.steps)  # one-letter edge names
    assert (path + path).find(path, 1) == len(path)  # not periodic
    vh, _ = cyclically_reduce_with_conjugator(v)
    assert vh == v
    if shift is None:
        w = gen.conjugated_word(rng, graph, v)
    else:
        w = GFactorization(graph, "a", 0, v.steps[shift:] + v.steps[:shift])
    res = conjugate(v, w)
    assert res.verdict is ConjVerdict.CONJUGATE
    assert verify_conjugator(res.witness, v, w)
    if abelian_negative:
        # on bs 2 2 the a-exponent sum is an abelianization invariant, so
        # moving one odd exponent by 2 certifies a non-conjugate pair
        steps = list(v.steps)
        steps[v.n // 2] = (steps[v.n // 2][0], steps[v.n // 2][1] + 2)
        u = GFactorization(graph, "a", 0, tuple(steps))
        assert conjugate(v, u).verdict is ConjVerdict.NOT_CONJUGATE
        assert conjugate(u, w).verdict is ConjVerdict.NOT_CONJUGATE


def test_conj_elliptic_bs_examples():
    assert conj_elliptic_bs(2, 3, 4, 9) is True
    assert conj_elliptic_bs(2, 3, 1, 2) is False
    assert conj_elliptic_bs(2, 3, -7, -7) is True
    assert conj_elliptic_bs(2, 3, 0, 0) is True
    assert conj_elliptic_bs(2, 3, 0, 5) is False
    with pytest.raises(GbsError):
        conj_elliptic_bs(0, 3, 1, 1)


def test_conj_elliptic_bs_against_chain_search(bs23):
    rng = random.Random(71)
    for _ in range(40):
        p = rng.choice([x for x in range(-4, 5) if x])
        q = rng.choice([x for x in range(-4, 5) if x])
        g = __import__("gbs").graphs.bs_graph(p, q)
        k = rng.randint(-60, 60)
        parents, capped = elliptic_closure(g, "a", k, radius=10**6)
        assert not capped or abs(k) > 0
        reach = {m for (_, m) in parents}
        for ell in range(-60, 61):
            if k == 0 or ell == 0:
                assert conj_elliptic_bs(p, q, k, ell) == (k == ell)
            else:
                assert conj_elliptic_bs(p, q, k, ell) == (ell in reach), (p, q, k, ell)


def test_conj_elliptic_examples(bs23):
    res = conj_elliptic("a", 12, "a", 18, bs23)
    assert res.verdict is ConjVerdict.CONJUGATE
    assert str(res.witness) == "y"
    res = conj_elliptic("a", 2, "a", -2, bs23)
    assert res.verdict is ConjVerdict.NOT_CONJUGATE
    res = conj_elliptic("a", 0, "a", 0, bs23)
    assert res.verdict is ConjVerdict.CONJUGATE and res.witness == GFactorization(bs23, "a", 0, ())
    res = conj_elliptic("a", 0, "a", 3, bs23)
    assert res.verdict is ConjVerdict.NOT_CONJUGATE


def test_the_identity_witness_is_verified(amalgam, monkeypatch):
    # the tree path from b to a conjugates 1 at a to 1 at b; one that ends
    # at b instead is a bug, never a witness
    monkeypatch.setattr(conjugacy, "tree_path", lambda graph, start, end: ())
    with pytest.raises(InternalError):
        conj_elliptic("a", 0, "b", 0, amalgam)
    with pytest.raises(InternalError):
        conjugate(fact(amalgam, "a^0"), fact(amalgam, "b^0"))


def test_conj_elliptic_rejects_unknown_vertex(bs23):
    # on either side, before the residuals (1 and 3 here) are compared, and
    # before a zero exponent answers or takes a tree path
    cases = [("nope", 2, "a", 2), ("a", 2, "nope", 2), ("a", 2, "nope", 6)]
    cases += [("nope", 0, "a", 3), ("a", 3, "nope", 0), ("nope", 0, "a", 0), ("a", 0, "nope", 0)]
    for a, k, b, ell in cases:
        with pytest.raises(GbsError, match="unknown vertex 'nope'"):
            conj_elliptic(a, k, b, ell, bs23)


def test_conj_elliptic_across_vertices(amalgam):
    # t b^3 T = a^2
    res = conj_elliptic("b", 3, "a", 2, amalgam)
    assert res.verdict is ConjVerdict.CONJUGATE
    v = fact(amalgam, "b^3")
    w = fact(amalgam, "a^2")
    assert verify_conjugator(res.witness, v, w)
    res = conj_elliptic("b", 1, "a", 1, amalgam)
    assert res.verdict is ConjVerdict.NOT_CONJUGATE


def test_conjugate_examples_against_the_reference(bs23):
    for v, w, expected in (("y a", "y", True), ("a^4", "a^9", True), ("a", "a^2", False)):
        v, w = fact(bs23, v), fact(bs23, w)
        assert ref.words_conjugate(*to_ref(v, w)) is expected
        res = conjugate(v, w)
        assert res.verdict is (ConjVerdict.CONJUGATE if expected else ConjVerdict.NOT_CONJUGATE)
        if expected:
            assert verify_conjugator(res.witness, v, w)


def test_mixed_types_not_conjugate(bs23):
    res = conjugate(fact(bs23, "a^2"), fact(bs23, "y a Y a"))
    assert res.verdict is ConjVerdict.NOT_CONJUGATE
    assert ref.words_conjugate(*to_ref(fact(bs23, "a^2"), fact(bs23, "y a Y a"))) is False


def _decided(v):
    return v in (ConjVerdict.CONJUGATE, ConjVerdict.NOT_CONJUGATE)


def test_solver_properties_on_random_corpus():
    rng = random.Random(1009)
    graphs_mod = __import__("gbs").graphs
    for _ in range(120):
        g = gen.random_graph(rng)
        v = gen.random_closed_factorization(rng, g, max_len=8, max_exp=5)
        w = gen.random_closed_factorization(rng, g, max_len=8, max_exp=5)
        res = conjugate(v, w)
        # symmetry
        back = conjugate(w, v)
        if _decided(res.verdict) and _decided(back.verdict):
            assert res.verdict == back.verdict
        # witnesses verify
        if res.verdict is ConjVerdict.CONJUGATE:
            assert verify_conjugator(res.witness, v, w)
        # rotation invariance on v
        vh, _ = cyclically_reduce_with_conjugator(v)
        if vh.n:
            r = rng.randrange(vh.n)
            rot = GFactorization(g, g.by_name[vh.steps[r][0]].src, 0, vh.steps[r:] + vh.steps[:r])
            res_rot = conjugate(rot, w)
            if _decided(res.verdict) and _decided(res_rot.verdict):
                assert res.verdict == res_rot.verdict
        # conjugation invariance
        z_w = gen.conjugated_word(rng, g, v)
        res_conj = conjugate(z_w, w)
        if _decided(res.verdict) and _decided(res_conj.verdict):
            assert res.verdict == res_conj.verdict


def test_solver_agrees_with_brute_on_random_corpus():
    rng = random.Random(2718)
    for _ in range(150):
        g = gen.random_graph(rng)
        v = gen.random_closed_factorization(rng, g, max_len=7, max_exp=4)
        w = gen.random_closed_factorization(rng, g, max_len=7, max_exp=4)
        res = conjugate(v, w)
        expected = conjugacy_reference(v, w, 200)
        if expected is not None:
            assert res.verdict is (ConjVerdict.CONJUGATE if expected else ConjVerdict.NOT_CONJUGATE)


def test_conj_elliptic_constructed_chains():
    # walk a vertex power through explicit edge conjugations, then the
    # solver must recover conjugacy with a verified witness
    rng = random.Random(6174)
    graphs_mod = __import__("gbs").graphs
    done = 0
    while done < 200:
        g = gen.random_graph(rng)
        into = {u: [e for e in g.edges if e.dst == u] for u in g.vertices}
        a = rng.choice(g.vertices)
        k = rng.randint(-12, 12)
        if k == 0:
            continue
        b, ell = a, k
        for _ in range(rng.randint(1, 5)):
            options = [e for e in into[b] if ell % e.beta == 0]
            if not options:
                break
            e = rng.choice(options)
            b, ell = e.src, e.alpha * (ell // e.beta)
            if abs(ell) > 10**6:
                break
        res = conj_elliptic(a, k, b, ell, g)
        assert res.verdict is ConjVerdict.CONJUGATE, (g.edges, a, k, b, ell)
        va = graphs_mod.GFactorization(g, a, k, ())
        wb = graphs_mod.GFactorization(g, b, ell, ())
        assert verify_conjugator(res.witness, va, wb)
        done += 1


COMPOSITE_LABELS = (4, 6, 12, 18, 36, 50)


def test_conj_elliptic_matches_chain_search_on_shared_composite_labels():
    # labels share the factors 2, 3 and 5, so the coprime basis is not the
    # set of labels; half the queries walk a power along edges (positives)
    rng = random.Random(3600)
    labels = COMPOSITE_LABELS + tuple(-x for x in COMPOSITE_LABELS)
    counts = {ConjVerdict.CONJUGATE: 0, ConjVerdict.NOT_CONJUGATE: 0}
    walked = 0
    for _ in range(250):
        g = gen.random_graph(rng, max_vertices=3, max_edge_pairs=3, labels=labels)
        into = {u: [e for e in g.edges if e.dst == u] for u in g.vertices}
        for _ in range(4):
            a = rng.choice(g.vertices)
            k = rng.choice(labels) * rng.choice((1, 2, 3, 5)) * rng.choice((1, 7))
            b, ell = rng.choice(g.vertices), rng.choice(labels) * rng.choice((1, 2, 3))
            if rng.random() < 0.5:
                b, ell = a, k
                for _ in range(rng.randint(1, 4)):
                    options = [e for e in into[b] if ell % e.beta == 0]
                    if options:
                        e = rng.choice(options)
                        b, ell = e.src, e.alpha * (ell // e.beta)
                walked += (b, ell) != (a, k)
            res = conj_elliptic(a, k, b, ell, g)  # verifies its own witness
            parents, capped = elliptic_closure(g, a, k, radius=10**9, node_cap=5_000)
            if (b, ell) in parents:
                assert res.verdict is ConjVerdict.CONJUGATE, (g.edges, a, k, b, ell)
            elif not capped:
                assert res.verdict is ConjVerdict.NOT_CONJUGATE, (g.edges, a, k, b, ell)
            else:
                continue
            counts[res.verdict] += 1
    assert walked > 200
    assert counts[ConjVerdict.CONJUGATE] > 300 and counts[ConjVerdict.NOT_CONJUGATE] > 200, counts


def test_verify_conjugator_rejects_broken_witnesses(amalgam):
    # t b^3 T = a^2, so T conjugates a^2 to b^3: T a^2 t = b^3
    v, w = fact(amalgam, "a^2"), fact(amalgam, "b^3")
    assert verify_conjugator(fact(amalgam, "T"), v, w)
    assert verify_conjugator(fact(amalgam, "b^5 T a^-1"), v, w)
    assert not verify_conjugator(fact(amalgam, "T"), v, fact(amalgam, "b^6"))  # not 1
    assert not verify_conjugator(fact(amalgam, "t"), v, w)  # starts off w's base
    with pytest.raises(WordError):  # not a path, so not a word at all
        parse_factorization("T T", amalgam)
    assert not verify_conjugator(GFactorization(amalgam, "b", 0, ()), v, w)  # does not close up
    assert not verify_conjugator(fact(amalgam, "T"), v, fact(amalgam, "t b^3 T"))  # w at a


@pytest.mark.parametrize("path", [("T", "T"), ("zz",), ()], ids=["not-a-path", "no-edge", "wrong-start"])
def test_a_conjugator_path_that_fails_is_an_internal_error(amalgam, monkeypatch, path):
    # T conjugates b^3 to a^2 (test above); any other monoid-derived path is
    # a fault of the package, never a bad input word
    monkeypatch.setattr(monoid.MonoidEncoding, "conjugator_path", lambda self, steps: path)
    with pytest.raises(InternalError):
        conj_elliptic("b", 3, "a", 2, amalgam)


def test_one_loop_hyperbolic_sweep():
    rng = random.Random(8128)
    nonzero = [x for x in range(-3, 4) if x]
    for _ in range(150):
        p, q = rng.choice(nonzero), rng.choice(nonzero)
        g = __import__("gbs").graphs.bs_graph(p, q)
        v = gen.random_closed_factorization(rng, g, max_len=8, max_exp=5)
        w = gen.conjugated_word(rng, g, v)
        res = conjugate(v, w)
        assert res.verdict is ConjVerdict.CONJUGATE
        assert verify_conjugator(res.witness, v, w)
        u = gen.random_closed_factorization(rng, g, max_len=8, max_exp=5)
        res = conjugate(v, u)
        expected = conjugacy_reference(v, u, 500)
        if expected is not None:
            assert res.verdict is (ConjVerdict.CONJUGATE if expected else ConjVerdict.NOT_CONJUGATE)


def test_constructed_pairs_always_conjugate():
    rng = random.Random(3141)
    for _ in range(100):
        g = gen.random_graph(rng)
        v = gen.random_closed_factorization(rng, g, max_len=8, max_exp=4)
        w = gen.conjugated_word(rng, g, v)
        res = conjugate(v, w)
        assert res.verdict is ConjVerdict.CONJUGATE
        assert verify_conjugator(res.witness, v, w)
