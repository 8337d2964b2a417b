import copy
import dataclasses
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbs import britton, conjugacy, graphs
from gbs.cli import main
from gbs.graphs import (
    Edge,
    GbsGraph,
    GFactorization,
    GraphError,
    WordError,
    concat,
    invert,
    orientation,
    parse_factorization,
    parse_graph,
    rebase,
    spanning_tree,
    tree_path,
    validate,
)
import gen
import oracles
from oracles import EdgeLetter, VertexPower, parse_word, to_factorization
from conftest import AMALGAM, BS23, EXAMPLE_WORD, TRIANGLE, fact


def test_parse_bs_header(bs23):
    assert bs23.vertices == ("a",)
    y, Y = bs23.by_name["y"], bs23.by_name["Y"]
    assert (y.alpha, y.beta, y.inv) == (3, 2, "Y")
    assert (Y.alpha, Y.beta, Y.inv) == (2, 3, "y")
    assert y.src == y.dst == "a"


def test_parse_two_vertex_file(amalgam):
    assert amalgam.vertices == ("a", "b")
    assert len(amalgam.edges) == 2
    assert amalgam.by_name["t"].alpha == 2


def test_parse_missing_inverse_is_an_error():
    text = "vertex a\nedge y a a 2 3 Y\n"
    with pytest.raises(GraphError):
        parse_graph(text)


def test_parse_reports_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("vertex a\nvortex b\n")
    with pytest.raises(GraphError, match="duplicate"):
        parse_graph("vertex a\nvertex a\n")


def test_validate_accepts_bs23(bs23):
    assert validate(bs23) == []


def test_validate_disconnected():
    g = GbsGraph(
        ("a", "b"),
        (
            Edge("y", "a", "a", 1, 1, "Y"),
            Edge("Y", "a", "a", 1, 1, "y"),
            Edge("z", "b", "b", 1, 1, "Z"),
            Edge("Z", "b", "b", 1, 1, "z"),
        ),
    )
    assert any("connected" in line for line in validate(g))


def test_validate_searches_from_the_least_vertex():
    # with a broken involution, reachability hangs on the root: b, listed
    # first, has no out-edge, but the search runs from a, which reaches b
    g = parse_graph("vertex b\nvertex a\nedge y a b 1 1 Y\nedge Y a b 1 1 y\n", check=False)
    assert validate(g) == [
        "edge y: inverse endpoints do not match",
        "edge Y: inverse endpoints do not match",
    ]
    assert spanning_tree(g) == frozenset({"y", "Y"})


def test_validate_zero_label():
    g = GbsGraph(
        ("a",),
        (Edge("y", "a", "a", 0, 2, "Y"), Edge("Y", "a", "a", 2, 0, "y")),
    )
    assert any("zero label" in line for line in validate(g))


def test_validate_label_and_endpoint_mismatches():
    g = GbsGraph(
        ("a", "b"),
        (Edge("t", "a", "b", 2, 3, "T"), Edge("T", "b", "a", 3, 5, "t")),
    )
    assert any("alpha differs" in line for line in validate(g))
    g = GbsGraph(
        ("a", "b"),
        (Edge("t", "a", "b", 2, 3, "T"), Edge("T", "a", "b", 3, 2, "t")),
    )
    assert any("endpoints" in line for line in validate(g))


def test_validate_self_inverse():
    g = GbsGraph(("a",), (Edge("y", "a", "a", 1, 1, "y"),))
    assert any("own inverse" in line for line in validate(g))


MUTATIONS = [
    "zero label", "swapped endpoint", "alpha/beta mismatch", "self-inverse",
    "missing inverse", "unknown endpoint", "duplicate id", "second component",
    "bad vertex id", "bad edge id",
]
# ids that word text cannot name: the empty word, the empty id, and ids
# that hold the exponent mark, the comment mark or whitespace
BAD_IDS = ("1", "", "a^2", "x#", "y z", "\tv", "w\u00a0")


def _mutated(g, rng, kind):
    """g with one seeded edit of the given kind, in a graph of its own."""
    vertices, edges = list(g.vertices), list(g.edges)
    i = rng.randrange(len(edges))
    e = edges[i]
    if kind == "zero label":
        edges[i] = dataclasses.replace(e, **{rng.choice(("alpha", "beta")): 0})
    elif kind == "swapped endpoint":  # a loop stays as it was
        edges[i] = dataclasses.replace(e, src=e.dst, dst=e.src)
    elif kind == "alpha/beta mismatch":
        edges[i] = dataclasses.replace(e, alpha=e.alpha + 1 or 2)
    elif kind == "self-inverse":
        edges[i] = dataclasses.replace(e, inv=e.name)
    elif kind == "missing inverse":  # its partner's inverse goes missing
        del edges[i]
    elif kind == "unknown endpoint":  # of the edge, or of its pair, which still matches
        end = rng.choice(("src", "dst"))
        edges[i] = dataclasses.replace(e, **{end: "zz"})
        j = next(j for j, f in enumerate(edges) if f.name == e.inv)
        if j != i and rng.random() < 0.5:
            edges[j] = dataclasses.replace(edges[j], **{"dst" if end == "src" else "src": "zz"})
    elif kind == "duplicate id":
        where = rng.choice(("edge", "vertex", "overlap"))
        if where == "edge":
            edges.insert(rng.randrange(len(edges) + 1), e)
        elif where == "vertex":
            vertices.append(rng.choice(vertices))
        else:
            vertices.append(e.name)
    elif kind == "bad vertex id":  # renamed everywhere it occurs
        old, new = rng.choice(vertices), rng.choice(BAD_IDS)
        vertices = [new if v == old else v for v in vertices]
        edges = [
            dataclasses.replace(f, src=new if f.src == old else f.src, dst=new if f.dst == old else f.dst)
            for f in edges
        ]
    elif kind == "bad edge id":  # renamed, and so is its pair's inverse
        new = rng.choice(BAD_IDS)
        edges = [
            dataclasses.replace(f, name=new) if f.name == e.name
            else dataclasses.replace(f, inv=new) if f.inv == e.name else f
            for f in edges
        ]
    else:  # a vertex with a loop pair of its own
        vertices.insert(rng.randrange(len(vertices) + 1), "zz")
        edges += [Edge("zy", "zz", "zz", 2, 3, "zY"), Edge("zY", "zz", "zz", 3, 2, "zy")]
    return GbsGraph(vertices, edges)


def test_validate_agrees_with_the_reference_checks():
    # every report is the reference's, in order
    rng = random.Random(19)
    graphs_seen = [parse_graph(TREE_TEXT)]
    for _ in range(300):
        graphs_seen.append(gen.random_graph(rng, 6, 10))
    for g in graphs_seen:
        assert validate(g) == oracles.validate_reference(g) == []
        for kind in MUTATIONS:
            bad = _mutated(g, rng, kind)
            report = validate(bad)
            assert report == oracles.validate_reference(bad), kind
            assert report or kind == "swapped endpoint", kind
    # no vertices, and edge ids both duplicate and bad: the id checks report
    # after the missing vertices and before the edges
    g = GbsGraph((), (Edge("1", "a", "b", 1, 2, "y^2"), Edge("1", "b", "a", 2, 1, "1"), Edge("y^2", "b", "a", 2, 1, "1")))
    report = validate(g)
    assert report == oracles.validate_reference(g)
    assert report[:4] == ["graph has no vertices", "duplicate edge ids", "bad edge id '1'", "bad edge id 'y^2'"]


def test_parse_word_example(bs23):
    letters = parse_word(EXAMPLE_WORD, bs23)
    assert len(letters) == 14
    assert letters[0] == EdgeLetter("y")
    assert letters[5] == VertexPower("a", 3)


def test_parse_word_zero_power_and_errors(bs23):
    assert parse_word("a^0", bs23) == (VertexPower("a", 0),)
    assert parse_word("1", bs23) == ()
    with pytest.raises(WordError):
        parse_word("z", bs23)
    with pytest.raises(WordError):
        parse_word("a^x", bs23)


def test_to_factorization_example(bs23, example_fact):
    assert example_fact.k0 == 0
    assert example_fact.steps == (
        ("y", 1), ("y", 1), ("Y", 3), ("y", 1),
        ("Y", 1), ("Y", 0), ("y", 2), ("Y", 0),
    )


def test_to_factorization_merges_powers(bs23):
    f = fact(bs23, "a^2 a^3")
    assert (f.n, f.k0) == (0, 5)


def test_to_factorization_wrong_vertex(amalgam):
    with pytest.raises(WordError):
        to_factorization(parse_word("a^1 b^1", amalgam), amalgam)
    with pytest.raises(WordError):
        to_factorization(parse_word("t t", amalgam), amalgam)


def test_to_factorization_idempotent_and_no_longer(bs23):
    rng = random.Random(5)
    for _ in range(100):
        f = gen.random_closed_factorization(rng, bs23, max_len=10, max_exp=4)
        again = to_factorization(oracles.letters(f), bs23)
        assert again == f
        assert len(oracles.letters(again)) <= len(oracles.letters(f))


def test_word_text_round_trip(bs23, example_fact):
    assert fact(bs23, str(example_fact)) == example_fact
    assert str(fact(bs23, "a^0")) == "1"
    assert str(fact(bs23, "a")) == "a^1"


def test_spanning_tree_single_vertex(bs23):
    assert spanning_tree(bs23) == frozenset()


def test_spanning_tree_path_graph():
    g = parse_graph(
        "vertex a\nvertex b\nvertex c\n"
        "edge s a b 1 1 S\nedge S b a 1 1 s\n"
        "edge t b c 1 1 T\nedge T c b 1 1 t\n"
    )
    assert spanning_tree(g) == frozenset({"s", "S", "t", "T"})


def test_spanning_tree_rejects_a_disconnected_graph():
    g = parse_graph(
        "vertex a\nvertex b\nedge s a a 1 1 S\nedge S a a 1 1 s\n", check=False
    )
    with pytest.raises(GraphError, match="not connected"):
        spanning_tree(g)


def test_pi1_query_validates_the_graph_once(tmp_path, monkeypatch, capsys):
    p = tmp_path / "amalgam.graph"
    p.write_text(AMALGAM)
    calls, searches = [], []
    real, real_search = graphs.validate, graphs._search
    monkeypatch.setattr(graphs, "validate", lambda g: calls.append(g) or real(g))
    monkeypatch.setattr(graphs, "_search", lambda g, root: searches.append(root) or real_search(g, root))
    assert main(["wp", "--pi1", "--literal", "--base", "b", str(p), "t b^3 T a^-2"]) == 0
    assert capsys.readouterr().out.strip() == "trivial"
    assert len(calls) == 1
    assert searches == ["a"]  # validate's search is the spanning tree's


def test_elliptic_conj_validates_the_graph_once(tmp_path, monkeypatch, capsys):
    p = tmp_path / "bs23.graph"
    p.write_text(BS23 + "\n")
    calls = []
    real = graphs.validate

    def counting(g):
        calls.append(g)
        return real(g)

    for name, mod in list(sys.modules.items()):  # also any copy bound by ``from .graphs import``
        if name.startswith("gbs") and getattr(mod, "validate", None) is real:
            monkeypatch.setattr(mod, "validate", counting)
    assert main(["conj", "--literal", str(p), "a^2", "a^3"]) == 0
    assert capsys.readouterr().out.strip() == "conjugate"
    assert len(calls) == 1


def test_spanning_tree_triangle_deterministic(triangle):
    tree = spanning_tree(triangle)
    assert tree == frozenset({"ab", "ba", "ac", "ca"})
    assert tree == spanning_tree(triangle)


def test_tree_path(triangle):
    assert tree_path(triangle, "b", "c") == ("ba", "ac")


def test_orientation(bs23, amalgam):
    assert orientation(bs23) == ("y",)
    g = parse_graph(
        "vertex a\nedge y a a 1 1 Y\nedge Y a a 1 1 y\n"
        "edge z a a 2 2 Z\nedge Z a a 2 2 z\n"
    )
    assert orientation(g) == ("y", "z")
    g2 = parse_graph(
        "vertex a\nedge Y a a 1 1 y\nedge y a a 1 1 Y\n"
        "edge z a a 2 2 Z\nedge Z a a 2 2 z\n"
    )
    assert orientation(g2) == ("Y", "z")


def test_invert_examples(bs23):
    assert str(invert(fact(bs23, "a^5"))) == "a^-5"
    assert str(invert(fact(bs23, "y a"))) == "a^-1 Y"


def test_invert_cancels(bs23):
    rng = random.Random(11)
    for _ in range(50):
        f = gen.random_closed_factorization(rng, bs23, max_len=8, max_exp=4)
        letters = oracles.letters(f) + oracles.letters(invert(f))
        assert britton.word_problem(to_factorization(letters, bs23))


def test_rebase_identity_on_one_vertex(bs23):
    assert rebase(EXAMPLE_WORD, bs23, "a") == to_factorization(parse_word(EXAMPLE_WORD, bs23), bs23)


def test_rebase_amalgam_vertex_power(amalgam):
    assert rebase("b^2", amalgam, "a") == fact(amalgam, "t b^2 T")


def test_rebase_tree_edge_is_trivial(amalgam):
    f = rebase("t", amalgam, "a")
    assert f.is_closed and britton.word_problem(f)


def test_rebase_fixes_closed_words_off_the_tree():
    g = parse_graph(
        "vertex a\nvertex b\n"
        "edge t a b 1 1 T\nedge T b a 1 1 t\n"
        "edge z a a 2 3 Z\nedge Z a a 3 2 z\n"
    )
    assert spanning_tree(g) == frozenset({"t", "T"})
    text = "z a^2 Z a"
    f = rebase(text, g, "a")
    assert f.is_closed and f.base == "a"
    quotient = oracles.letters(f) + oracles.letters(invert(fact(g, text)))
    assert britton.word_problem(to_factorization(quotient, g))


def test_rebase_always_closed_at_base(triangle):
    rng = random.Random(3)
    for _ in range(40):
        f = gen.random_closed_factorization(rng, triangle, max_len=8, max_exp=3)
        r = rebase(str(f), triangle, "b")
        assert r.base == "b" and r.is_closed


def test_rebase_and_tree_path_search_the_graph_once(monkeypatch):
    # the spanning tree's own search gives every tree path, from any vertex,
    # and the graph keeps it: a fresh graph, not yet searched by validate
    calls = []
    real = graphs._search
    monkeypatch.setattr(graphs, "_search", lambda g, root: calls.append(root) or real(g, root))
    triangle = parse_graph(TRIANGLE, check=False)
    assert min(triangle.vertices) == "a" and calls == []
    f = rebase("bc c^2 cb b ca", triangle, "c")
    assert f == fact(triangle, "ca ab bc c^2 cb ba ac ca ab b ba ac ca ac")
    assert calls == ["a"]
    assert tree_path(triangle, "c", "b") == ("ca", "ab") and calls == ["a"]


def test_factorization_rejects_broken_paths(amalgam):
    with pytest.raises(WordError):
        GFactorization(amalgam, "a", 0, (("T", 0),))
    with pytest.raises(WordError):
        GFactorization(amalgam, "a", 0, (("t", 0), ("t", 0)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_factorizations_built_without_the_walk_trace_their_paths(seed):
    # each function builds its result with GFactorization._trusted, which
    # skips the path walk of the public constructor; the walk must pass
    rng = random.Random(seed)
    g = gen.random_graph(rng, 4, 6)
    v = gen.random_closed_factorization(rng, g, max_len=8, max_exp=6)
    z = gen.random_conjugator(rng, g, v.base)
    w = concat(z, v, invert(z))
    results = [
        parse_factorization(str(w), g),
        britton.britton_reduce_fast(w),
        *britton.cyclically_reduce_with_conjugator(v),
        invert(w),
        w,
        rebase(str(w), g, rng.choice(g.vertices)),
    ]
    res = conjugacy.conjugate(v, w, bound=20)
    if res.witness is not None:
        results.append(res.witness)
    for f in results:
        assert GFactorization(f.graph, f.base, f.k0, f.steps) == f


def test_validate_reports_unknown_endpoints():
    g = GbsGraph(
        ("a", "b"),
        (Edge("t", "a", "z", 2, 3, "T"), Edge("T", "x", "a", 3, 2, "t")),
    )
    report = validate(g)
    assert "edge t: unknown target vertex 'z'" in report
    assert "edge T: unknown source vertex 'x'" in report
    with pytest.raises(WordError, match="^unknown vertex 'x'$"):  # the word starts off the graph
        parse_factorization("T", g)
    with pytest.raises(GraphError, match="unknown target vertex"):
        parse_graph("vertex a\nvertex b\nedge t a z 2 3 T\nedge T z a 3 2 t\n")


def test_validate_reports_ids_that_words_cannot_name():
    # word text could not name these, and their graph text would not parse back
    g = GbsGraph(("a^b", "c d"), (Edge("y", "a^b", "c d", 2, 3, "Y#"), Edge("Y#", "c d", "a^b", 3, 2, "y")))
    assert validate(g) == ["bad vertex id 'a^b'", "bad vertex id 'c d'", "bad edge id 'Y#'"]
    with pytest.raises(WordError, match="^unknown vertex 'a'$"):
        parse_factorization("a^b^2 y", g)
    with pytest.raises(GraphError, match=r"^line 1: bad id 'a\^b'$"):
        parse_graph(g.to_text())
    assert validate(GbsGraph(("1",), ())) == ["bad vertex id '1'"]
    assert validate(GbsGraph(("",), ())) == ["bad vertex id ''"]


def test_factorization_and_concat_check_their_inputs(amalgam):
    with pytest.raises(WordError, match="^unknown vertex 'z'$"):
        GFactorization(amalgam, "z", 0, ())
    with pytest.raises(WordError, match="^nothing to concatenate$"):
        concat()


def _dfs_tree_path(graph, tree, start, goal):
    """The path from start to goal over tree edges, by depth-first search."""
    stack = [(start, ())]
    seen = {start}
    while stack:
        v, path = stack.pop()
        if v == goal:
            return path
        for name in tree:
            e = graph.by_name[name]
            if e.src == v and e.dst not in seen:
                seen.add(e.dst)
                stack.append((e.dst, path + (name,)))
    raise AssertionError(f"no tree path from {start} to {goal}")


def test_tree_path_and_rebase_agree_with_depth_first_search():
    # tree paths are unique, so a different search must find the same ones
    rng = random.Random(17)
    for _ in range(500):
        g0 = gen.random_graph(rng, 8, 14)
        edges = list(g0.edges)
        rng.shuffle(edges)
        g = GbsGraph(g0.vertices, edges)
        tree = spanning_tree(g)
        for a in g.vertices:
            for b in g.vertices:
                assert tree_path(g, a, b) == _dfs_tree_path(g, tree, a, b)
        for base in g.vertices:
            tokens = []
            for _ in range(rng.randint(0, 8)):
                r = rng.random()
                if r < 0.35:
                    tokens.append(rng.choice(edges).name)
                elif r < 0.45:
                    tokens.append("1")
                else:  # a power anywhere, at the base, or a run of them at one vertex
                    v = base if r < 0.6 else rng.choice(g.vertices)
                    for _ in range(rng.choice((1, 1, 2, 3))):
                        k = rng.randint(-4, 4)  # 0 too: v^0 still makes its round trip
                        tokens.append(v if k == 1 and rng.random() < 0.5 else f"{v}^{k}")
            expected = [VertexPower(base, 0)]
            for letter in parse_word(" ".join(tokens), g):
                if isinstance(letter, EdgeLetter):
                    src, dst = g.by_name[letter.edge].src, g.by_name[letter.edge].dst
                else:
                    src = dst = letter.vertex
                expected += [EdgeLetter(y) for y in _dfs_tree_path(g, tree, base, src)]
                expected.append(letter)
                expected += [EdgeLetter(y) for y in _dfs_tree_path(g, tree, dst, base)]
            assert rebase(" ".join(tokens), g, base) == to_factorization(expected, g)


def test_path_graph_of_20000_vertices():
    n = 20_000
    lines = [f"vertex v{i}" for i in range(n)]
    for i in range(n - 1):
        a, b = (2, 3) if i % 2 else (3, 2)
        lines += [f"edge e{i} v{i} v{i + 1} {a} {b} E{i}", f"edge E{i} v{i + 1} v{i} {b} {a} e{i}"]
    g = parse_graph("\n".join(lines))
    assert len(spanning_tree(g)) == 2 * (n - 1)
    path = tree_path(g, "v0", f"v{n - 1}")
    assert len(path) == n - 1 and path[0] == "e0" and path[-1] == f"e{n - 2}"
    u = f"v{n - 1}^3 E{n - 2} v{n - 2}^-2 e{n - 2}"
    f = rebase(f"{u} {invert(fact(g, u))}", g, "v0")
    assert f.base == "v0" and f.n > 4 * (n - 1)
    assert britton.word_problem(f)


AGREEMENT_GRAPHS = [parse_graph(t) for t in (BS23, AMALGAM, TRIANGLE)] + [GbsGraph((), ())]
WORD_TOKENS = [
    "a", "b", "c", "y", "Y", "t", "T", "ab", "ba", "bc", "cb", "ca", "ac", "1",
    "a^2", "a^-3", "b^0", "c^7", "b^+4", "a^1_0", "a^٣", "a^x", "a^", "a^1^2", "y^2",
    "^", "^3", "z", "z^2", "11",
]


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(AGREEMENT_GRAPHS),
    st.one_of(st.lists(st.sampled_from(WORD_TOKENS), max_size=12).map(" ".join), st.text(max_size=20)),
)
@example(AGREEMENT_GRAPHS[1], "")
@example(AGREEMENT_GRAPHS[3], "1 1")
@example(AGREEMENT_GRAPHS[1], "a^1 b^1 z")  # the off-path power is reported after parsing
@example(AGREEMENT_GRAPHS[1], "t t a^x")
def test_parse_factorization_agrees_with_parse_word(graph, text):
    want = _outcome(lambda: to_factorization(parse_word(text, graph), graph))
    assert _outcome(lambda: parse_factorization(text, graph)) == want


EXPONENTS = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-(10**40), 10**40))


def _draw_factorization(graph, base, data, max_len=8):
    cur, steps = base, []
    for _ in range(data.draw(st.integers(0, max_len))):
        name = data.draw(st.sampled_from(graph.out_edges(cur)))
        steps.append((name, data.draw(EXPONENTS)))
        cur = graph.by_name[name].dst
    return GFactorization(graph, base, data.draw(EXPONENTS), tuple(steps))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(AGREEMENT_GRAPHS[:3]), st.data())
def test_str_round_trips_through_parse_factorization(graph, data):
    f = _draw_factorization(graph, data.draw(st.sampled_from(graph.vertices)), data)
    text = str(f)
    # canonical: every power carries its exponent, and no power is zero
    assert text == "1" or all(
        tok in graph.by_name or ("^" in tok and not tok.endswith("^0")) for tok in text.split()
    )
    # the text of the empty word does not say where it lies
    want = f if f.n or f.k0 else GFactorization(graph, graph.vertices[0], 0, ())
    assert parse_factorization(text, graph) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(AGREEMENT_GRAPHS[:3]), st.data())
def test_concat_equals_to_factorization_of_the_joined_letters(graph, data):
    parts = []
    for _ in range(data.draw(st.integers(1, 4))):
        # mostly a part that continues the path; sometimes one from anywhere
        base = parts[-1].end if parts and data.draw(st.integers(0, 3)) else None
        if base is None:
            base = data.draw(st.sampled_from(graph.vertices))
        parts.append(_draw_factorization(graph, base, data, max_len=4))
    want = _outcome(lambda: oracles.join(*parts))
    got = _outcome(lambda: concat(*parts))
    if isinstance(want, GFactorization):
        assert got == want
    else:
        assert want[0] is WordError and got[0] is WordError, (want, got)


EDGE_ARITY = "expected: edge <id> <src> <dst> <alpha> <beta> <inv-id>"
PARSE_ERRORS = [
    ("vertex\n", "line 1: expected: vertex <id>"),
    ("vertex a\nvertex b c\n", "line 2: expected: vertex <id>"),
    ("vertex 1\n", "line 1: bad id '1'"),
    ("vertex a^b\n", "line 1: bad id 'a^b'"),
    ("vertex a\nedge 1 a a 1 1 Y\n", "line 2: bad id '1'"),
    ("vertex a\nedge y^2 a a 1 1 Y\n", "line 2: bad id 'y^2'"),
    ("vertex a\nvertex b\nvertex a\n", "line 3: duplicate id 'a'"),
    ("vertex a\nedge y a a 1 1 y\nedge y a a 1 1 y\n", "line 3: duplicate id 'y'"),
    ("vertex a\nedge a a a 1 1 Y\n", "line 2: duplicate id 'a'"),
    ("vertex a\nedge y a a 1 1 Y\nvertex y\n", "line 3: duplicate id 'y'"),
    ("vertex a\nedge y a a 1 1\n", f"line 2: {EDGE_ARITY}"),
    ("vertex a\nedge y a a 1 1 Y Z\n", f"line 2: {EDGE_ARITY}"),
    ("vertex a\nedge y a a 2 x Y\n", "line 2: alpha and beta must be integers"),
    ("vertex a\nedge y a a 2.0 3 Y\n", "line 2: alpha and beta must be integers"),
    ("vertex a\nbs 2 3\n", "line 2: bs must be the only line of the file"),
    ("bs 2 3\nvertex a\n", "line 1: bs must be the only line of the file"),
    ("bs 2\n", "line 1: expected: bs <p> <q>"),
    ("bs 2 3 4\n", "line 1: expected: bs <p> <q>"),
    ("bs 2 x\n", "line 1: p and q must be integers"),
    ("vertex a\nvortex b\n", "line 2: unknown directive 'vortex'"),
    ("vertex a\nVERTEX b\n", "line 2: unknown directive 'VERTEX'"),
    # comments and blank lines keep their line numbers and hide what they hold
    ("# a graph\n\nvertex a  # the only vertex\n   \n\t\n# vortex b\nvertex a#b\n", "line 7: duplicate id 'a'"),
    ("\n\n  bs 2 # p is missing\n# bs 2 3\n", "line 3: expected: bs <p> <q>"),
    ("vertex a\r\n\r\nedge y a a 1 1 Y # x\r\nedge\tY a a 1 1 y\r\nvortex\n", "line 5: unknown directive 'vortex'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_graph_errors_name_the_line(text, message):
    for check in (True, False):
        with pytest.raises(GraphError) as info:
            parse_graph(text, check=check)
        assert str(info.value) == message



# a line that breaks several rules, and labels that int() takes ahead of a
# bad line: the scan for the error keeps the line reader's order of rules
RULE_ORDER_ERRORS = [
    ("vortex 1 2 3\n", "line 1: unknown directive 'vortex'"),
    ("vertex 1 2\n", "line 1: expected: vertex <id>"),
    ("vertex a\nedge 1 a a x 1\n", f"line 2: {EDGE_ARITY}"),
    ("vertex a\nedge y^2 a a x 1 Y\n", "line 2: bad id 'y^2'"),
    ("vertex a\nedge a a a x 1 Y\n", "line 2: duplicate id 'a'"),
    ("vertex a\nedge y a a +2 1_0 Y\nedge Y a a \u0663 -0 y\nvortex\n", "line 4: unknown directive 'vortex'"),
    ("bs 2 3 x\nvertex a\n", "line 1: bs must be the only line of the file"),
    ("bs x 3 4\n", "line 1: expected: bs <p> <q>"),
    ("bs +2 y\n", "line 1: p and q must be integers"),
]


@pytest.mark.parametrize("text, message", RULE_ORDER_ERRORS)
def test_the_first_bad_line_is_found_by_the_line_readers_rules(text, message):
    for read in (oracles.parse_graph_lines, parse_graph, lambda text: parse_graph(text, check=False)):
        with pytest.raises(GraphError) as info:
            read(text)
        assert str(info.value) == message

def test_parse_graph_skips_comments_and_blank_lines():
    text = "# bs 2 3 in the long form\n\nvertex a # a comment\n \t \nedge y a a 3 2 Y\n#\nedge Y a a 2 3 y#x\n"
    g = parse_graph(text)
    assert g == GbsGraph(("a",), (Edge("y", "a", "a", 3, 2, "Y"), Edge("Y", "a", "a", 2, 3, "y")))
    assert parse_graph("\n# only a header\n  bs  2 3  # the loop\n\n") == parse_graph("bs 2 3")
    with pytest.raises(GraphError) as info:
        parse_graph("# nothing but a comment\n\n")
    assert str(info.value) == "graph has no vertices"


def test_edge_is_an_immutable_value():
    e = Edge("y", "a", "b", 2, 3, "Y")
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.alpha = 5
    with pytest.raises((AttributeError, TypeError)):  # TypeError from 3.11's slotted frozen classes
        e.label = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del e.name
    assert e == Edge("y", "a", "b", 2, 3, "Y")
    assert e == Edge(name="y", src="a", dst="b", alpha=2, beta=3, inv="Y")
    assert e != Edge("y", "a", "b", 2, 4, "Y") and e != ("y", "a", "b", 2, 3, "Y")
    assert hash(e) == hash(("y", "a", "b", 2, 3, "Y"))
    assert len({e, Edge("y", "a", "b", 2, 3, "Y"), Edge("Y", "b", "a", 3, 2, "y")}) == 2
    assert [f.name for f in dataclasses.fields(Edge)] == ["name", "src", "dst", "alpha", "beta", "inv"]
    assert repr(e) == "Edge(name='y', src='a', dst='b', alpha=2, beta=3, inv='Y')"
    assert pickle.loads(pickle.dumps(e)) == e == copy.deepcopy(e)


def _tree_graph_text(rng, nv):
    """The shape of the benchmark's large graphs: a random recursive tree on
    ``nv`` vertices plus ``nv // 10`` extra edge pairs."""
    ends = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, nv)]
    ends += [(f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}") for _ in range(nv // 10)]
    lines = [f"vertex v{i}" for i in range(nv)]
    for i, (u, v) in enumerate(ends):
        a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
        lines += [f"edge e{i} {u} {v} {a} {b} E{i}", f"edge E{i} {v} {u} {b} {a} e{i}"]
    return "\n".join(lines) + "\n"


def test_graph_text_round_trip_and_graph_equality():
    rng = random.Random(23)
    for _ in range(200):
        g = gen.random_graph(rng, 6, 10)
        again = parse_graph(g.to_text())
        assert again == g and hash(again) == hash(g) == hash((g.vertices, g.edges))
        assert again.by_name == g.by_name
    text = _tree_graph_text(rng, 750)
    g = parse_graph(text)
    assert (len(g.vertices), len(g.edges)) == (750, 2 * (749 + 75))
    assert g.to_text() == text and parse_graph(g.to_text()) == g
    assert g == GbsGraph(g.vertices, list(g.edges)) and hash(g) == hash((g.vertices, g.edges))
    e = g.edges[0]
    relabelled = Edge(e.name, e.src, e.dst, e.alpha + 1, e.beta, e.inv)
    assert g != GbsGraph(g.vertices, (relabelled,) + g.edges[1:])
    assert g != GbsGraph(g.vertices[::-1], g.edges) and g != g.vertices
    # labels are converted once per distinct text: texts spelled apart but
    # equal as integers must meet, and a file of all-distinct texts must read
    spelled = (
        "vertex a\nvertex b\n"
        "edge t a b 2 -3 T\nedge T b a -03 +2 t\n"
        "edge u a b 02 3 U\nedge U b a ٣ 2 u\n"
    )
    distinct = "vertex a\n" + "".join(
        f"edge y{i} a a {2 * i + 1} {2 * i + 2} Y{i}\nedge Y{i} a a {2 * i + 2} {2 * i + 1} y{i}\n"
        for i in range(500)
    )
    for text in (spelled, distinct):
        g = parse_graph(text)
        assert g == oracles.parse_graph_lines(text)
    assert [(e.alpha, e.beta) for e in parse_graph(spelled).edges] == [(2, -3), (-3, 2), (2, 3), (3, 2)]
    assert {x for e in g.edges for x in (e.alpha, e.beta)} == set(range(1, 1001))


TREE_TEXT = _tree_graph_text(random.Random(5), 750)
# labels, and tokens to put in their place: int() takes "1_0", "+2" and "٣"
LABELS = ["0", "-0", "+2", "1_0", "٣", "x", "1.5", "2e3", "0x1", "-"]
# whitespace to str.split, and line breaks to str.splitlines
BREAKS = ["\x0b", "\x1c", "\u2028", "\x85", "\r"]
EDITS = ["copy", "rename", "bad id", "arity", "label", "bs", "comment", "directive", "break"]


def _mutate(lines, data, kind):
    """One edit of the given kind to a token line of a graph file."""
    i = data.draw(st.integers(0, len(lines) - 1))
    toks = lines[i].split()
    if kind == "copy":  # a duplicate id, or a duplicate line
        lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
        return
    # an earlier edit may have left a line of one token
    if kind == "rename":  # onto another line's id
        toks[1:2] = lines[data.draw(st.integers(0, len(lines) - 1))].split()[1:2]
    elif kind == "bad id":
        toks[1:2] = [data.draw(st.sampled_from(["1", "a^b"]))]
    elif kind == "arity":
        if len(toks) > 1 and data.draw(st.booleans()):
            del toks[data.draw(st.integers(1, len(toks) - 1))]
        else:
            toks.insert(data.draw(st.integers(1, len(toks))), "z")
    elif kind == "label" and len(toks) == 7:
        toks[data.draw(st.sampled_from([4, 5]))] = data.draw(st.sampled_from(LABELS))
    elif kind == "bs":
        lines.insert(i, data.draw(st.sampled_from(["bs 2 3", "bs 2", "bs x 3"])))
        return
    elif kind == "comment":
        toks.insert(data.draw(st.integers(0, len(toks))), data.draw(st.sampled_from(["#", "# x", "#vertex"])))
    elif kind == "directive":
        toks[0] = data.draw(st.sampled_from(["vortex", "VERTEX", "edges", "bs"]))
    # a break splits the line in two; any other edit may join tokens with one
    joiners = BREAKS if kind == "break" else [" ", "\t", "  "] + BREAKS
    lines[i] = data.draw(st.sampled_from(joiners)).join(toks)


@pytest.mark.parametrize("kind", EDITS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bulk_parse_graph_agrees_with_the_line_reader(kind, data):
    # every input gives the reference line reader's graph or its exact error:
    # the bulk pass builds the graph, and the first-bad-line scan the error
    if data.draw(st.integers(0, 4)):
        text = gen.random_graph(random.Random(data.draw(st.integers(0, 10**6))), 5, 8).to_text()
    else:
        text = TREE_TEXT
    if not data.draw(st.integers(0, 9)):
        text = "bs 2 3\n"
    lines = text.splitlines()
    if data.draw(st.integers(0, 9)):  # else the file as it was written
        _mutate(lines, data, kind)
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):  # mostly no edit to hide the first
        _mutate(lines, data, data.draw(st.sampled_from(EDITS)))
    text = data.draw(st.sampled_from(["\n", "\r\n"] + BREAKS)).join(lines) + "\n"
    for check in (True, False):
        def line_reader():
            graph = oracles.parse_graph_lines(text)
            if check and validate(graph):
                raise GraphError("; ".join(validate(graph)))
            return graph
        assert _outcome(lambda: parse_graph(text, check=check)) == _outcome(line_reader)



def test_well_formed_files_are_read_once(monkeypatch):
    # only a file the bulk checks reject is scanned again for its bad line
    def scan(lines):
        raise AssertionError("a well-formed file reached the first-bad-line scan")

    monkeypatch.setattr(graphs, "_first_bad_line", scan)
    assert parse_graph("# the loop\r\n\r\n  bs 2 3  # p, q\r\n") == parse_graph("bs 2 3")
    g = gen.random_graph(random.Random(17), 5, 8)
    assert parse_graph(g.to_text()) == g
    assert parse_graph(TREE_TEXT).to_text() == TREE_TEXT


@pytest.mark.parametrize("check", [True, False])
def test_a_load_scans_each_id_once(monkeypatch, check):
    # the loader checks ids only by validate's id checks, which test each id
    # in one collection of vertex ids or of edge names
    scanned = []
    real = graphs._unreadable
    monkeypatch.setattr(graphs, "_unreadable", lambda ids: scanned.append(len(ids)) or real(ids))
    g = parse_graph(TREE_TEXT, check=check)
    assert sum(scanned) == len(g.vertices) + len(g.edges) == 2398


def test_a_file_whose_lines_keep_the_rules_fails_with_the_checks_report():
    assert graphs._first_bad_line(["bs 0 3"]) is None
    assert graphs._first_bad_line(["vertex a", "edge y a b 0 2 Y"]) is None
    with pytest.raises(GraphError, match="^edge y: zero label; edge Y: zero label$"):
        parse_graph("bs 0 3\n")
    assert parse_graph("bs 0 3\n", check=False) == graphs.bs_graph(0, 3)
    with pytest.raises(GraphError, match="^line 2: bad id '1'$"):
        parse_graph("vertex a\nvertex 1\n", check=False)


def test_a_loaded_edge_is_an_edge_value_built_without_its_constructor(monkeypatch):
    # the loader builds each edge as a slot record and gives it the class
    # Edge: the frozen constructor never runs, and the result is an Edge
    # value in every respect that test_edge_is_an_immutable_value checks
    built = []
    init = Edge.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Edge, "__init__", counted)
    g = parse_graph(TREE_TEXT)
    assert (len(built), len(g.edges)) == (0, 1648)
    monkeypatch.undo()
    for e in g.edges:
        fields = (e.name, e.src, e.dst, e.alpha, e.beta, e.inv)
        assert type(e) is Edge and e == Edge(*fields) and hash(e) == hash(Edge(*fields))
        assert repr(e) == repr(Edge(*fields))
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.alpha = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del e.name
        for again in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert type(again) is Edge and again == e


def test_rebase_errors(amalgam):
    # every token is read before the base is checked, so a bad token wins
    cases = [
        ("t x", "a", WordError, "unknown id 'x'"),
        ("a z^2", "a", WordError, "unknown vertex 'z'"),
        ("b a^x", "b", WordError, "malformed exponent in 'a^x'"),
        ("t z", "z", WordError, "unknown id 'z'"),
        ("t", "z", GraphError, "unknown vertex 'z'"),
        ("", "z", GraphError, "unknown vertex 'z'"),
        ("1 a^0", "z", GraphError, "unknown vertex 'z'"),
    ]
    for text, base, kind, message in cases:
        with pytest.raises(kind) as info:
            rebase(text, amalgam, base)
        assert type(info.value) is kind and str(info.value) == message
    with pytest.raises(GraphError, match="^unknown vertex 'z'$"):
        tree_path(amalgam, "b", "z")
    # an edge into a name that is no vertex leads no tree path there
    dangling = parse_graph("vertex a\nedge t a z 1 1 T\nedge T z a 1 1 t\n", check=False)
    with pytest.raises(GraphError, match="^unknown vertex 'z'$"):
        tree_path(dangling, "a", "z")
    with pytest.raises(GraphError, match="^unknown vertex 'z'$"):
        tree_path(amalgam, "z", "a")
    disconnected = parse_graph(
        "vertex a\nvertex b\nedge s a a 1 1 S\nedge S a a 1 1 s\n", check=False
    )
    with pytest.raises(GraphError, match="^graph is not connected$"):
        rebase("s", disconnected, "a")
    with pytest.raises(GraphError, match="^graph has no vertices$"):
        spanning_tree(GbsGraph((), ()))
