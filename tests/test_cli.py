import argparse
import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gbs import britton, cli, graphs
from gbs.cli import main
from conftest import AMALGAM, BS23, EXAMPLE_WORD
from oracles import ref, to_ref


@pytest.fixture
def bs_path(tmp_path):
    p = tmp_path / "bs23.graph"
    p.write_text(BS23 + "\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def conj_witness(out, graph):
    """The witness line of a positive ``conj --witness`` answer, checked to
    be the canonical text of the word it names."""
    verdict, witness = out.strip().splitlines()
    assert verdict == "conjugate"
    assert str(graphs.parse_factorization(witness, graph)) == witness
    return witness


def test_validate_ok(capsys, bs_path):
    code, out, _ = run(capsys, "validate", bs_path)
    assert code == 0 and out.strip() == "valid"


def test_validate_broken(capsys, tmp_path):
    p = tmp_path / "broken.graph"
    p.write_text("vertex a\nvertex b\nedge t a b 2 3 T\nedge T b a 3 9 t\n")
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 3
    assert "alpha differs" in out


def test_validate_lists_unknown_endpoint_and_missing_inverse(capsys, tmp_path):
    p = tmp_path / "broken.graph"
    p.write_text("vertex a\nedge t a z 2 3 T\nedge T z a 3 2 t\nedge s a a 1 1 S\n")
    code, out, err = run(capsys, "validate", str(p))
    assert code == 3 and err == ""
    assert "edge t: unknown target vertex 'z'" in out
    assert "edge s: missing inverse 'S'" in out


def test_wp_nontrivial_example(capsys, bs_path, tmp_path):
    w = tmp_path / "w.word"
    w.write_text(EXAMPLE_WORD + "\n")
    code, out, _ = run(capsys, "wp", bs_path, str(w))
    assert code == 1 and out.strip() == "nontrivial"


def test_wp_trivial_literal(capsys, bs_path):
    code, out, _ = run(capsys, "wp", "--literal", bs_path, "y a^2 Y a^-3")
    assert code == 0 and out.strip() == "trivial"


def test_wp_open_word_is_an_error(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text(AMALGAM)
    code, _, err = run(capsys, "wp", "--literal", str(p), "t")
    assert code == 3 and "closed" in err


def test_wp_pi1_tree_edge(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text(AMALGAM)
    code, out, _ = run(capsys, "wp", "--literal", "--pi1", str(p), "t")
    assert code == 0 and out.strip() == "trivial"


@pytest.mark.parametrize("word, message", [
    ("t z", "error: unknown id 'z'"),
    ("a a^x", "error: malformed exponent in 'a^x'"),
    ("q^2 t", "error: unknown vertex 'q'"),
])
def test_pi1_token_error_beats_a_bad_base(capsys, tmp_path, word, message):
    p = tmp_path / "g.graph"
    p.write_text(AMALGAM)
    code, out, err = run(capsys, "wp", "--literal", "--pi1", "--base", "z", str(p), word)
    assert (code, out, err) == (3, "", message + "\n")


@pytest.mark.parametrize("word", ["t b^2 T", "1", ""])
def test_pi1_bad_base(capsys, tmp_path, word):
    p = tmp_path / "g.graph"
    p.write_text(AMALGAM)
    code, out, err = run(capsys, "reduce", "--literal", "--pi1", "--base", "z", str(p), word)
    assert (code, out, err) == (3, "", "error: unknown vertex 'z'\n")


def test_pi1_empty_base_is_an_unknown_vertex(capsys, tmp_path):
    # only an absent --base falls back to the least vertex
    p = tmp_path / "g.graph"
    p.write_text(AMALGAM)
    code, out, err = run(capsys, "wp", "--pi1", "--base", "", "--literal", str(p), "t b^2 T")
    assert (code, out, err) == (3, "", "error: unknown vertex ''\n")


@pytest.mark.parametrize("command", ["wp", "reduce", "cyc-reduce"])
@pytest.mark.parametrize("base", ["zz", "a"])
def test_base_without_pi1_is_a_usage_error(capsys, tmp_path, command, base):
    # --base is read only with --pi1, so alone it would be ignored silently
    p = tmp_path / "g.graph"
    p.write_text(AMALGAM)
    code, out, err = run(capsys, command, "--literal", "--base", base, str(p), "t b^3 T")
    assert (code, out, err) == (3, "", "usage error: --base needs --pi1\n")


def test_reduce_prints_normal_form(capsys, bs_path):
    code, out, _ = run(capsys, "reduce", "--literal", bs_path, EXAMPLE_WORD)
    assert code == 0 and out.strip() == "a^15"


def test_cyc_reduce(capsys, bs_path):
    code, out, _ = run(capsys, "cyc-reduce", "--literal", bs_path, "y a Y")
    assert code == 0 and out.strip() == "a^1"


def test_conj_yes_with_witness(capsys, bs_path):
    code, out, _ = run(
        capsys, "conj", "--literal", "--witness", bs_path, "a^2", "a^3"
    )
    assert code == 0
    assert conj_witness(out, graphs.bs_graph(2, 3)) == "y"


@pytest.mark.parametrize("v, w, witness", [("a y", "a y", "1"), ("a y", "y", "a^2")])
def test_conj_witness_is_canonical(capsys, bs_path, v, w, witness):
    # exponents merged and zero powers dropped, as in every other word printed
    code, out, err = run(capsys, "conj", "--literal", "--witness", bs_path, v, w)
    assert code == 0 and err == ""
    assert conj_witness(out, graphs.bs_graph(2, 3)) == witness


FOUR_VERTICES = """\
vertex a
vertex b
vertex c
vertex d
edge y0 a b -4 3 Y0
edge Y0 b a 3 -4 y0
edge y1 b c 2 -4 Y1
edge Y1 c b -4 2 y1
edge y2 a d 2 1 Y2
edge Y2 d a 1 2 y2
edge y3 c c 2 4 Y3
edge Y3 c c 4 2 y3
"""


def test_conj_identities_at_different_vertices(capsys, tmp_path):
    # both words reduce to the identity, one at d and one at c; the witness
    # must still be a path between the two base vertices
    p = tmp_path / "g.graph"
    p.write_text(FOUR_VERTICES)
    v = "d^-1 Y2 a^-4 y2 d^3"
    w = (
        "c^-4 Y3 c^-1 Y1 b^-2 Y0 a^-4 y2 d^-3 Y2 a^-4 y2 d^5 Y2 a^4 y0 b^2 "
        "y1 c^1 y3 c^4"
    )
    code, out, _ = run(capsys, "conj", "--literal", "--witness", str(p), v, w)
    assert code == 0
    g = graphs.parse_graph(FOUR_VERTICES)
    z = graphs.parse_factorization(conj_witness(out, g), g)
    v, w = (graphs.parse_factorization(t, g) for t in (v, w))
    assert (z.base, z.end) == (w.base, v.base) == ("c", "d")
    # z v z^-1 w^-1: each seam meets, the word closes and reduces to nothing
    Z, V, W, G = to_ref(z, v, w)
    parts = (Z, V, ref.invert(Z, G), ref.invert(W, G))
    assert all(ref.end_vertex(p, G) == q.base for p, q in zip(parts, parts[1:] + parts[:1]))
    assert ref.is_trivial(ref.concat(G, *parts), G)


def test_conj_no(capsys, bs_path):
    code, out, _ = run(capsys, "conj", "--literal", bs_path, "y a", "Y a")
    assert code == 1 and out.strip() == "not-conjugate"


def test_conj_no_on_a_long_proper_power(capsys, tmp_path):
    # both sides are powers of one-edge units, so one walk decides the pair
    p = tmp_path / "bs22.graph"
    p.write_text("bs 2 2\n")
    code, out, err = run(capsys, "conj", "--literal", str(p), "y a " * 2000, "y a^3 " * 2000)
    assert code == 1 and out.strip() == "not-conjugate" and err == ""


def test_conj_unknown_exit_code(capsys, tmp_path):
    # a^6 and a^2 are not conjugate: every move keeps the 3-adic valuation
    # at least 1.  A cap below every critical pair leaves the completion
    # short, but no move from a^2 ever puts a 3 in, so the support check
    # still decides the pair
    p = tmp_path / "g.graph"
    p.write_text(
        "vertex a\n"
        "edge y a a 4 2 Y\nedge Y a a 2 4 y\n"
        "edge z a a 9 3 Z\nedge Z a a 3 9 z\n"
    )
    code, out, _ = run(capsys, "conj", "--literal", str(p), "a^6", "a^2")
    assert code == 1 and out.strip() == "not-conjugate"
    code, out, _ = run(capsys, "conj", "--literal", str(p), "a^6", "a^2", "--bound", "1")
    assert code == 1 and out.strip() == "not-conjugate"
    # a and a^4 are conjugate, by Z y Z Y, so no sound check closes the
    # pair that the cap leaves open: it stays unknown
    p.write_text(
        "vertex a\n"
        "edge y a a 1 6 Y\nedge Y a a 6 1 y\n"
        "edge z a a 2 4 Z\nedge Z a a 4 2 z\n"
    )
    code, out, _ = run(capsys, "conj", "--literal", "--witness", str(p), "a^1", "a^4")
    assert code == 0 and conj_witness(out, graphs.parse_graph(p.read_text())) == "Z y Z Y"
    code, out, _ = run(capsys, "conj", "--literal", str(p), "a^1", "a^4", "--bound", "1")
    assert code == 2 and out.strip() == "unknown"


def test_monoid_congruent(capsys, tmp_path):
    pres = tmp_path / "p.mon"
    pres.write_text("dim 2\nrel 1,0 ~ 0,1\n")
    code, out, _ = run(capsys, "monoid", "congruent", str(pres), "1,1", "0,2")
    assert code == 0 and out.strip() == "congruent"
    code, out, _ = run(capsys, "monoid", "congruent", str(pres), "0,0", "1,0")
    assert code == 1 and out.strip() == "not-congruent"


def test_monoid_congruent_unknown(capsys, tmp_path):
    pres = tmp_path / "p.mon"
    pres.write_text("dim 2\nrel 2,0 ~ 1,0\nrel 0,2 ~ 0,1\n")
    code, out, _ = run(
        capsys, "monoid", "congruent", str(pres), "1,1", "1,0", "--bound", "30"
    )
    assert code == 1 and out.strip() == "not-congruent"
    # y^2 ~ 1 and xy ~ 1 give y ~ x through a critical pair at x y^2
    pres.write_text("dim 2\nrel 0,0 ~ 0,2\nrel 0,0 ~ 1,1\n")
    code, out, _ = run(capsys, "monoid", "congruent", str(pres), "0,1", "1,0", "--bound", "1")
    assert code == 2 and out.strip() == "unknown"
    code, out, _ = run(capsys, "monoid", "congruent", str(pres), "0,1", "1,0")
    assert code == 0 and out.strip() == "congruent"


def test_a_pair_outside_the_relation_lattice_is_decided_at_any_bound(capsys, tmp_path):
    # 2,1 - 1,1 = 1,0 is no integer combination of -2,2 and 2,-1: no
    # completion is needed, so a cap that stops it cannot leave the pair open
    pres = tmp_path / "p.mon"
    pres.write_text("dim 2\nrel 2,0 ~ 0,2\nrel 1,1 ~ 3,0\n")
    for bound in ("0", "1"):
        code, out, _ = run(capsys, "monoid", "congruent", "--bound", bound, str(pres), "2,1", "1,1")
        assert (code, out) == (1, "not-congruent\n")
    # the same on the graph of a normalized presentation: 12 and 4 differ by
    # 3 to the power 1, and every relation changes the exponents of 2 and 3
    # by opposite amounts
    pres.write_text("dim 2\nrel 0,2 ~ 2,0\nrel 1,2 ~ 2,1\n")
    code, out, _ = run(capsys, "convert", "monoid-to-gbs", str(pres), "2,1", "2,0")
    assert code == 0 and out.endswith("# query-v: a^12\n# query-w: a^4\n")
    graph = tmp_path / "g.graph"
    graph.write_text(out)
    code, out, _ = run(capsys, "conj", "--literal", "--bound", "1", str(graph), "a^12", "a^4")
    assert (code, out) == (1, "not-conjugate\n")


def test_a_wrong_identity_witness_is_an_internal_error(capsys, tmp_path, monkeypatch):
    # 1 at a and 1 at b are conjugate by a path from b to a; a path that
    # ends anywhere else fails verification and is never printed
    from gbs import conjugacy

    p = tmp_path / "g.graph"
    p.write_text(AMALGAM)
    monkeypatch.setattr(conjugacy, "tree_path", lambda graph, start, end: ())
    code, out, err = run(capsys, "conj", "--literal", "--witness", str(p), "a^0", "b^0")
    assert (code, out) == (3, "")
    assert err == "internal error: elliptic conjugator failed verification\n"


def test_convert_emits_parseable_graph(capsys, tmp_path):
    pres = tmp_path / "p.mon"
    pres.write_text("dim 2\nrel 2,0 ~ 0,1\n")
    code, out, _ = run(capsys, "convert", "monoid-to-gbs", str(pres), "2,0", "0,1")
    assert code == 0
    graph = graphs.parse_graph(out)
    assert graph.by_name["y0"].alpha == 4 and graph.by_name["y0"].beta == 3
    queries = [l for l in out.splitlines() if l.startswith("# query")]
    assert queries == ["# query-v: a^4", "# query-w: a^3"]


def test_a_dim_0_presentation_is_queried_with_empty_vectors(capsys, tmp_path):
    # '' is the one vector of dimension 0; it is still too short for dim 1
    pres = tmp_path / "p.mon"
    pres.write_text("dim 0\n")
    assert run(capsys, "monoid", "congruent", str(pres), "", "") == (0, "congruent\n", "")
    code, out, err = run(capsys, "convert", "monoid-to-gbs", str(pres), "", "")
    assert (code, out, err) == (0, "vertex a\n# query-v: a^1\n# query-w: a^1\n", "")
    assert graphs.parse_graph(out).edges == ()
    pres.write_text("dim 1\n")
    code, out, err = run(capsys, "monoid", "congruent", str(pres), "", "0")
    assert (code, out, err) == (3, "", "error: vector '' should have 1 entries\n")


def test_missing_file_is_exit_3(capsys):
    code, _, err = run(capsys, "wp", "/nonexistent.graph", "a")
    assert code == 3 and "error" in err


def test_usage_error_is_exit_3(capsys):
    code, _, err = run(capsys, "wp")
    assert code == 3 and "usage" in err
    code, _, err = run(capsys, "bench", "--count", "1")  # not a command
    assert code == 3 and "usage" in err


def test_failed_self_check_is_an_error_not_a_no(capsys, bs_path, monkeypatch):
    from gbs import conjugacy

    monkeypatch.setattr(conjugacy, "verify_conjugator", lambda *args: False)
    code, out, err = run(capsys, "conj", "--literal", bs_path, "y a", "y")
    assert (code, out) == (3, "")
    assert err == "internal error: hyperbolic conjugator failed verification\n"


def test_unexpected_exception_is_an_internal_error(capsys, bs_path, monkeypatch):
    from gbs import britton

    def broken(f):
        raise RuntimeError("broken reducer")

    monkeypatch.setattr(britton, "word_problem", broken)
    code, out, err = run(capsys, "wp", "--literal", bs_path, "y a^2 Y a^-3")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and "broken reducer" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("module, name, argv", [
    ("conjugacy", "conjugate", ["conj", "--literal", "{bs}", "a", "a"]),
    ("monoid", "congruent", ["monoid", "congruent", "{mon}", "1,0", "0,1"]),
])
def test_a_verdict_without_an_exit_code_is_an_internal_error(
    capsys, bs_path, tmp_path, monkeypatch, module, name, argv
):
    # a verdict the exit-code table does not know is a bug, never a "no"
    import enum
    from types import SimpleNamespace
    mon = tmp_path / "p.mon"
    mon.write_text("dim 2\nrel 1,0 ~ 0,1\n")
    bogus = SimpleNamespace(verdict=enum.Enum("Bogus", {"MAYBE": "maybe"}).MAYBE, witness=None)
    monkeypatch.setattr(getattr(cli, module), name, lambda *args, **kwargs: bogus)
    code, out, err = run(capsys, *(a.format(bs=bs_path, mon=mon) for a in argv))
    assert (code, out) == (3, "maybe\n")
    assert err.startswith("internal error: KeyError(") and err.count("\n") == 1


def test_exponent_longer_than_the_default_digit_limit_is_printed(capsys, tmp_path):
    # on bs 1 2, y^n a Y^n = a^(2^n); 2**15000 has 4,516 decimal digits
    p = tmp_path / "bs12.graph"
    p.write_text("bs 1 2\n")
    word = " ".join(["y"] * 15000 + ["a^1"] + ["Y"] * 15000)
    code, out, err = run(capsys, "reduce", "--literal", str(p), word)
    assert code == 0 and err == ""
    vertex, _, exp = out.strip().partition("^")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # main gave its caller the limit back
        assert vertex == "a" and int(exp) == 2**15000
    finally:
        sys.set_int_max_str_digits(limit)


def test_exponent_of_5000_digits_parses(capsys, bs_path):
    big = "9" * 5000
    code, out, err = run(capsys, "reduce", "--literal", bs_path, f"a^{big}")
    assert code == 0 and err == ""
    assert out.strip() == f"a^{big}"
    code, out, _ = run(capsys, "wp", "--literal", bs_path, f"a^{big} a^-{big}")
    assert code == 0 and out.strip() == "trivial"


# two primes of 40 digits: their product has no factor a trial division could find
P40 = 10**39 + 3
Q40 = 3 * 10**39 + 37


def test_elliptic_conj_on_a_product_of_two_40_digit_primes(capsys, tmp_path):
    # y a^2 Y = a^N: a^4 ~ a^(N^2) through y y, while a^4 and a^N are apart,
    # as every move keeps the sum of the exponents over the basis {2, N}
    n = P40 * Q40
    p = tmp_path / "g.graph"
    p.write_text(f"bs 2 {n}\n")
    code, out, err = run(capsys, "conj", "--literal", "--witness", str(p), "a^4", f"a^{n * n}")
    assert code == 0 and err == ""
    g = graphs.parse_graph(p.read_text())
    witness = conj_witness(out, g)
    v, w = (graphs.parse_factorization(t, g) for t in ("a^4", f"a^{n * n}"))
    Z, V, W, G = to_ref(graphs.parse_factorization(witness, g), v, w)
    parts = (Z, V, ref.invert(Z, G), ref.invert(W, G))
    assert all(ref.end_vertex(p, G) == q.base for p, q in zip(parts, parts[1:] + parts[:1]))
    assert ref.is_trivial(ref.concat(G, *parts), G)
    code, out, err = run(capsys, "conj", "--literal", "--witness", str(p), "a^4", f"a^{n}")
    assert code == 1 and err == "" and out.strip() == "not-conjugate"


@pytest.mark.parametrize(
    "argv",
    [
        ("monoid", "congruent", "{dim_abc}", "1", "1"),
        ("monoid", "congruent", "{dim_negative}", "1", "1"),
        ("monoid", "congruent", "{pres}", "1,0", "0,1", "--bound", "-5"),
        ("conj", "--literal", "{graph}", "a^2", "a^3", "--bound", "-5"),
        ("wp", "--literal", "{graph_bytes}", "a^1"),
        ("wp", "{graph}", "{word_bytes}"),
        ("monoid", "congruent", "{pres_bytes}", "1,0", "0,1"),
    ],
    ids=[
        "dim-abc", "dim-negative", "monoid-bound", "conj-bound",
        "graph-bytes", "word-bytes", "pres-bytes",
    ],
)
def test_malformed_input_exits_3_without_traceback(capsys, tmp_path, argv):
    files = {
        "dim_abc": b"dim abc\n",
        "dim_negative": b"dim -2\n",
        "pres": b"dim 2\nrel 1,0 ~ 0,1\n",
        "graph": BS23.encode() + b"\n",
        # not UTF-8
        "graph_bytes": b"bs 2 3\n\xff\n",
        "word_bytes": b"y a^2 \xff Y\n",
        "pres_bytes": b"dim 2\nrel 1,0 ~ \xfe0,1\n",
    }
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(data)
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3
    assert out == "" and "Traceback" not in err


# -- dispatch: each command's own parser reads the words after the command --

def _leaf_parsers(parser, words=()):
    """Every leaf command's parser under ``parser``, keyed by its command
    words, found by walking the subcommand choices."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {words: parser}
    return {
        key: leaf
        for action in subs
        for name, child in action.choices.items()
        for key, leaf in _leaf_parsers(child, words + (name,)).items()
    }


def test_dispatch_table_holds_every_leaf_command():
    leaves = _leaf_parsers(cli._PARSER)
    assert set(leaves) == {
        ("validate",), ("wp",), ("reduce",), ("cyc-reduce",), ("conj",),
        ("monoid", "congruent"), ("convert", "monoid-to-gbs"),
    }
    assert leaves.keys() == cli._LEAVES.keys()
    assert all(cli._LEAVES[key] is leaf for key, leaf in leaves.items())


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: the namespace without the command words,
    or the usage error, or the exit code and what was printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            ns = vars(parse(argv))
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    ns.pop("command", None)
    ns.pop("subcommand", None)
    return ns


DISPATCH_CORPUS = [
    ["validate", "g"],
    ["wp", "g", "w"],
    ["wp", "--lit", "g", "w"],
    ["wp", "--literal", "--pi1", "--base", "b", "g", "w"],
    ["wp", "--pi", "--ba=b", "g", "w"],
    ["wp", "--b", "g", "w"],
    ["reduce", "--literal", "g", "w"],
    ["cyc-reduce", "g", "w", "--pi1"],
    ["conj", "g", "v", "w", "--bound=3"],
    ["conj", "--wit", "--lit", "g", "v", "w", "--bound", "0"],
    ["conj", "g", "v", "w", "--bound", "-1"],
    ["conj", "g", "v", "w", "--bound", "x"],
    ["conj", "g", "v", "w", "--bound"],
    ["conj", "g", "-1", "-2"],
    ["wp", "--", "g", "w"],
    ["wp", "--literal", "--", "-g", "--pi1"],
    ["wp", "g", "--", "--literal"],
    ["conj", "--", "g", "v", "w", "--bound", "1"],
    ["wp", "--literal=yes", "g", "w"],
    ["wp", "--nope", "g", "w"],
    ["wp"],
    ["wp", "g"],
    ["wp", "g", "w", "x"],
    ["validate", "g", "h"],
    ["monoid", "congruent", "p", "1,0", "0,1", "--bound=2"],
    ["monoid", "congruent", "p", "1,0"],
    ["monoid", "congruent"],
    ["monoid"],
    ["monoid", "nope"],
    ["monoid", "--bound", "1", "congruent", "p", "e", "f"],
    ["convert"],
    ["convert", "monoid-to-gbs", "p", "e", "f"],
    ["convert", "monoid-to-gbs", "p", "e", "f", "x"],
    [],
    ["bench", "--count", "1"],
    ["WP", "g", "w"],
    ["--lit", "wp", "g", "w"],
    ["--help"],
    ["-h"],
    ["wp", "--help"],
    ["wp", "g", "-h"],
    ["monoid", "--help"],
    ["monoid", "congruent", "--help"],
    ["convert", "monoid-to-gbs", "-h"],
]


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
def test_dispatch_parses_as_the_full_parser_does(argv):
    assert _parsed(cli._parse_args, argv) == _parsed(cli._PARSER.parse_args, argv)


@pytest.mark.parametrize("argv, prog", [(["--help"], "gbs"), (["wp", "--help"], "gbs wp")])
def test_help_exits_0_with_the_parsers_text(capsys, argv, prog):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith(f"usage: {prog} ")
    assert ("Exit codes: 0 for yes" in out) == (prog == "gbs") and "How a call runs" not in out
    assert _parsed(cli._PARSER.parse_args, argv) == ("exit", 0, out)


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch, bs_path):
    for argv in (["wp", "--literal", bs_path, "y a^2 Y a^-3"], ["monoid"], []):
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["gbs", *argv])
        code = main(None)
        assert (code, *capsys.readouterr()) == expected
    assert expected[0] == 3 and "usage error" in expected[2]


# -- input files: one raw read, decoded as UTF-8 --

LINE_END_CASES = [
    # (files, argv): each file is written with each line end in turn
    ({"g": AMALGAM + "\n# a comment\nvertex b\n"}, ["validate", "{g}"]),
    ({"g": "vertex a\n\nvertex b\nedge t a b 2\n"}, ["validate", "{g}"]),
    ({"g": FOUR_VERTICES}, ["validate", "{g}"]),
    ({"g": AMALGAM, "w": "t b^3\nT\na^-2\n"}, ["wp", "{g}", "{w}"]),
    ({"g": AMALGAM, "w": "t\nb^3 T\n"}, ["wp", "--pi1", "{g}", "{w}"]),
    ({"g": BS23 + "\n", "w": EXAMPLE_WORD.replace(" Y ", "\nY\n") + "\n"}, ["reduce", "{g}", "{w}"]),
    ({"g": BS23 + "\n", "w": "y\na\nY\n"}, ["cyc-reduce", "{g}", "{w}"]),
    ({"g": FOUR_VERTICES, "v": "d^-1 Y2\na^-4 y2 d^3\n", "w": "d^-1\nY2 a^-4 y2 d^3"},
     ["conj", "--witness", "{g}", "{v}", "{w}"]),
    ({"g": BS23 + "\n", "v": "a^2\n", "w": "a\nq\n"}, ["conj", "{g}", "{v}", "{w}"]),
    ({"p": "# x ~ y\ndim 2\n\nrel 1,0 ~ 0,1 # comment\n"}, ["monoid", "congruent", "{p}", "1,1", "0,2"]),
    ({"p": "dim 2\nrel 1,0 ~ 0,1\nrel 1 ~ 0\n"}, ["monoid", "congruent", "{p}", "1,1", "0,2"]),
    ({"p": "dim 2\nrel 2,0 ~ 0,1\n"}, ["convert", "monoid-to-gbs", "{p}", "2,0", "0,1"]),
]


@pytest.mark.parametrize("files, argv", LINE_END_CASES, ids=lambda c: " ".join(c) if isinstance(c, list) else None)
# in the mixed case a lone \r is never followed by \n, which would make one \r\n
@pytest.mark.parametrize("ends", [("\r\n",), ("\r",), ("\n", "\r", "\r\n")], ids=["crlf", "cr", "mixed"])
def test_line_ends_do_not_change_any_answer(capsys, tmp_path, files, argv, ends):
    answers = []
    for name, line_ends in (("lf", ("\n",)), ("other", ends)):
        paths = {}
        for key, text in files.items():
            *lines, last = text.split("\n")
            text = "".join(line + line_ends[i % len(line_ends)] for i, line in enumerate(lines))
            paths[key] = tmp_path / f"{name}-{key}"
            paths[key].write_bytes((text + last).encode())
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        answers.append((code, out, err.replace(f"{name}-", "")))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("data, argv, message", [
    (b"bs 2 3\n\xff\n", ["wp", "{f}", "a"], "not UTF-8 (invalid start byte)"),
    (b"bs 2 3\n" + b"#" * 20000 + b"\n\xff", ["wp", "{f}", "a"], "not UTF-8 (invalid start byte)"),
    (b"bs 2 3\n\xc3", ["validate", "{f}"], "not UTF-8 (unexpected end of data)"),
    (b"bs 2 3\n\xc3\x28\n", ["wp", "{f}", "a"], "not UTF-8 (invalid continuation byte)"),
    (b"bs 2 3\n\xed\xa0\x80\n", ["wp", "{f}", "a"], "not UTF-8 (invalid continuation byte)"),
    (b"dim 2\n\xff", ["monoid", "congruent", "{f}", "1,0", "0,1"], "not UTF-8 (invalid start byte)"),
    (b"a \xfe", ["reduce", "{g}", "{f}"], "not UTF-8 (invalid start byte)"),
    (b"\xef\xbb\xbfbs 2 3\n", ["wp", "{f}", "a"], "line 1: unknown directive '\\ufeffbs'"),
    (b"\xef\xbb\xbfdim 2\n", ["convert", "monoid-to-gbs", "{f}", "1,0", "0,1"],
     "line 1: unknown directive '\\ufeffdim'"),
    (b"\xef\xbb\xbfa^2 y\n", ["reduce", "{g}", "{f}"], "unknown vertex '\\ufeffa'"),
], ids=[
    "invalid-start", "invalid-after-a-long-prefix", "truncated", "bad-continuation", "surrogate",
    "presentation", "word", "bom-graph", "bom-presentation", "bom-word",
])
def test_undecodable_files_and_byte_order_marks_keep_their_messages(capsys, tmp_path, data, argv, message):
    paths = {"f": tmp_path / "f", "g": tmp_path / "g"}
    paths["f"].write_bytes(data)
    paths["g"].write_text(BS23 + "\n")
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    prefix = "" if message.startswith(("line", "unknown")) else f"cannot read {paths['f']}: "
    assert (code, out, err) == (3, "", f"error: {prefix}{message}\n")


@pytest.mark.parametrize("path, reason", [
    ("{tmp}/missing", "No such file or directory"),
    ("{tmp}", "Is a directory"),
    ("{tmp}/file/x", "Not a directory"),
    ("", "No such file or directory"),  # no file has the empty name
])
def test_unreadable_paths_are_reported(capsys, tmp_path, path, reason):
    (tmp_path / "file").write_text(BS23 + "\n")
    path = path.format(tmp=tmp_path)
    code, out, err = run(capsys, "wp", "--literal", path, "a")
    assert (code, out, err) == (3, "", f"error: cannot read {path}: {reason}\n")


WP_ONE = ["wp", "--literal", "{f}", "1"]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text, argv, code, broken", [
    (BS23, WP_ONE, 0, False),
    ("vertex a\nedge t a z 2 3 T\n", WP_ONE, 3, False),
    (None, WP_ONE, 3, False),
    (BS23, ["validate", "{f}"], 0, False),
    ("dim 2\nrel 1,0 ~ 0,1\n", ["monoid", "congruent", "{f}", "1,1", "0,2"], 0, False),
    (BS23, ["wp", "--literal", "{f}"], 3, False),
    (BS23, ["wp", "--literal", "{f}", "y a^2 Y a^-3"], 3, True),
], ids=["good", "invalid", "missing", "validate", "monoid", "usage", "internal"])
def test_graph_loading_leaves_the_collector_as_it_found_it(
    capsys, monkeypatch, tmp_path, enabled, text, argv, code, broken
):
    # the command pauses the collector and lifts the int-string digit limit,
    # and every way out restores both as the caller had them
    if broken:
        def word_problem(f):
            raise RuntimeError("broken reducer")

        monkeypatch.setattr(britton, "word_problem", word_problem)
    p = tmp_path / "in"
    if text is not None:
        p.write_text(text)
    was, limit = gc.isenabled(), sys.get_int_max_str_digits()
    try:
        (gc.enable if enabled else gc.disable)()
        sys.set_int_max_str_digits(4321)
        assert run(capsys, *(a.format(f=p) for a in argv))[0] == code
        assert gc.isenabled() is enabled
        assert sys.get_int_max_str_digits() == 4321
    finally:
        (gc.enable if was else gc.disable)()
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [
    ["validate", "{g}"],
    ["wp", "--literal", "{g}", EXAMPLE_WORD],
    ["wp", "--pi1", "--literal", "{a}", "t b^3 T a^-2"],
    ["reduce", "--literal", "{g}", EXAMPLE_WORD],
    ["reduce", "--pi1", "--literal", "{a}", "b t"],
    ["cyc-reduce", "--literal", "{g}", "Y a y a^4"],
    ["conj", "--literal", "--witness", "{g}", "a y", "y"],
    ["conj", "--literal", "{g}", "a^6", "a^2", "--bound", "1"],
    ["monoid", "congruent", "{m}", "0,1", "1,0"],
    ["convert", "monoid-to-gbs", "{m}", "2,0", "0,1"],
], ids=[
    "validate", "wp", "wp-pi1", "reduce", "reduce-pi1", "cyc-reduce", "conj-witness",
    "conj-unknown", "monoid-congruent", "convert",
])
def test_commands_leave_no_cyclic_garbage(capsys, tmp_path, argv):
    # why the command may pause the collector: reference counting alone
    # frees everything a query drops
    paths = {"g": tmp_path / "g", "a": tmp_path / "a", "m": tmp_path / "m"}
    paths["g"].write_text(BS23 + "\n")
    paths["a"].write_text(AMALGAM)
    paths["m"].write_text("dim 2\nrel 0,0 ~ 0,2\nrel 0,0 ~ 1,1\n")
    argv = [a.format(**paths) for a in argv]
    was = gc.isenabled()
    try:
        gc.disable()
        gc.collect()
        code = main(argv)
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()
    assert code in (0, 1, 2) and capsys.readouterr().err == ""


# -O strips every assert: the witness checks must be plain code.  -OO also
# strips docstrings, and the help text is built from the cli module's
# docstring.  -W error turns any warning into an exception, and -X dev
# enables the deprecation and resource warnings hidden by default.
DEV = ["-W", "error", "-X", "dev"]
POWERS = ["conj", "--literal", "--witness", "{graph}", "a^2", "a^3"]
WP = ["wp", "--literal", "{graph}", "y a^2 Y a^-3"]


@pytest.mark.parametrize("flags, argv, out", [
    (["-O"], ["conj", "--literal", "--witness", "{graph}", "a y", "y"], "conjugate\na^2\n"),
    (["-O"], WP, "trivial\n"),
    (["-OO"], ["--help"], "usage: gbs [-h] {validate,wp,reduce,cyc-reduce,conj,monoid,convert} ..."),
    (["-OO"], POWERS, "conjugate\ny\n"),
    (DEV, POWERS, "conjugate\ny\n"),
    (DEV, WP, "trivial\n"),
    # two vertices, whose completion keeps a rule table per vertex
    (DEV, ["conj", "--literal", "--witness", "{two}", "a^4", "b^6"], "conjugate\nY\n"),
    # capped completions: the support check decides the first pair, and
    # the second, conjugate by Z y Z Y, stays open
    (DEV, ["conj", "--literal", "{decided}", "a^6", "a^2", "--bound", "1"], "not-conjugate\n"),
    (DEV, ["conj", "--literal", "{open}", "a^1", "a^4", "--bound", "1"], "unknown\n"),
], ids=[
    "O-conj-witness", "O-wp", "OO-help", "OO-conj-witness", "dev-conj-witness", "dev-wp",
    "dev-two-vertex-conj-witness", "dev-capped-decided", "dev-capped-open",
])
def test_the_program_runs_under_python_O(bs_path, tmp_path, flags, argv, out):
    graphs = {
        "two": "vertex a\nvertex b\nedge y a b 2 3 Y\nedge Y b a 3 2 y\n",
        "decided": "vertex a\nedge y a a 4 2 Y\nedge Y a a 2 4 y\nedge z a a 9 3 Z\nedge Z a a 3 9 z\n",
        "open": "vertex a\nedge y a a 1 6 Y\nedge Y a a 6 1 y\nedge z a a 2 4 Z\nedge Z a a 4 2 z\n",
    }
    for name, text in graphs.items():
        (tmp_path / f"{name}.graph").write_text(text)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [a.format(graph=bs_path, **{name: tmp_path / f"{name}.graph" for name in graphs}) for a in argv]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "gbs", *argv], env=env, capture_output=True, text=True
    )
    # of the help, its first line: the usage
    got = proc.stdout.partition("\n")[0] if argv == ["--help"] else proc.stdout
    # the exit code of conj: 0 conjugate, 1 not conjugate, 2 unknown
    code = {"not-conjugate\n": 1, "unknown\n": 2}.get(out, 0)
    assert (proc.returncode, got, proc.stderr) == (code, out, "")
