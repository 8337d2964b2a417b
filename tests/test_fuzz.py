"""Fuzzing of the input parsers and the command line: whatever the input,
a call returns or raises ``GbsError``, and ``main`` exits with a documented
code without printing a traceback or reporting an internal error.

``main`` also gets graph labels and word exponents of 100 to 120 digits.
"""
import contextlib
import io
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gbs import graphs, monoid
from gbs.cli import main
from conftest import AMALGAM, BS23, TRIANGLE

FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])

IDS = ["a", "b", "c", "y", "Y", "t", "T", "z", "1", "a^2", "#", "^", ""]
INTS = ["0", "1", "-1", "2", "3", "-4", "x", "1.5", "", "٣"]
LINES = st.one_of(
    st.lists(st.sampled_from(["vertex", "edge", "bs", "rel", "dim", "~", "#"] + IDS + INTS),
             max_size=8).map(" ".join),
    st.text(max_size=20),
)
TEXT = st.lists(LINES, max_size=8).map("\n".join)
GRAPHS = [graphs.parse_graph(t) for t in (BS23, AMALGAM, TRIANGLE)]
WORD_TOKENS = ["a", "b", "c", "y", "Y", "t", "T", "ab", "ba", "ca", "1", "a^2", "b^-3", "a^x", "^", "z"]
WORDS = st.one_of(st.lists(st.sampled_from(WORD_TOKENS), max_size=10).map(" ".join), st.text(max_size=20))


def _returns_or_gbs_error(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except graphs.GbsError:
        pass


@FUZZ
@given(TEXT, st.booleans())
def test_parse_graph_returns_or_raises_gbs_error(text, check):
    _returns_or_gbs_error(graphs.parse_graph, text, check=check)


@FUZZ
@given(WORDS, st.sampled_from(GRAPHS))
def test_rebase_returns_a_closed_word_or_raises_gbs_error(text, graph):
    for base in graph.vertices:
        try:
            f = graphs.rebase(text, graph, base)
        except graphs.GbsError:
            continue
        assert f.base == base and f.is_closed


@FUZZ
@given(st.one_of(TEXT, st.lists(st.sampled_from(["dim 2", "dim 0", "rel 1,0 ~ 0,1", "rel 1 ~ 0",
                                                 "rel 1,-1 ~ 0,0", "rel ~", "dim x"]),
                                max_size=5).map("\n".join)))
def test_parse_presentation_returns_or_raises_gbs_error(text):
    _returns_or_gbs_error(monoid.parse_presentation, text)


FILES = {
    "bs.graph": BS23.encode() + b"\n",
    "amalgam.graph": AMALGAM.encode(),
    "broken.graph": b"vertex a\nedge t a z 2 3 T\nedge s a a 1 1 S\n",
    "word": b"y a^2 Y a^-3\n",
    "p.mon": b"dim 2\nrel 1,0 ~ 0,1\n",
    "junk": b"bs 2 3\n\xff\xfe\n",
}
COMMANDS = [
    ["validate"], ["wp"], ["wp", "--pi1"], ["reduce"], ["reduce", "--pi1"], ["cyc-reduce"],
    ["conj"], ["conj", "--witness", "--bound", "3"], ["monoid", "congruent"],
    ["monoid", "congruent", "--bound", "3"], ["convert", "monoid-to-gbs"],
    ["bench", "--count", "1"], ["bogus"], [],
]
# --help is left out: argparse prints the help and raises SystemExit(0) by design
# BIG in a token stands for a drawn number of 100 or more digits, and
# big.graph is a bs graph with two such labels, written for each example
ARG_TOKENS = list(FILES) + [
    "missing.graph", "big.graph", ".", "--literal", "--pi1", "--base", "--bound", "--witness",
    "--count", "--seed", "--max-len", "-1", "0", "2", "1,1", "0,2", "a^2", "a^3", "y a Y", "t",
    "b^2", "a^BIG", "a^-BIG", "y a^BIG Y a^2", "BIG",
]
BIG = st.one_of(
    st.integers(min_value=10**99, max_value=10**120),
    # seeded uniform draws, which almost always hold two prime factors of
    # dozens of digits; hypothesis' own integers tend to have small factors
    st.integers(0, 2**32).map(lambda seed: random.Random(seed).randrange(10**99, 10**120)),
    st.integers(min_value=128, max_value=400).map(lambda e: 6**e),  # many small factors
)


def _signed(numbers):
    return numbers.flatmap(lambda n: st.sampled_from((n, -n)))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, data in FILES.items():
        (d / name).write_bytes(data)
    return d


@FUZZ
@given(
    st.sampled_from(COMMANDS),
    st.sampled_from(list(FILES) + ["missing.graph", "big.graph"]),
    st.lists(st.sampled_from(ARG_TOKENS), max_size=4),
    _signed(BIG),
    _signed(BIG),
    BIG,
)
def test_main_exits_with_a_documented_code(fuzz_dir, command, first, tokens, p, q, k):
    (fuzz_dir / "big.graph").write_text(f"bs {p} {q}\n")
    paths = set(FILES) | {"missing.graph", "big.graph"}
    argv = command + [
        str(fuzz_dir / t) if t in paths else t.replace("BIG", str(k))
        for t in [first] + tokens
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert "internal error" not in err.getvalue(), argv


LITERAL = [
    (["wp", "--literal"], 1), (["reduce", "--literal"], 1), (["cyc-reduce", "--literal"], 1),
    (["conj", "--literal"], 2), (["conj", "--literal", "--witness"], 2),
    (["conj", "--literal", "--bound", "3"], 2),
]
LABELS = _signed(st.one_of(BIG, st.sampled_from((1, 2, 3, 6))))
EXPONENT = _signed(st.one_of(BIG, st.integers(0, 12)))
SHAPES = ["a^{}", "y a^{} Y", "a^{} y a^2 Y", "Y a^{} y a^-1"]


@FUZZ
@given(
    st.sampled_from(LITERAL),
    LABELS,
    LABELS,
    st.lists(st.tuples(st.sampled_from(SHAPES), EXPONENT), min_size=2, max_size=2),
)
def test_main_decides_closed_words_with_numbers_of_100_digits(fuzz_dir, command, p, q, words):
    argv, count = command
    (fuzz_dir / "big.graph").write_text(f"bs {p} {q}\n")
    words = [shape.format(k) for shape, k in words[:count]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [str(fuzz_dir / "big.graph")] + words)
    assert code in ((0, 1, 2) if "--bound" in argv else (0, 1)), (argv, p, q, words, code)
    assert err.getvalue() == "", (argv, p, q, words)
