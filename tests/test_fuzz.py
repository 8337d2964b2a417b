"""Fuzzing of the input parsers and the command line: whatever the input,
a call returns or raises ``GbsError``, and ``main`` exits with a documented
code without printing a traceback or reporting an internal error.

Generated numbers stay small, because a label or exponent of hundreds of
digits is valid input whose prime factorization could take any time.
"""
import contextlib
import io

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
def test_parse_word_returns_or_raises_gbs_error(text, graph):
    _returns_or_gbs_error(graphs.parse_word, text, graph)


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
ARG_TOKENS = list(FILES) + [
    "missing.graph", ".", "--literal", "--pi1", "--base", "--bound", "--witness", "--count",
    "--seed", "--max-len", "-1", "0", "2", "1,1", "0,2", "a^2", "a^3", "y a Y", "t", "b^2",
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, data in FILES.items():
        (d / name).write_bytes(data)
    return d


@FUZZ
@given(
    st.sampled_from(COMMANDS),
    st.sampled_from(list(FILES) + ["missing.graph"]),
    st.lists(st.sampled_from(ARG_TOKENS), max_size=4),
)
def test_main_exits_with_a_documented_code(fuzz_dir, command, first, tokens):
    argv = command + [
        str(fuzz_dir / t) if t in FILES or t == "missing.graph" else t for t in [first] + tokens
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert "internal error" not in err.getvalue(), argv
