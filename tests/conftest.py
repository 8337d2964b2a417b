import pytest

from gbs import graphs, monoid
from oracles import parse_word, to_factorization

BS23 = "bs 2 3"

AMALGAM = """\
# two vertices joined by one edge pair: t b^3 T = a^2
vertex a
vertex b
edge t a b 2 3 T
edge T b a 3 2 t
"""

TRIANGLE = """\
vertex a
vertex b
vertex c
edge ab a b 1 1 ba
edge ba b a 1 1 ab
edge bc b c 2 2 cb
edge cb c b 2 2 bc
edge ca c a 3 3 ac
edge ac a c 3 3 ca
"""

# regression word used throughout: equals a^15 on BS(2,3)
EXAMPLE_WORD = "y a y a Y a^3 y a Y a Y y a^2 Y"


@pytest.fixture(scope="session")
def bs23():
    return graphs.parse_graph(BS23)


@pytest.fixture(scope="session")
def amalgam():
    return graphs.parse_graph(AMALGAM)


@pytest.fixture(scope="session")
def triangle():
    return graphs.parse_graph(TRIANGLE)


@pytest.fixture(scope="session")
def example_fact(bs23):
    return to_factorization(parse_word(EXAMPLE_WORD, bs23), bs23)


def fact(graph, text):
    return graphs.parse_factorization(text, graph)


LATTICE_NEGATIVE = "outside the relation lattice"


def without_the_lattice_test(monkeypatch):
    """From here on, every pair that passes the cheap checks goes to the
    completion, as before the lattice test existed."""
    monkeypatch.setattr(monoid.MonPresentation, "in_lattice", lambda self, t: True)


def keeps_its_decision(filtered, unfiltered) -> bool:
    """Whether a result of ``congruent`` or ``conj_elliptic`` keeps what the
    completion alone decides: a lattice negative where the completion says
    no or stops at its bound, else the very same result, path, witness and
    reason included."""
    if filtered.reason == LATTICE_NEGATIVE:
        return unfiltered.verdict.value in ("not-congruent", "not-conjugate", "unknown")
    return filtered == unfiltered
