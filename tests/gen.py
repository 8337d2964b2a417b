"""Seeded random instances: graphs, closed factorizations, free-group words.

Everything is driven by a caller-supplied ``random.Random`` so corpora are
reproducible from a single seed.
"""
from __future__ import annotations

import math
import random
import string
from typing import Optional, Sequence

from gbs.freegroup import FWord
from gbs.graphs import Edge, GbsGraph, GFactorization, concat, invert


def _nonzero(rng: random.Random, max_abs: int) -> int:
    v = rng.randint(1, max_abs)
    return -v if rng.random() < 0.5 else v


def random_graph(
    rng: random.Random,
    max_vertices: int = 4,
    max_edge_pairs: int = 6,
    max_label: int = 5,
    labels: Optional[Sequence[int]] = None,
) -> GbsGraph:
    """A connected graph with an involution: a random tree plus extra pairs,
    alpha and beta drawn from ``labels`` when given, else from the nonzero
    integers up to ``max_label``."""
    nv = rng.randint(1, max_vertices)
    vertices = tuple(string.ascii_lowercase[i] for i in range(nv))
    endpoints = []
    for i in range(1, nv):
        endpoints.append((vertices[rng.randrange(i)], vertices[i]))
    lo = len(endpoints)
    for _ in range(rng.randint(max(0, 1 - lo), max(0, max_edge_pairs - lo))):
        endpoints.append((rng.choice(vertices), rng.choice(vertices)))
    edges = []
    for t, (u, v) in enumerate(endpoints):
        if labels is None:
            a, b = _nonzero(rng, max_label), _nonzero(rng, max_label)
        else:
            a, b = rng.choice(labels), rng.choice(labels)
        edges.append(Edge(f"y{t}", u, v, a, b, f"Y{t}"))
        edges.append(Edge(f"Y{t}", v, u, b, a, f"y{t}"))
    return GbsGraph(vertices, tuple(edges))


def cycle_with_chords(rng: random.Random, vertices: int, chords: int) -> GbsGraph:
    """A cycle through every vertex plus random extra edge pairs, labels
    up to 30 in absolute value."""
    vs = tuple(f"v{i}" for i in range(vertices))
    ends = [(vs[i], vs[(i + 1) % vertices]) for i in range(vertices)]
    ends += [(rng.choice(vs), rng.choice(vs)) for _ in range(chords)]
    edges = []
    for t, (u, v) in enumerate(ends):
        a, b = (rng.choice((-1, 1)) * rng.randint(1, 30) for _ in range(2))
        edges += [Edge(f"y{t}", u, v, a, b, f"Y{t}"), Edge(f"Y{t}", v, u, b, a, f"y{t}")]
    return GbsGraph(vs, tuple(edges))


def label_power(rng: random.Random, graph: GbsGraph) -> int:
    """Plus or minus a product of up to 5 of the graph's labels: an
    exponent whose residual over the labels' coprime basis is 1, so the
    residual check leaves a pair of them to the monoid."""
    labels = [abs(e.alpha) for e in graph.edges]
    sign = rng.choice((-1, 1))
    return sign * math.prod(rng.choice(labels) for _ in range(rng.randint(0, 5)))


def label_built_queries(rng: random.Random, graphs: int):
    """``(graph, a, k, b, ell)`` for elliptic conjugacy: ``graphs`` graphs
    of up to 6 vertices, 10 edge pairs and labels up to 12, each with 5
    pairs of vertex powers whose exponents come from :func:`label_power`."""
    for _ in range(graphs):
        graph = random_graph(rng, 6, 10, 12)
        for _ in range(5):
            a, b = rng.choice(graph.vertices), rng.choice(graph.vertices)
            yield graph, a, label_power(rng, graph), b, label_power(rng, graph)


def random_closed_factorization(
    rng: random.Random,
    graph: GbsGraph,
    max_len: int = 14,
    max_exp: int = 8,
    attempts: int = 10_000,
) -> GFactorization:
    """A closed factorization from a random walk; rejection-samples walks
    until one returns to its start."""
    for _ in range(attempts):
        n = rng.randint(0, max_len)
        base = rng.choice(graph.vertices)
        cur = base
        names = []
        dead = False
        for _ in range(n):
            out = graph.out_edges(cur)
            if not out:
                dead = True
                break
            name = rng.choice(out)
            names.append(name)
            cur = graph.by_name[name].dst
        if dead or cur != base:
            continue
        steps = tuple((name, rng.randint(-max_exp, max_exp)) for name in names)
        return GFactorization(graph, base, rng.randint(-max_exp, max_exp), steps)
    raise RuntimeError("no closed walk found within the attempt cap")


def random_conjugator(
    rng: random.Random, graph: GbsGraph, base: str, max_len: int = 6, max_exp: int = 4
) -> GFactorization:
    """A random word ending at ``base`` (an open path), suitable as a
    conjugator ``z`` in ``z v z^-1`` for v closed at ``base``."""
    n = rng.randint(0, max_len)
    cur = base
    names = []
    for _ in range(n):
        out = graph.out_edges(cur)
        if not out:
            break
        name = rng.choice(out)
        names.append(name)
        cur = graph.by_name[name].dst
    # walk away from base, then read it backwards so the path ends at base
    away = GFactorization(
        graph, base, rng.randint(-max_exp, max_exp),
        tuple((name, rng.randint(-max_exp, max_exp)) for name in names),
    )
    return invert(away)


def conjugated_word(
    rng: random.Random, graph: GbsGraph, v: GFactorization, max_len: int = 6
) -> GFactorization:
    """A word equal to ``z v z^-1`` for a random conjugator z."""
    z = random_conjugator(rng, graph, v.base, max_len)
    return concat(z, v, invert(z))


def random_fword(
    rng: random.Random, max_rank: int = 8, max_len: int = 64
) -> FWord:
    rank = rng.randint(1, max_rank)
    n = rng.randint(0, max_len)
    return tuple(
        (rng.randint(1, rank), rng.choice((1, -1))) for _ in range(n)
    )
