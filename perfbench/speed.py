"""A fixed piece of work that measures how fast the machine runs right now.

On a shared host the same query takes up to a third more or less time from
one second to the next, and runs minutes apart differ by as much, because
other tenants contend for the core and its caches.  ``worker.py`` times
:func:`kernel` after every query; ``run.py`` divides each latency by the
kernel's local time and multiplies by :data:`REF_S`, so timings read as
milliseconds at a fixed reference speed (see README, Noise).  The kernel is the oracle's own code (parse, naive
Britton reduction and printing of one word with big exponents), so it does
the same kind of interpreter and big-integer work as the package, but
nothing the package does can change its cost.
"""
from __future__ import annotations

import random
from time import perf_counter

import oracle as O

# about the kernel's median time on the host the README's baseline was
# measured on (2 vCPUs, Python 3.11.7); it only sets the scale of the
# reported timings, and must stay fixed for them to be comparable
REF_S = 0.00035

_G = O.Graph.bs(2, 3)


def _word() -> O.Word:
    rng = random.Random(0)
    half = [(rng.choice("yY"), rng.getrandbits(127) | 1 << 127) for _ in range(100)]
    u = O.Word("a", 0, tuple(half))
    return O.concat(_G, u, O.invert(u, _G))


_TEXT = O.word_text(_word(), _G)


def kernel() -> float:
    """Seconds taken by one fixed round of oracle work."""
    start = perf_counter()
    w = O.parse_output(_TEXT, _G, "a")
    O.word_text(O.naive_reduce(w, _G), _G)
    return perf_counter() - start
