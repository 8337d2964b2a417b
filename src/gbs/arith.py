"""Exact arithmetic support: a pairwise coprime basis for a list of
integers, built by gcds, exponents over it, and a linear congruence solver.
Nothing here factors into primes.

Integers are plain Python ``int`` throughout; they are arbitrary precision,
carry a canonical zero, and round-trip through decimal text.
"""
from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


class ArithError(ValueError):
    """Raised for domain violations (a zero where a nonzero integer is
    needed, a zero modulus)."""


def first_primes(m: int) -> tuple[int, ...]:
    """The first ``m`` primes, ascending: each candidate is tested against
    the primes found before it."""
    out: list[int] = []
    n = 2
    while len(out) < m:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return tuple(out)


def coprime_basis(numbers: Iterable[int]) -> tuple[int, ...]:
    """Pairwise coprime integers > 1, ascending, such that every number is
    plus or minus a product of their powers: factor refinement by gcds (Bach,
    Driscoll and Shallit, "Factor refinement", 1993).

    A pending number n sharing a factor g > 1 with a basis element b is
    replaced, with b, by the pending numbers g, n / g and b / g.  The
    product of all numbers held, pending or in the basis, drops by the
    factor g each time, so the refinement ends, and every number ever held
    is a product of powers of the final elements.  Each element has a prime factor of its
    own, so the basis is never larger than the set of distinct primes."""
    todo = [abs(n) for n in numbers]
    if 0 in todo:
        raise ArithError("zero has no coprime basis")
    basis: list[int] = []
    while todo:
        n = todo.pop()
        if n == 1:
            continue
        for i, b in enumerate(basis):
            g = math.gcd(n, b)
            if g > 1:
                del basis[i]
                todo += (g, n // g, b // g)
                break
        else:
            basis.append(n)
    return tuple(sorted(basis))


def split(k: int, basis: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """``(residual, exps)`` with ``|k| = residual * prod(b**e)`` over the
    basis, and no basis element dividing the residual.  Each exponent takes
    O(log e) exact divisions: by ``b, b**2, b**4, ...`` while they divide,
    then back down, by each of those squares that still divides."""
    if k == 0:
        raise ArithError("cannot split zero")
    residual = abs(k)
    exps = []
    for b in basis:
        squares, p = [], b
        while residual % p == 0:
            squares.append(p)
            p *= p
        e = 0
        for i in range(len(squares) - 1, -1, -1):
            q, r = divmod(residual, squares[i])
            if not r:
                residual, e = q, e + (1 << i)
        exps.append(e)
    return residual, tuple(exps)


def solve_congruence(a: int, b: int, m: int) -> Optional[tuple[int, int]]:
    """All integers s with ``a * s = b (mod m)``, as ``(s0, step)`` for the
    progression ``s0 + step * t`` with ``0 <= s0 < step``, or None when there
    are none.  The step divides ``|m|``."""
    if m == 0:
        raise ArithError("zero modulus")
    g = math.gcd(a, m)
    if b % g:
        return None
    step = abs(m) // g
    return (b // g) * pow(a // g, -1, step) % step, step
