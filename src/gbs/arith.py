"""Exact arithmetic support: factorization over a fixed prime set (with -1
as a formal sign prime) and a linear congruence solver.

Integers are plain Python ``int`` throughout; they are arbitrary precision,
carry a canonical zero, and round-trip through decimal text.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class ArithError(ValueError):
    """Raised for domain violations (zero input, foreign prime factor, ...)."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for desk-scale inputs."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def first_primes(m: int) -> tuple[int, ...]:
    """The first ``m`` primes, ascending."""
    out: list[int] = []
    n = 2
    while len(out) < m:
        if is_prime(n):
            out.append(n)
        n += 1
    return tuple(out)


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of ``|n|``, ascending, by trial division."""
    n = abs(n)
    out: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class PrimeSet:
    """An ordered tuple of distinct primes, optionally led by the formal
    sign prime -1 (used to track signs in factor vectors)."""

    primes: tuple[int, ...]

    def __post_init__(self):
        seen = set()
        for i, p in enumerate(self.primes):
            if p in seen:
                raise ArithError(f"duplicate prime {p}")
            seen.add(p)
            if p == -1:
                if i != 0:
                    raise ArithError("-1 must come first in a prime set")
            elif not is_prime(p):
                raise ArithError(f"{p} is not prime")

    @property
    def has_sign(self) -> bool:
        return bool(self.primes) and self.primes[0] == -1

    @property
    def real_primes(self) -> tuple[int, ...]:
        return self.primes[1:] if self.has_sign else self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)


@dataclass(frozen=True)
class FactoredInt:
    """``residual * prod(p**e)`` decomposition of a nonzero integer over a
    prime set; the residual is positive and coprime to every real prime."""

    residual: int
    exps: tuple[int, ...]
    primes: PrimeSet

    def value(self) -> int:
        v = self.residual
        for p, e in zip(self.primes, self.exps):
            v *= p ** e
        return v


def valuation(d: int, p: int) -> int:
    """Largest e with ``p**e | d`` for a prime p >= 2; for the formal prime
    -1, the sign bit (1 if ``d < 0`` else 0)."""
    if d == 0:
        raise ArithError("valuation of zero is undefined")
    if p == -1:
        return 1 if d < 0 else 0
    if p < 2 or not is_prime(p):
        raise ArithError(f"{p} is not a prime or -1")
    e = 0
    d = abs(d)
    while d % p == 0:
        d //= p
        e += 1
    return e


def factor_over(k: int, primes: PrimeSet) -> FactoredInt:
    """Split nonzero ``k`` into exponents over ``primes`` and a coprime
    positive residual.  Negative ``k`` requires the sign prime -1."""
    if k == 0:
        raise ArithError("cannot factor zero")
    residual = abs(k)
    exps = []
    for p in primes:
        if p == -1:
            exps.append(1 if k < 0 else 0)
            continue
        e = 0
        while residual % p == 0:
            residual //= p
            e += 1
        exps.append(e)
    if k < 0 and not primes.has_sign:
        raise ArithError("negative input needs the sign prime -1")
    return FactoredInt(residual, tuple(exps), primes)


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
