import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gbs.arith import ArithError, coprime_basis, first_primes, solve_congruence, split

try:  # optional, as in tests/test_groebner.py; the package never imports it
    import sympy
except ImportError:
    sympy = None


def test_prime_helpers():
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert first_primes(0) == ()
    assert len(first_primes(25)) == 25 and first_primes(25)[-1] == 97


def test_coprime_basis_examples():
    assert coprime_basis([6, 4]) == (2, 3)
    assert coprime_basis([12]) == (12,)
    assert coprime_basis([36, 6, -6]) == (6,)
    assert coprime_basis([8, 12]) == (2, 3)
    assert coprime_basis([-12, 18, 50]) == (2, 3, 25)  # 50 = 2 * 25
    assert coprime_basis([1, -1]) == coprime_basis([]) == ()
    with pytest.raises(ArithError):
        coprime_basis([3, 0])


def test_valuation_examples():
    # split's exponents are the valuations of k at the basis elements
    assert split(24, (2, 3)) == (1, (3, 1))
    # a residual may share a factor with a basis element it is not divisible by
    assert split(72, (6,)) == (2, (2,))
    assert split(5, ()) == (5, ())
    # large exponents, on both sides of powers of two
    for n in (1, 2, 3, 4, 5, 1023, 1024, 1025, 10**4, 16_000):
        assert split(2**n * 5, (2, 3)) == (5, (n, 0))
        assert split(-(6**n) * 7**3, (7, 2, 3)) == (1, (3, n, n))
    assert split(12**500 * 25, (12,)) == (25, (500,))


def test_valuation_rejects_zero():
    with pytest.raises(ArithError):
        split(0, (2, 3))


def test_factor_over_examples():
    # factoring over a fixed set of integers is split over a basis
    assert split(-24, (2, 3)) == (1, (3, 1))
    assert split(30, (2, 3)) == (5, (1, 1))
    assert split(7, (2, 3)) == (7, (0, 0))


def test_factor_over_rejects_zero_and_bare_negative():
    with pytest.raises(ArithError):
        split(0, (2, 3))
    with pytest.raises(ArithError):
        split(0, ())
    # a negative input is not an error: split factors |k|, and the sign
    # goes to the encoding's own slot, never into the residual
    assert split(-6, (2, 3)) == split(6, (2, 3)) == (1, (1, 1))
    assert split(-1, (2, 3)) == (1, (0, 0))


def test_factored_int_fields():
    residual, exps = split(360, (2, 3))
    assert (residual, exps) == (5, (3, 2))
    assert residual * 2 ** exps[0] * 3 ** exps[1] == 360


SMALL_PRIMES = first_primes(8)
# nonzero integers, many of them composites of a few shared small primes
NONZERO = st.one_of(
    st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=6).map(math.prod),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=2, max_value=10**40),
).flatmap(lambda n: st.sampled_from((n, -n)))
NUMBERS = st.lists(NONZERO, max_size=6)


@given(NUMBERS)
def test_coprime_basis_is_pairwise_coprime(numbers):
    basis = coprime_basis(numbers)
    assert all(b > 1 for b in basis) and list(basis) == sorted(basis)
    for i, b in enumerate(basis):
        for c in basis[i + 1:]:
            assert math.gcd(b, c) == 1


@given(NUMBERS)
def test_every_input_is_a_product_of_basis_powers(numbers):
    basis = coprime_basis(numbers)
    for n in numbers:
        residual, exps = split(n, basis)
        assert residual == 1
        assert math.prod(b**e for b, e in zip(basis, exps)) == abs(n)


@given(NUMBERS, NONZERO)
def test_factor_round_trip(numbers, k):
    basis = coprime_basis(numbers)
    residual, exps = split(k, basis)
    assert len(exps) == len(basis)
    assert residual * math.prod(b**e for b, e in zip(basis, exps)) == abs(k)
    assert all(residual % b for b in basis)



def _split_one_at_a_time(k, basis):
    residual, exps = abs(k), []
    for b in basis:
        e = 0
        while residual % b == 0:
            residual //= b
            e += 1
        exps.append(e)
    return residual, tuple(exps)


# pairwise coprime bases, and exponents up to 10**4 on them
COPRIME = st.lists(st.integers(2, 10**6), max_size=4).map(coprime_basis)
EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, 64), st.integers(0, 10**4))


@settings(max_examples=60, deadline=None)
@given(COPRIME, st.data(), st.integers(1, 10**30), st.sampled_from((1, -1)))
def test_split_matches_division_one_at_a_time(basis, data, cofactor, sign):
    # the cofactor may share factors with the basis: split must find them too
    exps = [data.draw(EXPONENT) for _ in basis]
    k = sign * cofactor * math.prod(b**e for b, e in zip(basis, exps))
    assert split(k, basis) == _split_one_at_a_time(k, basis)


@pytest.mark.skipif(sympy is None, reason="needs sympy")
@given(st.lists(st.one_of(
    st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=6).map(math.prod),
    st.integers(min_value=-10**12, max_value=10**12).filter(bool),
), max_size=6))
def test_basis_is_no_larger_than_the_set_of_primes(numbers):
    primes = set()
    for n in numbers:
        primes.update(sympy.factorint(abs(n)))
    assert len(coprime_basis(numbers)) <= len(primes)


def _brute_solutions(a, b, m):
    return [s for s in range(abs(m)) if (a * s - b) % m == 0]


def _progression(sol, m):
    s0, step = sol
    return list(range(s0, abs(m), step))


def test_solve_congruence_examples():
    assert solve_congruence(3, 1, 7) == (5, 7)
    assert solve_congruence(4, 2, 6) == (2, 3)
    assert solve_congruence(4, 1, 6) is None
    assert solve_congruence(6, 9, 4) is None


def test_solve_congruence_edge_cases():
    # a = 0: everything or nothing
    assert solve_congruence(0, 0, 5) == (0, 1)
    assert solve_congruence(0, 10, 5) == (0, 1)
    assert solve_congruence(0, 3, 5) is None
    # b = 0: the multiples of |m| / gcd(a, m)
    assert solve_congruence(4, 0, 6) == (0, 3)
    # |m| = 1: every integer
    assert solve_congruence(7, 5, 1) == (0, 1)
    assert solve_congruence(7, 5, -1) == (0, 1)
    # negative a and m
    assert solve_congruence(-3, 2, -7) == (4, 7)
    assert solve_congruence(-4, -2, -6) == (2, 3)
    with pytest.raises(ArithError):
        solve_congruence(1, 1, 0)


def test_solve_congruence_against_brute_force():
    rng = random.Random(2024)
    unsolvable = 0
    for _ in range(2000):
        m = 2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 3) * 5 ** rng.randint(0, 2)
        m *= rng.choice((1, -1))
        a = rng.randint(-40, 40) * rng.choice((1, 2, 6, 10))
        b = rng.randint(-100, 100)
        brute = _brute_solutions(a, b, m)
        sol = solve_congruence(a, b, m)
        if sol is None:
            unsolvable += 1
            assert brute == []
        else:
            assert _progression(sol, m) == brute
    assert 100 < unsolvable < 1900


@given(
    st.integers(min_value=-10**30, max_value=10**30),
    st.integers(min_value=-10**30, max_value=10**30),
    st.integers(min_value=-10**12, max_value=10**12).filter(bool),
)
def test_solve_congruence_gives_real_solutions(a, b, m):
    sol = solve_congruence(a, b, m)
    g = math.gcd(a, m)
    if sol is None:
        assert b % g != 0
        return
    s0, step = sol
    assert 0 <= s0 < step and abs(m) % step == 0
    assert (a * s0 - b) % m == 0
    # the step is the smallest shift that keeps a solution a solution
    assert step == abs(m) // g
