import math
import random

import pytest
from hypothesis import given, strategies as st

from gbs.arith import (
    ArithError,
    FactoredInt,
    PrimeSet,
    factor_over,
    first_primes,
    is_prime,
    prime_factors,
    solve_congruence,
    valuation,
)

P23 = PrimeSet((2, 3))
SP23 = PrimeSet((-1, 2, 3))


def test_valuation_examples():
    assert valuation(24, 2) == 3
    assert valuation(-5, -1) == 1
    assert valuation(5, -1) == 0
    assert valuation(7, 2) == 0


def test_valuation_rejects_zero():
    with pytest.raises(ArithError):
        valuation(0, 2)


def test_factor_over_examples():
    f = factor_over(-24, SP23)
    assert (f.residual, f.exps) == (1, (1, 3, 1))
    f = factor_over(30, P23)
    assert (f.residual, f.exps) == (5, (1, 1))
    f = factor_over(7, P23)
    assert (f.residual, f.exps) == (7, (0, 0))


def test_factor_over_rejects_zero_and_bare_negative():
    with pytest.raises(ArithError):
        factor_over(0, P23)
    with pytest.raises(ArithError):
        factor_over(-6, P23)


@given(st.integers(min_value=-10**12, max_value=10**12).filter(bool))
def test_factor_round_trip(k):
    assert factor_over(k, SP23).value() == k


def test_prime_set_validation():
    with pytest.raises(ArithError):
        PrimeSet((2, 2))
    with pytest.raises(ArithError):
        PrimeSet((2, -1))
    with pytest.raises(ArithError):
        PrimeSet((4,))
    assert PrimeSet(()).real_primes == ()


def test_prime_helpers():
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(-1) == ()
    assert is_prime(97) and not is_prime(91)


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


def test_factored_int_fields():
    f = factor_over(360, SP23)
    assert f == FactoredInt(5, (0, 3, 2), SP23)
