import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redei import numthy
from redei.numthy import (
    FactorizationError,
    divisors,
    euler_phi,
    factorize,
    gcd_power_minus_one,
    is_prime,
    lte_valuation,
    mult_order,
    padic_valuation,
    prime_power_decomposition,
)


def test_factorize_reference_values():
    assert factorize(48).factors == ((2, 4), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(50).factors == ((2, 1), (5, 2))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_round_trip():
    specials = [2**31 - 1, 600851475143, 10**12 + 39, 3**60, 2 * 3 * 5 * 7 * 11 * 13]
    for n in list(range(1, 3000)) + specials:
        f = factorize(n)
        assert f.reconstruct() == n
        assert list(f.primes()) == sorted(set(f.primes()))
        assert all(e >= 1 and is_prime(p) for p, e in f.factors)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert is_prime(2**61 - 1)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**61 + 1)


def test_is_prime_rejects_twelve_base_pseudoprime():
    # The smallest strong pseudoprime to every prime base up to 37.
    n = 3317044064679887385961981
    assert n == 1287836182261 * 2575672364521
    assert is_prime(n) is False


def test_is_prime_matches_sympy_on_random_large_inputs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    samples = [rng.getrandbits(rng.randrange(60, 129)) | 1 for _ in range(1500)]

    def prime(lo, hi):
        return sympy.nextprime(rng.getrandbits(rng.randrange(lo, hi)))

    samples += [prime(60, 128) for _ in range(100)]
    samples += [prime(30, 64) * prime(30, 64) for _ in range(100)]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_matches_sympy_on_random_large_inputs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2025)

    def prime(bits):
        return sympy.nextprime(rng.getrandbits(bits))

    # 60- to 128-bit inputs with at most one prime factor above 2**28, so
    # that rho needs at most about 2**14 steps on each of them.
    samples = []
    while len(samples) < 80:
        target = rng.randrange(60, 129)
        n = 1
        while n.bit_length() < target - 60 and rng.random() < 0.7:
            n *= prime(rng.randrange(3, 28)) ** rng.choice((1, 1, 2))
        n *= prime(target - n.bit_length())
        if 60 <= n.bit_length() <= 128:
            samples.append(n)
    for n in samples:
        assert dict(factorize(n).factors) == sympy.factorint(n), n


@pytest.fixture
def cold_factorize():
    factorize.cache_clear()
    yield
    factorize.cache_clear()


def test_factorize_rejects_a_composite_factor(cold_factorize, monkeypatch):
    # A rho stage that trusts a composite as prime, as the 12-base
    # Miller-Rabin test once did with this pseudoprime.
    pseudoprime = 3317044064679887385961981
    monkeypatch.setattr(numthy, "_factor_into", lambda n, counts: counts.update({n: 1}))
    with pytest.raises(FactorizationError, match=str(48 * pseudoprime)):
        factorize(48 * pseudoprime)


def test_factorize_rejects_a_lost_factor(cold_factorize, monkeypatch):
    n = 1287836182261 * 2575672364521
    monkeypatch.setattr(
        numthy, "_factor_into", lambda rest, counts: counts.update({1287836182261: 1})
    )
    with pytest.raises(FactorizationError, match=str(n)):
        factorize(n)


def test_euler_phi_values():
    assert euler_phi(50) == 20
    assert euler_phi(1) == 1
    brute = sum(1 for x in range(1, 49) if math.gcd(x, 48) == 1)
    assert brute == 16
    assert euler_phi(48) == brute


@given(st.integers(1, 3000))
def test_euler_phi_matches_bruteforce(n):
    assert euler_phi(n) == sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)


def test_divisors_ascending_and_complete():
    assert divisors(1) == (1,)
    assert divisors(48) == (1, 2, 3, 4, 6, 8, 12, 16, 24, 48)
    for n in range(1, 500):
        ds = divisors(n)
        assert list(ds) == sorted(ds)
        assert ds == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_mult_order_values():
    assert mult_order(3, 5) == 4
    assert mult_order(7, 5) == 4
    assert mult_order(12345, 1) == 1


def test_mult_order_rejects_common_factor():
    with pytest.raises(ValueError):
        mult_order(10, 15)


@given(st.integers(1, 400), st.integers(2, 400))
def test_mult_order_is_minimal(m, d):
    if math.gcd(m, d) != 1:
        with pytest.raises(ValueError):
            mult_order(m, d)
        return
    o = mult_order(m, d)
    assert pow(m, o, d) == 1
    assert euler_phi(d) % o == 0
    for p, _ in factorize(o).factors:
        assert pow(m, o // p, d) != 1


def test_padic_valuation_values():
    assert padic_valuation(2, 48) == 4
    assert padic_valuation(5, 50) == 2
    assert padic_valuation(3, 7) == 0
    assert padic_valuation(3, -18) == 2


def test_padic_valuation_rejects_zero_and_composite():
    with pytest.raises(ValueError):
        padic_valuation(2, 0)
    with pytest.raises(ValueError):
        padic_valuation(4, 8)


def test_lte_valuation_values():
    assert lte_valuation(5, 3, 4) == 1
    assert lte_valuation(5, 3, 1) == 0
    assert lte_valuation(2, 7, 2) == 4  # 7**2 - 1 == 48


def test_lte_valuation_rejects_degenerate():
    with pytest.raises(ValueError):
        lte_valuation(5, 10, 3)
    with pytest.raises(ValueError):
        lte_valuation(5, 1, 3)


@settings(max_examples=400)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(2, 10**4),
    st.integers(1, 64),
)
def test_lte_valuation_matches_expanded_power(p, m, r):
    # Oracle: exponentiate for real and strip factors of p.
    if m % p == 0:
        return
    v = lte_valuation(p, m, r)
    big = m**r - 1
    assert big % p**v == 0
    assert big % p ** (v + 1) != 0


def test_gcd_power_minus_one_values():
    assert gcd_power_minus_one(43, 4, 25) == 25
    assert gcd_power_minus_one(9, 2, 25) == 5
    assert gcd_power_minus_one(12345, 17, 1) == 1
    assert gcd_power_minus_one(1, 5, 36) == 36


@settings(max_examples=400)
@given(st.integers(1, 500), st.integers(1, 48), st.integers(1, 10**6))
def test_gcd_power_minus_one_matches_expanded(m, r, n):
    assert gcd_power_minus_one(m, r, n) == math.gcd(m**r - 1, n)


def test_prime_power_decomposition():
    assert prime_power_decomposition(49) == (7, 2)
    assert prime_power_decomposition(3**60) == (3, 60)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(45) is None
    assert prime_power_decomposition(1) is None
