"""Exact integer kernel.

Factorization, totients, multiplicative orders, p-adic valuations, and
gcd(m**r - 1, n) computed without ever forming the full power m**r.
Everything here is pure and deterministic; results are cached where the
same small inputs recur in sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "PrimeFactorization",
    "FactorizationError",
    "is_prime",
    "factorize",
    "euler_phi",
    "divisors",
    "mult_order",
    "padic_valuation",
    "lte_valuation",
    "gcd_power_minus_one",
    "prime_power_decomposition",
]

_TRIAL_LIMIT = 10_000

# Deterministic Miller-Rabin witness set for n < 3.3 * 10**24, which covers
# every 64-bit input and then some.  _MR_BOUND is the smallest strong
# pseudoprime to all twelve bases (Sorenson & Webster, Math. Comp. 2017);
# from there on a strong Lucas test joins in.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3317044064679887385961981


@dataclass(frozen=True)
class PrimeFactorization:
    """Factored form of a positive integer.

    Primes are strictly increasing, every exponent is >= 1, and the product
    of the prime powers reconstructs ``value``.  ``value == 1`` iff
    ``factors`` is empty.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent_of(self, p: int) -> int:
        for prime, exp in self.factors:
            if prime == p:
                return exp
        return 0

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


class FactorizationError(ValueError):
    """factorize(n) produced a result that fails its own check: the factors
    do not multiply back to n, or a factor found by rho is not prime."""


def is_prime(n: int) -> bool:
    """Primality, exact below 3.3 * 10**24 and Baillie-PSW above.

    Miller-Rabin to the twelve prime bases up to 37 is deterministic below
    the smallest strong pseudoprime to all of them; from that bound on,
    a strong Lucas probable-prime test with Selfridge's parameters is
    added, which makes the test Baillie-PSW (no counterexample is known).

    >>> is_prime(3317044064679887385961981)
    False
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a / n) for odd positive n.
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # Strong Lucas test for odd n > 37 (Baillie & Wagstaff 1980), with
    # Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    # (D / n) == -1, P = 1 and Q = (1 - D) / 4.  Writing n + 1 = d * 2**s,
    # n passes when U_d == 0 or V_{d * 2**r} == 0 (mod n) for some r < s.
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # n > |D| here, so gcd(D, n) is a proper factor
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    # Lucas chain over the bits of d: (U_k, V_k, Q**k) from k = 1.
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of an odd composite n.

    Brent's cycle-finding variant with a fixed parameter sequence, so the
    result (and hence factorize) is deterministic.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1


def _factor_into(n: int, counts: dict[int, int]) -> None:
    while n > 1:
        if is_prime(n):
            counts[n] = counts.get(n, 0) + 1
            return
        d = _brent_rho(n)
        _factor_into(d, counts)
        n //= d


@lru_cache(maxsize=65536)
def factorize(n: int) -> PrimeFactorization:
    """Factor a positive integer into its unique prime-power form.

    Trial division by small primes first, then Brent's rho with
    deterministic primality certification on what remains.  The result is
    checked before it is returned: the prime powers must multiply back to
    n, and every factor rho found must pass is_prime; otherwise
    FactorizationError names n.

    >>> factorize(48).factors
    ((2, 4), (3, 1))
    >>> factorize(1).factors
    ()
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    counts: dict[int, int] = {}
    rest = n
    while rest % 2 == 0:
        counts[2] = counts.get(2, 0) + 1
        rest //= 2
    f = 3
    while f <= _TRIAL_LIMIT and f * f <= rest:
        while rest % f == 0:
            counts[f] = counts.get(f, 0) + 1
            rest //= f
        f += 2
    if rest > 1:
        if f * f > rest:
            counts[rest] = counts.get(rest, 0) + 1
        else:
            found: dict[int, int] = {}
            _factor_into(rest, found)
            for prime in found:
                if not is_prime(prime):
                    raise FactorizationError(
                        f"factorize({n}): factor {prime} is not prime"
                    )
            counts.update(found)
    result = PrimeFactorization(n, tuple(sorted(counts.items())))
    product = result.reconstruct()
    if product != n:
        raise FactorizationError(
            f"factorize({n}): factors {result.factors} multiply to {product}"
        )
    return result


@lru_cache(maxsize=65536)
def euler_phi(n: int) -> int:
    """Euler's totient, computed from the factorization.

    >>> euler_phi(50)
    20
    """
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out


@lru_cache(maxsize=65536)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def mult_order(m: int, d: int) -> int:
    """Least theta >= 1 with m**theta == 1 (mod d); requires gcd(m, d) == 1.

    >>> mult_order(3, 5)
    4
    """
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    if d == 1:
        return 1
    m %= d
    if math.gcd(m, d) != 1:
        raise ValueError(f"order of {m} mod {d} undefined: gcd != 1")
    return _order_reduced(m, d)


@lru_cache(maxsize=1 << 18)
def _order_reduced(m: int, d: int) -> int:
    # Refine phi(d) downward one prime at a time; the order divides phi(d).
    e = euler_phi(d)
    for p, _ in factorize(e).factors:
        while e % p == 0 and pow(m, e // p, d) == 1:
            e //= p
    return e


def padic_valuation(p: int, z: int) -> int:
    """Exact exponent of the prime p in the nonzero integer z."""
    if z == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    z = abs(z)
    v = 0
    while z % p == 0:
        z //= p
        v += 1
    return v


def _power_minus_one_valuation(m: int, e: int, p: int) -> int:
    # Exponent of p in m**e - 1 found by growing the modulus, so m**e is
    # never materialized.
    v, mod = 0, p
    while pow(m, e, mod) == 1:
        v += 1
        mod *= p
    return v


def lte_valuation(p: int, m: int, r: int) -> int:
    """Exponent of p in m**r - 1 via the lifting-the-exponent case split.

    For odd p (or p == 2 with 4 | m - 1): 0 unless theta | r, where theta
    is the order of m mod p, and otherwise v_p(m**theta - 1) + v_p(r/theta).
    For p == 2 with m == 3 (mod 4): v_2(m - 1) for odd r, else
    v_2(m**2 - 1) + v_2(r) - 1.  Never forms m**r.

    >>> lte_valuation(2, 7, 2)
    4
    """
    if r < 1:
        raise ValueError(f"iteration count must be >= 1, got {r}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1 or m % p == 0:
        raise ValueError(f"need p coprime to m, got p={p}, m={m}")
    if m == 1:
        raise ValueError("m == 1 makes m**r - 1 vanish; valuation is infinite")
    if p == 2 and (m - 1) % 4 == 2:
        if r % 2:
            return 1
        return padic_valuation(2, m * m - 1) + padic_valuation(2, r) - 1
    theta = mult_order(m, p)
    if r % theta:
        return 0
    return _power_minus_one_valuation(m, theta, p) + padic_valuation(p, r // theta)


def gcd_power_minus_one(m: int, r: int, n: int) -> int:
    """gcd(m**r - 1, n) by modular exponentiation.

    Uses gcd(x mod n, n) == gcd(x, n); returns n itself when m**r == 1
    (mod n).

    >>> gcd_power_minus_one(9, 2, 25)
    5
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if m < 0 or r < 1:
        raise ValueError("need m >= 0 and r >= 1")
    return math.gcd((pow(m, r, n) - 1) % n, n)


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q == p**k for prime p, or None if q is not a
    prime power."""
    if q < 2:
        return None
    f = factorize(q)
    if len(f.factors) != 1:
        return None
    return f.factors[0]
