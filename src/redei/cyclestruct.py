"""Cycle structures from per-prime-power order data, fixed-point counts,
and the arithmetic criteria deciding when two Redei permutations over the
same field and character share a cycle structure.

This module is field-free: the character is always passed as an explicit
chi in {-1, +1}, never inferred from a field element.  Throughout, the
relevant modulus is q - chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .numthy import (
    divisors,
    factorize,
    gcd_power_minus_one,
    mult_order,
    padic_valuation,
)

__all__ = [
    "CycleStructure",
    "cycle_structure",
    "fixed_point_count",
    "iterated_fixed_point_count",
    "same_structure_by_iterates",
    "prime_power_signature",
    "prime_power_gcds_agree",
    "shares_cycle_structure",
    "half_shift_shares_structure",
]


@dataclass(frozen=True)
class CycleStructure:
    """Multiset of cycle lengths: (length, multiplicity) pairs, lengths
    ascending, no zero multiplicities.  Equality is exact map equality."""

    counts: tuple[tuple[int, int], ...]

    @classmethod
    def from_counts(cls, counts: Mapping[int, int] | Iterable[tuple[int, int]]) -> "CycleStructure":
        merged: dict[int, int] = {}
        items = counts.items() if isinstance(counts, Mapping) else counts
        for length, mult in items:
            if length < 1:
                raise ValueError(f"cycle length must be >= 1, got {length}")
            if mult < 0:
                raise ValueError(f"multiplicity must be >= 0, got {mult}")
            if mult:
                merged[length] = merged.get(length, 0) + mult
        return cls(tuple(sorted(merged.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def multiplicity(self, length: int) -> int:
        for ln, mult in self.counts:
            if ln == length:
                return mult
        return 0

    def total_points(self) -> int:
        """Total mass: sum of length * multiplicity."""
        return sum(ln * mult for ln, mult in self.counts)

    def drop_fixed_points(self, count: int) -> "CycleStructure":
        """Structure with `count` fixed points removed."""
        have = self.multiplicity(1)
        if have < count:
            raise ValueError(f"cannot drop {count} fixed points, only {have}")
        out = dict(self.counts)
        out[1] = have - count
        return CycleStructure.from_counts(out)

    def to_json_obj(self) -> dict[str, int]:
        """Keys are decimal length strings, ascending numerically."""
        return {str(ln): mult for ln, mult in self.counts}

    def __str__(self) -> str:
        inner = ", ".join(f"{ln}: {mult}" for ln, mult in self.counts)
        return "{" + inner + "}"


def _modulus(q: int, chi: int) -> int:
    if chi not in (-1, 1):
        raise ValueError(f"chi must be -1 or +1, got {chi}")
    n = q - chi
    if n < 2:
        raise ValueError(f"q={q}, chi={chi} leaves no permutation domain")
    return n


def _require_coprime(m: int, n: int) -> None:
    if m < 1 or math.gcd(m, n) != 1:
        raise ValueError(f"m={m} is not coprime to {n}: not a permutation")


def prime_power_signature(m: int, p: int, alpha: int) -> tuple[int, ...]:
    """Everything about m that x -> m*x on Z_{p**alpha} depends on.

    (theta, gcd(m**theta - 1, p**alpha)) with theta the order of m mod p,
    and for p == 2 also gcd(m**2 - 1, 2**alpha).  Two indices share a
    cycle structure exactly when their signatures agree at every prime
    power exactly dividing q - chi.  Requires p not dividing m.

    >>> prime_power_signature(3, 5, 2), prime_power_signature(43, 5, 2)
    ((4, 5), (4, 25))
    """
    theta = mult_order(m, p)
    pa = p**alpha
    if p == 2:
        return (theta, math.gcd(m - 1, pa), math.gcd(m * m - 1, pa))
    return (theta, gcd_power_minus_one(m, theta, pa))


def _prime_power_cycle_type(
    p: int, alpha: int, signature: tuple[int, ...]
) -> dict[int, int]:
    # The p**j - p**(j-1) points of additive order p**j in Z_{p**alpha}
    # form cycles of length ord_{p**j}(m).  By lifting the exponent that
    # order stays theta while p**j divides gcd(m**theta - 1, p**alpha) and
    # gains a factor p at every level above.  For p == 2 and m == 3 (mod 4)
    # the order is 1 at level 1 and 2 at level 2, and from there on
    # gcd(m**2 - 1, 2**alpha) decides where it starts to double.
    order, reach = signature[0], signature[1]
    counts = {1: 1}
    pj = 1
    for j in range(1, alpha + 1):
        pj *= p
        if j == 2 and p == 2 and reach == 2:
            order, reach = 2, signature[2]
        elif reach % pj:
            order *= p
        counts[order] = counts.get(order, 0) + (pj - pj // p) // order
    return counts


def _direct_product(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    # c1 cycles of length l1 times c2 cycles of length l2 give
    # c1 * c2 * gcd(l1, l2) cycles of length lcm(l1, l2).
    out: dict[int, int] = {}
    for l1, c1 in left.items():
        for l2, c2 in right.items():
            g = math.gcd(l1, l2)
            length = l1 // g * l2
            out[length] = out.get(length, 0) + c1 * c2 * g
    return out


def cycle_structure(m: int, q: int, chi: int) -> CycleStructure:
    """Cycle structure of the index-m Redei permutation with character chi.

    The permutation acts like x -> m*x on Z_{q - chi}, plus 1 + chi extra
    fixed points.  By the Chinese remainder theorem that map is the direct
    product of x -> m*x on Z_{p**a} over the prime powers p**a exactly
    dividing q - chi.  Each factor has at most a + 1 cycle lengths, read
    off m's prime_power_signature by lifting the exponent, and the factors
    combine as (l1, c1) x (l2, c2) -> (lcm(l1, l2), c1 * c2 * gcd(l1, l2)).
    No divisor of q - chi is visited; the divisor-loop formula (one block
    of phi(d)/o_d(m) cycles of length o_d(m) per divisor d) is kept as an
    independent oracle in `redei.verify`.  Total mass is q + 1.

    >>> cycle_structure(3, 49, -1).as_dict()
    {1: 2, 4: 2, 20: 2}
    >>> cycle_structure(3, 3**60, 1).total_points() == 3**60 + 1
    True
    """
    n = _modulus(q, chi)
    _require_coprime(m, n)
    counts = {1: 1}
    for p, alpha in factorize(n).factors:
        signature = prime_power_signature(m, p, alpha)
        counts = _direct_product(counts, _prime_power_cycle_type(p, alpha, signature))
    counts[1] += 1 + chi
    return CycleStructure.from_counts(counts)


def fixed_point_count(m: int, q: int, chi: int) -> int:
    """Number of fixed points: gcd(m - 1, q - chi) + chi + 1."""
    n = _modulus(q, chi)
    _require_coprime(m, n)
    return math.gcd(m - 1, n) + chi + 1


def iterated_fixed_point_count(m: int, r: int, q: int, chi: int) -> int:
    """Fixed points of the r-th iterate: gcd(m**r - 1, q - chi) + chi + 1."""
    n = _modulus(q, chi)
    _require_coprime(m, n)
    if r < 1:
        raise ValueError(f"iterate index must be >= 1, got {r}")
    return gcd_power_minus_one(m, r, n) + chi + 1


def same_structure_by_iterates(m: int, n: int, q: int, chi: int) -> bool:
    """Decide structure equality by comparing fixed-point counts of
    iterates.

    Checking r over the divisors of lcm(o(m), o(n)) mod q - chi suffices:
    every cycle length of either permutation divides that lcm, and the
    fixed count of iterate r depends only on which cycle lengths divide r.
    """
    modulus = _modulus(q, chi)
    _require_coprime(m, modulus)
    _require_coprime(n, modulus)
    bound = math.lcm(mult_order(m, modulus), mult_order(n, modulus))
    for r in divisors(bound):
        if gcd_power_minus_one(m, r, modulus) != gcd_power_minus_one(n, r, modulus):
            return False
    return True


def prime_power_gcds_agree(p: int, alpha: int, m: int, n: int) -> bool:
    """Whether gcd(m**r - 1, p**alpha) == gcd(n**r - 1, p**alpha) for every
    r >= 1: true exactly when m and n have the same prime_power_signature
    at p**alpha.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if m < 1 or n < 1 or m % p == 0 or n % p == 0:
        raise ValueError(f"p={p} must divide neither m={m} nor n={n}")
    return prime_power_signature(m, p, alpha) == prime_power_signature(n, p, alpha)


def shares_cycle_structure(m: int, n: int, q: int, chi: int) -> bool:
    """Decide whether the index-m and index-n permutations share a cycle
    structure, using only gcd, order, and valuation arithmetic.

    Writes n = m + k * (q - chi) / d with d = (q - chi) / gcd(n - m, q - chi)
    and compares the prime_power_signature of m and n at each prime power
    p**a exactly dividing q - chi with p | d; at the other primes m and n
    agree mod p**a.  Symmetric in m and n, and equivalent to exact
    structure equality.

    >>> shares_cycle_structure(5, 29, 49, 1)
    True
    """
    modulus = _modulus(q, chi)
    for value in (m, n):
        if not 1 <= value < modulus:
            raise ValueError(f"index {value} outside [1, {modulus})")
    _require_coprime(m, modulus)
    _require_coprime(n, modulus)
    if m == n:
        return True
    d = modulus // math.gcd(n - m, modulus)
    for p, alpha in factorize(modulus).factors:
        if d % p:
            continue
        if prime_power_signature(m, p, alpha) != prime_power_signature(n, p, alpha):
            return False
    return True


def half_shift_shares_structure(m: int, q: int, chi: int) -> bool:
    """Whether m and m + (q - chi)/2 give permutations with the same cycle
    structure.

    False outright when 2 exactly divides q - chi (the shifted index is
    even, so it does not permute at all); otherwise true iff m is not 1
    modulo 2**(alpha - 1), where alpha is the 2-adic valuation of q - chi.
    """
    modulus = _modulus(q, chi)
    _require_coprime(m, modulus)
    alpha = padic_valuation(2, modulus)
    if alpha == 1:
        return False
    return m % (1 << (alpha - 1)) != 1


@lru_cache(maxsize=64)
def structures_by_index(q: int, chi: int) -> dict[int, CycleStructure]:
    """Cycle structure of every valid index m in [1, q - chi).  Cached;
    treat the returned dict as read-only."""
    n = _modulus(q, chi)
    return {
        m: cycle_structure(m, q, chi)
        for m in range(1, n)
        if math.gcd(m, n) == 1
    }
