"""Closed-form families of same-structure pairs.

Each family returns a FamilyPrediction: the pair (reduced into
[1, q - chi) so it composes with the catalog operations), whether the pair
actually is same-structure, and, when a closed form exists, the predicted
cycle structure.  Everything is exact arbitrary-precision arithmetic, so
parameters like q = 3**60 are fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclestruct import CycleStructure
from .numthy import (
    divisors,
    is_prime,
    padic_valuation,
    prime_power_decomposition,
)

__all__ = [
    "FamilyPrediction",
    "InvalidFamilyInput",
    "gcd_power_pm",
    "frobenius_family",
    "p_qmp1_family",
    "quarter_family",
    "pm2_family",
]


class InvalidFamilyInput(ValueError):
    """Arguments that name no family member at all: p not an odd prime,
    q not an odd prime power or not a power of p, k < 2, an exponent out
    of range, or chi outside {-1, +1}.  A congruence precondition that a
    well-formed field fails raises a plain ValueError instead."""


@dataclass(frozen=True)
class FamilyPrediction:
    family: str
    q: int
    chi: int
    pair: tuple[int, int]
    applicable: bool
    reason: str
    structure: CycleStructure | None = None

    def to_json_obj(self) -> dict:
        # Big integers go out as decimal strings (q may be 3**60 and the
        # multiplicities overflow 64-bit consumers).
        return {
            "family": self.family,
            "q": str(self.q),
            "chi": self.chi,
            "pair": [str(self.pair[0]), str(self.pair[1])],
            "structure": None
            if self.structure is None
            else {str(ln): str(mult) for ln, mult in self.structure.counts},
            "applicable": self.applicable,
            "reason": self.reason,
        }


def gcd_power_pm(c: int, k: int, l: int, sign_k: int, sign_l: int) -> int:
    """gcd(c**k + sign_k, c**l + sign_l) for signs in {-1, +1}, in closed
    form.

    (-1, -1) gives c**gcd(k, l) - 1.  (+1, +1) gives c**gcd(k, l) + 1 when
    the 2-adic valuations of k and l agree, else 2 or 1 by the parity of c.
    Mixed signs give c**gcd(k, l) + 1 when the plus-side exponent has the
    strictly smaller 2-adic valuation, else 2 or 1.  The expanded powers
    c**k, c**l are never formed on this path.

    >>> gcd_power_pm(3, 2, 4, 1, -1)
    10
    """
    if c < 2 or k < 1 or l < 1:
        raise ValueError("need c >= 2 and positive exponents")
    if sign_k not in (-1, 1) or sign_l not in (-1, 1):
        raise ValueError("signs must be -1 or +1")
    g = math.gcd(k, l)
    if sign_k == -1 and sign_l == -1:
        return c**g - 1
    if sign_k == 1 and sign_l == 1:
        if padic_valuation(2, k) == padic_valuation(2, l):
            return c**g + 1
        return 2 if c % 2 else 1
    plus_exp, minus_exp = (k, l) if sign_k == 1 else (l, k)
    if padic_valuation(2, plus_exp) < padic_valuation(2, minus_exp):
        return c**g + 1
    return 2 if c % 2 else 1


def _validate_chi(chi: int) -> None:
    if chi not in (-1, 1):
        raise InvalidFamilyInput(f"chi must be -1 or +1, got {chi}")


def frobenius_family(p: int, k: int, l1: int, l2: int, chi: int) -> FamilyPrediction:
    """The pair (p**l1, p**l2) over q = p**k, for 1 <= l1, l2 < k.

    Same-structure iff gcd(l1, k) == gcd(l2, k) and, for chi == -1, the
    2-adic valuations of l1 and l2 sit on the same side of that of k.
    When k is prime the cycle structure is filled in from the closed form,
    computed per coordinate and asserted equal.
    """
    _validate_chi(chi)
    if p == 2 or not is_prime(p):
        raise InvalidFamilyInput(f"p must be an odd prime, got {p}")
    if k < 2:
        raise InvalidFamilyInput(f"need k >= 2 for a proper power pair, got k={k}")
    for l in (l1, l2):
        if not 1 <= l < k:
            raise InvalidFamilyInput(f"exponent {l} outside [1, {k})")
    q = p**k
    n = q - chi
    pair = (pow(p, l1, n), pow(p, l2, n))
    cond_gcd = math.gcd(l1, k) == math.gcd(l2, k)
    nu_k = padic_valuation(2, k)
    cond_parity = chi == 1 or (
        (padic_valuation(2, l1) > nu_k) == (padic_valuation(2, l2) > nu_k)
    )
    if not cond_gcd:
        return FamilyPrediction(
            "frobenius", q, chi, pair, False,
            f"gcd({l1}, {k}) != gcd({l2}, {k})",
        )
    if not cond_parity:
        return FamilyPrediction(
            "frobenius", q, chi, pair, False,
            "2-adic valuations of the exponents straddle that of k",
        )
    structure = None
    if is_prime(k):
        s1 = _frobenius_structure(p, k, l1, chi)
        s2 = _frobenius_structure(p, k, l2, chi)
        if s1 != s2:
            raise AssertionError("coordinate structures disagree on a member pair")
        structure = s1
    return FamilyPrediction(
        "frobenius", q, chi, pair, True, "power pair is same-structure", structure
    )


def _frobenius_structure(p: int, k: int, l: int, chi: int) -> CycleStructure:
    # Closed form for prime k only.
    if chi == -1 and k == 2:
        return CycleStructure.from_counts({1: 2, 4: (p * p - 1) // 4})
    if chi == -1 and k % 2 == 1 and l % 2 == 1:
        return CycleStructure.from_counts(
            {1: 2, 2: (p - 1) // 2, 2 * k: (p**k - p) // (2 * k)}
        )
    return CycleStructure.from_counts({1: p + 1, k: (p**k - p) // k})


def p_qmp1_family(p: int, q: int, chi: int) -> FamilyPrediction:
    """The pair (p, q - p + 1) over q a power of p.

    Same-structure iff chi == -1 with q an even power of p, or chi == +1
    with q equal to 9 or to p itself.  In the even-power case the cycle
    count for each length 2d is produced by an exact recursion over the
    divisors d of the exponent with maximal 2-adic valuation, ascending,
    so arbitrarily large q (for example 3**60) stays exact.
    """
    _validate_chi(chi)
    if p == 2 or not is_prime(p):
        raise InvalidFamilyInput(f"p must be an odd prime, got {p}")
    e = 0
    t = q
    while t > 1 and t % p == 0:
        t //= p
        e += 1
    if t != 1 or e < 1:
        raise InvalidFamilyInput(f"q={q} is not a power of p={p}")
    n = q - chi
    pair = (p % n, (q - p + 1) % n)
    if chi == -1:
        if e % 2:
            return FamilyPrediction(
                "p-qmp1", q, chi, pair, False, "odd power of p with chi == -1"
            )
        counts: dict[int, int] = {1: 2}
        nu = padic_valuation(2, e)
        heads = [d for d in divisors(e) if padic_valuation(2, d) == nu]
        for d in heads:
            consumed = sum(2 * s * counts[2 * s] for s in heads if s < d and d % s == 0)
            mass = p**d + 1 - consumed - 2
            if mass % (2 * d):
                raise AssertionError(f"cycle count for length {2 * d} is not integral")
            counts[2 * d] = mass // (2 * d)
        return FamilyPrediction(
            "p-qmp1", q, chi, pair, True,
            "even power of p with chi == -1",
            CycleStructure.from_counts(counts),
        )
    if q == 9:
        return FamilyPrediction(
            "p-qmp1", q, chi, pair, True, "q == 9 with chi == +1",
            CycleStructure.from_counts({1: 4, 2: 3}),
        )
    if e == 1:
        return FamilyPrediction(
            "p-qmp1", q, chi, pair, True,
            "q == p with chi == +1: the pair degenerates to the identity",
            CycleStructure.from_counts({1: p + 1}),
        )
    return FamilyPrediction(
        "p-qmp1", q, chi, pair, False, "chi == +1 needs q in {9, p}"
    )


def _validate_field_size(q: int) -> None:
    if q < 3 or q % 2 == 0 or prime_power_decomposition(q) is None:
        raise InvalidFamilyInput(f"q={q} is not an odd prime power")


def quarter_family(q: int, chi: int) -> FamilyPrediction:
    """The pair ((q - chi)/4 + 1, 3(q - chi)/4 + 1), valid when
    q == chi (mod 8); always same-structure.

    The structure splits on the parity of (q - chi)/8: an involution with
    3(q - chi)/8 transpositions when odd, else (q - chi)/8 cycles each of
    lengths 2 and 4.
    """
    _validate_chi(chi)
    _validate_field_size(q)
    n = q - chi
    if n % 8:
        raise ValueError(f"needs q == chi (mod 8); q={q}, chi={chi}")
    pair = (n // 4 + 1, 3 * n // 4 + 1)
    fixed = n // 4 + chi + 1
    if (n // 8) % 2:
        structure = CycleStructure.from_counts({1: fixed, 2: 3 * n // 8})
    else:
        structure = CycleStructure.from_counts({1: fixed, 2: n // 8, 4: n // 8})
    return FamilyPrediction(
        "quarter", q, chi, pair, True, "q == chi (mod 8)", structure
    )


def pm2_family(q: int, chi: int) -> FamilyPrediction:
    """The pair ((q - chi +- 2)/4, (q - chi +- 4)/2), valid when
    q == chi +- 2 (mod 8) with the matching sign; always same-structure.

    No closed-form structure exists for this family; verification defers
    to the divisor formula.  The two congruences cannot hold at once, but
    the + sign would take precedence if they did.
    """
    _validate_chi(chi)
    _validate_field_size(q)
    n = q - chi
    if q % 8 == (chi + 2) % 8:
        sign = 1
    elif q % 8 == (chi - 2) % 8:
        sign = -1
    else:
        raise ValueError(f"needs q == chi +- 2 (mod 8); q={q}, chi={chi}")
    first = (n + 2 * sign) // 4 % n
    second = (n + 4 * sign) // 2 % n
    pair = (first, second)
    reason = f"q == chi {'+' if sign == 1 else '-'} 2 (mod 8)"
    if first == second:
        reason += "; pair degenerates to a single index"
    return FamilyPrediction("pm2", q, chi, pair, True, reason)
