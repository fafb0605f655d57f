"""Whole-field analysis: group every valid permutation index by cycle
structure, expand the same-structure pair set, find isolated permutations
and the closed-form count of them, generate pairs through shift/negation
symmetries, and solve for involutions with a prescribed fixed-point count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Callable

from .cyclestruct import (
    CycleStructure,
    _modulus,
    cycle_structure,
    prime_power_signature,
    shares_cycle_structure,
)
from .numthy import (
    euler_phi,
    factorize,
    mult_order,
    padic_valuation,
    prime_power_decomposition,
)

__all__ = [
    "StructureClass",
    "PairCatalog",
    "NoSuchInvolution",
    "valid_indices",
    "structure_classes",
    "structure_pairs",
    "isolated_values",
    "isolated_count",
    "power_companion",
    "pair_shares_structure",
    "shifted_pair_shares_structure",
    "half_shifted_pair_shares_structure",
    "negated_pair_shares_structure",
    "half_minus_pair_shares_structure",
    "cross_field_sides",
    "cross_field_shift",
    "involution_for_divisor",
    "classes_json_obj",
    "pairs_csv",
]


@dataclass(frozen=True)
class StructureClass:
    """All indices in [1, q - chi) sharing one cycle structure, ascending."""

    structure: CycleStructure
    members: tuple[int, ...]


@dataclass(frozen=True)
class PairCatalog:
    """Same-structure pairs (m, n) with 1 < m < n < q - chi, sorted
    lexicographically."""

    q: int
    chi: int
    pairs: tuple[tuple[int, int], ...]


class NoSuchInvolution(Exception):
    """No involution exists with the requested fixed-point count."""


def valid_indices(q: int, chi: int) -> list[int]:
    """Indices in [1, q - chi) coprime to q - chi, ascending."""
    n = _modulus(q, chi)
    return [m for m in range(1, n) if math.gcd(m, n) == 1]


def _signature_groups(q: int, chi: int) -> list[list[int]]:
    # Valid indices grouped by their prime_power_signature at every prime
    # power p**a exactly dividing q - chi, groups in first-member order and
    # members ascending.  The signature at p**a depends only on m mod p**a,
    # so it is computed once per residue, and the residues divisible by p
    # are marked None: m is valid exactly when no entry of its key is.
    n = _modulus(q, chi)
    tables = [
        [
            None if r % p == 0 else prime_power_signature(r, p, alpha)
            for r in range(p**alpha)
        ]
        for p, alpha in factorize(n).factors
    ]
    grouped: dict[tuple, list[int]] = {}
    # p**a divides n, so cycling each table n // p**a times reads it at m mod p**a.
    for m, key in enumerate(islice(zip(*map(cycle, tables)), n)):
        if None not in key:
            grouped.setdefault(key, []).append(m)
    return list(grouped.values())


def structure_classes(q: int, chi: int) -> list[StructureClass]:
    """Partition the valid indices by exact structure equality.

    Two indices share a structure exactly when their prime_power_signature
    agrees at every prime power p**a exactly dividing q - chi.  That
    signature depends only on m mod p**a (the order of m mod p, the gcd of
    m**theta - 1 with p**a and, for p == 2, of m**2 - 1 with 2**a are all
    read mod p**a), so it is computed once for each residue mod p**a, not
    once per index and prime: sum(p**a) signatures per field.  An index is
    keyed by the table entries at its residues, and one structure is
    computed per class, from its smallest member.  Classes come out ordered
    by smallest member; members ascend.  The identity index m = 1 is
    included.
    """
    return [
        StructureClass(cycle_structure(members[0], q, chi), tuple(members))
        for members in _signature_groups(q, chi)
    ]


def structure_pairs(q: int, chi: int) -> PairCatalog:
    """Expand the classes into ordered pairs (m, n), 1 < m < n < q - chi."""
    pairs = []
    for group in _signature_groups(q, chi):
        members = [m for m in group if m > 1]
        for i, m in enumerate(members):
            for n in members[i + 1 :]:
                pairs.append((m, n))
    return PairCatalog(q, chi, tuple(sorted(pairs)))


def isolated_values(q: int, chi: int) -> tuple[int, ...]:
    """Indices whose cycle structure is shared by no other index."""
    return tuple(group[0] for group in _signature_groups(q, chi) if len(group) == 1)


def isolated_count(q: int, chi: int) -> int:
    """Closed-form count of isolated permutations.

    With q - chi = 2**a0 * p1**a1 * ... * pr**ar, the count is 2**r when
    a0 == 1 and 2**(r + 1) otherwise.
    """
    n = _modulus(q, chi)
    fact = factorize(n)
    odd_primes = sum(1 for p, _ in fact.factors if p != 2)
    alpha0 = fact.exponent_of(2)
    return 2**odd_primes if alpha0 == 1 else 2 ** (odd_primes + 1)


def power_companion(m: int, q: int, chi: int) -> int | None:
    """The companion index m**(rho - 1) mod q - chi, where rho is the order
    of m; None when rho <= 2 (no distinct companion exists)."""
    n = _modulus(q, chi)
    if math.gcd(m, n) != 1:
        raise ValueError(f"m={m} is not coprime to {n}")
    rho = mult_order(m, n)
    if rho <= 2:
        return None
    return pow(m, rho - 1, n)


def pair_shares_structure(m: int, n: int, q: int, chi: int) -> bool:
    """Same-structure membership for arbitrary integer coordinates.

    Coordinates are reduced mod q - chi; a coordinate that reduces to 0 or
    is not coprime does not permute, so the pair is out."""
    modulus = _modulus(q, chi)
    m %= modulus
    n %= modulus
    if m == 0 or n == 0:
        return False
    if math.gcd(m, modulus) != 1 or math.gcd(n, modulus) != 1:
        return False
    return shares_cycle_structure(m, n, q, chi)


def _shift_conditions(m: int, n: int, shift_primes) -> bool:
    # Per-prime conditions for a shifted pair: neither coordinate divisible
    # by p, and equal signatures at p**alpha.
    for p, alpha in shift_primes:
        if m % p == 0 or n % p == 0:
            return False
        if prime_power_signature(m, p, alpha) != prime_power_signature(n, p, alpha):
            return False
    return True


def shifted_pair_shares_structure(
    m: int, n: int, k: int, d: int, q: int, chi: int
) -> bool:
    """Given a same-structure pair (m, n) and a proper divisor d of
    q - chi, decide whether shifting both coordinates by k*(q - chi)/d
    yields another same-structure pair.

    Evaluates the per-prime conditions over the primes dividing d; agrees
    with direct membership of the shifted pair.
    """
    modulus = _modulus(q, chi)
    if d < 1 or d >= modulus or modulus % d:
        raise ValueError(f"d={d} is not a proper divisor of {modulus}")
    if not pair_shares_structure(m, n, q, chi):
        raise ValueError(f"({m}, {n}) is not a same-structure pair")
    shift = k * (modulus // d)
    mp = (m + shift) % modulus
    np_ = (n + shift) % modulus
    if mp == 0 or np_ == 0:
        return False
    primes = [(p, a) for p, a in factorize(modulus).factors if d % p == 0]
    return _shift_conditions(mp, np_, primes)


def half_shifted_pair_shares_structure(m: int, n: int, q: int, chi: int) -> bool:
    """Membership of the pair shifted by (q - chi)/2 in both coordinates.

    Requires 4 | q - chi; membership of (m, n) itself is equivalent (the
    half shift is an involution on the pair set)."""
    modulus = _modulus(q, chi)
    if padic_valuation(2, modulus) <= 1:
        raise ValueError(f"need 4 | {modulus} for the half shift")
    half = modulus // 2
    return pair_shares_structure(m + half, n + half, q, chi)


def _gcd_plus_one_test(m: int, n: int, q: int, chi: int) -> bool:
    modulus = _modulus(q, chi)
    if not pair_shares_structure(m, n, q, chi):
        raise ValueError(f"({m}, {n}) is not a same-structure pair")
    two_part = 1 << padic_valuation(2, modulus)
    return math.gcd(m + 1, two_part) == math.gcd(n + 1, two_part)


def negated_pair_shares_structure(m: int, n: int, q: int, chi: int) -> bool:
    """Given (m, n) same-structure, decide whether the negated pair
    (q - chi - m, q - chi - n) is same-structure: true iff gcd(m + 1, 2**a)
    == gcd(n + 1, 2**a) with a the 2-adic valuation of q - chi.  Always
    true when a is 1 or 2."""
    return _gcd_plus_one_test(m, n, q, chi)


def half_minus_pair_shares_structure(m: int, n: int, q: int, chi: int) -> bool:
    """Given (m, n) same-structure and 4 | q - chi, decide whether
    ((q - chi)/2 - m, (q - chi)/2 - n) is same-structure: the same
    gcd(. + 1, 2**a) test as negation.  Unconditional when a == 2."""
    modulus = _modulus(q, chi)
    if padic_valuation(2, modulus) <= 1:
        raise ValueError(f"need 4 | {modulus} for the half-minus reflection")
    return _gcd_plus_one_test(m, n, q, chi)


def cross_field_sides(
    q: int, qbar: int, p: int, chi: int
) -> Callable[[int], tuple[bool, bool]]:
    """Check the hypotheses of the cross-field correspondence once, and
    return the function that cross_field_shift applies to each index m.

    Raises ValueError unless q and qbar are odd prime powers and p divides
    q - chi and qbar - chi to the same positive power alpha, with
    (q - chi)/p**alpha + (qbar - chi)/p**alpha == 0 mod p.
    """
    nq = _modulus(q, chi)
    nb = _modulus(qbar, chi)
    for size in (q, qbar):
        if size % 2 == 0 or prime_power_decomposition(size) is None:
            raise ValueError(f"{size} is not an odd prime power")
    alpha = padic_valuation(p, nq)
    if alpha == 0:
        raise ValueError(f"p={p} does not divide {nq}")
    alpha_bar = padic_valuation(p, nb)
    if alpha_bar != alpha:
        raise ValueError(
            f"p={p} divides {nq} and {nb} to different powers ({alpha} vs {alpha_bar})"
        )
    pa = p**alpha
    if (nq // pa + nb // pa) % p:
        raise ValueError("cofactors do not cancel mod p; hypotheses unmet")
    shift_q, shift_b = nq // p, nb // p

    def sides(m: int) -> tuple[bool, bool]:
        mq, mb = m % nq, m % nb
        permutes_q = mq != 0 and math.gcd(mq, nq) == 1
        permutes_b = mb != 0 and math.gcd(mb, nb) == 1
        if permutes_q != permutes_b:
            raise ValueError(
                f"m={m} permutes over exactly one of the two fields; "
                "the correspondence needs both or neither"
            )
        left = pair_shares_structure(m, m + shift_q, q, chi)
        right = pair_shares_structure(m, m - shift_b, qbar, chi)
        return left, right

    return sides


def cross_field_shift(m: int, q: int, qbar: int, p: int, chi: int) -> tuple[bool, bool]:
    """Link the shift-by-(q - chi)/p pair across two fields.

    Requires the hypotheses of cross_field_sides, and m to permute in both
    fields or in neither.  Under those hypotheses, (m, m + (q - chi)/p) is
    same-structure over q exactly when (m, m - (qbar - chi)/p) is
    same-structure over qbar.  Both memberships are evaluated and returned
    as (left, right); the correspondence claims they are equal.
    """
    return cross_field_sides(q, qbar, p, chi)(m)


def involution_for_divisor(d: int, q: int, chi: int) -> tuple[int, ...]:
    """Indices of the involutions with exactly d + chi + 1 fixed points,
    for a proper divisor d of q - chi.

    Writing q - chi = 2**a0 * p1**a1 * ... and d = 2**b0 * p1**b1 * ...,
    such an involution exists only when every odd bi is 0 or ai, and then:

    - b0 in {a0 - 1, a0} with b0 >= 1 gives a single isolated index
      m = k*(q - chi)/d - 1, where k is ((q-chi)/(2d))**(phi(d)-1) + d/2
      or 2*((q-chi)/d)**(phi(d)-1) for b0 == a0 - 1 and a0 respectively,
      k reduced mod d after the full expression is evaluated;
    - a0 >= 3 with b0 == 1 gives the pair {m, m + (q - chi)/2} with
      k = ((q-chi)/(2d))**(phi(d)-1) mod d.

    Raises NoSuchInvolution otherwise.  Results are reduced into
    [1, q - chi) and sorted.
    """
    n = _modulus(q, chi)
    if d < 1 or d >= n or n % d:
        raise ValueError(f"d={d} is not a proper divisor of {n}")
    fact = factorize(n)
    alpha0 = fact.exponent_of(2)
    beta0 = padic_valuation(2, d)
    for p, alpha in fact.factors:
        if p == 2:
            continue
        beta = padic_valuation(p, d)
        if beta not in (0, alpha):
            raise NoSuchInvolution(
                f"odd prime {p} enters d={d} to power {beta}, not 0 or {alpha}"
            )
    if beta0 >= 1 and beta0 in (alpha0 - 1, alpha0):
        phi_d = euler_phi(d)
        if beta0 == alpha0 - 1:
            k = (n // (2 * d)) ** (phi_d - 1) + d // 2
        else:
            k = 2 * (n // d) ** (phi_d - 1)
        k %= d
        return ((k * (n // d) - 1) % n,)
    if alpha0 >= 3 and beta0 == 1:
        k = (n // (2 * d)) ** (euler_phi(d) - 1) % d
        first = (k * (n // d) - 1) % n
        second = (first + n // 2) % n
        return tuple(sorted((first, second)))
    raise NoSuchInvolution(
        f"no involution has {d + chi + 1} fixed points over q={q}, chi={chi}"
    )


# -- report forms ------------------------------------------------------------


def classes_json_obj(q: int, chi: int, classes: list[StructureClass]) -> dict:
    """JSON form of the classes of one field, as structure_classes gives them."""
    return {
        "q": q,
        "chi": chi,
        "classes": [
            {"members": list(cls.members), "structure": cls.structure.to_json_obj()}
            for cls in classes
        ],
    }


def pairs_csv(catalog: PairCatalog) -> str:
    """CSV with a line_offset column grouping pairs by (n - m) mod q - chi."""
    modulus = catalog.q - catalog.chi
    lines = ["m,n,line_offset"]
    for m, n in catalog.pairs:
        lines.append(f"{m},{n},{(n - m) % modulus}")
    return "\n".join(lines) + "\n"
