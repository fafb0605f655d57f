import itertools
import math
import random

import pytest

from redei.cyclestruct import (
    CycleStructure,
    cycle_structure,
    fixed_point_count,
    half_shift_shares_structure,
    iterated_fixed_point_count,
    prime_power_gcds_agree,
    prime_power_signature,
    same_structure_by_iterates,
    shares_cycle_structure,
    structures_by_index,
)
from redei.maps import mult_map_structure


class TestCycleStructure:
    def test_zero_multiplicities_dropped(self):
        s = CycleStructure.from_counts({4: 2, 1: 0, 20: 2})
        assert s.as_dict() == {4: 2, 20: 2}
        assert s.multiplicity(1) == 0

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            CycleStructure.from_counts({0: 3})
        with pytest.raises(ValueError):
            CycleStructure.from_counts({2: -1})

    def test_equality_and_hash(self):
        a = CycleStructure.from_counts({1: 2, 4: 2})
        b = CycleStructure.from_counts([(4, 2), (1, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != CycleStructure.from_counts({1: 2, 4: 3})

    def test_total_and_drop(self):
        s = CycleStructure.from_counts({1: 6, 2: 10, 4: 6})
        assert s.total_points() == 50
        assert s.drop_fixed_points(2).as_dict() == {1: 4, 2: 10, 4: 6}
        assert s.drop_fixed_points(6).as_dict() == {2: 10, 4: 6}
        with pytest.raises(ValueError):
            s.drop_fixed_points(7)

    def test_json_object_keys_ascend(self):
        s = CycleStructure.from_counts({20: 2, 1: 2, 4: 2})
        assert list(s.to_json_obj().items()) == [("1", 2), ("4", 2), ("20", 2)]
        assert str(s) == "{1: 2, 4: 2, 20: 2}"


def test_structure_reference_values():
    assert cycle_structure(3, 49, -1).as_dict() == {1: 2, 4: 2, 20: 2}
    assert cycle_structure(11, 49, -1).as_dict() == {1: 10, 5: 8}
    for q, chi in ((49, -1), (49, 1), (27, -1), (3, 1)):
        assert cycle_structure(1, q, chi).as_dict() == {1: q + 1}


def test_structure_mass_is_q_plus_one():
    for q in (5, 7, 9, 13, 27, 49, 81):
        for chi in (-1, 1):
            n = q - chi
            for m in range(1, n):
                if math.gcd(m, n) == 1:
                    assert cycle_structure(m, q, chi).total_points() == q + 1


def test_structure_matches_multiplication_map():
    # The product over prime powers against a direct orbit walk of
    # x -> m*x on Z_n (q = n + 1, chi = +1 adds two fixed points), for
    # every n up to 200 and for a few n with high powers of 2, 3 and 5,
    # where the lifting-the-exponent cases matter most.
    for n in [*range(2, 201), 256, 486, 500, 512, 648, 1024]:
        for m in range(1, n):
            if math.gcd(m, n) == 1:
                expected = mult_map_structure(m, n).as_dict()
                expected[1] += 2
                assert cycle_structure(m, n + 1, 1).as_dict() == expected, (m, n)


@pytest.mark.parametrize(
    "p, k, chi, fixed",
    [(3, 60, 1, (3,)), (11, 24, 1, ()), (7, 30, -1, ())],
)
def test_structure_at_large_moduli(p, k, chi, fixed):
    # Too large for the divisor loop: check the mass, and check the
    # fixed points of the r-th iterate at every reported length r against
    # gcd(m**r - 1, q - chi) + chi + 1.
    q = p**k
    n = q - chi
    rng = random.Random(q)
    indices = list(fixed)
    while len(indices) < len(fixed) + 3:
        m = rng.randrange(2, n)
        if math.gcd(m, n) == 1:
            indices.append(m)
    for m in indices:
        s = cycle_structure(m, q, chi)
        assert s.total_points() == q + 1
        for r, _ in s.counts:
            expected = sum(ln * mult for ln, mult in s.counts if r % ln == 0)
            assert iterated_fixed_point_count(m, r, q, chi) == expected, (m, r)


# q = 159218115104634594526175089 is prime.  q - 1 = 2**4 * 3 * P1 * P2, where
# P1 * P2 = 3317044064679887385961981 is the smallest strong pseudoprime to the
# twelve prime bases up to 37, and q + 1 = 2 * 5 * 2213 * R1 * R2.  Each prime
# is listed with the factorization of p - 1, which certifies it (Lucas) and
# gives every order from pow alone, without redei.numthy.
PSEUDOPRIME_FIELD = 159218115104634594526175089
PSEUDOPRIME_FIELD_PRIMES = {
    2: {},
    3: {2: 1},
    5: {2: 2},
    2213: {2: 2, 7: 1, 79: 1},
    14167079879: {2: 1, 7: 1, 1011934277: 1},
    507844462967: {2: 1, 23: 1, 1087: 1, 10156483: 1},
    1287836182261: {2: 2, 3: 3, 5: 1, 127: 1, 18778597: 1},
    2575672364521: {2: 3, 3: 3, 5: 1, 127: 1, 18778597: 1},
}


def _lucas_certified(p, minus_one):
    # p is prime iff some a has order exactly p - 1 mod p.
    assert math.prod(r**e for r, e in minus_one.items()) == p - 1
    assert all(all(r % d for d in range(2, math.isqrt(r) + 1)) for r in minus_one)
    return any(
        pow(a, p - 1, p) == 1 and all(pow(a, (p - 1) // r, p) != 1 for r in minus_one)
        for a in range(2, 100)
    )


def _order_by_pow(m, p, e):
    # Order of m mod p**e, refined down from phi(p**e) one prime at a time.
    pe = p**e
    group = {**PSEUDOPRIME_FIELD_PRIMES[p]}
    if e > 1:
        group[p] = group.get(p, 0) + e - 1
    order = p ** (e - 1) * (p - 1)
    for r in group:
        while order % r == 0 and pow(m, order // r, pe) == 1:
            order //= r
    return order


def _divisor_loop_by_pow(m, q, chi, factors):
    # phi(d)/o_d(m) cycles of length o_d(m) for every divisor d of q - chi.
    counts = {1: 1 + chi}
    parts = [[(1, 1)] for _ in factors]
    for slot, (p, a) in enumerate(factors):
        for e in range(1, a + 1):
            parts[slot].append((p ** (e - 1) * (p - 1), _order_by_pow(m, p, e)))
    for combo in itertools.product(*parts):
        phi = math.prod(f for f, _ in combo)
        order = math.lcm(*(o for _, o in combo))
        counts[order] = counts.get(order, 0) + phi // order
    return counts


@pytest.mark.parametrize(
    "chi, factors",
    [
        (1, ((2, 4), (3, 1), (1287836182261, 1), (2575672364521, 1))),
        (-1, ((2, 1), (5, 1), (2213, 1), (14167079879, 1), (507844462967, 1))),
    ],
)
def test_structure_over_pseudoprime_field_matches_pow_orders(chi, factors):
    q = PSEUDOPRIME_FIELD
    assert all(_lucas_certified(p, PSEUDOPRIME_FIELD_PRIMES[p]) for p, _ in factors)
    assert math.prod(p**a for p, a in factors) == q - chi
    rng = random.Random(chi)
    indices = [43, 7]
    while len(indices) < 5:
        m = rng.randrange(2, q - chi)
        if math.gcd(m, q - chi) == 1:
            indices.append(m)
    for m in indices:
        assert cycle_structure(m, q, chi).as_dict() == _divisor_loop_by_pow(
            m, q, chi, factors
        ), m


def test_structure_rejects_noncoprime():
    with pytest.raises(ValueError):
        cycle_structure(5, 49, -1)
    with pytest.raises(ValueError):
        cycle_structure(3, 49, 2)


def test_fixed_point_count_values():
    assert fixed_point_count(17, 49, 1) == 18
    assert fixed_point_count(11, 49, -1) == 10
    assert fixed_point_count(1, 49, 1) == 50
    assert fixed_point_count(1, 49, -1) == 50


def test_fixed_point_count_matches_structure():
    for q in (7, 27, 49):
        for chi in (-1, 1):
            for m, s in structures_by_index(q, chi).items():
                assert fixed_point_count(m, q, chi) == s.multiplicity(1)


def test_iterated_fixed_points_values():
    assert iterated_fixed_point_count(3, 4, 49, -1) == 10
    assert iterated_fixed_point_count(9, 2, 49, -1) == 10
    for m in (3, 9, 11):
        assert iterated_fixed_point_count(m, 1, 49, -1) == fixed_point_count(m, 49, -1)


def test_iterated_fixed_points_sum_over_dividing_lengths():
    for q, chi in ((49, -1), (49, 1), (27, 1)):
        for m, s in structures_by_index(q, chi).items():
            for r in range(1, 25):
                expected = sum(ln * mult for ln, mult in s.counts if r % ln == 0)
                assert iterated_fixed_point_count(m, r, q, chi) == expected


def test_iterates_criterion_values():
    assert same_structure_by_iterates(3, 13, 49, -1)
    assert same_structure_by_iterates(17, 17, 49, 1)
    assert not same_structure_by_iterates(3, 43, 49, -1)


def test_iterates_criterion_matches_structures_small():
    for q, chi in ((27, -1), (25, 1), (13, -1)):
        structs = structures_by_index(q, chi)
        ms = sorted(structs)
        for i, m in enumerate(ms):
            for n in ms[i + 1 :]:
                expected = structs[m] == structs[n]
                assert same_structure_by_iterates(m, n, q, chi) == expected


def test_prime_power_signature_values():
    assert prime_power_signature(7, 5, 1) == (4, 5)
    # p == 2 carries gcd(m**2 - 1, 2**alpha) as well.
    assert prime_power_signature(3, 2, 4) == (1, 2, 8)
    assert prime_power_signature(7, 2, 4) == (1, 2, 16)
    assert prime_power_signature(5, 2, 4) == (1, 4, 8)


class TestPrimePowerGcds:
    def test_reference_values(self):
        assert prime_power_gcds_agree(5, 2, 3, 13)
        assert prime_power_gcds_agree(5, 1, 3, 7)
        assert not prime_power_gcds_agree(5, 2, 3, 43)

    def test_rejects_divisible(self):
        with pytest.raises(ValueError):
            prime_power_gcds_agree(5, 2, 10, 3)

    def test_matches_all_iterates_bruteforce(self):
        # Oracle: compare gcd(m**r - 1, p**a) for r up to the lcm of the
        # orders mod p**a, beyond which the pattern repeats.
        from redei.numthy import mult_order

        for p, alpha in ((2, 2), (2, 3), (3, 2), (5, 2)):
            pa = p**alpha
            for m in range(1, 40):
                if m % p == 0:
                    continue
                for n in range(1, 40):
                    if n % p == 0:
                        continue
                    bound = math.lcm(mult_order(m, pa), mult_order(n, pa))
                    expected = all(
                        math.gcd(m**r - 1, pa) == math.gcd(n**r - 1, pa)
                        for r in range(1, bound + 1)
                    )
                    assert prime_power_gcds_agree(p, alpha, m, n) == expected


class TestSharesCycleStructure:
    def test_reference_values(self):
        assert shares_cycle_structure(3, 17, 49, -1)
        assert shares_cycle_structure(5, 29, 49, 1)
        assert shares_cycle_structure(31, 31, 49, 1)
        assert not shares_cycle_structure(3, 43, 49, -1)
        assert not shares_cycle_structure(7, 31, 49, -1)

    def test_symmetry(self):
        for m, n in ((3, 17), (3, 43), (9, 19), (7, 43)):
            assert shares_cycle_structure(m, n, 49, -1) == shares_cycle_structure(
                n, m, 49, -1
            )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            shares_cycle_structure(0, 3, 49, -1)
        with pytest.raises(ValueError):
            shares_cycle_structure(3, 50, 49, -1)
        with pytest.raises(ValueError):
            shares_cycle_structure(5, 3, 49, -1)

    def test_matches_structures_small(self):
        for q, chi in ((49, -1), (49, 1), (27, -1), (25, 1), (9, 1)):
            structs = structures_by_index(q, chi)
            ms = sorted(structs)
            for i, m in enumerate(ms):
                for n in ms[i + 1 :]:
                    expected = structs[m] == structs[n]
                    assert shares_cycle_structure(m, n, q, chi) == expected


def test_half_shift_values():
    assert half_shift_shares_structure(5, 49, 1)
    assert not half_shift_shares_structure(17, 49, 1)
    for m in (3, 7, 9, 11):
        assert not half_shift_shares_structure(m, 49, -1)


def test_half_shift_matches_membership():
    for q, chi in ((49, 1), (25, 1), (17, -1)):
        n = q - chi
        structs = structures_by_index(q, chi)
        for m in structs:
            shifted = (m + n // 2) % n
            member = shifted in structs and structs[m] == structs[shifted]
            assert half_shift_shares_structure(m, q, chi) == member
