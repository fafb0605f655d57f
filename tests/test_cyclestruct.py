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
