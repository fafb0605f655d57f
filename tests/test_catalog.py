import math

import pytest

from redei.catalog import (
    NoSuchInvolution,
    classes_json_obj,
    cross_field_shift,
    half_minus_pair_shares_structure,
    half_shifted_pair_shares_structure,
    involution_for_divisor,
    isolated_count,
    isolated_values,
    negated_pair_shares_structure,
    pair_shares_structure,
    pairs_csv,
    power_companion,
    shifted_pair_shares_structure,
    structure_classes,
    structure_pairs,
    valid_indices,
)
from redei.cyclestruct import fixed_point_count, structures_by_index
from redei.numthy import divisors, padic_valuation
from redei.verify import odd_prime_powers


def test_classes_for_q49():
    assert [c.members for c in structure_classes(49, -1)] == [
        (1,),
        (3, 13, 17, 23, 27, 33, 37, 47),
        (7, 43),
        (9, 19, 29, 39),
        (11, 21, 31, 41),
        (49,),
    ]
    assert [c.members for c in structure_classes(49, 1)] == [
        (1,),
        (5, 29),
        (7, 31),
        (11, 35),
        (13, 37),
        (17,),
        (19, 43),
        (23, 47),
        (25,),
        (41,),
    ]


def test_classes_partition_valid_indices():
    for q, chi in ((49, -1), (27, 1), (81, -1)):
        classes = structure_classes(q, chi)
        members = sorted(m for cls in classes for m in cls.members)
        assert members == valid_indices(q, chi)
        for cls in classes:
            assert list(cls.members) == sorted(cls.members)


def test_signature_classes_match_structure_grouping():
    # structure_classes keys indices by per-prime signature; grouping the
    # per-index structures directly must give the same classes in the same
    # order, with the same structures.
    for q in odd_prime_powers(2000):
        for chi in (-1, 1):
            grouped: dict = {}
            for m, structure in sorted(structures_by_index(q, chi).items()):
                grouped.setdefault(structure, []).append(m)
            expected = [(s, tuple(members)) for s, members in grouped.items()]
            got = [(c.structure, c.members) for c in structure_classes(q, chi)]
            assert got == expected, (q, chi)


# Fields at the scale of the catalog benchmark (1e4 < q < 4e4), with
# q - chi covering the shapes the residue tables treat differently.
CATALOG_SCALE_FIELDS = (
    (10079, -1),  # 2**5 * 3**2 * 5 * 7: three-part p = 2 signature, odd 3**2
    (13103, -1),  # 2**4 * 3**2 * 7 * 13
    (12601, 1),  # 2**3 * 3**2 * 5**2 * 7: two odd squares
    (15625, 1),  # 5**6 - 1 = 2**3 * 3**2 * 7 * 31, a prime-power field
    (32761, 1),  # 181**2 - 1 = 2**3 * 3**2 * 5 * 7 * 13
    (12479, -1),  # 2**6 * 3 * 5 * 13
    (10201, -1),  # 101**2 + 1 = 2 * 5101
)


@pytest.mark.parametrize("q,chi", CATALOG_SCALE_FIELDS)
def test_residue_tables_match_structure_grouping_at_catalog_scale(q, chi):
    # Group the per-index closed forms directly (uncached, so the suite does
    # not keep these large dicts) and compare with the table route.
    grouped: dict = {}
    for m, structure in sorted(structures_by_index.__wrapped__(q, chi).items()):
        grouped.setdefault(structure, []).append(m)
    expected = [(s, tuple(members)) for s, members in grouped.items()]
    classes = structure_classes(q, chi)
    assert [(c.structure, c.members) for c in classes] == expected
    assert isolated_values(q, chi) == tuple(
        members[0] for _, members in expected if len(members) == 1
    )
    if q - chi == 2 * 5101:
        # 1.6e6 pairs: as tuples, an estimated 100 MB.
        return
    pairs = sorted(
        (m, n)
        for _, members in expected
        for i, m in enumerate(members)
        for n in members[i + 1 :]
        if m > 1
    )
    assert structure_pairs(q, chi).pairs == tuple(pairs)


def test_degenerate_field_single_class():
    classes = structure_classes(3, 1)
    assert len(classes) == 1 and classes[0].members == (1,)
    assert structure_pairs(3, 1).pairs == ()


def test_pairs_for_q49():
    plus = structure_pairs(49, 1)
    assert plus.pairs == (
        (5, 29),
        (7, 31),
        (11, 35),
        (13, 37),
        (19, 43),
        (23, 47),
    )
    minus = structure_pairs(49, -1)
    assert len(minus.pairs) == 41
    assert all(1 < m < n < 50 for m, n in minus.pairs)


def test_isolated_values_and_count():
    assert isolated_values(49, -1) == (1, 49)
    assert isolated_values(49, 1) == (1, 17, 25, 41)
    assert isolated_count(49, -1) == 2
    assert isolated_count(49, 1) == 4
    assert isolated_count(3, 1) == 1
    for q, chi in ((49, -1), (49, 1), (81, 1), (27, -1)):
        n = q - chi
        for m in isolated_values(q, chi):
            assert m * m % n == 1


def test_power_companion():
    assert power_companion(5, 49, 1) == 29
    assert power_companion(3, 49, -1) == 17
    assert power_companion(49, 49, -1) is None
    assert power_companion(1, 49, 1) is None


def test_pair_membership_handles_reduction():
    assert pair_shares_structure(3, 53 + 50, 49, -1) is pair_shares_structure(3, 3, 49, -1)
    assert not pair_shares_structure(5, 3, 49, -1)  # 5 shares a factor with 50
    assert not pair_shares_structure(50, 3, 49, -1)  # reduces to 0
    assert pair_shares_structure(13, 3, 49, -1)


def test_shifted_pair_reference_case():
    # (13, 17) moved by 10 = 50/5 lands on (23, 27), also a pair.
    assert shifted_pair_shares_structure(13, 17, 1, 5, 49, -1)
    assert pair_shares_structure(23, 27, 49, -1)
    # zero shift keeps the original pair
    assert shifted_pair_shares_structure(13, 17, 0, 5, 49, -1)
    assert shifted_pair_shares_structure(13, 17, 5, 5, 49, -1)


def test_shifted_pair_validation():
    with pytest.raises(ValueError):
        shifted_pair_shares_structure(13, 17, 1, 50, 49, -1)
    with pytest.raises(ValueError):
        shifted_pair_shares_structure(13, 17, 1, 7, 49, -1)
    with pytest.raises(ValueError):
        shifted_pair_shares_structure(3, 7, 1, 5, 49, -1)  # not a pair


@pytest.mark.parametrize("q,chi", [(49, -1), (49, 1), (27, -1), (25, 1)])
def test_shifted_pair_matches_membership(q, chi):
    n = q - chi
    structs = structures_by_index(q, chi)
    pairs = [
        (m, nn)
        for i, m in enumerate(sorted(structs))
        for nn in sorted(structs)[i + 1 :]
        if structs[m] == structs[nn]
    ]
    for m, nn in pairs:
        for d in divisors(n):
            if d == n:
                continue
            for k in range(d):
                expected = pair_shares_structure(
                    m + k * n // d, nn + k * n // d, q, chi
                )
                assert shifted_pair_shares_structure(m, nn, k, d, q, chi) == expected


def test_half_shift_pair_is_involution_on_pairs():
    for m, n in structure_pairs(49, 1).pairs:
        assert half_shifted_pair_shares_structure(m, n, 49, 1)
    with pytest.raises(ValueError):
        half_shifted_pair_shares_structure(3, 13, 49, -1)  # 50 has a single 2


def test_negated_pair_reference_cases():
    # Every nonsquare-side pair reflects (single factor of 2 in 50).
    for m, n in structure_pairs(49, -1).pairs:
        assert negated_pair_shares_structure(m, n, 49, -1)
        assert pair_shares_structure(50 - m, 50 - n, 49, -1)
    # On the square side the reflections of (7, 31) and (23, 47) drop out.
    assert not negated_pair_shares_structure(7, 31, 49, 1)
    assert not pair_shares_structure(48 - 7, 48 - 31, 49, 1)
    assert not negated_pair_shares_structure(23, 47, 49, 1)
    assert negated_pair_shares_structure(5, 29, 49, 1)
    assert pair_shares_structure(48 - 5, 48 - 29, 49, 1)
    assert negated_pair_shares_structure(31, 31, 49, 1)


@pytest.mark.parametrize("q,chi", [(49, 1), (25, 1), (13, 1), (17, -1)])
def test_reflections_match_membership(q, chi):
    n = q - chi
    structs = structures_by_index(q, chi)
    ms = sorted(structs)
    alpha = padic_valuation(2, n)
    pairs = [
        (m, nn)
        for i, m in enumerate(ms)
        for nn in ms[i + 1 :]
        if structs[m] == structs[nn]
    ]
    for m, nn in pairs:
        negated = pair_shares_structure(n - m, n - nn, q, chi)
        assert negated_pair_shares_structure(m, nn, q, chi) == negated
        if alpha > 1:
            folded = pair_shares_structure(n // 2 - m, n // 2 - nn, q, chi)
            assert half_minus_pair_shares_structure(m, nn, q, chi) == folded
            if alpha == 2:
                assert half_minus_pair_shares_structure(m, nn, q, chi)


def test_half_minus_requires_two_twos():
    with pytest.raises(ValueError):
        half_minus_pair_shares_structure(3, 13, 49, -1)


class TestCrossFieldShift:
    def test_admissible_pair_runs(self):
        # 5 enters both 50 = 49 + 1 and 200 = 199 + 1 squared, and the
        # cofactors 2 and 8 cancel mod 5.
        for m in range(1, 200, 2):
            if math.gcd(m, 50) != 1 or math.gcd(m, 200) != 1:
                continue
            left, right = cross_field_shift(m, 49, 199, 5, -1)
            assert left == right == pair_shares_structure(m, m + 10, 49, -1)

    def test_rejects_unmet_hypotheses(self):
        with pytest.raises(ValueError):
            cross_field_shift(3, 49, 53, 5, -1)  # 54 has no factor 25
        with pytest.raises(ValueError):
            cross_field_shift(3, 49, 149, 5, -1)  # 2 + 6 != 0 mod 5

    def test_rejects_one_sided_index(self):
        # 12 = 13 - 1 and 60 = 61 - 1 share nu_3 = 1 and 4 + 20 == 0 mod 3,
        # but 25 permutes only on the smaller side.
        with pytest.raises(ValueError):
            cross_field_shift(25, 13, 61, 3, 1)

    def test_degenerate_index_both_sides_false(self):
        # 3 divides both 12 and 60, so neither side permutes.
        assert cross_field_shift(3, 13, 61, 3, 1) == (False, False)
        # 5 is coprime to 12 but not to 60: one-sided, rejected.
        with pytest.raises(ValueError):
            cross_field_shift(5, 13, 61, 3, 1)


class TestInvolutionForDivisor:
    def test_reference_cases(self):
        assert involution_for_divisor(16, 49, 1) == (17,)
        assert fixed_point_count(17, 49, 1) == 18
        assert involution_for_divisor(24, 49, 1) == (25,)
        assert fixed_point_count(25, 49, 1) == 26
        assert involution_for_divisor(2, 49, 1) == (23, 47)
        assert fixed_point_count(23, 49, 1) == 4
        assert involution_for_divisor(2, 49, -1) == (49,)

    def test_no_involution_cases(self):
        with pytest.raises(NoSuchInvolution):
            involution_for_divisor(4, 49, 1)
        with pytest.raises(NoSuchInvolution):
            involution_for_divisor(5, 49, -1)
        with pytest.raises(NoSuchInvolution):
            involution_for_divisor(3, 49, 1)

    def test_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            involution_for_divisor(48, 49, 1)
        with pytest.raises(ValueError):
            involution_for_divisor(7, 49, 1)

    @pytest.mark.parametrize("q,chi", [(49, 1), (49, -1), (81, -1), (41, 1), (27, 1)])
    def test_matches_enumeration(self, q, chi):
        n = q - chi
        by_divisor = {}
        for m in valid_indices(q, chi):
            if m * m % n == 1:
                by_divisor.setdefault(math.gcd(m - 1, n), []).append(m)
        for d in divisors(n):
            if d == n:
                continue
            try:
                got = involution_for_divisor(d, q, chi)
            except NoSuchInvolution:
                got = ()
            assert got == tuple(sorted(by_divisor.get(d, ())))


def test_classes_json_obj():
    obj = classes_json_obj(3, 1, structure_classes(3, 1))
    assert obj == {
        "q": 3,
        "chi": 1,
        "classes": [{"members": [1], "structure": {"1": 4}}],
    }


def test_pairs_csv_line_offsets():
    csv_text = pairs_csv(structure_pairs(49, 1))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "m,n,line_offset"
    assert lines[1:] == [
        "5,29,24",
        "7,31,24",
        "11,35,24",
        "13,37,24",
        "19,43,24",
        "23,47,24",
    ]
