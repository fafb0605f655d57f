import math

import pytest

from redei.gf import INFINITY, build_field, first_with_character, quadratic_character
from redei.maps import (
    NotAPermutation,
    _power_map_image,
    _power_map_images,
    _redei_images,
    build_permutation,
    cycle_decomposition,
    mult_map_structure,
    power_map_structure,
    power_map_structures,
    redei_eval,
    redei_structures,
)
from redei.numthy import prime_power_decomposition


def walk_orbits(images):
    """Oracle: count orbit lengths by explicit walking."""
    seen = [False] * len(images)
    counts = {}
    for s in range(len(images)):
        if seen[s]:
            continue
        n, cur = 0, s
        while not seen[cur]:
            seen[cur] = True
            cur = images[cur]
            n += 1
        counts[n] = counts.get(n, 0) + 1
    return counts


def test_eval_with_index_one_is_identity():
    for p, k in ((7, 1), (3, 2)):
        field = build_field(p, k)
        a = first_with_character(field, -1)
        for pt in field.projective_points():
            assert redei_eval(field, 1, a, pt) == pt


def test_eval_at_zero_with_odd_index():
    field = build_field(7, 1)
    for m in (1, 3, 5, 7, 9):
        assert redei_eval(field, m, (3,), (0,)) == (0,)


def test_eval_rejects_bad_arguments():
    field = build_field(7, 1)
    with pytest.raises(ValueError):
        redei_eval(field, 0, (3,), (1,))
    with pytest.raises(ValueError):
        redei_eval(field, 3, field.zero, (1,))


def test_eval_sends_infinity_to_infinity():
    field = build_field(7, 1)
    for m in (1, 2, 3, 5):
        assert redei_eval(field, m, (3,), INFINITY) is INFINITY


def test_table_matches_pointwise_eval():
    # Guards the integer fast path against the generic evaluator.
    for p, k, m in ((7, 1, 3), (11, 1, 7), (3, 2, 5), (7, 2, 11)):
        field = build_field(p, k)
        for chi in (-1, 1):
            a = first_with_character(field, chi)
            if math.gcd(m, field.q - chi) != 1:
                continue
            table = build_permutation(field, m, a)
            points = field.projective_points()
            for i, pt in enumerate(points):
                expected = redei_eval(field, m, a, pt)
                assert points[table.image[i]] == expected


def test_permutation_is_bijection():
    field = build_field(7, 1)
    table = build_permutation(field, 3, (3,))
    assert sorted(table.image) == list(range(8))
    big = build_field(7, 2)
    a = first_with_character(big, 1)
    table = build_permutation(big, 5, a)
    assert sorted(table.image) == list(range(50))


def test_permutation_rejects_even_index_for_nonsquare():
    field = build_field(7, 1)
    assert quadratic_character(field, (3,)) == -1
    with pytest.raises(NotAPermutation):
        build_permutation(field, 2, (3,))


def test_cycle_decomposition_identity():
    field = build_field(7, 2)
    a = first_with_character(field, -1)
    table = build_permutation(field, 1, a)
    assert cycle_decomposition(table).as_dict() == {1: 50}


def test_cycle_decomposition_reference_cases():
    field = build_field(7, 2)
    a = first_with_character(field, -1)
    table = build_permutation(field, 7, a)
    assert cycle_decomposition(table).as_dict() == {1: 2, 4: 12}
    small = build_field(7, 1)
    table = build_permutation(small, 3, (3,))
    assert cycle_decomposition(table).as_dict() == {1: 2, 2: 3}


def test_mult_map_structures():
    assert mult_map_structure(3, 8).as_dict() == walk_orbits([3 * x % 8 for x in range(8)])
    assert mult_map_structure(3, 8).as_dict() == {1: 2, 2: 3}
    assert mult_map_structure(1, 17).as_dict() == {1: 17}
    assert mult_map_structure(49, 50).as_dict() == {1: 2, 2: 24}
    with pytest.raises(ValueError):
        mult_map_structure(6, 8)


def test_power_map_structures():
    field = build_field(7, 1)
    assert power_map_structure(field, 1, "units").as_dict() == {1: 6}
    big = build_field(7, 2)
    assert (
        power_map_structure(field, 3, "norm_one").as_dict()
        == mult_map_structure(3, 8).as_dict()
    )
    assert (
        power_map_structure(big, 5, "units").as_dict()
        == mult_map_structure(5, 48).as_dict()
    )
    with pytest.raises(ValueError):
        power_map_structure(field, 3, "units")  # gcd(3, 6) != 1
    with pytest.raises(ValueError):
        power_map_structure(field, 3, "cosets")


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_small_scale_transfer(q):
    from redei.numthy import prime_power_decomposition

    field = build_field(*prime_power_decomposition(q))
    for chi in (-1, 1):
        n = q - chi
        a = first_with_character(field, chi)
        for m in range(1, n):
            if math.gcd(m, n) != 1:
                continue
            table = cycle_decomposition(build_permutation(field, m, a))
            if chi == -1:
                assert table == mult_map_structure(m, q + 1)
            else:
                assert table.drop_fixed_points(2) == mult_map_structure(m, q - 1)


def test_table_csv_export():
    field = build_field(3, 1)
    table = build_permutation(field, 1, (1,))
    assert table.to_csv() == "point,image\n0,0\n1,1\n2,2\ninf,inf\n"
    ext = build_field(3, 2)
    a = first_with_character(ext, -1)
    csv_text = build_permutation(ext, 1, a).to_csv()
    assert csv_text.startswith("point,image\n0:0,0:0\n1:0,1:0\n")
    assert csv_text.endswith("inf,inf\n")


BATCH_QS = [q for q in range(3, 131, 2) if prime_power_decomposition(q)]


@pytest.mark.parametrize("q", BATCH_QS)
def test_one_pass_redei_tables_match_single_index(q):
    field = build_field(*prime_power_decomposition(q))
    for chi in (-1, 1):
        a = first_with_character(field, chi)
        n = q - chi
        images = _redei_images(field, a)
        assert sorted(images) == [m for m in range(1, n) if math.gcd(m, n) == 1]
        structures = redei_structures(field, a)
        for m, image in images.items():
            table = build_permutation(field, m, a)
            assert image == table.image
            assert structures[m] == cycle_decomposition(table)


@pytest.mark.parametrize("q", BATCH_QS)
def test_one_pass_power_tables_match_single_index(q):
    field = build_field(*prime_power_decomposition(q))
    for subgroup, order in (("units", q - 1), ("norm_one", q + 1)):
        images = _power_map_images(field, subgroup)
        assert sorted(images) == [m for m in range(1, order) if math.gcd(m, order) == 1]
        structures = power_map_structures(field, subgroup)
        for m, image in images.items():
            assert image == _power_map_image(field, m, subgroup)
            assert structures[m] == power_map_structure(field, m, subgroup)
