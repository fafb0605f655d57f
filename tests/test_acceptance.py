"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its check count and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines as the
sweeps complete.  Every comparison is exact.
"""

import time

from redei import verify
from redei.families import p_qmp1_family

FIELD_CAP = 400
# Valid indices over both characters of every odd prime power q <= 400:
# one check each in criteria 5 and 7.
FIELD_CAP_INDICES = 11939
PAIR_MODULUS_CAP = 500
SYMMETRY_CAP = 200


def _run(number, name, make_pieces, checks=None):
    """make_pieces: zero-argument callable yielding (checked, failures);
    checks, when given, is the exact number of checks expected."""
    start = time.perf_counter()
    checked, failures = 0, []
    for c, f in make_pieces():
        checked += c
        failures.extend(f)
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} [{status}] {name}: "
          f"{checked} checks in {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert checked > 0
    if checks is not None:
        assert checked == checks


def test_criterion_01_reference_class_table():
    _run(1, "q=49 class table, both characters",
         lambda: [verify.reference_classes_q49()])


def test_criterion_02_reference_gcd_order_tables():
    _run(2, "gcd(n**4 - 1, 25) and order-mod-5 worksheets",
         lambda: [verify.reference_gcd_order_tables()])


def test_criterion_03_reference_pair_catalogs():
    _run(3, "q=49 pair catalogs and line grouping",
         lambda: [verify.reference_pairs_q49()])


def test_criterion_04_big_integer_recursion():
    start = time.perf_counter()
    pred = p_qmp1_family(3, 3**60, -1)
    counts = pred.structure.as_dict()
    expected = {
        1: 2,
        8: 10,
        24: 22140,
        40: 87169608,
        120: 353259652293468362590059312,
    }
    ok = counts == expected and pred.structure.total_points() == 3**60 + 1
    elapsed = time.perf_counter() - start
    print(f"criterion  4 [{'PASS' if ok else 'FAIL'}] q=3**60 cycle counts: "
          f"{len(expected)} checks in {elapsed:.1f}s")
    assert ok, counts


def test_criterion_05_formula_matches_bruteforce():
    _run(5, f"closed form and divisor loop vs explicit tables, q <= {FIELD_CAP}",
         lambda: (verify.formula_vs_bruteforce(q)
                  for q in verify.odd_prime_powers(FIELD_CAP)),
         checks=FIELD_CAP_INDICES)


def test_criterion_06_three_way_pair_equivalence():
    _run(6, f"structure = criterion = iterates, q - chi <= {PAIR_MODULUS_CAP}",
         lambda: (verify.pair_criteria_equivalence(q, cap=PAIR_MODULUS_CAP)
                  for q in verify.odd_prime_powers(PAIR_MODULUS_CAP + 1)))


def test_criterion_07_cyclic_group_transfer():
    _run(7, f"transfer to multiplication and power maps, q <= {FIELD_CAP}",
         lambda: (verify.cyclic_transfer(q)
                  for q in verify.odd_prime_powers(FIELD_CAP)),
         checks=FIELD_CAP_INDICES)


def test_criterion_08_isolated_permutations():
    _run(8, f"isolated counts and involution facts, q <= {FIELD_CAP}",
         lambda: (verify.isolated_permutations(q)
                  for q in verify.odd_prime_powers(FIELD_CAP)))


def test_criterion_09_involution_divisors():
    _run(9, f"involutions by fixed-point count, q <= {SYMMETRY_CAP}",
         lambda: (verify.involution_divisors(q)
                  for q in verify.odd_prime_powers(SYMMETRY_CAP)))


def test_criterion_10_symmetries():
    def pieces():
        for q in verify.odd_prime_powers(SYMMETRY_CAP):
            yield verify.shift_symmetries(q)
        yield verify.cross_field_correspondence(SYMMETRY_CAP)

    _run(10, f"shift, negation, and cross-field symmetries, q <= {SYMMETRY_CAP}",
         pieces)


def test_criterion_11_families():
    _run(11, "family predictions vs formula and tables",
         lambda: [verify.family_consistency(frob_cap=2187, pair_cap=400,
                                            oracle_cap=10**4)])
