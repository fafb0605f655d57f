"""Exhaustive cross-checks of the closed forms against independent oracles.

Each sweep returns (checked, failures): how many assertions ran and a list
of human-readable counterexample strings (empty when everything agrees).
The CLI `verify` command and the acceptance test suite both run these, so
the formula route, the arithmetic-criterion route, and the brute-force
route are always compared against each other and never collapsed into one.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .catalog import (
    NoSuchInvolution,
    cross_field_sides,
    half_minus_pair_shares_structure,
    half_shifted_pair_shares_structure,
    involution_for_divisor,
    isolated_count,
    isolated_values,
    negated_pair_shares_structure,
    pair_shares_structure,
    power_companion,
    structure_classes,
    structure_pairs,
    valid_indices,
)
from .cyclestruct import (
    CycleStructure,
    cycle_structure,
    fixed_point_count,
    iterated_fixed_point_count,
    same_structure_by_iterates,
    shares_cycle_structure,
    structures_by_index,
)
from .families import frobenius_family, p_qmp1_family, pm2_family, quarter_family
from .gf import build_field, first_with_character
from .maps import (
    build_permutation,
    cycle_decomposition,
    mult_map_structure,
    power_map_structures,
    redei_structures,
)
from .numthy import (
    divisors,
    euler_phi,
    factorize,
    gcd_power_minus_one,
    mult_order,
    padic_valuation,
    prime_power_decomposition,
)

__all__ = [
    "odd_prime_powers",
    "field_for",
    "brute_structures",
    "formula_vs_bruteforce",
    "cyclic_transfer",
    "pair_criteria_equivalence",
    "iterate_count_consistency",
    "isolated_permutations",
    "involution_divisors",
    "shift_symmetries",
    "cross_field_correspondence",
    "reference_classes_q49",
    "reference_pairs_q49",
    "reference_tables_q49",
    "reference_gcd_order_tables",
    "family_consistency",
    "run_all",
]

Check = tuple[int, list[str]]


def odd_prime_powers(limit: int) -> list[int]:
    """Odd prime powers q with 3 <= q <= limit, ascending."""
    return [q for q in range(3, limit + 1, 2) if prime_power_decomposition(q)]


@lru_cache(maxsize=None)
def field_for(q: int):
    decomposition = prime_power_decomposition(q)
    if decomposition is None:
        raise ValueError(f"{q} is not a prime power")
    return build_field(*decomposition)


@lru_cache(maxsize=None)
def brute_structures(q: int, chi: int):
    """Brute-force cycle structure of every valid index, by explicit
    permutation tables over the projective line (read-only)."""
    field = field_for(q)
    tables = redei_structures(field, first_with_character(field, chi))
    return {m: tables[m] for m in valid_indices(q, chi)}


def _divisor_loop_structure(m: int, q: int, chi: int) -> CycleStructure:
    # The divisor-loop formula: phi(d)/o_d(m) cycles of length o_d(m) for
    # every divisor d of q - chi, plus 1 + chi extra fixed points.  It
    # shares no step with the per-prime-power product in cycle_structure.
    counts: dict[int, int] = {}
    for d in divisors(q - chi):
        o = mult_order(m, d)
        counts[o] = counts.get(o, 0) + euler_phi(d) // o
    counts[1] += 1 + chi
    return CycleStructure.from_counts(counts)


def formula_vs_bruteforce(q: int) -> Check:
    """The per-prime-power closed form, the divisor-loop formula and the
    explicit permutation tables against each other, plus fixed-point count
    and total-mass consistency."""
    checked, failures = 0, []
    for chi in (-1, 1):
        for m, actual in brute_structures(q, chi).items():
            checked += 1
            expected = cycle_structure(m, q, chi)
            by_divisors = _divisor_loop_structure(m, q, chi)
            if not (expected == by_divisors == actual):
                failures.append(
                    f"q={q} chi={chi} m={m}: closed form {expected}, "
                    f"divisor loop {by_divisors}, table {actual}"
                )
            if actual.total_points() != q + 1:
                failures.append(f"q={q} chi={chi} m={m}: mass != q + 1")
            if fixed_point_count(m, q, chi) != actual.multiplicity(1):
                failures.append(f"q={q} chi={chi} m={m}: fixed-point count mismatch")
    return checked, failures


def cyclic_transfer(q: int) -> Check:
    """The permutation's structure against x -> m*x on Z_{q -+ 1} and
    x -> x**m on the matching cyclic group.

    For nonsquare parameters the three structures agree outright; for
    square parameters they agree after removing the two extra fixed
    points."""
    checked, failures = 0, []
    field = field_for(q)
    powers = power_map_structures(field, "norm_one")
    for m, table_structure in brute_structures(q, -1).items():
        checked += 1
        linear = mult_map_structure(m, q + 1)
        if not (table_structure == linear == powers.get(m)):
            failures.append(f"q={q} chi=-1 m={m}: transfer mismatch")
    powers = power_map_structures(field, "units")
    for m, table_structure in brute_structures(q, 1).items():
        checked += 1
        trimmed = table_structure.drop_fixed_points(2)
        linear = mult_map_structure(m, q - 1)
        if not (trimmed == linear == powers.get(m)):
            failures.append(f"q={q} chi=+1 m={m}: transfer mismatch")
    return checked, failures


def pair_criteria_equivalence(q: int, cap: int = 500) -> Check:
    """Three-way equivalence on every coprime pair: exact structure
    equality, the per-prime shift criterion, and the bounded
    iterate-fixed-count comparison."""
    checked, failures = 0, []
    for chi in (-1, 1):
        n = q - chi
        if n > cap:
            continue
        structs = structures_by_index(q, chi)
        indices = sorted(structs)
        for i, m in enumerate(indices):
            sm = structs[m]
            for nn in indices[i + 1 :]:
                checked += 1
                by_structure = sm == structs[nn]
                by_criterion = shares_cycle_structure(m, nn, q, chi)
                by_iterates = same_structure_by_iterates(m, nn, q, chi)
                if not (by_structure == by_criterion == by_iterates):
                    failures.append(
                        f"q={q} chi={chi} (m,n)=({m},{nn}): "
                        f"structure={by_structure} criterion={by_criterion} "
                        f"iterates={by_iterates}"
                    )
    return checked, failures


def iterate_count_consistency(q: int, r_max: int = 12) -> Check:
    """Fixed points of the r-th iterate against the mass of cycle lengths
    dividing r, for every valid index."""
    checked, failures = 0, []
    for chi in (-1, 1):
        for m, structure in structures_by_index(q, chi).items():
            for r in range(1, r_max + 1):
                checked += 1
                from_gcd = iterated_fixed_point_count(m, r, q, chi)
                from_structure = sum(
                    ln * mult for ln, mult in structure.counts if r % ln == 0
                )
                if from_gcd != from_structure:
                    failures.append(
                        f"q={q} chi={chi} m={m} r={r}: "
                        f"{from_gcd} != {from_structure}"
                    )
    return checked, failures


def isolated_permutations(q: int) -> Check:
    """Isolated counts and involution facts: the closed-form count matches
    the enumeration, isolated indices square to 1, classes of involutions
    never exceed two members, and power companions stay in their class."""
    checked, failures = 0, []
    for chi in (-1, 1):
        n = q - chi
        classes = structure_classes(q, chi)
        singles = isolated_values(q, chi)
        checked += 1
        if len(singles) != isolated_count(q, chi):
            failures.append(
                f"q={q} chi={chi}: {len(singles)} isolated but formula says "
                f"{isolated_count(q, chi)}"
            )
        for m in singles:
            checked += 1
            if m * m % n != 1:
                failures.append(f"q={q} chi={chi}: isolated m={m} is no involution")
        for cls in classes:
            if all(x * x % n == 1 for x in cls.members):
                checked += 1
                if len(cls.members) > 2:
                    failures.append(
                        f"q={q} chi={chi}: involution class {cls.members} too large"
                    )
        structs = structures_by_index(q, chi)
        for m in structs:
            companion = power_companion(m, q, chi)
            if companion is not None:
                checked += 1
                if companion == m or structs[companion] != structs[m]:
                    failures.append(
                        f"q={q} chi={chi} m={m}: companion {companion} not in class"
                    )
    return checked, failures


def involution_divisors(q: int) -> Check:
    """Closed-form involution indices against enumeration, for every
    proper divisor d: the produced indices are exactly the involutions
    with d + chi + 1 fixed points, and single outputs are isolated."""
    checked, failures = 0, []
    for chi in (-1, 1):
        n = q - chi
        structs = structures_by_index(q, chi)
        roots: dict[int, list[int]] = {}
        for m in structs:
            if m * m % n == 1:
                roots.setdefault(math.gcd(m - 1, n), []).append(m)
        for d in divisors(n):
            if d == n:
                continue
            expected = tuple(sorted(roots.get(d, ())))
            try:
                got = involution_for_divisor(d, q, chi)
            except NoSuchInvolution:
                got = ()
            checked += 1
            if got != expected:
                failures.append(
                    f"q={q} chi={chi} d={d}: produced {got}, enumeration {expected}"
                )
                continue
            for m in got:
                checked += 1
                if m * m % n != 1 or fixed_point_count(m, q, chi) != d + chi + 1:
                    failures.append(f"q={q} chi={chi} d={d}: bad index {m}")
            if got:
                mates = tuple(
                    sorted(x for x, s in structs.items() if s == structs[got[0]])
                )
                checked += 1
                if mates != got:
                    failures.append(
                        f"q={q} chi={chi} d={d}: class {mates} != produced {got}"
                    )
    return checked, failures


def shift_symmetries(q: int) -> Check:
    """Half-shift biconditional over all coprime pairs, and the
    gcd(. + 1) tests for negated and half-minus reflections over all
    same-structure pairs."""
    checked, failures = 0, []
    for chi in (-1, 1):
        n = q - chi
        structs = structures_by_index(q, chi)
        indices = sorted(structs)
        two_adic = padic_valuation(2, n)
        if two_adic > 1:
            half = n // 2
            for i, m in enumerate(indices):
                for nn in indices[i + 1 :]:
                    checked += 1
                    direct = structs[m] == structs[nn]
                    shifted = structs[(m + half) % n] == structs[(nn + half) % n]
                    claimed = half_shifted_pair_shares_structure(m, nn, q, chi)
                    if direct != shifted or claimed != shifted:
                        failures.append(
                            f"q={q} chi={chi} ({m},{nn}): half-shift broke"
                        )
        members_pairs = [
            (m, nn)
            for i, m in enumerate(indices)
            for nn in indices[i + 1 :]
            if structs[m] == structs[nn]
        ]
        for m, nn in members_pairs:
            checked += 1
            reflected = structs[(n - m) % n] == structs[(n - nn) % n]
            if negated_pair_shares_structure(m, nn, q, chi) != reflected:
                failures.append(f"q={q} chi={chi} ({m},{nn}): negation test broke")
            if two_adic > 1:
                checked += 1
                half = n // 2
                folded = structs[(half - m) % n] == structs[(half - nn) % n]
                if half_minus_pair_shares_structure(m, nn, q, chi) != folded:
                    failures.append(
                        f"q={q} chi={chi} ({m},{nn}): half-minus test broke"
                    )
    return checked, failures


def cross_field_correspondence(limit: int) -> Check:
    """The shift-by-(q - chi)/p correspondence across every admissible
    pair of fields up to the limit, for every index that permutes in both
    or in neither."""
    checked, failures = 0, []
    qs = odd_prime_powers(limit)
    for chi in (-1, 1):
        mods = [(q, q - chi) for q in qs]
        for q, nq in mods:
            for p, alpha in factorize(nq).factors:
                pa = p**alpha
                for qbar, nb in mods:
                    if factorize(nb).exponent_of(p) != alpha:
                        continue
                    if (nq // pa + nb // pa) % p:
                        continue
                    sides = cross_field_sides(q, qbar, p, chi)
                    for m in range(1, max(nq, nb)):
                        mq, mb = m % nq, m % nb
                        ok_q = mq != 0 and math.gcd(mq, nq) == 1
                        ok_b = mb != 0 and math.gcd(mb, nb) == 1
                        if ok_q != ok_b:
                            continue
                        checked += 1
                        left, right = sides(m)
                        if left != right:
                            failures.append(
                                f"cross-field correspondence failed for m={m}, "
                                f"q={q}, qbar={qbar}, p={p}"
                            )
    return checked, failures


# -- reference data for q = 49 ----------------------------------------------

_REFERENCE_CLASSES_49 = {
    -1: (
        ((1,), {1: 50}),
        ((3, 13, 17, 23, 27, 33, 37, 47), {1: 2, 4: 2, 20: 2}),
        ((7, 43), {1: 2, 4: 12}),
        ((9, 19, 29, 39), {1: 2, 2: 4, 10: 4}),
        ((11, 21, 31, 41), {1: 10, 5: 8}),
        ((49,), {1: 2, 2: 24}),
    ),
    1: (
        ((1,), {1: 50}),
        ((5, 29), {1: 6, 2: 10, 4: 6}),
        ((7, 31), {1: 8, 2: 21}),
        ((11, 35), {1: 4, 2: 11, 4: 6}),
        ((13, 37), {1: 14, 2: 6, 4: 6}),
        ((17,), {1: 18, 2: 16}),
        ((19, 43), {1: 8, 2: 9, 4: 6}),
        ((23, 47), {1: 4, 2: 23}),
        ((25,), {1: 26, 2: 12}),
        ((41,), {1: 10, 2: 20}),
    ),
}

_REFERENCE_PAIRS_49_PLUS = frozenset(
    {(5, 29), (7, 31), (11, 35), (13, 37), (19, 43), (23, 47)}
)

_REFERENCE_LINES_49_MINUS = {
    4: {(13, 17), (23, 27), (33, 37)},
    6: {(17, 23), (27, 33)},
    10: {(3, 13), (9, 19), (11, 21), (13, 23), (17, 27), (19, 29), (21, 31),
         (23, 33), (27, 37), (29, 39), (31, 41), (37, 47)},
    14: {(3, 17), (13, 27), (23, 37), (33, 47)},
    16: {(17, 33)},
    20: {(3, 23), (9, 29), (11, 31), (13, 33), (17, 37), (19, 39), (21, 41),
         (27, 47)},
    24: {(3, 27), (13, 37), (23, 47)},
    30: {(3, 33), (9, 39), (11, 41), (17, 47)},
    34: {(3, 37), (13, 47)},
    36: {(7, 43)},
    44: {(3, 47)},
}

# d = 25 rows: index -> (5 does not divide, order mod 5, gcd with 25 when
# the order is 4).
_REFERENCE_D25_ROWS = (
    (5, False, None, None),
    (7, True, 4, 25),
    (9, True, 2, None),
    (11, True, 1, None),
    (15, False, None, None),
    (17, True, 4, 5),
    (19, True, 2, None),
    (21, True, 1, None),
    (25, False, None, None),
    (27, True, 4, 5),
    (29, True, 2, None),
    (31, True, 1, None),
    (35, False, None, None),
    (37, True, 4, 5),
    (39, True, 2, None),
    (41, True, 1, None),
    (45, False, None, None),
    (47, True, 4, 5),
    (49, True, 2, None),
    (1, True, 1, None),
)

_REFERENCE_D5_ROWS = ((13, 5), (23, 5), (33, 5), (43, 25))


def reference_classes_q49() -> Check:
    """Class memberships and structures over q = 49, both characters,
    against the frozen reference rows (order included)."""
    checked, failures = 0, []
    for chi, expected_rows in _REFERENCE_CLASSES_49.items():
        classes = structure_classes(49, chi)
        checked += len(expected_rows)
        got_rows = tuple(
            (cls.members, cls.structure.as_dict()) for cls in classes
        )
        if got_rows != expected_rows:
            failures.append(f"q=49 chi={chi}: class table mismatch: {got_rows}")
    return checked, failures


def reference_pairs_q49() -> Check:
    """Pair catalogs over q = 49: the six square-side pairs, the count of
    41 nonsquare-side pairs, and their grouping into lines by n - m."""
    checked, failures = 0, []
    plus = structure_pairs(49, 1)
    checked += 1
    if set(plus.pairs) != set(_REFERENCE_PAIRS_49_PLUS):
        failures.append(f"q=49 chi=+1 pairs: {plus.pairs}")
    minus = structure_pairs(49, -1)
    checked += 1
    if len(minus.pairs) != 41:
        failures.append(f"q=49 chi=-1: {len(minus.pairs)} pairs, wanted 41")
    grouped: dict[int, set] = {}
    for m, n in minus.pairs:
        grouped.setdefault((n - m) % 50, set()).add((m, n))
    checked += len(_REFERENCE_LINES_49_MINUS)
    if grouped != _REFERENCE_LINES_49_MINUS:
        failures.append(f"q=49 chi=-1 line grouping mismatch: {sorted(grouped)}")
    return checked, failures


def reference_tables_q49() -> Check:
    """Classes and pairs over q = 49 in one sweep."""
    c1, f1 = reference_classes_q49()
    c2, f2 = reference_pairs_q49()
    return c1 + c2, f1 + f2


def reference_gcd_order_tables() -> Check:
    """The gcd(n**4 - 1, 25) and order-mod-5 worksheet values behind the
    q = 49, chi = -1 classification."""
    checked, failures = 0, []
    for n, value in _REFERENCE_D5_ROWS:
        checked += 1
        if gcd_power_minus_one(n, 4, 25) != value:
            failures.append(f"gcd({n}**4 - 1, 25) != {value}")
    for n, coprime, order, gcd_value in _REFERENCE_D25_ROWS:
        checked += 1
        if (n % 5 != 0) != coprime:
            failures.append(f"coprimality of {n} with 5 misread")
            continue
        if not coprime:
            continue
        if mult_order(n, 5) != order:
            failures.append(f"order of {n} mod 5 != {order}")
        if gcd_value is not None and gcd_power_minus_one(n, 4, 25) != gcd_value:
            failures.append(f"gcd({n}**4 - 1, 25) != {gcd_value}")
    return checked, failures


def family_consistency(
    frob_cap: int = 2187, pair_cap: int = 400, oracle_cap: int = 10**4
) -> Check:
    """Every family prediction against the closed form (membership as an
    iff, and structure equality where a closed form exists), plus the
    brute-force permutation oracle for the even-power family."""
    checked, failures = 0, []

    def check_member_pair(pred, label: str) -> None:
        nonlocal checked
        n = pred.q - pred.chi
        m1, m2 = pred.pair
        coprime = math.gcd(m1, n) == 1 and math.gcd(m2, n) == 1
        truth = coprime and (
            cycle_structure(m1, pred.q, pred.chi)
            == cycle_structure(m2, pred.q, pred.chi)
        )
        checked += 1
        if pred.applicable != truth:
            failures.append(f"{label}: applicable={pred.applicable} but truth={truth}")
            return
        if pred.applicable:
            checked += 1
            if not pair_shares_structure(m1, m2, pred.q, pred.chi):
                failures.append(f"{label}: criterion route rejects the pair")
            if pred.structure is not None:
                checked += 1
                if pred.structure != cycle_structure(m1, pred.q, pred.chi):
                    failures.append(f"{label}: predicted structure wrong")

    for q in odd_prime_powers(frob_cap):
        decomposition = prime_power_decomposition(q)
        p, k = decomposition
        if k < 2:
            continue
        for chi in (-1, 1):
            for l1 in range(1, k):
                for l2 in range(l1, k):
                    pred = frobenius_family(p, k, l1, l2, chi)
                    check_member_pair(pred, f"frobenius p={p} k={k} l=({l1},{l2}) chi={chi}")

    for q in odd_prime_powers(pair_cap):
        for chi in (-1, 1):
            n = q - chi
            if n % 8 == 0:
                pred = quarter_family(q, chi)
                check_member_pair(pred, f"quarter q={q} chi={chi}")
            if q % 8 in ((chi + 2) % 8, (chi - 2) % 8):
                pred = pm2_family(q, chi)
                check_member_pair(pred, f"pm2 q={q} chi={chi}")
            p, _ = prime_power_decomposition(q)
            pred = p_qmp1_family(p, q, chi)
            check_member_pair(pred, f"p-qmp1 q={q} chi={chi}")

    for q in odd_prime_powers(oracle_cap):
        p, k = prime_power_decomposition(q)
        if k % 2 or k < 2:
            continue
        pred = p_qmp1_family(p, q, -1)
        if not pred.applicable:
            failures.append(f"p-qmp1 q={q}: even power should be applicable")
            continue
        field = field_for(q)
        a = first_with_character(field, -1)
        for m in set(pred.pair):
            checked += 1
            brute = cycle_decomposition(build_permutation(field, m, a))
            if brute != pred.structure:
                failures.append(f"p-qmp1 q={q} m={m}: table disagrees with recursion")
    return checked, failures


# -- aggregation for the CLI -------------------------------------------------

_SYMMETRY_CAP = 200


def _field_bundle(q: int) -> list[tuple[str, int, list[str]]]:
    out = [
        ("formula_vs_bruteforce", *formula_vs_bruteforce(q)),
        ("cyclic_transfer", *cyclic_transfer(q)),
        ("pair_criteria_equivalence", *pair_criteria_equivalence(q)),
        ("iterate_count_consistency", *iterate_count_consistency(q)),
        ("isolated_permutations", *isolated_permutations(q)),
    ]
    if q <= _SYMMETRY_CAP:
        out.append(("involution_divisors", *involution_divisors(q)))
        out.append(("shift_symmetries", *shift_symmetries(q)))
    return out


def run_all(qmax: int, workers: int = 1) -> list[tuple[str, int, list[str]]]:
    """Run the whole property suite for fields up to qmax; returns
    (property, checked, failures) rows in a fixed order.

    With several workers, every per-field bundle and the two whole-range
    sweeps run as tasks of one process pool, the costliest first: the
    cross-field and family sweeps, then the fields by descending q."""
    qs = odd_prime_powers(qmax)
    cross_cap = min(qmax, _SYMMETRY_CAP)
    family_caps = {
        "frob_cap": min(2187, max(qmax, 27)),
        "pair_cap": qmax,
        "oracle_cap": qmax,
    }
    if workers > 1:
        # Imported here: the pool brings in multiprocessing, the costliest
        # import of the package, and only a parallel run needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cross = pool.submit(cross_field_correspondence, cross_cap)
            family = pool.submit(family_consistency, **family_caps)
            pending = {q: pool.submit(_field_bundle, q) for q in reversed(qs)}
            bundles = [pending[q].result() for q in qs]
            cross_row, family_row = cross.result(), family.result()
    else:
        bundles = [_field_bundle(q) for q in qs]
        cross_row = cross_field_correspondence(cross_cap)
        family_row = family_consistency(**family_caps)
    order: list[str] = []
    merged: dict[str, tuple[int, list[str]]] = {}
    for bundle in bundles:
        for name, checked, failures in bundle:
            if name not in merged:
                order.append(name)
                merged[name] = (0, [])
            have_checked, have_failures = merged[name]
            merged[name] = (have_checked + checked, have_failures + failures)
    rows = [(name, *merged[name]) for name in order]
    if qmax >= 49:
        rows.append(("reference_tables_q49", *reference_tables_q49()))
        rows.append(("reference_gcd_order_tables", *reference_gcd_order_tables()))
    rows.append(("cross_field_correspondence", *cross_row))
    rows.append(("families", *family_row))
    return rows
