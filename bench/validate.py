"""Output validators for the benchmark, sharing no code with `redei`.

Each validator takes the text a CLI request printed and the request's own
parameters, and raises `Invalid` when the reply is wrong.  The arithmetic
here uses `math.gcd`, `pow` and trial division only, so a bug in the
library's number theory cannot make a wrong reply look right.

The structure check rests on one identity: the r-th iterate of the index-m
Redei permutation with character chi fixes exactly
gcd(m**r - 1 mod n, n) + chi + 1 points, where n = q - chi, and those are
the points on cycles whose length divides r.  Checking it at r = 1, at every
reported length L and at L/p for the small primes p dividing L, and
checking the total mass, catches a cycle moved from one length to another.
"""

from __future__ import annotations

import json
import math

__all__ = [
    "Invalid",
    "trial_factor",
    "check_structure",
    "check_structure_reply",
    "check_family_reply",
    "parse_classes",
    "check_classes",
    "expected_isolated_count",
    "check_isolated",
    "check_pairs",
    "check_oracle",
]

_SMALL_PRIME_LIMIT = 10_000


class Invalid(Exception):
    """A reply that the validators reject."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Invalid(message)


def trial_factor(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _probe_points(length: int) -> set[int]:
    # length, and length / p for every small prime p dividing it; a cofactor
    # left after the small primes is used whole (the identity holds at every
    # r >= 1, so any divisor is a sound probe).
    points = {length}
    rest = length
    f = 2
    while f <= _SMALL_PRIME_LIMIT and f * f <= rest:
        if rest % f == 0:
            points.add(length // f)
            while rest % f == 0:
                rest //= f
        f += 1 if f == 2 else 2
    if rest > 1:
        points.add(length // rest)
    return points


def _probes(counts: dict[int, int], q: int, chi: int) -> list[tuple[int, int]]:
    """(r, points fixed by the r-th iterate) implied by a structure, for r
    = 1 and every probe point of every reported length; checks the entries
    and the total mass on the way."""
    _require(bool(counts), "empty structure")
    for length, mult in counts.items():
        _require(length >= 1 and mult >= 1, f"bad entry {length}: {mult}")
    mass = sum(length * mult for length, mult in counts.items())
    _require(mass == q + 1, f"mass {mass} != q + 1 = {q + 1}")
    points = {1}
    for length in counts:
        points |= _probe_points(length)
    items = sorted(counts.items())
    return [
        (r, sum(ln * mult for ln, mult in items if r % ln == 0))
        for r in sorted(points)
    ]


def _check_probes(probes: list[tuple[int, int]], m: int, q: int, chi: int) -> None:
    n = q - chi
    for r, seen in probes:
        expected = math.gcd((pow(m, r, n) - 1) % n, n) + chi + 1
        _require(
            seen == expected,
            f"m={m}, iterate {r}: structure gives {seen} fixed points, gcd gives {expected}",
        )


def check_structure(counts: dict[int, int], m: int, q: int, chi: int) -> None:
    """Validate a cycle structure {length: multiplicity} of the index-m
    permutation over q with character chi."""
    _check_probes(_probes(counts, q, chi), m, q, chi)


def _int_counts(obj: dict) -> dict[int, int]:
    return {int(length): int(mult) for length, mult in obj.items()}


def check_structure_reply(text: str, m: int, q: int, chi: int, verify: bool) -> int:
    """Validate `structure --format json` output; returns 1, the number of
    structures confirmed."""
    obj = json.loads(text)
    if verify:
        _require(obj.get("oracle") == "agree", f"oracle said {obj.get('oracle')!r}")
        obj = obj["structure"]
    check_structure(_int_counts(obj), m, q, chi)
    return 1


def check_family_reply(text: str, family: str, p: int, q: int, chi: int) -> int:
    """Validate `family p-qmp1|quarter --format json` output: the pair is
    the family's pair, and both coordinates have the predicted structure.
    Returns 2, the number of structures confirmed."""
    obj = json.loads(text)
    n = q - chi
    if family == "p-qmp1":
        pair = (p % n, (q - p + 1) % n)
    elif family == "quarter":
        pair = (n // 4 + 1, 3 * n // 4 + 1)
    else:
        raise ValueError(f"no validator for family {family!r}")
    _require(obj["family"] == family and int(obj["q"]) == q and obj["chi"] == chi,
             "family header mismatch")
    _require(obj["applicable"] is True, f"not applicable: {obj.get('reason')}")
    _require(tuple(int(v) for v in obj["pair"]) == pair, f"pair {obj['pair']} != {pair}")
    _require(obj["structure"] is not None, "no predicted structure")
    counts = _int_counts(obj["structure"])
    for m in pair:
        check_structure(counts, m, q, chi)
    return len(pair)


def _parse_structure_text(text: str) -> dict[int, int]:
    # "{1: 2, 4: 2, 20: 2}"
    inner = text.strip()
    _require(inner.startswith("{") and inner.endswith("}"), f"bad structure {text!r}")
    out = {}
    for part in inner[1:-1].split(","):
        length, mult = part.split(":")
        out[int(length)] = int(mult)
    return out


def parse_classes(text: str, fmt: str) -> list[tuple[tuple[int, ...], dict[int, int]]]:
    """Classes reply as (members, structure) rows, in reply order."""
    if fmt == "json":
        obj = json.loads(text)
        return [
            (tuple(row["members"]), _int_counts(row["structure"]))
            for row in obj["classes"]
        ]
    lines = text.splitlines()
    _require(lines and lines[0] == "members,structure", "bad classes CSV header")
    rows = []
    for line in lines[1:]:
        members, structure = line.split(",", 1)
        rows.append(
            (tuple(int(v) for v in members.split(";")), _parse_structure_text(structure))
        )
    return rows


def check_classes(
    rows: list[tuple[tuple[int, ...], dict[int, int]]], q: int, chi: int
) -> int:
    """The classes partition exactly the indices coprime to n, carry
    distinct structures, and each class's structure holds for every one of
    its members.  Returns the number of indices checked."""
    n = q - chi
    seen = bytearray(n)
    structures = set()
    previous_first = 0
    for members, counts in rows:
        _require(bool(members), "empty class")
        _require(list(members) == sorted(set(members)), f"members not ascending: {members[:5]}")
        _require(members[0] > previous_first, "classes not ordered by smallest member")
        previous_first = members[0]
        for m in members:
            _require(1 <= m < n and math.gcd(m, n) == 1, f"index {m} does not permute")
            _require(not seen[m], f"index {m} in two classes")
            seen[m] = 1
        key = tuple(sorted(counts.items()))
        _require(key not in structures, f"two classes share structure {key}")
        structures.add(key)
        probes = _probes(counts, q, chi)
        for m in members:
            _check_probes(probes, m, q, chi)
    missing = [m for m in range(1, n) if math.gcd(m, n) == 1 and not seen[m]]
    _require(not missing, f"indices in no class: {missing[:5]}")
    return int(sum(seen))


def expected_isolated_count(q: int, chi: int) -> int:
    """2**r when 2 exactly divides q - chi, else 2**(r + 1), with r the
    number of odd primes dividing q - chi."""
    factors = trial_factor(q - chi)
    odd = sum(1 for p in factors if p != 2)
    return 2**odd if factors.get(2, 0) == 1 else 2 ** (odd + 1)


def check_isolated(
    text: str, fmt: str, q: int, chi: int, classes=None
) -> int:
    """Isolated count against the closed form from trial division; each
    isolated index is an involution; when the field's validated classes are
    at hand, the isolated indices are exactly its one-member classes."""
    n = q - chi
    if fmt == "json":
        obj = json.loads(text)
        values = list(obj["isolated"])
        _require(
            obj["count_formula"] == expected_isolated_count(q, chi),
            f"count_formula {obj['count_formula']} wrong",
        )
    else:
        lines = text.splitlines()
        _require(lines and lines[0] == "m", "bad isolated CSV header")
        values = [int(v) for v in lines[1:]]
    expected = expected_isolated_count(q, chi)
    _require(len(values) == expected, f"{len(values)} isolated, expected {expected}")
    for m in values:
        _require(m * m % n == 1, f"isolated index {m} is not an involution")
    if classes is not None:
        singles = sorted(members[0] for members, _ in classes if len(members) == 1)
        _require(sorted(values) == singles, "isolated set differs from one-member classes")
    return len(values)


def check_pairs(text: str, fmt: str, q: int, chi: int, classes) -> int:
    """Pairs are sorted, 1 < m < n < q - chi, carry the right offset, lie in
    one validated class, and number sum C(s, 2) over the classes without the
    identity index."""
    modulus = q - chi
    if fmt == "json":
        rows = [tuple(row) for row in json.loads(text)["pairs"]]
    else:
        lines = text.splitlines()
        _require(lines and lines[0] == "m,n,line_offset", "bad pairs CSV header")
        rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    class_of = {}
    expected = 0
    for i, (members, _) in enumerate(classes):
        inner = [m for m in members if m > 1]
        expected += len(inner) * (len(inner) - 1) // 2
        for m in inner:
            class_of[m] = i
    _require(len(rows) == expected, f"{len(rows)} pairs, expected {expected}")
    previous = (0, 0)
    for m, n, offset in rows:
        _require(1 < m < n < modulus, f"pair ({m}, {n}) out of range")
        _require((m, n) > previous, "pairs not strictly ascending")
        previous = (m, n)
        _require(offset == (n - m) % modulus, f"pair ({m}, {n}) has offset {offset}")
        _require(class_of.get(m, -1) == class_of.get(n, -2), f"({m}, {n}) spans two classes")
    return len(rows)


def check_oracle(text: str, expected: dict[str, int]) -> int:
    """`verify` output reports exactly the reference properties, each with
    exactly the reference number of checks, all passing, and ends with
    `all properties hold`.  Returns the total number of reference checks."""
    lines = text.strip().splitlines()
    _require(bool(lines) and lines[-1] == "all properties hold", "no 'all properties hold' line")
    counts = {}
    for line in lines[:-1]:
        name, rest = line.split(": ", 1)
        fields = rest.split()
        _require(fields[0].startswith("checked=") and fields[1:] == ["ok"], f"bad row {line!r}")
        _require(name not in counts, f"property {name} reported twice")
        counts[name] = int(fields[0][len("checked="):])
    extra = sorted(set(counts) - set(expected))
    _require(not extra, f"properties not in the reference: {extra}")
    for name, want in expected.items():
        _require(name in counts, f"property {name} missing")
        _require(counts[name] == want, f"{name}: {counts[name]} checks, reference {want}")
    return sum(expected.values())
