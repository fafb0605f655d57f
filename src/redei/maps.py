"""Redei maps evaluated point by point on the projective line, explicit
permutation tables with brute-force cycle decomposition, and the two
isomorphic cyclic-group oracles (x -> m*x on Z_n, x -> x**m on cyclic
subgroups of a field).

These are the slow-but-independent routes that the closed-form results in
`cyclestruct` are checked against; nothing here consults a closed form.
All field arithmetic runs on packed elements (see `gf`).

`build_permutation` and `power_map_structure` build one table for one
index.  `redei_structures` and `power_map_structures` build the tables of
every valid index of a field in one pass: they walk each point once and
step forward in m, at one quadratic-ring (or field) multiply per (m, x)
instead of O(log m) of them.  Stepping is plain field arithmetic, so the
batch tables are computed exactly as the single-index ones are, from the
definition of the map; no discrete logarithm and no cycle formula is ever
read, and the routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclestruct import CycleStructure
from .gf import INFINITY, Field, build_field, point_str, quadratic_character
from .numthy import factorize

__all__ = [
    "NotAPermutation",
    "PermutationTable",
    "redei_eval",
    "build_permutation",
    "redei_structures",
    "cycle_decomposition",
    "mult_map_structure",
    "power_map_structure",
    "power_map_structures",
]


class NotAPermutation(ValueError):
    """The requested index does not induce a bijection."""


def _quad_pow(field: Field, x: int, a: int, m: int) -> tuple[int, int]:
    # (x + s)**m in F_q[s] / (s**2 - a) on packed elements,
    # square-and-multiply.  ad = a*bd keeps every reduce input a sum of
    # two products.
    reduce = field.reduce
    rn, rd = 1, 0
    bn, bd, ad = x, 1, a
    e = m
    while True:
        if e & 1:
            rn, rd = reduce(rn * bn + rd * ad), reduce(rn * bd + rd * bn)
        e >>= 1
        if not e:
            return rn, rd
        bn, bd = reduce(bn * bn + bd * ad), reduce(2 * bn * bd)
        ad = reduce(a * bd)


def redei_eval(field: Field, m: int, a: tuple, x):
    """Evaluate the index-m Redei map with parameter a at a projective
    point.

    Expands (x + s)**m in the quadratic ring F_q[s]/(s**2 - a) to N + D*s
    and returns N/D, or INFINITY when D vanishes or x is INFINITY.  Works
    identically whether or not a is a square: no square root is ever taken.
    """
    if m < 1:
        raise ValueError(f"index must be >= 1, got {m}")
    if a == field.zero:
        raise ValueError("parameter a must be nonzero")
    if x is INFINITY:
        return INFINITY
    num, den = _quad_pow(field, field.pack(x), field.pack(a), m)
    if not den:
        return INFINITY
    return field.unpack(field.reduce(num * field.inv_packed(den)))


@dataclass
class PermutationTable:
    """Explicit permutation of the projective line.

    `points` lists all q + 1 points in enumeration order with INFINITY
    last (shared with the field's cache; read-only), and `image[i]` is the
    index of the image of `points[i]`.
    """

    field: Field
    points: list
    image: list[int]

    def to_csv(self) -> str:
        lines = ["point,image"]
        for pt, j in zip(self.points, self.image):
            lines.append(f"{point_str(pt)},{point_str(self.points[j])}")
        return "\n".join(lines) + "\n"


def build_permutation(field: Field, m: int, a: tuple) -> PermutationTable:
    """Evaluate the Redei map at every point of the projective line.

    Raises NotAPermutation when gcd(m, q - chi(a)) != 1, and also if the
    resulting table somehow fails to be a bijection (which would mean a
    bug, since coprimality is exactly the permutation criterion).
    """
    if m < 1:
        raise ValueError(f"index must be >= 1, got {m}")
    q = field.q
    chi = quadratic_character(field, a)
    if math.gcd(m, q - chi) != 1:
        raise NotAPermutation(
            f"gcd({m}, {q - chi}) != 1: index {m} does not permute"
        )
    packed = field.packed_elements()
    index_of = {w: i for i, w in enumerate(packed)}
    reduce, inverse, pa = field.reduce, field.inv_packed, field.pack(a)
    image = [q] * (q + 1)
    for i, x in enumerate(packed):
        num, den = _quad_pow(field, x, pa, m)
        if den:
            image[i] = index_of[reduce(num * inverse(den))]
    _require_bijection(image)
    return PermutationTable(field, field.projective_points(), image)


def _redei_images(field: Field, a: tuple) -> dict[int, list[int]]:
    # Image lists of every permuting index m in [1, q - chi), in one pass:
    # for each point x, (N, D) = (x + s)**m steps to (x + s)**(m + 1) as
    # (N*x + a*D, N + D*x), and at every permuting m the image N/D goes
    # into that index's list.  The lists hold phi(q - chi) * (q + 1) ints.
    q = field.q
    n = q - quadratic_character(field, a)
    packed = field.packed_elements()
    index_of = {w: i for i, w in enumerate(packed)}
    inverse = {w: field.inv_packed(w) for w in packed if w}
    reduce, pa = field.reduce, field.pack(a)
    rows = [[q] * (q + 1) if math.gcd(m, n) == 1 else None for m in range(1, n)]
    for i, x in enumerate(packed):
        num, den = x, 1
        for row in rows:
            if row is not None and den:
                row[i] = index_of[reduce(num * inverse[den])]
            num, den = reduce(num * x + pa * den), reduce(num + den * x)
    return {m: row for m, row in enumerate(rows, 1) if row is not None}


def redei_structures(field: Field, a: tuple) -> dict[int, CycleStructure]:
    """Cycle structure of the Redei permutation of every index m in
    [1, q - chi) coprime to q - chi, from explicit tables built in one
    pass over the projective line (see `build_permutation`)."""
    out = {}
    for m, image in _redei_images(field, a).items():
        _require_bijection(image)
        out[m] = _structure_from_images(image)
    return out


def _require_bijection(image: list[int]) -> None:
    seen = bytearray(len(image))
    for j in image:
        if seen[j]:
            raise NotAPermutation("image collision: table is not a bijection")
        seen[j] = 1


def _structure_from_images(image: list[int]) -> CycleStructure:
    # Visited-marking orbit walk.
    n = len(image)
    seen = bytearray(n)
    counts: dict[int, int] = {}
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            cur = image[cur]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return CycleStructure.from_counts(counts)


def cycle_decomposition(table: PermutationTable) -> CycleStructure:
    """Disjoint-cycle multiset of an explicit permutation table."""
    return _structure_from_images(table.image)


def mult_map_structure(m: int, n: int) -> CycleStructure:
    """Cycle structure of x -> m*x on Z_n by direct orbit walk.

    >>> mult_map_structure(3, 8).as_dict()
    {1: 2, 2: 3}
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1: multiplication is not a bijection")
    m %= n
    return _structure_from_images([m * x % n for x in range(n)])


_NORM_ONE_CACHE: dict[tuple[int, int], tuple[Field, list[int]]] = {}


def _norm_one_subgroup(field: Field) -> tuple[Field, list[int]]:
    # The cyclic subgroup of order q + 1 inside F_{q**2}, realized inside a
    # degree-2k extension of Z_p and returned as packed members.  Generated
    # from the first element whose (q - 1)-th power has full order q + 1;
    # every member satisfies x**(q + 1) == 1, and the cardinality check
    # pins the subgroup exactly.
    key = (field.p, field.k)
    cached = _NORM_ONE_CACHE.get(key)
    if cached is not None:
        return cached
    q = field.q
    ext = build_field(field.p, 2 * field.k)
    order = q + 1
    prime_divs = factorize(order).primes()
    power = ext.pow_packed
    gen = None
    for i in range(1, ext.q):
        cand = power(ext.pack(ext.element(i)), q - 1)
        if cand == 1:
            continue
        if power(cand, order) != 1:
            raise AssertionError("norm map left the order-(q+1) subgroup")
        if all(power(cand, order // r) != 1 for r in prime_divs):
            gen = cand
            break
    if gen is None:
        raise AssertionError("cyclic subgroup has a generator")
    members = [1]
    cur = gen
    while cur != 1:
        members.append(cur)
        cur = ext.reduce(cur * gen)
    if len(members) != order or len(set(members)) != order:
        raise AssertionError("subgroup construction produced a wrong count")
    _NORM_ONE_CACHE[key] = (ext, members)
    return ext, members


def _cyclic_group(field: Field, subgroup: str) -> tuple[Field, list[int]]:
    # The field holding the group, and the group's packed members.
    if subgroup == "units":
        return field, field.packed_elements()[1:]
    if subgroup == "norm_one":
        return _norm_one_subgroup(field)
    raise ValueError(f"unknown subgroup {subgroup!r}")


def _power_map_image(field: Field, m: int, subgroup: str) -> list[int]:
    group_field, members = _cyclic_group(field, subgroup)
    order = len(members)
    if math.gcd(m, order) != 1:
        raise ValueError(f"gcd({m}, {order}) != 1: power map is not a bijection")
    exponent = m % order
    index_of = {w: i for i, w in enumerate(members)}
    power = group_field.pow_packed
    return [index_of[power(w, exponent)] for w in members]


def power_map_structure(field: Field, m: int, subgroup: str) -> CycleStructure:
    """Cycle structure of x -> x**m on a cyclic group attached to the
    field, by direct orbit walk.

    subgroup "units" walks the multiplicative group of the field itself
    (order q - 1); "norm_one" walks the subgroup of order q + 1 inside the
    quadratic extension.
    """
    return _structure_from_images(_power_map_image(field, m, subgroup))


def _power_map_images(field: Field, subgroup: str) -> dict[int, list[int]]:
    # Image lists of x -> x**m for every m in [1, order) coprime to the
    # group order, in one pass: each member y is multiplied up through
    # y, y**2, y**3, ... and every permuting power is recorded.
    group_field, members = _cyclic_group(field, subgroup)
    order = len(members)
    index_of = {w: i for i, w in enumerate(members)}
    reduce = group_field.reduce
    rows = [[0] * order if math.gcd(m, order) == 1 else None for m in range(1, order)]
    for i, y in enumerate(members):
        z = y
        for row in rows:
            if row is not None:
                row[i] = index_of[z]
            z = reduce(z * y)
    return {m: row for m, row in enumerate(rows, 1) if row is not None}


def power_map_structures(field: Field, subgroup: str) -> dict[int, CycleStructure]:
    """Cycle structure of x -> x**m for every m in [1, order) coprime to
    the group order, from tables built in one pass over the group (see
    `power_map_structure`)."""
    return {
        m: _structure_from_images(image)
        for m, image in _power_map_images(field, subgroup).items()
    }
