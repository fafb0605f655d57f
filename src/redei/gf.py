"""Finite fields F_{p**k} for odd p, with a deterministic modulus choice,
quadratic characters, and the projective line (all field elements plus a
single point at infinity).

At the edges (`element`, `index`, `parse_element`, `element_str`) an
element is a length-k tuple of residues mod p, constant term first.
Enumeration order is odometer order with the constant term varying fastest,
so element i has the base-p digits of i as coefficients.  That order is
fixed: canonical representatives and golden outputs depend on it.

Inside the arithmetic kernel an element is one Python int (Kronecker
substitution): coefficient i sits in bits [B*i, B*(i + 1)), with the slot
width B wide enough that sums of two products of reduced elements never
carry from one slot into the next.  A product is then one big-int multiply
followed by `Field.reduce`, which folds the slots of degree k and above
back with the packed reduction rows and takes every remaining slot mod p;
for a prime field it is a bare `w % p`.  `mul`, `pow` and `inv` run on this
kernel and convert at their boundary, and the oracles in `maps` stay in
packed form throughout.
"""

from __future__ import annotations

import itertools

from .numthy import is_prime

__all__ = [
    "Field",
    "Infinity",
    "INFINITY",
    "build_field",
    "quadratic_character",
    "first_with_character",
    "element_str",
    "point_str",
    "parse_element",
]

ENUMERATION_CAP = 10**6

Element = tuple


class Infinity:
    """The extra projective point; a singleton, never a field element."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = Infinity()


# -- polynomial helpers over Z_p (dense lists, constant term first) --------


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    # g must be monic
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and any(f):
        _poly_trim(f)
        if len(f) - 1 < dg:
            break
        coef = f[-1]
        shift = len(f) - 1 - dg
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - coef * gi) % p
        _poly_trim(f)
    return f


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, mod, p)


def _poly_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    b = _poly_mod(list(base), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, b, mod, p)
        e >>= 1
        if e:
            b = _poly_mulmod(b, b, mod, p)
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic_b = [c * inv_lead % p for c in b]
        a, b = b, _poly_trim(_poly_mod(a, monic_b, p))
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    # A monic degree-k polynomial over Z_p is irreducible iff it shares no
    # factor with x**(p**i) - x for any i <= k / 2.
    k = len(f) - 1
    if k == 1:
        return True
    t = [0, 1]
    for _ in range(k // 2):
        t = _poly_powmod(t, p, f, p)
        diff = list(t)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


# -- the packed kernel -------------------------------------------------------


def _packed_reduce(p: int, k: int, bits: int, fold_rows: tuple[int, ...]):
    """The reduction map of F_{p**k} on packed elements with slot width
    `bits`, where fold_rows[j] is x**(k + j) mod the modulus, packed.

    The map takes a nonnegative packed polynomial of degree at most 2k - 2
    whose slots stay within the slot width (a sum of at most two products
    of reduced elements, plus a reduced element) to the reduced packed
    element congruent to it: each slot of degree k and above is taken mod p
    and folded back with its row, then every low slot is taken mod p.  It
    is a closure over the field's constants, which keeps the calls cheap.
    """
    if k == 1:
        def reduce(w: int) -> int:
            return w % p

        return reduce
    mask = (1 << bits) - 1
    high_shift = bits * k
    low_mask = (1 << high_shift) - 1
    shifts = tuple(bits * i for i in range(k))

    def reduce(w: int) -> int:
        high = w >> high_shift
        w &= low_mask
        for row in fold_rows:
            if not high:
                break
            w += (high & mask) % p * row
            high >>= bits
        out = 0
        for s in shifts:
            out |= (w >> s & mask) % p << s
        return out

    return reduce


# -- the field itself -------------------------------------------------------


class Field:
    """Arithmetic context for F_{p**k}.

    Immutable once built; the lazily built point list only memoizes
    values, so instances are safe to share across threads.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k > 1 and not _is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over Z_{p}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        # Slot width for packed elements: every slot `reduce` meets stays
        # below 3*k*p**2 (two products of reduced elements plus the folded
        # high slots), so no carry ever crosses into the next slot.
        self._bits = (3 * k * p * p).bit_length()
        self._mask = (1 << self._bits) - 1
        self._shifts = tuple(self._bits * i for i in range(k))
        fold_rows = tuple(self.pack(row) for row in self._build_reduction_rows())
        self.reduce = _packed_reduce(p, k, self._bits, fold_rows)
        self._points: list | None = None

    def _build_reduction_rows(self) -> tuple[tuple[int, ...], ...]:
        # Row j holds the coefficients of x**(k+j) reduced mod the modulus.
        p, k = self.p, self.k
        if k == 1:
            return ()
        rows = []
        cur = [(-self.modulus[i]) % p for i in range(k)]
        rows.append(tuple(cur))
        for _ in range(k - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                base = rows[0]
                cur = [(c + top * b) % p for c, b in zip(cur, base)]
            rows.append(tuple(cur))
        return tuple(rows)

    def __repr__(self) -> str:
        return f"Field(p={self.p}, k={self.k})"

    def __reduce__(self):
        # `reduce` is a closure; rebuild the field from its definition.
        return (Field, (self.p, self.k, self.modulus))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    # element enumeration

    def element(self, i: int) -> tuple:
        """Element number i: base-p digits of i, constant term first."""
        if not 0 <= i < self.q:
            raise ValueError(f"element index {i} out of range for q={self.q}")
        p = self.p
        digits = []
        for _ in range(self.k):
            digits.append(i % p)
            i //= p
        return tuple(digits)

    def index(self, el: tuple) -> int:
        out = 0
        for c in reversed(el):
            out = out * self.p + c
        return out

    def elements(self):
        return (self.element(i) for i in range(self.q))

    def projective_points(self) -> list:
        """All q + 1 points in enumeration order, INFINITY last.  The list
        is cached and shared; treat it as read-only."""
        if self._points is None:
            self._points = [self.element(i) for i in range(self.q)] + [INFINITY]
        return self._points

    # arithmetic

    def add(self, u: tuple, v: tuple) -> tuple:
        p = self.p
        return tuple((a + b) % p for a, b in zip(u, v))

    def sub(self, u: tuple, v: tuple) -> tuple:
        p = self.p
        return tuple((a - b) % p for a, b in zip(u, v))

    def neg(self, u: tuple) -> tuple:
        p = self.p
        return tuple(-a % p for a in u)

    def mul(self, u: tuple, v: tuple) -> tuple:
        return self.unpack(self.reduce(self.pack(u) * self.pack(v)))

    def inv(self, u: tuple) -> tuple:
        return self.unpack(self.inv_packed(self.pack(u)))

    def pow(self, u: tuple, e: int) -> tuple:
        return self.unpack(self.pow_packed(self.pack(u), e))

    # the packed kernel

    def pack(self, el) -> int:
        """Packed form of a coefficient sequence, constant term first.
        Coefficients are taken mod p, so any integers are accepted."""
        p = self.p
        return sum(c % p << s for c, s in zip(el, self._shifts))

    def unpack(self, w: int) -> tuple:
        """Tuple form of a reduced packed element."""
        mask = self._mask
        return tuple(w >> s & mask for s in self._shifts)

    def packed_elements(self) -> list[int]:
        """Packed form of every element, in enumeration order."""
        out = [0]
        for s in self._shifts:
            out = [w | c << s for c in range(self.p) for w in out]
        return out

    def pow_packed(self, w: int, e: int) -> int:
        """w**e on a reduced packed element, by square-and-multiply."""
        if e < 0:
            raise ValueError("negative exponents not supported; invert first")
        if self.k == 1:
            return pow(w, e, self.p)
        reduce = self.reduce
        result = 1
        while e:
            if e & 1:
                result = reduce(result * w)
            e >>= 1
            if e:
                w = reduce(w * w)
        return result

    def inv_packed(self, w: int) -> int:
        if not w:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow_packed(w, self.q - 2)

    def json_obj(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


def build_field(p: int, k: int) -> Field:
    """Deterministically construct F_{p**k} for an odd prime p.

    The modulus is the lexicographically smallest monic irreducible
    polynomial of degree k, comparing coefficient vectors (c_0, ..., c_{k-1})
    with c_0 most significant.  For k == 1 the modulus degenerates to x.
    Reproducible bit-for-bit across runs.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if p**k > ENUMERATION_CAP:
        raise ValueError(f"field too large to enumerate: {p}**{k} > 10**6")
    if k == 1:
        return Field(p, 1, (0, 1))
    for tail in itertools.product(range(p), repeat=k):
        coeffs = tail + (1,)
        if _is_irreducible(list(coeffs), p):
            return Field(p, k, coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def quadratic_character(field: Field, a: tuple) -> int:
    """+1 if a is a nonzero square in the field, -1 otherwise."""
    if a == field.zero:
        raise ValueError("character of 0 is undefined")
    return 1 if field.pow(a, (field.q - 1) // 2) == field.one else -1


def first_with_character(field: Field, chi: int) -> tuple:
    """First nonzero element, in enumeration order, with the given
    quadratic character."""
    if chi not in (-1, 1):
        raise ValueError(f"chi must be -1 or +1, got {chi}")
    for i in range(1, field.q):
        el = field.element(i)
        if quadratic_character(field, el) == chi:
            return el
    raise AssertionError("both characters occur in any odd-order field")


# -- canonical serialization -------------------------------------------------


def element_str(el: tuple) -> str:
    """Colon-separated residues, constant term first."""
    return ":".join(str(c) for c in el)


def point_str(pt) -> str:
    return "inf" if pt is INFINITY else element_str(pt)


def parse_element(field: Field, text: str) -> tuple:
    """Inverse of element_str; accepts a bare residue for prime fields."""
    parts = text.split(":")
    if len(parts) != field.k:
        raise ValueError(
            f"expected {field.k} colon-separated residues, got {text!r}"
        )
    try:
        coeffs = tuple(int(c) for c in parts)
    except ValueError as exc:
        raise ValueError(f"bad element {text!r}") from exc
    if not all(0 <= c < field.p for c in coeffs):
        raise ValueError(f"residues in {text!r} out of range for p={field.p}")
    return coeffs
