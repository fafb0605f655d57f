import itertools
import json
import random

import pytest

from redei.gf import (
    INFINITY,
    _poly_mulmod,
    _poly_powmod,
    build_field,
    element_str,
    first_with_character,
    parse_element,
    point_str,
    quadratic_character,
)


def brute_force_irreducible(coeffs, p):
    """Oracle: trial-divide by every smaller-degree monic polynomial."""

    def poly_mod(f, g):
        f = list(f)
        while len(f) >= len(g) and any(f):
            while f and f[-1] == 0:
                f.pop()
            if len(f) < len(g):
                break
            c = f[-1]
            shift = len(f) - len(g)
            for i, gi in enumerate(g):
                f[shift + i] = (f[shift + i] - c * gi) % p
            while f and f[-1] == 0:
                f.pop()
        return f

    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not poly_mod(coeffs, g):
                return False
    return True


def smallest_irreducible(p, k):
    for tail in itertools.product(range(p), repeat=k):
        coeffs = list(tail) + [1]
        if brute_force_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError


def test_prime_field_modulus_is_x():
    field = build_field(7, 1)
    assert (field.p, field.k, field.q) == (7, 1, 7)
    assert field.modulus == (0, 1)


@pytest.mark.parametrize("p,k", [(7, 2), (3, 4), (3, 3), (5, 2), (11, 2)])
def test_modulus_is_smallest_irreducible(p, k):
    field = build_field(p, k)
    assert field.modulus == smallest_irreducible(p, k)


def test_build_field_reproducible():
    a, b = build_field(3, 4), build_field(3, 4)
    assert a == b and a.modulus == b.modulus


def test_build_field_rejects_bad_input():
    with pytest.raises(ValueError):
        build_field(2, 3)
    with pytest.raises(ValueError):
        build_field(9, 1)
    with pytest.raises(ValueError):
        build_field(3, 0)
    with pytest.raises(ValueError):
        build_field(101, 3)  # beyond the enumeration cap


def test_element_enumeration_odometer_order():
    field = build_field(3, 2)
    order = [field.element(i) for i in range(9)]
    assert order[:4] == [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert [field.index(el) for el in order] == list(range(9))


def test_prime_field_inverse():
    field = build_field(7, 1)
    assert field.inv((3,)) == (5,)
    assert field.mul((3,), (5,)) == field.one


def test_inverses_exhaustive_f49():
    field = build_field(7, 2)
    for i in range(1, 49):
        x = field.element(i)
        assert field.mul(x, field.inv(x)) == field.one
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2), (3, 3)])
def test_ring_axioms_sampled(p, k):
    field = build_field(p, k)
    sample = [field.element(i) for i in range(0, field.q, max(1, field.q // 11))]
    for x in sample:
        for y in sample:
            assert field.add(x, y) == field.add(y, x)
            assert field.mul(x, y) == field.mul(y, x)
            assert field.sub(field.add(x, y), y) == x
            for z in sample[:4]:
                left = field.mul(x, field.add(y, z))
                right = field.add(field.mul(x, y), field.mul(x, z))
                assert left == right


@pytest.mark.parametrize("p,k", [(7, 1), (3, 4), (7, 2)])
def test_lagrange_and_frobenius(p, k):
    field = build_field(p, k)
    for i in range(1, field.q, max(1, field.q // 13)):
        x = field.element(i)
        assert field.pow(x, field.q - 1) == field.one
    for i in range(0, field.q, max(1, field.q // 9)):
        for j in range(0, field.q, max(1, field.q // 9)):
            x, y = field.element(i), field.element(j)
            lhs = field.pow(field.add(x, y), p)
            rhs = field.add(field.pow(x, p), field.pow(y, p))
            assert lhs == rhs


def test_quadratic_character_mod7():
    field = build_field(7, 1)
    squares = {field.mul((x,), (x,)) for x in range(1, 7)}
    assert squares == {(1,), (2,), (4,)}
    assert quadratic_character(field, (1,)) == 1
    assert quadratic_character(field, (4,)) == 1
    assert quadratic_character(field, (3,)) == -1
    with pytest.raises(ValueError):
        quadratic_character(field, field.zero)


@pytest.mark.parametrize("p,k", [(7, 1), (7, 2), (3, 4), (13, 1)])
def test_character_counts_balance(p, k):
    field = build_field(p, k)
    values = [quadratic_character(field, field.element(i)) for i in range(1, field.q)]
    assert values.count(1) == values.count(-1) == (field.q - 1) // 2


def test_first_with_character():
    field = build_field(7, 1)
    assert first_with_character(field, 1) == (1,)
    assert first_with_character(field, -1) == (3,)
    ext = build_field(7, 2)
    scan = next(
        ext.element(i)
        for i in range(1, 49)
        if quadratic_character(ext, ext.element(i)) == -1
    )
    assert first_with_character(ext, -1) == scan
    with pytest.raises(ValueError):
        first_with_character(field, 0)


def test_serialization_round_trip():
    field = build_field(7, 2)
    el = field.element(38)
    assert parse_element(field, element_str(el)) == el
    assert element_str((3, 5)) == "3:5"
    assert point_str(INFINITY) == "inf"
    assert point_str((3,)) == "3"
    with pytest.raises(ValueError):
        parse_element(field, "9:1")
    with pytest.raises(ValueError):
        parse_element(field, "1")


def test_field_json_header():
    field = build_field(7, 2)
    obj = field.json_obj()
    assert json.dumps(obj)  # serializable
    assert obj == {"p": 7, "k": 2, "modulus": [1, 0, 1]}


def test_infinity_is_singleton():
    assert INFINITY is type(INFINITY)()
    assert repr(INFINITY) == "inf"


def _as_element(coeffs, k):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs + [0] * (k - len(coeffs)))


@pytest.mark.parametrize("p,k", [(3, 8), (5, 6), (11, 4), (149, 2), (997, 1)])
def test_packed_kernel_matches_polynomial_arithmetic(p, k):
    field = build_field(p, k)
    modulus = list(field.modulus)
    rng = random.Random(p * 100 + k)
    for _ in range(200):
        u = tuple(rng.randrange(p) for _ in range(k))
        v = tuple(rng.randrange(p) for _ in range(k))
        e = rng.randrange(2 * field.q)
        pu, pv = field.pack(u), field.pack(v)
        assert field.unpack(pu) == u
        product = _as_element(_poly_mulmod(list(u), list(v), modulus, p), k)
        assert field.mul(u, v) == product
        assert field.unpack(field.reduce(pu * pv)) == product
        power = _as_element(_poly_powmod(list(u), e, modulus, p), k)
        assert field.pow(u, e) == power
        assert field.unpack(field.pow_packed(pu, e)) == power


@pytest.mark.parametrize("p,k", [(3, 8), (5, 6), (11, 4), (149, 2), (997, 1)])
def test_reduce_accepts_sums_of_two_products(p, k):
    # The Redei step feeds reduce N*x + a*D and N + D*x unreduced.
    field = build_field(p, k)
    top = field.element(field.q - 1)  # every coefficient p - 1
    w = field.pack(top)
    expected = field.add(field.mul(top, top), field.mul(top, top))
    assert field.unpack(field.reduce(w * w + w * w)) == expected
    assert field.unpack(field.reduce(w + w * w)) == field.add(top, field.mul(top, top))


@pytest.mark.parametrize("p,k", [(3, 8), (11, 4), (149, 2), (997, 1)])
def test_arithmetic_reduces_unreduced_coefficients(p, k):
    field = build_field(p, k)
    rng = random.Random(p * 7 + k)
    for _ in range(50):
        u = tuple(rng.randrange(-5 * p, 5 * p) for _ in range(k))
        v = tuple(rng.randrange(-5 * p, 5 * p) for _ in range(k))
        ru = tuple(c % p for c in u)
        rv = tuple(c % p for c in v)
        assert field.mul(u, v) == field.mul(ru, rv)
        assert field.pow(u, 5) == field.pow(ru, 5)
        if any(ru):
            assert field.inv(u) == field.inv(ru)
    assert field.mul((-1,) + (0,) * (k - 1), field.one) == ((p - 1,) + (0,) * (k - 1))
