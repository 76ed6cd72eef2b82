import itertools
import random

import pytest

from cwlattice.gf import (
    Polynomial,
    PrimeField,
    _Slots,
    _pack,
    _slot_width,
    _unpack,
    is_irreducible,
    is_prime,
    monic_polynomials,
    next_prime,
)
from helpers import ben_or_oracle


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-2, 25):
        assert is_prime(n) == (n in primes)
    assert next_prime(7) == 11
    assert next_prime(10) == 11


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division_is_prime(n)
    ]


@pytest.mark.parametrize(
    "n, prime",
    [
        (3825123056546413051, False),  # strong pseudoprime to every base up to 31
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
        (2 ** 61 - 1, True),
        (2 ** 64 + 13, True),
    ],
)
def test_is_prime_large_values(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_past_its_exact_range():
    # the first strong pseudoprime to every base up to 37, and a Mersenne prime past it
    for n in (318665857834031151167461, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(n)
    with pytest.raises(ValueError):
        PrimeField(2 ** 89 - 1)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_normalization_strips_trailing_zeros(f2):
    assert P(f2, 1, 1, 0, 0).coeffs == (1, 1)
    assert P(f2, 0, 0).coeffs == ()
    assert P(f2, 2, 3).coeffs == (0, 1)  # reduced mod 2
    assert Polynomial.zero(f2).degree == -1
    assert Polynomial.one(f2).degree == 0


def test_mul_char2_square(f2):
    x_plus_1 = P(f2, 1, 1)
    assert x_plus_1 * x_plus_1 == P(f2, 1, 0, 1)  # X^2 + 1


def test_mul_identity_and_degree(f2):
    f = P(f2, 1, 0, 1, 1)
    assert f * Polynomial.one(f2) == f
    g = P(f2, 1, 1)
    assert (f * g).degree == f.degree + g.degree


def test_mul_field_mismatch(f2):
    f3 = PrimeField(3)
    with pytest.raises(ValueError, match="field mismatch"):
        P(f2, 1, 1) * P(f3, 1, 1)


def test_divrem_exact(f2):
    q, r = divmod(P(f2, 1, 0, 1), P(f2, 1, 1))  # (X^2+1) / (X+1)
    assert q == P(f2, 1, 1)
    assert not r


def test_divrem_self(f2):
    f = P(f2, 1, 1, 0, 1)
    q, r = divmod(f, f)
    assert q == Polynomial.one(f2)
    assert not r


def test_divrem_nonexact_remainder(f2):
    f1 = P(f2, 1, 1, 1)
    f2_ = P(f2, 1, 1, 0, 1)
    f3 = P(f2, 1, 0, 1, 1)
    q, r = divmod(f1 * f2_, f3)
    assert r  # f3 does not divide f1*f2
    assert r == P(f2, 1, 0, 1)  # long division by hand: X^2 + 1


def test_divrem_by_zero(f2):
    with pytest.raises(ZeroDivisionError):
        divmod(P(f2, 1, 1), Polynomial.zero(f2))


# 65537 and 2**61 - 1 take packed slots wider than 8 and 64 bits
@pytest.mark.parametrize("p", [2, 3, 5, 65537, 2 ** 61 - 1])
def test_division_identity_randomized(p):
    field = PrimeField(p)
    rng = random.Random(1234 + p)
    for _ in range(300):
        a = Polynomial(field, [rng.randrange(p) for _ in range(rng.randrange(0, 42))])
        b = Polynomial(field, [rng.randrange(p) for _ in range(rng.randrange(1, 42))])
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _schoolbook(p, a, b):
    """Coefficient-list +, -, * and long division mod p, reducing at every step."""
    n = max(len(a), len(b))
    a0, b0 = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    add = _trimmed((x + y) % p for x, y in zip(a0, b0))
    sub = _trimmed((x - y) % p for x, y in zip(a0, b0))
    mul = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            mul[i + j] = (mul[i + j] + x * y) % p
    if not b:
        return add, sub, _trimmed(mul), None
    quot, rem = [0] * max(len(a) - len(b) + 1, 0), list(a)
    inv = pow(b[-1], p - 2, p)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] * inv % p
        quot[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * y) % p
    return add, sub, _trimmed(mul), (_trimmed(quot), _trimmed(rem))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65537, 2 ** 61 - 1])
def test_operators_match_schoolbook_oracle(p):
    field = PrimeField(p)
    zero = Polynomial.zero(field)
    rng = random.Random(99 + p)
    for _ in range(400):
        raw_a = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(0, 42))]
        raw_b = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(0, 42))]
        a, b = Polynomial(field, raw_a), Polynomial(field, raw_b)
        add, sub, mul, div = _schoolbook(p, _trimmed(c % p for c in raw_a), _trimmed(c % p for c in raw_b))
        assert (a + b).coeffs == add
        assert (a - b).coeffs == sub
        assert (a * b).coeffs == mul
        if div is None:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
        else:
            q, r = divmod(a, b)
            assert (q.coeffs, r.coeffs) == div
        assert a - a == zero
        assert (a - b) + b == a


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**61 - 1])
def test_mod_slots_matches_slotwise_remainder(p):
    # _Slots.reduce, at its least stride and rounded up to a word
    rng = random.Random(p)
    strides = set()
    for w in (p.bit_length(), p.bit_length() + 1, p.bit_length() + 9):
        for word in (False, True):
            slots = [0, p - 1, p, (1 << w) - 1] + [rng.randrange(1 << w) for _ in range(6)]
            layout = _Slots(p, w, len(slots), word)
            stride = layout.stride
            strides.add(stride)
            assert stride >= 2 * w + p.bit_length()
            packed = layout.pack(slots)
            want = [c % p for c in slots]
            assert _unpack(layout.reduce(packed), len(slots), stride) == want
            # a count above the value's slots reads them as zero
            more = _Slots(p, w, len(slots) + 3, word)
            assert _unpack(more.reduce(packed), len(slots), more.stride) == want
    words = {8, 16, 32, 64} & strides
    assert words if p < 2**20 else not words
    assert strides - {8, 16, 32, 64}


def test_slot_strides_follow_the_rule(monkeypatch):
    # every kernel that reduces builds its layout at stride 2w + bitlen(p),
    # compose rounded up to a machine word where one fits
    from cwlattice import gf, pool as pool_module
    from cwlattice.pool import PolynomialPool

    built = []

    class Recording(_Slots):
        __slots__ = ()

        def __init__(self, p, w, count, word=False):
            super().__init__(p, w, count, word)
            built.append((p, w, count, word, self.stride))

    def least(p, w):
        return 2 * w + p.bit_length()

    monkeypatch.setattr(gf, "_Slots", Recording)
    monkeypatch.setattr(pool_module, "_Slots", Recording)
    f3 = PrimeField(3)
    for f in (P(f3, 2, 1, 0, 0, 1), P(PrimeField(2), 1, 1, 0, 0, 0, 1)):
        built.clear()
        is_irreducible(f)
        p, n = f.field.p, f.degree
        w = _slot_width(p, 2 * n + 1)
        assert built == [(p, w, n, False, least(p, w))]
    pool = PolynomialPool([P(f3, 1, 1), P(f3, 2, 1), P(f3, 1, 0, 1)])
    w = _slot_width(3, 4 + 1)
    assert built[-1] == (3, w, 4, False, least(3, w))
    # w is the bit length of the product of (degree + 1) * (p - 1) over the
    # r longest constituents, 2 * 3 = 6, 6 * 4 = 24 and 24 * 4 = 96
    for r, w, count in ((0, 1, 1), (1, 3, 3), (2, 5, 4), (3, 7, 5)):
        built.clear()
        pool.compose(range(r))
        pool.compose(range(r))  # built once per subset size
        stride = next((s for s in (8, 16, 32, 64) if s >= least(3, w)), least(3, w))
        assert built == [(3, w, count, True, stride)], r


def test_unpack_word_path_matches_shift_loop():
    # slots of 8, 16, 32 and 64 bits are read by struct.unpack, every other
    # width by shifts; both must give the lowest slots of any value, also
    # one with bits above them, and nothing for a count of zero or below
    rng = random.Random("words")
    for w in range(1, 71):
        mask = (1 << w) - 1
        for slots in range(-2, 41):
            coeffs = [rng.randrange(1 << w) for _ in range(max(slots, 0))]
            packed = _pack(coeffs, w)
            above = packed | rng.randrange(1, 1 << w) << max(slots, 0) * w
            for value in (packed, above):
                want = [value >> i * w & mask for i in range(slots)]
                assert _unpack(value, slots, w) == want, (w, slots)
            assert _unpack(packed, slots, w) == coeffs


@pytest.mark.parametrize("p", [131, 257])
def test_irreducible_matches_plain_ben_or_without_root_scan(p):
    # p > 32 * degree, so no root scan runs and every input goes through
    # the packed Ben-Or powers; half the inputs are products of two random
    # monics, reducible by construction
    field = PrimeField(p)
    rng = random.Random(p)

    def monic(degree):
        return Polynomial(field, [rng.randrange(p) for _ in range(degree)] + [1])

    for degree in (2, 3, 4):
        for trial in range(40):
            if trial % 2:
                low = rng.randrange(1, degree)
                f = monic(low) * monic(degree - low)
                assert not is_irreducible(f), f"{f!r}"
            else:
                f = monic(degree)
            assert is_irreducible(f) == ben_or_oracle(f), f"{f!r}"


def test_irreducible_known_cases(f2):
    assert is_irreducible(P(f2, 1, 1, 1))  # X^2+X+1
    assert not is_irreducible(P(f2, 1, 0, 1))  # (X+1)^2
    assert is_irreducible(P(f2, 1, 1, 0, 0, 0, 0, 1))  # X^6+X+1


def test_irreducible_rejects_constants(f2):
    with pytest.raises(ValueError):
        is_irreducible(Polynomial.one(f2))
    with pytest.raises(ValueError):
        is_irreducible(Polynomial.zero(f2))


def test_irreducible_matches_factor_enumeration_upto_degree_8():
    # oracle: f is reducible iff some monic divisor of degree 1..deg/2 exists
    # (a factorization has a factor of at most half the degree); degree 8
    # over GF(2), fewer degrees over larger fields.  Every monic f is also
    # tested times the scalars 2 and p - 1, which keep the answer.
    for p, top in ((2, 8), (3, 5), (5, 4), (7, 3), (11, 3), (13, 3)):
        field = PrimeField(p)
        scalars = [Polynomial(field, [c]) for c in sorted({1, min(2, p - 1), p - 1})]
        for degree in range(1, top + 1):
            for f in monic_polynomials(field, degree):
                has_factor = any(
                    not f % g
                    for d in range(1, degree // 2 + 1)
                    for g in monic_polynomials(field, d)
                )
                for c in scalars:
                    assert is_irreducible(c * f) == (not has_factor), f"{c * f!r}"


def test_irreducible_on_both_sides_of_the_root_scan():
    # a polynomial of degree 2 or 3 is reducible exactly when it has a root;
    # the root scan runs for p <= 32 * degree, so over F_67 degree 2 goes
    # straight to the Ben-Or powers and degree 3 is scanned first
    rng = random.Random("root-scan")
    for p in (67, 101):
        field = PrimeField(p)
        for degree in (2, 3):
            for _ in range(60):
                lower = [rng.randrange(p) for _ in range(degree)]
                if rng.random() < 0.5:
                    lower[0] = 0  # a root at 0
                f = Polynomial(field, (*lower, 1))
                has_root = any(sum(c * x ** i for i, c in enumerate(f.coeffs)) % p == 0
                               for x in range(p))
                assert is_irreducible(f) == (not has_root), f"{f!r}"


def test_hex_worked_value(f2):
    f = Polynomial(f2, [1 if i in (0, 3, 5, 8, 9, 11, 13) else 0 for i in range(14)])
    assert f.to_hex() == "2B29"
    assert Polynomial.from_hex("2B29", f2) == f


def test_hex_constant_and_zero(f2):
    assert Polynomial.one(f2).to_hex() == "1"
    assert Polynomial.zero(f2).to_hex() == "0"
    assert Polynomial.from_hex("0", f2) == Polynomial.zero(f2)


def test_hex_roundtrip_exhaustive_small(f2):
    for value in range(512):
        coeffs = [value >> i & 1 for i in range(9)]
        f = Polynomial(f2, coeffs)
        assert Polynomial.from_hex(f.to_hex(), f2) == f


def test_hex_rejects_nonbinary_field():
    f3 = PrimeField(3)
    with pytest.raises(ValueError):
        Polynomial(f3, [1, 2]).to_hex()
    with pytest.raises(ValueError):
        Polynomial.from_hex("2B", f3)


def test_hex_rejects_garbage(f2):
    with pytest.raises(ValueError):
        Polynomial.from_hex("XYZ", f2)
    with pytest.raises(ValueError):
        Polynomial.from_hex("", f2)
    with pytest.raises(ValueError, match="invalid hex string '-1F'"):
        Polynomial.from_hex("-1F", f2)


def test_polynomial_is_immutable(f2):
    f = Polynomial(f2, (1, 1))
    with pytest.raises(AttributeError, match="immutable"):
        f.coeffs = (1,)
    assert f.coeffs == (1, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_from_coefficients_takes_exactly_the_residues(p):
    field = PrimeField(p)
    for coeffs in itertools.product(range(p), repeat=3):
        assert Polynomial.from_coefficients(coeffs, field) == Polynomial(field, coeffs)
    for bad in (-1, p, p + 1):
        with pytest.raises(ValueError, match=rf"^coefficient {bad} is not in 0\.\.{p - 1}$"):
            Polynomial.from_coefficients([1, bad, 1], field)
