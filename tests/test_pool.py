import itertools
import math
import random

import pytest

from cwlattice.gf import Polynomial, PrimeField, is_irreducible, monic_polynomials
from cwlattice.pool import (
    MAX_POOL_DEGREE,
    NotDecomposableError,
    NotSquarefreeError,
    PolynomialPool,
    SubsetPool,
    full_alphabet,
    pool_from_json,
)

from helpers import decompose_oracle

# products of the sample constituents for the seven sample codewords,
# frozen from an independent computer-algebra computation
VERIFIED_ALPHABET = ["2B29", "2D6B", "93BF", "23D75", "11159", "5D68B", "17153"]


def binary_irreducibles(count):
    """First ``count`` irreducible binary polynomials by (degree, coeffs) order."""
    field = PrimeField(2)
    out = []
    degree = 1
    while len(out) < count:
        for f in monic_polynomials(field, degree):
            if is_irreducible(f):
                out.append(f)
                if len(out) == count:
                    break
        degree += 1
    return out


def gf3_pool():
    """X, X+1 and X^2+1 over GF(3)."""
    f3 = PrimeField(3)
    return PolynomialPool([Polynomial(f3, c) for c in ((0, 1), (1, 1), (1, 0, 1))])


def test_pool_validation_rejects_reducible(f2):
    with pytest.raises(ValueError, match="reducible"):
        PolynomialPool([Polynomial(f2, (1, 0, 1))])


def test_pool_validation_rejects_duplicates(f2):
    f = Polynomial(f2, (1, 1, 1))
    with pytest.raises(ValueError, match="distinct"):
        PolynomialPool([f, f])
    with pytest.raises(ValueError, match="^pool needs at least one constituent$"):
        PolynomialPool([])


def test_pool_validation_rejects_nonmonic():
    f5 = PrimeField(5)
    with pytest.raises(ValueError, match="monic"):
        PolynomialPool([Polynomial(f5, (1, 2))])


def test_pool_validation_rejects_mixed_fields(f2):
    f3 = PrimeField(3)
    with pytest.raises(ValueError, match="one field"):
        PolynomialPool([Polynomial(f2, (1, 1)), Polynomial(f3, (1, 1))])


def test_pool_degree_limit_is_checked_before_irreducibility(f2):
    # 1024 linear constituents reach the limit; one more passes it
    f1031 = PrimeField(1031)
    linear = [Polynomial(f1031, (a, 1)) for a in range(1025)]
    assert PolynomialPool(linear[:MAX_POOL_DEGREE]).n == 1024
    with pytest.raises(ValueError, match=r"^constituents\[1024\]: constituent degrees sum "
                                         r"to 1025, over the limit 1024$"):
        PolynomialPool(linear)
    # refused before its Ben-Or test, which runs for seconds at this degree
    big = Polynomial(f2, (1, 1) + (0,) * 1022 + (1,))
    with pytest.raises(ValueError, match=r"^constituents\[1\]: constituent degrees sum to 1025"):
        PolynomialPool([Polynomial(f2, (1, 1)), big])


def test_compose_singleton(pool744):
    for i, f in enumerate(pool744.constituents):
        assert pool744.compose([i]) == f


def test_compose_worked_values(pool744):
    assert pool744.compose([0, 1, 2, 5]).to_hex() == "2B29"
    assert pool744.compose([0, 4, 5, 6]).to_hex() == "23D75"


def test_compose_rejects_bad_subsets(pool744):
    with pytest.raises(ValueError):
        pool744.compose([2, 2])
    with pytest.raises(ValueError):
        pool744.compose([5, 3])
    with pytest.raises(ValueError):
        pool744.compose([0, 7])


def test_decompose_worked_value(pool744, f2):
    element = Polynomial.from_hex("2B29", f2)
    assert pool744.decompose(element) == (0, 1, 2, 5)


def test_decompose_singleton(pool744):
    assert pool744.decompose(pool744.constituents[2]) == (2,)


def test_decompose_unit_is_empty(pool744, f2):
    assert pool744.decompose(Polynomial.one(f2)) == ()


def test_compose_empty_subset_is_the_unit(pool744, f2):
    # the empty product, like the empty meet, is the top: the unit round-trips
    assert pool744.compose([]) == Polynomial.one(f2)
    assert pool744.decompose(pool744.compose(())) == ()
    assert SubsetPool(5).compose([]) == frozenset()
    assert SubsetPool(5).decompose(SubsetPool(5).compose(())) == ()


def test_decompose_square_raises(pool744, f2):
    f1 = pool744.constituents[0]
    with pytest.raises(NotSquarefreeError):
        pool744.decompose(f1 * f1)
    # the first squared constituent is named, ahead of a foreign factor
    c = pool744.constituents
    foreign = Polynomial(f2, (1, 1, 1, 1, 1))
    with pytest.raises(NotSquarefreeError, match=r"^constituent #3 divides"):
        pool744.decompose(c[1] * c[3] * c[3] * c[5] * c[5] * foreign)


def test_decompose_foreign_factor_raises(pool744, f2):
    # X^4+X^3+X^2+X+1 is irreducible but not in the pool
    foreign = Polynomial(f2, (1, 1, 1, 1, 1))
    with pytest.raises(NotDecomposableError):
        pool744.decompose(pool744.constituents[0] * foreign)
    with pytest.raises(NotDecomposableError):
        pool744.decompose(Polynomial.zero(f2))
    pool = gf3_pool()
    with pytest.raises(NotDecomposableError, match=r"^factor Poly\(2 over GF\(3\)\) is not"):
        pool.decompose(pool.compose([0, 2]) * Polynomial(pool.field, (2,)))
    with pytest.raises(ValueError, match="not defined over the pool's field"):
        pool744.decompose(pool.compose([0]))


def test_subset_pool_validation():
    with pytest.raises(ValueError, match="pool size must be positive"):
        SubsetPool(0)
    with pytest.raises(NotDecomposableError, match=r"indices must lie in 0\.\.2, got \(0, 5\)"):
        SubsetPool(3).decompose([0, 5])


def test_decompose_product_of_all_constituents(pool744):
    for pool in (pool744, gf3_pool()):
        assert pool.decompose(pool.compose(range(pool.n))) == tuple(range(pool.n))


def outcome(decompose, pool, element):
    try:
        return "subset", decompose(pool, element)
    except ValueError as exc:
        return type(exc), str(exc)


def drawn_irreducibles(field, degrees, count, rng, first=()):
    """``count`` distinct monic irreducibles of the given degrees, drawn at random."""
    out = list(first)
    while len(out) < count:
        f = Polynomial(field, [rng.randrange(field.p) for _ in range(rng.choice(degrees))] + [1])
        if f not in out and is_irreducible(f):
            out.append(f)
    return out


def random_elements(pool, foreign, rng, trials=300):
    """Products of constituents, some squared, cubed or times a foreign,
    constant or non-monic factor, and the zero polynomial."""
    field, p = pool.field, pool.field.p
    elements = [Polynomial.zero(field)]
    for trial in range(trials):
        chosen = sorted(rng.sample(range(pool.n), rng.randrange(0, pool.n + 1)))
        element = Polynomial.one(field)
        for i in chosen:
            element = element * pool.constituents[i]
        extra = (None, "squared", "foreign", "constant", "cubed", "non-monic")[trial % 6]
        if extra == "squared" and chosen:
            element = element * pool.constituents[rng.choice(chosen)]
        elif extra == "foreign":
            element = element * rng.choice(foreign)
        elif extra == "constant":
            element = element * Polynomial(field, (rng.randrange(1, p),))
        elif extra == "cubed":
            element = element * element * element
        elif extra == "non-monic" and p > 2:
            lower = [rng.randrange(p) for _ in range(rng.randrange(3))]
            element = element * Polynomial(field, lower + [rng.randrange(2, p)])
        elements.append(element)
    return elements


BIG_PRIME = 100000000000031


@pytest.mark.parametrize("p, degrees, with_x", [
    (2, (2, 3, 4, 5), False),
    (3, (1, 2, 3), False),
    (5, (1, 2), False),
    (2, (1, 2, 3, 4), True),
    (7, (1, 2), True),
    (BIG_PRIME, (1, 2), False),
], ids=["2-degrees0", "3-degrees1", "5-degrees2", "2-with-x", "7-with-x", "big-prime"])
def test_decompose_matches_division_loop(p, degrees, with_x):
    field = PrimeField(p)
    rng = random.Random(7 + p)
    # X is the one constituent with a zero constant term
    first = [Polynomial(field, (0, 1))] if with_x else []
    irreducible = drawn_irreducibles(field, degrees, 8, rng, first)
    pool, foreign = PolynomialPool(irreducible[:6]), irreducible[6:]
    elements = random_elements(pool, foreign, rng)
    assert max(e.degree for e in elements) > sum(f.degree for f in pool.constituents)
    seen = set()
    for element in elements:
        want = outcome(decompose_oracle, pool, element)
        assert outcome(PolynomialPool.decompose, pool, element) == want
        seen.add(want[0])
    assert seen == {"subset", NotSquarefreeError, NotDecomposableError}
    # a fresh pool, highest degree first: rows cached by one call must not
    # change the outcome of a later, shorter one
    fresh = PolynomialPool(pool.constituents)
    for element in sorted(elements, key=lambda e: -e.degree):
        assert outcome(PolynomialPool.decompose, fresh, element) == outcome(decompose_oracle, fresh, element)
    # an element above the total degree is reduced mod the product of all
    # constituents first, which keeps every slot sum within its bound
    assert len(fresh._rows) <= sum(f.degree for f in pool.constituents) + 1


def test_full_alphabet_of_sample_code(pool744, code744):
    alphabet = full_alphabet(pool744, code744)
    assert [f.to_hex() for f in alphabet] == VERIFIED_ALPHABET
    for element, cw in zip(alphabet, code744.codewords):
        assert pool744.decompose(element) == cw


def test_full_alphabet_empty_and_subset_backend():
    assert full_alphabet(SubsetPool(5), []) == []
    pool = SubsetPool(7)
    cws = [(0, 1, 2), (3, 4, 6)]
    assert full_alphabet(pool, cws) == [frozenset(c) for c in cws]


@pytest.mark.parametrize("n", [4, 7, 10])
def test_roundtrip_exhaustive(n):
    pool = PolynomialPool(binary_irreducibles(n))
    seen = set()
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            element = pool.compose(subset)
            assert pool.decompose(element) == subset
            seen.add(element)
            expected_degree = sum(pool.constituents[i].degree for i in subset)
            assert element.degree == expected_degree
    # injectivity: distinct subsets gave distinct elements
    assert len(seen) == 2 ** n - 1


def test_compose_matches_polynomial_products_at_every_slot_width():
    # compose multiplies an r-subset in slots of at least 2w + bitlen(p)
    # bits, where 2**w bounds the coefficients of the r longest
    # constituents' product, rounded up to 8, 16, 32 or 64 bits, which
    # struct.unpack reads; wider slots keep the shift loop.  The binary
    # pool spans every word size, the linear pool over F_257 goes past 64
    # bits from three constituents on, and over a prime above 2**32 the
    # unit takes 64 bits and any constituent more
    f3, f257, big = PrimeField(3), PrimeField(257), PrimeField(2**32 + 15)
    pools = [
        PolynomialPool(binary_irreducibles(10)),
        PolynomialPool(drawn_irreducibles(f3, (1, 2, 3), 6, random.Random(3))),
        PolynomialPool([Polynomial(f257, (c, 1)) for c in range(1, 11)]),
        PolynomialPool([Polynomial(big, (c, 1)) for c in range(1, 5)]),
    ]
    widths = set()
    for pool in pools:
        one, p = Polynomial.one(pool.field), pool.field.p
        longest = sorted((f.degree + 1 for f in pool.constituents), reverse=True)
        for size in range(pool.n + 1):
            w = (math.prod(longest[:size]) * (p - 1) ** size).bit_length()
            widths.add(next((word for word in (8, 16, 32, 64) if 2 * w + p.bit_length() <= word), "wider"))
            for subset in itertools.combinations(range(pool.n), size):
                want = one
                for i in subset:
                    want = want * pool.constituents[i]
                got = pool.compose(subset)
                assert got == want, (pool, subset)
                # reduced in place of the constructor's rule: a tuple of
                # residues whose top one is nonzero
                assert type(got.coeffs) is tuple and got.coeffs[-1] != 0, (pool, subset)
                assert all(type(c) is int and 0 <= c < p for c in got.coeffs), (pool, subset)
    assert widths == {8, 16, 32, 64, "wider"}


def test_roundtrip_subset_backend_exhaustive():
    pool = SubsetPool(10)
    for size in range(1, 11):
        for subset in itertools.combinations(range(10), size):
            assert pool.decompose(pool.compose(subset)) == subset


def test_pool_json_roundtrip(pool744):
    obj = pool744.to_json()
    assert obj["backend"] == "poly"
    assert obj["constituents"] == ["7", "B", "D", "13", "19", "25", "43"]
    again = pool_from_json(obj)
    assert again.constituents == pool744.constituents

    sp = SubsetPool(7)
    assert pool_from_json(sp.to_json()).n == 7

    with pytest.raises(ValueError, match="backend"):
        pool_from_json({"backend": "nope"})


def test_pool_json_nonbinary_field():
    f5 = PrimeField(5)
    pool = PolynomialPool([Polynomial(f5, (1, 1)), Polynomial(f5, (2, 1))])
    obj = pool.to_json()
    assert obj["constituents"] == [[1, 1], [2, 1]]
    assert pool_from_json(obj).constituents == pool.constituents
