"""Exact arithmetic for prime fields GF(p) and dense univariate polynomials.

A polynomial a_0 + a_1 X + ... + a_n X^n is stored as the coefficient
tuple (a_0, a_1, ..., a_n) with every entry reduced mod p and the last
entry nonzero; the zero polynomial is the empty tuple.  The usual
operators +, -, *, //, %, divmod are overloaded.

The constructor is the one place where reduction happens: it takes
any integers, reduces each mod p and strips trailing zeros.  The
operators therefore compute on plain integers and hand their unreduced
coefficient lists to it; only long division reduces each quotient
digit itself, so that a zero digit is skipped and the remainder
entries stay small.

Binary polynomials additionally support a compact hexadecimal codec:
the coefficients are read highest degree first as a binary string,
left-padded with zeros to a whole number of nibbles, and each nibble is
printed as one uppercase hex digit.  X^13+X^11+X^9+X^8+X^5+X^3+1 is the
bit string 0010101100101001, i.e. "2B29".

Irreducibility is decided by trial division against every monic
polynomial of degree at most deg(f)/2.  This is deterministic and
entirely adequate for the small degrees used here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator


# Miller-Rabin with these bases decides every n below the limit exactly
# (Sorenson and Webster 2015); the limit exceeds 2**64
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check for n < 318665857834031151167461.

    Raises ValueError for larger n rather than guess.
    """
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    # n - 1 = d * 2**s with d odd; n is a strong probable prime to base a when
    # a**d = 1 or a**(d * 2**r) = -1 (mod n) for some r < s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = n + 1
    while not is_prime(candidate):
        candidate += 1
    return candidate


class PrimeField:
    """The prime field GF(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class Polynomial:
    """Dense univariate polynomial over a prime field.

    Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int] = ()):
        p = field.p
        reduced = [c % p for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(reduced))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "Polynomial":
        return cls(field, (1,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _require_same_field(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise ValueError(
                f"field mismatch: GF({self.field.p}) vs GF({other.field.p})"
            )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_field(other)
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Polynomial(self.field, [a + b for a, b in pairs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_field(other)
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Polynomial(self.field, [a - b for a, b in pairs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_field(other)
        if not self or not other:
            return Polynomial.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(self.field, out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._require_same_field(other)
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.field.p
        db = other.degree
        rem = list(self.coeffs)
        if self.degree < db:
            return Polynomial.zero(self.field), self
        quot = [0] * (self.degree - db + 1)
        inv_lead = pow(other.coeffs[-1], -1, p)
        for shift in range(self.degree - db, -1, -1):
            c = rem[shift + db] * inv_lead % p
            if c:
                quot[shift] = c
                for i, b in enumerate(other.coeffs):
                    rem[shift + i] -= c * b
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def to_hex(self) -> str:
        """Uppercase hex string of the MSB-first coefficient bits (GF(2) only)."""
        if self.field.p != 2:
            raise ValueError("hex codec is defined for GF(2) coefficients only")
        value = 0
        for i, c in enumerate(self.coeffs):
            if c:
                value |= 1 << i
        return format(value, "X")

    @classmethod
    def from_hex(cls, text: str, field: PrimeField) -> "Polynomial":
        """Inverse of to_hex; leading zero bits are discarded."""
        if field.p != 2:
            raise ValueError("hex codec is defined for GF(2) coefficients only")
        try:
            value = int(text, 16)
        except (ValueError, TypeError):
            raise ValueError(f"invalid hex string {text!r}") from None
        if value < 0:
            raise ValueError(f"invalid hex string {text!r}")
        coeffs = []
        while value:
            coeffs.append(value & 1)
            value >>= 1
        return cls(field, coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "X" if i == 1 else f"X^{i}"
                terms.append(x if c == 1 else f"{c}*{x}")
        return f"Poly({' + '.join(terms)} over GF({self.field.p}))"


def monic_polynomials(field: PrimeField, degree: int) -> Iterator[Polynomial]:
    """All monic polynomials of the given degree, in lexicographic coefficient order."""
    if degree < 0:
        return
    for lower in itertools.product(range(field.p), repeat=degree):
        yield Polynomial(field, (*lower, 1))


def is_irreducible(f: Polynomial) -> bool:
    """Trial-division irreducibility test.

    Raises ValueError for constant input: units and zero are neither
    reducible nor irreducible here.
    """
    if f.degree < 1:
        raise ValueError("irreducibility is undefined for constant polynomials")
    if f.degree == 1:
        return True
    for d in range(1, f.degree // 2 + 1):
        for g in monic_polynomials(f.field, d):
            if not f % g:
                return False
    return True
