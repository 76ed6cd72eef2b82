"""Exact arithmetic for prime fields GF(p) and dense univariate polynomials.

A polynomial a_0 + a_1 X + ... + a_n X^n is stored as the coefficient
tuple (a_0, a_1, ..., a_n) with every entry reduced mod p and the last
entry nonzero; the zero polynomial is the empty tuple.  The usual
operators +, -, *, //, %, divmod are overloaded.

The constructor applies the one reduction rule, ``_reduced``: it takes
any integers, reduces each mod p and strips trailing zeros.  The
operators therefore compute on plain integers and hand their unreduced
coefficient lists to it; only long division reduces each quotient
digit itself, so that a zero digit is skipped.  A caller whose tuple
already keeps the rule builds through ``_from_reduced`` instead.

Multiplication and division run on one packed form (Kronecker
substitution): coefficient i sits in bits [i*w, (i+1)*w) of one Python
int, so a product of polynomials is one product of ints.  The slot
width w follows one rule, ``_slot_width``: a slot starts at most p - 1
and takes at most ``terms`` products of two residues, so it stays
below 2**w for w = bit_length((p-1) + terms*(p-1)**2).  Long division
adds (p - c)*b*X^shift instead of subtracting c*b*X^shift: slots only
grow, so no borrow ever crosses a slot boundary.

One layout, ``_Slots``, reduces every slot of a packed value mod p at
once, by one multiplication with a fixed-point inverse of p: its slots
hold some x < 2**w each and are 2w + bitlen(p) bits wide, so that the
reduction is exact, or a machine word of 8, 16, 32 or 64 bits when
``word`` is set and one fits.  Each kernel builds its layout once: the
Ben-Or test one per input, a ``cwlattice.pool`` pool one per subset size
of ``compose`` (word-wide) and one for its residue rows.  ``_unpack``
reads word-wide slots, whatever made them, with one little-endian
``struct.unpack`` of the value's bytes instead of one shift per slot.

Binary polynomials additionally support a compact hexadecimal codec:
the coefficients are read highest degree first as a binary string,
left-padded with zeros to a whole number of nibbles, and each nibble is
printed as one uppercase hex digit.  X^13+X^11+X^9+X^8+X^5+X^3+1 is the
bit string 0010101100101001, i.e. "2B29".  It is the packed form with
1-bit slots.

Irreducibility is decided by Ben-Or's test: f of degree n is
irreducible iff gcd(X^(p^i) - X mod f, f) = 1 for 1 <= i <= n/2, with
X^(p^i) by square and multiply mod f.  The residues are multiplied
together mod f and one gcd of the product with f decides, since an
irreducible factor of f divides the product exactly when it divides
one of the factors.  It costs time polynomial in n and log p.  Every
residue stays packed, in one ``_Slots`` layout: one multiply and
one long division by f give a product mod f, one ``_Slots.reduce``
reduces all its slots, and X^(p^i) - X is one add of (p - 1)X and one
more reduction.  Only the final Euclid runs on Polynomial.  Over fields
with p <= 32n a scan for roots runs first: a root of f of degree n >= 2
is a linear factor, so most reducible inputs stop there.  When the scan
finds none, f of degree 2 or 3 is irreducible, as any factorization of
it has a linear factor, and the factor for i = 1 is left out, since
gcd(X^p - X, f) = 1 says exactly that f has no root in GF(p).
"""

from __future__ import annotations

import itertools
import struct
from typing import Iterable, Iterator, Sequence


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


def _slot_width(p: int, terms: int) -> int:
    """Bits per slot for one residue plus ``terms`` products of two residues."""
    return ((p - 1) + terms * (p - 1) ** 2).bit_length()


def _pack(coeffs: Sequence[int], w: int) -> int:
    """Coefficient i in bits [i*w, (i+1)*w); every coefficient lies in [0, 2**w)."""
    value = 0
    for c in reversed(coeffs):
        value = value << w | c
    return value


# struct codes of the unsigned machine words, by width in bits
_WORD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _unpack(value: int, slots: int, w: int) -> list[int]:
    """The lowest ``slots`` slots of a packed value, unreduced.

    Word-wide slots are read in one ``struct.unpack`` of the value's
    little-endian bytes; "<" fixes the byte order on every host.
    """
    code = _WORD_CODES.get(w)
    if code is None or slots <= 0:
        mask = (1 << w) - 1
        return [value >> i * w & mask for i in range(slots)]
    size = slots * w >> 3
    if value.bit_length() > size << 3:
        value &= (1 << (size << 3)) - 1
    return list(struct.unpack(f"<{slots}{code}", value.to_bytes(size, "little")))


class _Slots:
    """``count`` slots of x < 2**w, ``stride`` bits apart, and the constants
    that reduce them all mod p at once: the layout of the module docstring."""

    __slots__ = ("p", "stride", "s", "m", "low")

    def __init__(self, p: int, w: int, count: int, word: bool = False):
        least = 2 * w + p.bit_length()
        self.p, self.s = p, w + p.bit_length()
        self.stride = next((b for b in _WORD_CODES if b >= least), least) if word else least
        self.m = -(-(1 << self.s) // p)
        self.low = _pack([(1 << w) - 1] * count, self.stride)  # bits [0, w) of each slot

    def pack(self, coeffs: Sequence[int]) -> int:
        return _pack(coeffs, self.stride)

    def unpack(self, value: int) -> list[int]:
        """Every slot up to the value's highest nonzero one."""
        return _unpack(value, -(-value.bit_length() // self.stride), self.stride)

    def reduce(self, value: int) -> int:
        """Every slot of a packed value reduced mod p, all slots at once.

        The result has the same layout.  Slots above the value read as
        zero, so ``count`` may overcount.  With m = ceil(2**s / p),
        floor(x*m / 2**s) is floor(x / p) exactly: write p*m = 2**s + e
        with 0 <= e < p, so x*m / 2**s = x/p + x*e / (p * 2**s), and the
        error term is below 2**w / 2**s = 2**-bitlen(p) < 1/p.  For
        x = q*p + r with r <= p - 1 the sum thus lies in [q, q + 1).
        Since m <= 2**s, x*m < 2**(w + s) stays inside its slot, so one
        product of the packed value by m multiplies every slot; shifting
        by s and keeping the low w bits of each slot reads off every
        quotient, and subtracting p times them leaves every remainder
        without a borrow.
        """
        return value - self.p * (value * self.m >> self.s & self.low)


def _divmod_packed(a: int, top: int, b: int, n: int, inv: int, p: int, w: int) -> tuple[int, int]:
    """Long division of packed ``a`` (slots 0..top) by packed ``b`` (n slots).

    ``inv`` is the inverse of b's leading coefficient mod p.  Returns the
    packed quotient, its digits reduced mod p, and the packed remainder
    of n - 1 slots, each congruent mod p to its coefficient but not
    reduced.  Each slot of ``a`` takes at most n products of two
    residues on top of what it starts with; w must hold that sum, which
    is ``_slot_width(p, n)`` when ``a`` starts reduced.
    """
    mask = (1 << w) - 1
    lead = (n - 1) * w
    q = 0
    # pos is the bit offset of the quotient digit X^shift, shift = pos / w
    for pos in range((top - n + 1) * w, -1, -w):
        c = (a >> pos + lead & mask) * inv % p
        if c:
            q |= c << pos
            # add (p - c)*b rather than subtract c*b: the slots only grow,
            # so no borrow crosses a slot boundary, and the leading slot
            # becomes a multiple of p that no later step reads
            a += (p - c) * b << pos
    return q, a & ((1 << lead) - 1)


def _reduced(coeffs: Iterable[int], p: int) -> list[int]:
    """Every entry mod p, trailing zeros stripped: the reduction rule."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


class Polynomial:
    """Dense univariate polynomial over a prime field.

    Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(_reduced(coeffs, field.p)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _from_reduced(cls, field: PrimeField, coeffs: tuple[int, ...]) -> "Polynomial":
        """The constructor for a tuple that already keeps the reduction
        rule: every entry in 0..p-1 and the last one nonzero."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "field", field)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

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
        a, b = self.coeffs, other.coeffs
        w = _slot_width(self.field.p, min(len(a), len(b)))
        return Polynomial(self.field, _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._require_same_field(other)
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        a, b, p = self.coeffs, other.coeffs, self.field.p
        n = len(b)
        w = _slot_width(p, n)
        q, r = _divmod_packed(_pack(a, w), len(a) - 1, _pack(b, w), n, pow(b[-1], -1, p), p, w)
        return (Polynomial(self.field, _unpack(q, len(a) - n + 1, w)),
                Polynomial(self.field, _unpack(r, n - 1, w)))

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def to_hex(self) -> str:
        """Uppercase hex string of the MSB-first coefficient bits (GF(2) only)."""
        if self.field.p != 2:
            raise ValueError("hex codec is defined for GF(2) coefficients only")
        return format(_pack(self.coeffs, 1), "X")

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
        return cls(field, _unpack(value, value.bit_length(), 1))

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[int], field: PrimeField) -> "Polynomial":
        """The polynomial with these coefficients, lowest degree first, as
        documents write them; unlike the constructor, which reduces any
        integer mod p, it refuses a coefficient outside 0..p-1."""
        for c in coeffs:
            if not 0 <= c < field.p:
                raise ValueError(f"coefficient {c} is not in 0..{field.p - 1}")
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
    """A root scan over small fields, then Ben-Or's test on the packed kernel.

    Raises ValueError for constant input: units and zero are neither
    reducible nor irreducible here.
    """
    if f.degree < 1:
        raise ValueError("irreducibility is undefined for constant polynomials")
    p, n = f.field.p, f.degree
    scanned = 2 <= n and p <= 32 * n
    if scanned:
        # a root x gives the factor X - x.  The scan costs p Horner runs of
        # n + 1 steps, under half the time of the powers below while p <= 32n
        high_first = f.coeffs[::-1]
        for x in range(p):
            value = 0
            for c in high_first:
                value = value * x + c
            if not value % p:
                return False
        if n <= 3:
            return True
    # a product of two residues mod f puts at most n products of two
    # residues in a slot, and dividing it by f (n + 1 slots) adds n + 1
    slots = _Slots(p, _slot_width(p, 2 * n + 1), n)
    width, reduce = slots.stride, slots.reduce
    packed_f, inv = slots.pack(f.coeffs), pow(f.coeffs[-1], -1, p)

    def mulmod(a: int, b: int) -> int:
        return reduce(_divmod_packed(a * b, 2 * n - 2, packed_f, n + 1, inv, p, width)[1])

    power = 1 << width  # X, then X^(p^i) mod f
    product = 1  # the product of X^(p^i) - X mod f so far
    # (p - 1)X: adding it subtracts X with every slot kept nonnegative
    minus_x = p - 1 << width
    for i in range(1, n // 2 + 1):
        # raise to the p-th power by square and multiply
        base = power
        for bit in bin(p)[3:]:
            power = mulmod(power, power)
            if bit == "1":
                power = mulmod(power, base)
        # after a root scan that found none, gcd(X^p - X, f) = 1: the
        # factor for i = 1 would add nothing
        if i > 1 or not scanned:
            factor = reduce(power + minus_x)
            # 1 times the factor is the factor: skip that multiply
            product = mulmod(product, factor) if product != 1 else factor
    # an irreducible factor of f divides the product exactly when it
    # divides one of its factors, so one gcd with f decides: Euclid,
    # stopping at a constant remainder
    g, r = f, Polynomial(f.field, slots.unpack(product))
    while r.degree > 0:
        g, r = r, g % r
    return bool(r)
