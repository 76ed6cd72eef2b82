"""Pools of constituent elements with unique compose/decompose.

A pool fixes an ordered list of n pairwise non-dividing constituents.
``compose`` maps a strictly increasing index subset to the element it
generates, and the empty subset to the unit, as the empty meet of a
lattice is its top; ``decompose`` recovers the subset, which is unique
because distinct squarefree products of distinct irreducibles are
distinct.

Two backends are provided.  PolynomialPool holds monic irreducible
polynomials over one prime field and composes by multiplying the
generators in one product of packed ints, laid out and reduced mod p by
``cwlattice.gf``'s slot layout (its module docstring), one layout per
subset size, whose bound on the coefficients comes from the longest
constituents; the reduced tuple is the polynomial as it stands.  It
decomposes in one residue pass: row j, cached, packs X^j mod every
constituent side by side, so the sum of the element's coefficients
times the rows packs its remainder mod every constituent, and a
constituent divides the element when its block of slots reduces to zero
mod p.  SubsetPool is the purely combinatorial backend where elements
are the index sets themselves.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, Sequence

from cwlattice.code import validated_indices
from cwlattice.gf import Polynomial, PrimeField, _Slots, _slot_width, is_irreducible


class NotDecomposableError(ValueError):
    """A nontrivial factor remains after dividing out all constituents."""


class NotSquarefreeError(ValueError):
    """Some constituent divides the element more than once."""


# the Ben-Or irreducibility test grows about cubically in the degree: over
# GF(2), X^1000 + X + 1 takes about two seconds under CPython 3.11
MAX_POOL_DEGREE = 1024


class PolynomialPool:
    """Constituents are monic irreducible polynomials over one prime field,
    of degrees summing to at most ``MAX_POOL_DEGREE``."""

    backend = "poly"

    def __init__(self, constituents: Sequence[Polynomial]):
        constituents = tuple(constituents)
        if not constituents:
            raise ValueError("pool needs at least one constituent")
        field = constituents[0].field
        seen: dict[Polynomial, int] = {}
        total = 0
        for i, f in enumerate(constituents):
            if f.field != field:
                raise ValueError(f"constituents[{i}]: all constituents must share one field, "
                                 f"GF({f.field.p}) is not GF({field.p})")
            if not f.is_monic:
                raise ValueError(f"constituents[{i}]: constituent {f!r} is not monic")
            if f.degree < 1:
                raise ValueError(f"constituents[{i}]: constituent {f!r} is constant, "
                                 "not irreducible")
            total += f.degree
            if total > MAX_POOL_DEGREE:
                raise ValueError(f"constituents[{i}]: constituent degrees sum to {total}, "
                                 f"over the limit {MAX_POOL_DEGREE}")
            if not is_irreducible(f):
                raise ValueError(f"constituents[{i}]: constituent {f!r} is reducible")
            first = seen.setdefault(f, i)
            if first != i:
                raise ValueError(f"constituents[{i}]: repeats constituents[{first}]; "
                                 "constituents must be pairwise distinct")
        self.field = field
        self.constituents = constituents
        self._degrees = tuple(f.degree for f in constituents)
        self._total = total
        # subset size -> (layout, constituents packed in it), on first compose
        self._composers: dict[int, tuple[_Slots, tuple[int, ...]]] = {}
        # a residue-pass slot sums at most total + 1 products of two residues
        self._residues = layout = _Slots(field.p, _slot_width(field.p, total + 1), total)
        width = layout.stride
        # block i holds the residue mod constituent i, one slot per
        # coefficient below its degree; _folds has, per block, the bit
        # offset of its top slot and f_i's lower coefficients packed in
        # place, and _tops masks every block's top slot
        blocks, folds, start = [], [], 0
        for f, d in zip(constituents, self._degrees):
            blocks.append(((1 << d * width) - 1) << start * width)
            folds.append(((start + d - 1) * width, layout.pack(f.coeffs[:-1]) << start * width))
            start += d
        self._blocks, self._folds = tuple(blocks), tuple(folds)
        self._tops = sum(1 << shift for shift, _ in folds) * ((1 << width) - 1)
        # row j: the residues X^j mod every constituent, built on first
        # need; row 0 is a 1 in every block's lowest slot
        self._rows = [sum(block & -block for block in blocks)]

    @property
    def n(self) -> int:
        return len(self.constituents)

    def _composer(self, r: int) -> tuple[_Slots, tuple[int, ...]]:
        """The layout of r-subset products and the constituents packed in it.

        A product's coefficients are at most the product of its factors'
        coefficient sums, each at most (degree + 1) * (p - 1), so the r
        longest constituents bound every r-subset's by some x < 2**w, and
        the r highest degrees bound its slots.
        """
        p, longest = self.field.p, sorted(self._degrees, reverse=True)[:r]
        w = math.prod((d + 1) * (p - 1) for d in longest).bit_length()
        layout = _Slots(p, w, 1 + sum(longest), word=True)
        self._composers[r] = entry = layout, tuple(layout.pack(f.coeffs) for f in self.constituents)
        return entry

    def compose(self, subset: Iterable[int]) -> Polynomial:
        """Product of the selected generators, as one product of packed ints
        with every slot reduced at once; the empty product is the unit,
        Polynomial.one."""
        indices = validated_indices(subset, self.n)
        layout, packed = self._composers.get(len(indices)) or self._composer(len(indices))
        value = 1
        for i in indices:
            value *= packed[i]
        # a product of monic factors is monic: its top slot holds a 1
        coeffs = layout.unpack(layout.reduce(value))
        return Polynomial._from_reduced(self.field, tuple(coeffs))

    def _rows_to(self, degree: int) -> list[int]:
        """The residue rows 0..degree (and any built before)."""
        rows, p, width = self._rows, self.field.p, self._residues.stride
        mask, reduce = (1 << width) - 1, self._residues.reduce
        while len(rows) <= degree:
            # X * (X^j mod f) mod f: every slot moves up one; a block's top
            # slot t leaves it and comes back as (p - t) times f's lower part
            tops = rows[-1] & self._tops
            row = (rows[-1] ^ tops) << width
            for shift, lower in self._folds:
                t = tops >> shift & mask
                if t:
                    row += (p - t) * lower
            rows.append(reduce(row))
        return rows

    def decompose(self, element: Polynomial) -> tuple[int, ...]:
        """The unique index subset whose compose equals the element.

        One residue pass finds every constituent that divides the
        element: the sum of c_j times row j over the element's
        coefficients c_j holds, in block i, the remainder mod f_i, and
        one slot reduction mod p shows which blocks are zero.  The
        element decomposes exactly when it is monic and the degrees of
        its constituent divisors sum to its degree, since distinct monic
        irreducibles are coprime.  The unit element decomposes to the
        empty subset.
        """
        if element.field is not self.field and element.field != self.field:
            raise ValueError("element is not defined over the pool's field")
        coeffs = element.coeffs
        if not coeffs:
            raise NotDecomposableError("the zero polynomial is not decomposable")
        degree, monic = len(coeffs) - 1, coeffs[-1] == 1
        if degree > self._total:
            # the constituents divide the element exactly when they divide
            # its remainder mod their product, which keeps every slot sum
            # within total + 1 products and the rows within total + 1
            coeffs = (element % self.compose(range(self.n))).coeffs
        rows, p = self._rows_to(len(coeffs) - 1), self.field.p
        if p == 2:  # every nonzero digit is a 1
            acc = sum(compress(rows, coeffs))
        else:
            acc = 0
            for c, row in zip(coeffs, rows):
                if c:
                    acc += row if c == 1 else c * row
        residues = self._residues.reduce(acc)
        found = [i for i, block in enumerate(self._blocks) if not residues & block]
        if monic and sum(self._degrees[i] for i in found) == degree:
            return tuple(found)
        remaining = element
        for i in found:
            remaining //= self.constituents[i]
        # the constituents are coprime, so one still dividing the rest is
        # exactly one that divides the element twice
        for i in found:
            if not remaining % self.constituents[i]:
                raise NotSquarefreeError(f"constituent #{i} divides the element more than once")
        raise NotDecomposableError(f"factor {remaining!r} is not a pool constituent")

    def element_to_json(self, f: Polynomial):
        """An element as documents write it: hex for p = 2, else a coefficient list."""
        return f.to_hex() if self.field.p == 2 else list(f.coeffs)

    def to_json(self) -> dict:
        items = [self.element_to_json(f) for f in self.constituents]
        return {"backend": "poly", "p": self.field.p, "constituents": items}

    @classmethod
    def from_json(cls, obj: dict) -> "PolynomialPool":
        field = PrimeField(obj["p"])
        polys = []
        for i, item in enumerate(obj["constituents"]):
            read = Polynomial.from_hex if isinstance(item, str) else Polynomial.from_coefficients
            try:
                polys.append(read(item, field))
            except ValueError as exc:
                raise ValueError(f"constituents[{i}]: {exc}") from None
        return cls(polys)

    def __repr__(self) -> str:
        return f"PolynomialPool(n={self.n}, p={self.field.p})"


class SubsetPool:
    """Abstract backend: a decomposable element is its own index set."""

    backend = "set"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("pool size must be positive")
        self.n = n

    def compose(self, subset: Iterable[int]) -> frozenset[int]:
        """The index set itself; the empty set is the unit."""
        return frozenset(validated_indices(subset, self.n))

    def decompose(self, element: Iterable[int]) -> tuple[int, ...]:
        indices = tuple(sorted(set(element)))
        if indices and (indices[0] < 0 or indices[-1] >= self.n):
            raise NotDecomposableError(
                f"indices must lie in 0..{self.n - 1}, got {indices}"
            )
        return indices

    def element_to_json(self, element: Iterable[int]) -> list[int]:
        """An element as documents write it: its sorted index list."""
        return sorted(element)

    def to_json(self) -> dict:
        return {"backend": "set", "n": self.n}

    @classmethod
    def from_json(cls, obj: dict) -> "SubsetPool":
        return cls(obj["n"])

    def __repr__(self) -> str:
        return f"SubsetPool(n={self.n})"


def pool_from_json(obj: dict):
    """Dispatch on the "backend" key of a pool JSON document."""
    backend = obj["backend"]
    if backend == "poly":
        return PolynomialPool.from_json(obj)
    if backend == "set":
        return SubsetPool.from_json(obj)
    raise ValueError(f"unknown pool backend {backend!r}")


def full_alphabet(pool, code) -> list:
    """Compose every codeword of a code, in code order.

    ``code`` may be a ConstantWeightCode or any iterable of index tuples.
    """
    codewords = getattr(code, "codewords", code)
    return [pool.compose(cw) for cw in codewords]
