"""Pools of constituent elements with unique compose/decompose.

A pool fixes an ordered list of n pairwise non-dividing constituents.
``compose`` maps a strictly increasing index subset to the element it
generates; ``decompose`` recovers the subset, which is unique because
distinct squarefree products of distinct irreducibles are distinct.

Two backends are provided.  PolynomialPool holds monic irreducible
polynomials over one prime field and composes by multiplying the
generators in one product of packed ints; decomposition divides the
packed element by each constituent in turn.  SubsetPool is the
purely combinatorial backend where elements are the index sets
themselves.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from cwlattice.code import validated_indices
from cwlattice.gf import (
    Polynomial,
    PrimeField,
    _exact_quotient,
    _pack,
    _slot_width,
    _unpack,
    is_irreducible,
)


class NotDecomposableError(ValueError):
    """A nontrivial factor remains after dividing out all constituents."""


class NotSquarefreeError(ValueError):
    """Some constituent divides the element more than once."""


class PolynomialPool:
    """Constituents are monic irreducible polynomials over one prime field."""

    backend = "poly"

    def __init__(self, constituents: Sequence[Polynomial]):
        constituents = tuple(constituents)
        if not constituents:
            raise ValueError("pool needs at least one constituent")
        field = constituents[0].field
        for f in constituents:
            if f.field != field:
                raise ValueError("all constituents must share one field")
            if not f.is_monic:
                raise ValueError(f"constituent {f!r} is not monic")
            if not is_irreducible(f):
                raise ValueError(f"constituent {f!r} is reducible")
        if len(set(constituents)) != len(constituents):
            raise ValueError("constituents must be pairwise distinct")
        self.field = field
        self.constituents = constituents
        # slot width -> the constituents packed at that width
        self._packed: dict[int, tuple[int, ...]] = {}
        # decompose divides dividends with reduced slots (the element, then
        # quotients) by constituents of at most this many coefficients
        self._division_width = _slot_width(field.p, max(len(f.coeffs) for f in constituents))

    @property
    def n(self) -> int:
        return len(self.constituents)

    def _packed_at(self, w: int) -> tuple[int, ...]:
        packed = self._packed.get(w)
        if packed is None:
            packed = self._packed[w] = tuple(_pack(f.coeffs, w) for f in self.constituents)
        return packed

    def compose(self, subset: Iterable[int]) -> Polynomial:
        """Product of the selected generators, as one product of packed ints."""
        indices = validated_indices(subset, self.n)
        lengths = [len(self.constituents[i].coeffs) for i in indices]
        # every coefficient of the product is at most the product of the
        # factors' coefficient sums, each at most len * (p - 1)
        w = math.prod(length * (self.field.p - 1) for length in lengths).bit_length()
        packed = self._packed_at(w)
        value = 1
        for i in indices:
            value *= packed[i]
        return Polynomial(self.field, _unpack(value, sum(lengths) - len(lengths) + 1, w))

    def decompose(self, element: Polynomial) -> tuple[int, ...]:
        """The unique index subset whose compose equals the element.

        The element is packed once and divided in packed form by each
        constituent in turn, stopping once the quotient is constant.  The
        unit element decomposes to the empty subset.
        """
        if element.field != self.field:
            raise ValueError("element is not defined over the pool's field")
        if not element:
            raise NotDecomposableError("the zero polynomial is not decomposable")
        p, w = self.field.p, self._division_width
        packed = self._packed_at(w)
        remaining, top = _pack(element.coeffs, w), element.degree
        found = []
        for i, f in enumerate(self.constituents):
            if top < 1:
                break
            # constituents are monic, so the lead inverse is 1
            q = _exact_quotient(remaining, top, packed[i], f.degree + 1, 1, p, w)
            if q is not None:
                found.append(i)
                remaining, top = q, top - f.degree
        if remaining != 1:  # packed, the unit polynomial is the int 1
            # the constituents are coprime, so one still dividing the
            # rest is exactly one that divides the element twice
            for i in found:
                n = self.constituents[i].degree + 1
                if _exact_quotient(remaining, top, packed[i], n, 1, p, w) is not None:
                    raise NotSquarefreeError(
                        f"constituent #{i} divides the element more than once"
                    )
            factor = Polynomial(self.field, _unpack(remaining, top + 1, w))
            raise NotDecomposableError(f"factor {factor!r} is not a pool constituent")
        return tuple(found)

    def element_to_json(self, f: Polynomial):
        """An element as documents write it: hex for p = 2, else a coefficient list."""
        return f.to_hex() if self.field.p == 2 else list(f.coeffs)

    def to_json(self) -> dict:
        items = [self.element_to_json(f) for f in self.constituents]
        return {"backend": "poly", "p": self.field.p, "constituents": items}

    @classmethod
    def from_json(cls, obj: dict) -> "PolynomialPool":
        field = PrimeField(obj["p"])
        raw = obj["constituents"]
        polys = []
        for item in raw:
            if isinstance(item, str):
                polys.append(Polynomial.from_hex(item, field))
            else:
                polys.append(Polynomial(field, item))
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
        return frozenset(validated_indices(subset, self.n))

    def decompose(self, element: Iterable[int]) -> tuple[int, ...]:
        indices = tuple(sorted(set(element)))
        if indices and (indices[0] < 0 or indices[-1] >= self.n):
            raise NotDecomposableError(
                f"indices must lie in 0..{self.n - 1}, got {indices}"
            )
        return indices

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
