"""Pools of constituent elements with unique compose/decompose.

A pool fixes an ordered list of n pairwise non-dividing constituents.
``compose`` maps a strictly increasing index subset to the element it
generates; ``decompose`` recovers the subset, which is unique because
distinct squarefree products of distinct irreducibles are distinct.

Two backends are provided.  PolynomialPool holds monic irreducible
polynomials over one prime field and composes by multiplying the
generators; decomposition is trial division.  SubsetPool is the
purely combinatorial backend where elements are the index sets
themselves.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from cwlattice.code import validated_indices
from cwlattice.gf import Polynomial, PrimeField, is_irreducible


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

    @property
    def n(self) -> int:
        return len(self.constituents)

    def compose(self, subset: Iterable[int]) -> Polynomial:
        """Product of the selected generators."""
        indices = validated_indices(subset, self.n)
        out = Polynomial.one(self.field)
        for i in indices:
            out = out * self.constituents[i]
        return out

    def decompose(self, element: Polynomial) -> tuple[int, ...]:
        """The unique index subset whose compose equals the element.

        Found by one trial division per constituent, stopping once the
        quotient is constant.  The unit element decomposes to the empty
        subset.
        """
        if element.field != self.field:
            raise ValueError("element is not defined over the pool's field")
        if not element:
            raise NotDecomposableError("the zero polynomial is not decomposable")
        remaining = element
        found = []
        for i, f in enumerate(self.constituents):
            if remaining.degree < 1:
                break
            quotient, rem = divmod(remaining, f)
            if not rem:
                found.append(i)
                remaining = quotient
        if remaining != Polynomial.one(self.field):
            # the constituents are coprime, so one still dividing the
            # rest is exactly one that divides the element twice
            for i in found:
                if not remaining % self.constituents[i]:
                    raise NotSquarefreeError(
                        f"constituent #{i} divides the element more than once"
                    )
            raise NotDecomposableError(
                f"factor {remaining!r} is not a pool constituent"
            )
        return tuple(found)

    def to_json(self) -> dict:
        if self.field.p == 2:
            items = [f.to_hex() for f in self.constituents]
        else:
            items = [list(f.coeffs) for f in self.constituents]
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
