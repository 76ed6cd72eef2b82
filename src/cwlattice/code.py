"""Constant weight codes as sets of k-subsets of an n-element ground set.

The metric is the symmetric distance |A Δ B|, which is even between
equal-size sets.  For a set A and a k-set B it is |A| + k - 2|A ∩ B|,
so the codewords nearest to A are the ones with the largest
intersection with A.

Intersections are counted bit-sliced, for every set of a family at
once.  For each ground element i one membership bitset holds the sets
that contain i.  Adding the membership bitsets of the elements of A
with a ripple-carry bitwise counter gives k.bit_length() bit planes,
which hold |A ∩ S| for every set S; scanning the planes from the top
bit down keeps the sets with the largest count.  The compatibility
graph's rows (cliques.CompatibilityGraph.row), the minimum distance and
the decoder all use this one kernel, `_intersection_planes`, and the
graphs and lattices list a bitset's members with `_bits`.

Decoding is exhaustive minimum distance decoding; ties are surfaced as
an ambiguous result rather than broken silently, since a tie is a
detected error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def symmetric_distance(a: Iterable[int], b: Iterable[int]) -> int:
    """Cardinality of the symmetric difference of two finite sets."""
    return len(set(a) ^ set(b))


def _members(sets: Sequence[Sequence[int]], n: int) -> list[int]:
    """Membership bitsets: bit s of members[i] is set when sets[s] contains i."""
    size = len(sets)
    # written as binary digits: linear in the total size, where or-ing
    # one bit at a time into growing integers is quadratic
    digits = [bytearray(b"0") * size for _ in range(n)]
    for s, subset in enumerate(sets):
        for i in subset:
            digits[i][size - 1 - s] = ord("1")
    return [int(row, 2) for row in digits]


def _bits(x: int) -> Iterator[int]:
    """The members of the bitset x, the indices of its set bits, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _intersection_planes(members: Sequence[int], subset: Iterable[int], width: int) -> list[int]:
    """Bit j of |subset ∩ S| for every set S at once, as planes[j] at bit S.

    The membership bitsets of subset's elements are added with a
    ripple-carry bitwise counter.  Every count must fit in width bits,
    so that no carry leaves the top plane.
    """
    planes = [0] * width
    for i in subset:
        carry = members[i]
        j = 0
        while carry:
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
    return planes


def _largest(planes: Sequence[int], among: int) -> tuple[int, int]:
    """The largest count in planes over the sets in the bitset among, and
    the bitset of the sets that reach it, scanning from the top bit down."""
    best = 0
    for plane in reversed(planes):
        best <<= 1
        top = among & plane
        if top:
            among = top
            best |= 1
    return best, among


def validated_indices(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """The index set as a tuple, if strictly increasing and in 0..n-1."""
    indices = tuple(indices)
    for x, y in zip(indices, indices[1:]):
        if x >= y:
            raise ValueError(f"indices must be strictly increasing, got {indices}")
    if indices and (indices[0] < 0 or indices[-1] >= n):
        raise ValueError(f"indices must lie in 0..{n - 1}, got {indices}")
    return indices


# a code holds one membership bitset per ground element
MAX_GROUND_SIZE = 1 << 16


class ConstantWeightCode:
    """An (n, k, N, d) catalog of k-subset codewords, their membership bitsets and cached d_min."""

    def __init__(self, n: int, codewords: Sequence[Iterable[int]]):
        if n < 1:
            raise ValueError("ground set size must be positive")
        if n > MAX_GROUND_SIZE:
            raise ValueError(f"ground set size {n} is over the limit {MAX_GROUND_SIZE}")
        cws = [validated_indices(cw, n) for cw in codewords]
        if not cws:
            raise ValueError("code must contain at least one codeword")
        k = len(cws[0])
        if not k:
            raise ValueError("codewords must be nonempty")
        if any(len(cw) != k for cw in cws):
            raise ValueError("all codewords must have the same weight")
        if len(set(cws)) != len(cws):
            raise ValueError("codewords must be distinct")
        self.n = n
        self.k = k
        self.codewords = tuple(cws)
        self._ground = frozenset(range(n))
        self._members = _members(cws, n)
        self._width = k.bit_length()
        # the largest intersection of each codeword with a later one;
        # -(2 << s) keeps the codewords after s
        everyone = (1 << len(cws)) - 1
        closest = max(
            (
                _largest(_intersection_planes(self._members, cw, self._width), everyone & -(2 << s))[0]
                for s, cw in enumerate(cws[:-1])
            ),
            default=None,
        )
        self._d_min = None if closest is None else 2 * (k - closest)

    def __len__(self) -> int:
        return len(self.codewords)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantWeightCode)
            and other.n == self.n
            and set(other.codewords) == set(self.codewords)
        )

    def __repr__(self) -> str:
        d = self._d_min if self._d_min is not None else "?"
        return f"ConstantWeightCode(n={self.n}, k={self.k}, N={len(self)}, d={d})"

    @property
    def min_distance(self) -> int:
        if self._d_min is None:
            raise ValueError("minimum distance needs at least two codewords")
        return self._d_min

    def to_json(self) -> dict:
        obj = {
            "n": self.n,
            "k": self.k,
            "codewords": sorted(list(cw) for cw in self.codewords),
        }
        if self._d_min is not None:
            obj["d"] = self._d_min
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ConstantWeightCode":
        code = cls(obj["n"], obj["codewords"])
        for key, actual in (("k", code.k), ("d", code._d_min)):
            if obj.get(key) is not None and obj[key] != actual:
                found = ("a single codeword has no minimum distance" if actual is None
                         else f"the codewords have {key}={actual}")
                raise ValueError(f"catalog claims {key}={obj[key]} but {found}")
        return code


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of minimum distance decoding.

    ``candidates`` holds every codeword at the minimum distance, in code
    order.  A single candidate is a confident decode; several candidates
    mean the tie is reported as a detected error.
    """

    distance: int
    candidates: tuple[tuple[int, ...], ...]

    @property
    def ambiguous(self) -> bool:
        return len(self.candidates) > 1

    @property
    def codeword(self) -> tuple[int, ...] | None:
        return self.candidates[0] if len(self.candidates) == 1 else None


def decode(received: Iterable[int], code: ConstantWeightCode) -> DecodeResult:
    """Exhaustive arg-min of the symmetric distance over the code.

    The nearest codewords are those with the largest intersection with
    the received set, read off its intersection planes.
    """
    rec = set(received)
    if not rec <= code._ground:
        raise ValueError(f"received indices must lie in 0..{code.n - 1}")
    cws = code.codewords
    planes = _intersection_planes(code._members, rec, code._width)
    hits, winners = _largest(planes, (1 << len(cws)) - 1)
    if winners & (winners - 1):
        # a tie: the winners' set bits, lowest first, in codeword order; a
        # list sizes the tuple exactly, where tuple() of a generator guesses
        # and shrinks, which raised the peak memory of 6000 decodes by 0.9 MB
        candidates = tuple([cws[i] for i in _bits(winners)])
    else:
        candidates = (cws[winners.bit_length() - 1],)
    return DecodeResult(len(rec) + code.k - 2 * hits, candidates)


def guaranteed_correctable(code: ConstantWeightCode, t_errors: int, e_erasures: int) -> bool:
    """Whether t substitutions plus e erasures always decode correctly.

    A substitution moves the received set 2 away from the codeword, an
    erasure 1 away; the triangle inequality then guarantees a unique
    nearest codeword exactly when 2*(2t + e) < d_min.
    """
    if t_errors < 0 or e_erasures < 0:
        raise ValueError("error and erasure counts must be nonnegative")
    if t_errors == 0 and e_erasures == 0:
        return True
    return 2 * (2 * t_errors + e_erasures) < code.min_distance


def puncture(code: ConstantWeightCode, removed_index: int | None = None) -> ConstantWeightCode:
    """Delete one ground-set element and shrink every codeword to weight k-1.

    Codewords containing the removed element drop it; the others drop
    their largest index (a deterministic choice).  Requires d_min > 2 so
    that no two codewords merge; the result keeps N and loses at most 2
    of minimum distance.
    """
    if code.k < 2:
        raise ValueError("puncturing needs weight k >= 2")
    if len(code) >= 2 and code.min_distance <= 2:
        raise ValueError("puncturing requires minimum distance > 2")
    removed = code.n - 1 if removed_index is None else removed_index
    if not 0 <= removed < code.n:
        raise ValueError(f"removed index must lie in 0..{code.n - 1}")
    new_cws = []
    for cw in code.codewords:
        if removed in cw:
            kept = [i for i in cw if i != removed]
        else:
            kept = list(cw[:-1])
        # close the index gap left by the removed element
        new_cws.append(tuple(i - 1 if i > removed else i for i in kept))
    return ConstantWeightCode(code.n - 1, new_cws)


def rate(code: ConstantWeightCode, q: int) -> float:
    """Normalized rate log_q(N) / k of a code transmitted as k q-ary symbols."""
    if q <= code.n:
        raise ValueError(f"field size q={q} must exceed the pool size n={code.n}")
    return math.log(len(code), q) / code.k
