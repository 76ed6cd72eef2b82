"""Finite lattices given by Hasse diagrams.

A lattice is entered as its element labels plus a list of cover pairs
(lower, upper).  The order is stored as Python-int bitset rows, the
representation the clique graphs use: ``up[i]`` holds the elements
>= i, ``down[i]`` the elements <= i and ``cover_up[i]`` the upper
covers of i.  Construction closes the given pairs in one pass each way
over a topological order of them (Kahn's; a cycle is the case where the
order misses an element): in forward order each down row passes on to
its element's given successors, and in reverse order each up row ORs
in the rows of those successors.  The upper covers of i are the given
successors of i that lie strictly above no other one.  It then verifies
a unique top and bottom and a greatest lower bound for every pair, the
one check that grows as m^2.  Rows are distinct, so two dicts from row
to element are the whole meet and join: the meet of i and j is the
element whose down row is ``down[i] & down[j]``, the join the one whose
up row is ``up[i] & up[j]``.  Labels resolve by a direct dict lookup;
a label that is not a str is converted first.

On top of that the module computes meet-irreducible elements (in a
finite lattice, exactly the elements with one upper cover),
irredundant irreducible decompositions, upper semimodularity (checked
as Birkhoff's condition on pairs of upper covers, its equivalent in a
finite lattice), and freedom from diamond (M3) sublattices; together
the latter two are equivalent to every element having a unique
irredundant irreducible decomposition, which
``decomposition_theorem_report`` checks from both sides.

A set S of the meet-irreducibles above x meets above x exactly when all
of S lies above one upper cover y of x, so S meets in x exactly when it
hits every N_y, the candidates not above y.  The irredundant
decompositions are the minimal hitting sets of the N_y (Berge,
Hypergraphs, 1989), grown one cover at a time: a set that misses N_y
grows by each member of N_y, and a grown set is redundant exactly when
it contains a set that hit N_y already.  A set t grown by q misses every
other member of N_y, so only the hit sets whose one member of N_y is q
can lie inside it, and only those are compared: about n^3 row
operations for the bottom of M_n, not n^4.

``decomposition_theorem_report`` decides uniqueness without listing:
with F the union of the N_y that have one member, x has exactly one
decomposition iff F meets every N_y.  Every decomposition contains F,
so if F meets every N_y it is the only one.  Otherwise a decomposition
T meets some N_y missed by F at a q outside F; q is the sole member of
no N_y, so the candidates other than q still hit every N_y and hold a
decomposition without q, which is not T.

An optional commutative multiplication table compatible with the order
(xy <= x meet y) supports the prime and primary element tests.  The
sweep that validates the table also marks, as bitsets over the
elements, every x that some pair (a, b) refutes: ab <= x while
a, b are not <= x refutes x as prime, and ab <= x while neither a nor
any power of b is <= x refutes x as primary.  ``check_prime`` and
``check_primary`` then read one bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from cwlattice.code import _bits


class SizeLimitError(ValueError):
    """The lattice exceeds the configured scan bound."""


# the closure and cover scan take one row operation per given pair, and the
# pair check m^2 / 2 row meets and dict lookups: a 1024-element chain builds
# in about 0.1 s under CPython 3.11
MAX_LATTICE_ELEMENTS = 1024


class FiniteLattice:
    def __init__(self, elements: Sequence[str], covers: Iterable[tuple[str, str]]):
        labels = [str(e) for e in elements]
        if not labels:
            raise ValueError("lattice needs at least one element")
        if len(labels) > MAX_LATTICE_ELEMENTS:
            raise ValueError(
                f"lattice has {len(labels)} elements, over the limit {MAX_LATTICE_ELEMENTS}"
            )
        if len(set(labels)) != len(labels):
            raise ValueError("element labels must be distinct")
        self.elements = tuple(labels)
        self._index = {e: i for i, e in enumerate(labels)}
        m = len(labels)
        full = (1 << m) - 1

        succ: list[list[int]] = [[] for _ in range(m)]
        waiting = [0] * m  # given predecessors not yet in the order
        for n, (lo, hi) in enumerate(covers):
            try:
                i, j = self._pair(lo, hi)
            except ValueError as exc:
                raise ValueError(f"covers[{n}]: {exc}") from None
            if i == j:
                raise ValueError(f"cover ({lo}, {hi}) relates an element to itself")
            succ[i].append(j)
            waiting[j] += 1
        # Kahn's topological order, which closes down on the way: an
        # element enters it after all its given predecessors, so its down
        # row is complete and passes on to its successors.  An element on
        # or above a cycle never runs out of predecessors, so the order
        # misses it
        down = [1 << i for i in range(m)]
        order = [i for i in range(m) if not waiting[i]]
        for i in order:
            row = down[i]
            for j in succ[i]:
                down[j] |= row
                waiting[j] -= 1
                if not waiting[j]:
                    order.append(j)
        if len(order) != m:
            raise ValueError("cover relation contains a cycle")
        # up in reverse order: an element's row and its successors' rows
        up = [1 << i for i in range(m)]
        for i in reversed(order):
            row = up[i]
            for j in succ[i]:
                row |= up[j]
            up[i] = row
        self._up, self._down = up, down

        bottoms = [i for i in range(m) if up[i] == full]
        tops = [i for i in range(m) if down[i] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("order must have a unique bottom and a unique top")
        self._bottom, self._top = bottoms[0], tops[0]

        # every upper cover of i is a given successor (any other element
        # above i lies above one), and a given successor is a cover unless
        # it lies strictly above another
        self._cover_up = cover_up = [0] * m
        for i, row in enumerate(succ):
            given = above = 0
            for j in row:
                given |= 1 << j
                above |= up[j] ^ 1 << j
            cover_up[i] = given & ~above
        self._irreducible = sum(1 << i for i, row in enumerate(cover_up) if row.bit_count() == 1)

        # with a top, all meets existing makes every join exist (the meet
        # of the common upper bounds), so only meets are checked
        self._by_down = {row: i for i, row in enumerate(down)}
        self._by_up = {row: i for i, row in enumerate(up)}
        for i, row in enumerate(down):
            for j in range(i + 1, m):
                if row & down[j] not in self._by_down:
                    raise ValueError(
                        f"elements {labels[i]!r}, {labels[j]!r} lack a unique "
                        "greatest lower bound; the order is not a lattice"
                    )

    def _idx(self, label: str) -> int:
        try:
            return self._index[str(label)]
        except KeyError:
            raise ValueError(f"unknown lattice element {label!r}") from None

    def _pair(self, a: str, b: str) -> tuple[int, int]:
        """The indices of two labels by direct lookup; ``_idx`` converts
        a label that is not a str and names an unknown one."""
        index = self._index
        try:
            return index[a], index[b]
        except (KeyError, TypeError):
            return self._idx(a), self._idx(b)

    # order primitives -------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def top(self) -> str:
        return self.elements[self._top]

    @property
    def bottom(self) -> str:
        return self.elements[self._bottom]

    def leq(self, a: str, b: str) -> bool:
        i, j = self._pair(a, b)
        return bool(self._up[i] >> j & 1)

    def meet(self, a: str, b: str) -> str:
        i, j = self._pair(a, b)
        return self.elements[self._by_down[self._down[i] & self._down[j]]]

    def join(self, a: str, b: str) -> str:
        i, j = self._pair(a, b)
        return self.elements[self._by_up[self._up[i] & self._up[j]]]

    def covers(self, lower: str, upper: str) -> bool:
        return bool(self._cover_up[self._idx(lower)] >> self._idx(upper) & 1)

    def cover_pairs(self) -> list[tuple[str, str]]:
        return [
            (self.elements[i], self.elements[j])
            for i in range(len(self.elements))
            for j in _bits(self._cover_up[i])
        ]

    # structure --------------------------------------------------------

    def meet_irreducibles(self) -> list[str]:
        """Elements c except top with: c = d meet e implies c is d or e.

        In a finite lattice these are exactly the elements with one upper cover.
        """
        return [self.elements[c] for c in _bits(self._irreducible)]

    def irreducible_decompositions(self, x: str) -> list[frozenset[str]]:
        """All irredundant subsets of meet-irreducibles whose meet is x (the
        empty one for the top), fewest members first, then by ascending index.
        """
        xi = self._idx(x)
        cands = self._irreducible & self._up[xi]
        family = [0]
        for y in _bits(self._cover_up[xi]):
            missed = cands & ~self._up[y]
            # sole: the hit sets with one member in missed, by that member
            hit, missing, grown, sole = [], [], [], {}
            for s in family:
                inside = s & missed
                if not inside:
                    missing.append(s)
                    continue
                hit.append(s)
                if not inside & (inside - 1):
                    sole.setdefault(inside, []).append(s)
            # t | q, for t in missing, holds q and no other member of
            # missed, so only a hit set with that one member can lie in it
            for q in _bits(missed) if missing else ():
                bit = 1 << q
                inner = sole.get(bit, ())
                grown += [t | bit for t in missing if not any(h & ~(t | bit) == 0 for h in inner)]
            family = hit + grown
        members = sorted((tuple(_bits(s)) for s in family), key=lambda t: (len(t), t))
        return [frozenset(self.elements[q] for q in t) for t in members]

    def _decomposes_uniquely(self, x: int) -> bool:
        """Whether element index x has exactly one irredundant decomposition:
        the sole members of the N_y hit every N_y (module docstring)."""
        cands = self._irreducible & self._up[x]
        missed = [cands & ~self._up[y] for y in _bits(self._cover_up[x])]
        forced = 0  # the union of the one-member N_y
        for n_y in missed:
            if not n_y & (n_y - 1):
                forced |= n_y
        return all(n_y & forced for n_y in missed)

    def is_birkhoff(self) -> bool:
        """Upper semimodularity: if a covers a meet b, then a join b covers b.

        Checked as Birkhoff's condition (Birkhoff, Lattice Theory, 1967;
        Stern, Semimodular Lattices, 1999): the join of two upper covers
        of one element covers both.  Two covers a, b of c meet in c, so the
        condition is needed; it suffices by induction up a maximal chain
        a meet b = b0 < ... < bn = b: a join b_i covers b_i and differs
        from b_(i+1) (else a <= b), so a join b_(i+1) covers b_(i+1).
        """
        up, cover_up, by_up = self._up, self._cover_up, self._by_up
        for row in cover_up:
            covers = list(_bits(row))
            for n, a in enumerate(covers):
                up_a, over_a = up[a], cover_up[a]
                for b in covers[n + 1:]:
                    if not (over_a & cover_up[b]) >> by_up[up_a & up[b]] & 1:
                        return False
        return True

    def has_m3_sublattice(self, scan_limit: int | None = None) -> bool:
        """Whether some triple generates a diamond sublattice.

        An M3 sublattice is exactly three pairwise incomparable elements
        with one common pairwise meet and one common pairwise join.  A
        lattice of more than ``scan_limit`` elements, if one is given, raises
        SizeLimitError.
        """
        m = len(self.elements)
        if scan_limit is not None and m > scan_limit:
            raise SizeLimitError(
                f"lattice has {m} elements, over the scan limit {scan_limit}"
            )
        up, down = self._up, self._down
        full = (1 << m) - 1
        incomparable = [full ^ (u | d) for u, d in zip(up, down)]
        # rows are distinct, so equal rows are equal meets and joins, and
        # r can only lie between the meet and the join of p and q
        for p in range(m):
            down_p, up_p = down[p], up[p]
            for q in _bits(incomparable[p] >> (p + 1) << (p + 1)):
                down_q, up_q = down[q], up[q]
                meet_pq, join_pq = down_p & down_q, up_p & up_q
                between = up[self._by_down[meet_pq]] & down[self._by_up[join_pq]]
                for r in _bits(incomparable[p] & incomparable[q] & between >> (q + 1) << (q + 1)):
                    if meet_pq == down_p & down[r] == down_q & down[r] and \
                       join_pq == up_p & up[r] == up_q & up[r]:
                        return True
        return False

    def decomposition_theorem_report(self, scan_limit: int | None = None) -> "TheoremReport":
        """Evaluate both sides of the unique-decomposition equivalence."""
        return TheoremReport(
            unique_decomposition=all(map(self._decomposes_uniquely, range(len(self.elements)))),
            birkhoff=self.is_birkhoff(),
            m3_free=not self.has_m3_sublattice(scan_limit),
        )

    # serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "covers": [list(c) for c in self.cover_pairs()]}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteLattice":
        return cls(obj["elements"], [tuple(c) for c in obj["covers"]])

    def __repr__(self) -> str:
        return f"FiniteLattice({len(self.elements)} elements)"


@dataclass(frozen=True)
class TheoremReport:
    unique_decomposition: bool
    birkhoff: bool
    m3_free: bool

    @property
    def structural(self) -> bool:
        return self.birkhoff and self.m3_free

    @property
    def agree(self) -> bool:
        return self.unique_decomposition == self.structural

    def to_json(self) -> dict:
        return {
            "unique_decomposition": self.unique_decomposition,
            "birkhoff": self.birkhoff,
            "m3_free": self.m3_free,
            "structural": self.structural,
            "agree": self.agree,
        }


class MultiplicationTable:
    """Commutative multiplication on lattice elements with xy <= x meet y.

    ``rows[i][j]`` is the product of elements i and j, by label; a label
    the lattice lacks is reported at ``mult[i][j]``, the lattice
    document's field for the table.

    The validating sweep also collects the elements each pair refutes as
    prime or primary (module docstring); it visits each unordered pair
    once and refutes for both orders of it.
    """

    def __init__(self, lattice: FiniteLattice, rows: Sequence[Sequence[str]]):
        m = len(lattice)
        if len(rows) != m or any(len(r) != m for r in rows):
            raise ValueError(f"table must be {m}x{m} in element order")
        index = lattice._index
        table = []
        for i, row in enumerate(rows):
            try:
                line = [index[v] for v in row]
            except (KeyError, TypeError):
                line = []
                for j, v in enumerate(row):
                    try:
                        line.append(lattice._idx(v))
                    except ValueError as exc:
                        raise ValueError(f"mult[{i}][{j}]: {exc}") from None
            table.append(line)
        self.lattice = lattice
        self._table = table
        up = lattice._up
        # the elements above some power of b
        power_up = [0] * m
        for b in range(m):
            for x in self._powers(b):
                power_up[b] |= up[x]
        # the pairs i <= j reach the first fault of a scan over all pairs;
        # up[b] is a subset of power_up[b], so the elements a pair refutes
        # as primary are among those it refutes as prime
        not_prime = not_primary = 0
        for i in range(m):
            line, up_i, power_i = table[i], up[i], power_up[i]
            for j in range(i, m):
                prod = line[j]
                if prod != table[j][i]:
                    raise ValueError("multiplication must be commutative")
                above = up[prod]
                if not above >> i & above >> j & 1:
                    raise ValueError(
                        f"product of {lattice.elements[i]!r} and "
                        f"{lattice.elements[j]!r} is not below their meet"
                    )
                refuted = above & ~(up_i | up[j])
                if refuted:
                    not_prime |= refuted
                    not_primary |= refuted & ~(power_i & power_up[j])
        self._not_prime, self._not_primary = not_prime, not_primary

    def mul(self, a: str, b: str) -> str:
        lat = self.lattice
        return lat.elements[self._table[lat._idx(a)][lat._idx(b)]]

    def powers(self, b: str) -> list[str]:
        """b, b^2, ... until the power sequence repeats."""
        return [self.lattice.elements[i] for i in self._powers(self.lattice._idx(b))]

    def _powers(self, b: int) -> list[int]:
        seen: dict[int, None] = {}
        x = b
        while x not in seen:
            seen[x] = None
            x = self._table[x][b]
        return list(seen)

    def to_json(self) -> list[list[str]]:
        els = self.lattice.elements
        return [[els[v] for v in row] for row in self._table]


def check_prime(lattice: FiniteLattice, table: MultiplicationTable, p: str) -> bool:
    """p >= ab implies p >= a or p >= b, for all a, b."""
    return not table._not_prime >> lattice._idx(p) & 1


def check_primary(lattice: FiniteLattice, table: MultiplicationTable, q: str) -> bool:
    """q >= ab and q not >= a imply q >= b^s for some s."""
    return not table._not_primary >> lattice._idx(q) & 1


# ---------------------------------------------------------------------------
# bundled lattices

def chain(m: int) -> FiniteLattice:
    """The chain 0 < 1 < ... < m-1."""
    if m < 1:
        raise ValueError("chain needs at least one element")
    labels = [str(i) for i in range(m)]
    return FiniteLattice(labels, [(labels[i], labels[i + 1]) for i in range(m - 1)])


def boolean_lattice(k: int) -> FiniteLattice:
    """Subsets of a k-set ordered by inclusion, labeled as bit strings."""
    labels = [format(v, f"0{k}b") if k else "0" for v in range(1 << k)]
    covers = []
    for v in range(1 << k):
        for bit in range(k):
            if not v >> bit & 1:
                covers.append((labels[v], labels[v | (1 << bit)]))
    return FiniteLattice(labels, covers)


def diamond_m3() -> FiniteLattice:
    """M3: three pairwise incomparable atoms between bottom and top."""
    covers = [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")]
    return FiniteLattice(["0", "x", "y", "z", "1"], covers)


def pentagon_n5() -> FiniteLattice:
    """N5: the five-element non-modular lattice."""
    covers = [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
    return FiniteLattice(["0", "a", "c", "b", "1"], covers)


def irreducible_not_primary_example() -> tuple[FiniteLattice, MultiplicationTable]:
    """A six-element lattice with an N5 and a multiplication under which
    the meet-irreducible element d is not primary.

    The multiplication: xy = b for x, y in {a, b}; any product touching
    {c, d, e} is e; the top is the identity.  Then d >= e = bc while
    d is above neither c nor any power of b (b is idempotent).
    """
    elements = ["e", "b", "a", "c", "d", "1"]
    covers = [("e", "b"), ("b", "a"), ("a", "1"),
              ("e", "c"), ("c", "1"), ("e", "d"), ("d", "1")]
    lat = FiniteLattice(elements, covers)

    def prod(x: str, y: str) -> str:
        if x == "1":
            return y
        if y == "1":
            return x
        if x in ("a", "b") and y in ("a", "b"):
            return "b"
        return "e"

    rows = [[prod(x, y) for y in elements] for x in elements]
    return lat, MultiplicationTable(lat, rows)
