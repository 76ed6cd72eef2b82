"""Compatibility graphs over k-subsets and maximum clique search.

Vertices are all C(n, k) k-subsets of {0..n-1} in lexicographic order.
In "at least" mode two subsets are adjacent when their symmetric
distance is >= d, so cliques are exactly the (n, k, d) constant weight
codes.  In "exact" mode adjacency requires distance exactly d, the
generalized Johnson graph J(n, k, d/2).

Adjacency rows are computed when they are first read and cached on
the graph, bit-sliced, on the intersection-count kernel that the code
module's decoder and minimum distance share
(code._intersection_planes).  For each ground element i one membership
bitset holds the vertices that contain i.  Adding the k membership
bitsets of a vertex A with a ripple-carry bitwise counter gives
k.bit_length() bit planes, which hold |A & B| for every vertex B at
once; comparing the planes with target = k - d/2 from the top bit down
selects A's row.  Two subsets are at distance 2 * (k - |A & B|), so
when d > 2k the target is negative, no pair qualifies and the graph is
edgeless; the planes are never compared with a negative target, whose
sign bits they cannot represent.

Adjacency rows are Python integers used as bitsets.  The search is
branch and bound with a greedy sequential colouring bound (Tomita and
Seki's MCQ, in the bitset form of San Segundo et al.'s BBMC): the
candidates are split into colour classes of pairwise non-adjacent
vertices, so a clique among the first classes has at most as many
members as there are classes.  Vertices are branched in reverse colour
order and a vertex of colour c is pruned when the clique so far plus c
cannot beat the best.  An optional external upper bound (from the
bounds module) ends the search as soon as it is met, which proves
optimality early.

Both searches start two levels down, at vertex 0 and one neighbour
per orbit.  A permutation of {0..n-1} maps k-subsets to k-subsets and
keeps every intersection size, so S_n acts on the graph by
automorphisms, and it acts transitively on the vertices.  Hence some
maximum clique contains vertex 0, and every vertex lies in the same
number c0 of cliques of size s.  Counting the pairs (vertex, s-clique
through it) both ways gives V * c0 = s * N, so N = V * c0 / s.

One level further down, the stabiliser of vertex 0 = {0..k-1} is
S_k x S_{n-k}.  It keeps |u & vertex 0|, and it is transitive on the
vertices u with a given intersection size i, so it has one orbit O_i
per i, of C(k, i) * C(n-k, k-i) vertices.  Adjacency to vertex 0
depends on i alone, so each orbit lies wholly inside or outside N(0).
Its permutations fix vertex 0, so every u in an orbit O lies in the
same number c(0, u_O) of s-cliques through vertex 0, the number of
(s-2)-cliques in N(0) & N(u_O).  Counting the pairs (u, s-clique
through 0 and u) both ways gives (s-1) * c0 = sum over the orbits O in
N(0) of |O| * c(0, u_O), and so N = V * pairs / (s * (s-1)).  Likewise
a maximum clique of size at least 2 through vertex 0 is mapped onto
one through vertex 0 and the lowest vertex u_O of some orbit, so
max_clique branches on one u_O per orbit after its greedy seed.

Both searches therefore branch only inside N(0) & N(u_O), and they read
only the rows of vertex 0 and of N(0): a greedy seed that meets the
upper bound reads only its own rows, and the other V - 1 - |N(0)| rows
are never computed.  The searches read the rows straight from the
graph's cache, whose other entries stay None and are never read.  The
colouring's mask of each vertex of {0} and N(0), ``others``, is built
by the first search that fills the rows of N(0) and kept on the graph,
so a count after a search on the same graph reuses it.  Filling the
rows of N(0) obeys the search's deadline, checked once per block of
ROW_BLOCK rows; a pass cut short keeps no masks.

Everything is deterministic for a fixed vertex order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from cwlattice.code import ConstantWeightCode, _bits, _intersection_planes, _members

MAX_GROUND_SET = 24
MAX_VERTICES = 20000
DEFAULT_COUNT_CAP = 10 ** 6
# rows filled between two reads of a search's deadline
ROW_BLOCK = 256


class _Stop(Exception):
    """Ends a search; ``complete`` when it met the upper bound, not the deadline or the cap."""

    def __init__(self, complete: bool = False):
        self.complete = complete


@dataclass(frozen=True)
class CompatibilityGraph:
    """The graph of the parameters (n, k, d, exact); its rows are computed on first read.

    ``vertices`` and the rows are derived, not arguments, so every graph
    has S_n acting on it as the counting code assumes.  ``row(v)``
    computes and caches one row; ``adjacency`` is the tuple of every
    row, filling the missing ones.
    """

    n: int
    k: int
    d: int
    exact: bool = False
    vertices: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _membership: list[int] = field(init=False, repr=False, compare=False)
    _rows: list[int | None] = field(init=False, repr=False, compare=False)
    _others: list[int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k, d = self.n, self.k, self.d
        if not 1 <= k <= n <= MAX_GROUND_SET:
            raise ValueError(f"need 1 <= k <= n <= {MAX_GROUND_SET}, got k={k}, n={n}")
        if d % 2 or d < 2:
            raise ValueError(f"distance must be a positive even number, got {d}")
        # checked before the subsets are listed: C(24, 12) of them take 415 MB
        size = math.comb(n, k)
        if size > MAX_VERTICES:
            raise ValueError(f"graph would have {size} vertices, over the limit {MAX_VERTICES}")
        vertices = tuple(itertools.combinations(range(n), k))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_membership", _members(vertices, n))
        object.__setattr__(self, "_rows", [None] * size)
        object.__setattr__(self, "_others", None)

    @property
    def adjacency(self) -> tuple[int, ...]:
        """Every row of the graph, computing the ones not read yet."""
        return tuple(map(self.row, range(len(self.vertices))))

    def row(self, v: int) -> int:
        """The adjacency row of vertex v as a bitset, computed once and cached."""
        row = self._rows[v]
        if row is not None:
            return row
        k = self.k
        # symmetric distance of equal-size sets: 2 * (k - |intersection|)
        target = k - self.d // 2
        row = 0
        if target >= 0:
            width = k.bit_length()
            # planes[j] holds bit j of |vertex v & vertex b| at bit b
            planes = _intersection_planes(self._membership, self.vertices[v], width)
            # compare with target from the top bit: equal so far, and already below
            equal, below = (1 << len(self.vertices)) - 1, 0
            for j in reversed(range(width)):
                if target >> j & 1:
                    below |= equal & ~planes[j]
                    equal &= planes[j]
                else:
                    equal &= ~planes[j]
            # v's own count is k > target, so no row holds its own bit
            row = equal if self.exact else equal | below
        self._rows[v] = row
        return row

    def __len__(self) -> int:
        return len(self.vertices)

    def is_clique(self, verts) -> bool:
        verts = list(verts)
        return all(self.row(u) >> v & 1 for u, v in itertools.combinations(verts, 2))


def build_graph(n: int, k: int, d: int, exact: bool = False) -> CompatibilityGraph:
    """The subset compatibility graph for the given parameters; rows are computed on first read."""
    return CompatibilityGraph(n, k, d, exact)


@dataclass
class CliqueResult:
    size: int
    witnesses: tuple[tuple[int, ...], ...]
    complete: bool
    elapsed: float
    nodes: int


@dataclass
class CountResult:
    count: int
    capped: bool
    complete: bool
    elapsed: float
    nodes: int


def _greedy_clique(graph: CompatibilityGraph) -> list[int]:
    """Greedy clique in lexicographic order: add each vertex adjacent to all so far.

    S_n makes every vertex degree equal, so ordering by degree instead
    would give the same order and the same clique.
    """
    cand = (1 << len(graph)) - 1
    clique = []
    while cand:
        v = (cand & -cand).bit_length() - 1
        clique.append(v)
        cand &= graph.row(v)
    return clique


def _neighbour_orbits(graph: CompatibilityGraph) -> list[tuple[int, int]]:
    """(lowest vertex u_O, |O|) for each orbit O of vertex 0's stabiliser inside N(0).

    Orbit O_i holds the vertices that meet vertex 0 = {0..k-1} in i
    elements (see the module docstring); its lowest vertex in
    lexicographic order is {0..i-1} + {k..2k-i-1}.  The orbits come in
    ascending order of u_O (descending i), the order in which the
    colouring search branches on low indices first: on (11,5,6), whose
    optimal code meets in 2 points only, the other order exhausts the
    i = 0 orbit before it finds the bound.
    """
    n, k = graph.n, graph.k
    orbits = []
    for i in reversed(range(max(0, 2 * k - n), k)):
        u = graph.vertices.index(tuple(range(i)) + tuple(range(k, 2 * k - i)))
        if graph.row(0) >> u & 1:
            orbits.append((u, math.comb(k, i) * math.comb(n - k, k - i)))
    return orbits


def _neighbourhood_others(graph: CompatibilityGraph, deadline: float | None) -> list[int] | None:
    """``others[v] = ~(row | 1 << v)`` for the colouring, for vertex 0 and N(0), and 0 elsewhere.

    Computes the rows of vertex 0 and of N(0), all a search reads, into
    the graph's cache, and keeps the finished list on the graph for the
    next search.  Returns None, keeping nothing, when the deadline, read
    after each block of ROW_BLOCK rows, has passed.
    """
    if graph._others is not None:
        return graph._others
    others = [0] * len(graph)
    for i, v in enumerate(itertools.chain((0,), _bits(graph.row(0))), 1):
        others[v] = ~(graph.row(v) | 1 << v)
        if i % ROW_BLOCK == 0 and deadline is not None and time.monotonic() >= deadline:
            return None
    object.__setattr__(graph, "_others", others)
    return others


def _colour_classes(cands: int, others: list[int], kmin: int) -> tuple[list[int], list[int]]:
    """Greedy sequential colouring of the candidate set.

    Each colour class takes the highest remaining index first, then the
    highest index not adjacent to anything already in the class (``others[v]``
    masks out v and its neighbours), so low indices fill the last classes
    and are branched first.  Returns the vertices of colour >= kmin with
    their colours, in ascending colour order; a clique among the vertices
    up to position i has at most ``colours[i]`` members.
    """
    verts: list[int] = []
    colours: list[int] = []
    colour = 0
    while cands:
        colour += 1
        free = cands
        while free:
            v = free.bit_length() - 1
            free &= others[v]
            cands ^= 1 << v
            if colour >= kmin:
                verts.append(v)
                colours.append(colour)
    return verts, colours


def max_clique(
    graph: CompatibilityGraph,
    upper_bound: int | None = None,
    timeout: float | None = None,
) -> CliqueResult:
    """Exact maximum clique size with one witness.

    ``upper_bound`` lets the search stop as soon as a clique meeting a
    proven cap is found.  The timeout is checked once per block of rows
    while the rows of N(0) are computed, and at every search node, since
    one node of a large graph costs milliseconds; on timeout the best
    clique so far (the greedy one, with no nodes, if the rows were not
    all computed) is returned flagged incomplete.
    """
    started = time.monotonic()
    deadline = started + timeout if timeout is not None else None
    best_verts = _greedy_clique(graph)
    best, nodes = len(best_verts), 0
    rows = graph._rows

    def expand(chosen: list[int], cands: int) -> None:
        nonlocal best, best_verts, nodes
        nodes += 1
        if deadline is not None and time.monotonic() >= deadline:
            raise _Stop(False)
        size = len(chosen)
        if not cands:
            if size > best:
                best = size
                best_verts = sorted(chosen)
                if upper_bound is not None and size >= upper_bound:
                    raise _Stop(True)
            return
        verts, colours = _colour_classes(cands, others, best - size + 1)
        for i in range(len(verts) - 1, -1, -1):
            if size + colours[i] <= best:
                return
            v = verts[i]
            chosen.append(v)
            expand(chosen, cands & rows[v])
            chosen.pop()
            cands ^= 1 << v

    # complete at once when the greedy clique meets the bound; not when the row pass times out
    complete = upper_bound is not None and best >= upper_bound
    if not complete and (others := _neighbourhood_others(graph, deadline)) is not None:
        try:
            # some maximum clique of size >= 2 contains vertex 0 and one u_O
            for u, _ in _neighbour_orbits(graph):
                expand([0, u], rows[0] & rows[u])
            complete = True
        except _Stop as stop:
            complete = stop.complete
    return CliqueResult(
        size=best,
        witnesses=(tuple(best_verts),) if best_verts else (),
        complete=complete,
        elapsed=time.monotonic() - started,
        nodes=nodes,
    )


def count_maximum_cliques(
    graph: CompatibilityGraph,
    size: int,
    cap: int = DEFAULT_COUNT_CAP,
    timeout: float | None = None,
) -> CountResult:
    """Exact count of cliques of the given size (the known maximum).

    Counts the cliques through vertex 0 and one vertex u_O per orbit of
    its stabiliser, weighted by the orbit size, and scales the pair sum
    by V / (size * (size - 1)), which the symmetry makes exact (see the
    module docstring).  Stops early when the count exceeds ``cap`` or
    the timeout, checked once per block of rows while the rows of N(0)
    are computed and at every node, expires, flagging the result
    accordingly; the count of the partial pair sum is then a lower bound.
    """
    if size < 1:
        raise ValueError("clique size must be positive")
    V = len(graph)
    started = time.monotonic()
    if size == 1:
        return CountResult(
            count=V, capped=False, complete=True, elapsed=time.monotonic() - started, nodes=0
        )
    deadline = started + timeout if timeout is not None else None
    rows = graph._rows
    pairs = nodes = 0
    capped = False
    # the count so far, pairs * V // scale, exceeds cap once pairs * V >= limit
    scale = size * (size - 1)
    limit = (cap + 1) * scale

    def tally(found: int) -> None:
        nonlocal pairs, capped
        pairs += found
        if pairs * V >= limit:
            capped = True
            raise _Stop

    def rec(cands: int, need: int, weight: int) -> None:
        nonlocal nodes
        nodes += 1
        if deadline is not None and time.monotonic() >= deadline:
            raise _Stop
        if need == 1:
            tally(weight * cands.bit_count())
            return
        # a clique of `need` vertices needs `need` colours: lower ones never start one
        verts, _ = _colour_classes(cands, others, need)
        for v in reversed(verts):
            cands ^= 1 << v
            sub = cands & rows[v]
            if sub.bit_count() >= need - 1:
                rec(sub, need - 1, weight)

    # a timeout in the row pass leaves the count at 0 in 0 nodes, incomplete
    others = _neighbourhood_others(graph, deadline)
    complete = others is not None
    if complete:
        try:
            for u, weight in _neighbour_orbits(graph):
                if size == 2:
                    tally(weight)
                else:
                    rec(rows[0] & rows[u], size - 2, weight)
        except _Stop:
            complete = False
    # checked with raise, not assert, so that python -O keeps them
    if complete and pairs % (size - 1):
        raise ValueError(
            f"stabiliser of vertex 0 does not act on the graph: {pairs} pairs "
            f"through vertex 0 are not a multiple of {size - 1}"
        )
    if complete and pairs // (size - 1) * V % size:
        raise ValueError("graph is not vertex-transitive")
    return CountResult(
        count=pairs * V // scale,
        capped=capped,
        complete=complete,
        elapsed=time.monotonic() - started,
        nodes=nodes,
    )


def extract_code(graph: CompatibilityGraph, clique) -> ConstantWeightCode:
    """Turn a clique's vertices into the constant weight code they form."""
    verts = sorted(set(clique))
    if verts and (verts[0] < 0 or verts[-1] >= len(graph)):
        raise ValueError("clique contains unknown vertex indices")
    if not graph.is_clique(verts):
        raise ValueError("vertex set is not a clique of the graph")
    return ConstantWeightCode(graph.n, [graph.vertices[v] for v in verts])
