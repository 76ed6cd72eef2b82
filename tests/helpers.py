"""Independent oracles and generators shared across the test modules."""

from __future__ import annotations

import functools
import itertools
import random

import networkx as nx

from cwlattice import saf
from cwlattice.cliques import CompatibilityGraph
from cwlattice.code import ConstantWeightCode, DecodeResult, decode
from cwlattice.gf import Polynomial
from cwlattice.lattice import FiniteLattice
from cwlattice.pool import NotDecomposableError, NotSquarefreeError


def to_networkx(graph: CompatibilityGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(len(graph)))
    for v, mask in enumerate(graph.adjacency):
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            if u > v:
                G.add_edge(v, u)
    return G


def adjacency_oracle(n: int, k: int, d: int, exact: bool) -> tuple[int, ...]:
    """Adjacency rows of the compatibility graph, one vertex pair at a time."""
    masks = [sum(1 << i for i in cw) for cw in itertools.combinations(range(n), k)]
    # symmetric distance of equal-size sets: 2 * (k - |intersection|)
    target = k - d // 2
    adjacency = [0] * len(masks)
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            inter = (masks[a] & masks[b]).bit_count()
            if inter == target if exact else inter <= target:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return tuple(adjacency)


def nx_max_clique_size(graph: CompatibilityGraph) -> int:
    G = to_networkx(graph)
    return max((len(c) for c in nx.find_cliques(G)), default=0)


def brute_max_clique_size(graph: CompatibilityGraph) -> int:
    """Exhaustive subset scan; only for very small graphs."""
    V = len(graph)
    assert V <= 18, "exhaustive scan is exponential"
    adjacency = graph.adjacency
    best = 0
    for mask in range(1 << V):
        size = mask.bit_count()
        if size <= best:
            continue
        verts = [v for v in range(V) if mask >> v & 1]
        if all(adjacency[u] >> v & 1 for u, v in itertools.combinations(verts, 2)):
            best = size
    return best


class _OverLimit(Exception):
    pass


def count_cliques_oracle(graph: CompatibilityGraph, size: int, limit: int | None = None) -> int | None:
    """Cliques of the given size, each built once in ascending vertex order.

    Uses no symmetry and no colouring, unlike ``count_maximum_cliques``.
    With a limit, returns None as soon as more than ``limit`` are found.
    """
    adjacency = graph.adjacency
    V = len(adjacency)
    above = [~((1 << (v + 1)) - 1) for v in range(V)]
    total = 0

    def rec(cands: int, need: int) -> None:
        nonlocal total
        if need == 1:
            total += cands.bit_count()
            if limit is not None and total > limit:
                raise _OverLimit
            return
        mask = cands
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            sub = cands & adjacency[v] & above[v]
            if sub.bit_count() >= need - 1:
                rec(sub, need - 1)

    try:
        rec((1 << V) - 1, size)
    except _OverLimit:
        return None
    return total


def glb_oracle(lat: FiniteLattice, a: str, b: str) -> str:
    """Greatest lower bound recomputed directly from the order relation."""
    commons = [z for z in lat.elements if lat.leq(z, a) and lat.leq(z, b)]
    greatest = [z for z in commons if all(lat.leq(w, z) for w in commons)]
    assert len(greatest) == 1
    return greatest[0]


def lub_oracle(lat: FiniteLattice, a: str, b: str) -> str:
    commons = [z for z in lat.elements if lat.leq(a, z) and lat.leq(b, z)]
    least = [z for z in commons if all(lat.leq(z, w) for w in commons)]
    assert len(least) == 1
    return least[0]


def decompositions_oracle(lat: FiniteLattice, x: str) -> list[frozenset[str]]:
    """``irreducible_decompositions`` as the exhaustive subset scan: the meet
    of every subset of the meet-irreducibles above x, fewest members first
    and then in ascending element order, keeping each subset that meets in x
    and has no proper subset among those kept."""
    cands = [q for q in lat.meet_irreducibles() if lat.leq(x, q)]
    hits = [
        frozenset(combo)
        for r in range(len(cands) + 1)
        for combo in itertools.combinations(cands, r)
        if functools.reduce(lat.meet, combo, lat.top) == x
    ]
    return [h for h in hits if not any(other < h for other in hits)]


def semimodular_oracle(lat: FiniteLattice) -> bool:
    """Upper semimodularity over all pairs: if a covers a meet b, then a
    join b covers b."""
    return all(
        lat.covers(b, lat.join(a, b))
        for a in lat.elements
        for b in lat.elements
        if lat.covers(lat.meet(a, b), a)
    )


def m3_oracle(lat: FiniteLattice) -> bool:
    """Some pairwise incomparable triple has one common pairwise meet and
    one common pairwise join, so it generates a diamond sublattice."""
    for p, q, r in itertools.combinations(lat.elements, 3):
        if any(lat.leq(x, y) or lat.leq(y, x) for x, y in ((p, q), (p, r), (q, r))):
            continue
        if lat.meet(p, q) == lat.meet(p, r) == lat.meet(q, r) and \
           lat.join(p, q) == lat.join(p, r) == lat.join(q, r):
            return True
    return False


def prime_oracle(lat: FiniteLattice, table, p: str) -> bool:
    """p >= ab implies p >= a or p >= b, for all a, b."""
    return all(
        lat.leq(a, p) or lat.leq(b, p)
        for a in lat.elements
        for b in lat.elements
        if lat.leq(table.mul(a, b), p)
    )


def primary_oracle(lat: FiniteLattice, table, q: str) -> bool:
    """q >= ab and q not >= a imply q >= b^s for some s."""

    def some_power_below(b: str) -> bool:
        seen, x = [], b
        while x not in seen:
            if lat.leq(x, q):
                return True
            seen.append(x)
            x = table.mul(x, b)
        return False

    return all(
        some_power_below(b)
        for a in lat.elements
        for b in lat.elements
        if lat.leq(table.mul(a, b), q) and not lat.leq(a, q)
    )


def decompose_oracle(pool, element) -> tuple[int, ...]:
    """``PolynomialPool.decompose`` as a loop of Polynomial divisions.

    Divides by each constituent in turn, keeping the quotient when the
    remainder is zero; raises the same errors with the same messages.
    """
    if element.field != pool.field:
        raise ValueError("element is not defined over the pool's field")
    if not element:
        raise NotDecomposableError("the zero polynomial is not decomposable")
    remaining = element
    found = []
    for i, f in enumerate(pool.constituents):
        if remaining.degree < 1:
            break
        quotient, rem = divmod(remaining, f)
        if not rem:
            found.append(i)
            remaining = quotient
    if remaining.coeffs != (1,):
        for i in found:
            if not remaining % pool.constituents[i]:
                raise NotSquarefreeError(f"constituent #{i} divides the element more than once")
        raise NotDecomposableError(f"factor {remaining!r} is not a pool constituent")
    return tuple(found)


def ben_or_oracle(f: Polynomial) -> bool:
    """Ben-Or's test on Polynomial * and % alone: f of degree n >= 1 is
    irreducible iff gcd(X^(p^i) - X, f) = 1 for every i <= n/2, each
    power by square and multiply and each gcd by Euclid."""
    field, n = f.field, f.degree
    x = Polynomial(field, (0, 1))
    power = x
    for _ in range(n // 2):
        result, base, e = Polynomial.one(field), power, field.p
        while e:
            if e & 1:
                result = result * base % f
            base = base * base % f
            e >>= 1
        power = result
        g, r = f, (power - x) % f
        while r:
            g, r = r, g % r
        if g.degree > 0:
            return False
    return True


def random_multiplication_rows(lat: FiniteLattice, rng: random.Random) -> list[list[str]]:
    """A random commutative table whose every product lies below the meet."""
    els = lat.elements
    rows = [[None] * len(els) for _ in els]
    for i, a in enumerate(els):
        for j in range(i, len(els)):
            meet = lat.meet(a, els[j])
            rows[i][j] = rows[j][i] = rng.choice([z for z in els if lat.leq(z, meet)])
    return rows


def all_lattices(m: int):
    """Every lattice on m labeled elements whose numeric order is a linear
    extension (so every lattice shape appears at least once).

    Element 0 is the bottom and element m-1 the top, so orders are
    enumerated as upper-triangular relation masks over the pairs of the
    elements strictly between them.
    """
    if m == 1:
        yield FiniteLattice(["0"], [])
        return
    pairs = [(i, j) for i in range(1, m - 1) for j in range(i + 1, m - 1)]
    for mask in range(1 << len(pairs)):
        rows = [(1 << m) - 1] + [1 << i | 1 << (m - 1) for i in range(1, m)]
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                rows[i] |= 1 << j
        # transitivity: i <= j forces row_j subset of row_i
        ok = True
        for i in range(m):
            r = rows[i] & ~(1 << i)
            while r and ok:
                low = r & -r
                j = low.bit_length() - 1
                r ^= low
                if rows[j] & ~rows[i]:
                    ok = False
        if not ok:
            continue
        down = [0] * m
        for i in range(m):
            for j in range(m):
                if rows[i] >> j & 1:
                    down[j] |= 1 << i
        # unique glb and lub for every pair
        is_lattice = True
        for i in range(m):
            if not is_lattice:
                break
            for j in range(i + 1, m):
                commons = down[i] & down[j]
                maximal = 0
                r = commons
                while r:
                    low = r & -r
                    z = low.bit_length() - 1
                    r ^= low
                    if rows[z] & commons == 1 << z:
                        maximal += 1
                if maximal != 1:
                    is_lattice = False
                    break
                commons = rows[i] & rows[j]
                minimal = 0
                r = commons
                while r:
                    low = r & -r
                    z = low.bit_length() - 1
                    r ^= low
                    if down[z] & commons == 1 << z:
                        minimal += 1
                if minimal != 1:
                    is_lattice = False
                    break
        if not is_lattice:
            continue
        labels = [str(i) for i in range(m)]
        order_pairs = [
            (labels[i], labels[j])
            for i in range(m)
            for j in range(m)
            if i != j and rows[i] >> j & 1
        ]
        yield FiniteLattice(labels, order_pairs)


def decode_oracle(received, code: ConstantWeightCode) -> DecodeResult:
    """``decode`` as the popcount of the XOR of two bitmasks, one codeword
    at a time; raises the same error with the same message."""
    rec = set(received)
    if rec and (min(rec) < 0 or max(rec) >= code.n):
        raise ValueError(f"received indices must lie in 0..{code.n - 1}")
    mask = sum(1 << i for i in rec)
    distances = [(mask ^ sum(1 << i for i in cw)).bit_count() for cw in code.codewords]
    best = min(distances)
    return DecodeResult(best, tuple(cw for cw, d in zip(code.codewords, distances) if d == best))


def random_constant_weight_code(n: int, k: int, d: int, rng: random.Random) -> ConstantWeightCode:
    """Greedy random code with minimum distance >= d (at least 2 codewords)."""
    subsets = list(itertools.combinations(range(n), k))
    rng.shuffle(subsets)
    chosen: list[tuple[int, ...]] = []
    for cand in subsets:
        cs = set(cand)
        if all(len(cs ^ set(c)) >= d for c in chosen):
            chosen.append(cand)
    assert len(chosen) >= 2
    return ConstantWeightCode(n, chosen)


def johnson2_recursive(n: int, k: int, delta: int) -> int:
    """The unrestricted Johnson bound via its defining recursion."""
    if k == delta:
        return n // k
    return n * johnson2_recursive(n - 1, k - 1, delta) // k


def reference_trial(topology, code, symbol_map, adversary, message_index, trial_seed=0):
    """``saf.run_trial`` as a dict of packets in flight per node, corrupted by
    ``saf.apply_adversary``, with each node's in-edges read off ``topology.edges``."""
    transmitted = code.codewords[message_index]
    k = code.k
    rng = saf._adversary_rng(adversary, trial_seed)
    emitted = {0: saf.source_encode(transmitted, symbol_map)}
    packets = []
    for v in range(1, len(topology.preds)):
        flight = {(u, w): emitted[u] for (u, w) in topology.edges if w == v and u in emitted}
        packets = list(saf.apply_adversary(flight, adversary, symbol_map.q, rng).values())
        if packets and v != topology.sink:
            forwarded = saf.node_process(packets, k)
            if forwarded is not None:
                emitted[v] = forwarded
    if not packets:
        return saf.TrialResult(transmitted, saf.Outcome.NODE_FAILURE, 0, k, (), None, 0)
    recovered = saf.sink_recover(packets, k, symbol_map)
    result = decode(recovered.indices, code)
    decoded = result.codeword
    if decoded is None:
        outcome = saf.Outcome.DETECTED
    elif decoded == transmitted:
        outcome = saf.Outcome.SUCCESS
    else:
        outcome = saf.Outcome.WRONG
    return saf.TrialResult(
        transmitted, outcome, len(set(recovered.indices) - set(transmitted)),
        k - len(recovered.indices), recovered.indices, decoded, len(result.candidates),
    )


def random_substitution_oracle(prob, packet, q, rng):
    """``RandomSubstitution.corrupt`` as one draw per symbol into a fresh tuple."""
    out = []
    for s in packet:
        if rng.random() < prob:
            x = rng.randrange(1, q - 1)
            s = x + (x >= s)
        out.append(s)
    return tuple(out)


def random_dag_oracle(layers, width, max_indegree, edge_density=0.5, seed=0):
    """``saf.random_dag`` with its in-degree repair drawn by ``random.Random.sample``;
    returns the predecessor tuples."""
    rng = random.Random(seed)
    layer_sizes = (1, *([width] * (layers - 2)), 1)
    preds = [()]
    first = 1
    for size in layer_sizes[1:]:
        earlier = range(first)
        for _ in range(size):
            chosen = [u for u in earlier if rng.random() < edge_density]
            if not chosen:
                preds.append((rng.choice(earlier),))
            elif len(chosen) > max_indegree:
                preds.append(tuple(sorted(rng.sample(chosen, max_indegree))))
            else:
                preds.append(tuple(chosen))
        first += size
    return tuple(preds)
