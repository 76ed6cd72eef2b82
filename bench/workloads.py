"""The four benchmark workloads: seeded inputs, operations and their checks.

A workload is a fixed batch of operations built from the seed.  Each
operation calls only public functions of ``cwlattice``, checks every
output it gets against a reference or an invariant, and raises
``CheckFailed`` when one does not hold.  Operations may add exact work
counts to the Counter they are given.

Every batch also holds the shared ``smoke`` operation: a tiny pass over
every layer, so that each layer shows up (with a small share) in every
workload's trace.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from cwlattice import bounds, cliques, data, gf, lattice, saf
from cwlattice import code as codes
from cwlattice import pool as pools

class CheckFailed(Exception):
    """An output of the program differs from its reference value."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[Counter], None]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]


def build(name: str, seed: int) -> Workload:
    """The seeded batch of one workload; the same seed gives the same batch."""
    rng = random.Random(f"{name}:{seed}")
    ops = BUILDERS[name](rng)
    ops.insert(rng.randrange(len(ops) + 1), Op("smoke", smoke))
    return Workload(name, seed, ops)


# ---------------------------------------------------------------------------
# shared helpers

def search_upper_bound(n: int, k: int, d: int) -> int:
    """Smallest proven cap over (n, k, d) and its complement (n, n-k, d)."""
    ub = bounds.bound_report(n, k, d).upper_bound
    if d <= 2 * min(k, n - k):
        ub = min(ub, bounds.bound_report(n, n - k, d).upper_bound)
    return ub


def checked_witness(graph, result, n: int, k: int, d: int, size: int):
    check(result.complete, f"({n},{k},{d}) search did not complete")
    check(result.size == size, f"({n},{k},{d}) certified {result.size}, expected {size}")
    code = cliques.extract_code(graph, result.witnesses[0])
    check(len(code) == size and code.min_distance >= d,
          f"({n},{k},{d}) witness is not a code of size {size} and distance {d}")
    return code


def smoke(counts: Counter) -> None:
    """One tiny call into every layer, with its outputs checked."""
    graph = cliques.build_graph(7, 4, 4)
    checked_witness(graph, cliques.max_clique(graph, upper_bound=search_upper_bound(7, 4, 4)),
                    7, 4, 4, 7)
    counted = cliques.count_maximum_cliques(graph, 7)
    check(counted.complete and counted.count == 30, f"(7,4,4) count {counted.count}, expected 30")

    pool, code = data.sample_pool(), data.sample_code()
    alphabet = pools.full_alphabet(pool, code)
    check([pool.decompose(e) for e in alphabet] == list(code.codewords),
          "sample alphabet does not decompose back to the sample code")
    decoded = codes.decode((0, 1, 2), code)
    check(decoded.codeword == (0, 1, 2, 5), f"sample decode gave {decoded.candidates}")

    stats = saf.run_experiment(
        code, pool, saf.SymbolMap.default(code.n), saf.TopologySpec(4, 3, 3, 0.5, seed=1),
        saf.RandomSubstitution(0.05, seed=1), trials=1, seed=1,
    )
    check(stats.trials == 1, "smoke SAF experiment did not run its trial")

    for lat, unique in ((lattice.boolean_lattice(3), True), (lattice.diamond_m3(), False)):
        report = lat.decomposition_theorem_report(scan_limit=len(lat))
        check(report.agree and report.unique_decomposition == unique,
              f"smoke theorem report {report}")
        table = meet_table(lat)
        check(lattice.check_prime(lat, table, lat.top) and lattice.check_primary(lat, table, lat.top),
              "the top element must be prime and primary")


# ---------------------------------------------------------------------------
# search: branch and bound and counting on small dense graphs
#
# Every row takes at most about 0.1 s, so that a run repeats each one many
# times; see README.md for the longer rows left out.

# (n, k, d, exact, certified size)
CERTIFY_ROWS = (
    (8, 3, 4, False, 8),
    (9, 4, 6, False, 3),
    (8, 4, 4, True, 7),
    (9, 3, 4, True, 7),
    (10, 3, 4, True, 7),
)
# (n, k, d, exact, clique size, number of maximum cliques)
COUNT_ROWS = (
    (8, 3, 4, False, 8, 840),
    (8, 4, 4, True, 7, 3840),
    (9, 3, 4, True, 7, 1080),
    (10, 3, 4, True, 7, 3600),
)


def _row_label(kind: str, n: int, k: int, d: int, exact: bool) -> str:
    return f"{kind}({n},{k},{d}{',exact' if exact else ''})"


def certify_op(n: int, k: int, d: int, exact: bool, size: int) -> Op:
    def run(counts: Counter) -> None:
        graph = cliques.build_graph(n, k, d, exact=exact)
        checked_witness(graph, cliques.max_clique(graph), n, k, d, size)

    return Op(_row_label("certify", n, k, d, exact), run)


def count_op(n: int, k: int, d: int, exact: bool, size: int, expected: int) -> Op:
    def run(counts: Counter) -> None:
        graph = cliques.build_graph(n, k, d, exact=exact)
        counted = cliques.count_maximum_cliques(graph, size)
        check(counted.complete and not counted.capped and counted.count == expected,
              f"({n},{k},{d}) counted {counted.count}, expected {expected}")

    return Op(_row_label("count", n, k, d, exact), run)


def search_ops(rng: random.Random) -> list[Op]:
    ops = [certify_op(*row) for row in CERTIFY_ROWS] + [count_op(*row) for row in COUNT_ROWS]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# wide: the search path on large graphs, where the bound is met at once

# (n, k, d, optimal size); the greedy seed meets the proven bound on each
WIDE_ROWS = (
    (15, 3, 4, 35),
    (14, 3, 4, 28),
    (12, 4, 6, 9),
    (11, 5, 6, 11),
    (12, 5, 8, 3),
    (13, 4, 8, 3),
)
DECODES_PER_ROW = 1000


def perturbed(rng: random.Random, code, n: int) -> tuple[tuple[int, ...], int, int, tuple[int, ...]]:
    """A codeword with t substitutions and e erasures: (word, t, e, received)."""
    word = code.codewords[rng.randrange(len(code))]
    t = rng.randrange(3)
    e = rng.randrange(min(3, len(word) - t + 1))
    lost = rng.sample(word, t + e)
    outside = rng.sample([x for x in range(n) if x not in word], t)
    received = tuple(sorted({x for x in word if x not in lost} | set(outside)))
    return word, t, e, received


def wide_op(n: int, k: int, d: int, size: int, decode_seed: int) -> Op:
    # made from the first certified code, then reused: the search is
    # deterministic, and a different code fails the checks below
    words = []

    def run(counts: Counter) -> None:
        graph = cliques.build_graph(n, k, d)
        result = cliques.max_clique(graph, upper_bound=search_upper_bound(n, k, d))
        code = checked_witness(graph, result, n, k, d, size)
        if not words:
            rng = random.Random(decode_seed)
            words.extend(perturbed(rng, code, n) for _ in range(DECODES_PER_ROW))
        for word, t, e, received in words:
            decoded = codes.decode(received, code)
            if codes.guaranteed_correctable(code, t, e):
                check(decoded.codeword == word,
                      f"({n},{k},{d}) {received} decoded to {decoded.candidates}, sent {word}")
            else:
                check(decoded.distance <= codes.symmetric_distance(received, word),
                      f"({n},{k},{d}) decode of {received} is not a nearest codeword")

    return Op(f"wide({n},{k},{d})", run)


def wide_ops(rng: random.Random) -> list[Op]:
    rows = list(WIDE_ROWS)
    rng.shuffle(rows)
    return [wide_op(*row, decode_seed=rng.randrange(2 ** 32)) for row in rows]


# ---------------------------------------------------------------------------
# saf: store-and-forward trials with the sample pool and (7,4,4) code

TRIALS_PER_MIX = 400
# (label, layers, width, adversary factory)
SAF_MIXES = (
    ("clean", 4, 3, lambda seed: saf.NoAdversary()),
    ("substitution", 6, 4, lambda seed: saf.RandomSubstitution(0.05, seed=seed)),
    ("erasure", 8, 6, lambda seed: saf.EdgeErasure(0.1, seed=seed)),
)


def saf_op(code, pool, symbols, label: str, layers: int, width: int, adversary,
           topo_seed: int, seed: int) -> Op:
    topology = saf.TopologySpec(layers, width, 3, 0.5, seed=topo_seed)

    def run(counts: Counter) -> None:
        stats = saf.run_experiment(code, pool, symbols, topology, adversary, trials=1, seed=seed)
        check(stats.trials == 1 and len(stats.results) == 1, f"{label} trial did not run")
        trial = stats.results[0]
        counts[f"saf.outcome.{trial.outcome.value}"] += 1
        if (codes.guaranteed_correctable(code, trial.errors_at_sink, trial.erasures_at_sink)
                and trial.outcome is not saf.Outcome.SUCCESS):
            counts["saf.guarantee_violations"] += 1
            raise CheckFailed(
                f"{label} trial seed {seed}: t={trial.errors_at_sink} e={trial.erasures_at_sink}"
                f" is within the guarantee but ended {trial.outcome.value}"
            )

    return Op(f"saf.{label}", run)


def saf_ops(rng: random.Random) -> list[Op]:
    code, pool = data.sample_code(), data.sample_pool()
    symbols = saf.SymbolMap.default(code.n)
    ops = [
        saf_op(code, pool, symbols, label, layers, width, adversary(rng.randrange(2 ** 32)),
               rng.randrange(2 ** 32), rng.randrange(2 ** 32))
        for label, layers, width, adversary in SAF_MIXES
        for _ in range(TRIALS_PER_MIX)
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lattice: pools over GF(2) and GF(3), lattices of 25-48 elements

POOL_SIZE = 14
POOL_WEIGHT = 4
POOL_CHUNKS = 7
# constituent degrees drawn per field: the seed picks the pool among them
POOL_DEGREES = {2: (5, 6, 7), 3: (3, 4)}
DIVISOR_ATOMS = 5


def irreducibles(p: int) -> list:
    field = gf.PrimeField(p)
    return [f for deg in POOL_DEGREES[p] for f in gf.monic_polynomials(field, deg)
            if gf.is_irreducible(f)]


def label(poly) -> str:
    return poly.to_hex() if poly.field.p == 2 else "".join(map(str, poly.coeffs))


def pool_ops(constituents: list) -> list[Op]:
    """Round trips of every k-subset, in chunks: compose, then decompose back."""
    subsets = list(itertools.combinations(range(len(constituents)), POOL_WEIGHT))
    p = constituents[0].field.p

    def round_trip(chunk):
        def run(counts: Counter) -> None:
            pool = pools.PolynomialPool(constituents)
            for subset, element in zip(chunk, pools.full_alphabet(pool, chunk)):
                check(pool.decompose(element) == subset, f"{element!r} does not decompose to {subset}")

        return run

    return [Op(f"pool.gf{p}.{i}", round_trip(subsets[i::POOL_CHUNKS])) for i in range(POOL_CHUNKS)]


def meet_table(lat):
    """The multiplication xy = x meet y."""
    return lattice.MultiplicationTable(lat, [[lat.meet(a, b) for b in lat.elements] for a in lat.elements])


def theorem_op(name: str, make: Callable, unique: bool, expect_prime=None) -> Op:
    """Build a lattice, check its theorem report and its prime/primary elements.

    ``make`` returns (elements, covers, product) where product maps a pair
    of elements to their product, or is None for the meet.  With
    ``expect_prime`` the exact prime and primary sets are known; otherwise
    only the implications that hold in every lattice are checked.
    """

    def run(counts: Counter) -> None:
        elements, covers, product = make()
        lat = lattice.FiniteLattice(elements, covers)
        report = lat.decomposition_theorem_report(scan_limit=len(lat))
        check(report.agree, f"{name}: theorem sides disagree, {report}")
        check(report.unique_decomposition == unique and report.birkhoff,
              f"{name}: expected unique decomposition {unique} in a Birkhoff lattice, got {report}")
        if product is None:
            table = meet_table(lat)
        else:
            table = lattice.MultiplicationTable(lat, [[product(a, b) for b in elements] for a in elements])
        prime = {x for x in elements if lattice.check_prime(lat, table, x)}
        primary = {x for x in elements if lattice.check_primary(lat, table, x)}
        if expect_prime is not None:
            want_prime, want_primary = expect_prime(elements)
            check(prime == want_prime and primary == want_primary,
                  f"{name}: prime/primary elements differ from the ideal structure")
        else:
            # meet is idempotent, so primary is prime; prime elements are
            # meet-irreducible or the top
            irreducible = set(lat.meet_irreducibles()) | {lat.top}
            check(prime == primary and prime <= irreducible,
                  f"{name}: prime elements are not meet-irreducible")

    return Op(f"lattice.{name}", run)


def divisor_lattice_op(atoms: list, shuffle_seed: int) -> Op:
    """Ideals of F[X]/(f1...f5) for distinct irreducibles: a Boolean lattice.

    The ideal (g) lies below (h) when h divides g; the product of ideals is
    the ideal of the product, which for squarefree moduli is the union of
    the factor sets.
    """
    p = atoms[0].field.p

    def make():
        pool = pools.PolynomialPool(atoms)
        one = label(gf.Polynomial.one(pool.field))
        masks = range(1 << len(atoms))
        names = {0: one}
        for mask in masks[1:]:
            names[mask] = label(pool.compose([i for i in range(len(atoms)) if mask >> i & 1]))
        covers = [(names[m | 1 << i], names[m]) for m in masks for i in range(len(atoms))
                  if not m >> i & 1]
        random.Random(shuffle_seed).shuffle(covers)
        mask_of = {v: k for k, v in names.items()}
        return ([names[m] for m in masks], covers,
                lambda a, b: names[mask_of[a] | mask_of[b]])

    def expect(elements):
        by_size = {x: bin(m).count("1") for m, x in enumerate(elements)}
        prime = {x for x, size in by_size.items() if size <= 1}
        return prime, prime

    return theorem_op(f"divisors.gf{p}", make, True, expect)


def exponent_lattice_op(base: int, dims: int, shuffle_seed: int) -> Op:
    """Ideals of R/(p1^c ... pd^c), c = base - 1: a product of chains.

    An ideal is its exponent vector; more exponent means a smaller ideal,
    and the product adds exponents, capped at c.
    """
    cap = base - 1
    vectors = list(itertools.product(range(base), repeat=dims))
    name = {v: "e" + "".join(map(str, v)) for v in vectors}

    def make():
        covers = [(name[v[:i] + (v[i] + 1,) + v[i + 1:]], name[v])
                  for v in vectors for i in range(dims) if v[i] < cap]
        random.Random(shuffle_seed).shuffle(covers)
        vec = {s: v for v, s in name.items()}
        return ([name[v] for v in vectors], covers,
                lambda a, b: name[tuple(min(x + y, cap) for x, y in zip(vec[a], vec[b]))])

    def expect(elements):
        support = {name[v]: [x for x in v if x] for v in vectors}
        prime = {s for s, nz in support.items() if nz in ([], [1])}
        primary = {s for s, nz in support.items() if len(nz) <= 1}
        return prime, primary

    return theorem_op(f"exponents{base}^{dims}", make, True, expect)


def product(first, second):
    """Direct product of two lattices given as (elements, covers)."""
    (ea, ca), (eb, cb) = first, second
    elements = [f"{x}|{y}" for x in ea for y in eb]
    covers = [(f"{x}|{y}", f"{u}|{y}") for x, u in ca for y in eb]
    covers += [(f"{x}|{y}", f"{x}|{v}") for x in ea for y, v in cb]
    return elements, covers


def chain(m: int):
    elements = [f"c{i}" for i in range(m)]
    return elements, list(zip(elements, elements[1:]))


def subspaces_gf2_3():
    """Subspaces of GF(2)^3 (16 elements, contains M3)."""
    spaces = [s for s in (frozenset(v for v in range(8) if mask >> v & 1) for mask in range(256))
              if 0 in s and all(a ^ b in s for a in s for b in s)]
    name = {s: "V" + "".join(map(str, sorted(s))) for s in spaces}
    covers = [(name[u], name[w]) for u in spaces for w in spaces if u < w and len(w) == 2 * len(u)]
    return [name[s] for s in spaces], covers


def partitions(n: int):
    """Set partitions of n points, finer below coarser (contains M3 for n >= 3)."""
    def build(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for part in build(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] | {first}] + part[i + 1:]
            yield part + [frozenset({first})]

    parts = [frozenset(p) for p in build(list(range(n)))]
    name = {p: "/".join("".join(map(str, sorted(b))) for b in sorted(p, key=min)) for p in parts}
    covers = []
    for p in parts:
        for a, b in itertools.combinations(p, 2):
            covers.append((name[p], name[(p - {a, b}) | {a | b}]))
    return [name[p] for p in parts], covers


def shuffled_product_op(name: str, first, second, shuffle_seed: int) -> Op:
    def make():
        elements, covers = product(first, second)
        random.Random(shuffle_seed).shuffle(covers)
        return elements, covers, None

    return theorem_op(name, make, False)


def lattice_ops(rng: random.Random) -> list[Op]:
    ops = []
    for p in (2, 3):
        constituents = rng.sample(irreducibles(p), POOL_SIZE)
        ops += pool_ops(constituents)
        ops.append(divisor_lattice_op(rng.sample(constituents, DIVISOR_ATOMS), rng.randrange(2 ** 32)))
    ops.append(exponent_lattice_op(3, 3, rng.randrange(2 ** 32)))
    ops.append(exponent_lattice_op(5, 2, rng.randrange(2 ** 32)))
    ops.append(shuffled_product_op("subspaces2^3xC3", subspaces_gf2_3(), chain(3), rng.randrange(2 ** 32)))
    ops.append(shuffled_product_op("partitions4xC3", partitions(4), chain(3), rng.randrange(2 ** 32)))
    rng.shuffle(ops)
    return ops


BUILDERS = {"search": search_ops, "wide": wide_ops, "saf": saf_ops, "lattice": lattice_ops}
