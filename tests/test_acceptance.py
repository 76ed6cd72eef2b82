"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 carries a documented defect: four entries of the published
hex alphabet are not the products of the published constituents (one of
them is not even squarefree, so no compose of distinct irreducibles can
produce it).  The faithful assertion is kept as a strict expected
failure; the verifiable part of the criterion is asserted exactly.
"""

import itertools
import time
from contextlib import contextmanager
from math import comb

import pytest

from cwlattice import bounds, saf
from cwlattice.cliques import build_graph, count_maximum_cliques, extract_code, max_clique
from cwlattice.code import decode, puncture, symmetric_distance
from cwlattice.lattice import boolean_lattice, chain, diamond_m3, pentagon_n5
from cwlattice.pool import full_alphabet
from helpers import all_lattices, nx_max_clique_size, random_constant_weight_code

# published alphabet, and the actual products of the published
# constituents (verified against an independent computer-algebra system)
PUBLISHED_ALPHABET = ["2B29", "2E7B", "93BD", "23D75", "144B1", "5F237", "17153"]
VERIFIED_ALPHABET = ["2B29", "2D6B", "93BF", "23D75", "11159", "5D68B", "17153"]

TABLE2_EXPECTED = {
    (8, 4, 4): 14,
    (8, 5, 4): 8,
    (9, 4, 4): 18,
    (9, 5, 4): 18,
    (9, 7, 4): 4,
    (9, 6, 6): 3,
    (10, 3, 4): 13,
    (10, 7, 4): 13,  # reported as 8; complement symmetry with (10,3,4) forces 13
    (10, 6, 6): 5,
    (10, 7, 6): 3,
}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"criterion {name}: FAIL")
        raise
    print(f"criterion {name}: PASS")


def test_criterion_1_worked_example(pool744, code744, f2):
    with criterion("1 (worked example compose/decompose)"):
        started = time.monotonic()
        alphabet = full_alphabet(pool744, code744)
        hexes = [f.to_hex() for f in alphabet]
        assert hexes == VERIFIED_ALPHABET
        # the three entries of the published list that are consistent
        # with the published constituents appear bit-exactly
        assert hexes[0] == PUBLISHED_ALPHABET[0] == "2B29"
        assert hexes[3] == PUBLISHED_ALPHABET[3] == "23D75"
        assert hexes[6] == PUBLISHED_ALPHABET[6] == "17153"
        for element, cw in zip(alphabet, code744.codewords):
            assert pool744.decompose(element) == cw
        assert time.monotonic() - started < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="four published alphabet entries are not products of the published "
    "constituents (2E7B is not squarefree; 93BD, 144B1, 5F237 contain factors "
    "outside the pool); see the project notes",
)
def test_criterion_1_published_alphabet_verbatim(pool744, code744):
    alphabet = full_alphabet(pool744, code744)
    assert [f.to_hex() for f in alphabet] == PUBLISHED_ALPHABET


def test_criterion_2_code_metrics(code744):
    with criterion("2 (code metrics and restricted Johnson bound)"):
        assert code744.min_distance == 4
        assert len(code744) == 7
        n, k, delta = 7, 4, 2
        assert k * k - k * n + delta * n == 2
        assert bounds.johnson1(7, 4, 2) == 7
        assert len(code744) == bounds.johnson1(7, 4, 2)


def test_criterion_3_bound_values():
    with criterion("3 (bound values)"):
        assert bounds.johnson2(7, 5, 1) == 21
        assert bounds.johnson2(8, 4, 2) == 14
        assert bounds.johnson1(9, 7, 2) == 4
        assert bounds.johnson1_refined_feasible(9, 7, 2, 4)
        assert not bounds.johnson1_refined_feasible(9, 7, 2, 5)
        assert bounds.johnson1_refined(9, 7, 2) == 4


def test_criterion_4_table_reproduction():
    with criterion("4 (optimal size table, each row under 120 s)"):
        for (n, k, d), expected in TABLE2_EXPECTED.items():
            graph = build_graph(n, k, d)
            result = max_clique(
                graph, upper_bound=bounds.bound_report(n, k, d).upper_bound, timeout=120
            )
            assert result.complete, (n, k, d)
            assert result.size == expected, (n, k, d)
            assert result.elapsed < 120
            code = extract_code(graph, result.witnesses[0])
            assert code.min_distance >= d


def test_criterion_5_maximum_clique_counts():
    with criterion("5 (maximum clique counts)"):
        expected = {
            (8, 6, 4, 4): 105,
            (8, 4, 4, 14): 30,
            (9, 7, 4, 4): 945,
            (9, 6, 6, 3): 280,
        }
        for (n, k, d, size), count in expected.items():
            result = count_maximum_cliques(build_graph(n, k, d), size)
            assert result.complete and not result.capped
            assert result.count == count, (n, k, d)


def test_criterion_5_large_count_row():
    # 1814400 maximum 13-cliques, not the published 373680
    with criterion("5 ((10,3,4) count, full run)"):
        result = count_maximum_cliques(build_graph(10, 3, 4), 13, cap=2 * 10 ** 6)
        assert result.complete and not result.capped
        assert result.count == 1_814_400


def test_criterion_6_decoder_scenarios(code744):
    with criterion("6 (decoder scenarios)"):
        ambiguous = decode((1, 3, 4, 6), code744)
        assert ambiguous.ambiguous
        assert len(ambiguous.candidates) == 3
        clean = decode((1, 3, 6), code744)
        assert not clean.ambiguous
        assert clean.codeword == (1, 3, 5, 6)


def test_criterion_7_saf_end_to_end(code744, pool744):
    with criterion("7 (store-and-forward end to end, under 30 s)"):
        started = time.monotonic()
        smap = saf.SymbolMap.default(7)
        spec = saf.TopologySpec(layers=4, width=3, max_indegree=3, seed=0)
        stats = saf.run_experiment(
            code744, pool744, smap, spec, saf.NoAdversary(),
            trials=1000, seed=0, keep_results=False,
        )
        assert stats.counts.get(saf.Outcome.SUCCESS, 0) == 1000

        direct = saf.NetworkTopology.from_edges((1, 1), ((0, 1),))
        # exhaustive single-erasure injections: replace one symbol by
        # another symbol of the same packet, which dedups away at the sink
        for message, cw in enumerate(code744.codewords):
            packet = saf.source_encode(cw, smap)
            for position, dup in itertools.permutations(range(4), 2):
                adversary = saf.TargetedSubstitution(
                    rules=(((0, 1), packet[position], packet[dup]),)
                )
                result = saf.run_trial(
                    direct, code744, smap, adversary, message
                )
                assert result.outcome == saf.Outcome.SUCCESS, (cw, position)
                assert result.decoded == cw

        # exhaustive single-substitution injections: never a wrong decode
        wrong = 0
        for message, cw in enumerate(code744.codewords):
            packet = saf.source_encode(cw, smap)
            for position in range(4):
                original = packet[position]
                for replacement in range(1, smap.q):
                    if replacement == original:
                        continue
                    adversary = saf.TargetedSubstitution(
                        rules=(((0, 1), original, replacement),)
                    )
                    result = saf.run_trial(
                        direct, code744, smap, adversary, message
                    )
                    assert result.outcome in (
                        saf.Outcome.SUCCESS, saf.Outcome.DETECTED
                    ), (cw, position, replacement)
                    wrong += result.outcome == saf.Outcome.WRONG
        assert wrong == 0
        assert time.monotonic() - started < 30


def test_criterion_8_property_suites(code744):
    import random

    with criterion("8 (property suites)"):
        # symmetric distance is a metric (randomized, 10^4 cases)
        rng = random.Random(5150)
        universe = range(14)
        for _ in range(10_000):
            a = {x for x in universe if rng.random() < 0.35}
            b = {x for x in universe if rng.random() < 0.35}
            c = {x for x in universe if rng.random() < 0.35}
            assert symmetric_distance(a, b) == symmetric_distance(b, a)
            assert (symmetric_distance(a, b) == 0) == (a == b)
            assert symmetric_distance(a, b) <= (
                symmetric_distance(a, c) + symmetric_distance(c, b)
            )

        # compose/decompose roundtrip exhaustive for n <= 10
        from test_pool import binary_irreducibles
        from cwlattice.pool import PolynomialPool

        pool = PolynomialPool(binary_irreducibles(10))
        for size in range(1, 11):
            for subset in itertools.combinations(range(10), size):
                assert pool.decompose(pool.compose(subset)) == subset

        # sphere size symmetry, exhaustive for n <= 20
        for n in range(1, 21):
            for k in range(0, n + 1):
                for r in range(0, min(k, n - k) + 1):
                    assert bounds.sphere_size(n, k, r) == bounds.sphere_size(n, n - k, r)

        # puncturing keeps N and loses at most 2 of distance
        punctured = puncture(code744)
        assert len(punctured) == len(code744)
        assert punctured.min_distance >= code744.min_distance - 2
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randrange(7, 11)
            k = rng.randrange(3, n - 2)
            code = random_constant_weight_code(n, k, 4, rng)
            pc = puncture(code, removed_index=rng.randrange(n))
            assert len(pc) == len(code)
            assert pc.min_distance >= code.min_distance - 2

        # search agrees with an independent oracle on graphs up to 70 vertices
        for n in range(2, 9):
            for k in range(1, n):
                if comb(n, k) > 70:
                    continue
                for d in range(2, 2 * min(k, n - k) + 1, 2):
                    graph = build_graph(n, k, d)
                    assert max_clique(graph).size == nx_max_clique_size(graph)

        # unique-decomposition equivalence on every lattice with <= 6
        # elements, plus the named examples
        for m in range(1, 7):
            for lat in all_lattices(m):
                assert lat.decomposition_theorem_report().agree
        for lat in (boolean_lattice(3), diamond_m3(), pentagon_n5(),
                    chain(2), chain(5)):
            assert lat.decomposition_theorem_report().agree
