import dataclasses
import itertools
import tracemalloc
from math import comb

import pytest

from cwlattice.bounds import bound_report
from cwlattice.cliques import (
    ROW_BLOCK,
    CompatibilityGraph,
    _neighbourhood_others,
    build_graph,
    count_maximum_cliques,
    extract_code,
    max_clique,
)
from helpers import (
    adjacency_oracle,
    brute_max_clique_size,
    count_cliques_oracle,
    nx_max_clique_size,
)


def test_build_matches_pair_oracle():
    # d runs past 2k, where no two k-subsets are far enough apart: edgeless
    for n in range(1, 10):
        for k in range(1, n + 1):
            for d in range(2, 2 * n + 3, 2):
                for exact in (False, True):
                    g = build_graph(n, k, d, exact=exact)
                    assert g.vertices == tuple(itertools.combinations(range(n), k))
                    oracle = adjacency_oracle(n, k, d, exact)
                    # rows read one at a time, last first, then all at once from the cache
                    rows = [g.row(v) for v in reversed(range(len(g)))]
                    assert rows[::-1] == list(oracle), (n, k, d, exact)
                    assert g.adjacency == oracle, (n, k, d, exact)
                    if d > 2 * k:
                        assert not any(g.adjacency)


def test_build_octahedron():
    g = build_graph(4, 2, 2, exact=True)  # J(4,2,1)
    assert len(g) == 6
    assert all(g.row(v).bit_count() == 4 for v in range(6))


def test_build_at_least_distance_two_is_complete():
    g = build_graph(5, 2, 2)
    assert all(g.row(v).bit_count() == len(g) - 1 for v in range(len(g)))
    assert max_clique(g).size == len(g)


def test_build_validation():
    with pytest.raises(ValueError):
        build_graph(25, 2, 2)
    with pytest.raises(ValueError):
        build_graph(8, 4, 3)
    with pytest.raises(ValueError):
        build_graph(20, 10, 2)  # C(20, 10) vertices, over the limit


def test_max_clique_sample_parameters(code744):
    g = build_graph(7, 4, 4)
    result = max_clique(g)
    assert result.size == 7
    assert result.complete
    code = extract_code(g, result.witnesses[0])
    assert code.min_distance >= 4
    assert len(code) == 7


def test_max_clique_early_stop_via_upper_bound():
    g = build_graph(7, 4, 4)
    result = max_clique(g, upper_bound=7)
    assert result.size == 7 and result.complete


def test_max_clique_agrees_with_oracles_on_small_graphs():
    cases = []
    for n in range(2, 9):
        for k in range(1, n):
            if comb(n, k) > 70:
                continue
            for d in range(2, 2 * min(k, n - k) + 1, 2):
                cases.append((n, k, d))
    assert cases
    for n, k, d in cases:
        for exact in (False, True):
            g = build_graph(n, k, d, exact=exact)
            mine = max_clique(g)
            assert mine.complete
            assert mine.size == nx_max_clique_size(g), (n, k, d, exact)
            if len(g) <= 18:
                assert mine.size == brute_max_clique_size(g), (n, k, d, exact)
            if mine.witnesses:
                assert g.is_clique(mine.witnesses[0])


def test_max_clique_monotone_in_distance():
    for n, k in [(7, 3), (8, 4)]:
        sizes = [
            max_clique(build_graph(n, k, d)).size
            for d in range(2, 2 * min(k, n - k) + 1, 2)
        ]
        assert sizes == sorted(sizes, reverse=True)


def test_complement_symmetry():
    for n, k, d in [(8, 5, 4), (9, 7, 4), (9, 6, 6), (10, 7, 6)]:
        a = max_clique(build_graph(n, k, d)).size
        b = max_clique(build_graph(n, n - k, d)).size
        assert a == b, (n, k, d)


def test_witnesses_pass_independent_distance_check():
    g = build_graph(8, 4, 4)
    result = max_clique(g, upper_bound=14)
    assert result.size == 14
    verts = result.witnesses[0]
    for a, b in itertools.combinations(verts, 2):
        d = len(set(g.vertices[a]) ^ set(g.vertices[b]))
        assert d >= 4


def test_count_small_values():
    g = build_graph(8, 6, 4)
    assert max_clique(g).size == 4
    assert count_maximum_cliques(g, 4).count == 105

    g = build_graph(9, 7, 4)
    assert count_maximum_cliques(g, 4).count == 945

    g = build_graph(9, 6, 6)
    assert count_maximum_cliques(g, 3).count == 280


def test_count_cap():
    g = build_graph(9, 7, 4)
    result = count_maximum_cliques(g, 4, cap=100)
    assert result.capped and not result.complete
    assert 100 < result.count <= 945  # a lower bound on the full count


def test_count_cap_with_two_orbits():
    # N(0) of (8,3,4) holds two orbits of vertex 0's stabiliser (|A & {0,1,2}| = 0, 1)
    g = build_graph(8, 3, 4)
    result = count_maximum_cliques(g, 8, cap=100)
    assert result.capped and not result.complete
    assert 100 < result.count <= 840


def test_count_rejects_a_graph_without_the_symmetry():
    # K_6 with one edge away from vertex 0 removed: the orbit-weighted sum
    # through vertex 0 cannot be spread evenly
    g = build_graph(4, 2, 2)
    for (a, b), size, message in [
        ((4, 5), 3, "stabiliser of vertex 0 does not act on the graph"),
        ((1, 5), 4, "graph is not vertex-transitive"),
    ]:
        adjacency = list(g.adjacency)
        adjacency[a] ^= 1 << b
        adjacency[b] ^= 1 << a
        # no public path builds such a graph, so overwrite the cached rows the count reads
        broken = build_graph(4, 2, 2)
        broken._rows[:] = adjacency
        with pytest.raises(ValueError, match=message):
            count_maximum_cliques(broken, size)


def test_graph_rows_come_only_from_its_parameters():
    g = build_graph(4, 2, 2)
    assert g == CompatibilityGraph(4, 2, 2) and g.exact is False
    for rows in ({"adjacency": g.adjacency}, {"vertices": g.vertices}, {"_rows": list(g.adjacency)}):
        with pytest.raises(TypeError):
            CompatibilityGraph(4, 2, 2, **rows)
    # adjacency is a property, not a field: replace passes it to the constructor
    with pytest.raises(TypeError, match="adjacency"):
        dataclasses.replace(g, adjacency=g.adjacency)
    for rows in ({"vertices": g.vertices}, {"_rows": list(g.adjacency)}):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(g, **rows)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.adjacency = adjacency_oracle(4, 2, 4, False)
    # a replaced parameter rebuilds the rows: at d = 4 only disjoint pairs are adjacent
    far = dataclasses.replace(g, d=4)
    assert far == build_graph(4, 2, 4)
    assert far.adjacency == adjacency_oracle(4, 2, 4, False) != g.adjacency
    assert count_maximum_cliques(far, 2).count == 3


def test_count_trivial_sizes():
    g = build_graph(5, 2, 2)  # complete graph on 10 vertices
    assert count_maximum_cliques(g, 1).count == 10
    assert count_maximum_cliques(g, 10).count == 1
    with pytest.raises(ValueError):
        count_maximum_cliques(g, 0)


def test_extract_code_validates(code744):
    g = build_graph(7, 4, 4)
    with pytest.raises(ValueError, match="not a clique"):
        extract_code(g, [0, 1])  # lexicographically adjacent subsets overlap in 3
    with pytest.raises(ValueError, match="unknown"):
        extract_code(g, [0, 999])


def test_extract_code_singleton():
    g = build_graph(6, 3, 4)
    code = extract_code(g, [5])
    assert code.codewords == (g.vertices[5],)


def test_extract_code_exact_mode_has_exact_distance():
    g = build_graph(8, 6, 4, exact=True)
    result = max_clique(g)
    code = extract_code(g, result.witnesses[0])
    if len(code) >= 2:
        dists = {
            len(set(a) ^ set(b))
            for a, b in itertools.combinations(code.codewords, 2)
        }
        assert dists == {4}


def test_achieved_sizes_sit_between_bounds():
    rows = [(8, 4, 4), (8, 5, 4), (9, 4, 4), (9, 5, 4), (9, 7, 4),
            (9, 6, 6), (10, 3, 4), (10, 7, 4), (10, 6, 6), (10, 7, 6),
            (11, 4, 8), (12, 5, 8)]
    for n, k, d in rows:
        report = bound_report(n, k, d)
        result = max_clique(build_graph(n, k, d), upper_bound=report.upper_bound, timeout=120)
        assert result.complete
        assert report.lower_bound <= result.size <= report.upper_bound, (n, k, d)


def test_sample_code_is_a_maximum_clique(code744):
    g = build_graph(7, 4, 4)
    verts = [g.vertices.index(cw) for cw in code744.codewords]
    assert g.is_clique(verts)
    assert len(verts) == max_clique(g).size


# (n, k, d, exact, clique size, number of cliques of that size)
CHEAP_COUNT_ROWS = [
    (8, 6, 4, False, 4, 105),
    (8, 4, 4, False, 14, 30),
    (9, 7, 4, False, 4, 945),
    (9, 6, 6, False, 3, 280),
    (8, 3, 4, False, 8, 840),
    (8, 4, 4, True, 7, 3840),
    (9, 3, 4, True, 7, 1080),
    (10, 3, 4, True, 7, 3600),
    (10, 5, 6, False, 6, 60480),
]


@pytest.mark.parametrize("n, k, d, exact, size, expected", CHEAP_COUNT_ROWS)
def test_rooted_count_matches_ascending_enumeration(n, k, d, exact, size, expected):
    g = build_graph(n, k, d, exact=exact)
    result = count_maximum_cliques(g, size)
    assert result.complete and not result.capped
    assert result.count == count_cliques_oracle(g, size) == expected


def test_rooted_count_matches_enumeration_below_the_maximum():
    # V * c0 / s holds for every clique size, not only the maximum
    g = build_graph(7, 3, 4)
    for size in range(1, 8):
        assert count_maximum_cliques(g, size).count == count_cliques_oracle(g, size), size


@pytest.mark.parametrize("n, k, d, size", [(9, 4, 4, 18), (10, 3, 4, 13)])
def test_max_clique_certifies_without_external_bound(n, k, d, size):
    g = build_graph(n, k, d)
    result = max_clique(g)
    assert result.complete and result.size == size
    assert g.is_clique(result.witnesses[0]) and len(result.witnesses[0]) == size
    assert result.nodes > 0


def test_second_level_branches_on_the_largest_intersection_first():
    # the 11 words of every optimal (11,5,6) code meet pairwise in exactly 2
    # points; branching on the orbit |u & vertex 0| = 0 first costs thousands of nodes
    result = max_clique(build_graph(11, 5, 6), upper_bound=11)
    assert result.complete and result.size == 11
    assert result.nodes < 100


@pytest.mark.parametrize("k", [4, 5])
def test_count_nine_point_rows(k):
    # (9,5,4) is the complement of (9,4,4): the same count
    result = count_maximum_cliques(build_graph(9, k, 4), 18)
    assert result.complete and not result.capped
    assert result.count == 2520


def test_zero_timeout_stops_before_any_expansion():
    g = build_graph(11, 4, 4, exact=True)
    searched = max_clique(g, timeout=0)
    assert not searched.complete and searched.nodes == 1
    counted = count_maximum_cliques(g, 5, timeout=0)
    assert not counted.complete and not counted.capped
    assert counted.count == 0 and counted.nodes == 1


def test_build_graph_over_the_limit_fails_before_listing_subsets():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2704156 vertices, over the limit"):
            build_graph(24, 12, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# every (n, k, d, exact) with n <= 8, so V <= 70: d = 2 in "at least" mode
# gives complete graphs, d > 2k edgeless ones, and in exact mode N(0) is
# one orbit of vertex 0's stabiliser
SMALL_ROWS = [
    (n, k, d, exact)
    for n in range(1, 9)
    for k in range(1, n + 1)
    for d in range(2, 2 * k + 3, 2)
    for exact in (False, True)
]
# the middle sizes are too many to enumerate one by one (K_70 has C(70, 35)
# cliques of size 35), so a size is compared when the oracle finds at most this many
ORACLE_LIMIT = 2000


@pytest.mark.parametrize("n, k, d, exact", SMALL_ROWS)
def test_counts_and_clique_number_match_the_oracle(n, k, d, exact):
    g = build_graph(n, k, d, exact=exact)
    size = 0
    while True:
        expected = count_cliques_oracle(g, size + 1, limit=ORACLE_LIMIT)
        if expected == 0:
            break
        size += 1
        if expected is not None:
            result = count_maximum_cliques(g, size)
            assert result.complete and not result.capped
            assert result.count == expected, size
    searched = max_clique(g)
    assert searched.complete and searched.size == size


def _computed_rows(g: CompatibilityGraph) -> set[int]:
    """The vertices whose rows the graph has cached so far."""
    return {v for v, row in enumerate(g._rows) if row is not None}


@pytest.mark.parametrize("n, k, d, exact", [(12, 5, 8, False), (10, 3, 4, True), (8, 3, 4, False)])
def test_searches_compute_only_the_rows_of_vertex_0_and_its_neighbours(n, k, d, exact):
    g = build_graph(n, k, d, exact=exact)
    searched = max_clique(g)
    assert searched.complete
    neighbourhood = {0} | {v for v in range(len(g)) if g.row(0) >> v & 1}
    computed = _computed_rows(g)
    assert computed == neighbourhood
    # the count reads the same rows, all cached by the search
    assert count_maximum_cliques(g, searched.size).complete
    assert _computed_rows(g) == computed
    fresh = build_graph(n, k, d, exact=exact)
    assert count_maximum_cliques(fresh, searched.size).complete
    assert _computed_rows(fresh) == neighbourhood


def test_a_second_search_on_one_graph_reuses_the_colouring_masks():
    g = build_graph(8, 3, 4)
    searched = max_clique(g)
    others = g._others
    assert others is not None
    assert count_maximum_cliques(g, searched.size).count == 840
    assert g._others is others
    # a row pass cut short by the deadline keeps nothing; 462 vertices of N(0) take two blocks
    g = build_graph(12, 4, 4)
    assert _neighbourhood_others(g, 0.0) is None and g._others is None
    assert _neighbourhood_others(g, None) is _neighbourhood_others(g, None)


def test_a_greedy_seed_at_the_bound_computes_only_its_own_rows():
    g = build_graph(15, 3, 4)
    result = max_clique(g, upper_bound=bound_report(15, 3, 4).upper_bound)
    assert result.complete and result.size == 35 and result.nodes == 0
    assert _computed_rows(g) == set(result.witnesses[0])


def test_zero_timeout_stops_the_row_pass_after_one_block():
    # the largest graph MAX_VERTICES accepts: 19448 vertices, 19377 of them in N(0)
    g = build_graph(17, 7, 4)
    searched = max_clique(g, timeout=0)
    assert not searched.complete and searched.nodes == 0
    assert len(extract_code(g, searched.witnesses[0])) == searched.size
    assert len(_computed_rows(g)) <= searched.size + ROW_BLOCK
    counted = count_maximum_cliques(build_graph(17, 7, 4), searched.size, timeout=0)
    assert not counted.complete and not counted.capped
    assert counted.count == 0 and counted.nodes == 0


# pinned outputs of the searches: size, node count and first witness of
# the unbounded max_clique, and count with node count of count_maximum_cliques
PINNED_SEARCHES = [
    ((8, 3, 4, False), (8, 66, (0, 11, 18, 27, 35, 39, 41, 53)), (840, 259)),
    ((9, 4, 6, False), (3, 2, (0, 46, 86)), None),
    ((8, 4, 4, True), (7, 1, (0, 9, 14, 20, 23, 27, 28)), (3840, 61)),
    ((9, 3, 4, True), (7, 8, (0, 13, 22, 35, 40, 51, 54)), (1080, 43)),
    ((10, 3, 4, True), (7, 12, (0, 15, 27, 44, 51, 67, 70)), (3600, 71)),
]


@pytest.mark.parametrize("params, searched, counted", PINNED_SEARCHES)
def test_search_outputs_are_pinned(params, searched, counted):
    n, k, d, exact = params
    result = max_clique(build_graph(n, k, d, exact=exact))
    assert result.complete
    assert (result.size, result.nodes, result.witnesses[0]) == searched
    if counted is not None:
        count = count_maximum_cliques(build_graph(n, k, d, exact=exact), result.size)
        assert count.complete and not count.capped
        assert (count.count, count.nodes) == counted


def test_search_at_the_proven_bound_is_pinned():
    g = build_graph(11, 5, 6)
    result = max_clique(g, upper_bound=bound_report(11, 5, 6).upper_bound)
    assert result.complete and (result.size, result.nodes) == (11, 10)
    count = count_maximum_cliques(g, 11)
    assert count.complete and not count.capped
    assert (count.count, count.nodes) == (60480, 1954)
