import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlattice import saf
from cwlattice.code import ConstantWeightCode, DecodeResult
from cwlattice.saf import (
    EdgeErasure,
    NetworkTopology,
    NoAdversary,
    Outcome,
    RandomSubstitution,
    SymbolMap,
    TargetedSubstitution,
    TopologySpec,
    apply_adversary,
    check_adversary,
    node_process,
    random_dag,
    run_experiment,
    run_trial,
    sink_recover,
    source_encode,
)
from helpers import random_dag_oracle, random_substitution_oracle, reference_trial

DIRECT = NetworkTopology(layer_sizes=(1, 1), edges=((0, 1),), max_indegree=1)


def test_random_dag_trivial():
    topo = random_dag(layers=2, width=1, max_indegree=1, seed=5)
    assert topo.edges == ((0, 1),)
    assert topo.source == 0 and topo.sink == 1


def test_random_dag_deterministic():
    a = random_dag(layers=5, width=4, max_indegree=3, edge_density=0.4, seed=77)
    b = random_dag(layers=5, width=4, max_indegree=3, edge_density=0.4, seed=77)
    c = random_dag(layers=5, width=4, max_indegree=3, edge_density=0.4, seed=78)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_random_dag_degree_bounds():
    topo = random_dag(layers=4, width=3, max_indegree=2, seed=42)
    indeg = {}
    for u, v in topo.edges:
        indeg[v] = indeg.get(v, 0) + 1
    for v in range(1, topo.node_count):
        assert 1 <= indeg.get(v, 0) <= 2


def test_random_dag_validation():
    with pytest.raises(ValueError):
        random_dag(layers=1, width=1, max_indegree=1)
    with pytest.raises(ValueError):
        random_dag(layers=3, width=0, max_indegree=1)
    with pytest.raises(ValueError):
        random_dag(layers=3, width=1, max_indegree=1, edge_density=1.5)


def test_candidate_edge_limit_is_checked_before_any_draw():
    # every pair of nodes in different layers is a candidate: 1 + 2w with
    # three layers, 1 + 4w + w^2 with four
    for layers, width, count in ((3, 4_999_999, 9_999_999), (3, 5_000_000, 10_000_001),
                                 (4, 3160, 9_998_241), (4, 3161, 10_004_566)):
        sizes = saf._layer_sizes(layers, width)
        assert count == sum(size * sum(sizes[:i]) for i, size in enumerate(sizes))
        if count <= saf.MAX_CANDIDATE_EDGES:
            TopologySpec(layers, width, 1)
        else:
            with pytest.raises(ValueError, match=f"topology has {count} candidate edges"):
                random_dag(layers, width, 1)


def test_topology_validation():
    with pytest.raises(ValueError, match="later layer"):
        NetworkTopology(layer_sizes=(1, 1), edges=((1, 0),), max_indegree=1)
    with pytest.raises(ValueError, match="in-degree"):
        NetworkTopology(layer_sizes=(1, 2, 1), edges=((0, 1), (0, 2)), max_indegree=2)
    with pytest.raises(ValueError, match="distinct"):
        NetworkTopology(layer_sizes=(1, 1), edges=((0, 1), (0, 1)), max_indegree=2)
    for edge in ((0, 5), (-1, 1)):
        with pytest.raises(ValueError, match="outside 0..1"):
            NetworkTopology(layer_sizes=(1, 1), edges=(edge,), max_indegree=2)


def _preds_oracle(topo):
    return [tuple(sorted(u for u, w in topo.edges if w == v)) for v in range(topo.node_count)]


def test_preds_are_sorted_predecessors():
    for seed in range(60):
        topo = random_dag(layers=2 + seed % 6, width=1 + seed % 5, max_indegree=1 + seed % 4,
                          edge_density=(seed % 7) / 6, seed=seed)
        assert list(topo.preds) == _preds_oracle(topo)
        assert all(topo.in_edges(v) == tuple((u, v) for u in topo.preds[v])
                   for v in range(topo.node_count))
    # edges given out of order
    topo = NetworkTopology(
        layer_sizes=(1, 2, 1), edges=((2, 3), (0, 2), (1, 3), (0, 1)), max_indegree=2
    )
    assert topo.preds == ((), (0,), (0,), (1, 2))
    assert list(topo.preds) == _preds_oracle(topo)
    assert topo.in_edges(3) == ((1, 3), (2, 3))


# layers, width, max_indegree, edge_density: width 1, max_indegree 1 and densities 0 and 1 included
TRUSTED_SHAPES = [
    (layers, width, indegree, density)
    for layers in (2, 3, 5, 8)
    for width in (1, 2, 5)
    for indegree in (1, 2, 4)
    for density in (0.0, 0.3, 1.0)
]


def test_random_dag_matches_the_checking_constructor():
    rng = random.Random("trusted")
    shapes = 0
    for layers, width, indegree, density in TRUSTED_SHAPES:
        for _ in range(3):
            topo = random_dag(layers, width, indegree, density, seed=rng.randrange(2 ** 32))
            checked = NetworkTopology(
                layer_sizes=topo.layer_sizes, edges=topo.edges, max_indegree=topo.max_indegree
            )
            assert checked == topo
            assert checked.preds == topo.preds
            assert checked.edges == topo.edges == tuple(sorted(topo.edges))
            assert all(checked.in_edges(v) == topo.in_edges(v) for v in range(topo.node_count))
            shapes += 1
    assert shapes >= 300


def test_sorted_sample_consumes_the_words_of_random_sample():
    # n <= 21 (m <= 5) or n <= 85 (6 <= m <= 10) takes the stdlib's pool
    # branch, larger n its set branch; both are compared on the result and
    # on the next draw of the stream
    branches = set()
    for n in range(71):
        chosen = list(range(3, 3 + 2 * n, 2))
        for m in range(min(n, 10) + 1):
            branches.add(n <= (21 if m <= 5 else 85))
            for seed in range(8):
                ours, stdlib = random.Random(seed), random.Random(seed)
                got = saf._sorted_sample(ours, chosen, m)
                assert got == tuple(sorted(stdlib.sample(chosen, m))), (n, m, seed)
                assert ours.random() == stdlib.random(), (n, m, seed)
    assert branches == {True, False}


def test_random_dag_matches_the_sample_oracle():
    # widths up to 16 give up to 113 candidates, past both of the stdlib's
    # set-size thresholds (21, and 85 for max_indegree 6..8)
    rng = random.Random("sample-oracle")
    for _ in range(2000):
        shape = (rng.randrange(2, 10), rng.randrange(1, 17), rng.randrange(1, 9),
                 rng.choice((0.0, 0.3, 0.5, 0.8, 1.0)))
        seed = rng.randrange(2 ** 32)
        assert random_dag(*shape, seed=seed).preds == random_dag_oracle(*shape, seed=seed), shape
    for shape in ((9, 16, 6, 1.0), (9, 16, 8, 0.9), (4, 10, 3, 1.0)):
        for seed in range(20):
            assert random_dag(*shape, seed=seed).preds == random_dag_oracle(*shape, seed=seed)


def test_symbol_map_defaults():
    smap = SymbolMap.default(7)
    assert smap.q == 11
    assert smap.encode(0) == 1 and smap.encode(6) == 7
    assert smap.decode(7) == 6 and smap.decode(1) == 0
    assert smap.decode(9) is None and smap.decode(8) is None and smap.decode(0) is None
    with pytest.raises(ValueError):
        smap.encode(7)


def test_symbol_map_validation():
    with pytest.raises(ValueError, match="prime"):
        SymbolMap(q=10, n=2)
    with pytest.raises(ValueError, match="q > n"):
        SymbolMap(q=5, n=5)
    assert SymbolMap(q=5, n=4) == SymbolMap.default(4)


def test_source_encode():
    smap = SymbolMap(q=11, n=7)
    assert source_encode((0, 1, 2, 5), smap) == (1, 2, 3, 6)
    assert source_encode((3,), smap) == (4,)
    assert 0 not in source_encode((0, 1, 2, 5), smap)


def test_node_process_examples():
    assert node_process([(3, 5, 2, 7), (3, 5, 2, 7)], 4) == (3, 5, 2, 7)
    assert node_process([(3, 5, 2, 7), (1, 5, 9, 4)], 4) == (3, 5, 2, 7)
    assert node_process([(3, 3, 3, 3)], 4) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_node_process_forwards_a_packet_of_k_distinct_symbols(data):
    # what run_trial relies on to forward an untouched first packet as it is
    q = data.draw(st.sampled_from((3, 5, 11, 101)))
    symbols = st.integers(0, q - 1)
    packet = tuple(data.draw(st.lists(st.integers(1, q - 1), min_size=1, unique=True)))
    rest = data.draw(st.lists(st.lists(symbols, max_size=6).map(tuple), max_size=4))
    assert node_process([packet, *rest], len(packet)) == packet


def test_node_process_idempotent():
    packet = node_process([(4, 1, 9, 2), (8, 1, 5, 2)], 4)
    assert node_process([packet] * 3, 4) == packet


def test_sink_recover_cases():
    smap = SymbolMap(q=11, n=7)
    # intact
    rec = sink_recover([(2, 4, 6, 7)], 4, smap)
    assert rec.indices == (1, 3, 5, 6)
    assert rec.invalid_symbols == 0 and rec.padded_zeros == 0
    # one missing symbol
    rec = sink_recover([(2, 4, 7)], 4, smap)
    assert rec.indices == (1, 3, 6)
    assert rec.padded_zeros == 1
    # substituted symbol still in the image
    rec = sink_recover([(2, 4, 5, 7)], 4, smap)
    assert rec.indices == (1, 3, 4, 6)
    # symbol outside the image counts as invalid
    rec = sink_recover([(2, 4, 10, 7)], 4, smap)
    assert rec.indices == (1, 3, 6)
    assert rec.invalid_symbols == 1


def test_apply_adversary_identity():
    rng = random.Random(0)
    flight = {(0, 1): (1, 2, 3)}
    assert apply_adversary(flight, NoAdversary(), 11, rng) == flight
    assert apply_adversary(flight, RandomSubstitution(prob=0.0), 11, rng) == flight


def test_apply_adversary_never_forges_zero():
    rng = random.Random(3)
    flight = {(0, 1): tuple(range(1, 11))}
    out = apply_adversary(flight, RandomSubstitution(prob=1.0), 11, rng)
    assert all(s != 0 for s in out[(0, 1)])
    assert out[(0, 1)] != flight[(0, 1)]
    with pytest.raises(ValueError, match="zero"):
        TargetedSubstitution(rules=(((0, 1), 3, 0),))


def test_apply_adversary_edge_erasure():
    rng = random.Random(1)
    flight = {(0, 2): (1, 2), (1, 2): (3, 4)}
    out = apply_adversary(flight, EdgeErasure(edges=((0, 2),)), 11, rng)
    assert out == {(1, 2): (3, 4)}
    gone = apply_adversary(flight, EdgeErasure(prob=1.0), 11, rng)
    assert gone == {}


@pytest.mark.parametrize("model", [RandomSubstitution, EdgeErasure])
def test_adversary_prob_must_lie_in_unit_interval(model):
    for prob in (0, 0.5, 1):
        model(prob=prob)
    for prob in (-0.1, 1.5, 2, float("nan"), True, "0.5"):
        with pytest.raises(ValueError, match="prob"):
            model(prob=prob)


@pytest.mark.parametrize(
    "model, message",
    [
        (TargetedSubstitution(rules=(((0, 1), 1, 99),)), r"rules\[0\]: new symbol 99 is not a nonzero"),
        (TargetedSubstitution(rules=(((0, 1), 1, 2), ((0, 1), -3, 2))), r"rules\[1\]: old symbol -3"),
        (TargetedSubstitution(rules=(((5, 9), 2, 3),)), r"rules\[0\]: edge \(5, 9\) names a node outside 0\.\.7"),
        (EdgeErasure(edges=((0, 1), (7, 3))), r"edges\[1\]: edge \(7, 3\) does not go to a later"),
        (EdgeErasure(edges=((1, 2),)), r"edges\[0\]: edge \(1, 2\) does not go to a later"),
        (EdgeErasure(edges=((-1, 4),)), r"edges\[0\]: edge \(-1, 4\) names a node outside 0\.\.7"),
    ],
)
def test_check_adversary_names_the_bad_rule(model, message):
    # layers (1, 3, 3, 1): nodes 1-3 and 4-6 in the middle, sink 7
    with pytest.raises(ValueError, match=message):
        check_adversary(model, (1, 3, 3, 1), 11)


@pytest.mark.parametrize("edge", [(5, 9), (-1, 4), (7, 3), (1, 2)],
                         ids=["past-sink", "negative-tail", "backwards", "same-layer"])
def test_topology_and_adversary_reject_an_edge_alike(edge):
    layers = (1, 3, 3, 1)
    with pytest.raises(ValueError) as topology_error:
        NetworkTopology(layer_sizes=layers, edges=(edge,), max_indegree=3)
    with pytest.raises(ValueError) as adversary_error:
        check_adversary(EdgeErasure(edges=(edge,)), layers, 11)
    assert str(adversary_error.value) == f"edges[0]: {topology_error.value}"


def test_check_adversary_accepts_what_a_run_can_use(code744, pool744):
    for model in (
        NoAdversary(), RandomSubstitution(0.5), EdgeErasure(0.1),
        EdgeErasure(edges=((0, 7), (3, 4), (6, 7))),
        TargetedSubstitution(rules=(((0, 1), 1, 10), ((2, 5), 10, 1))),
    ):
        check_adversary(model, (1, 3, 3, 1), 11)
    spec = TopologySpec(4, 3, 3)
    with pytest.raises(ValueError, match=r"outside 0\.\.7"):
        run_experiment(code744, pool744, SymbolMap.default(7), spec,
                       EdgeErasure(edges=((3, 8),)), trials=0)


def test_erasure_leaves_disjoint_path_intact(code744):
    # two parallel source->middle->sink paths; erase one of them
    topo = NetworkTopology(
        layer_sizes=(1, 2, 1),
        edges=((0, 1), (0, 2), (1, 3), (2, 3)),
        max_indegree=2,
    )
    smap = SymbolMap.default(7)
    adversary = EdgeErasure(edges=((0, 1), (1, 3)))
    result = run_trial(topo, code744, smap, adversary, message_index=2)
    assert result.outcome == Outcome.SUCCESS


REFERENCE_ADVERSARIES = (
    NoAdversary(),
    RandomSubstitution(0.2, seed=3),
    EdgeErasure(0.2, edges=((0, 1),), seed=4),
    TargetedSubstitution(rules=(((0, 1), 1, 2), ((0, 2), 3, 5), ((1, 4), 2, 7))),
    RandomSubstitution(0.0, seed=5),
    RandomSubstitution(1.0, seed=6),
    EdgeErasure(1.0, seed=7),
)
REFERENCE_IDS = ("none", "random_substitution", "edge_erasure", "targeted_substitution",
                 "random_substitution_never", "random_substitution_always", "edge_erasure_always")
# the one outcome of a model that never or always acts; the others reach SUCCESS and more
REFERENCE_OUTCOMES = {
    "random_substitution_never": Outcome.SUCCESS,
    "edge_erasure_always": Outcome.NODE_FAILURE,
}
# layers, width, max_indegree, edge_density
REFERENCE_SHAPES = ((2, 1, 1, 0.5), (4, 3, 3, 0.5), (6, 4, 3, 0.2), (5, 5, 2, 0.9), (8, 6, 3, 0.1))


@pytest.mark.parametrize("adversary, name", zip(REFERENCE_ADVERSARIES, REFERENCE_IDS), ids=REFERENCE_IDS)
def test_run_trial_matches_reference_trial(code744, adversary, name):
    smap = SymbolMap.default(7)
    rng = random.Random(f"reference:{name}")
    outcomes = set()
    for layers, width, indegree, density in REFERENCE_SHAPES:
        for _ in range(40):
            topo = random_dag(layers, width, indegree, density, seed=rng.randrange(2 ** 32))
            message, trial_seed = rng.randrange(len(code744)), rng.randrange(2 ** 32)
            got = run_trial(topo, code744, smap, adversary, message, trial_seed)
            want = reference_trial(topo, code744, smap, adversary, message, trial_seed)
            assert got == want
            outcomes.add(got.outcome)
    if name in REFERENCE_OUTCOMES:
        assert outcomes == {REFERENCE_OUTCOMES[name]}
        return
    assert Outcome.SUCCESS in outcomes
    if adversary.kind != "none":
        assert len(outcomes) > 1


@pytest.mark.parametrize("prob", [0.0, 0.05, 0.3, 1.0])
def test_random_substitution_returns_its_input_exactly_when_unchanged(prob):
    packets, ours, theirs = random.Random(prob), random.Random(prob), random.Random(prob)
    model = RandomSubstitution(prob)
    kept = 0
    for _ in range(300):
        packet = tuple(packets.sample(range(1, 11), 4))
        got = model.corrupt((0, 1), packet, 11, ours)
        assert got == random_substitution_oracle(prob, packet, 11, theirs)
        assert (got is packet) == (got == packet)
        assert ours.getstate() == theirs.getstate()
        kept += got is packet
    assert (kept == 300) == (prob == 0.0) and (kept == 0) == (prob == 1.0)


def test_corrupt_returns_its_input_when_it_changes_nothing():
    packet, rng = (1, 2, 3, 6), random.Random(0)
    targeted = TargetedSubstitution(rules=(((0, 2), 1, 5), ((0, 1), 4, 5)))
    for model in (NoAdversary(), targeted, EdgeErasure(0.0, edges=((0, 2),))):
        assert model.corrupt((0, 1), packet, 11, rng) is packet
    assert targeted.corrupt((0, 2), packet, 11, rng) == (5, 2, 3, 6)


def test_only_models_with_a_seed_get_an_rng():
    assert saf._adversary_rng(NoAdversary(), 3) is None
    assert saf._adversary_rng(TargetedSubstitution(rules=(((0, 1), 1, 2),)), 3) is None
    for model in (RandomSubstitution(0.1, seed=4), EdgeErasure(0.1, seed=4)):
        rng = saf._adversary_rng(model, 3)
        assert rng.getstate() == random.Random("adversary:4:3").getstate()


def test_random_substitution_over_f2_names_q():
    # F_2 has one nonzero symbol, so a model that may act is refused before any trial
    check_adversary(RandomSubstitution(prob=0.0), (1, 1), 2)
    check_adversary(RandomSubstitution(prob=0.5), (1, 1), 3)
    message = "random substitution needs q >= 3: F_2 has no other nonzero symbol"
    for prob in (1e-9, 0.2, 1.0):
        with pytest.raises(ValueError, match=message):
            check_adversary(RandomSubstitution(prob=prob), (1, 1), 2)
    code = ConstantWeightCode(1, [(0,)])
    for seed in range(1, 7):
        with pytest.raises(ValueError, match=message):
            run_experiment(code, None, SymbolMap.default(1), DIRECT,
                           RandomSubstitution(0.2, seed=seed), trials=1, seed=seed)
    # a single trial refuses it too, before its first draw
    with pytest.raises(ValueError, match=message):
        run_trial(DIRECT, code, SymbolMap.default(1), RandomSubstitution(1.0, seed=1), 0)
    quiet = run_trial(DIRECT, code, SymbolMap.default(1), RandomSubstitution(0.0, seed=1), 0)
    assert quiet.outcome == Outcome.SUCCESS


def test_trial_clean_channel(code744):
    smap = SymbolMap.default(7)
    result = run_trial(DIRECT, code744, smap, NoAdversary(), message_index=0)
    assert result.outcome == Outcome.SUCCESS
    assert result.decoded == code744.codewords[0]


def test_trial_targeted_substitution_detected(code744):
    # transmit indices {1,3,5,6}; replace symbol 6 (index 5) with 5 (index 4)
    smap = SymbolMap.default(7)
    adversary = TargetedSubstitution(rules=(((0, 1), 6, 5),))
    result = run_trial(DIRECT, code744, smap, adversary, message_index=5)
    assert result.outcome == Outcome.DETECTED
    assert result.ties == 3
    assert result.errors_at_sink == 1 and result.erasures_at_sink == 0


def test_trial_single_erasure_succeeds(code744):
    # substitute symbol 6 by the already present symbol 4: dedup drops it
    smap = SymbolMap.default(7)
    adversary = TargetedSubstitution(rules=(((0, 1), 6, 4),))
    result = run_trial(DIRECT, code744, smap, adversary, message_index=5)
    assert result.outcome == Outcome.SUCCESS
    assert result.erasures_at_sink == 1 and result.errors_at_sink == 0
    assert result.decoded == (1, 3, 5, 6)


def test_trial_total_erasure_is_node_failure(code744):
    smap = SymbolMap.default(7)
    adversary = EdgeErasure(edges=((0, 1),))
    result = run_trial(DIRECT, code744, smap, adversary, message_index=0)
    assert result.outcome == Outcome.NODE_FAILURE


@pytest.mark.parametrize(
    "adversary, counts, t_sum, e_sum",
    [
        (NoAdversary(), (500, 0, 0, 0), 0, 0),
        (RandomSubstitution(0.1, seed=5), (361, 119, 20, 0), 141, 120),
        (EdgeErasure(0.2, seed=5), (487, 0, 0, 13), 0, 52),
        (TargetedSubstitution(rules=(((0, 1), 1, 2), ((0, 2), 3, 5))), (432, 68, 0, 0), 68, 0),
    ],
    ids=["none", "random-substitution", "edge-erasure", "targeted-substitution"],
)
def test_seeded_experiment_results_are_pinned(code744, pool744, adversary, counts, t_sum, e_sum):
    # every random draw of a trial is seeded: these numbers must not drift
    stats = run_experiment(
        code744, pool744, SymbolMap.default(7), TopologySpec(6, 4, 3, 0.5, seed=3),
        adversary, trials=500, seed=7,
    )
    assert tuple(stats.counts.get(o, 0) for o in Outcome) == counts
    assert sum(r.errors_at_sink for r in stats.results) == t_sum
    assert sum(r.erasures_at_sink for r in stats.results) == e_sum
    assert stats.guarantee_violations == 0


@pytest.mark.parametrize(
    "adversary, counts, t_sum, e_sum",
    [
        (EdgeErasure(0.3, seed=4), (377, 0, 0, 23), 0, 92),
        (RandomSubstitution(0.05, seed=4), (341, 51, 8, 0), 59, 64),
    ],
    ids=["edge-erasure", "random-substitution"],
)
def test_seeded_results_are_pinned_on_the_erasure_benchmark_shape(
    code744, pool744, adversary, counts, t_sum, e_sum
):
    # 8 layers of width 6 give up to 37 candidate predecessors, so the
    # in-degree repair takes both of random.sample's branches
    stats = run_experiment(
        code744, pool744, SymbolMap.default(7), TopologySpec(8, 6, 3, 0.5, seed=2),
        adversary, trials=400, seed=9,
    )
    assert tuple(stats.counts.get(o, 0) for o in Outcome) == counts
    assert sum(r.errors_at_sink for r in stats.results) == t_sum
    assert sum(r.erasures_at_sink for r in stats.results) == e_sum
    assert stats.guarantee_violations == 0


def test_trial_determinism(code744):
    smap = SymbolMap.default(7)
    adversary = RandomSubstitution(prob=0.3, seed=9)
    topo = random_dag(layers=4, width=3, max_indegree=3, seed=11)
    a = run_trial(topo, code744, smap, adversary, 4, trial_seed=123)
    b = run_trial(topo, code744, smap, adversary, 4, trial_seed=123)
    assert a == b


def test_trial_parameter_validation(code744, pool744):
    smap = SymbolMap(q=7, n=6)
    with pytest.raises(ValueError, match="q > n"):
        run_trial(DIRECT, code744, smap, NoAdversary(), 0)
    small = ConstantWeightCode(3, [(0, 1), (1, 2)])
    # the pool is checked once per run, before the first trial
    with pytest.raises(ValueError, match="pool size"):
        run_experiment(small, pool744, SymbolMap.default(3), DIRECT, NoAdversary(), trials=0)


def test_experiment_clean_statistics(code744, pool744):
    smap = SymbolMap.default(7)
    spec = TopologySpec(layers=4, width=3, max_indegree=3, seed=6)
    stats = run_experiment(code744, pool744, smap, spec, NoAdversary(), trials=200, seed=1)
    assert stats.trials == 200
    assert stats.counts.get(Outcome.SUCCESS, 0) == 200
    assert stats.rate(Outcome.SUCCESS) == 1.0


def test_guarantee_violations_count_failures_within_the_guarantee(code744, pool744, monkeypatch):
    # a decoder that always ties fails trials with t = e = 0, inside the guarantee
    monkeypatch.setattr(saf, "decode", lambda received, code: DecodeResult(0, code.codewords[:2]))
    stats = run_experiment(code744, pool744, SymbolMap.default(7), DIRECT, NoAdversary(), trials=5)
    assert stats.counts == {Outcome.DETECTED: 5}
    assert stats.guarantee_violations == 5
    assert stats.to_json()["guarantee_violations"] == 5


def test_one_codeword_code_counts_no_guarantee_violations():
    code = ConstantWeightCode(3, [(0, 1)])
    stats = run_experiment(
        code, None, SymbolMap.default(3), DIRECT, EdgeErasure(prob=1.0), trials=4,
    )
    assert stats.counts == {Outcome.NODE_FAILURE: 4}
    assert stats.guarantee_violations == 0


def test_experiment_csv(tmp_path, code744, pool744):
    smap = SymbolMap.default(7)
    stats = run_experiment(
        code744, pool744, smap, DIRECT,
        RandomSubstitution(prob=0.2, seed=4), trials=20, seed=2,
    )
    out = tmp_path / "trials.csv"
    saf.write_csv(stats, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,outcome,t,e,decoded_ok"
    assert len(lines) == 21
