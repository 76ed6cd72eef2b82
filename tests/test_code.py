import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlattice.code import (
    MAX_GROUND_SIZE,
    ConstantWeightCode,
    decode,
    guaranteed_correctable,
    puncture,
    rate,
    symmetric_distance,
)
from helpers import decode_oracle, random_constant_weight_code


def test_symmetric_distance_basic():
    assert symmetric_distance({0, 1, 2, 5}, {0, 1, 2, 5}) == 0
    assert symmetric_distance({0, 1, 2, 5}, {0, 1, 3, 4}) == 4
    assert symmetric_distance({0, 1, 2, 3}, {0, 1, 2}) == 1
    assert symmetric_distance([], [1, 2]) == 2


def test_symmetric_distance_is_a_metric():
    rng = random.Random(99)
    universe = range(12)
    for _ in range(10_000):
        a = {x for x in universe if rng.random() < 0.4}
        b = {x for x in universe if rng.random() < 0.4}
        c = {x for x in universe if rng.random() < 0.4}
        dab = symmetric_distance(a, b)
        assert dab == symmetric_distance(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= symmetric_distance(a, c) + symmetric_distance(c, b)
        if len(a) == len(b):
            assert dab % 2 == 0


def test_code_validation():
    with pytest.raises(ValueError):
        ConstantWeightCode(5, [])
    with pytest.raises(ValueError):
        ConstantWeightCode(5, [(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        ConstantWeightCode(5, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        ConstantWeightCode(5, [(1, 0)])
    with pytest.raises(ValueError):
        ConstantWeightCode(5, [(0, 5)])
    with pytest.raises(ValueError, match="codewords must be nonempty"):
        ConstantWeightCode(5, [()])
    with pytest.raises(ValueError, match="ground set size must be positive"):
        ConstantWeightCode(0, [(0,)])
    with pytest.raises(ValueError, match="ground set size 65537 is over the limit 65536"):
        ConstantWeightCode(MAX_GROUND_SIZE + 1, [(0,)])


def test_min_distance_sample(code744):
    assert code744.min_distance == 4
    assert len(code744) == 7


def test_min_distance_needs_two_codewords():
    single = ConstantWeightCode(5, [(0, 1, 2)])
    with pytest.raises(ValueError):
        single.min_distance


def test_min_distance_disjoint_pair():
    code = ConstantWeightCode(8, [(0, 1, 2), (3, 4, 5)])
    assert code.min_distance == 6


def test_min_distance_864_example():
    code = ConstantWeightCode(8, [
        (0, 1, 2, 3, 4, 6),
        (0, 1, 2, 5, 6, 7),
        (0, 1, 3, 4, 5, 7),
        (2, 3, 4, 5, 6, 7),
    ])
    assert code.min_distance == 4


def test_decode_codeword_is_fixed_point(code744):
    for cw in code744.codewords:
        result = decode(cw, code744)
        assert not result.ambiguous
        assert result.codeword == cw
        assert result.distance == 0


def test_decode_substitution_gives_three_ties(code744):
    result = decode((1, 3, 4, 6), code744)
    assert result.ambiguous
    assert len(result.candidates) == 3
    assert result.codeword is None
    assert result.distance == 2
    assert set(result.candidates) == {(0, 1, 3, 4), (1, 2, 4, 6), (1, 3, 5, 6)}


def test_decode_single_erasure(code744):
    result = decode((1, 3, 6), code744)
    assert result.codeword == (1, 3, 5, 6)
    assert result.distance == 1


def test_decode_validates_range(code744):
    with pytest.raises(ValueError):
        decode((0, 9), code744)


@st.composite
def codes(draw, max_n=24, max_size=60):
    """A code of n <= 24 of any weight k, with 1 to about 60 distinct codewords."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    size = draw(st.integers(1, min(math.comb(n, k), max_size)))
    rng = draw(st.randoms(use_true_random=False))
    words = {}  # in the order drawn, which is the code order
    while len(words) < size:
        words[tuple(sorted(rng.sample(range(n), k)))] = None
    return ConstantWeightCode(n, list(words))


@st.composite
def codes_and_received(draw):
    """A code and a received list of any set size from 0 to n, duplicates included."""
    code = draw(codes())
    symbols = st.integers(0, code.n - 1)
    received = draw(st.lists(symbols, max_size=2 * code.n) | st.permutations(range(code.n)))
    if received:
        received += draw(st.lists(st.sampled_from(received), max_size=3))
    return code, received


@settings(max_examples=250, deadline=None)
@given(codes_and_received())
def test_decode_matches_popcount_oracle(case):
    code, received = case
    assert decode(received, code) == decode_oracle(received, code)


@settings(max_examples=100, deadline=None)
@given(codes_and_received(), st.sampled_from([-1, "n", "n+5"]))
def test_decode_out_of_range_raises_as_oracle(case, bad):
    code, received = case
    bad = {"n": code.n, "n+5": code.n + 5}.get(bad, bad)
    received = [*received, bad]
    with pytest.raises(ValueError) as expected:
        decode_oracle(received, code)
    with pytest.raises(ValueError) as got:
        decode(received, code)
    assert str(got.value) == str(expected.value) == f"received indices must lie in 0..{code.n - 1}"


@settings(max_examples=120, deadline=None)
@given(codes())
def test_min_distance_is_the_pairwise_minimum(code):
    pairs = itertools.combinations(code.codewords, 2)
    expected = min((symmetric_distance(a, b) for a, b in pairs), default=None)
    if expected is None:
        with pytest.raises(ValueError):
            code.min_distance
        assert "d" not in code.to_json()
    else:
        assert code.min_distance == expected


@pytest.mark.parametrize("n, k", [(2, 1), (8, 4), (24, 12), (24, 8)])
def test_min_distance_of_disjoint_codewords_is_2k(n, k):
    words = [tuple(range(start, start + k)) for start in range(0, n - k + 1, k)]
    assert ConstantWeightCode(n, words).min_distance == 2 * k


def test_guaranteed_correctable(code744):
    assert guaranteed_correctable(code744, 0, 0)
    assert guaranteed_correctable(code744, 0, 1)
    assert not guaranteed_correctable(code744, 1, 0)
    assert not guaranteed_correctable(code744, 0, 2)
    with pytest.raises(ValueError):
        guaranteed_correctable(code744, -1, 0)


def test_correctable_patterns_decode_exhaustively(code744):
    # every pattern with 2*(2t+e) < 4, i.e. one erasure, decodes correctly
    for cw in code744.codewords:
        for dropped in cw:
            received = tuple(i for i in cw if i != dropped)
            assert decode(received, code744).codeword == cw


def test_single_substitution_never_decodes_wrong(code744):
    for cw in code744.codewords:
        others = set(range(code744.n)) - set(cw)
        for out_sym, in_sym in itertools.product(cw, others):
            received = sorted((set(cw) - {out_sym}) | {in_sym})
            result = decode(received, code744)
            if not result.ambiguous:
                assert result.codeword == cw


def test_puncture_sample_code(code744):
    punctured = puncture(code744, removed_index=6)
    assert punctured.n == 6
    assert punctured.k == 3
    assert len(punctured) == 7
    assert punctured.min_distance >= code744.min_distance - 2


def test_puncture_single_codeword():
    code = ConstantWeightCode(5, [(0, 2, 4)])
    assert puncture(code).codewords == ((0, 2),)
    assert puncture(code, removed_index=2).codewords == ((0, 3),)


def test_puncture_requires_distance(code744):
    once = puncture(code744)
    with pytest.raises(ValueError):
        puncture(once)  # d dropped to 2
    with pytest.raises(ValueError):
        puncture(ConstantWeightCode(3, [(0,), (1,)]))
    with pytest.raises(ValueError, match=r"removed index must lie in 0\.\.6"):
        puncture(code744, removed_index=code744.n)


def test_puncture_randomized_keeps_size_and_distance():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randrange(6, 11)
        k = rng.randrange(3, n - 1)
        d = 4 if min(k, n - k) >= 2 else 2
        if d <= 2:
            continue
        code = random_constant_weight_code(n, k, d, rng)
        punctured = puncture(code, removed_index=rng.randrange(n))
        assert len(punctured) == len(code)
        assert punctured.min_distance >= code.min_distance - 2
        # decoding any codeword of any code returns that codeword
        for cw in code.codewords[:3]:
            assert decode(cw, code).codeword == cw


def test_iterated_puncturing_keeps_size():
    rng = random.Random(7)
    code = random_constant_weight_code(9, 4, 6, rng)
    steps = (code.min_distance - 2) // 2
    current = code
    for _ in range(steps):
        current = puncture(current)
        assert len(current) == len(code)


def test_rate(code744):
    import math

    single = ConstantWeightCode(7, [(0, 1, 2, 3)])
    assert rate(single, 11) == 0.0
    assert rate(code744, 11) == pytest.approx(math.log(7, 11) / 4)
    assert rate(code744, 11) == pytest.approx(0.2029, abs=1e-4)
    assert 0 <= rate(code744, 11) < 1
    with pytest.raises(ValueError):
        rate(code744, 7)


def test_json_roundtrip(code744):
    obj = code744.to_json()
    assert obj["d"] == 4
    assert obj["codewords"] == sorted(obj["codewords"])
    again = ConstantWeightCode.from_json(obj)
    assert again == code744
    with pytest.raises(ValueError, match="claims"):
        ConstantWeightCode.from_json({"n": 7, "d": 6, "codewords": obj["codewords"]})
