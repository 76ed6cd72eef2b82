import itertools
import random

import pytest

from cwlattice.lattice import (
    MAX_LATTICE_ELEMENTS,
    FiniteLattice,
    MultiplicationTable,
    SizeLimitError,
    boolean_lattice,
    chain,
    check_primary,
    check_prime,
    diamond_m3,
    irreducible_not_primary_example,
    pentagon_n5,
)
from helpers import (
    all_lattices,
    closure_oracle,
    decompositions_oracle,
    glb_oracle,
    lub_oracle,
    m3_oracle,
    primary_oracle,
    prime_oracle,
    random_multiplication_rows,
    semimodular_oracle,
)

NAMED = {}


def named_lattices():
    if not NAMED:
        NAMED.update(
            b3=boolean_lattice(3),
            m3=diamond_m3(),
            n5=pentagon_n5(),
            c1=chain(1),
            c2=chain(2),
            c4=chain(4),
            example=irreducible_not_primary_example()[0],
        )
    return NAMED


def test_construction_rejects_non_lattices():
    # two maximal elements
    with pytest.raises(ValueError):
        FiniteLattice(["a", "b"], [])
    # cycle
    with pytest.raises(ValueError):
        FiniteLattice(["a", "b"], [("a", "b"), ("b", "a")])
    # bowtie: x, y have no least upper bound, and p, q no greatest lower
    # bound; meets are tabled first, and in a finite order with a bottom
    # and a top, all meets existing makes every join exist, so the message
    # names the first pair without a meet
    covers = [("0", "x"), ("0", "y"), ("x", "p"), ("y", "p"),
              ("x", "q"), ("y", "q"), ("p", "1"), ("q", "1")]
    with pytest.raises(ValueError, match="'p', 'q' lack a unique greatest lower bound"):
        FiniteLattice(["0", "x", "y", "p", "q", "1"], covers)
    # the dual bowtie: the same covers turned upside down
    dual = [(hi, lo) for lo, hi in covers]
    with pytest.raises(ValueError, match="'x', 'y' lack a unique greatest lower bound"):
        FiniteLattice(["0", "x", "y", "p", "q", "1"], dual)
    with pytest.raises(ValueError, match="labels must be distinct"):
        FiniteLattice(["a", "b", "a"], [("a", "b")])
    with pytest.raises(ValueError, match=r"cover \(a, a\) relates an element to itself"):
        FiniteLattice(["a", "b"], [("a", "a"), ("a", "b")])
    with pytest.raises(ValueError, match="at least one element"):
        chain(0)


def order_of(lat: FiniteLattice):
    return lat._up, lat._down, lat._cover_up, lat._bottom, lat._top


def test_closure_matches_the_warshall_oracle():
    # every lattice of at most 8 elements, from its covers, from its whole
    # order (redundant pairs), and from shuffled covers with repeated and
    # redundant pairs
    rng = random.Random(31)
    total = 0
    for m in range(1, 9):
        for lat in all_lattices(m):
            covers = lat.cover_pairs()
            order = [(a, b) for a in lat.elements for b in lat.elements if a != b and lat.leq(a, b)]
            mixed = covers + rng.sample(order, len(order) // 2) + rng.choices(covers, k=len(covers) // 2)
            rng.shuffle(mixed)
            for pairs in (covers, order, mixed):
                want = closure_oracle(lat.elements, pairs)
                got = FiniteLattice(lat.elements, pairs)
                assert order_of(got) == want, (lat.elements, pairs)
                irreducible = [lat.elements[i] for i, row in enumerate(want[2]) if row.bit_count() == 1]
                assert got.meet_irreducibles() == irreducible
            total += 1
    assert total == 4008


# the construction errors, in check order: label, self-cover, cycle,
# bottom/top, pair
KINDS = ("covers[", "cover (", "cover relation contains a cycle",
         "order must have a unique bottom and a unique top", "elements ")


def outcome(build, elements, covers):
    try:
        return build(elements, covers)
    except ValueError as exc:
        return str(exc)


def test_construction_errors_match_the_warshall_oracle():
    # random relations, with self-pairs, unknown labels and cycles, give
    # the oracle's first error in the oracle's check order, or its order
    rng = random.Random(29)
    errors = set()
    for _ in range(3000):
        m = rng.randrange(1, 7)
        elements = [f"e{i}" for i in range(m)]
        labels = elements + ["zz"] * (rng.random() < 0.1)
        covers = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randrange(3 * m))]
        want = outcome(closure_oracle, elements, covers)
        got = outcome(lambda e, c: order_of(FiniteLattice(e, c)), elements, covers)
        assert got == want, (elements, covers)
        if isinstance(want, str):
            errors.add(next(kind for kind in KINDS if want.startswith(kind)))
    # a cycle is reported before the missing bottom, also when nothing
    # lies below the cycle; the bowtie has a bottom and a top but no meets
    bowtie = [("0", "x"), ("0", "y"), ("x", "p"), ("y", "p"), ("x", "q"), ("y", "q"), ("p", "1"), ("q", "1")]
    for elements, covers in ((["a", "b", "c"], [("a", "b"), ("b", "a")]),
                             (["0", "a", "b"], [("0", "a"), ("a", "b"), ("b", "a")]),
                             (["a", "b"], [("a", "b"), ("b", "a"), ("a", "a")]),
                             (["0", "x", "y", "p", "q", "1"], bowtie)):
        want = outcome(closure_oracle, elements, covers)
        assert outcome(FiniteLattice, elements, covers) == want
        errors.add(next(kind for kind in KINDS if want.startswith(kind)))
    assert errors == set(KINDS)
    assert outcome(FiniteLattice, ["a", "b", "c"], [("a", "b"), ("b", "a")]) == "cover relation contains a cycle"
    assert outcome(FiniteLattice, ["a", "b"], [("a", "b"), ("b", "a"), ("a", "a")]) == \
        "cover (a, a) relates an element to itself"


def test_labels_resolve_by_lookup_and_by_str():
    c3 = chain(3)
    assert c3.meet(1, 2) == "1" and c3.join(0, "2") == "2"
    assert c3.leq(0, 1) and not c3.leq("2", 1)
    for bad in ("zz", 5, ["0"]):
        with pytest.raises(ValueError, match=r"^unknown lattice element "):
            c3.meet("0", bad)
        with pytest.raises(ValueError, match=r"^unknown lattice element "):
            c3.join(bad, "0")
    rows = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
    assert MultiplicationTable(c3, rows).to_json() == [[str(v) for v in row] for row in rows]
    rows[1][2] = "zz"
    with pytest.raises(ValueError, match=r"^mult\[1\]\[2\]: unknown lattice element 'zz'$"):
        MultiplicationTable(c3, rows)
    rows[1][2] = ["1"]
    with pytest.raises(ValueError, match=r"^mult\[1\]\[2\]: unknown lattice element \['1'\]$"):
        MultiplicationTable(c3, rows)


def test_meet_join_against_order_oracle():
    for name, lat in named_lattices().items():
        for a, b in itertools.product(lat.elements, repeat=2):
            assert lat.meet(a, b) == glb_oracle(lat, a, b), (name, a, b)
            assert lat.join(a, b) == lub_oracle(lat, a, b), (name, a, b)


def test_meet_identities():
    b3 = boolean_lattice(3)
    for x in b3.elements:
        assert b3.meet(x, b3.top) == x
        assert b3.meet(x, x) == x
        assert b3.join(x, b3.bottom) == x


def test_m3_atom_meets():
    m3 = diamond_m3()
    assert m3.meet("x", "y") == "0"
    assert m3.join("x", "y") == "1"


def test_meet_irreducibles_of_named_lattices():
    assert set(chain(4).meet_irreducibles()) == {"0", "1", "2"}
    assert set(boolean_lattice(3).meet_irreducibles()) == {"011", "101", "110"}
    assert set(diamond_m3().meet_irreducibles()) == {"x", "y", "z"}


def test_meet_irreducibles_match_definition():
    # c != top is meet-irreducible when no d, e other than c have meet c
    corpus = list(named_lattices().items())
    corpus += [(f"m={m}", lat) for m in range(1, 7) for lat in all_lattices(m)]
    for name, lat in corpus:
        reducible = set()
        for d, e in itertools.combinations(lat.elements, 2):
            glb = glb_oracle(lat, d, e)
            if glb not in (d, e):
                reducible.add(glb)
        expected = set(lat.elements) - reducible - {lat.top}
        assert set(lat.meet_irreducibles()) == expected, (name, lat.to_json())


def test_decompositions_of_irreducible_is_itself():
    for lat in (boolean_lattice(3), pentagon_n5(), chain(4)):
        for q in lat.meet_irreducibles():
            assert lat.irreducible_decompositions(q) == [frozenset([q])]


def test_decompositions_top_is_empty_meet():
    b3 = boolean_lattice(3)
    assert b3.irreducible_decompositions(b3.top) == [frozenset()]


def test_decompositions_m3_bottom_not_unique():
    m3 = diamond_m3()
    decs = m3.irreducible_decompositions("0")
    assert len(decs) == 3
    assert all(len(s) == 2 for s in decs)


def test_decompositions_b3_bottom_unique():
    b3 = boolean_lattice(3)
    decs = b3.irreducible_decompositions(b3.bottom)
    assert decs == [frozenset({"011", "101", "110"})]


def wide_diamond(c: int) -> FiniteLattice:
    """M_c: c atoms between a bottom and a top."""
    atoms = [f"a{i}" for i in range(c)]
    return FiniteLattice(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def test_element_limit():
    # M_c has c + 2 elements and is the cheapest lattice of its size to build
    lat = wide_diamond(MAX_LATTICE_ELEMENTS - 2)
    assert len(lat) == 1024 and lat.meet("a0", "a1") == "0" and lat.join("a0", "a1") == "1"
    with pytest.raises(ValueError, match="^lattice has 1025 elements, over the limit 1024$"):
        wide_diamond(MAX_LATTICE_ELEMENTS - 1)


def product(first: FiniteLattice, second: FiniteLattice) -> FiniteLattice:
    """The direct product, ordered componentwise."""
    elements = [f"{x}|{y}" for x in first.elements for y in second.elements]
    covers = [(f"{a}|{y}", f"{b}|{y}") for a, b in first.cover_pairs() for y in second.elements]
    covers += [(f"{x}|{a}", f"{x}|{b}") for x in first.elements for a, b in second.cover_pairs()]
    return FiniteLattice(elements, covers)


def subspaces_gf2_3() -> FiniteLattice:
    """Subspaces of GF(2)^3 as bitsets over its 8 vectors, ordered by inclusion."""
    spaces = [s for s in range(1, 256, 2)
              if all(s >> (a ^ b) & 1 for a in range(8) for b in range(8) if s >> a & s >> b & 1)]
    return FiniteLattice([str(s) for s in spaces],
                         [(str(u), str(w)) for u in spaces for w in spaces if u != w and u & ~w == 0])


def partitions_4() -> FiniteLattice:
    """Set partitions of 4 points as restricted growth strings, finer below coarser."""
    parts = [p for p in itertools.product(range(4), repeat=4)
             if all(p[i] <= max(p[:i], default=-1) + 1 for i in range(4))]

    def finer(p, q):
        return all(q[i] == q[j] for i in range(4) for j in range(4) if p[i] == p[j])

    return FiniteLattice(["".join(map(str, p)) for p in parts],
                         [("".join(map(str, p)), "".join(map(str, q)))
                          for p in parts for q in parts if p != q and finer(p, q)])


def test_decompositions_match_the_subset_scan():
    lattices = [lat for m in range(1, 9) for lat in all_lattices(m)]
    assert len(lattices) == 4008
    lattices += named_lattices().values()
    lattices += [product(subspaces_gf2_3(), chain(3)), product(partitions_4(), chain(3)),
                 product(chain(3), product(chain(3), chain(3))), product(chain(5), chain(5))]
    lattices += [wide_diamond(c) for c in range(1, 41)]
    assert sum(map(len, lattices)) > 32000
    for lat in lattices:
        for x in lat.elements:
            assert lat.irreducible_decompositions(x) == decompositions_oracle(lat, x), (x, lat.to_json())


def test_wide_diamond_bottom_decomposes_into_every_pair_of_atoms():
    for c in (16, 20, 21, 30):
        lat = wide_diamond(c)
        pairs = [frozenset(p) for p in itertools.combinations(lat.elements[1:-1], 2)]
        assert len(pairs) == c * (c - 1) // 2
        assert lat.irreducible_decompositions("0") == pairs
        report = lat.decomposition_theorem_report()
        assert not report.unique_decomposition and report.agree


def test_wide_diamond_bottom_at_three_hundred_atoms():
    # a grown set is checked only against the hit sets holding its new
    # member, so the 44850 pairs come in about a second, not minutes
    decompositions = wide_diamond(300).irreducible_decompositions("0")
    assert len(decompositions) == 44850 and all(len(d) == 2 for d in decompositions)
    assert decompositions[0] == {"a0", "a1"} and decompositions[-1] == {"a298", "a299"}


def oracle_corpus() -> list[FiniteLattice]:
    return [*named_lattices().values(), *(wide_diamond(c) for c in range(1, 9)),
            subspaces_gf2_3(), partitions_4()]


def test_birkhoff():
    assert boolean_lattice(3).is_birkhoff()
    assert diamond_m3().is_birkhoff()
    assert not pentagon_n5().is_birkhoff()
    assert chain(4).is_birkhoff()
    assert subspaces_gf2_3().is_birkhoff() and partitions_4().is_birkhoff()
    for lat in oracle_corpus():
        assert lat.is_birkhoff() == semimodular_oracle(lat), lat.to_json()


def test_m3_freedom():
    assert not boolean_lattice(3).has_m3_sublattice()
    assert diamond_m3().has_m3_sublattice()
    assert not pentagon_n5().has_m3_sublattice()
    assert subspaces_gf2_3().has_m3_sublattice() and partitions_4().has_m3_sublattice()
    for lat in oracle_corpus():
        assert lat.has_m3_sublattice() == m3_oracle(lat), lat.to_json()


def test_m3_scan_size_limit():
    with pytest.raises(SizeLimitError):
        boolean_lattice(4).has_m3_sublattice(scan_limit=12)
    assert not boolean_lattice(4).has_m3_sublattice(scan_limit=16)


def test_theorem_on_named_lattices():
    for name, lat in named_lattices().items():
        report = lat.decomposition_theorem_report(scan_limit=16)
        assert report.agree, name
    assert boolean_lattice(3).decomposition_theorem_report().unique_decomposition
    assert not diamond_m3().decomposition_theorem_report().unique_decomposition
    assert not pentagon_n5().decomposition_theorem_report().structural


def test_theorem_on_all_lattices_up_to_eight_elements():
    total = 0
    for m in range(1, 9):
        for lat in all_lattices(m):
            report = lat.decomposition_theorem_report()
            assert report.agree, lat.to_json()
            assert report.birkhoff == semimodular_oracle(lat), lat.to_json()
            assert report.m3_free != m3_oracle(lat), lat.to_json()
            assert_uniqueness_rule(lat)
            total += 1
    assert total == 4008  # every labelled lattice of at most 8 elements
    for c in range(3, 41):
        assert_uniqueness_rule(wide_diamond(c))


def assert_uniqueness_rule(lat: FiniteLattice):
    """The report's uniqueness rule against counting the decompositions."""
    unique = [len(lat.irreducible_decompositions(x)) == 1 for x in lat.elements]
    assert [lat._decomposes_uniquely(x) for x in range(len(lat))] == unique, lat.to_json()
    assert lat.decomposition_theorem_report().unique_decomposition == all(unique)


def test_multiplication_table_validation():
    m3 = diamond_m3()
    rows_meet = [[m3.meet(a, b) for b in m3.elements] for a in m3.elements]
    MultiplicationTable(m3, rows_meet)  # meet itself is always admissible
    bad = [row[:] for row in rows_meet]
    bad[0][1] = bad[1][0] = "1"  # commutative but above the meet
    with pytest.raises(ValueError, match="not below"):
        MultiplicationTable(m3, bad)
    bad2 = [row[:] for row in rows_meet]
    bad2[0][1] = "x" if bad2[1][0] != "x" else "y"
    bad2[1][0] = "z"
    with pytest.raises(ValueError, match="commutative"):
        MultiplicationTable(m3, bad2)
    with pytest.raises(ValueError, match="5x5"):
        MultiplicationTable(m3, [["0"]])


def test_multiplication_table_rejects_a_product_below_one_factor_only():
    m3 = diamond_m3()
    for below in ("x", "y"):
        rows = [[m3.meet(a, b) for b in m3.elements] for a in m3.elements]
        rows[1][2] = rows[2][1] = below
        with pytest.raises(ValueError, match="'x' and 'y' is not below their meet"):
            MultiplicationTable(m3, rows)


def test_meet_multiplication_makes_chain_elements_prime():
    c4 = chain(4)
    table = MultiplicationTable(
        c4, [[c4.meet(a, b) for b in c4.elements] for a in c4.elements]
    )
    for x in c4.elements:
        assert check_prime(c4, table, x)
        assert check_primary(c4, table, x)


def test_prime_and_primary_match_definition():
    rng = random.Random(17)
    tables = 0
    for m in range(1, 7):
        for lat in all_lattices(m):
            els = lat.elements
            meet_rows = [[lat.meet(a, b) for b in els] for a in els]
            for rows in [meet_rows] + [random_multiplication_rows(lat, rng) for _ in range(6)]:
                table = MultiplicationTable(lat, rows)
                for x in els:
                    assert check_prime(lat, table, x) == prime_oracle(lat, table, x), (lat.to_json(), rows, x)
                    assert check_primary(lat, table, x) == primary_oracle(lat, table, x), (lat.to_json(), rows, x)
                tables += 1
    assert tables == 7 * 51
    # past m = 6: a Boolean lattice under its meet, the exponent lattice
    # 3^3 under capped sums (ideals of R/(p1^2 p2^2 p3^2), where primary
    # and prime differ), and the irreducible but not primary example
    b4 = boolean_lattice(4)
    vectors = list(itertools.product(range(3), repeat=3))
    name = {v: "".join(map(str, v)) for v in vectors}
    exponents = FiniteLattice(
        [name[v] for v in vectors],
        [(name[v[:i] + (v[i] + 1,) + v[i + 1:]], name[v])
         for v in vectors for i in range(3) if v[i] < 2],
    )
    capped = [[name[tuple(min(x + y, 2) for x, y in zip(u, v))] for v in vectors] for u in vectors]
    cases = [
        (b4, MultiplicationTable(b4, [[b4.meet(a, b) for b in b4.elements] for a in b4.elements])),
        (exponents, MultiplicationTable(exponents, capped)),
        irreducible_not_primary_example(),
    ]
    for lat, table in cases:
        for x in lat.elements:
            assert check_prime(lat, table, x) == prime_oracle(lat, table, x), (lat, x)
            assert check_primary(lat, table, x) == primary_oracle(lat, table, x), (lat, x)
    primes = [x for x in exponents.elements if check_prime(exponents, cases[1][1], x)]
    primaries = [x for x in exponents.elements if check_primary(exponents, cases[1][1], x)]
    assert primes == ["000", "001", "010", "100"]
    assert primaries == ["000", "001", "002", "010", "020", "100", "200"]


def test_example_irreducible_but_not_primary():
    lat, table = irreducible_not_primary_example()
    assert "d" in lat.meet_irreducibles()
    assert lat.covers("e", "d")
    assert table.mul("b", "c") == "e"
    assert table.powers("b") == ["b"]  # idempotent
    assert not check_primary(lat, table, "d")
    assert not check_prime(lat, table, "d")
    assert check_primary(lat, table, "1")  # vacuous at the top
    # the lattice really contains an N5 sublattice on {e, b, a, d, 1}
    assert lat.leq("e", "b") and lat.leq("b", "a") and lat.leq("a", "1")
    assert not lat.leq("d", "b") and not lat.leq("b", "d")
    assert lat.meet("a", "d") == "e" and lat.join("b", "d") == "1"


def test_powers_cycle_detection():
    lat, table = irreducible_not_primary_example()
    assert table.powers("e") == ["e"]
    assert table.powers("a") == ["a", "b"]


def test_powers_match_a_list_scan():
    def list_powers(table, b):
        seen = []
        x = b
        while x not in seen:
            seen.append(x)
            x = table.mul(x, b)
        return seen

    rng = random.Random(23)
    for m in range(1, 6):
        for lat in all_lattices(m):
            table = MultiplicationTable(lat, random_multiplication_rows(lat, rng))
            for b in lat.elements:
                assert table.powers(b) == list_powers(table, b), (lat.to_json(), b)
    # on a chain whose b-th power steps one element down, the powers of the
    # top run through the whole chain
    c = chain(40)
    below = {b: c.elements[max(i - 1, 0)] for i, b in enumerate(c.elements)}
    table = MultiplicationTable(c, [[below[c.meet(a, b)] for b in c.elements] for a in c.elements])
    top = c.elements[-1]
    assert table.powers(top) == list_powers(table, top) == list(c.elements[::-1])


def test_json_roundtrip():
    lat = pentagon_n5()
    again = FiniteLattice.from_json(lat.to_json())
    assert again.elements == lat.elements
    assert set(again.cover_pairs()) == set(lat.cover_pairs())
