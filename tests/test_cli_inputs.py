"""Every JSON input goes through one schema check and one loader: a pool,
code or lattice file, --topology and --adversary.  Input that fails to
load is exit 2 with one line naming the file or flag, never exit 1 and
never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlattice.cli import SCHEMAS, main
from cwlattice.data import sample_code, sample_pool
from cwlattice.lattice import irreducible_not_primary_example

TOPOLOGY = '{"layers":3,"width":2}'
# the atoms of M_1023, a lattice of 1025 elements
ATOMS = [f"a{i}" for i in range(1023)]


def lattice_document() -> dict:
    lat, table = irreducible_not_primary_example()
    return {**lat.to_json(), "mult": table.to_json()}


# a valid document of each input kind; the mutation test starts from these
VALID = {
    "pool": [sample_pool().to_json(), {"backend": "set", "n": 7}],
    "code": [sample_code().to_json()],
    "lattice": [lattice_document()],
    "topology": [{"layers": 3, "width": 2, "indegree": 2, "density": 0.5, "seed": 1}],
    "adversary": [
        {"type": "random_substitution", "prob": 0.1, "seed": 1},
        {"type": "targeted_substitution", "rules": [{"edge": [0, 1], "old": 1, "new": 2}]},
        {"type": "edge_erasure", "prob": 0.2, "edges": [[0, 1]], "seed": 2},
    ],
}


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def load(kind: str, text: str, directory):
    """Run the command that loads text as a kind; return rc, stderr and the
    file or flag the error message should name."""
    if kind in ("topology", "adversary"):
        where = f"--{kind}"
        topology = text if kind == "topology" else TOPOLOGY
        adversary = text if kind == "adversary" else '{"type":"none"}'
        argv = ["simulate", "--sample", "--topology", topology, "--adversary", adversary,
                "--trials", "2"]
    else:
        where = str(directory / f"{kind}.json")
        with open(where, "w") as fh:
            fh.write(text)
        argv = {
            "pool": ["pool", "--file", where],
            "code": ["decode", "--code", where, "--received", "0"],
            "lattice": ["lattice", "--file", where],
        }[kind]
    rc, _, err = run(*argv)
    return rc, err, where


@pytest.mark.parametrize(
    "kind, document, expected",
    [
        ("pool", {}, "missing field 'backend'"),
        ("pool", {"backend": "poly", "p": 2, "constituents": [[1, "a"]]}, "'constituents'"),
        ("pool", {"backend": "set", "n": 7, "p": 2}, "unknown field 'p' for backend 'set'"),
        ("pool", {"backend": "poly", "p": 3, "constituents": [[1, 1], [2, -1]]},
         "constituents[1]: coefficient -1 is not in 0..2"),
        ("pool", {"backend": "poly", "p": 2, "constituents": ["3", "xy"]},
         "constituents[1]: invalid hex string 'xy'"),
        ("pool", {"backend": "poly", "p": 2, "constituents": ["3", "1"]},
         "constituents[1]: constituent Poly(1 over GF(2)) is constant"),
        ("pool", {"backend": "poly", "p": 2, "constituents": ["7", "3", "7"]},
         "constituents[2]: repeats constituents[0]"),
        ("pool", {"backend": "poly", "p": 2, "constituents": ["3", format(1 << 1024 | 3, "x")]},
         "constituents[1]: constituent degrees sum to 1025, over the limit 1024"),
        ("code", {"n": 7, "codewords": [[0, "1"]]}, "'codewords'"),
        ("code", {"n": 7, "codewords": [[0, 1, 2, 3]], "extra": 1}, "unknown field 'extra'"),
        ("code", {"n": 7, "k": 5, "codewords": [[0, 1, 2, 3], [0, 1, 4, 5]]}, "claims k=5"),
        ("code", {"n": 7, "codewords": []}, "at least one codeword"),
        ("code", {"n": 7, "d": 4, "codewords": [[0, 1, 2, 3]]},
         "claims d=4 but a single codeword has no minimum distance"),
        ("code", {"n": 10 ** 8, "codewords": [[0, 1], [2, 3]]},
         "ground set size 100000000 is over the limit 65536"),
        ("lattice", {"elements": ["0", "1"], "covers": [["0", "2"]]}, "'2'"),
        ("lattice", {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "zz"]]},
         "covers[1]: unknown lattice element 'zz'"),
        ("lattice", {"elements": ["0", "1"], "covers": [["0", "1"]],
                     "mult": [["0", "x"], ["x", "1"]]}, "'x'"),
        ("lattice", {"elements": ["0", "1"], "covers": [["0", "1"]],
                     "mult": [["0", "0"], ["0", "zz"]]}, "mult[1][1]: unknown lattice element 'zz'"),
        ("lattice", {"elements": ["0", "1"], "covers": [["0", "1"]], "mult": [["0"]]}, "2x2"),
        ("lattice", {"elements": [0, 1], "covers": []}, "'elements'"),
        ("lattice", {"elements": ["0", *ATOMS, "1"],
                     "covers": [["0", a] for a in ATOMS] + [[a, "1"] for a in ATOMS]},
         "lattice has 1025 elements, over the limit 1024"),
        ("adversary", {"type": "edge_erasure", "edges": [[0, "x"]]}, "'edges'"),
        ("adversary", {"type": "targeted_substitution",
                       "rules": [{"edge": [0], "old": 1, "new": 2}]}, "'rules'"),
        ("adversary", {"type": "targeted_substitution", "rules": [5]}, "'rules'"),
        ("adversary", {"type": "random_substitution", "prob": 0.1, "seed": "x"}, "'seed'"),
        ("adversary", {"type": "targeted_substitution",
                       "rules": [{"edge": [0, 1], "old": 1, "new": "2"}]}, "'rules'"),
        ("adversary", {"prob": 0.1}, "missing field 'type'"),
        ("adversary", {"type": "random_substitution"}, "missing field 'prob'"),
        ("topology", {"layers": 3, "width": 0}, "width"),
        ("topology", {"layers": 3, "width": 2, "density": 1.5}, "density"),
        ("topology", {"layers": 3, "width": 10 ** 8},
         "topology has 200000001 candidate edges, over the limit 10000000"),
    ],
    ids=[
        "pool-empty", "pool-constituent-item", "pool-field-of-other-backend",
        "pool-coefficient-range", "pool-constituent-hex", "pool-constant-constituent",
        "pool-duplicate-constituent", "pool-degree-sum",
        "code-codeword-item", "code-unknown-key", "code-wrong-k", "code-no-codewords",
        "code-single-codeword-d", "code-huge-ground-set",
        "lattice-cover-unknown", "lattice-cover-field", "lattice-mult-unknown",
        "lattice-mult-field", "lattice-mult-size",
        "lattice-int-labels", "lattice-too-many-elements",
        "erasure-edge-item", "rule-short-edge", "rule-not-object", "adversary-str-seed",
        "rule-str-symbol", "adversary-no-type", "substitution-no-prob",
        "topology-zero-width", "topology-density-range", "topology-too-many-edges",
    ],
)
def test_malformed_input_is_one_line_exit_2(tmp_path, kind, document, expected):
    rc, err, where = load(kind, json.dumps(document), tmp_path)
    assert rc == 2
    assert err.startswith(f"error: {where}: bad {kind} document: ")
    assert expected in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, content",
    [
        ("", None),
        ("pool.json", b"[" * 100000 + b"]" * 100000),
        ("pool.json", b'{"n": ' + b"9" * 5000 + b"}"),
        ("pool.json", b"\xff"),
        ("nul\0.json", None),
    ],
    ids=["directory", "deep", "huge-integer", "not-utf8", "nul-in-path"],
)
def test_unloadable_file_is_exit_2(tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    rc, _, err = run("pool", "--file", str(path))
    assert rc == 2
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--sample", "--topology", TOPOLOGY, "--trials", "-2"],
        ["search", "--n", "8", "--k", "4", "--d", "4", "--count", "--cap", "-1"],
    ],
    ids=["negative-trials", "negative-cap"],
)
def test_counts_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["search", "--n", "7", "--k", "4", "--d", "4"], ["table2"]],
                         ids=["search", "table2"])
@pytest.mark.parametrize("value", ["nan", "-1", "x"])
def test_timeout_must_be_seconds(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--timeout", value])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err


@pytest.mark.parametrize("p, expected", [(100000000000031, 0), (2 ** 89 - 1, 2)],
                         ids=["prime-near-1e14", "past-exact-primality"])
def test_pool_prime_is_decided_or_refused(tmp_path, p, expected):
    document = {"backend": "poly", "p": p, "constituents": [[1, 1]]}
    rc, err, where = load("pool", json.dumps(document), tmp_path)
    assert rc == expected
    if rc:
        assert err.startswith(f"error: {where}: bad pool document: primality is decided only below ")


def test_written_documents_load_back(tmp_path):
    _, out, _ = run("pool", "--sample", "--json")
    result = tmp_path / "search.json"
    run("search", "--n", "7", "--k", "4", "--d", "4", "--json", "--out", str(result))
    written = {
        "pool": json.loads(out)["pool"],
        "code": json.loads(result.read_text())["code"],
        "lattice": lattice_document(),
    }
    for kind, document in written.items():
        rc, err, _ = load(kind, json.dumps(document), tmp_path)
        assert (kind, rc, err) == (kind, 0, "")


# Integers come from a small range on purpose: a huge layers or width makes
# the simulation slow, which is slowness on valid input, not malformed input.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_documents(draw):
    """A valid document of some kind with one field, old or new, set to any JSON value."""
    kind = draw(st.sampled_from(sorted(VALID)))
    document = dict(draw(st.sampled_from(VALID[kind])))
    field = draw(st.sampled_from(sorted({*document, *SCHEMAS[kind], "extra"})))
    document[field] = draw(JSON_VALUES)
    return kind, document


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@settings(max_examples=600, deadline=None)
@given(mutated_documents())
def test_any_one_field_mutation_loads_or_is_exit_2(directory, mutated):
    kind, document = mutated
    rc, err, where = load(kind, json.dumps(document), directory)
    assert rc in (0, 2), err
    if rc == 2:
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1
        assert "Traceback" not in err
