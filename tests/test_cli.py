import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from cwlattice import cli, saf
from cwlattice.cli import main
from cwlattice.code import ConstantWeightCode
from cwlattice.data import sample_code, sample_pool
from cwlattice.lattice import boolean_lattice, pentagon_n5
from cwlattice.pool import pool_from_json


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_bounds_text(capsys):
    rc, out, _ = run(capsys, "bounds", "--n", "7", "--k", "4", "--d", "4")
    assert rc == 0
    assert "johnson1" in out and "upper bound: 7" in out
    rc, out, _ = run(capsys, "bounds", "--n", "10", "--k", "7", "--d", "4")
    assert rc == 0
    assert "complement             13 (johnson2 of (n=10, k=3, d=4))" in out


def test_bounds_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "bounds", "--n", "8", "--k", "4", "--d", "4", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["upper_bound"] == 14


def test_bounds_domain_error(capsys):
    rc, _, err = run(capsys, "bounds", "--n", "7", "--k", "4", "--d", "3")
    assert rc == 1
    assert "error" in err


def test_bounds_prints_every_value_up_to_the_n_limit(capsys):
    # C(14000, 7000), the subset cap, is the report's largest value: 4213 digits
    argv = ("bounds", "--n", "14000", "--k", "7000", "--d", "4")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and f"subset_cap             {comb(14000, 7000)}" in out
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0
    assert json.loads(out)["bounds"][0] == {
        "name": "subset_cap", "value": comb(14000, 7000), "applicable": True,
        "reason": "number of k-subsets",
    }
    rc, out, err = run(capsys, "bounds", "--n", "14001", "--k", "7000", "--d", "4")
    assert (rc, out, err) == (1, "", "error: n=14001 is over the limit 14000\n")


def test_pool_sample_compose_decompose(capsys):
    rc, out, _ = run(
        capsys, "pool", "--sample",
        "--compose", "0,1,2,5", "--decompose", "2B29", "--json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["compose"]["element"] == "2B29"
    assert obj["decompose"]["subset"] == [0, 1, 2, 5]
    # the emitted pool document loads back
    pool = pool_from_json(obj["pool"])
    assert pool.n == 7


def test_pool_decompose_bad_hex_names_the_flag(capsys):
    rc, out, err = run(capsys, "pool", "--sample", "--decompose", "zz")
    assert rc == 2 and out == ""
    assert err == "error: --decompose: invalid hex string 'zz'\n"


def test_pool_empty_values_are_not_ignored(capsys):
    rc, out, err = run(capsys, "pool", "--sample", "--decompose", "")
    assert rc == 2 and out == ""
    assert err == "error: --decompose: invalid hex string ''\n"
    # the empty subset is given, and composes to the unit
    rc, out, err = run(capsys, "pool", "--sample", "--compose", "")
    assert rc == 0 and err == ""
    assert out.splitlines()[-1] == "compose [] -> 1"


@pytest.mark.parametrize("value, message", [
    ("0,99", "indices must lie in 0..6, got (0, 99)"),
    ("3,1", "indices must be strictly increasing, got (3, 1)"),
])
def test_pool_compose_bad_subset_names_the_flag(capsys, value, message):
    rc, out, err = run(capsys, "pool", "--sample", "--compose", value)
    assert rc == 2 and out == ""
    assert err == f"error: --compose: {message}\n"


def test_pool_gf3_round_trip(tmp_path, capsys):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps({"backend": "poly", "p": 3, "constituents": [[0, 1], [1, 1], [1, 0, 1]]}))
    rc, out, _ = run(capsys, "pool", "--file", str(path), "--compose", "0,2", "--json")
    assert rc == 0
    element = json.loads(out)["compose"]["element"]
    assert element == [0, 1, 0, 1]
    # the coefficients --compose prints, lowest degree first, decompose back
    given = ",".join(map(str, element))
    rc, out, _ = run(capsys, "pool", "--file", str(path), "--decompose", given, "--json")
    assert rc == 0
    assert json.loads(out)["decompose"] == {"element": element, "subset": [0, 2]}
    rc, _, err = run(capsys, "pool", "--file", str(path), "--decompose", "0,1,x")
    assert rc == 2
    assert err == "error: --decompose: expected comma-separated integers, got '0,1,x'\n"


def test_pool_set_backend_compose_and_decompose(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"backend": "set", "n": 3}))
    rc, out, _ = run(capsys, "pool", "--file", str(path), "--compose", "0,2")
    assert rc == 0
    assert "compose [0, 2] -> [0, 2]\n" in out
    rc, out, err = run(capsys, "pool", "--file", str(path), "--decompose", "1")
    assert rc == 2 and out == ""
    assert err == "error: --decompose needs a poly pool\n"


def test_pool_coefficients_out_of_range_name_the_field(tmp_path, capsys):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps({"backend": "poly", "p": 3, "constituents": [[4, 1], [-1, 1]]}))
    rc, out, err = run(capsys, "pool", "--file", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: {path}: bad pool document: constituents[0]: coefficient 4 is not in 0..2\n"
    path.write_text(json.dumps({"backend": "poly", "p": 3, "constituents": [[0, 1], [1, 1], [1, 0, 1]]}))
    rc, out, err = run(capsys, "pool", "--file", str(path), "--decompose", "5,4,1")
    assert rc == 2 and out == ""
    assert err == "error: --decompose: coefficient 5 is not in 0..2\n"


def test_pool_schema_error(tmp_path, capsys):
    bad = tmp_path / "pool.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "pool", "--file", str(bad))
    assert rc == 2
    assert "line 1" in err


def test_pool_file_missing_field(tmp_path, capsys):
    path = tmp_path / "pool.json"
    path.write_text('{"backend":"poly"}')
    rc, _, err = run(capsys, "pool", "--file", str(path))
    assert rc == 2
    assert err == f"error: {path}: bad pool document: missing field 'p'\n"


def test_decode_code_file_missing_field(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text('{"n":7}')
    rc, _, err = run(capsys, "decode", "--code", str(path), "--received", "1,3,6")
    assert rc == 2
    assert err == f"error: {path}: bad code document: missing field 'codewords'\n"


@pytest.mark.parametrize(
    "command, flag, text, what, field",
    [
        ("decode", "--code", '{"n":"7","codewords":[[0,1]]}', "code", "'n'"),
        ("pool", "--file", '{"backend":"x"}', "pool", "'backend'"),
        ("pool", "--file", '{"backend":"poly","p":2,"constituents":[7]}', "pool", "'constituents'"),
        ("lattice", "--file", '{"elements":["0","1"],"covers":[["0"]]}', "lattice", "'covers'"),
    ],
    ids=["code-str-n", "pool-unknown-backend", "pool-int-constituent", "lattice-short-cover"],
)
def test_document_field_of_wrong_type(tmp_path, capsys, command, flag, text, what, field):
    path = tmp_path / "doc.json"
    path.write_text(text)
    extra = ["--received", "0,1"] if command == "decode" else []
    rc, _, err = run(capsys, command, flag, str(path), *extra)
    assert rc == 2
    assert err.startswith(f"error: {path}: bad {what} document: field {field} must be ")
    assert err.count("\n") == 1


def test_decode_erasure_case(capsys):
    rc, out, _ = run(capsys, "decode", "--sample-code", "--received", "1,3,6")
    assert rc == 0
    assert "Decoded [1, 3, 5, 6]" in out


def test_decode_ambiguous_case(capsys):
    rc, out, _ = run(
        capsys, "decode", "--sample-code", "--received", "1,3,4,6", "--json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["ambiguous"] and len(obj["candidates"]) == 3


@pytest.mark.parametrize("argv", [["--received", "0,9"], ["--received=-1,2"]], ids=["past-n", "negative"])
def test_decode_received_out_of_range_names_the_flag(capsys, argv):
    rc, out, err = run(capsys, "decode", "--sample-code", *argv)
    assert rc == 2 and out == ""
    assert err == "error: --received: received indices must lie in 0..6\n"


def test_decode_from_file(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(sample_code().to_json()))
    rc, out, _ = run(capsys, "decode", "--code", str(path), "--received", "0,1,2,5")
    assert rc == 0
    assert "Decoded [0, 1, 2, 5]" in out


def test_search_writes_loadable_code(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    rc, _, _ = run(
        capsys, "search", "--n", "7", "--k", "4", "--d", "4",
        "--json", "--out", str(out_path),
    )
    assert rc == 0
    obj = json.loads(out_path.read_text())
    assert obj["max_size"] == 7 and obj["complete"]
    code = ConstantWeightCode.from_json(obj["code"])
    assert len(code) == 7 and code.min_distance >= 4


def test_search_count(capsys):
    rc, out, _ = run(
        capsys, "search", "--n", "8", "--k", "6", "--d", "4", "--count", "--json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["max_size"] == 4 and obj["count"] == 105
    assert obj["nodes"] >= 0 and obj["count_nodes"] > 0


def test_search_count_skipped_when_size_not_certified(capsys):
    # a zero timeout stops the search at its first deadline check
    argv = ("search", "--n", "11", "--k", "4", "--d", "4", "--exact", "--count", "--timeout", "0")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "count skipped: size not certified" in out
    assert "maximum cliques" not in out
    rc, out, _ = run(capsys, *argv, "--json")
    obj = json.loads(out)
    assert not obj["complete"]
    assert obj["count"] is None and obj["count_complete"] is False


def test_lattice_analysis(tmp_path, capsys):
    doc = pentagon_n5().to_json()
    path = tmp_path / "n5.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(
        capsys, "lattice", "--file", str(path),
        "--check-theorem", "--element", "0", "--json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["theorem"]["birkhoff"] is False
    assert obj["theorem"]["agree"] is True
    assert sorted(map(sorted, obj["decompositions"])) == [["a", "b"], ["b", "c"]]


def test_lattice_unknown_element_names_the_flag(tmp_path, capsys):
    path = tmp_path / "n5.json"
    path.write_text(json.dumps(pentagon_n5().to_json()))
    rc, _, err = run(capsys, "lattice", "--file", str(path), "--element", "zz")
    assert rc == 2
    assert err == "error: --element: unknown lattice element 'zz'\n"
    # 21 meet-irreducibles above the element are no limit: M_21's bottom is every pair of atoms
    atoms = [f"a{i}" for i in range(21)]
    wide = {"elements": ["0", *atoms, "1"],
            "covers": [["0", a] for a in atoms] + [[a, "1"] for a in atoms]}
    path.write_text(json.dumps(wide))
    rc, out, _ = run(capsys, "lattice", "--file", str(path), "--element", "0", "--json")
    assert rc == 0
    assert len(json.loads(out)["decompositions"]) == 210


def test_lattice_theorem_past_twelve_elements(tmp_path, capsys):
    path = tmp_path / "b4.json"
    path.write_text(json.dumps(boolean_lattice(4).to_json()))
    rc, out, _ = run(capsys, "lattice", "--file", str(path), "--check-theorem")
    assert rc == 0
    assert "lattice with 16 elements" in out and "unique decomposition: True" in out


def test_lattice_with_multiplication(tmp_path, capsys):
    from cwlattice.lattice import irreducible_not_primary_example

    lat, table = irreducible_not_primary_example()
    doc = lat.to_json()
    doc["mult"] = table.to_json()
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "lattice", "--file", str(path), "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["primary"]["d"] is False
    assert obj["primary"]["1"] is True


def test_simulate_seeded_repeatability(tmp_path, capsys):
    args = (
        "simulate", "--sample",
        "--topology", '{"layers":3,"width":2,"indegree":2,"seed":3}',
        "--adversary", '{"type":"random_substitution","prob":0.1,"seed":5}',
        "--trials", "50", "--json",
    )
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["trials"] == 50


def test_simulate_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    rc, _, _ = run(
        capsys, "simulate", "--sample",
        "--topology", '{"layers":2,"width":1}',
        "--trials", "10", "--csv", str(csv_path), "--json",
    )
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 11
    assert all(line.endswith(",1") for line in lines[1:])  # clean channel


@pytest.mark.parametrize("write_csv", [False, True])
def test_simulate_keeps_results_only_for_csv(tmp_path, capsys, monkeypatch, write_csv):
    kept = []
    real = saf.run_experiment

    def spy(*args, **kwargs):
        stats = real(*args, **kwargs)
        kept.append(len(stats.results))
        return stats

    monkeypatch.setattr(saf, "run_experiment", spy)
    extra = ["--csv", str(tmp_path / "out.csv")] if write_csv else []
    rc, _, _ = run(
        capsys, "simulate", "--sample", "--topology", '{"layers":2,"width":1}',
        "--trials", "5", *extra,
    )
    assert rc == 0
    assert kept == [5 if write_csv else 0]


def test_simulate_usage_error(capsys):
    rc, _, err = run(
        capsys, "simulate", "--topology", '{"layers":2,"width":1}', "--trials", "1"
    )
    assert rc == 2
    assert "--sample" in err


def test_simulate_reads_the_one_code_it_is_given(tmp_path, capsys):
    rc, _, err = run(capsys, "simulate", "--sample", "--code", str(tmp_path / "missing.json"),
                     "--topology", '{"layers":2,"width":1}', "--trials", "1")
    assert rc == 2
    assert "--code" in err and "--sample" in err and err.count("\n") == 1


def _simulate_files(tmp_path, code_doc, pool_doc):
    code, pool = tmp_path / "code.json", tmp_path / "pool.json"
    code.write_text(json.dumps(code_doc))
    pool.write_text(json.dumps(pool_doc))
    return str(code), str(pool)


def test_simulate_needs_only_code(tmp_path, capsys):
    code, pool = _simulate_files(tmp_path, sample_code().to_json(), sample_pool().to_json())
    args = ("--topology", '{"layers":4,"width":3,"seed":2}',
            "--adversary", '{"type":"random_substitution","prob":0.1,"seed":5}', "--trials", "40")
    rc1, out1, _ = run(capsys, "simulate", "--code", code, *args)
    rc2, out2, _ = run(capsys, "simulate", "--code", code, "--pool", pool, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "guarantee violations: 0" in out1


def test_simulate_json_reports_guarantee_violations(capsys):
    rc, out, _ = run(capsys, "simulate", "--sample", "--topology", '{"layers":3,"width":2}',
                     "--adversary", '{"type":"edge_erasure","prob":0.3}', "--trials", "20", "--json")
    assert rc == 0
    assert json.loads(out)["guarantee_violations"] == 0


def test_simulate_random_substitution_over_f2(tmp_path, capsys):
    # refused when the adversary loads, whether or not a trial would draw a hit
    code, pool = _simulate_files(tmp_path, {"n": 1, "codewords": [[0]]}, {"backend": "set", "n": 1})
    for seed in range(1, 7):
        rc, out, err = run(
            capsys, "--seed", str(seed), "simulate", "--code", code, "--pool", pool,
            "--topology", '{"layers":3,"width":2}',
            "--adversary", '{"type":"random_substitution","prob":0.2,"seed":1}', "--trials", "1",
        )
        assert rc == 2 and out == ""
        assert err == (
            "error: --adversary: bad adversary document: "
            "random substitution needs q >= 3: F_2 has no other nonzero symbol\n"
        )


def test_simulate_pool_must_match_code(tmp_path, capsys):
    code, pool = _simulate_files(tmp_path, sample_code().to_json(), {"backend": "set", "n": 8})
    rc, _, err = run(capsys, "simulate", "--code", code, "--pool", pool,
                     "--topology", '{"layers":2,"width":1}', "--trials", "1")
    assert rc == 1
    assert "pool size" in err and err.count("\n") == 1


def test_simulate_checks_a_pool_against_the_sample_code(tmp_path, capsys):
    _, pool = _simulate_files(tmp_path, sample_code().to_json(), {"backend": "set", "n": 8})
    rc, _, err = run(capsys, "simulate", "--sample", "--pool", pool,
                     "--topology", '{"layers":2,"width":1}', "--trials", "1")
    assert rc == 1
    assert "pool size" in err and err.count("\n") == 1


TOPOLOGY = '{"layers":2,"width":1}'


@pytest.mark.parametrize(
    "flags, flag, field",
    [
        (("--topology", "3"), "--topology", "expected a JSON object"),
        (("--topology", "{}"), "--topology", "'layers'"),
        (("--topology", '{"layers":2,"width":1,"max_indegree":1}'), "--topology", "'max_indegree'"),
        (("--topology", '{"layers":"3","width":2}'), "--topology", "'layers'"),
        (("--topology", '{"layers":3,"width":2,"density":true}'), "--topology", "'density'"),
        (("--topology", TOPOLOGY, "--adversary", "[]"), "--adversary", "expected a JSON object"),
        (("--topology", TOPOLOGY, "--adversary", '{"type":"random_substitution","prob":2}'), "--adversary", "prob"),
        (("--topology", TOPOLOGY, "--adversary", '{"type":"edge_erasure","prob":-0.5}'), "--adversary", "prob"),
        (("--topology", TOPOLOGY, "--adversary", '{"type":"none","prob":0.1}'), "--adversary", "'prob'"),
        (("--topology", TOPOLOGY, "--adversary", '{"type":"targeted_substitution","rules":['
          '{"edge":[0,1],"old":1,"new":99},{"edge":[5,9],"old":2,"new":-3}]}'),
         "--adversary", "bad adversary document: rules[0]: new symbol 99 is not a nonzero element of F_11"),
        (("--topology", TOPOLOGY, "--adversary",
          '{"type":"targeted_substitution","rules":[{"edge":[0,1],"old":-3,"new":2}]}'),
         "--adversary", "bad adversary document: rules[0]: old symbol -3 is not a nonzero element of F_11"),
        (("--topology", TOPOLOGY, "--adversary",
          '{"type":"targeted_substitution","rules":[{"edge":[5,9],"old":2,"new":3}]}'),
         "--adversary", "bad adversary document: rules[0]: edge (5, 9) names a node outside 0..1"),
        (("--topology", TOPOLOGY, "--adversary", '{"type":"edge_erasure","edges":[[0,1],[7,3]]}'),
         "--adversary", "bad adversary document: edges[1]: edge (7, 3) names a node outside 0..1"),
        (("--topology", '{"layers":6,"width":4}', "--adversary", '{"type":"edge_erasure","edges":[[7,3]]}'),
         "--adversary", "bad adversary document: edges[0]: edge (7, 3) does not go to a later layer"),
    ],
    ids=["topology-int", "topology-empty", "topology-old-key", "topology-str-field",
         "topology-bool-field", "adversary-list",
         "substitution-prob", "erasure-prob", "adversary-unknown-key",
         "rule-symbol-outside-field", "rule-symbol-negative", "rule-edge-past-sink",
         "erasure-edge-past-sink", "erasure-edge-backwards"],
)
def test_simulate_malformed_flags(capsys, flags, flag, field):
    rc, _, err = run(capsys, "simulate", "--sample", *flags, "--trials", "1")
    assert rc == 2
    assert err.startswith(f"error: {flag}: ") and field in err and err.count("\n") == 1


def test_simulate_pool_file_not_an_object(tmp_path, capsys):
    path = tmp_path / "pool.json"
    path.write_text("[1,2]")
    code = tmp_path / "code.json"
    code.write_text(json.dumps(sample_code().to_json()))
    rc, _, err = run(
        capsys, "simulate", "--code", str(code), "--pool", str(path),
        "--topology", TOPOLOGY, "--trials", "1",
    )
    assert rc == 2
    assert err == f"error: {path}: expected a JSON object, got list\n"


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "7", "--k", "4", "--d", "4", "--bogus"])
    assert exc.value.code == 2


def test_table2_rows(capsys):
    rc, out, _ = run(capsys, "table2", "--json")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    by_params = {(r["n"], r["k"], r["d"]): r for r in rows}
    assert by_params[(8, 4, 4)]["max_size"] == 14
    assert by_params[(10, 7, 6)]["max_size"] == 3
    flagged = by_params[(10, 7, 4)]
    assert flagged["max_size"] == 13
    assert flagged["reported_size"] == 8
    assert any("disagrees" in note for note in flagged["notes"])
    assert all(r["complete"] for r in rows)
    assert all(r["nodes"] >= 0 for r in rows)


def test_table2_timeout_skips_the_count_of_an_uncertified_row(capsys):
    rc, out, _ = run(capsys, "table2", "--timeout", "0", "--count", "--json")
    assert rc == 0
    rows = json.loads(out)["rows"]
    rc, text, _ = run(capsys, "table2", "--timeout", "0", "--count")
    assert rc == 0
    lines = text.splitlines()[1:]
    assert len(lines) == len(rows)
    assert any(not row["complete"] for row in rows)
    for row, line in zip(rows, lines):
        if not row["complete"]:
            assert row["count"] is None and row["notes"] == ["timeout: size is a lower bound"]
            assert " skipped " in line and line.endswith("timeout: size is a lower bound")


def test_bounds_prints_the_bound_table2_stops_at(capsys):
    rc, out, _ = run(capsys, "table2", "--json")
    assert rc == 0
    for row in json.loads(out)["rows"]:
        rc, out, _ = run(capsys, "bounds", "--n", str(row["n"]), "--k", str(row["k"]),
                         "--d", str(row["d"]), "--json")
        assert rc == 0
        assert json.loads(out)["upper_bound"] == row["upper_bound"], (row["n"], row["k"], row["d"])


def assert_search_rows_match_table2(capsys, *flags):
    """Each table2 row is the search row for its (n, k, d) plus reported_size and notes."""
    rc, out, _ = run(capsys, "table2", "--json", *flags)
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [(r["n"], r["k"], r["d"]) for r in rows] == [row[:3] for row in cli.TABLE2_ROWS]
    for row in rows:
        argv = ["search", "--n", str(row["n"]), "--k", str(row["k"]), "--d", str(row["d"])]
        rc, out, _ = run(capsys, *argv, "--json", *flags)
        assert rc == 0
        searched = json.loads(out)
        del searched["elapsed"]
        for key in ("reported_size", "notes", "elapsed"):
            del row[key]
        assert searched == row
    return rows


def test_search_rows_match_table2_rows(capsys):
    rows = assert_search_rows_match_table2(capsys)
    assert all(row["mode"] == "at_least" and "code" in row and "count" not in row for row in rows)


def test_search_count_rows_match_table2_rows(capsys, monkeypatch):
    # the full table with --count takes seconds; these rows count in milliseconds
    monkeypatch.setattr(cli, "TABLE2_ROWS", ((9, 6, 6, 3), (8, 5, 4, 8)))
    rows = assert_search_rows_match_table2(capsys, "--count")
    assert [row["count"] for row in rows] == [280, 840]
    assert all(row["count_complete"] and not row["count_capped"] for row in rows)


def test_search_timeout_holds_on_the_largest_graphs():
    # V = 12870: the build takes well under a second, and the search checks
    # its deadline at every node, each of which costs milliseconds here
    argv = ["search", "--n", "16", "--k", "8", "--d", "4", "--timeout", "1", "--json"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "cwlattice.cli", *argv], capture_output=True,
                          text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout)
    assert not row["complete"]
    assert row["elapsed"] < 3


def test_pool_file_with_a_large_prime(tmp_path):
    # X^2+1 is irreducible since p = 3 mod 4; the test must take time
    # polynomial in log p, not a division per candidate factor
    path = tmp_path / "pool.json"
    path.write_text('{"backend":"poly","p":100000000000031,"constituents":[[1,0,1]]}')
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "cwlattice.cli", "pool", "--file", str(path)],
                          capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "pool: backend=poly n=1\n  [0] [1, 0, 1]\n"


# "@" is the test's directory
@pytest.mark.parametrize("argv, path", [
    (["bounds", "--n", "7", "--k", "4", "--d", "4", "--out", "@"], "@"),
    (["simulate", "--sample", "--topology", '{"layers":2,"width":1}', "--trials", "2",
      "--csv", "@/missing/x.csv"], "@/missing/x.csv"),
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, path):
    rc, _, err = run(capsys, *(a.replace("@", str(tmp_path)) for a in argv))
    assert rc == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {path.replace('@', str(tmp_path))}: ")
