"""Any command line, with each subcommand's flags given or left out and their
non-JSON values drawn at random, exits 0, 1 or 2; a nonzero exit ends stderr
with an error line, never a traceback.  The JSON inputs themselves are
covered by test_cli_inputs."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlattice import cli
from cwlattice.data import sample_code, sample_pool
from cwlattice.lattice import irreducible_not_primary_example

# Values stay small on purpose, so that the test runs in seconds: a search
# past n = 8, or a count of a large row, is slow on valid input, which is not
# what this test looks for.  For the same reason table2 runs two cheap rows.
CHEAP_ROWS = ((8, 4, 4, 14), (9, 6, 6, 3))
INTS = st.integers(-2, 9).map(str)
DISTANCES = st.integers(0, 4).map(lambda x: str(2 * x)) | INTS  # most valid distances are even
SECONDS = st.sampled_from(["nan", "inf", "-inf", "-1", "x", "", "1e-9"]) | st.floats(0, 1).map(repr)
INDEX_LISTS = (
    st.lists(st.integers(-2, 9), max_size=5).map(lambda xs: ",".join(map(str, xs)))
    | st.sampled_from(["", ",", "1,,2", "a", " 3 ", "0x1"])
)
HEX = st.text("0123456789ABCDEFabcdefXZ ", max_size=8)
LABELS = st.sampled_from(["0", "a", "b", "c", "d", "1", "x", ""]) | st.text(max_size=3)
# "@name" is the file of that name in the test's directory, "@" the directory
PATHS = {
    "pool": st.sampled_from(["@pool.json", "@missing.json"]),
    "code": st.sampled_from(["@code.json", "@missing.json"]),
    "lattice": st.sampled_from(["@lattice.json", "@missing.json"]),
    "out": st.sampled_from(["@out.txt", "@", "@missing/out.txt"]),  # writable or not
}
FLAG = None  # a flag that takes no value
COMMON = {"--json": FLAG, "--out": PATHS["out"]}
COMMANDS = {
    "pool": {"--file": PATHS["pool"], "--sample": FLAG, "--compose": INDEX_LISTS, "--decompose": HEX},
    "bounds": {"--n": INTS, "--k": INTS, "--d": DISTANCES},
    "search": {"--n": INTS, "--k": INTS, "--d": DISTANCES, "--exact": FLAG, "--count": FLAG,
               "--cap": INTS, "--timeout": SECONDS},
    "decode": {"--code": PATHS["code"], "--sample-code": FLAG, "--received": INDEX_LISTS},
    "lattice": {"--file": PATHS["lattice"], "--element": LABELS, "--check-theorem": FLAG},
    "simulate": {"--code": PATHS["code"], "--pool": PATHS["pool"], "--sample": FLAG,
                 "--topology": st.just('{"layers":2,"width":2}'),
                 "--adversary": st.sampled_from(['{"type":"none"}', '{"type":"edge_erasure","prob":0.5}']),
                 "--trials": INTS, "--csv": PATHS["out"]},
    "table2": {"--count": FLAG, "--cap": INTS, "--timeout": SECONDS},
}
ERROR_LINE = re.compile(r"(cwlattice( \w+)?: )?error: ")


@st.composite
def command_lines(draw):
    argv = ["--seed", draw(INTS)] if draw(st.booleans()) else []
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv.append(command)
    for flag, values in {**COMMANDS[command], **COMMON}.items():
        # each flag is given three times in four, so that required flags are mostly there
        if draw(st.integers(0, 3)):
            argv += [flag] if values is FLAG else [flag, draw(values)]
    return argv


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    lat, table = irreducible_not_primary_example()
    documents = {
        "pool.json": sample_pool().to_json(),
        "code.json": sample_code().to_json(),
        "lattice.json": {**lat.to_json(), "mult": table.to_json()},
    }
    for name, document in documents.items():
        (directory / name).write_text(json.dumps(document))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "TABLE2_ROWS", CHEAP_ROWS)
        yield directory


@settings(max_examples=1500, deadline=None)
@given(command_lines())
def test_any_command_line_exits_0_1_or_2(directory, argv):
    argv = [str(directory / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
    err = err.getvalue()
    assert rc in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if rc:
        assert ERROR_LINE.match(err.splitlines()[-1]), (argv, err)
