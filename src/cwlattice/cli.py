"""Command line interface.

    cwlattice pool      --sample | --file pool.json [--compose 0,1,2,5] [--decompose HEX | c0,c1,...]
    cwlattice bounds    --n 7 --k 4 --d 4 [--json]
    cwlattice search    --n 8 --k 4 --d 4 [--exact] [--count] [--cap N] [--timeout S] [--out code.json]
    cwlattice decode    (--code code.json | --sample-code) --received 1,3,6
    cwlattice lattice   --file lattice.json [--element x] [--check-theorem]
    cwlattice simulate  (--code code.json | --sample) [--pool pool.json] --topology JSON --adversary JSON --trials T [--csv out.csv]
    cwlattice table2    [--count] [--cap N] [--timeout S] [--json]

Exit codes: 0 success, 1 errors computing on inputs that loaded, 2 usage
errors and JSON inputs (files, --topology, --adversary) that fail to load.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from cwlattice import bounds as bounds_mod
from cwlattice import cliques, data, saf
from cwlattice.code import ConstantWeightCode, decode
from cwlattice.gf import Polynomial
from cwlattice.lattice import (
    FiniteLattice,
    MultiplicationTable,
    check_primary,
    check_prime,
)
from cwlattice.pool import pool_from_json

USAGE_ERROR = 2
DOMAIN_ERROR = 1

TABLE2_ROWS = (
    # (n, k, d, reported size); (10,7,4) is reported as 8 but complement
    # symmetry with (10,3,4) forces 13 - flagged as a known discrepancy.
    (8, 4, 4, 14),
    (8, 5, 4, 8),
    (9, 4, 4, 18),
    (9, 5, 4, 18),
    (9, 7, 4, 4),
    (9, 6, 6, 3),
    (10, 3, 4, 13),
    (10, 7, 4, 8),
    (10, 6, 6, 5),
    (10, 7, 6, 3),
)


class SchemaError(ValueError):
    pass


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v) -> bool:
    return isinstance(v, str)


def _list(item_ok, size=None):
    """A check that v is a list, of the given size if any, whose items pass item_ok."""
    return lambda v: isinstance(v, list) and size in (None, len(v)) and all(map(item_ok, v))


def _selector(variants: dict) -> tuple:
    """A field naming its document's variant; variants gives each one's other fields."""
    return " or ".join(map(repr, variants)), lambda v: _is_str(v) and v in variants, variants


def _rule(r) -> bool:
    return isinstance(r, dict) and r.keys() == {"edge", "old", "new"} and (
        _PAIR(r["edge"]) and _is_int(r["old"]) and _is_int(r["new"])
    )


# the models of saf.Adversary by their "type" name; each one's dataclass fields are its other fields
ADVERSARIES = {model.kind: model for model in saf.Adversary.__args__}
_INT = ("an integer", _is_int)
_NUMBER = ("a number", lambda v: _is_int(v) or isinstance(v, float))
_INTS = _list(_is_int)
_PAIR = _list(_is_int, 2)
# every JSON input the program reads: what each field must be, down to list items;
# a field not listed, or not taken by the variant its document names, is unknown
SCHEMAS = {
    "pool": {
        "backend": _selector({"poly": ("p", "constituents"), "set": ("n",)}),
        "p": _INT,
        "n": _INT,
        "constituents": (
            "a list of hex strings or integer lists", _list(lambda c: _is_str(c) or _INTS(c))
        ),
    },
    "code": {
        "n": _INT,
        "k": _INT,
        "d": ("an integer or null", lambda v: v is None or _is_int(v)),
        "codewords": ("a list of integer lists", _list(_INTS)),
    },
    "lattice": {
        "elements": ("a list of strings", _list(_is_str)),
        "covers": ("a list of [lower, upper] string pairs", _list(_list(_is_str, 2))),
        "mult": ("a list of rows of strings", _list(_list(_is_str))),
    },
    "topology": {"layers": _INT, "width": _INT, "indegree": _INT, "density": _NUMBER, "seed": _INT},
    "adversary": {
        "type": _selector({k: [f.name for f in dataclasses.fields(m)] for k, m in ADVERSARIES.items()}),
        "prob": _NUMBER,
        "seed": _INT,
        "rules": ('a list of {"edge": [u, v], "old": s, "new": t} rules', _list(_rule)),
        "edges": ("a list of [u, v] integer pairs", _list(_PAIR)),
    },
}


def _load(kind: str, build, where: str, text: str | None = None):
    """build(obj) for the JSON object in text, or in the file named where; any
    failure, a field unknown to SCHEMAS[kind] or failing its check, a field
    build needs but obj lacks, or a ValueError from build, is a SchemaError."""
    try:
        if text is None:
            with open(where, encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except OSError as exc:
        raise SchemaError(f"{where}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (RecursionError, ValueError) as exc:  # too deep, not UTF-8, huge integer, NUL in path
        raise SchemaError(f"{where}: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    bad = f"{where}: bad {kind} document"
    for key, value in obj.items():
        if key not in SCHEMAS[kind]:
            raise SchemaError(f"{bad}: unknown field {key!r}")
        wanted, ok, *variants = SCHEMAS[kind][key]
        if not ok(value):
            raise SchemaError(f"{bad}: field {key!r} must be {wanted}")
        extra = sorted(obj.keys() - {key, *variants[0][value]}) if variants else []
        if extra:
            raise SchemaError(f"{bad}: unknown field {extra[0]!r} for {key} {value!r}")
    try:
        return build(obj)
    except KeyError as exc:
        raise SchemaError(f"{bad}: missing field {exc}") from None
    except ValueError as exc:
        raise SchemaError(f"{bad}: {exc}") from None


def _flag(flag: str, convert, *args):
    """``convert(*args)``, its ValueError naming the flag (exit 2); a
    SchemaError, which names its cause already, passes unchanged."""
    try:
        return convert(*args)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{flag}: {exc}") from None


def _parse_indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_element(pool, text: str):
    """A --decompose value: hex for p = 2, else coefficients lowest degree
    first, the forms element_to_json writes."""
    if pool.backend != "poly":
        raise SchemaError("--decompose needs a poly pool")
    if pool.field.p == 2:
        return Polynomial.from_hex(text, pool.field)
    return Polynomial.from_coefficients(_parse_indices(text), pool.field)


def _emit(obj, args, text_lines) -> None:
    if args.json:
        payload = json.dumps(obj, indent=2)
    else:
        payload = "\n".join(text_lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def cmd_pool(args) -> int:
    if args.sample:
        pool = data.sample_pool()
    else:
        pool = _load("pool", pool_from_json, args.file)
    result = {"pool": pool.to_json()}
    lines = [f"pool: backend={pool.backend} n={pool.n}"]
    if pool.backend == "poly":
        for i, f in enumerate(pool.constituents):
            lines.append(f"  [{i}] {pool.element_to_json(f)}")
    if args.compose is not None:
        subset = _flag("--compose", _parse_indices, args.compose)
        element = _flag("--compose", pool.compose, subset)
        shown = pool.element_to_json(element)
        result["compose"] = {"subset": list(subset), "element": shown}
        lines.append(f"compose {list(subset)} -> {shown}")
    if args.decompose is not None:
        element = _flag("--decompose", _parse_element, pool, args.decompose)
        subset = pool.decompose(element)
        shown = pool.element_to_json(element)
        result["decompose"] = {"element": shown, "subset": list(subset)}
        lines.append(f"decompose {shown} -> {list(subset)}")
    _emit(result, args, lines)
    return 0


def cmd_bounds(args) -> int:
    report = bounds_mod.bound_report(args.n, args.k, args.d)
    lines = [f"bounds for (n={args.n}, k={args.k}, d={args.d})"]
    for e in report.entries:
        mark = e.value if e.applicable else "not applicable"
        lines.append(f"  {e.name:22s} {mark}" + (f" ({e.reason})" if e.reason else ""))
    lines.append(f"  upper bound: {report.upper_bound}")
    lines.append(f"  existence lower bound: {report.lower_bound}")
    _emit(report.to_json(), args, lines)
    return 0


def _search_row(n: int, k: int, d: int, exact: bool, args) -> dict:
    """The row search prints, and table2 for each of its rows: the maximum clique size
    with a witness code and, with --count, the number of maximum cliques of a certified
    size.  --timeout bounds the search and the count each."""
    graph = cliques.build_graph(n, k, d, exact=exact)
    upper = None if exact else bounds_mod.bound_report(n, k, d).upper_bound
    result = cliques.max_clique(graph, upper_bound=upper, timeout=args.timeout)
    row = {
        "n": n,
        "k": k,
        "d": d,
        "mode": "exact" if exact else "at_least",
        "upper_bound": upper,
        "max_size": result.size,
        "complete": result.complete,
        "elapsed": round(result.elapsed, 3),
        "nodes": result.nodes,
    }
    if result.witnesses:
        row["code"] = cliques.extract_code(graph, result.witnesses[0]).to_json()
    if args.count and not result.complete:
        # a count of cliques of an uncertified size would count the wrong thing
        row.update(count=None, count_capped=False, count_complete=False, count_nodes=0)
    elif args.count:
        counted = cliques.count_maximum_cliques(
            graph, result.size, cap=args.cap, timeout=args.timeout
        )
        row.update(count=counted.count, count_capped=counted.capped,
                   count_complete=counted.complete, count_nodes=counted.nodes)
    return row


def _count_text(row: dict) -> str:
    """A row's count as printed; a count stopped by --cap or --timeout is a lower bound."""
    if row["count"] is None:
        return "skipped"
    state = " (capped)" if row["count_capped"] else ("" if row["count_complete"] else " (timeout)")
    return f"{row['count']}{state}"


def cmd_search(args) -> int:
    row = _search_row(args.n, args.k, args.d, args.exact, args)
    lines = [
        f"max clique for (n={args.n}, k={args.k}, d={args.d}, "
        f"{'exact' if args.exact else 'at least'}): {row['max_size']}"
        + ("" if row["complete"] else " (timeout, best so far)")
    ]
    if "code" in row:
        lines.append(f"witness code: {row['code']['codewords']}")
    if args.count:
        lines.append(
            "count skipped: size not certified" if row["count"] is None
            else f"maximum cliques of size {row['max_size']}: {_count_text(row)}"
        )
    _emit(row, args, lines)
    return 0


def cmd_decode(args) -> int:
    if args.sample_code:
        code = data.sample_code()
    else:
        code = _load("code", ConstantWeightCode.from_json, args.code)
    received = _flag("--received", _parse_indices, args.received)
    result = _flag("--received", decode, received, code)
    payload = {
        "received": sorted(received),
        "distance": result.distance,
        "candidates": [list(c) for c in result.candidates],
        "ambiguous": result.ambiguous,
    }
    if result.ambiguous:
        lines = [
            f"Ambiguous at distance {result.distance}: "
            + ", ".join(str(list(c)) for c in result.candidates)
        ]
    else:
        lines = [f"Decoded {list(result.codeword)} (distance {result.distance})"]
    _emit(payload, args, lines)
    return 0


def _lattice(obj: dict) -> tuple[FiniteLattice, MultiplicationTable | None]:
    lat = FiniteLattice.from_json(obj)
    return lat, (MultiplicationTable(lat, obj["mult"]) if "mult" in obj else None)


def cmd_lattice(args) -> int:
    lat, table = _load("lattice", _lattice, args.file)
    payload = {
        "elements": list(lat.elements),
        "top": lat.top,
        "bottom": lat.bottom,
        "meet_irreducibles": lat.meet_irreducibles(),
    }
    lines = [
        f"lattice with {len(lat)} elements, bottom={lat.bottom}, top={lat.top}",
        f"meet-irreducibles: {payload['meet_irreducibles']}",
    ]
    if args.check_theorem:
        report = lat.decomposition_theorem_report()
        payload["theorem"] = report.to_json()
        lines.append(
            f"unique decomposition: {report.unique_decomposition}; "
            f"birkhoff: {report.birkhoff}; m3-free: {report.m3_free}; "
            f"sides agree: {report.agree}"
        )
    if args.element is not None:
        decs = _flag("--element", lat.irreducible_decompositions, args.element)
        payload["decompositions"] = [sorted(s) for s in decs]
        lines.append(f"decompositions of {args.element}: {[sorted(s) for s in decs]}")
    if table is not None:
        payload["prime"] = {e: check_prime(lat, table, e) for e in lat.elements}
        payload["primary"] = {e: check_primary(lat, table, e) for e in lat.elements}
        primes = [e for e, ok in payload["prime"].items() if ok]
        primaries = [e for e, ok in payload["primary"].items() if ok]
        lines.append(f"prime elements: {primes}")
        lines.append(f"primary elements: {primaries}")
    _emit(payload, args, lines)
    return 0


def _adversary(obj: dict) -> saf.Adversary:
    """The model obj's type names; a dataclass field with no default that obj lacks is missing."""
    model = ADVERSARIES[obj["type"]]
    fields = {
        f.name: obj[f.name]
        for f in dataclasses.fields(model)
        if f.name in obj or f.default is dataclasses.MISSING
    }
    if "rules" in fields:
        fields["rules"] = tuple((tuple(r["edge"]), r["old"], r["new"]) for r in fields["rules"])
    if "edges" in fields:
        fields["edges"] = tuple(tuple(e) for e in fields["edges"])
    return model(**fields)


def cmd_simulate(args) -> int:
    if bool(args.code) == args.sample:
        raise SchemaError("simulate needs exactly one of --code and --sample")
    code = (data.sample_code() if args.sample
            else _load("code", ConstantWeightCode.from_json, args.code))
    pool = _load("pool", pool_from_json, args.pool) if args.pool else None
    spec = _load("topology", lambda obj: saf.TopologySpec(
        layers=obj["layers"],
        width=obj["width"],
        max_indegree=obj.get("indegree", 3),
        edge_density=obj.get("density", 0.5),
        seed=obj.get("seed", args.seed),
    ), "--topology", args.topology)
    symbol_map = saf.SymbolMap.default(code.n)

    def checked_adversary(obj: dict) -> saf.Adversary:
        adversary = _adversary(obj)
        saf.check_adversary(adversary, spec.layer_sizes, symbol_map.q)
        return adversary

    adversary = _load("adversary", checked_adversary, "--adversary", args.adversary)
    stats = saf.run_experiment(
        code, pool, symbol_map, spec, adversary, trials=args.trials, seed=args.seed,
        keep_results=bool(args.csv),
    )
    if args.csv:
        saf.write_csv(stats, args.csv)
    payload = stats.to_json()
    lines = [f"{args.trials} trials, q={symbol_map.q}"]
    for outcome in saf.Outcome:
        lines.append(
            f"  {outcome.value:12s} {stats.counts.get(outcome, 0):6d}"
            f"  ({stats.rate(outcome):.3f})"
        )
    lines.append(f"  guarantee violations: {stats.guarantee_violations}")
    _emit(payload, args, lines)
    return 0


def cmd_table2(args) -> int:
    rows = []
    lines = [
        f"{'(n,k,d)':>10s} {'bound':>6s} {'found':>6s} {'reported':>9s} "
        f"{'count':>17s} {'time':>7s}  notes"
    ]
    for n, k, d, reported in TABLE2_ROWS:
        row = _search_row(n, k, d, False, args)
        notes = []
        if not row["complete"]:
            notes.append("timeout: size is a lower bound")
        elif row["max_size"] != reported:
            notes.append(f"disagrees with reported {reported}")
        row.update(reported_size=reported, notes=notes)
        rows.append(row)
        lines.append(
            f"({n:2d},{k},{d}) {row['upper_bound']:6d} {row['max_size']:6d} {reported:9d} "
            f"{_count_text(row) if args.count else '':>17s} {row['elapsed']:6.2f}s  {'; '.join(notes)}"
        )
    _emit({"rows": rows}, args, lines)
    return 0


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:  # NaN fails too: a NaN deadline never passes
        raise argparse.ArgumentTypeError(f"expected a number of seconds >= 0, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwlattice",
        description="Constant weight codes from uniquely decomposable lattice elements.",
    )
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pool", help="load, validate and use a constituent pool")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="pool JSON document")
    src.add_argument("--sample", action="store_true", help="use the bundled sample pool")
    p.add_argument("--compose", metavar="I,J,...", help="compose an index subset")
    p.add_argument("--decompose", metavar="ELEMENT",
                   help="decompose an element: hex for p = 2, else coefficients c0,c1,...")
    _common_output(p)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("bounds", help="evaluate all size bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _common_output(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="maximum clique search for optimal codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="adjacency at distance exactly d instead of at least d")
    p.add_argument("--count", action="store_true", help="also count maximum cliques")
    p.add_argument("--cap", type=_positive, default=cliques.DEFAULT_COUNT_CAP)
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="seconds for the search, and again for the count")
    _common_output(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("decode", help="minimum distance decoding")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--code", help="code catalog JSON")
    src.add_argument("--sample-code", action="store_true",
                     help="use the bundled (7,4,4) code")
    p.add_argument("--received", required=True, metavar="I,J,...",
                   help="received index set")
    _common_output(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("lattice", help="analyze a finite lattice document")
    p.add_argument("--file", required=True, help="lattice JSON document")
    p.add_argument("--element", help="list irreducible decompositions of one element")
    p.add_argument("--check-theorem", action="store_true",
                   help="check the unique-decomposition equivalence")
    _common_output(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("simulate", help="store-and-forward network experiments")
    p.add_argument("--code", help="code catalog JSON")
    p.add_argument("--pool", help="pool JSON, checked against the code's n when given")
    p.add_argument("--sample", action="store_true",
                   help="use the bundled (7,4,4) code")
    p.add_argument("--topology", required=True,
                   help='JSON, e.g. {"layers":4,"width":3,"indegree":3,"density":0.5,"seed":1}')
    p.add_argument("--adversary", default='{"type":"none"}',
                   help='JSON, e.g. {"type":"random_substitution","prob":0.05}')
    p.add_argument("--trials", type=_positive, default=100)
    p.add_argument("--csv", help="write per-trial rows to this CSV file")
    _common_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table2", help="run the bundled optimal-code parameter sweep")
    p.add_argument("--count", action="store_true", help="also count maximum cliques")
    p.add_argument("--cap", type=_positive, default=cliques.DEFAULT_COUNT_CAP)
    p.add_argument("--timeout", type=_seconds, default=120.0,
                   help="seconds for each row's search, and again for its count")
    _common_output(p)
    p.set_defaults(func=cmd_table2)

    return parser


def _common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine readable output")
    p.add_argument("--out", help="write output to this file instead of stdout")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # inputs are read by _load, so this is --out or --csv
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
