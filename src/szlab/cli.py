"""Command-line interface.

Subcommands: compute, decompose, verify, enumerate, extremal, canon.
This module is the one writer of stdout: results come from the package as
objects and `to_json_dict`s, and every payload format is written here (JSON
by default, stable key order, no timestamps).  Runtime statistics and
diagnostics go to stderr.  `verify` and `enumerate` write each CSV row as
its record arrives, in record order; only their JSON report folds the
records.  Each command imports the layers it runs when it starts, so a
process compiles and executes only those.

Exit codes: 0 success; 2 parse/usage failure (and extremal below n = 4);
3 disconnected input to compute; 4 hypothesis violation in decompose;
5 enumeration above the built-in limit.  Commands keep only their happy
path: `main` maps the typed errors they let through to exit codes in one
table.  A bad `--n` (reversed ranges included), `--min-edges` or
`--workers` (below 1) is an argparse usage error (exit 2).
`InvariantViolation` is deliberately left unmapped, so a failed mathematical
check keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache, partial
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Iterator

from .errors import (
    DisconnectedGraphError,
    EnumerationLimitError,
    Graph6Error,
    HypothesisError,
    InvariantViolation,
    SzlabError,
)
from .formats import parse_edge_list, parse_graph6
from .graphs import Graph

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_HYPOTHESIS = 4
EXIT_LIMIT = 5

_PAIR_JSON = '{"x": %d, "y": %d, "distance": %d, "surplus": %d, "category": "%s"}'


def _err(msg: str) -> None:
    print(f"szlab: {msg}", file=sys.stderr)


def _read_one_graph(args) -> Graph:
    sources = [s for s in (args.graph6, args.edges, args.file) if s is not None]
    if len(sources) != 1:
        raise Graph6Error("exactly one of --graph6, --edges, --file is required")
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.edges is not None:
        return parse_edge_list(args.edges.replace("\\n", "\n"))
    with open(args.file, encoding="ascii", errors="replace") as fh:
        text = fh.read()
    if not text.strip():
        raise Graph6Error(f"empty input file: {args.file}")
    first = text.strip().splitlines()[0]
    if len(first.split()) == 2 and all(p.isdigit() for p in first.split()):
        return parse_edge_list(text)
    return parse_graph6(first)


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _n_range(spec: str) -> range:
    """A single n or a range A..B with 1 <= A <= B."""
    lo, sep, hi = spec.partition("..")
    start = _int_at_least(1, lo)
    stop = _int_at_least(1, hi) if sep else start
    if stop < start:
        raise argparse.ArgumentTypeError(f"empty range {spec!r}: A..B needs A <= B")
    return range(start, stop + 1)


def _write_csv(header: list[str], rows) -> None:
    import csv  # imported on first use: only --format csv needs it
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def cmd_compute(args) -> int:
    from .invariants import compute_invariants
    report = compute_invariants(_read_one_graph(args))
    if args.format == "csv":
        _write_csv(["u", "v", "n_u", "n_v", "n_0"], report.per_edge)
    elif args.format == "human":
        print(f"n={report.n} m={report.m}")
        print(f"wiener          = {report.wiener}")
        print(f"szeged          = {report.szeged}")
        print(f"revised szeged  = {report.revised_szeged}")
        print(f"gap (Sz - W)    = {report.gap}")
    else:
        print(json.dumps(report.to_json_dict(), sort_keys=False))
    return EXIT_OK


def cmd_decompose(args) -> int:
    from .proofs import gap_decomposition
    decomp = gap_decomposition(_read_one_graph(args))
    if args.format == "csv":
        header = ["x", "y", "distance", "separations", "surplus", "category", "block"]
        _write_csv(header, ([x, y, d, s + d, s, *cat] for x, y, d, s, cat in decomp.pair_rows()))
    elif args.format == "human":
        d = decomp.to_json_dict()
        print(f"n={d['n']} m={d['m']} gap={d['gap']} bound={d['bound']}")
        for b in d["blocks"]:
            tag = " (designated)" if b["designated"] else ""
            line = (
                f"block {b['index']}{tag}: size {b['size']}, "
                f"within {b['within_surplus']} (floor {b['within_floor']})"
            )
            if "cross_surplus" in b:
                line += f", cross {b['cross_surplus']} (floor {b['cross_floor']})"
            print(line)
        print(f"cross-other {d['cross_other']}")
    elif args.pairs:
        # The pairs follow the payload's last key, one row of text at a time, each
        # pair as json.dumps writes its dict.
        write = sys.stdout.write
        write(json.dumps(decomp.to_json_dict(), sort_keys=False)[:-1] + ', "pairs": [')
        for x, distances, surpluses, categories in decomp.by_row():
            pairs = zip(repeat(x), count(x + 1), distances, surpluses, map(itemgetter(0), categories))
            write((", " if x else "") + ", ".join(map(_PAIR_JSON.__mod__, pairs)))
        write("]}\n")
    else:
        print(json.dumps(decomp.to_json_dict(), sort_keys=False))
    return EXIT_OK


def _emit_reports(records, args, t0: float) -> None:
    """Write each CSV row as its record arrives, or the JSON report folded from every record."""
    checked = skipped = 0

    def parsed() -> Iterator[dict]:
        # Parse failures go to stderr as they arrive, so in line order, and are only counted.
        nonlocal checked, skipped
        for rec in records:
            if "error" in rec:
                _err(f"line {rec['lineno']}: {rec['error']}")
                skipped += 1
            else:
                checked += rec["ok"]
                yield rec

    if args.format == "csv":
        header = ["canonical_code", "n", "m", "wiener", "szeged", "gap", "scope"]
        _write_csv(header, (rec["row"] for rec in parsed() if "row" in rec))
    else:
        from .enumeration import fold_records
        print(json.dumps({"schema": 1, "reports": [r.to_json_dict() for r in fold_records(parsed())]}, sort_keys=False))
    _err(f"checked {checked} graphs in {time.monotonic() - t0:.2f}s")
    if skipped:
        _err(f"{skipped} unparseable line(s) skipped")


def cmd_verify(args) -> int:
    from .enumeration import examine_lines
    t0 = time.monotonic()
    # Both sources decode alike: an undecodable byte becomes U+FFFD and fails only
    # its own line's graph6 parse.  Only a file opened by name is closed here.
    with open(args.file or sys.stdin.fileno(), encoding="ascii", errors="replace", closefd=bool(args.file)) as lines:
        _emit_reports(examine_lines(lines, args.workers, rows=args.format == "csv"), args, t0)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .enumeration import EnumerationSpec, examine, generate
    t0 = time.monotonic()
    # Every spec is built, so every n checked against the limit, before anything
    # is generated.  Every n goes through one `examine` call, so one pool serves the whole run.
    specs = [EnumerationSpec(n=n, min_edges=args.min_edges) for n in args.n]
    graphs = chain.from_iterable(map(generate, specs))
    _emit_reports(examine(graphs, args.workers, rows=args.format == "csv"), args, t0)
    return EXIT_OK


def cmd_extremal(args) -> int:
    from .canon import _check_canon_size
    from .extremal import family_row
    _check_canon_size(args.n[-1])  # refuse the range's top before building any family
    families = [family_row(n) for n in args.n]
    if args.format == "json":
        print(json.dumps({"schema": 1, "families": families}, sort_keys=False))
    else:
        for fam in families:
            for line in fam["members"]:
                print(line)
            summary = {k: fam[k] for k in ("n", "count", "all_gaps_equal_4n_minus_8")}
            print(json.dumps(summary, sort_keys=False))
    return EXIT_OK


def cmd_canon(args) -> int:
    from .canon import canonical_code
    print(canonical_code(_read_one_graph(args)).decode("ascii"))
    return EXIT_OK


def _add_graph_input(parser) -> None:
    parser.add_argument("--graph6", help="one graph6 record")
    parser.add_argument("--edges", help="edge-list text: 'n m' header then 'u v' lines")
    parser.add_argument("--file", help="file containing a graph6 line or edge-list text")


# parse_args leaves the parser as it was, so one per process serves every call,
# and no call leaves a fresh parser's reference cycles for the collector.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szlab",
        description="Exact Szeged/Wiener index laboratory and gap-bound verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Wiener/Szeged/revised-Szeged report for one graph")
    _add_graph_input(p)
    p.add_argument("--format", choices=["json", "csv", "human"], default="json")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("decompose", help="block-level decomposition of the gap Sz - W")
    _add_graph_input(p)
    p.add_argument("--format", choices=["json", "csv", "human"], default="json")
    p.add_argument("--pairs", action="store_true", help="include the per-pair surplus dump")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check Sz - W >= 4n - 8 over a graph6 stream")
    p.add_argument("--file", help="graph6 file (default: stdin)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--workers", type=partial(_int_at_least, 1), default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="exhaustively verify the bound for a range of n")
    p.add_argument("--n", required=True, type=_n_range, help="single n or range A..B")
    p.add_argument("--min-edges", type=partial(_int_at_least, 0), dest="min_edges")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--workers", type=partial(_int_at_least, 1), default=1)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("extremal", help="emit the equality family for n (graph6 + summary)")
    p.add_argument("--n", required=True, type=_n_range, help="single n or range A..B")
    p.add_argument("--format", choices=["json", "human"], default="human")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("canon", help="canonical graph6 code of one graph")
    _add_graph_input(p)
    p.set_defaults(func=cmd_canon)

    return parser


# The one error-to-exit table, first match wins.  InvariantViolation is left
# out on purpose: a failed mathematical check must stay loud.
_EXIT_CODES = (
    (HypothesisError, EXIT_HYPOTHESIS),
    (DisconnectedGraphError, EXIT_DISCONNECTED),
    (EnumerationLimitError, EXIT_LIMIT),
    ((SzlabError, OSError), EXIT_PARSE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation:
        raise
    except (SzlabError, OSError) as exc:
        _err(str(exc))
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
