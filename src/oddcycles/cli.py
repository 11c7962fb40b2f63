"""Command line front end.

Subcommands:
  enumerate   list the odd-drop cycles on [n] with their drop statistics
  poly        print a distribution polynomial (f: odd-odd, g: even-odd,
              joint: bivariate) for one n
  verify      run cross-verification suites and report PASS/FAIL per check
              (SKIP for a check whose range is empty at the given limits)
  sequence    print one of the integer sequences with its source
  table       print joint statistic tables as flat rows

Output formats: table (human), json, csv.  JSON documents always carry the
four keys command/params/results/checks, with sorted keys and a fixed
indent, so parsing and re-emitting is byte-identical.  Machine formats
contain no timings; the human verify report shows per-check seconds.

Each cmd_* checks all of its input first and then returns its exit status
with an iterable of text chunks; main writes the chunks as they come, so
every usage error is reported before any output.  Each command states its
output once, as a JSON document with a hole where its rows go, a CSV
header, its rows and their table lines, and one emitter writes the rows
in the chosen format as they come, so no command holds its whole text.
The JSON is byte-identical to json.dumps of the whole document.  enumerate
streams its listing in bounded memory, a batch of 512 members at a time:
the batch's words and drop pairs go into one bytearray, and one
str.translate turns it into text; its count comes from the enumerator's
table of drop pairs.  poly writes its polynomial term by term.

At start-up this module loads no other module of the package: each cmd_*
imports the routes it runs (enumerate and table the enumerator, poly the
generating tree or the recurrences, verify the suites, sequence the module
its kind reads), and reaches them through module attributes such as
enumerator.iter_odd_drop_words, so `oddcycles --version` and `--help` load
no route.  Only JSON output imports json, so `--version` and the CSV and
table commands skip it.  RunConfig reads its limit on n from the package,
not from the enumerator.

Limits come from flags, falling back to RunConfig's defaults.  Exit codes:
0 success, 1 verification failure, 2 usage or validation error, 74
(EX_IOERR) output that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from . import MAX_N, SUITES, __version__

if TYPE_CHECKING:
    from .polynomials import BiPoly

FORMATS = ("table", "json", "csv")
POLY_KINDS = ("f", "g", "joint")
# Caps on the inputs that take any size, each under 1.5 s of work at the
# cap: poly takes about 1.2-1.3 s and 34 MB at --kind joint --n 400 in every
# format and 1.3 s at --kind f|g --n 2000, and sequence --kind cno_count
# --limit 2000 0.33 s (medians of wall time, BENCH_caps.json).
MAX_JOINT_N = 400
MAX_MARGINAL_N = 2000  # poly --kind f|g --n, and sequence --kind cno_count --limit
SEQUENCE_KINDS = ("cno_count", "even_odd_only", "odd_odd_only", "genocchi", "median")


class UsageError(Exception):
    pass


def _check_range(name: str, value: int, low: int, high: int) -> None:
    if value < low:
        raise UsageError(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise UsageError(f"{name} must be at most {high}, got {value}")


class _Limits(NamedTuple):
    max_bruteforce_n: int = 12
    series_order: int = 40
    output_format: str = "table"


class RunConfig(_Limits):
    """The run's limits with their defaults, checked here and nowhere else.

    The identities suite needs a series order of at least 4; the top order,
    160, takes about 0.4 s in verify --max-n 8.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        _check_range("max_bruteforce_n", cfg.max_bruteforce_n, 1, MAX_N)
        _check_range("series_order", cfg.series_order, 4, 160)
        if cfg.output_format not in FORMATS:
            raise UsageError(f"format must be one of {', '.join(FORMATS)}")
        return cfg


def _build_config(args: argparse.Namespace) -> RunConfig:
    given = {"max_bruteforce_n": args.max_n, "series_order": args.series_order, "output_format": args.format}
    return RunConfig(**{key: value for key, value in given.items() if value is not None})


# -- emission ---------------------------------------------------------------

_HOLE = "\0"  # stands for the rows while the rest of the JSON document is rendered


def _document(cfg: RunConfig, command: str, results: dict, checks=(), **params) -> dict:
    params.update(
        format=cfg.output_format,
        max_bruteforce_n=cfg.max_bruteforce_n,
        series_order=cfg.series_order,
    )
    return {"command": command, "params": params, "results": results, "checks": list(checks)}


def _emit(fmt: str, doc: dict, header: str, rows: Iterable, line=None, top="", bottom="") -> Iterator[str]:
    """A command's output in one format, as chunks of text.

    Each row is a tuple of values, or text already in the format (a batch
    of members, a polynomial's terms), which is written as it is.  The
    table is top, line(*row) for each row, and bottom.  CSV is the header
    and a line of each row's values, as many as the header has fields; they
    never hold a comma or a quote.  JSON is doc with _HOLE where the rows
    go: in a list, each row an object keyed by the header's fields, as
    json.dumps writes it there, and each text row starts with the separator
    the list puts before it; in a string, the text rows, which need no
    escaping.
    """
    if fmt == "table":
        yield top
        yield from (row if isinstance(row, str) else line(*row) for row in rows)
        yield bottom
        return
    if fmt == "csv":
        yield header
        width = header.count(",") + 1
        for row in rows:
            yield row if isinstance(row, str) else "\n" + ",".join(map(str, row[:width]))
        return
    import json

    head, tail = json.dumps(doc, sort_keys=True, indent=2).split(json.dumps(_HOLE))
    indent = head[head.rindex("\n") + 1 :]
    if not indent.isspace():  # the hole is a string
        yield head + '"'
        for text in rows:
            assert json.dumps(text) == f'"{text}"', text
            yield text
        yield '"' + tail
        return
    yield head
    keys, sep = header.split(","), ",\n" + indent
    skip = len(sep)  # the first row has no separator before it
    for row in rows:
        if not isinstance(row, str):
            obj = json.dumps(dict(zip(keys, row)), sort_keys=True, indent=2)
            row = sep + obj.replace("\n", "\n" + indent)
        yield row[skip:]
        skip = 0
    yield tail


# -- subcommands -------------------------------------------------------------


def _check_enumerable(cfg: RunConfig, n: int) -> None:
    if not 1 <= n <= cfg.max_bruteforce_n:
        raise UsageError(f"n must be in 1..{cfg.max_bruteforce_n}, got {n}")


# Members are written a batch at a time.  A batch is one bytearray: each
# member's word, then one closing byte that carries its drop pair, and one
# str.translate turns the whole batch into text.  512 members of n = 14 make
# 137 KB of JSON text.
_BATCH = 512

# per format, the text of a member's entry 1 (every canonical word starts
# with 1 and holds it once), of each later entry v, and of its closing byte.
# The JSON members sit at indent 6, their keys at 8 and the entries at 10,
# each member after the separator of its list.
_MEMBER_TEXT = {
    "table": ("1", " {v}", "   oo={oo} eo={eo}\n"),
    "csv": ("\n{n},1", " {v}", ",{oo},{eo}"),
    "json": (
        ',\n      {{\n        "entries": [\n          1',
        ",\n          {v}",
        '\n        ],\n        "eo": {eo},\n        "oo": {oo}\n      }}',
    ),
}


def _closing(oo: int, eo: int) -> int:
    # above every entry, and one byte per drop pair up to MAX_N
    return 128 + 16 * oo + eo


def _translation(fmt: str, n: int) -> dict[int, str]:
    """The str.translate table that turns a batch of members on [n] into text."""
    first, entry, close = _MEMBER_TEXT[fmt]
    table = {1: first.format(n=n)}
    table.update((v, entry.format(v=v)) for v in range(2, n + 1))
    # a drop lands on an odd entry, and no two drops share one
    bound = (n + 1) // 2
    table.update(
        (_closing(oo, eo), close.format(oo=oo, eo=eo))
        for oo in range(bound + 1)
        for eo in range(bound + 1 - oo)
    )
    return table


def _batches(rows: Iterator[tuple[bytes, int, int]], table: dict[int, str]) -> Iterator[str]:
    # each record is unpacked as it is read, so no list of them is built
    while True:
        buf = bytearray()
        for w, oo, eo in islice(rows, _BATCH):
            buf += w
            buf.append(128 + 16 * oo + eo)  # _closing(oo, eo), without a call per member
        if not buf:
            return
        yield buf.decode("latin-1").translate(table)


def cmd_enumerate(cfg: RunConfig, n: int) -> tuple[int, Iterator[str]]:
    if n is None:
        raise UsageError("enumerate requires --n")
    _check_enumerable(cfg, n)
    from . import enumerator

    fmt = cfg.output_format
    # JSON's count sorts before its members and the table ends with it, so
    # it is read off the table of drop pairs; CSV has none
    count = 0 if fmt == "csv" else sum(enumerator._pair_counts(n).values())
    rows = _batches(enumerator.iter_odd_drop_words(n), _translation(fmt, n))
    doc = _document(cfg, "enumerate", {"count": count, "cycles": [_HOLE]}, n=n)
    return 0, _emit(fmt, doc, "n,entries,oo,eo", rows, bottom=f"total {count}")


def _poly_for(kind: str, n: int) -> tuple[BiPoly, str]:
    if kind == "joint":
        from . import gentree

        return gentree.joint_poly(n), "xy"
    from . import recurrences
    from .polynomials import BiPoly

    if kind == "f":
        return BiPoly({(i, 0): c for i, c in enumerate(recurrences.oo_poly(n).coeffs)}), "x"
    return BiPoly({(0, i): c for i, c in enumerate(recurrences.eo_poly(n).coeffs)}), "y"


def cmd_poly(cfg: RunConfig, kind: str, n: int) -> tuple[int, Iterator[str]]:
    if kind is None or n is None:
        raise UsageError("poly requires --kind and --n")
    _check_range("n", n, 1, MAX_JOINT_N if kind == "joint" else MAX_MARGINAL_N)
    poly, variables = _poly_for(kind, n)
    fmt = cfg.output_format
    if fmt == "csv":
        rows = ((i, j, c) for (i, j), c in poly.sorted_terms())
    else:
        rows = poly.format(explicit_units=fmt == "json")
    results = {"kind": kind, "n": n, "variables": variables, "polynomial": _HOLE}
    doc = _document(cfg, "poly", results, kind=kind, n=n)
    return 0, _emit(fmt, doc, "x_degree,y_degree,coefficient", rows)


def cmd_verify(cfg: RunConfig, suite: str) -> tuple[int, Iterator[str]]:
    from . import verify

    checks = verify.run_suites(suite, max_n=cfg.max_bruteforce_n, series_order=cfg.series_order)
    failed = sum(not c.passed for c in checks)
    skipped = sum(c.skipped for c in checks)
    passed = len(checks) - failed - skipped
    width = max(len(c.name) for c in checks)
    summary = (
        f"{passed}/{len(checks)} checks passed"
        + (f", {skipped} skipped" if skipped else "")
        + (f", {failed} FAILED" if failed else "")
    )
    doc = _document(cfg, "verify", {"failed": failed, "passed": passed}, [_HOLE], suite=suite)
    rows = [(c.name, c.status, c.detail, c.seconds) for c in checks]

    def line(name: str, status: str, detail: str, seconds: float) -> str:
        return f"{status:4} {name:<{width}} {seconds:8.3f}s  {detail}\n"

    return 1 if failed else 0, _emit(cfg.output_format, doc, "name,status,detail", rows, line, bottom=summary)


def _sequence_rows(cfg: RunConfig, kind: str, limit: int) -> tuple[list[tuple[int, int]], str]:
    if kind == "cno_count":
        from . import recurrences

        _check_range("limit", limit, 1, MAX_MARGINAL_N)
        # the count f(1) is P(0) with a = v - 1.  Coefficient 0 of a length
        # reads only coefficient 0 of the one before, so once read, the
        # walk goes on from that coefficient alone
        rows = []
        for n, (coeffs, held) in enumerate(recurrences._eigen_walk(limit, 1), 1):
            rows.append((n, recurrences._at(coeffs, held, 0)))
            del coeffs[1:]
        return rows, "recurrence"
    if kind in ("even_odd_only", "odd_odd_only"):
        from . import enumerator

        # lengths 2m for even-odd-only cycles (kind 1 of the pair (oo, eo)),
        # 2m+1 for odd-odd-only ones (kind 0)
        odd = kind == "odd_odd_only"
        if 2 * limit + odd > cfg.max_bruteforce_n:
            raise UsageError(
                f"limit {limit} needs enumeration at {2 * limit + odd}, beyond "
                f"max_bruteforce_n {cfg.max_bruteforce_n}"
            )
        return [
            (2 * m + odd, enumerator.count_only(enumerator.joint_table(2 * m + odd), 1 - odd))
            for m in range(1, limit + 1)
        ], "enumeration"
    if limit > cfg.series_order:
        raise UsageError(f"limit {limit} beyond series_order {cfg.series_order}")
    from . import series

    if kind == "genocchi":
        values, first = series.genocchi_sequence(limit), 1
    else:
        values, first = series.genocchi_median_sequence(limit), 0
    return list(enumerate(values, first)), "generating function"


def cmd_sequence(cfg: RunConfig, kind: str, limit: int) -> tuple[int, Iterator[str]]:
    if kind is None or limit is None:
        raise UsageError("sequence requires --kind and --limit")
    if limit < 1:
        raise UsageError(f"limit must be positive, got {limit}")
    rows, source = _sequence_rows(cfg, kind, limit)
    results = {"kind": kind, "source": source, "values": [_HOLE]}
    doc = _document(cfg, "sequence", results, kind=kind, limit=limit)
    return 0, _emit(cfg.output_format, doc, "n,value", rows, "\n{}\t{}".format, f"# source: {source}")


def cmd_table(cfg: RunConfig, n: int | None, limit: int | None) -> tuple[int, Iterator[str]]:
    if (n is None) == (limit is None):
        raise UsageError("table requires exactly one of --n or --limit")
    if limit is not None and limit < 1:
        raise UsageError(f"limit must be positive, got {limit}")
    # checked before the lengths are listed, so a huge --limit builds nothing
    _check_enumerable(cfg, n if n is not None else limit)
    from . import enumerator

    rows = (
        (m, oo, eo, c)
        for m in ([n] if n is not None else range(1, limit + 1))
        for (oo, eo), c in sorted(enumerator.joint_table(m).terms.items())
    )
    doc = _document(cfg, "table", {"rows": [_HOLE]}, n=n, limit=limit)
    line = "\n{:>3} {:>3} {:>3} {:>12}".format
    return 0, _emit(cfg.output_format, doc, "n,oo,eo,count", rows, line, line("n", "oo", "eo", "count")[1:])


# -- driver -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=FORMATS, default=None)
    shared.add_argument("--series-order", type=int, default=None, dest="series_order")
    shared.add_argument("--max-n", type=int, default=None, dest="max_n")

    parser = argparse.ArgumentParser(
        prog="oddcycles",
        description="Exact statistics of cycles whose drops all land on odd entries.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[shared], help="list members of one length")
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("poly", parents=[shared], help="print a distribution polynomial")
    p.add_argument("--kind", choices=POLY_KINDS, default=None)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("verify", parents=[shared], help="run verification suites")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")

    p = sub.add_parser("sequence", parents=[shared], help="print an integer sequence")
    p.add_argument("--kind", choices=SEQUENCE_KINDS, default=None)
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("table", parents=[shared], help="print joint statistic tables")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    digits = sys.get_int_max_str_digits()
    try:
        try:
            cfg = _build_config(args)
            # input is read under the limit on integer digits, output is not
            sys.set_int_max_str_digits(0)
            if args.command == "enumerate":
                status, chunks = cmd_enumerate(cfg, args.n)
            elif args.command == "poly":
                status, chunks = cmd_poly(cfg, args.kind, args.n)
            elif args.command == "verify":
                status, chunks = cmd_verify(cfg, args.suite)
            elif args.command == "sequence":
                status, chunks = cmd_sequence(cfg, args.kind, args.limit)
            else:
                status, chunks = cmd_table(cfg, args.n, args.limit)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # chunks are turned into text here, so the limit stays lifted
        return _write(chunks) or status
    finally:
        sys.set_int_max_str_digits(digits)


# chunks are joined into writes of this many characters or a few more: a
# reader on a pipe pays for every write, and stdout's own buffer is 8 KiB
_WRITE_SIZE = 1 << 16
EX_IOERR = 74  # sysexits.h, as os.EX_IOERR is on POSIX only


def _write(chunks: Iterable[str]) -> int:
    """Write the chunks to stdout; returns 0, or EX_IOERR when stdout is
    closed or a write fails."""
    try:
        if sys.stdout is None:  # started with stdout closed (`>&-`)
            raise OSError("stdout is closed")
        write = sys.stdout.write
        batch, size = [], 0
        for chunk in chunks:
            batch.append(chunk)
            size += len(chunk)
            if size >= _WRITE_SIZE:
                write("".join(batch))
                batch, size = [], 0
        batch.append("\n")
        write("".join(batch))
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            # what stdout still buffers goes to devnull, so that the flush
            # at exit cannot fail again and turn the exit status into 120
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left early (`| head -1`)
            return 0
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EX_IOERR
    return 0


if __name__ == "__main__":
    sys.exit(main())
