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
every usage error is reported before any output.  enumerate streams its
listing in every format, one member at a time, in bounded memory: its JSON
is written member by member, byte-identical to json.dumps of the whole
document, with the count taken from a first walk.  The other commands
return their text as one chunk.

At start-up this module loads no other module of the package: each cmd_*
imports the routes it runs (enumerate and table the enumerator, poly the
generating tree or the recurrences, verify the suites, sequence the module
its kind reads), and reaches them through module attributes such as
enumerator.iter_odd_drop_words, so `oddcycles --version` and `--help` load
no route.  RunConfig reads its limit on n from the package, not from the
enumerator.

Limits come from flags, falling back to a key=value config file given with
--config, falling back to defaults.  Exit codes: 0 success, 1 verification
failure, 2 usage or validation error, 74 (EX_IOERR) output that cannot be
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from . import MAX_N, SUITES, __version__

if TYPE_CHECKING:
    from .polynomials import BiPoly

FORMATS = ("table", "json", "csv")
POLY_KINDS = ("f", "g", "joint")
# Caps on the inputs that take any size, each a few seconds of work at the
# cap: joint_poly(400) takes about 1.3-1.5 s (the poly command 1.5-1.8 s, CSV
# included) and oo_poly(2000) about 1 s (the poly command 1.4-1.6 s).
MAX_JOINT_N = 400
MAX_MARGINAL_N = 2000  # poly --kind f|g --n, and sequence --kind cno_count --limit
SEQUENCE_KINDS = ("cno_count", "even_odd_only", "odd_odd_only", "genocchi", "median")

CONFIG_KEYS = ("max_bruteforce_n", "series_order", "format")


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


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not value or key not in CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: expected key=value with key in {CONFIG_KEYS}")
                values[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    merged: dict[str, str | int] = {}
    if args.config:
        merged.update(_read_config_file(args.config))
    # flags win over the file
    if args.max_n is not None:
        merged["max_bruteforce_n"] = args.max_n
    if args.series_order is not None:
        merged["series_order"] = args.series_order
    if args.format is not None:
        merged["format"] = args.format
    try:
        fields = {
            key: int(merged[key])
            for key in ("max_bruteforce_n", "series_order")
            if key in merged
        }
    except ValueError as exc:
        raise UsageError(f"non-integer config value: {exc}") from exc
    if "format" in merged:
        fields["output_format"] = str(merged["format"])
    return RunConfig(**fields)


# -- emission ---------------------------------------------------------------


def _emit_json(command: str, params: dict, results: dict, checks: list[dict]) -> str:
    doc = {"command": command, "params": params, "results": results, "checks": checks}
    return json.dumps(doc, sort_keys=True, indent=2)


def _emit_csv(header: list[str], rows: Iterable[list]) -> str:
    # values here never contain commas or quotes, so plain joins do
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines)


def _params(cfg: RunConfig, **extra) -> dict:
    out = {
        "format": cfg.output_format,
        "max_bruteforce_n": cfg.max_bruteforce_n,
        "series_order": cfg.series_order,
    }
    out.update(extra)
    return out


# -- subcommands -------------------------------------------------------------


def _check_enumerable(cfg: RunConfig, n: int) -> None:
    if not 1 <= n <= cfg.max_bruteforce_n:
        raise UsageError(f"n must be in 1..{cfg.max_bruteforce_n}, got {n}")


def cmd_enumerate(cfg: RunConfig, n: int) -> tuple[int, Iterator[str]]:
    if n is None:
        raise UsageError("enumerate requires --n")
    _check_enumerable(cfg, n)
    return 0, _listing(cfg, n)


# one member of the JSON listing, at its depth in the document: the members
# sit at indent 6, their keys at 8 and the entries at 10
_MEMBER_JSON = (
    '{{\n        "entries": [\n          {}\n        ],\n'
    '        "eo": {},\n        "oo": {}\n      }}'
)
_ENTRY_SEP = ",\n          "
_HOLE = "\0"  # stands for the members while the rest of the document is rendered


def _listing(cfg: RunConfig, n: int) -> Iterator[str]:
    from . import enumerator

    # (word, oo, eo) records are read one at a time; no list of them is built
    rows = enumerator.iter_odd_drop_words(n)
    if cfg.output_format == "json":
        # "count" sorts before "cycles", so a first walk counts the members
        count = sum(1 for _ in enumerator.iter_odd_drop_words(n))
        results = {"count": count, "cycles": [_HOLE]}
        text = _emit_json("enumerate", _params(cfg, n=n), results, [])
        head, tail = text.split(json.dumps(_HOLE))
        yield head
        sep = ""
        for w, oo, eo in rows:
            yield sep + _MEMBER_JSON.format(_ENTRY_SEP.join(map(str, w)), eo, oo)
            sep = ",\n      "
        yield tail
    elif cfg.output_format == "csv":
        yield "n,entries,oo,eo"
        for w, oo, eo in rows:
            yield f"\n{n},{' '.join(map(str, w))},{oo},{eo}"
    else:
        count = 0
        for w, oo, eo in rows:
            count += 1
            yield f"{' '.join(map(str, w))}   oo={oo} eo={eo}\n"
        yield f"total {count}"


def _poly_for(kind: str, n: int) -> tuple[BiPoly, str]:
    if kind == "joint":
        from . import gentree

        return gentree.joint_poly(n), "xy"
    from . import recurrences

    recurrence, var = (recurrences.oo_poly, "x") if kind == "f" else (recurrences.eo_poly, "y")
    return recurrence(n).to_bipoly(var), var


def cmd_poly(cfg: RunConfig, kind: str, n: int) -> tuple[int, list[str]]:
    if kind is None or n is None:
        raise UsageError("poly requires --kind and --n")
    _check_range("n", n, 1, MAX_JOINT_N if kind == "joint" else MAX_MARGINAL_N)
    poly, variables = _poly_for(kind, n)
    if cfg.output_format == "json":
        results = {
            "kind": kind,
            "n": n,
            "variables": variables,
            "polynomial": poly.format(explicit_units=True),
        }
        return 0, [_emit_json("poly", _params(cfg, kind=kind, n=n), results, [])]
    if cfg.output_format == "csv":
        rows = [[i, j, c] for (i, j), c in poly.sorted_terms()]
        return 0, [_emit_csv(["x_degree", "y_degree", "coefficient"], rows)]
    return 0, [poly.format()]


def cmd_verify(cfg: RunConfig, suite: str) -> tuple[int, list[str]]:
    from . import verify

    checks = verify.run_suites(suite, max_n=cfg.max_bruteforce_n, series_order=cfg.series_order)
    failed = sum(not c.passed for c in checks)
    skipped = sum(c.skipped for c in checks)
    passed = len(checks) - failed - skipped
    status = 1 if failed else 0
    if cfg.output_format == "json":
        payload = [
            {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
        ]
        results = {"failed": failed, "passed": passed}
        return status, [_emit_json("verify", _params(cfg, suite=suite), results, payload)]
    if cfg.output_format == "csv":
        rows = [[c.name, c.status, c.detail] for c in checks]
        return status, [_emit_csv(["name", "status", "detail"], rows)]
    width = max(len(c.name) for c in checks)
    lines = [
        f"{c.status:4} {c.name:<{width}} {c.seconds:8.3f}s  {c.detail}" for c in checks
    ]
    lines.append(
        f"{passed}/{len(checks)} checks passed"
        + (f", {skipped} skipped" if skipped else "")
        + (f", {failed} FAILED" if failed else "")
    )
    return status, ["\n".join(lines)]


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

        # lengths 2m for even-odd-only cycles, 2m+1 for odd-odd-only ones
        odd = kind == "odd_odd_only"
        count = enumerator.count_odd_odd_only if odd else enumerator.count_even_odd_only
        if 2 * limit + odd > cfg.max_bruteforce_n:
            raise UsageError(
                f"limit {limit} needs enumeration at {2 * limit + odd}, beyond "
                f"max_bruteforce_n {cfg.max_bruteforce_n}"
            )
        return [
            (2 * m + odd, count(2 * m + odd))
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


def cmd_sequence(cfg: RunConfig, kind: str, limit: int) -> tuple[int, list[str]]:
    if kind is None or limit is None:
        raise UsageError("sequence requires --kind and --limit")
    if limit < 1:
        raise UsageError(f"limit must be positive, got {limit}")
    rows, source = _sequence_rows(cfg, kind, limit)
    if cfg.output_format == "json":
        results = {
            "kind": kind,
            "source": source,
            "values": [{"n": n, "value": v} for n, v in rows],
        }
        return 0, [_emit_json("sequence", _params(cfg, kind=kind, limit=limit), results, [])]
    if cfg.output_format == "csv":
        return 0, [_emit_csv(["n", "value"], [[n, v] for n, v in rows])]
    lines = [f"# source: {source}"]
    lines.extend(f"{n}\t{v}" for n, v in rows)
    return 0, ["\n".join(lines)]


def cmd_table(cfg: RunConfig, n: int | None, limit: int | None) -> tuple[int, list[str]]:
    if (n is None) == (limit is None):
        raise UsageError("table requires exactly one of --n or --limit")
    if limit is not None and limit < 1:
        raise UsageError(f"limit must be positive, got {limit}")
    # checked before the lengths are listed, so a huge --limit builds nothing
    _check_enumerable(cfg, n if n is not None else limit)
    from . import enumerator

    rows: list[list[int]] = []
    for m in [n] if n is not None else range(1, limit + 1):
        table = enumerator.joint_table(m)
        for (oo, eo), c in sorted(table.terms.items()):
            rows.append([m, oo, eo, c])
    if cfg.output_format == "json":
        results = {
            "rows": [
                {"n": m, "oo": oo, "eo": eo, "count": c} for m, oo, eo, c in rows
            ]
        }
        params = _params(cfg, n=n, limit=limit)
        return 0, [_emit_json("table", params, results, [])]
    if cfg.output_format == "csv":
        return 0, [_emit_csv(["n", "oo", "eo", "count"], rows)]
    lines = [f"{'n':>3} {'oo':>3} {'eo':>3} {'count':>12}"]
    lines.extend(f"{m:>3} {oo:>3} {eo:>3} {c:>12}" for m, oo, eo, c in rows)
    return 0, ["\n".join(lines)]


# -- driver -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=FORMATS, default=None)
    shared.add_argument("--series-order", type=int, default=None, dest="series_order")
    shared.add_argument("--max-n", type=int, default=None, dest="max_n")
    shared.add_argument("--config", default=None, metavar="PATH")

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
    parser = build_parser()
    args = parser.parse_args(argv)
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
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left early (`| head -1`)
            return 0
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EX_IOERR
    return 0


if __name__ == "__main__":
    sys.exit(main())
