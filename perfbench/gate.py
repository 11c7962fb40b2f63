"""Correctness gate: each command's stdout against a stored reference.

The references (references.json, written by capture_refs.py) hold a
SHA-256 digest of the compared part of each command's output:

  text, csv    the whole stdout, byte for byte
  verify-csv   the whole stdout, byte for byte, and every row must read PASS
  verify-table the human verify report without its per-check seconds
               column (timings, the one part that changes between runs),
               and every row must read PASS
  json         the parsed ``results`` member only; ``params.threads``
               echoes os.cpu_count(), so it differs between hosts

The parts left out are listed in references.json under ``not_compared``.
"""

from __future__ import annotations

import hashlib
import json
import re

# "PASS name   0.123s  detail", as cli.cmd_verify prints it
_TABLE_ROW = re.compile(r"^(PASS|FAIL) (\S+) +\d+\.\d{3}s  (.*)$")

NOT_COMPARED = {
    "json params.threads": "echoes os.cpu_count() of the host that ran the command, "
                           "not a computed result; a known host dependence of the CLI",
    "verify-table seconds column": "per-check timings in the human verify report",
}


def kind_of(argv: list[str]) -> str:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if argv[0] == "verify":
        return "verify-csv" if fmt == "csv" else "verify-table"
    if fmt in ("csv", "json"):
        return fmt
    return "text"


def _verify_rows(kind: str, text: str) -> list[tuple[str, str]]:
    """(status, name) of each check row in a verify report."""
    lines = text.splitlines()
    if kind == "verify-csv":
        fields = [(line.split(",", 2) + ["", ""])[:2] for line in lines[1:]]
        return [(status, name) for name, status in fields]
    return [(m.group(1), m.group(2)) for m in map(_TABLE_ROW.match, lines) if m]


def compared_part(kind: str, stdout: bytes) -> bytes:
    """The bytes of an output that the gate compares with its reference."""
    if kind == "json":
        results = json.loads(stdout)["results"]
        return json.dumps(results, sort_keys=True, separators=(",", ":")).encode()
    if kind == "verify-table":
        lines = []
        for line in stdout.decode().splitlines():
            m = _TABLE_ROW.match(line)
            lines.append(f"{m.group(1)} {m.group(2)} {m.group(3)}" if m else line)
        return "\n".join(lines).encode()
    return stdout


def fingerprint(kind: str, stdout: bytes) -> str:
    return hashlib.sha256(compared_part(kind, stdout)).hexdigest()


def check(ref: dict, stdout: bytes, returncode: int) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    kind = ref["kind"]
    if kind.startswith("verify-"):
        rows = _verify_rows(kind, stdout.decode(errors="replace"))
        if not rows:
            problems.append("no verify rows")
        problems.extend(f"{name} reads {status}" for status, name in rows if status != "PASS")
    try:
        digest = fingerprint(kind, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable {kind} output: {exc}")
    else:
        if digest != ref["sha256"]:
            problems.append(f"{kind} output differs from the reference")
    return problems


def load(path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def key(argv: list[str]) -> str:
    return " ".join(argv)
