"""Write references.json from the outputs of the checkout's current sources.

Run it from the root of a checkout of the commit whose outputs are the
references, and name that commit:

    python3 perfbench/capture_refs.py --label <commit>

It refuses to write a reference for a command that exits non-zero or
whose verify report has a row that does not read PASS.
"""

from __future__ import annotations

import argparse
import json
import sys

import gate
import run
from workloads import all_commands


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the commit the references come from")
    args = parser.parse_args()

    run.OUT.mkdir(exist_ok=True)
    harness = run.Harness({})
    commands = {}
    for argv in all_commands():
        result = harness.run(argv)
        kind = gate.kind_of(argv)
        ref = {"kind": kind, "sha256": gate.fingerprint(kind, result["stdout"]),
               "bytes": len(result["stdout"])}
        problems = gate.check(ref, result["stdout"], result["returncode"])
        if problems:
            print(f"{gate.key(argv)}: {problems}; {result['stderr']}", file=sys.stderr)
            return 1
        commands[gate.key(argv)] = ref
        print(f"{gate.key(argv)}: {ref['bytes']} bytes in {result['wall_s']:.2f} s", file=sys.stderr)
    doc = {"captured_at": args.label, "not_compared": gate.NOT_COMPARED, "commands": commands}
    run.REFERENCES.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
