"""Per-layer benchmark: fixed-size cases of one layer, before and after a change.

Times each case of a layer on two copies of the package and writes the
medians, and the median of each repeat's after/before ratio, to
BENCH_<layer>.json at the root of the repository.  Each case runs
in its own child process with the copy's ``src`` directory on PYTHONPATH;
the child times only the case, in process time, after the package is
imported, and writes the case's output to a sink that keeps nothing.  Its
peak resident size is the child's own high-water mark, ``VmHWM`` in
``/proc/self/status`` (Linux); ``ru_maxrss`` would start at the parent's
peak, which a child carries over.  The two copies alternate which runs
first from repeat to repeat, so a drift in host speed hits both alike.

    python3 tools/bench.py --layer series ../before/src src

Layers: recurrences (oo_poly / eo_poly), series (the closed-form builds),
gentree (the joint transfer steps), cli (the enumerate listing through its
emitters), verify (whole suite runs, as the verify command makes them, and
the oracle suite alone) and enumerator (the listing walk and the joint
tables).  A case that needs a function the copy's package lacks (the
closed-form builds need ``series.closed_form_in_u``) is recorded as null;
any other error fails the run.  Standard library only; the package
does not import it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import NamedTuple

REPEATS = 9
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

#: the names a case's code reads, each a module of the package
MODULES = {
    "E": "enumerator",
    "G": "gentree",
    "R": "recurrences",
    "S": "series",
    "V": "verify",
    "cli": "cli",
}


class Case(NamedTuple):
    code: str  # run in the child, with the names of MODULES bound
    needs: tuple[str, ...] = ()  # "module.function" beyond what every copy has


LAYERS = {
    "recurrences": {
        "oo_poly(1500)": Case("R.oo_poly(1500)"),
        "eo_poly(1500)": Case("R.eo_poly(1500)"),
        "marginals n=1..160, one n at a time": Case(
            "[(R.oo_poly(n), R.eo_poly(n)) for n in range(1, 161)]"
        ),
        "marginals n=1..160, one walk": Case("list(R._eigen_walk(160, 1)), list(R._eigen_walk(160, 0))"),
        "sequence --kind cno_count --limit 400": Case(
            "cli.main(['sequence', '--kind', 'cno_count', '--limit', '400', '--format', 'csv'])"
        ),
    },
    "series": {
        "closed_form_in_u('oo_even', 81)": Case(
            "S.closed_form_in_u('oo_even', 81)", ("series.closed_form_in_u",)
        ),
        "closed_form_in_u('oo_even', 161)": Case(
            "S.closed_form_in_u('oo_even', 161)", ("series.closed_form_in_u",)
        ),
        "genocchi_sequence(160)": Case("S.genocchi_sequence(160)"),
    },
    "gentree": {
        "joint_poly(300)": Case("G.joint_poly(300)"),
        "joint_poly(400)": Case("G.joint_poly(400)"),
    },
    "verify": {
        "run_suites('all', max_n=12, series_order=40)": Case(
            "V.run_suites('all', max_n=12, series_order=40)"
        ),
        "run_suites('identities', max_n=12, series_order=60)": Case(
            "V.run_suites('identities', max_n=12, series_order=60)"
        ),
        "run_suites('all', max_n=8, series_order=160)": Case(
            "V.run_suites('all', max_n=8, series_order=160)"
        ),
        "run_suites('series', max_n=8, series_order=160)": Case(
            "V.run_suites('series', max_n=8, series_order=160)"
        ),
        "run_suites('pde', max_n=8, series_order=160)": Case(
            "V.run_suites('pde', max_n=8, series_order=160)"
        ),
        "suite_oracle(12)": Case("V.suite_oracle(12)"),
        "suite_oracle(13)": Case("V.suite_oracle(13)"),
    },
    "enumerator": {
        "iter_odd_drop_words(12), drained": Case("for _ in E.iter_odd_drop_words(12):\n    pass"),
        "joint_table(12)": Case("E.joint_table(12)"),
        "joint_table(n), n=1..12": Case("[E.joint_table(n) for n in range(1, 13)]"),
        "joint_table(14)": Case("E.joint_table(14)"),
    },
    "cli": {
        "enumerate --n 11 --format json": Case(
            "cli.main(['enumerate', '--n', '11', '--format', 'json'])"
        ),
        "enumerate --n 11 --format csv": Case(
            "cli.main(['enumerate', '--n', '11', '--format', 'csv'])"
        ),
        "enumerate --n 13 --max-n 13 --format csv": Case(
            "cli.main(['enumerate', '--n', '13', '--max-n', '13', '--format', 'csv'])"
        ),
        "enumerate --n 13 --max-n 13 --format json": Case(
            "cli.main(['enumerate', '--n', '13', '--max-n', '13', '--format', 'json'])"
        ),
    },
}

CHILD = """
import contextlib, importlib, io, json, sys, time
from oddcycles import cli
from oddcycles import enumerator as E
from oddcycles import gentree as G
from oddcycles import recurrences as R
from oddcycles import series as S
from oddcycles import verify as V

def has(need):
    module, _, name = need.rpartition(".")
    return hasattr(importlib.import_module("oddcycles." + module), name)

if not all(has(need) for need in sys.argv[2:]):
    print(json.dumps(None))
    raise SystemExit

class Sink(io.TextIOBase):
    def write(self, text):
        return len(text)

with contextlib.redirect_stdout(Sink()):
    start = time.process_time()
    exec(sys.argv[1])
    seconds = time.process_time() - start
with open("/proc/self/status") as fh:
    rss_mb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
print(json.dumps({"seconds": seconds, "max_rss_mb": rss_mb}))
"""


def run_case(src: str, case: Case) -> dict | None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-c", CHILD, case.code, *case.needs]
    out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def summarize(samples: list[dict | None]) -> dict | None:
    if any(s is None for s in samples):
        return None
    seconds = sorted(s["seconds"] for s in samples)
    return {
        "median_s": round(statistics.median(seconds), 4),
        "min_s": round(seconds[0], 4),
        "max_s": round(seconds[-1], 4),
        "max_rss_mb": round(max(s["max_rss_mb"] for s in samples), 1),
    }


def paired_ratio(before: list[dict | None], after: list[dict | None]) -> float | None:
    """Median over repeats of one repeat's after/before time.

    The two runs of a repeat ran side by side, so a drift in host speed
    between repeats cancels in their ratio, as it does not in the ratio of
    the two medians.
    """
    if any(s is None for s in before + after):
        return None
    return round(statistics.median(a["seconds"] / b["seconds"] for b, a in zip(before, after)), 3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layer", choices=sorted(LAYERS), required=True)
    parser.add_argument("before", help="src directory of the package before the change")
    parser.add_argument("after", help="src directory of the package after the change")
    args = parser.parse_args(argv)
    cases = LAYERS[args.layer]
    sides = [("before", args.before), ("after", args.after)]

    samples = {label: {name: [] for name in cases} for label, _ in sides}
    for rep in range(REPEATS):
        for name, case in cases.items():
            for label, src in sides if rep % 2 == 0 else sides[::-1]:
                samples[label][name].append(run_case(src, case))
        print(f"repeat {rep + 1}/{REPEATS} done", file=sys.stderr)

    record = {
        "layer": args.layer,
        "metric": "process time of the case alone, median over repeats, seconds; "
        "after_over_before is the median over repeats of each repeat's after/before ratio",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "repeats": REPEATS,
        "cases": {
            name: {
                **{label: summarize(samples[label][name]) for label, _ in sides},
                "after_over_before": paired_ratio(samples["before"][name], samples["after"][name]),
            }
            for name in cases
        },
    }
    with open(os.path.join(ROOT, f"BENCH_{args.layer}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record["cases"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
