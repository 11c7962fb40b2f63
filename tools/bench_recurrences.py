"""Per-layer benchmark of the marginal recurrences (oo_poly / eo_poly).

Times fixed-size cases on two copies of the package, before and after a
change, and writes the medians to BENCH_recurrences.json at the root of the
repository.  Each case runs in its own child process with the copy's ``src``
directory on PYTHONPATH; the child times only the case, in process time,
after the package is imported.  The two copies alternate which runs first
from repeat to repeat, so a drift in host speed hits both alike.

    python3 tools/bench_recurrences.py ../before/src src

A case that needs a function the copy's package lacks (the one-walk case
needs ``oo_polys``/``eo_polys``) is recorded as null; any other error fails
the run.  Standard library only; neither the package nor its tests import it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

REPEATS = 5
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_recurrences.json")

# name -> code run in the child; `R` is oddcycles.recurrences
CASES = {
    "oo_poly(1500)": "R.oo_poly(1500)",
    "eo_poly(1500)": "R.eo_poly(1500)",
    "marginals n=1..160, one n at a time": (
        "[(R.oo_poly(n), R.eo_poly(n)) for n in range(1, 161)]"
    ),
    "marginals n=1..160, one walk": "list(R.oo_polys(160)), list(R.eo_polys(160))",
    "sequence --kind cno_count --limit 400": (
        "cli.main(['sequence', '--kind', 'cno_count', '--limit', '400', '--format', 'csv'])"
    ),
}

# name -> the functions of `R` a case needs beyond those every copy has
NEEDS = {"marginals n=1..160, one walk": ("oo_polys", "eo_polys")}

CHILD = """
import contextlib, io, json, resource, sys, time
from oddcycles import cli
from oddcycles import recurrences as R
if not all(hasattr(R, name) for name in sys.argv[2:]):
    print(json.dumps(None))
    raise SystemExit
with contextlib.redirect_stdout(io.StringIO()):
    start = time.process_time()
    exec(sys.argv[1])
    seconds = time.process_time() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "max_rss_mb": rss_mb}))
"""


def run_case(src: str, name: str) -> dict | None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-c", CHILD, CASES[name], *NEEDS.get(name, ())]
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="src directory of the package before the change")
    parser.add_argument("after", help="src directory of the package after the change")
    args = parser.parse_args(argv)
    sides = [("before", args.before), ("after", args.after)]

    samples = {label: {name: [] for name in CASES} for label, _ in sides}
    for rep in range(REPEATS):
        for name in CASES:
            for label, src in sides if rep % 2 == 0 else sides[::-1]:
                samples[label][name].append(run_case(src, name))
        print(f"repeat {rep + 1}/{REPEATS} done", file=sys.stderr)

    record = {
        "layer": "recurrences",
        "metric": "process time of the case alone, median over repeats, seconds",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "repeats": REPEATS,
        "cases": {
            name: {label: summarize(samples[label][name]) for label, _ in sides}
            for name in CASES
        },
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record["cases"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
