"""Benchmark for the oddcycles command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

One benchmark process runs the real ``oddcycles`` command line (``python3 -m
oddcycles`` from the checkout's ``src``) as child processes, one at a time,
and checks every output against references.json.  With ``--trace 0`` it
runs each command back to back on the checkout's program and on the
baseline program (``baseline_program/``, a frozen copy of the package at
the commit the references come from) and reports the end-to-end metrics,
the times as ratios of the two; with ``--trace 1`` it runs untraced
rounds for half of ``--seconds`` (at least one), then one pass in-process
under tracer.py, and reports the per-layer metrics.  The last line of
stdout is the result object; the line before it records the host and
every command's measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import gate
import tracer as tracing
from workloads import SETUP_COMMAND, WORKLOADS, pass_order

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

CURRENT, BASELINE = "current", "baseline"
# PYTHONPATH entry holding each program's oddcycles package
PROGRAMS = {CURRENT: ROOT / "src", BASELINE: HERE / "baseline_program"}

# timed `--version` runs per program before each round and after the last
# one, so the setup medians span the whole run rather than one moment of it
SETUP_SAMPLES = 4
# `oddcycles --version` wall time at the commit of baseline_program/ on the
# 2-vCPU host the benchmark was tuned on; setup_s is the checkout's set-up
# time scaled to the host speed at which the baseline program takes this long
SETUP_REFERENCE_S = 0.14
# a command still running this long after the run started is killed, so a
# hung program fails the run instead of outliving it
RUN_DEADLINE_S = 165


class Harness:
    """Runs oddcycles commands as child processes and checks their output."""

    def __init__(self, refs: dict[str, dict]):
        self.refs = refs
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.envs = {
            program: dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(path), os.environ.get("PYTHONPATH")])))
            for program, path in PROGRAMS.items()
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (reference, stdout) of one correct byte-compared output, for the
        # gate's negative control
        self.control_sample: tuple[dict, bytes] | None = None

    def run(self, argv: list[str], program: str = CURRENT) -> dict:
        """Run one command on one program; returns its timings and raw stdout."""
        with tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "oddcycles", *argv], cwd=ROOT, env=self.envs[program],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            watchdog = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            watchdog.start()
            try:
                stdout = proc.stdout.read()
                # wait4 also reports the CPU and peak RSS of the child's own
                # reaped children (the enumerator's worker pool)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # never leave the child running behind a failed benchmark
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                watchdog.join()
                proc.stdout.close()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return {
            "argv": argv,
            "program": program,
            "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "returncode": proc.returncode,
            "stdout": stdout,
            "stderr": stderr,
        }

    def check(self, result: dict) -> bool:
        """Gate one result; records its problems and drops its stdout."""
        self.attempted += 1
        ref = self.refs.get(gate.key(result["argv"]))
        stdout = result.pop("stdout")
        stderr = result.pop("stderr")
        if ref is None:
            problems = ["no reference"]
        else:
            problems = gate.check(ref, stdout, result["returncode"])
        if problems and stderr:
            problems.append("stderr: " + stderr.strip()[-300:])
        result["ok"] = not problems
        if problems:
            self.failed += 1
            self.problems.extend(f"{gate.key(result['argv'])}: {p}" for p in problems)
        elif self.control_sample is None and ref["kind"] in ("csv", "verify-csv"):
            self.control_sample = (ref, stdout)
        return not problems


def run_round(harness: Harness, commands: list[list[str]], programs: tuple[str, ...],
              flip: int) -> dict[str, list[dict]]:
    """Each command once on each program, back to back.

    With two programs, the one that goes first alternates from command to
    command, and flip shifts the alternation, so that neither program is
    always the one that meets a slower moment of the host.  Outputs are
    checked after the last command exits.
    """
    results: dict[str, list[dict]] = {p: [] for p in programs}
    for i, argv in enumerate(commands):
        for program in programs if (i + flip) % 2 == 0 else programs[::-1]:
            results[program].append(harness.run(argv, program))
    for program in programs:
        for result in results[program]:
            harness.check(result)
    return results


def run_rounds(harness: Harness, commands: list[list[str]], programs: tuple[str, ...],
               budget_s: float, setup_samples: int, flip: int) -> tuple[list[dict], dict[str, list[float]]]:
    """Start rounds until budget_s has passed, at least one.

    Returns the rounds and each program's `--version` wall times, sampled
    in rounds of their own around them.  One untimed `--version` per
    program first lets the interpreter cache its bytecode.
    """
    for program in programs:
        harness.check(harness.run(SETUP_COMMAND, program))
    setup: dict[str, list[float]] = {p: [] for p in programs}

    def sample_setup():
        sampled = run_round(harness, [SETUP_COMMAND] * setup_samples, programs, flip)
        for program, results in sampled.items():
            setup[program] += [r["wall_s"] for r in results]

    start = time.perf_counter()
    rounds: list[dict] = []
    while not rounds or time.perf_counter() - start < budget_s:
        sample_setup()
        rounds.append(run_round(harness, commands, programs, flip + len(rounds)))
    sample_setup()
    return rounds, setup


def pass_total(rounds: list[dict], program: str, key: str) -> float:
    """One pass of a program, from each command's median over the rounds.

    The sum over the workload's commands of the median of `key` (wall_s or
    cpu_s) for that command across rounds.
    """
    count = len(rounds[0][program])
    return sum(statistics.median(r[program][i][key] for r in rounds) for i in range(count))


def negative_control(sample: tuple[dict, bytes] | None, seed: int) -> str | None:
    """Show the gate rejects a one-byte change of a correct output.

    Returns a problem when it does not, or when no output was correct.
    """
    if sample is None:
        return "negative control: no correct byte-compared output to change"
    ref, stdout = sample
    changed = bytearray(stdout)
    pos = seed % len(changed)
    changed[pos] ^= 0x01
    if not gate.check(ref, bytes(changed), 0):
        return f"negative control: a one-byte change at offset {pos} passed the gate"
    return None


def oddcycles_cli():
    """The checkout's oddcycles.cli, imported into this process."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from oddcycles import cli

    return cli


def traced_pass(harness: Harness, commands: list[list[str]], run_id: str) -> tuple[tracing.Tracer, float, int]:
    """One pass in-process through oddcycles.cli.main under the tracer."""
    cli = oddcycles_cli()
    tr = tracing.Tracer(run_id)
    tracing.install(tr)
    stdout_bytes = 0
    try:
        start = time.perf_counter()
        captured = []
        for argv in commands:
            buf, err = io.StringIO(), io.StringIO()
            sid = tr.open("cli.main", "cli")
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    status = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejecting the command line
                status = exc.code
            except Exception:  # a crash is this command's failure, not the run's
                status, err = 1, io.StringIO(traceback.format_exc())
            finally:
                tr.close(sid)
            captured.append((argv, buf.getvalue().encode(), status, err.getvalue()))
        wall = time.perf_counter() - start
    finally:
        tr.unpatch()
    for argv, stdout, status, stderr in captured:
        stdout_bytes += len(stdout)
        harness.check({"argv": argv, "stdout": stdout, "returncode": status, "stderr": stderr})
    return tr, wall, stdout_bytes


def host_record() -> dict:
    cpu_model = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "verify_workers": verify_workers(),
    }


def verify_workers() -> int | None:
    """Pool size the CLI gives `verify` at its defaults, by its own rules.

    The CLI passes RunConfig.worker_count to joint_table, which starts
    min(threads, n - 1) workers for the n - 1 shards of its largest table.
    None once the CLI no longer has those rules.  The traced run observes
    the pool itself (enumerator.pool_workers).
    """
    cli = oddcycles_cli()
    try:
        cfg = cli._build_config(cli.build_parser().parse_args(WORKLOADS["verify-default"]["commands"][0]))
        return min(cfg.worker_count, cfg.max_bruteforce_n - 1)
    except AttributeError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oddcycles" / "cli.py").is_file():
        print(f"error: no oddcycles sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    harness = Harness(gate.load(REFERENCES))
    commands = pass_order(WORKLOADS[args.workload]["commands"], args.seed)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"

    programs = (CURRENT,) if args.trace else (CURRENT, BASELINE)
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds, setup = run_rounds(harness, commands, programs, budget,
                               0 if args.trace else SETUP_SAMPLES, args.seed % 2)
    control = negative_control(harness.control_sample, args.seed)
    if control:
        harness.problems.append(control)
    totals = {program: {key: pass_total(rounds, program, key) for key in ("wall_s", "cpu_s")}
              for program in programs}

    detail = {
        "run": run_id, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_record(), "setup_s": setup, "pass_totals": totals, "rounds": rounds,
    }
    if args.trace:
        if harness.failed:
            # the untraced rounds already failed; tracing would only repeat it
            tr, traced_wall, stdout_bytes = tracing.Tracer(run_id), 0.0, 0
        else:
            tr, traced_wall, stdout_bytes = traced_pass(harness, commands, run_id)
        tr.write(OUT / f"spans-{args.workload}.jsonl.gz")
        layer = tracing.per_layer_metrics(tr, stdout_bytes, traced_wall / totals[CURRENT]["wall_s"])
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
        detail["host"]["pool_workers_observed"] = layer["enumerator.pool_workers"]
        detail["traced_wall_s"] = traced_wall
        detail["spans"] = len(tr.spans)
        detail["not_traced"] = tr.missing
    else:
        current, baseline = totals[CURRENT], totals[BASELINE]
        metrics = {
            "wall_ratio": {"value": current["wall_s"] / baseline["wall_s"], "unit": "ratio"},
            "cpu_ratio": {"value": current["cpu_s"] / baseline["cpu_s"], "unit": "ratio"},
            "peak_rss_mb": {"value": max(c["rss_mb"] for r in rounds for c in r[CURRENT]), "unit": "MB"},
            "setup_s": {"value": SETUP_REFERENCE_S * statistics.median(setup[CURRENT])
                                 / statistics.median(setup[BASELINE]), "unit": "s"},
        }
    detail["problems"] = harness.problems
    detail["error_rate"] = harness.failed / harness.attempted
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not harness.problems,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
