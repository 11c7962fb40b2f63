"""Command line interface: formats, exit codes, determinism."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from oddcycles import cli, enumerator, recurrences, verify
from oddcycles.cycles import drop_stats
from oddcycles.gentree import joint_poly
from oddcycles.polynomials import BigPoly, BiPoly
from oddcycles.verify import CheckResult


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture
def stubbed(monkeypatch):
    """Every heavy call of the command line replaced by one that costs nothing."""
    monkeypatch.setattr(cli, "_poly_for", lambda kind, n: (BiPoly.one(), "x"))
    monkeypatch.setattr(recurrences, "oo_polys", lambda n: (BigPoly.one() for _ in range(n)))
    monkeypatch.setattr(enumerator, "iter_odd_drop_words", lambda n: iter([(b"\x01", 0, 0)]))
    monkeypatch.setattr(
        verify, "run_suites",
        lambda suite, *, max_n, series_order: [CheckResult("stub", True, "stubbed", 0.0)],
    )


class TestEnumerate:
    def test_human_listing(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--n", "4")
        assert status == 0
        assert out.splitlines() == [
            "1 2 3 4   oo=0 eo=1",
            "1 2 4 3   oo=1 eo=1",
            "total 2",
        ]

    def test_json_listing(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "json")
        doc = json.loads(out)
        assert status == 0
        assert doc["command"] == "enumerate"
        assert doc["results"]["count"] == 2
        assert doc["results"]["cycles"][1] == {"entries": [1, 2, 4, 3], "eo": 1, "oo": 1}

    def test_csv_listing(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "csv")
        assert out.splitlines() == ["n,entries,oo,eo", "3,1 2 3,1,0"]

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_members_are_read_one_at_a_time(self, capsys, monkeypatch, fmt):
        # the first member's record is read before the walk that lists it
        # yields a second one; a listing that collects all 86 400 members at
        # n = 12 first would show 86 400 there.  JSON walks once more, only
        # to count, so the members are counted per walk.
        walks = []
        walk = enumerator.iter_odd_drop_words

        class Seen(Exception):
            pass

        class Record:
            # a member whose entries and statistics are read when unpacked
            def __iter__(self):
                raise Seen(sorted(walks))

        def counted(n):
            k = len(walks)
            walks.append(0)
            for _ in walk(n):
                walks[k] += 1
                yield Record()

        monkeypatch.setattr(enumerator, "iter_odd_drop_words", counted)
        with pytest.raises(Seen) as seen:
            cli.main(["enumerate", "--n", "12", "--format", fmt])
        assert seen.value.args == ([1, 86400] if fmt == "json" else [1],)

    def test_requires_n(self, capsys):
        status, _, err = run(capsys, "enumerate")
        assert status == 2
        assert err.startswith("error:")

    def test_bound_respected(self, capsys):
        status, _, err = run(capsys, "enumerate", "--n", "13")
        assert status == 2
        status, _, _ = run(capsys, "enumerate", "--n", "5", "--max-n", "5")
        assert status == 0


def whole_listing(n, fmt):
    """enumerate's output as one string, built the way the command built it
    before it streamed: one list of members, json.dumps of the document."""
    rows = [(w, *drop_stats(w)) for w, _, _ in enumerator.iter_odd_drop_words(n)]
    if fmt == "json":
        params = {"format": fmt, "max_bruteforce_n": 12, "n": n, "series_order": 40}
        cycles = [{"entries": list(w), "oo": oo, "eo": eo} for w, oo, eo in rows]
        results = {"count": len(cycles), "cycles": cycles}
        doc = {"command": "enumerate", "params": params, "results": results, "checks": []}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["n,entries,oo,eo"]
        body = ([n, " ".join(map(str, w)), oo, eo] for w, oo, eo in rows)
        lines.extend(",".join(str(v) for v in row) for row in body)
    else:
        lines = [f"{' '.join(map(str, w))}   oo={oo} eo={eo}" for w, oo, eo in rows]
        lines.append(f"total {len(rows)}")
    return "\n".join(lines) + "\n"


class TestStreamedListing:
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_same_bytes_as_the_whole_document(self, capsys, n, fmt):
        status, out, err = run(capsys, "enumerate", "--n", str(n), "--format", fmt)
        assert (status, err) == (0, "")
        assert out == whole_listing(n, fmt)

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_swapped_statistics_differ(self, capsys, monkeypatch, fmt):
        # negative control: each member's oo and eo trade places in the output
        want = whole_listing(5, fmt)
        walk = enumerator.iter_odd_drop_words
        monkeypatch.setattr(enumerator, "iter_odd_drop_words", lambda n: ((w, eo, oo) for w, oo, eo in walk(n)))
        assert run(capsys, "enumerate", "--n", "5", "--format", fmt)[1] != want

    def test_json_listing_runs_in_bounded_memory(self):
        # the 14 400 members at n = 11, written to a sink that keeps nothing.
        # A listing that builds the whole document first peaks at about
        # 27 MiB here (171 MiB at n = 12, which tracing makes 8 s long).
        tracemalloc.start()
        try:
            status, chunks = cli.cmd_enumerate(cli.RunConfig(output_format="json"), 11)
            for _ in chunks:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak < 2**20

    def test_digit_limit_stays_lifted_while_writing(self, capsys, monkeypatch):
        # a chunk that turns a 5001-digit integer into text as it is written
        big = 10**5000
        monkeypatch.setattr(cli, "cmd_poly", lambda cfg, kind, n: (0, (str(v) for v in [big])))
        status, out, err = run(capsys, "poly", "--kind", "f", "--n", "3")
        assert (status, err) == (0, "")
        assert out == "1" + "0" * 5000 + "\n"


# one bad command line per subcommand, each refused before any output
USAGE_ERRORS = [
    ["enumerate"],
    ["enumerate", "--n", "13"],
    ["enumerate", "--n", "4", "--format", "json", "--max-n", "3"],
    ["poly", "--kind", "f"],
    ["poly", "--kind", "joint", "--n", "401", "--format", "csv"],
    ["verify", "--series-order", "3"],
    ["sequence", "--kind", "genocchi"],
    ["sequence", "--kind", "median", "--limit", "41", "--format", "json"],
    ["sequence", "--kind", "odd_odd_only", "--limit", "6"],
    ["table", "--n", "3", "--limit", "3"],
    ["table", "--limit", "0", "--format", "json"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_is_reported_before_any_output(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("error: ")


class TestPoly:
    def test_human_f(self, capsys):
        status, out, _ = run(capsys, "poly", "--kind", "f", "--n", "6")
        assert status == 0
        assert out.strip() == "3 + 8*x + x^2"

    def test_human_joint(self, capsys):
        _, out, _ = run(capsys, "poly", "--kind", "joint", "--n", "5")
        assert out.strip() == "x + 2*x*y + x^2"

    def test_csv_terms(self, capsys):
        _, out, _ = run(capsys, "poly", "--kind", "g", "--n", "5", "--format", "csv")
        assert out.splitlines() == [
            "x_degree,y_degree,coefficient",
            "0,0,2",
            "0,1,2",
        ]

    def test_json_round_trips_through_parser(self, capsys):
        _, out, _ = run(capsys, "poly", "--kind", "joint", "--n", "7", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["polynomial"] == joint_poly(7).format(explicit_units=True)

    def test_rejects_bad_input(self, capsys):
        assert run(capsys, "poly", "--kind", "f")[0] == 2
        assert run(capsys, "poly", "--kind", "f", "--n", "0")[0] == 2


class TestSequence:
    def test_genocchi_rows(self, capsys):
        _, out, _ = run(capsys, "sequence", "--kind", "genocchi", "--limit", "8", "--format", "csv")
        assert out.splitlines() == [
            "n,value",
            "1,1",
            "2,1",
            "3,3",
            "4,17",
            "5,155",
            "6,2073",
            "7,38227",
            "8,929569",
        ]

    def test_median_rows(self, capsys):
        _, out, _ = run(capsys, "sequence", "--kind", "median", "--limit", "5", "--format", "csv")
        assert out.splitlines() == ["n,value", "0,1", "1,2", "2,8", "3,56", "4,608"]

    def test_human_has_source_comment(self, capsys):
        _, out, _ = run(capsys, "sequence", "--kind", "cno_count", "--limit", "6")
        lines = out.splitlines()
        assert lines[0] == "# source: recurrence"
        assert lines[1:] == ["1\t1", "2\t1", "3\t1", "4\t2", "5\t4", "6\t12"]

    def test_enumerated_kinds(self, capsys):
        _, out, _ = run(capsys, "sequence", "--kind", "odd_odd_only", "--limit", "4", "--format", "csv")
        assert out.splitlines() == ["n,value", "3,1", "5,2", "7,8", "9,56"]
        _, out, _ = run(capsys, "sequence", "--kind", "even_odd_only", "--limit", "4", "--format", "csv")
        assert out.splitlines() == ["n,value", "2,1", "4,1", "6,3", "8,17"]

    def test_limits_enforced(self, capsys):
        # enumeration kinds stop at the brute-force ceiling
        assert run(capsys, "sequence", "--kind", "even_odd_only", "--limit", "7")[0] == 2
        # odd-odd-only lengths are odd: limit 5 reaches 11, limit 6 would need 13
        assert run(capsys, "sequence", "--kind", "odd_odd_only", "--limit", "5")[0] == 0
        status, _, err = run(capsys, "sequence", "--kind", "odd_odd_only", "--limit", "6")
        assert status == 2
        assert "needs enumeration at 13" in err
        # generating-function kinds stop at the series order
        assert run(capsys, "sequence", "--kind", "genocchi", "--limit", "41")[0] == 2
        assert run(capsys, "sequence", "--kind", "genocchi", "--limit", "0")[0] == 2


class TestTable:
    def test_csv_rows(self, capsys):
        _, out, _ = run(capsys, "table", "--n", "5", "--format", "csv")
        assert out.splitlines() == ["n,oo,eo,count", "5,1,0,1", "5,1,1,2", "5,2,0,1"]

    def test_limit_walks_all_lengths(self, capsys):
        _, out, _ = run(capsys, "table", "--limit", "3", "--format", "csv")
        assert out.splitlines() == ["n,oo,eo,count", "1,0,0,1", "2,0,1,1", "3,1,0,1"]

    def test_exactly_one_selector(self, capsys):
        assert run(capsys, "table")[0] == 2
        assert run(capsys, "table", "--n", "3", "--limit", "3")[0] == 2

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_must_be_positive(self, capsys, limit):
        status, out, err = run(capsys, "table", "--limit", limit)
        assert status == 2
        assert out == ""
        assert f"limit must be positive, got {limit}" in err

    def test_json_independent_of_core_count(self, capsys, monkeypatch):
        outputs = []
        for cores in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            outputs.append(run(capsys, "table", "--n", "5", "--format", "json")[1])
        assert outputs[0] == outputs[1]


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, capsys):
        status, out, _ = run(
            capsys, "verify", "--suite", "identities", "--series-order", "12", "--format", "json"
        )
        doc = json.loads(out)
        assert status == 0
        assert doc["results"]["failed"] == 0
        names = {c["name"] for c in doc["checks"]}
        assert "identity-squares-telescopes" in names
        assert "summand-recurrence-eo_odd" in names
        assert all(c["status"] == "PASS" for c in doc["checks"])

    def test_json_is_byte_deterministic(self, capsys):
        args = ("verify", "--suite", "identities", "--series-order", "12", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_round_trip_is_identity(self, capsys):
        _, out, _ = run(
            capsys, "verify", "--suite", "identities", "--series-order", "12", "--format", "json"
        )
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out

    def test_human_report_has_summary_and_timing(self, capsys):
        status, out, _ = run(capsys, "verify", "--suite", "identities", "--series-order", "12")
        lines = out.splitlines()
        assert status == 0
        assert lines[-1].endswith("checks passed")
        assert all("s  " in line for line in lines[:-1])

    @pytest.mark.parametrize(
        "max_n, even_lengths, odd_lengths",
        [("1", "2..0", "3..1"), ("2", "2..2", "3..1")],
    )
    def test_genocchi_suite_reports_empty_enumeration_ranges(
        self, capsys, max_n, even_lengths, odd_lengths
    ):
        status, out, _ = run(
            capsys, "verify", "--suite", "genocchi", "--max-n", max_n,
            "--series-order", "5", "--format", "csv",
        )
        # an empty range compares nothing, so its check reports SKIP
        even_status, odd_status = {"1": ("SKIP", "SKIP"), "2": ("PASS", "SKIP")}[max_n]
        assert status == 0
        assert out.splitlines()[-2:] == [
            f"genocchi-vs-enumeration,{even_status},enumeration confirms Genocchi for lengths {even_lengths}",
            f"median-vs-enumeration,{odd_status},enumeration confirms medians for lengths {odd_lengths}",
        ]

    def test_oracle_suite_at_the_smallest_ceiling(self, capsys):
        status, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "1", "--format", "csv")
        assert status == 0
        assert out.splitlines() == [
            "name,status,detail",
            "table-vs-tree,PASS,joint table equals tree polynomial for n=1..1",
            "oo-marginal-vs-recurrence,PASS,odd-odd marginal equals recurrence for n=1..1",
            "eo-marginal-vs-recurrence,PASS,even-odd marginal equals recurrence for n=1..1",
            "counts-all-routes,PASS,cycle counts agree on all four routes for n=1..1",
            "tree-partition,SKIP,children partition the next level for n=1..0",
        ]

    def test_skipped_check_is_counted_apart(self, capsys):
        status, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "1")
        lines = out.splitlines()
        assert status == 0
        assert lines[-2].startswith("SKIP tree-partition ")
        assert lines[-1] == "4/5 checks passed, 1 skipped"
        status, out, _ = run(
            capsys, "verify", "--suite", "oracle", "--max-n", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert status == 0
        assert doc["results"] == {"failed": 0, "passed": 4}
        assert [c["status"] for c in doc["checks"]] == ["PASS"] * 4 + ["SKIP"]

    @pytest.mark.parametrize(
        "stat, name, diff", [("oo", "oo_poly", "3 != 0"), ("eo", "eo_poly", "0 != 2")]
    )
    def test_oracle_suite_checks_the_printed_marginal(self, capsys, monkeypatch, stat, name, diff):
        # poly --kind f|g prints oo_poly/eo_poly; one that returns the
        # polynomial a length short must fail its marginal check
        short = getattr(recurrences, name)
        monkeypatch.setattr(recurrences, name, lambda n: short(n - 1))
        status, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "6", "--format", "csv")
        assert status == 1
        failed = [line for line in out.splitlines() if ",FAIL," in line]
        assert failed == [f"{stat}-marginal-vs-recurrence,FAIL,n=6: degree 0: {diff}"]

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        def fake(suite, *, max_n, series_order):
            return [CheckResult("broken", False, "synthetic failure", 0.0)]

        monkeypatch.setattr(verify, "run_suites", fake)
        status, out, _ = run(capsys, "verify", "--suite", "all", "--format", "csv")
        assert status == 1
        assert "broken,FAIL,synthetic failure" in out


class TestConfig:
    def test_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_bruteforce_n = 8  # low ceiling\nformat = csv\n")
        status, out, _ = run(capsys, "enumerate", "--n", "5", "--config", str(cfg))
        assert status == 0
        assert out.splitlines()[0] == "n,entries,oo,eo"
        # the lowered ceiling applies
        assert run(capsys, "enumerate", "--n", "9", "--config", str(cfg))[0] == 2

    def test_flags_win_over_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_bruteforce_n = 8\n")
        status, _, _ = run(capsys, "enumerate", "--n", "9", "--config", str(cfg), "--max-n", "10")
        assert status == 0

    @pytest.mark.parametrize(
        "content",
        ["mystery = 4\n", "max_bruteforce_n\n", "max_bruteforce_n = quick\n", "threads = -2\n"],
    )
    def test_bad_config_rejected(self, capsys, tmp_path, content):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(content)
        assert run(capsys, "enumerate", "--n", "4", "--config", str(cfg))[0] == 2

    def test_missing_config_rejected(self, capsys, tmp_path):
        assert run(capsys, "enumerate", "--n", "4", "--config", str(tmp_path / "nope"))[0] == 2

    def test_series_order_floor(self, capsys):
        # the identities suite needs order 4; the order is not read against --max-n
        status, out, err = run(capsys, "verify", "--suite", "identities", "--series-order", "3")
        assert (status, out) == (2, "")
        assert err == "error: series_order must be at least 4, got 3\n"
        status, out, _ = run(
            capsys, "sequence", "--kind", "genocchi", "--limit", "3", "--series-order", "4",
            "--format", "csv",
        )
        assert status == 0
        assert out.splitlines() == ["n,value", "1,1", "2,1", "3,3"]


# each capped input: its command line without the value, its name in the
# message, and its cap
LIMITS = [
    pytest.param(["poly", "--kind", "joint", "--n"], "n", 400, id="poly-joint"),
    pytest.param(["poly", "--kind", "f", "--n"], "n", 2000, id="poly-f"),
    pytest.param(["poly", "--kind", "g", "--n"], "n", 2000, id="poly-g"),
    pytest.param(["sequence", "--kind", "cno_count", "--limit"], "limit", 2000, id="cno-count"),
    pytest.param(["verify", "--series-order"], "series_order", 160, id="series-order"),
    pytest.param(["verify", "--max-n"], "max_bruteforce_n", 14, id="max-n"),
]


class TestLimits:
    @pytest.mark.parametrize("argv, name, cap", LIMITS)
    def test_cap_is_accepted(self, capsys, stubbed, argv, name, cap):
        assert run(capsys, *argv, str(cap))[0] == 0

    @pytest.mark.parametrize("argv, name, cap", LIMITS)
    def test_beyond_cap_exits_two(self, capsys, stubbed, argv, name, cap):
        status, out, err = run(capsys, *argv, str(cap + 1))
        assert (status, out) == (2, "")
        assert err == f"error: {name} must be at most {cap}, got {cap + 1}\n"

    def test_config_file_is_checked_alike(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("series_order = 161\n")
        status, _, err = run(capsys, "table", "--n", "3", "--config", str(cfg))
        assert status == 2
        assert err == "error: series_order must be at most 160, got 161\n"

    @pytest.mark.parametrize("command", ["enumerate", "table"])
    def test_enumeration_stops_at_max_n(self, capsys, command):
        status, _, err = run(capsys, command, "--n", "6", "--max-n", "5")
        assert status == 2
        assert err == "error: n must be in 1..5, got 6\n"

    def test_huge_table_limit_is_refused_before_listing(self, capsys):
        # the limit is checked before any list of lengths is built
        status, out, err = run(capsys, "table", "--limit", "1000000000000")
        assert (status, out) == (2, "")
        assert err == "error: n must be in 1..12, got 1000000000000\n"


SRC = Path(cli.__file__).resolve().parents[1]


def spawn(*argv):
    """The command line in a process of its own, on this package's source."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "oddcycles", *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


class TestOutput:
    def test_reader_leaving_early_is_no_error(self):
        # 446 KB of csv, more than a pipe holds; the reader takes the header
        # and closes the pipe, as `| head -1` does
        proc = spawn("enumerate", "--n", "11", "--format", "csv")
        assert proc.stdout.readline() == b"n,entries,oo,eo\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (0, b"")

    def test_reader_leaving_a_streamed_listing_is_no_error(self):
        # the JSON listing is written member by member; the reader closes
        # the pipe after the first line, while members are still coming
        proc = spawn("enumerate", "--n", "11", "--format", "json")
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (0, b"")

    def test_values_past_the_digit_limit_print(self):
        # the count on [1720] is 859!*860!, longer than the 4300 digits that
        # int-to-str converts by default
        proc = spawn("sequence", "--kind", "cno_count", "--limit", "1720", "--format", "csv")
        out, err = proc.communicate()
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = f"1720,{math.factorial(859) * math.factorial(860)}"
        finally:
            sys.set_int_max_str_digits(digits)
        assert err == b""
        assert out.decode().splitlines()[-1] == want

    def test_config_file_is_read_under_the_digit_limit(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"series_order = {'9' * 5000}\n")
        status, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (status, out) == (2, "")
        assert err.startswith("error: non-integer config value: Exceeds the limit")

    def test_digit_limit_is_restored(self, capsys):
        digits = sys.get_int_max_str_digits()
        assert run(capsys, "sequence", "--kind", "genocchi", "--limit", "3")[0] == 0
        assert sys.get_int_max_str_digits() == digits


BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_module(name):
    """A module of the benchmark, loaded from its file; it is only read."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _benchmark_module("workloads")
gate = _benchmark_module("gate")


@pytest.mark.parametrize("argv", workloads.all_commands(), ids=" ".join)
def test_benchmark_commands_are_within_the_limits(capsys, stubbed, argv):
    # a limit that refused a benchmark command would turn it into a failure
    try:
        status = cli.main(list(argv))
    except SystemExit as exc:  # --version
        status = exc.code
    assert status != 2, capsys.readouterr().err


SYMBOLIC_VERIFY = [
    argv for argv in workloads.WORKLOADS["symbolic-deep"]["commands"] if argv[0] == "verify"
]
# the symbolic verify commands and the joint transfer walk at its benchmark size
GATED = [*SYMBOLIC_VERIFY, ["poly", "--kind", "joint", "--n", "300", "--format", "csv"]]


class TestBenchmarkReferences:
    """The benchmark's symbolic verify commands and its joint polynomial,
    run in this process, give the outputs its stored references fingerprint."""

    @staticmethod
    def output(capsys, argv):
        ref = gate.load(BENCHMARK / "references.json")[gate.key(argv)]
        status = cli.main(list(argv))
        return ref, capsys.readouterr().out.encode(), status

    @pytest.mark.parametrize("argv", GATED, ids=" ".join)
    def test_output_matches_reference(self, capsys, argv):
        assert gate.check(*self.output(capsys, argv)) == []

    @pytest.mark.parametrize("argv", GATED, ids=" ".join)
    def test_one_changed_byte_fails(self, capsys, argv):
        # negative control: flip the last byte of the first line (the verify
        # table's first check detail, the CSV header)
        ref, out, status = self.output(capsys, argv)
        changed = bytearray(out)
        changed[out.index(b"\n") - 1] ^= 0x01
        assert gate.check(ref, bytes(changed), status) == [
            f"{ref['kind']} output differs from the reference"
        ]


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "oddcycles" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", "--n", "4", "--format", "xml"])
        assert exc.value.code == 2
