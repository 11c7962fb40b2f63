"""Command line interface: formats, exit codes, determinism."""

import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import oddcycles
from oddcycles import cli, enumerator, recurrences, series, verify
from oddcycles.gentree import joint_poly
from oddcycles.polynomials import BiPoly
from oddcycles.verify import CheckResult
from reference import stats_by_definition


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture
def stubbed(monkeypatch):
    """Every heavy call of the command line replaced by one that costs nothing."""
    monkeypatch.setattr(cli, "_poly_for", lambda kind, n: (BiPoly.one(), "x"))
    monkeypatch.setattr(recurrences, "_eigen_walk", lambda n, forced: (([1], 0) for _ in range(n)))
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
    rows = [(w, *stats_by_definition(w)) for w, _, _ in enumerator.iter_odd_drop_words(n)]
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


def closing_bytes_fit(max_n):
    """Whether every drop pair possible on [max_n] gets a closing byte of
    its own, above every entry and below 256."""
    bound = math.ceil(max_n / 2)
    codes = [cli._closing(oo, eo) for oo in range(bound + 1) for eo in range(bound + 1 - oo)]
    return len(set(codes)) == len(codes) and max_n < min(codes) and max(codes) < 256


class TestStreamedListing:
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_same_bytes_as_the_whole_document(self, capsys, n, fmt):
        status, out, err = run(capsys, "enumerate", "--n", str(n), "--format", fmt)
        assert (status, err) == (0, "")
        assert out == whole_listing(n, fmt)

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_same_bytes_in_small_batches(self, capsys, monkeypatch, batch, fmt):
        # the 576 members at n = 9 are the first listing longer than one
        # batch of 512; these batches split the listing from n = 4 (1),
        # 5 (2) and 7 (7) on, and a batch of 1 holds one member
        monkeypatch.setattr(cli, "_BATCH", batch)
        for n in range(1, 10):
            assert run(capsys, "enumerate", "--n", str(n), "--format", fmt) == (
                0, whole_listing(n, fmt), ""
            ), n

    def test_every_drop_pair_has_its_own_closing_byte(self):
        assert closing_bytes_fit(oddcycles.MAX_N)
        # negative control: at n = 16 the pair (8, 0) would need byte 256
        assert not closing_bytes_fit(16)

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_swapped_closing_text_differs(self, capsys, monkeypatch, fmt):
        # negative control: the closing text prints eo where oo belongs
        first, entry, close = cli._MEMBER_TEXT[fmt]
        swapped = close.replace("{oo}", "{tmp}").replace("{eo}", "{oo}").replace("{tmp}", "{eo}")
        monkeypatch.setitem(cli._MEMBER_TEXT, fmt, (first, entry, swapped))
        assert run(capsys, "enumerate", "--n", "5", "--format", fmt)[1] != whole_listing(5, fmt)

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

    def test_a_check_whose_route_raises_fails_and_the_next_still_runs(self, capsys, monkeypatch):
        from oddcycles import gentree

        def raising(n):
            raise ValueError(f"transfer step {n}: negative coefficient")

        monkeypatch.setattr(gentree, "joint_poly", raising)
        status, out, err = run(capsys, "verify", "--suite", "oracle", "--max-n", "4", "--format", "csv")
        assert (status, err) == (1, "")
        assert out.splitlines()[1:3] == [
            "table-vs-tree,FAIL,ValueError: transfer step 1: negative coefficient",
            "oo-marginal-vs-recurrence,PASS,odd-odd marginal equals recurrence for n=1..4",
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

    def test_undecodable_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe=1\n")
        status, out, err = run(capsys, "enumerate", "--n", "4", "--config", str(cfg))
        assert (status, out) == (2, "")
        assert err.startswith("error: cannot read config file: 'utf-8' codec can't decode byte 0xff")

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


def spawn(*argv, env=None, **popen):
    """The command line in a process of its own, on this package's source,
    with env (default: this process's) as its environment; stdout and stderr
    are pipes unless popen says otherwise."""
    env = os.environ if env is None else env
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "oddcycles", *argv],
        env={**env, "PYTHONPATH": path},
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen},
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

    def test_closed_stdout_is_an_output_error(self):
        # started with stdout closed, as `>&-` does
        proc = spawn(
            "sequence", "--kind", "genocchi", "--limit", "3",
            stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1),
        )
        err = proc.communicate()[1]
        assert (proc.returncode, err) == (74, b"error: cannot write output: stdout is closed\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failed_write_is_an_output_error(self):
        # every write to /dev/full fails with ENOSPC; a listing of several
        # writes stops at the first. Buffered, a short output is still held
        # by stdout when the flush fails, and the flush at exit must not
        # fail with it (PYTHONUNBUFFERED set to "" is off)
        for argv in (("sequence", "--kind", "genocchi", "--limit", "3"), ("enumerate", "--n", "11")):
            for unbuffered in ("", "1"):
                with open("/dev/full", "wb") as full:
                    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
                    proc = spawn(*argv, stdout=full, env=env)
                    err = proc.communicate()[1]
                assert (proc.returncode, err) == (
                    74, b"error: cannot write output: [Errno 28] No space left on device\n"
                ), (argv, unbuffered)

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


# -- the exit contract, over argv lists and config files ---------------------

NO_SHRINK = settings(max_examples=300, derandomize=True, database=None, phases=[Phase.generate])
# values of every size, the caps and one past them included
_VALUES = st.one_of(st.integers(-3, 20), st.sampled_from([160, 161, 400, 401, 2000, 2001, 10**6]))
# the flags each command takes besides the shared ones, with their values
_COMMAND_FLAGS = {
    "enumerate": {"--n": _VALUES},
    "poly": {"--kind": st.sampled_from(cli.POLY_KINDS), "--n": _VALUES},
    "verify": {"--suite": st.sampled_from(("all",) + cli.SUITES)},
    "sequence": {"--kind": st.sampled_from(cli.SEQUENCE_KINDS), "--limit": _VALUES},
    "table": {"--n": _VALUES, "--limit": _VALUES},
}
_SHARED_FLAGS = {"--format": st.sampled_from(cli.FORMATS), "--max-n": _VALUES, "--series-order": _VALUES}
_CONFIG_LINES = st.lists(
    st.tuples(
        st.sampled_from([*cli.CONFIG_KEYS, "threads", ""]),
        st.sampled_from(["=", " = ", ""]),
        st.one_of(_VALUES.map(str), st.sampled_from(cli.FORMATS), st.text(max_size=6)),
    ).map("".join),
    max_size=4,
).map(lambda lines: "\n".join(lines).encode())


@st.composite
def command_lines(draw):
    """(argv, config bytes or None, whether verify's stub fails): an argv
    that argparse accepts, every flag optional, and a config file of
    key=value lines or of any bytes."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for flag, values in {**_COMMAND_FLAGS[command], **_SHARED_FLAGS}.items():
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    config = draw(st.one_of(st.none(), _CONFIG_LINES, st.binary(max_size=12)))
    return argv, config, draw(st.booleans())


def _stub_routes(mp, verify_fails):
    """Every route the command line reaches, replaced by one that costs nothing."""
    mp.setattr(cli, "_poly_for", lambda kind, n: (BiPoly.one(), "x"))
    mp.setattr(recurrences, "_eigen_walk", lambda n, forced: (([1], 0) for _ in range(n)))
    mp.setattr(enumerator, "iter_odd_drop_words", lambda n: iter([(b"\x01", 0, 0)]))
    mp.setattr(enumerator, "joint_table", lambda n: BiPoly.one())
    for count in ("count_even_odd_only", "count_odd_odd_only"):
        mp.setattr(enumerator, count, lambda n: 1)
    for values in ("genocchi_sequence", "genocchi_median_sequence"):
        mp.setattr(series, values, lambda count: [1] * count)
    checks = [CheckResult("stub", not verify_fails, "stubbed", 0.0)]
    mp.setattr(verify, "run_suites", lambda suite, *, max_n, series_order: checks)


def _exit_contract_broken(case) -> str | None:
    """How one command line breaks the exit contract, or None: the exit is
    0, 1 only from a failing check, or 2 with stdout empty and one error:
    line on stderr; nothing escapes main, and the digit limit is restored."""
    argv, config, verify_fails = case
    digits = sys.get_int_max_str_digits()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        _stub_routes(mp, verify_fails)
        if config is not None:
            path = Path(tmp) / "run.cfg"
            path.write_bytes(config)
            argv = [*argv, "--config", str(path)]
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except (Exception, SystemExit) as exc:
            return f"{type(exc).__name__} escaped main: {exc}"
        finally:
            restored = sys.get_int_max_str_digits() == digits
            sys.set_int_max_str_digits(digits)
    out, err = out.getvalue(), err.getvalue()
    if not restored:
        return "digit limit not restored"
    if status == 2:
        if out or not err.startswith("error: ") or err.count("\n") != 1 or not err.endswith("\n"):
            return f"exit 2 with stdout {out[:40]!r} and stderr {err!r}"
        return None
    want = 1 if argv[0] == "verify" and verify_fails else 0
    if status != want or err:
        return f"exit {status}, expected {want}, stderr {err!r}"
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_exit_codes_keep_their_contract(case):
    assert _exit_contract_broken(case) is None


def test_exit_contract_finds_a_reader_that_lets_a_decode_error_escape(monkeypatch):
    # negative control: the config reader as it was before an undecodable
    # file was a usage error, which let UnicodeDecodeError out of main
    reader = cli._read_config_file

    def decode_errors_escape(path):
        Path(path).read_bytes().decode("utf-8")
        return reader(path)

    monkeypatch.setattr(cli, "_read_config_file", decode_errors_escape)
    argv, config, _ = find(
        command_lines(), lambda case: _exit_contract_broken(case) is not None, settings=NO_SHRINK
    )
    with pytest.raises(UnicodeDecodeError):
        config.decode("utf-8")


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
