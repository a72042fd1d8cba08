"""Exit-code and payload contracts for the perf-oriented CLI surface:
``repro spans``, ``repro compare`` (the CI perf gate), ``repro
trace-validate``, and ``repro bench --history``."""

import json

from repro.cli import main
from repro.obs import (
    RunTrace,
    append_history,
    history_record,
    read_history,
    validate_span_tree_payload,
)


class _Result:
    def __init__(self, name, seconds, ok=True):
        self.name = name
        self.wall_time_seconds = seconds
        self.ok = ok


def _write_history(path, series):
    """series: list of {kernel: seconds} dicts, appended in order."""
    for i, entries in enumerate(series):
        record = history_record(
            [_Result(name, seconds) for name, seconds in entries.items()],
            quick=True,
            git_sha="deadbeef",
            ts=float(i),
        )
        append_history(record, path)


class TestSpansCommand:
    def test_quick_json_payload(self, capsys):
        assert main(["spans", "--bench", "exhaustive", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["bench"] == "exhaustive"
        assert payload["quick"] is True
        assert payload["ok"] is True
        assert payload["span_count"] >= 3
        assert validate_span_tree_payload(payload["tree"]) == []
        names = [root["name"] for root in payload["tree"]["roots"]]
        assert "exhaustive.search" in names

    def test_text_output_and_out_file(self, tmp_path, capsys):
        out = str(tmp_path / "spans.json")
        code = main(["spans", "--bench", "exhaustive", "--quick", "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "exhaustive.search" in text
        assert "exhaustive.enumerate" in text  # tree and hotspots both render
        assert "parallel.shard" in text  # one enumerate span per shard
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate_span_tree_payload(payload) == []

    def test_max_depth_truncates_tree(self, capsys):
        assert main(["spans", "--bench", "exhaustive", "--quick",
                     "--max-depth", "0", "--top", "1"]) == 0
        text = capsys.readouterr().out
        # depth-0 tree shows only the root span; children are hidden
        tree_section = text.split("hotspot")[0]
        assert "exhaustive.search" in tree_section
        assert "precompute_pairs" not in tree_section

    def test_unknown_bench_exits_two(self, capsys):
        assert main(["spans", "--bench", "nope", "--quick"]) == 2
        assert "nope" in capsys.readouterr().err


class TestCompareGate:
    def test_identical_history_exits_zero_even_with_gate(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        _write_history(path, [{"kernel": 0.01}] * 6)
        assert main(["compare", "--history", path, "--fail-on-regress"]) == 0
        captured = capsys.readouterr()
        assert "ok" in captured.out
        assert "REGRESSED" not in captured.err

    def test_synthetic_2x_slowdown_fails_gate(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        _write_history(path, [{"kernel": 0.01}] * 5 + [{"kernel": 0.02}])
        assert main(["compare", "--history", path, "--fail-on-regress"]) == 1
        assert "REGRESSED: kernel" in capsys.readouterr().err

    def test_slowdown_without_gate_warns_but_exits_zero(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        _write_history(path, [{"kernel": 0.01}] * 5 + [{"kernel": 0.02}])
        assert main(["compare", "--history", path]) == 0
        assert "REGRESSED: kernel" in capsys.readouterr().err

    def test_missing_history_file_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "absent.jsonl")
        assert main(["compare", "--history", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_history_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["compare", "--history", str(path)]) == 2
        assert "no records" in capsys.readouterr().err

    def test_dashboard_written(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        dash = str(tmp_path / "PERF.md")
        _write_history(path, [{"kernel": 0.01}] * 5)
        assert main(["compare", "--history", path, "--dashboard", dash]) == 0
        with open(dash, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert "| kernel |" in text
        assert "deadbeef"[:12] in text
        assert "dashboard: wrote" in capsys.readouterr().out

    def test_baseline_file_comparison(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        _write_history(path, [{"kernel": 0.02}])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"kernel": 0.01}))
        code = main(["compare", "--history", path,
                     "--baseline", str(baseline), "--fail-on-regress"])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().err

    def test_json_mode_emits_rows(self, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        _write_history(path, [{"kernel": 0.01}] * 4)
        assert main(["compare", "--history", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["headers"][0] == "kernel"
        assert payload["rows"][0][0] == "kernel"
        assert payload["rows"][0][-1] == "ok"


class TestTraceValidateCommand:
    def test_valid_trace_with_stats(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path, run_id="r1") as trace:
            trace.emit("round", t=1)
            trace.emit("round", t=2)
        assert main(["trace-validate", path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "r1" in out
        assert "round=2" in out

    def test_invalid_trace_exits_one(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"run_id": "old", "seq": 0, "ts": 1.0, "event": "trace_start",'
            ' "schema_version": 1}\n'
            '{"run_id": "old", "seq": 1, "ts": 1.1, "event": "span_start",'
            ' "span_id": 0, "parent_id": null, "name": "x"}\n'
        )
        assert main(["trace-validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "problem(s)" in captured.out
        assert "INVALID" in captured.err

    def test_schema_version_filter_flag(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"run_id": "old", "seq": 0, "ts": 1.0, "event": "trace_start",'
            ' "schema_version": 1}\n'
            '{"run_id": "old", "seq": 1, "ts": 1.1, "event": "round", "t": 1}\n'
        )
        assert main(["trace-validate", str(path), "--schema-version", "1"]) == 0
        assert "2 events, 1 run(s), valid" in capsys.readouterr().out
        assert main(["trace-validate", str(path), "--schema-version", "3",
                     "--json"]) == 1  # no v3 runs -> empty trace is a problem
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["events"] == 0

    def test_json_shape(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path) as trace:
            trace.emit("round", t=1)
        assert main(["trace-validate", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["problems"] == []
        assert payload["runs"] == 1
        assert payload["events"] == 2


class TestBenchHistoryFlag:
    def test_bench_appends_history_record(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        hist = str(tmp_path / "hist.jsonl")
        code = main(["bench", "--quick", "--only", "simulator", "crossing",
                     "--out-dir", out, "--history", hist])
        assert code == 0
        assert "history: appended 2 entries" in capsys.readouterr().out
        records = read_history(hist)
        assert len(records) == 1
        assert set(records[0]["entries"]) == {"simulator", "crossing"}
        assert records[0]["quick"] is True

    def test_bench_without_flag_writes_no_history(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["bench", "--quick", "--only", "crossing",
                     "--out-dir", out]) == 0
        assert "history:" not in capsys.readouterr().out
        assert not (tmp_path / "BENCH_HISTORY.jsonl").exists()

    def test_bench_table_has_percentile_columns(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["bench", "--quick", "--only", "simulator", "--json",
                     "--out-dir", out]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert "round p50 ms" in payload["headers"]
        assert "round p99 ms" in payload["headers"]
        row = payload["rows"][0]
        p50 = row[payload["headers"].index("round p50 ms")]
        p99 = row[payload["headers"].index("round p99 ms")]
        assert isinstance(p50, float) and isinstance(p99, float)
        assert p99 >= p50 >= 0.0


class TestReportPerPhase:
    def test_two_party_simulate_decision_breakdown(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(
            ["bench", "--quick", "--out-dir", out, "--only", "kt1_simulation"]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--dir", out, "--per-phase"]) == 0
        stdout = capsys.readouterr().out
        assert "per-phase communication cost" in stdout
        assert "simulate" in stdout
        assert "decision" in stdout

    def test_fallback_note_without_ledgers(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "name": "synthetic",
            "description": "d",
            "quick": True,
            "created_unix": 0,
            "params": {},
            "wall_time_seconds": 0.1,
            "measured": {},
            "predicted": {},
            "ok": True,
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }
        (tmp_path / "BENCH_synthetic.json").write_text(json.dumps(payload))
        assert main(["report", "--dir", str(tmp_path), "--per-phase"]) == 0
        assert "per-phase: no payload carries" in capsys.readouterr().out


class TestFaultSweepLive:
    def test_live_streams_one_line_per_cell(self, tmp_path, capsys):
        assert main(
            [
                "fault-sweep",
                "--n", "6",
                "--trials", "2",
                "--rates", "0.0", "0.1",
                "--kinds", "erasure",
                "--algorithms", "neighbor_exchange",
                "--live",
            ]
        ) == 0
        err = capsys.readouterr().err
        cells = [line for line in err.splitlines() if "sweep.cell" in line]
        assert len(cells) == 2  # one per (algorithm, kind, rate)
        assert any("rate=0.1" in line for line in cells)
        assert any("sweep.end" in line for line in err.splitlines())

    def test_without_live_no_stream_lines(self, capsys):
        assert main(
            [
                "fault-sweep",
                "--n", "6",
                "--trials", "2",
                "--rates", "0.0",
                "--kinds", "erasure",
                "--algorithms", "neighbor_exchange",
            ]
        ) == 0
        assert "sweep.cell" not in capsys.readouterr().err


class TestDashCommand:
    def _build_inputs(self, tmp_path, capsys):
        out = str(tmp_path)
        history = str(tmp_path / "BENCH_HISTORY.jsonl")
        sweep = str(tmp_path / "sweep.json")
        session = str(tmp_path / "session.json")
        assert main(
            ["bench", "--quick", "--out-dir", out, "--only", "kt1_simulation",
             "--history", history]
        ) == 0
        assert main(
            ["fault-sweep", "--n", "6", "--trials", "2", "--rates", "0.0",
             "--kinds", "erasure", "--algorithms", "neighbor_exchange",
             "--out", sweep]
        ) == 0
        assert main(
            ["record", "run", "--session", session, "--n", "6",
             "--max-delay", "2", "--duplicate-rate", "0.2", "--net-seed", "7"]
        ) == 0
        capsys.readouterr()
        return out, history, sweep, session

    def test_builds_byte_identical_self_contained_html(self, tmp_path, capsys):
        from repro.obs.dash import validate_dashboard_html

        out, history, sweep, session = self._build_inputs(tmp_path, capsys)
        args = [
            "dash",
            "--dir", out,
            "--history", history,
            "--sweep", sweep,
            "--session", session,
            "--timestamp", "2026-01-01T00:00:00Z",
        ]
        first = str(tmp_path / "dash1.html")
        second = str(tmp_path / "dash2.html")
        assert main(args + ["--out", first]) == 0
        stdout = capsys.readouterr().out
        assert "self-contained" in stdout
        assert main(args + ["--out", second]) == 0
        html = (tmp_path / "dash1.html").read_bytes()
        assert html == (tmp_path / "dash2.html").read_bytes()
        problems = validate_dashboard_html(html.decode("utf-8"))
        assert problems == []
        text = html.decode("utf-8")
        # every surface made it into the one file
        assert "kt1_simulation" in text
        assert "neighbor_exchange" in text
        assert "simulate" in text and "decision" in text
        assert "Delivery population" in text

    def test_missing_input_file_exits_two(self, tmp_path, capsys):
        assert main(
            ["dash", "--dir", str(tmp_path), "--sweep",
             str(tmp_path / "missing.json"), "--out", str(tmp_path / "d.html")]
        ) == 2

    def test_empty_dir_still_builds(self, tmp_path, capsys):
        out_file = str(tmp_path / "d.html")
        assert main(["dash", "--dir", str(tmp_path), "--out", out_file]) == 0
        text = (tmp_path / "d.html").read_text()
        assert "no BENCH_" in text


class TestTraceValidateStatsColumns:
    def test_cost_bits_column_from_v4_trace(self, tmp_path, capsys):
        from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
        from repro.costs import CostLedger, use_ledger
        from repro.instances import one_cycle_instance

        path = str(tmp_path / "trace.jsonl")
        trace = RunTrace(path, run_id="costed")
        with use_ledger(CostLedger()):
            Simulator(BCC1_KT0, trace=trace).run(
                one_cycle_instance(4, kt=0), ConstantAlgorithm, 2
            )
        trace.close()
        assert main(["trace-validate", path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cost bits" in out
        assert "cost_summary=1" in out
        # 4 vertices x 1 bit x 2 rounds
        assert any("8" in line for line in out.splitlines() if "costed" in line)

    def test_session_envelope_column(self, tmp_path, capsys):
        session = str(tmp_path / "session.json")
        assert main(
            ["record", "run", "--session", session, "--n", "6"]
        ) == 0
        capsys.readouterr()
        assert main(["trace-validate", session, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "sessions" in out
        assert "runx1" in out
        assert "complete=True" in out

    def test_plain_trace_renders_dashes(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path, run_id="r1") as trace:
            trace.emit("round", t=1)
        assert main(["trace-validate", path, "--stats"]) == 0
        rows = [
            line for line in capsys.readouterr().out.splitlines() if "r1" in line
        ]
        assert rows and rows[0].count("-") >= 2  # no cost bits, no sessions
