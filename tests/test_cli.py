"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workloads.paper_examples import FIG3_TEXT

TWO_BLOCK = """
block top
  a op=li  defs=r1 lat=1
  b op=li  defs=r2 lat=1
  c op=mul defs=r3 uses=r1,r2 lat=4
block bottom
  d op=add defs=r4 uses=r3 lat=1
"""


@pytest.fixture
def prog(tmp_path):
    p = tmp_path / "prog.s"
    p.write_text(TWO_BLOCK)
    return str(p)


@pytest.fixture
def fig3(tmp_path):
    p = tmp_path / "fig3.s"
    p.write_text(FIG3_TEXT)
    return str(p)


class TestSchedule:
    def test_default_anticipatory(self, prog, capsys):
        assert main(["schedule", prog]) == 0
        out = capsys.readouterr().out
        assert "top:" in out and "bottom:" in out

    def test_simulate_flag(self, prog, capsys):
        assert main(["schedule", prog, "--simulate", "-w", "2"]) == 0
        out = capsys.readouterr().out
        assert "completion:" in out and "W=2" in out

    @pytest.mark.parametrize(
        "sched", ["anticipatory", "local", "critical-path", "source"]
    )
    def test_all_schedulers(self, prog, capsys, sched):
        assert main(["schedule", prog, "--scheduler", sched]) == 0

    def test_machine_choices(self, prog):
        for machine in ("paper", "inorder", "rs6000", "vliw"):
            assert main(["schedule", prog, "--machine", machine]) == 0

    def test_missing_file(self, capsys):
        assert main(["schedule", "/nonexistent/x.s"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("block A\n x wat=1\n")
        assert main(["schedule", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestFuzz:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "fault-injection fuzz" in out
        assert "TOTAL" in out

    def test_json_report(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["num_cells"] > 0
        assert "by_fault" in doc

    def test_min_cells_gate(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--min-cells", "100000"]) == 1
        assert "--min-cells" in capsys.readouterr().err

    def test_budget_stops_early(self, capsys):
        assert main(["fuzz", "--seeds", "500", "--budget-s", "0.05"]) == 0
        assert "budget hit" in capsys.readouterr().out


class TestSweep:
    def test_table_and_exit_zero(self, capsys):
        assert main(["sweep", "--windows", "2,3", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "anticipatory" in out and "4/4 completed" in out

    def test_malformed_windows(self, capsys):
        assert main(["sweep", "--windows", "2,x"]) == 2
        assert "malformed --windows" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["sweep", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        full, partial, resumed = (
            str(tmp_path / name)
            for name in ("full.txt", "partial.txt", "resumed.txt")
        )
        grid = ["--windows", "2,3", "--seeds", "3"]
        assert main(["sweep", *grid, "--output", full]) == 0
        # "Interrupt" a checkpointed sweep after its first window...
        assert main(
            ["sweep", "--windows", "2", "--seeds", "3",
             "--checkpoint", ck, "--output", partial]
        ) == 0
        # ...then resume the full grid from the same checkpoint.
        assert main(
            ["sweep", *grid, "--checkpoint", ck, "--resume",
             "--output", resumed]
        ) == 0
        out = capsys.readouterr().out
        assert "3 resumed" in out
        with open(full, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()

    def test_fresh_sweep_clears_stale_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        ck.write_text('{"v": 1, "index": 0, "pickle": "garbage"}\n')
        assert main(
            ["sweep", "--windows", "2", "--seeds", "1", "--checkpoint", str(ck)]
        ) == 0
        assert "0 resumed" in capsys.readouterr().out


class TestRanks:
    def test_ranks_table(self, fig3, capsys):
        assert main(["ranks", fig3, "--deadline", "100"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out and "BT" in out

    def test_deadline_overrides_change_ranks(self, prog, capsys):
        assert main(["ranks", prog, "--deadline", "100"]) == 0
        base = capsys.readouterr().out
        assert main(["ranks", prog, "--deadline", "100",
                     "--deadlines", "d=5"]) == 0
        tightened = capsys.readouterr().out
        assert base != tightened

    def test_unknown_deadline_name_is_an_error(self, prog, capsys):
        assert main(["ranks", prog, "--deadlines", "nope=5"]) == 2
        err = capsys.readouterr().err
        assert "unknown nodes" in err and "nope" in err

    def test_malformed_deadline_entry_is_an_error(self, prog, capsys):
        assert main(["ranks", prog, "--deadlines", "d"]) == 2
        assert "malformed" in capsys.readouterr().err
        assert main(["ranks", prog, "--deadlines", "d=x"]) == 2
        assert "malformed" in capsys.readouterr().err


class TestLoop:
    def test_figure3_loop(self, fig3, capsys):
        assert main(["loop", fig3, "-w", "1", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "chosen order: L4 ST M C4 BT" in out
        assert "steady-state II: 6" in out

    def test_rejects_multiblock(self, prog, capsys):
        assert main(["loop", prog]) == 2
        assert "single-block" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestTrace:
    def test_schedule_with_trace_writes_jsonl_and_chrome(
        self, prog, tmp_path, capsys
    ):
        jsonl = tmp_path / "run.jsonl"
        assert main(["schedule", prog, "-w", "2", "--trace", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "trace: wrote" in out
        chrome = tmp_path / "run.chrome.json"
        assert jsonl.exists() and chrome.exists()

        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"rank", "merge", "delay_idle_slots", "chop"} <= span_names
        sim_kinds = {r["kind"] for r in records if r["type"] == "sim"}
        assert "issue" in sim_kinds and "stall" in sim_kinds

        json.loads(chrome.read_text())  # valid Chrome trace JSON

    def test_trace_subcommand_replays_timeline(self, prog, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert main(["schedule", prog, "-w", "2", "--trace", str(jsonl)]) == 0
        sched_out = capsys.readouterr().out
        stalls = int(sched_out.split("stalls: ")[1].split(",")[0])

        assert main(["trace", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out and "issue" in out
        assert f"{stalls} stall cycles" in out

    def test_trace_subcommand_rejects_non_trace_file(self, prog, capsys):
        assert main(["trace", prog]) == 2
        assert "not a repro trace" in capsys.readouterr().err

    def test_trace_renders_request_waterfall(self, tmp_path, capsys):
        from repro.machine.presets import PAPER_CORE
        from repro.serve.protocol import ScheduleRequest
        from repro.serve.service import ScheduleService
        from repro.workloads.traces import random_trace

        svc = ScheduleService()
        request = ScheduleRequest(
            trace=random_trace(2, (3, 4), cross_probability=0.2, seed=1),
            machine=PAPER_CORE,
            trace_id="cafef00d",
        )
        assert svc.handle(request.to_dict())["ok"]
        retained = svc.tracebuf.recent()[-1]
        path = tmp_path / "wf.jsonl"
        path.write_text(
            "\n".join(
                json.dumps(r) for r in retained.waterfall_records()
            ) + "\n"
        )
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "request cafef00d" in out
        assert "serve.phase.dispatch" in out
        assert "serve.worker.schedule" in out
        assert "1 request waterfall(s)" in out


@pytest.fixture
def report_pair(tmp_path):
    """Two RunReport files: a baseline and an identical copy."""
    from repro.obs import RunReport

    base = RunReport(
        name="bench",
        metrics={"makespan": 11, "stalls": 2, "runs": [{"wall_s": 1.0}]},
        phases={"rank": 0.25, "merge": 0.05},
        provenance={"seed": 0},
    )
    base_path = tmp_path / "baseline.json"
    new_path = tmp_path / "new.json"
    base.write(base_path)
    base.write(new_path)
    return base, base_path, new_path


class TestReport:
    def test_report_on_runreport_json(self, report_pair, capsys):
        _, base_path, _ = report_pair
        assert main(["report", str(base_path)]) == 0
        out = capsys.readouterr().out
        assert "bench" in out and "makespan" in out
        assert "rank" in out  # phases table

    def test_report_markdown(self, report_pair, capsys):
        _, base_path, _ = report_pair
        assert main(["report", str(base_path), "--markdown"]) == 0
        assert "| metric |" in capsys.readouterr().out

    def test_report_on_trace_jsonl(self, prog, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert main(["schedule", prog, "-w", "2", "--trace", str(jsonl)]) == 0
        capsys.readouterr()
        assert main(["report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "sim.cycles" in out and "sim.stall." in out
        assert "stall attribution" in out

    def test_report_rejects_non_report(self, prog, capsys):
        assert main(["report", prog]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/r.json"]) == 2


class TestCompare:
    def test_identical_reports_exit_zero(self, report_pair, capsys):
        _, base_path, new_path = report_pair
        assert main(["compare", str(base_path), str(new_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_makespan_regression_exits_nonzero(
        self, report_pair, capsys
    ):
        base, base_path, new_path = report_pair
        base.metrics["makespan"] = 13  # injected regression
        base.write(new_path)
        assert main(["compare", str(base_path), str(new_path)]) == 1
        out = capsys.readouterr().out
        assert "makespan" in out and "FAIL" in out

    def test_wall_time_respects_threshold(self, report_pair, capsys):
        base, base_path, new_path = report_pair
        base.metrics["runs"] = [{"wall_s": 1.4}]
        base.write(new_path)
        assert main(["compare", str(base_path), str(new_path),
                     "--threshold", "50"]) == 0
        assert main(["compare", str(base_path), str(new_path),
                     "--threshold", "10"]) == 1

    def test_negative_threshold_is_an_error(self, report_pair, capsys):
        _, base_path, new_path = report_pair
        assert main(["compare", str(base_path), str(new_path),
                     "--threshold", "-5"]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_missing_baseline_is_an_error(self, report_pair, capsys):
        _, _, new_path = report_pair
        assert main(["compare", "/nonexistent/b.json", str(new_path)]) == 2


class TestDot:
    def test_trace_dot_to_stdout(self, prog, capsys):
        assert main(["dot", prog]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_loop_dot_to_file(self, fig3, tmp_path, capsys):
        out_path = tmp_path / "g.dot"
        assert main(["dot", fig3, "--loop", "-o", str(out_path)]) == 0
        assert "digraph" in out_path.read_text()
        assert "wrote" in capsys.readouterr().out


class TestSweepTelemetry:
    def test_faults_table_and_spool(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert main(
            ["sweep", "--faults", "--windows", "3", "--seeds", "3",
             "--spool-dir", str(spool)]
        ) == 0
        out = capsys.readouterr().out
        assert "fault plan" in out and "3/3 completed" in out
        assert "telemetry:" in out
        assert list(spool.glob("spool-*.jsonl"))

    def test_report_written_without_spool_dir(self, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--faults", "--windows", "3", "--seeds", "2",
             "--report", str(report)]
        ) == 0
        doc = json.loads(report.read_text())
        metrics = doc["metrics"]
        assert metrics["cells"] == 2 and metrics["failures"] == 0
        assert any(k.startswith("guard.") for k in metrics)
        assert any(k.startswith("span.") and k.endswith(".count")
                   for k in metrics)
        assert doc["provenance"]["jobs"] == 1


class TestFlame:
    def test_default_workload_writes_flamegraph(self, tmp_path, capsys):
        out_path = tmp_path / "flame.html"
        collapsed = tmp_path / "stacks.txt"
        assert main(
            ["flame", "--repeat", "2", "-o", str(out_path),
             "--collapsed", str(collapsed)]
        ) == 0
        out = capsys.readouterr().out
        assert "E10 workload" in out and "wrote" in out
        assert "<svg" in out_path.read_text()
        text = collapsed.read_text().strip()
        assert all(line.rsplit(" ", 1)[1].isdigit()
                   for line in text.splitlines())

    def test_profiles_a_program_file(self, prog, tmp_path, capsys):
        out_path = tmp_path / "flame.html"
        assert main(
            ["flame", prog, "--repeat", "2", "-o", str(out_path)]
        ) == 0
        assert out_path.exists()

    def test_max_overhead_gate_fails_when_exceeded(self, tmp_path, capsys):
        # An impossible budget: any nonzero overhead exceeds it.
        rc = main(
            ["flame", "--repeat", "2", "-o", str(tmp_path / "f.html"),
             "--max-overhead", "0"]
        )
        captured = capsys.readouterr()
        if rc == 1:
            assert "exceeds --max-overhead" in captured.err
        else:  # measured overhead can legitimately be <= 0 on a noisy box
            assert rc == 0


def _make_spool(tmp_path):
    spool = tmp_path / "spool"
    assert main(
        ["sweep", "--faults", "--windows", "3", "--seeds", "2",
         "--spool-dir", str(spool)]
    ) == 0
    return spool


class TestMetricsExposition:
    def test_prometheus_output(self, tmp_path, capsys):
        spool = _make_spool(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(spool)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_guard_schedule_total counter" in out
        assert 'trace_id="' in out
        cells = [ln for ln in out.splitlines()
                 if ln.startswith("repro_cells_total{")]
        assert cells and cells[0].endswith(" 2")

    def test_output_file_and_namespace(self, tmp_path, capsys):
        spool = _make_spool(tmp_path)
        prom = tmp_path / "m.prom"
        assert main(
            ["metrics", str(spool), "--namespace", "spaa", "-o", str(prom)]
        ) == 0
        assert "spaa_guard_schedule_total" in prom.read_text()

    def test_missing_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err


class TestTop:
    def test_single_frame(self, tmp_path, capsys):
        spool = _make_spool(tmp_path)
        capsys.readouterr()
        assert main(
            ["top", str(spool), "--interval", "0", "--frames", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "cells 2 (2 ok)" in out
        assert "sweep.cell" in out and "guard.schedule" in out

    def test_missing_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_spool_dir_and_no_connect_is_usage_error(self, capsys):
        assert main(["top"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_connect_to_absent_daemon_fails_cleanly(self, tmp_path, capsys):
        assert main(["top", "--connect", str(tmp_path / "no.sock"),
                     "--frames", "1"]) == 2
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_connect_to_live_daemon_renders_frame(self, tmp_path, capsys):
        from repro.machine.presets import PAPER_CORE
        from repro.serve.daemon import ScheduleServer, ServerHandle
        from repro.serve.protocol import ScheduleRequest
        from repro.serve.service import ScheduleService
        from repro.workloads.traces import random_trace

        service = ScheduleService()
        srv = ScheduleServer(
            service, socket_path=tmp_path / "s.sock", batch_window_s=0.001
        )
        with ServerHandle(srv):
            doc = ScheduleRequest(
                trace=random_trace(2, (3, 4), cross_probability=0.2, seed=2),
                machine=PAPER_CORE,
            ).to_dict()
            from repro.serve.client import ScheduleClient

            with ScheduleClient(srv.socket_path) as client:
                assert client.call(doc)["ok"]
            capsys.readouterr()
            assert main(["top", "--connect", str(srv.socket_path),
                         "--interval", "0", "--frames", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "requests 1" in out


class TestServe:
    @pytest.mark.parametrize(
        "flags, name",
        [(["--timeout-s", "0"], "timeout_s"), (["--jobs", "0"], "jobs")],
    )
    def test_bad_pool_option_is_usage_error(self, tmp_path, capsys, flags, name):
        sock = tmp_path / "s.sock"
        assert main(["serve", "--socket", str(sock), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert "Traceback" not in err
        assert not sock.exists()  # never started listening
