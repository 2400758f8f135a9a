import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import caproof
from caproof import analysis, cli, reports
from caproof.analysis import classify
from caproof.cli import main, parse_grid, parse_int_list, parse_scalar, run
from caproof.config import ConfigError, resolve_config
from caproof.metrics import OperatingPoint, decode_metrics
from caproof.model import Phase
from caproof.workload import MAX_TURNS

CODING_AGENT_PATH = str(Path(caproof.__file__).parent / "catalog" / "workloads"
                        / "coding-agent.json")


class TestGridParsing:
    def test_scalar_suffixes(self):
        assert parse_scalar("17") == 17
        assert parse_scalar("1k") == 1000
        assert parse_scalar("2M") == 2_000_000
        assert parse_int_list("1,2k,3") == [1, 2000, 3]

    def test_plain_range(self):
        assert parse_grid("B=1..4")["B"] == [1, 2, 3, 4]

    def test_log_range_doubles_and_includes_endpoint(self):
        grid = parse_grid("L=1k..1m:log")
        assert grid["L"][0] == 1000
        assert grid["L"][-1] == 1_000_000
        assert grid["L"][:4] == [1000, 2000, 4000, 8000]

    def test_counted_ranges(self):
        assert parse_grid("L=1..100:log3")["L"] == [1, 10, 100]
        assert parse_grid("B=10..30:3")["B"] == [10, 20, 30]

    def test_comma_lists_extend_dimension(self):
        grid = parse_grid("B=1,2,8,L=512")
        assert grid == {"B": [1, 2, 8], "L": [512]}

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_grid("X=1..4")
        with pytest.raises(ConfigError):
            parse_grid("B=4..1")
        with pytest.raises(ConfigError):
            parse_grid("")
        with pytest.raises(ConfigError):
            parse_scalar("abc")
        with pytest.raises(ConfigError):
            parse_grid("L=1..1m")  # too many points without :log

    @pytest.mark.parametrize("mode", ["100001", "log100001"])
    def test_counted_range_point_cap(self, mode):
        with pytest.raises(ConfigError, match="point count must be <= 100000"):
            parse_grid(f"L=1..1m:{mode}")


class TestCommands:
    def test_analyze_text_matches_metrics(self, tmp_path):
        assert run(["analyze", "--model", "mha-48x2048", "--hardware", "unit-device",
                    "--batch", "2", "--context", "1024", "--phase", "decode",
                    "--out", str(tmp_path)]) == 0
        text = (tmp_path / "analyze.txt").read_text()
        spec = resolve_config("mha-48x2048", "model")
        metrics = decode_metrics(spec, OperatingPoint(1024, 2, Phase.DECODE))
        assert f"{metrics.oi:.6g}" in text
        assert f"{metrics.cf:.6g}" in text

    def test_csv_rows_reproducible_from_analysis_module(self, tmp_path):
        assert run(["sweep", "--model", "gqa8-48x2048", "--hardware", "b200-sxm",
                    "--grid", "B=1,4,L=2k..8k:log", "--out", str(tmp_path)]) == 0
        spec = resolve_config("gqa8-48x2048", "model")
        hw = resolve_config("b200-sxm", "hardware")
        with open(tmp_path / "sweep.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        for row in rows:
            point = OperatingPoint(int(row["context_len"]), int(row["batch_size"]),
                                   Phase(row["phase"]))
            again = classify(spec, hw, point)
            assert float(row["oi"]) == again.metrics.oi
            assert float(row["cf_bytes"]) == again.metrics.cf
            assert row["bound_class"] == again.bound_class.value
            assert int(row["min_devices"]) == again.min_devices

    def test_identical_invocations_byte_identical(self, tmp_path):
        args = ["sweep", "--model", "dense-70b", "--hardware", "b200-node8",
                "--workload", "coding-agent"]
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(args + ["--out", str(out)]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
            outputs.append((out / "sweep.svg").read_bytes())
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]

    def test_format_subset(self, tmp_path):
        assert run(["analyze", "--model", "mha-48x2048", "--hardware", "unit-device",
                    "--out", str(tmp_path), "--format", "csv"]) == 0
        assert (tmp_path / "analyze.csv").exists()
        assert not (tmp_path / "analyze.svg").exists()
        assert not (tmp_path / "analyze.txt").exists()

    def test_compare_attention_ratio_columns(self, tmp_path):
        assert run(["compare-attention", "--model", "mha-48x2048", "--model",
                    "gqa8-48x2048", "--model", "mla-48x2048", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "compare-attention.csv") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            mha = float(row["mha-48x2048_kv_bytes"])
            gqa = float(row["gqa8-48x2048_kv_bytes"])
            mla = float(row["mla-48x2048_cf_bytes"])
            assert mha == 4.0 * gqa
            assert mla < float(row["gqa8-48x2048_cf_bytes"]) < float(row["mha-48x2048_cf_bytes"])
        svg = (tmp_path / "compare-attention.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_compare_moe_decomposition(self, tmp_path):
        assert run(["compare-moe", "--model", "dense-70b", "--model", "moe-256e",
                    "--out", str(tmp_path)]) == 0
        with open(tmp_path / "compare-moe.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert {(r["model"], r["batch_size"]) for r in rows} == {
            ("dense-70b", "1"), ("dense-70b", "16"), ("moe-256e", "1"), ("moe-256e", "16"),
        }
        for row in rows:
            assert float(row["weight_floor_bytes"]) + float(row["kv_bytes"]) == float(row["cf_bytes"])

    def test_agent_profile_defaults_to_all_presets(self, tmp_path):
        assert run(["agent-profile", "--model", "dense-70b", "--hardware", "b200-node8",
                    "--out", str(tmp_path)]) == 0
        with open(tmp_path / "agent-profile.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert {r["workload"] for r in rows} == {"chatbot", "coding-agent", "web-use",
                                                 "computer-use"}
        coding = [r for r in rows if r["workload"] == "coding-agent"][0]
        assert int(coding["final_context"]) == 310000
        svg = (tmp_path / "agent-profile.svg").read_text()
        assert "one-device capacity" in svg

    def test_roofline_plot_contains_arms_and_points(self, tmp_path):
        assert run(["roofline-plot", "--model", "dense-70b", "--hardware", "b200-sxm",
                    "--workload", "chatbot", "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "roofline-plot.svg").read_text()
        assert "ridge 281.25" in svg
        assert svg.count("<circle") > 2  # ridge marker plus workload points

    def test_strict_capacity_exceeded_exit(self, tmp_path):
        args = ["analyze", "--model", "dense-70b", "--hardware", "b200-sxm",
                "--context", "300k", "--phase", "decode", "--out", str(tmp_path)]
        assert run(args) == 0
        assert run(args + ["--strict"]) == 3

    @pytest.mark.parametrize("command", ["sweep", "roofline-plot"])
    @pytest.mark.parametrize("workload, code", [("coding-agent", 3), ("chatbot", 0)])
    def test_strict_workload_sweep_exit(self, tmp_path, command, workload, code):
        """A workload sweep exits 3 under --strict exactly when a row it writes
        is capacity_exceeded, and writes all three artifacts either way."""
        assert run([command, "--model", "dense-70b", "--hardware", "b200-node8", "--workload",
                    workload, "--strict", "--out", str(tmp_path)]) == code
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{command}.{ext}" for ext in ("csv", "svg", "txt")]
        with open(tmp_path / f"{command}.csv") as handle:
            classes = {row["bound_class"] for row in csv.DictReader(handle)}
        assert ("capacity_exceeded" in classes) == (code == 3)

    def test_format_csv_renders_no_text_or_svg(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rendered a format that was not asked for")

        for name in ("sweep_text", "roofline_svg", "stream_sweep_text", "stream_roofline_svg"):
            monkeypatch.setattr(reports, name, refuse)
        assert run(["sweep", "--model", "dense-70b", "--hardware", "b200-sxm",
                    "--grid", "B=1,L=4k", "--format", "csv", "--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    @pytest.mark.parametrize("command, flags", [
        ("compare-attention", ["--model", "mha-48x2048", "--model", "gqa8-48x2048"]),
        ("compare-moe", ["--model", "dense-70b", "--model", "moe-256e"]),
        ("agent-profile", ["--model", "dense-70b", "--hardware", "b200-node8",
                           "--workload", "chatbot", "--workload", "coding-agent"]),
    ])
    @pytest.mark.parametrize("refused, formats, written", [
        (("text", "svg"), "csv", ["csv"]),
        (("csv",), "svg,text", ["svg", "txt"]),
    ])
    def test_chart_command_builds_only_the_formats_asked_for(self, command, flags, refused,
                                                             formats, written, tmp_path,
                                                             monkeypatch):
        """A chart command builds a format's artifact only when that format is
        written: with the other formats' builders made to raise, it exits 0 and
        writes the same bytes as a run of every format."""
        assert run([command, *flags, "--out", str(tmp_path / "all")]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("built a format that was not asked for")

        for fmt in refused:
            monkeypatch.setattr(reports, f"{command.replace('-', '_')}_{fmt}", refuse)
        out = tmp_path / "some"
        assert run([command, *flags, "--format", formats, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [f"{command}.{ext}" for ext in written]
        for ext in written:
            name = f"{command}.{ext}"
            assert (out / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_failing_renderer_leaves_no_partial_file(self, tmp_path, monkeypatch):
        """All formats are written in one pass, so when one renderer raises the
        others are partial too: every artifact of the run is removed."""
        def half_written(model, hardware, out):
            out.write("model=partial\n")
            yield
            raise RuntimeError("renderer failed mid-stream")

        monkeypatch.setattr(reports, "stream_sweep_text", half_written)
        with pytest.raises(RuntimeError, match="mid-stream"):
            run(["sweep", "--model", "dense-70b", "--hardware", "b200-sxm",
                 "--grid", "B=1,2,L=4k", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_artifact_that_cannot_be_opened_removes_the_others(self, tmp_path, capsys,
                                                              monkeypatch):
        """A dangling symlink passes the --out check but fails open: the artifacts
        opened before it are removed and the link is left."""
        (tmp_path / "analyze.txt").symlink_to(tmp_path / "missing" / "target")
        monkeypatch.setattr(sys, "argv", ["caproof", "analyze", "--model", "dense-70b",
                                          "--hardware", "b200-sxm", "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"error: --out: No such file or directory: '{tmp_path}/analyze.txt'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["analyze.txt"]
        assert (tmp_path / "analyze.txt").is_symlink()

    @pytest.mark.parametrize("phase, color", [("decode", "#d69e2e"), ("prefill", "#3182ce")],
                             ids=["decode", "prefill"])
    def test_agent_profile_draws_no_bar_for_zero_tokens(self, tmp_path, phase, color):
        """A workload with no tokens of a phase loses exactly that phase's token
        bar; its OI at the final context is still drawn."""
        workload = {"type": "workload", "name": "silent", "turns": 3,
                    "prefill_tokens_per_turn": 100, "decode_tokens_per_turn": 100}
        workload[f"{phase}_tokens_per_turn"] = 0
        silent = tmp_path / "silent.json"
        silent.write_text(json.dumps(workload))
        svgs = []
        for run_index, other in enumerate((str(silent), "web-use")):
            out = tmp_path / f"out{run_index}"
            assert run(["agent-profile", "--model", "dense-70b", "--hardware", "b200-node8",
                        "--workload", "chatbot", "--workload", other, "--format", "svg",
                        "--out", str(out)]) == 0
            svgs.append((out / "agent-profile.svg").read_text())
        bar = f'fill="{color}"/>'
        assert svgs[0].count("<rect") == svgs[1].count("<rect") - 1
        assert svgs[0].count(bar) == svgs[1].count(bar) - 1


class TestOutCheckedBeforeAnalysis:
    """An unusable --out is found before the command classifies anything."""

    @pytest.fixture
    def sweep_calls(self, monkeypatch):
        calls = []
        original = analysis.iter_grid

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (analysis, cli):
            if getattr(module, "iter_grid", None) is original:
                monkeypatch.setattr(module, "iter_grid", recording)
        return calls

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["sweep", "--grid", "B=1..64,L=1k..1m:log"],
        ["roofline-plot", "--format", "text"],
    ])
    def test_artifact_path_that_is_a_directory(self, tmp_path, sweep_calls, argv):
        out = tmp_path / "out"
        (out / f"{argv[0]}.txt").mkdir(parents=True)
        with pytest.raises(ConfigError, match=r"^--out: Is a directory: '.*\.txt'$"):
            run([*argv, "--model", "dense-70b", "--hardware", "b200-sxm", "--out", str(out)])
        assert sweep_calls == []
        assert [p.name for p in out.iterdir()] == [f"{argv[0]}.txt"]
        assert not list((out / f"{argv[0]}.txt").iterdir())

    @pytest.mark.parametrize("out, message", [
        ("file", "File exists: '{tmp}/file'"),
        ("file/sub/deeper", "Not a directory: '{tmp}/file/sub/deeper'"),
    ])
    def test_out_at_or_under_a_file(self, tmp_path, sweep_calls, out, message):
        (tmp_path / "file").write_text("")
        with pytest.raises(ConfigError) as exc:
            run(["sweep", "--model", "dense-70b", "--hardware", "b200-sxm",
                 "--grid", "B=1..64,L=1k..1m:log", "--out", str(tmp_path / out)])
        assert str(exc.value) == "--out: " + message.format(tmp=tmp_path)
        assert sweep_calls == []
        assert (tmp_path / "file").read_text() == ""

    def test_usable_out_runs_the_analysis(self, tmp_path, sweep_calls):
        assert run(["analyze", "--model", "dense-70b", "--hardware", "b200-sxm",
                    "--out", str(tmp_path / "new" / "dir")]) == 0
        assert len(sweep_calls) == 1
        assert sorted(p.name for p in (tmp_path / "new" / "dir").iterdir()) == [
            "analyze.csv", "analyze.svg", "analyze.txt"]


class TestFlags:
    """Every flag a command accepts takes effect; the others exit 2."""

    def csv_rows(self, tmp_path, argv, name):
        out = tmp_path / name
        assert run(argv + ["--format", "csv", "--out", str(out)]) == 0
        with open(out / f"{argv[0]}.csv") as handle:
            return list(csv.DictReader(handle))

    def test_agent_profile_passes_accounting_flags(self, tmp_path):
        argv = ["agent-profile", "--model", "dense-70b", "--hardware", "b200-node8",
                "--workload", "coding-agent"]
        plain = self.csv_rows(tmp_path, argv, "plain")[0]
        activations = self.csv_rows(tmp_path, argv + ["--include-activations"], "act")[0]
        replicated = self.csv_rows(tmp_path, argv + ["--replicate-weights"], "rep")[0]
        assert float(activations["prefill_oi"]) < float(plain["prefill_oi"])
        assert float(activations["decode_oi"]) < float(plain["decode_oi"])
        assert plain["min_devices_decode"] == "2"
        assert replicated["min_devices_decode"] == "0"  # weights + KV exceed one device
        assert run(argv + ["--strict", "--out", str(tmp_path / "strict")]) == 3

    def test_compare_moe_passes_include_activations(self, tmp_path):
        argv = ["compare-moe", "--model", "dense-70b", "--model", "moe-256e"]
        plain = self.csv_rows(tmp_path, argv, "plain")
        activations = self.csv_rows(tmp_path, argv + ["--include-activations"], "act")
        assert len(plain) == len(activations) == 4
        for before, after in zip(plain, activations):
            assert float(after["decode_oi"]) < float(before["decode_oi"])
            assert after["cf_bytes"] == before["cf_bytes"]

    @pytest.mark.parametrize("extra", [
        ["compare-attention", "--strict"],
        ["compare-attention", "--include-activations"],
        ["compare-attention", "--replicate-weights"],
        ["compare-attention", "--batch", "1,64"],
        ["compare-moe", "--strict"],
        ["compare-moe", "--replicate-weights"],
        ["compare-moe", "--context", "4k,32k"],
    ])
    def test_unused_or_multi_value_flags_exit_2(self, extra, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["caproof", extra[0], "--model", "mha-48x2048",
                                          "--model", "gqa8-48x2048", *extra[1:],
                                          "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "--workload", "chatbot", "--phase", "decode"], "--phase"),
        (["sweep", "--workload", "chatbot", "--phase", "both"], "--phase"),
        (["roofline-plot", "--workload", "chatbot", "--phase", "prefill"], "--phase"),
        (["roofline-plot", "--workload", "chatbot", "--batch", "4"], "--batch"),
        (["roofline-plot", "--workload", "chatbot", "--context", "32k"], "--context"),
        (["analyze", "--batch", ","], "--batch"),
        (["analyze", "--context", ","], "--context"),
        (["roofline-plot", "--batch", ","], "--batch"),
        (["roofline-plot", "--context", ","], "--context"),
    ])
    def test_ignored_or_empty_point_flags_are_config_errors(self, argv, named, tmp_path):
        argv = [argv[0], "--model", "dense-70b", "--hardware", "b200-sxm", *argv[1:]]
        with pytest.raises(ConfigError, match=named):
            run(argv + ["--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, named", [
        (["compare-attention", "--grid", "B=64,L=1k..4k:log"], "--batch"),
        (["compare-attention", "--grid", "L=4k"], "two distinct L values"),
        (["compare-attention", "--grid", "L=4k,4k"], "two distinct L values"),
        (["compare-moe", "--batch", ","], "--batch"),
        (["compare-attention", "--batch", "0"], "--batch"),
        (["compare-attention", "--batch", "-1"], "--batch"),
    ])
    def test_compare_grid_errors_write_nothing(self, argv, named, tmp_path):
        argv = [argv[0], "--model", "mha-48x2048", "--model", "gqa8-48x2048", *argv[1:]]
        with pytest.raises(ConfigError, match=named):
            run(argv + ["--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--batch", "0"], "--batch: batch_size must be >= 1, got 0"),
        (["analyze", "--context", "0"], "--context: context_len must be >= 1, got 0"),
        (["roofline-plot", "--context", "0"], "--context: context_len must be >= 1, got 0"),
        (["roofline-plot", "--batch", "4,-2"], "--batch: batch_size must be >= 1, got -2"),
        (["sweep", "--grid", "B=0,L=4k"], "--grid: batch_size must be >= 1, got 0"),
        (["sweep", "--grid", "L=-5"], "--grid: context_len must be >= 1, got -5"),
        (["compare-moe", "--context", "0"], "--context: context_len must be >= 1, got 0"),
        (["compare-moe", "--batch", "0,16"], "--batch: batch_size must be >= 1, got 0"),
        (["compare-attention", "--grid", "L=0,4k"], "--grid: context_len must be >= 1, got 0"),
        (["compare-attention", "--batch", "0"], "--batch: batch_size must be >= 1, got 0"),
        (["analyze", "--batch", "b"], "--batch: not an integer: 'b'"),
        (["analyze", "--context", "x"], "--context: not an integer: 'x'"),
        (["compare-moe", "--batch", "1,b"], "--batch: not an integer: 'b'"),
        (["sweep", "--grid", "B=,L=4k"], "--grid: not an integer: ''"),
        (["sweep", "--grid", "L=4k..1k"], "--grid: bad range '4k..1k': need 1 <= start <= stop"),
        (["sweep", "--grid", "X=1"], "--grid: unknown grid dimension 'X' (use B and L)"),
        (["sweep", "--grid", "5,B=1"], "--grid: grid piece '5' appears before any dimension"),
        (["analyze", "--format", "x"],
         "--format: unknown output format 'x' (use csv, svg, text)"),
        (["analyze", "--format", ","], "--format: at least one output format is required"),
        (["compare-attention", "--grid", ""], "--grid: empty grid"),
        (["compare-attention", "--grid", "L=4k"], "--grid: compare-attention grid needs at "
                                                  "least two distinct L values for its log axis"),
        (["agent-profile", "--workload", "coding-agent", "--workload", "coding-agent"],
         "--workload: 'coding-agent' is given more than once"),
        (["agent-profile", "--workload", "coding-agent", "--workload", CODING_AGENT_PATH],
         "--workload: 'coding-agent' is given more than once"),
        (["compare-moe", "--context", "4x"], "--context: not an integer: '4x'"),
        (["compare-attention", "--batch", "1,2"], "--batch: not an integer: '1,2'"),
    ])
    def test_values_below_one_name_the_flag(self, argv, message, tmp_path, capsys,
                                            monkeypatch):
        if argv[0].startswith("compare"):
            models = ["--model", "dense-70b", "--model", "moe-256e"]
        else:
            models = ["--model", "dense-70b", "--hardware", "b200-sxm"]
        monkeypatch.setattr(sys, "argv", ["caproof", argv[0], *models, *argv[1:],
                                          "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--model", "dense-70b", "--hardware", "b200-sxm", "--grid", "L=4k",
          "--workload", "chatbot"],
         "--grid cannot be combined with --workload: the trace fixes the points and yields "
         "both phases"),
        (["sweep", "--model", "dense-70b", "--hardware", "b200-sxm"],
         "--grid or --workload is required"),
        (["analyze", "--model", "dense-70b", "--model", "moe-256e", "--hardware", "b200-sxm"],
         "--model: analyze takes exactly one, got 2"),
        (["sweep", "--model", "dense-70b", "--model", "moe-256e", "--hardware", "b200-sxm",
          "--grid", "L=4k"], "--model: sweep takes exactly one, got 2"),
        (["sweep", "--model", "dense-70b", "--model", "moe-256e", "--hardware", "b200-sxm",
          "--workload", "chatbot"], "--model: sweep takes exactly one, got 2"),
        (["roofline-plot", "--model", "dense-70b", "--model", "moe-256e",
          "--hardware", "b200-sxm"], "--model: roofline-plot takes exactly one, got 2"),
        (["roofline-plot", "--model", "dense-70b", "--model", "moe-256e",
          "--hardware", "b200-sxm", "--workload", "chatbot"],
         "--model: roofline-plot takes exactly one, got 2"),
        (["agent-profile", "--model", "dense-70b", "--model", "moe-256e",
          "--hardware", "b200-sxm"], "--model: agent-profile takes exactly one, got 2"),
        (["compare-attention", "--model", "mha-48x2048"],
         "--model: compare-attention needs at least two, got 1"),
        (["compare-moe", "--model", "dense-70b"], "--model: compare-moe needs at least two, got 1"),
        # the points are checked before the models are counted
        (["analyze", "--model", "dense-70b", "--model", "moe-256e", "--hardware", "b200-sxm",
          "--batch", "0"], "--batch: batch_size must be >= 1, got 0"),
        (["sweep", "--model", "dense-70b", "--model", "moe-256e", "--hardware", "b200-sxm",
          "--workload", "chatbot", "--phase", "both"],
         "--phase cannot be combined with --workload: the trace fixes the points and yields "
         "both phases"),
    ])
    def test_sweep_and_model_count_errors_write_nothing(self, argv, message, tmp_path, capsys,
                                                        monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["caproof", *argv, "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_compare_sorts_and_dedupes_grid_values(self, tmp_path):
        attention = self.csv_rows(tmp_path, ["compare-attention", "--model", "mha-48x2048",
                                             "--model", "gqa8-48x2048", "--grid", "L=8k,1k,8k"],
                                  "attention")
        assert [row["context_len"] for row in attention] == ["1000", "8000"]
        moe = self.csv_rows(tmp_path, ["compare-moe", "--model", "dense-70b", "--model",
                                       "moe-256e", "--batch", "16,1,16"], "moe")
        assert [(row["model"], row["batch_size"]) for row in moe] == [
            ("dense-70b", "1"), ("dense-70b", "16"), ("moe-256e", "1"), ("moe-256e", "16"),
        ]

    @pytest.mark.parametrize("command", ["compare-attention", "compare-moe"])
    def test_compare_rejects_duplicate_model_names(self, command, tmp_path, capsys,
                                                   monkeypatch):
        paths = []
        for layers in (2, 40):
            path = tmp_path / f"x{layers}.json"
            path.write_text(json.dumps({"type": "model", "name": "x", "num_layers": layers,
                                        "d_model": 64, "num_heads": 4, "d_ff": 128}))
            paths += ["--model", str(path)]
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["caproof", command, *paths, "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert "'x'" in capsys.readouterr().err
        assert not out.exists()


class TestProcessLevel:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "caproof.cli", *args],
                              capture_output=True, text=True)

    def test_missing_config_exits_2_and_names_path(self, tmp_path):
        result = self.run_cli("analyze", "--model", str(tmp_path / "nope.json"),
                              "--hardware", "unit-device", "--out", str(tmp_path))
        assert result.returncode == 2
        assert "nope.json" in result.stderr

    def test_invalid_schema_exits_2_and_names_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "model", "name": "x", "num_layers": 1,
                                   "d_model": 8, "num_heads": 2, "d_ff": 8,
                                   "mystery": 1}))
        result = self.run_cli("analyze", "--model", str(bad), "--hardware",
                              "unit-device", "--out", str(tmp_path))
        assert result.returncode == 2
        assert "mystery" in result.stderr

    @pytest.mark.parametrize("out, named", [
        ("file", "File exists: '{tmp}/file'"),
        ("file/sub", "Not a directory: '{tmp}/file/sub'"),
        ("dir", "Is a directory: '{tmp}/dir/analyze.txt'"),
    ])
    def test_unusable_out_exits_2_and_names_it(self, tmp_path, out, named):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "analyze.txt").mkdir(parents=True)
        result = self.run_cli("analyze", "--model", "mha-48x2048", "--hardware",
                              "unit-device", "--out", str(tmp_path / out))
        assert result.returncode == 2
        assert result.stderr == f"error: --out: {named.format(tmp=tmp_path)}\n"

    def test_undecodable_config_exits_2_and_names_it(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"type": "model", "name": "caf\xe9"}')
        result = self.run_cli("analyze", "--model", str(bad), "--hardware",
                              "unit-device", "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {bad}: invalid JSON: 'utf-8' codec")
        assert not (tmp_path / "out").exists()

    def test_success_exit_0(self, tmp_path):
        result = self.run_cli("analyze", "--model", "mha-48x2048", "--hardware",
                              "unit-device", "--out", str(tmp_path))
        assert result.returncode == 0

    def test_invalid_point_exits_2(self, tmp_path):
        result = self.run_cli("analyze", "--model", "mha-48x2048", "--hardware",
                              "unit-device", "--batch", "0", "--out", str(tmp_path))
        assert result.returncode == 2
        assert "batch_size" in result.stderr

    def test_missing_precision_exits_2_and_names_available(self, tmp_path):
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps({"type": "hardware", "name": "only8",
                                  "peak_flops": {"8": 1e12}, "mem_bandwidth": 1e12,
                                  "mem_capacity": 1e12}))
        result = self.run_cli("analyze", "--model", "mha-48x2048", "--hardware",
                              str(hw), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "available precisions: 8" in result.stderr

    @pytest.mark.parametrize("key, value, named", [
        ("mem_bandwidth", float("nan"), "'mem_bandwidth'"),
        ("mem_capacity", float("inf"), "'mem_capacity'"),
        ("mem_capacity", 10**400, "'mem_capacity'"),
        ("peak_flops", {"16": float("nan")}, "peak_flops: key '16'"),
    ])
    def test_non_finite_hardware_number_exits_2_and_names_key(self, tmp_path, key, value,
                                                              named):
        data = {"type": "hardware", "name": "odd", "peak_flops": {"16": 1e15},
                "mem_bandwidth": 1e12, "mem_capacity": 1e11, key: value}
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps(data))  # json writes NaN and Infinity literally
        result = self.run_cli("analyze", "--model", "mha-48x2048", "--hardware",
                              str(hw), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "hw.json" in result.stderr and named in result.stderr
        assert "must be a finite number" in result.stderr
        assert "Traceback" not in result.stderr


BEYOND_FLOAT = "1" + "0" * 320  # an integer no float holds


class GridReached(Exception):
    """Raised in place of analysing a grid."""


class TestInputBounds:
    """Integers above 2**53 and grids above MAX_GRID_ROWS rows exit 2 before
    any analysis, name the flag and write nothing."""

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--model", "dense-70b", "--hardware", "b200-sxm",
          "--context", BEYOND_FLOAT], f"--context: integer beyond 2**53: '{BEYOND_FLOAT}'"),
        (["analyze", "--model", "dense-70b", "--hardware", "b200-sxm",
          "--batch", BEYOND_FLOAT], f"--batch: integer beyond 2**53: '{BEYOND_FLOAT}'"),
        (["compare-attention", "--model", "mha-48x2048", "--model", "gqa8-48x2048",
          "--grid", f"L=1,{BEYOND_FLOAT}"], f"--grid: integer beyond 2**53: '{BEYOND_FLOAT}'"),
        (["sweep", "--model", "dense-70b", "--hardware", "b200-sxm",
          "--grid", f"L=1..{BEYOND_FLOAT}:log5"],
         f"--grid: integer beyond 2**53: '{BEYOND_FLOAT}'"),
        (["compare-moe", "--model", "dense-70b", "--model", "moe-256e",
          "--context", BEYOND_FLOAT], f"--context: integer beyond 2**53: '{BEYOND_FLOAT}'"),
    ])
    def test_integers_beyond_float_range_name_the_flag(self, argv, message, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(sys, "argv", ["caproof", *argv, "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, turns", [("sweep", MAX_TURNS + 1),
                                                ("agent-profile", 2**53)])
    def test_workload_turns_beyond_the_row_budget(self, command, turns, tmp_path, capsys,
                                                  monkeypatch):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"type": "workload", "name": "long", "turns": turns,
                                    "prefill_tokens_per_turn": 1, "decode_tokens_per_turn": 1}))
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["caproof", command, "--model", "dense-70b",
                                          "--hardware", "b200-sxm", "--workload", str(path),
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == (f"error: {path}: turns must be <= {MAX_TURNS}, "
                                           f"got {turns}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workload", "./zero.json"],
        ["roofline-plot", "--workload", "./zero.json"],
        ["agent-profile", "--workload", "chatbot", "--workload", "./zero.json"]])
    def test_zero_token_workload_names_the_file(self, argv, tmp_path, capsys, monkeypatch):
        """The workload is named as given, among others on agent-profile."""
        (tmp_path / "zero.json").write_text(json.dumps({
            "type": "workload", "name": "zero", "turns": 3, "prefill_tokens_per_turn": 0,
            "decode_tokens_per_turn": 0}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["caproof", argv[0], "--model", "dense-70b",
                                          "--hardware", "b200-sxm", *argv[1:], "--out", "out"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: ./zero.json: workload 'zero' expands to zero tokens\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["sweep", "--workload", "chatbot"],
        ["roofline-plot", "--workload", "coding-agent"], ["agent-profile"]])
    def test_precision_the_hardware_lacks_names_model_and_key(self, argv, tmp_path, capsys,
                                                              monkeypatch):
        data = json.loads((Path(caproof.__file__).parent / "catalog" / "models"
                           / "dense-70b.json").read_text())
        path = tmp_path / "two-bit.json"
        path.write_text(json.dumps({**data, "weight_bits": 2}))
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["caproof", argv[0], "--model", str(path),
                                          "--hardware", "b200-sxm", *argv[1:],
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: key 'weight_bits': b200-sxm has no peak-FLOPs entry for 2-bit; "
            "available precisions: 4, 8, 16\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "agent-profile"])
    @pytest.mark.parametrize("changes, message", [
        ({"peak_flops": {"16": 3e307}}, "peak_flops[16] must be <= 1e100, got 3e+307"),
        ({"peak_flops": {"16": 1e308}}, "peak_flops[16] must be <= 1e100, got 1e+308"),
        ({"mem_bandwidth": 1e-293}, "mem_bandwidth must be >= 1e-100, got 1e-293"),
        ({"peak_flops": {"16": 1e-300}, "mem_bandwidth": 1e300},
         "peak_flops[16] must be >= 1e-100, got 1e-300"),
        ({"peak_flops": {"4": 9.0e15, "8": 1e101, "16": 2.25e15}},
         "peak_flops[8] must be <= 1e100, got 1e+101"),
    ], ids=["peak-axis-overflow", "peak-overflow", "ridge-overflow", "ridge-underflow",
            "unused-precision-overflow"])
    def test_extreme_finite_rates_name_file_and_key(self, command, changes, message, tmp_path,
                                                    capsys, monkeypatch):
        """Finite rates whose ridge or roofline axes leave float range, at any precision:
        the 16-bit model never reads the 8-bit rate."""
        data = json.loads((Path(caproof.__file__).parent / "catalog" / "hardware"
                           / "b200-sxm.json").read_text())
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({**data, **changes}))
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["caproof", command, "--model", "dense-70b",
                                          "--hardware", str(path), "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "agent-profile"])
    def test_capacity_beyond_1e100_names_file_and_key(self, command, tmp_path, capsys,
                                                      monkeypatch):
        """A capacity whose largest per-device batch no float holds."""
        data = json.loads((Path(caproof.__file__).parent / "catalog" / "hardware"
                           / "b200-sxm.json").read_text())
        hardware = tmp_path / "huge.json"
        hardware.write_text(json.dumps({**data, "mem_capacity": 1.7e308}))
        model = tmp_path / "tiny.json"
        model.write_text(json.dumps({"type": "model", "name": "tiny", "num_layers": 1,
                                     "d_model": 1, "num_heads": 1, "d_ff": 1, "head_dim": 1,
                                     "kv_bits": 2}))
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["caproof", command, "--model", str(model),
                                          "--hardware", str(hardware), "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == (f"error: {hardware}: mem_capacity must be "
                                           "<= 1e100, got 1.7e+308\n")
        assert not out.exists()

    def test_scalar_bound_is_two_to_the_53(self):
        assert parse_scalar(str(2**53)) == 2**53
        assert parse_scalar("-9007199254740992") == -2**53
        with pytest.raises(ConfigError, match=r"beyond 2\*\*53"):
            parse_scalar(str(2**53 + 1))
        with pytest.raises(ConfigError, match=r"beyond 2\*\*53"):
            parse_scalar("9007199254740993")
        with pytest.raises(ConfigError, match=r"^integer beyond 2\*\*53: '9007199254741k'$"):
            parse_scalar("9007199254741K")

    @pytest.fixture
    def grids(self, monkeypatch):
        """The (batches, contexts, phases) each iter_grid call gets; the call
        then stops the command, so no grid is analysed."""
        calls = []

        def stopped(spec, hw, batches, contexts, phases, *flags):
            calls.append((len(set(batches)), len(set(contexts)), len(phases)))
            raise GridReached

        monkeypatch.setattr(cli, "iter_grid", stopped)
        return calls

    @pytest.mark.parametrize("argv, flag, rows", [
        (["sweep", "--grid", "B=1..100001,L=1..100001"], "--grid", 2 * 100001 * 100001),
        (["sweep", "--grid", "B=1..2001,L=1..1000", "--phase", "decode"], "--grid", 2001000),
        (["analyze", "--batch", ",".join(map(str, range(1, 1002))),
          "--context", ",".join(map(str, range(1, 1001)))], "--batch", 2 * 1001 * 1000),
        (["analyze", "--context", ",".join(map(str, range(1, 1000002)))], "--context",
         2 * 1000001),
        (["roofline-plot", "--context", ",".join(map(str, range(1, 1002))),
          "--batch", ",".join(map(str, range(1, 1001)))], "--batch", 2 * 1000 * 1001),
    ])
    def test_oversized_grid_names_the_flag(self, argv, flag, rows, tmp_path, grids):
        with pytest.raises(ConfigError) as exc:
            run([argv[0], "--model", "dense-70b", "--hardware", "b200-sxm", *argv[1:],
                 "--out", str(tmp_path)])
        assert str(exc.value) == (f"{flag}: the grid has {rows} rows, "
                                  f"more than {cli.MAX_GRID_ROWS}")
        assert grids == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, shape", [
        (["sweep", "--grid", "B=1..1000,L=1..1000"], (1000, 1000, 2)),
        (["sweep", "--grid", "B=1..2000,L=1..1000", "--phase", "prefill"], (2000, 1000, 1)),
    ])
    def test_grid_of_max_rows_reaches_the_analysis(self, argv, shape, tmp_path, grids):
        assert cli.MAX_GRID_ROWS == 2_000_000
        with pytest.raises(GridReached):
            run([argv[0], "--model", "dense-70b", "--hardware", "b200-sxm", *argv[1:],
                 "--out", str(tmp_path)])
        assert grids == [shape]
        assert not list(tmp_path.iterdir())
