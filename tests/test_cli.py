"""CLI tests: exit codes, diagnostics, seed resolution, file outputs, and
byte-stable rendering.  Commands run in-process through main()."""

import json
import xml.dom.minidom
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pushplan import Rect, Scene, Vec2, scene_to_json
from pushplan import cli, render
from pushplan.bench import BenchConfig, BenchVariant, run_benchmark, write_benchmark_outputs
from pushplan.cli import main

from conftest import make_swap_scene

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(scene_to_json(make_swap_scene()))
    return str(path)


@pytest.fixture()
def solved_file(tmp_path):
    scene = make_swap_scene()
    solved = Scene(
        workspace=scene.workspace,
        objects=scene.objects,
        current=scene.goal,
        goal=scene.goal,
        tolerance=scene.tolerance,
    )
    path = tmp_path / "solved.json"
    path.write_text(scene_to_json(solved))
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PPLAN_SEED", raising=False)


class TestPlanCommand:
    def test_swap_plan_to_stdout(self, swap_file, capsys):
        rc = main(["plan", swap_file, "--expansions", "3000", "--seed", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["actions"]) == 2
        types = {a["type"] for a in doc["actions"]}
        assert "push_place" in types

    def test_plan_out_file(self, swap_file, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = main(["plan", swap_file, "--expansions", "3000", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["total"] > 0
        assert "2 actions" in capsys.readouterr().out

    def test_already_solved_scene_gives_empty_plan(self, solved_file, capsys):
        rc = main(["plan", solved_file, "--expansions", "50"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["actions"] == []
        assert doc["total"] == 0.0

    def test_starved_budget_exits_2(self, swap_file, capsys):
        rc = main(["plan", swap_file, "--expansions", "1"])
        assert rc == 2
        assert "no plan found" in capsys.readouterr().err

    def test_no_push_flag_forbids_pushes(self, swap_file, capsys):
        rc = main(["plan", swap_file, "--expansions", "3000", "--no-push"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(a["type"] == "pick_place" for a in doc["actions"])
        assert len(doc["actions"]) >= 3


class TestDiagnostics:
    def test_missing_file(self, capsys):
        rc = main(["plan", "/nonexistent/scene.json"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_truncated_json_names_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"workspace": [0, 0, 1')
        rc = main(["plan", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid JSON at line 1" in err

    def test_invalid_scene_reports_objects(self, tmp_path, capsys):
        scene = {
            "workspace": [0, 0, 1, 1],
            "objects": [{"a": 0.1, "b": 0.1}, {"a": 0.1, "b": 0.1}],
            "start": [[0.5, 0.5], [0.52, 0.5]],
            "goal": [[0.2, 0.2], [0.8, 0.8]],
        }
        path = tmp_path / "badscene.json"
        path.write_text(json.dumps(scene))
        rc = main(["plan", str(path)])
        assert rc == 1
        assert "overlap" in capsys.readouterr().err

    def test_malformed_object_entry_names_index(self, tmp_path, capsys):
        scene = {
            "workspace": [0, 0, 1, 1],
            "objects": [{"a": 0.1, "b": 0.1}, [0.1, 0.1]],
            "start": [[0.2, 0.2], [0.8, 0.8]],
            "goal": [[0.8, 0.2], [0.2, 0.8]],
        }
        path = tmp_path / "badscene.json"
        path.write_text(json.dumps(scene))
        rc = main(["plan", str(path)])
        assert rc == 1
        assert "objects[1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [("objects", 5, "'objects' must be a list"),
         ("start", [["x", 0.2], [0.8, 0.8]], "'start[0][0]' must be a number"),
         ("epsilon", "inf", "'epsilon' must be finite")],
    )
    def test_malformed_fields_exit_1_without_traceback(self, tmp_path, capsys, field, value, message):
        scene = {
            "workspace": [0, 0, 1, 1],
            "objects": [{"a": 0.1, "b": 0.1}, {"a": 0.1, "b": 0.1}],
            "start": [[0.2, 0.2], [0.8, 0.8]],
            "goal": [[0.8, 0.2], [0.2, 0.8]],
        }
        scene[field] = value
        path = tmp_path / "badscene.json"
        path.write_text(json.dumps(scene))
        rc = main(["plan", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert message in err
        assert "Traceback" not in err

    def test_unknown_planner_field(self, swap_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_expansion": 100}))
        rc = main(["plan", swap_file, "--config", str(cfg)])
        assert rc == 1
        assert "max_expansion" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("exploration_c", 1.4), ("buffer_max_attempts", 5)])
    def test_fixed_search_constants_are_unknown_fields(self, swap_file, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        rc = main(["plan", swap_file, "--config", str(cfg)])
        assert rc == 1
        assert f"unknown field '{field}'" in capsys.readouterr().err

    def test_unknown_push_field(self, swap_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"push": {"clearence": 0.005}}))
        rc = main(["plan", swap_file, "--config", str(cfg)])
        assert rc == 1
        assert "unknown field 'push'" in capsys.readouterr().err

    def test_bad_side_order_value(self, swap_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"push": {"side_order": ["left", "sideways"]}}))
        rc = main(["plan", swap_file, "--config", str(cfg)])
        assert rc == 1
        assert "unknown field 'push'" in capsys.readouterr().err

    def test_config_file_drives_the_search(self, swap_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_expansions": 3000, "seed": 4}))
        rc = main(["plan", swap_file, "--config", str(cfg)])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["actions"]) == 2


class TestExecuteCommand:
    def test_zero_noise_swap_succeeds(self, swap_file, capsys):
        rc = main(["execute", swap_file, "--expansions", "3000"])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["terminated_by"] == "all_at_goal"
        assert doc["total_actions"] == 2
        assert "plan_rounds" not in doc
        assert "2 actions, 1 plan rounds," in captured.err
        assert "terminated by all_at_goal" in captured.err

    def test_step_budget_failure_exits_2(self, swap_file, capsys):
        rc = main(["execute", swap_file, "--expansions", "3000", "--step-budget", "1"])
        assert rc == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["terminated_by"] == "step_budget"

    def test_zero_step_budget_rejected(self, swap_file, capsys):
        rc = main(["execute", swap_file, "--step-budget", "0"])
        assert rc == 1
        assert "--step-budget" in capsys.readouterr().err

    def test_frames_written_with_gripper(self, swap_file, tmp_path, capsys):
        frames = tmp_path / "frames"
        rc = main([
            "execute", swap_file, "--expansions", "3000",
            "--frames", str(frames), "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 0
        files = sorted(p.name for p in frames.iterdir())
        assert files == ["frame_000.svg", "frame_001.svg", "frame_002.svg"]
        # set-down cross appears on executed frames, not the initial one
        assert "<path" not in (frames / "frame_000.svg").read_text()
        assert "<path" in (frames / "frame_001.svg").read_text()

    def test_noisy_execution_is_seed_stable(self, swap_file, capsys):
        rc = main(["execute", swap_file, "--expansions", "2000", "--noise", "--seed", "9"])
        out_a = capsys.readouterr().out
        rc2 = main(["execute", swap_file, "--expansions", "2000", "--noise", "--seed", "9"])
        out_b = capsys.readouterr().out
        assert rc == rc2
        assert out_a == out_b


class TestRenderCommand:
    def test_empty_scene_renders_border_only(self, tmp_path, capsys):
        empty = Scene(workspace=Rect(Vec2(0, 0), Vec2(1, 1)), objects=(), current=(), goal=())
        path = tmp_path / "empty.json"
        path.write_text(scene_to_json(empty))
        rc = main(["render", str(path)])
        assert rc == 0
        svg = capsys.readouterr().out
        assert svg.count("<rect") == 1
        assert svg.count("<text") == 0

    def test_swap_scene_markup(self, swap_file, capsys):
        rc = main(["render", swap_file])
        assert rc == 0
        svg = capsys.readouterr().out
        assert svg.count("<rect") == 5  # border + 2 goals + 2 objects
        assert svg.count("stroke-dasharray") == 2
        assert svg.count("fill-opacity") == 2
        assert svg.count("<text") == 2

    def test_no_goals_hides_dashes(self, swap_file, capsys):
        rc = main(["render", swap_file, "--no-goals"])
        svg = capsys.readouterr().out
        assert rc == 0
        assert "stroke-dasharray" not in svg
        assert svg.count("<rect") == 3

    def test_golden_swap_svg(self, swap_file, tmp_path):
        out = tmp_path / "swap.svg"
        rc = main(["render", swap_file, "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (GOLDEN / "swap_scene.svg").read_bytes()

    def test_golden_plan_render_svg(self, tmp_path):
        # The replayed scene carries a footprint cache (``apply_action``),
        # unlike the loaded scene ``swap_scene.svg`` draws.
        out = tmp_path / "plan.svg"
        rc = main([
            "render", str(FIXTURES / "swap.json"), "--plan", str(GOLDEN / "plan_swap.json"), "--out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == (GOLDEN / "plan_swap_render.svg").read_bytes()

    def test_text_and_colors_are_escaped(self, tmp_path, capsys):
        swap = make_swap_scene()
        injected = 'red" onload="alert(1)'
        objects = tuple(replace(spec, color=injected) for spec in swap.objects)
        path = tmp_path / "colored.json"
        path.write_text(scene_to_json(replace(swap, objects=objects)))
        rc = main(["render", str(path), "--title", "a < b & c"])
        assert rc == 0
        root = ET.fromstring(capsys.readouterr().out)
        elements = list(root.iter())
        assert not any("onload" in el.attrib for el in elements)
        filled = [el for el in elements if el.get("fill-opacity") is not None]
        assert [el.get("fill") for el in filled] == [injected, injected]
        assert [el.text for el in elements if el.text and "<" in el.text] == ["a < b & c"]

    @given(st.text())
    def test_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape

        assert render._escape(text) == escape(text)

    def test_frames_require_plan(self, swap_file, tmp_path, capsys):
        rc = main(["render", swap_file, "--frames", str(tmp_path / "f")])
        assert rc == 1
        assert "--frames requires --plan" in capsys.readouterr().err

    def test_plan_replay_frames(self, swap_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", swap_file, "--expansions", "3000", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        frames = tmp_path / "frames"
        rc = main(["render", swap_file, "--plan", str(plan_file), "--frames", str(frames)])
        assert rc == 0
        files = sorted(p.name for p in frames.iterdir())
        assert files == ["frame_000.svg", "frame_001.svg", "frame_002.svg"]
        assert (frames / "frame_000.svg").read_text() != (frames / "frame_002.svg").read_text()

    def test_plan_replay_final_state(self, swap_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", swap_file, "--expansions", "3000", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        rc = main(["render", swap_file, "--plan", str(plan_file)])
        assert rc == 0
        svg = capsys.readouterr().out
        assert svg.count("<rect") == 5

    def test_plan_that_does_not_replay(self, solved_file, swap_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", swap_file, "--expansions", "3000", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        rc = main(["render", solved_file, "--plan", str(plan_file)])
        assert rc == 1
        assert "does not replay" in capsys.readouterr().err

    def test_push_onto_a_touching_neighbour_does_not_replay(self, capsys):
        # The push would land blocker 1 on object 2, which touches the face a
        # translation of blocker 1's bounds gives but overlaps its landing
        # footprint by one ulp: validation rejects it, with no traceback.
        rc = main(["render", str(FIXTURES / "touching_push.json"),
                   "--plan", str(FIXTURES / "touching_push_plan.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "plan does not replay on this scene" in err and "push corridor of blocker 1" in err
        assert "Traceback" not in err


class TestBenchCommand:
    ARGS = ["bench", "--counts", "3", "--scenes", "2", "--runs", "1",
            "--expansions", "500", "--seed", "7"]

    def test_bench_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(self.ARGS + ["--out", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"records.csv", "summary.json", "summary.csv", "charts.svg"}
        stdout = capsys.readouterr().out
        assert "N=3:" in stdout

    def test_bench_outputs_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b), "--jobs", "2"]) == 0
        capsys.readouterr()
        for name in ("records.csv", "summary.json", "summary.csv", "charts.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_existing_file_as_out_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli, "run_benchmark", no_sweep)
        out = tmp_path / "taken"
        out.write_text("keep")
        rc = main(self.ARGS + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{out}: File exists" in err and "Traceback" not in err
        assert out.read_text() == "keep"

    def test_variant_names_are_escaped_in_charts(self, tmp_path):
        cfg = BenchConfig(object_counts=(3,), scenes_per_count=2, runs_per_scene=1,
                          variants=(BenchVariant("a<b", True),), max_expansions=300,
                          time_budget_s=None)
        write_benchmark_outputs(cfg, run_benchmark(cfg), tmp_path)
        doc = xml.dom.minidom.parse(str(tmp_path / "charts.svg"))
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
        assert "a<b" in texts

    def test_unknown_bench_field(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"scene_count": 4}))
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "scene_count" in capsys.readouterr().err

    def test_bad_counts_flag(self, tmp_path, capsys):
        rc = main(["bench", "--counts", "3,x", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "--counts" in capsys.readouterr().err


class TestSeedResolution:
    def test_env_seed_used_when_no_flag(self, swap_file, monkeypatch, capsys):
        monkeypatch.setenv("PPLAN_SEED", "123")
        assert main(["plan", swap_file, "--expansions", "2000"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("PPLAN_SEED")
        assert main(["plan", swap_file, "--expansions", "2000", "--seed", "123"]) == 0
        with_flag = capsys.readouterr().out
        assert with_env == with_flag

    def test_flag_overrides_env(self, swap_file, monkeypatch, capsys):
        monkeypatch.setenv("PPLAN_SEED", "5")
        assert main(["plan", swap_file, "--expansions", "2000", "--seed", "0"]) == 0
        with_both = capsys.readouterr().out
        monkeypatch.delenv("PPLAN_SEED")
        assert main(["plan", swap_file, "--expansions", "2000"]) == 0
        plain = capsys.readouterr().out
        assert with_both == plain

    def test_config_seed_beats_env(self, swap_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PPLAN_SEED", "5")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 123, "max_expansions": 2000}))
        assert main(["plan", swap_file, "--config", str(cfg)]) == 0
        via_config = capsys.readouterr().out
        monkeypatch.delenv("PPLAN_SEED")
        assert main(["plan", swap_file, "--expansions", "2000", "--seed", "123"]) == 0
        via_flag = capsys.readouterr().out
        assert via_config == via_flag

    def test_garbage_env_seed_is_an_error(self, swap_file, capsys, monkeypatch):
        monkeypatch.setenv("PPLAN_SEED", "twelve")
        rc = main(["plan", swap_file, "--expansions", "100"])
        assert rc == 1
        assert "PPLAN_SEED" in capsys.readouterr().err
