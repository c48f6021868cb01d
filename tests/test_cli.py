"""CLI tests: exit codes, diagnostics, seed resolution, file outputs, and
byte-stable rendering.  Commands run in-process through main()."""

import contextlib
import errno
import io
import json
import random
import tempfile
import xml.dom.minidom
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pushplan import Rect, Scene, Vec2, scene_to_json
from pushplan import cli, render
from pushplan.bench import BenchConfig, BenchError, generate_scene
from pushplan.cli import main
from pushplan.executor import execute
from pushplan.io import load, plan_from_dict, report_to_dict
from pushplan.metrics import set_down_pose
from pushplan.planner import PlannerConfig
from pushplan.render import RenderStyle, render_scene
from pushplan.scene import apply_action
from pushplan.simulator import NoiseConfig

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


def assert_frames(frames: Path, style: RenderStyle, states: list, actions: list) -> None:
    """Frame ``i`` is ``render_scene`` of ``states[i]``, titled "step i", with
    a cross where ``actions[i - 1]`` set its object down; frame 0 has none."""
    assert sorted(p.name for p in frames.iterdir()) == [f"frame_{i:03d}.svg" for i in range(len(states))]
    assert "<path" not in (frames / "frame_000.svg").read_text()
    for i, state in enumerate(states):
        gripper = set_down_pose(states[i - 1], actions[i - 1]) if i else None
        want = render_scene(state, style, title=f"step {i}", gripper=gripper)
        assert (frames / f"frame_{i:03d}.svg").read_text() == want, i


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

    def test_an_os_error_without_a_path_is_not_reported_as_an_output(self, swap_file, monkeypatch):
        # Only an unwritable output names a path; any other OSError is a fault and propagates.
        def failing(args):
            raise OSError(errno.EIO, "x")

        monkeypatch.setattr(cli, "_cmd_plan", failing)
        with pytest.raises(OSError) as raised:
            main(["plan", swap_file])
        assert raised.value.errno == errno.EIO and raised.value.filename is None


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
            "execute", swap_file, "--expansions", "2000", "--noise", "--seed", "9",
            "--frames", str(frames), "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 0
        # The same execution in-process, for the observed scenes the report file omits.
        report = execute(make_swap_scene(), PlannerConfig(max_expansions=2000, seed=9),
                         NoiseConfig(enabled=True), rng=random.Random(9))
        assert report_to_dict(report) == json.loads((tmp_path / "report.json").read_text())
        assert len(report.steps) == 2
        assert_frames(frames, RenderStyle(), [make_swap_scene()] + [s.post_scene for s in report.steps],
                      [s.executed_action for s in report.steps])

    def test_noisy_execution_is_seed_stable(self, swap_file, capsys):
        rc = main(["execute", swap_file, "--expansions", "2000", "--noise", "--seed", "9"])
        out_a = capsys.readouterr().out
        rc2 = main(["execute", swap_file, "--expansions", "2000", "--noise", "--seed", "9"])
        out_b = capsys.readouterr().out
        assert rc == rc2
        assert out_a == out_b


class TestRenderCommand:
    @pytest.mark.parametrize("fields, name", [
        ({"scale": float("inf")}, "scale"), ({"scale": "x"}, "scale"), ({"show_goals": "no"}, "show_goals"),
    ])
    def test_a_style_field_outside_its_rule_is_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            RenderStyle(**fields)

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

    @given(st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs", "Cc"])))
    def test_escape_matches_saxutils(self, text):
        """``saxutils.escape`` of the text with each character outside XML 1.0's
        ``Char`` production (#x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD]
        | [#x10000-#x10FFFF]) replaced by U+FFFD."""
        from xml.sax.saxutils import escape

        def xml_char(c):
            o = ord(c)
            return o in (0x9, 0xA, 0xD) or 0x20 <= o <= 0xD7FF or 0xE000 <= o <= 0xFFFD or 0x10000 <= o
        assert render._escape(text) == escape("".join(c if xml_char(c) else "\ufffd" for c in text))

    @pytest.mark.parametrize("color, drawn, title", [
        ("red\x01", "red\ufffd", "a\x01b"), ("\ud800", "\ufffd", "a\udcffb")])
    def test_text_xml_cannot_hold_is_replaced(self, color, drawn, title):
        """A control character or a lone surrogate in a color or a title is
        drawn as U+FFFD, so the SVG parses and encodes as UTF-8."""
        swap = make_swap_scene()
        scene = replace(swap, objects=tuple(replace(spec, color=color) for spec in swap.objects))
        svg = render_scene(scene, title=title)
        doc = xml.dom.minidom.parseString(svg.encode("utf-8"))
        fills = [r.getAttribute("fill") for r in doc.getElementsByTagName("rect") if r.hasAttribute("fill-opacity")]
        assert fills == [drawn, drawn]
        assert doc.getElementsByTagName("text")[-1].firstChild.data == "a\ufffdb"

    @pytest.mark.parametrize("title", ["a\x01b", "a\udcffb"])
    def test_title_xml_cannot_hold_renders_to_a_file(self, swap_file, tmp_path, title):
        # ``a\udcffb`` is how Python decodes the non-UTF-8 argument b"a\xffb".
        out = tmp_path / "title.svg"
        assert main(["render", swap_file, "--title", title, "--out", str(out)]) == 0
        doc = xml.dom.minidom.parse(str(out))
        assert doc.getElementsByTagName("text")[-1].firstChild.data == "a\ufffdb"

    def test_frames_require_plan(self, swap_file, tmp_path, capsys):
        rc = main(["render", swap_file, "--frames", str(tmp_path / "f")])
        assert rc == 1
        assert "--frames requires --plan" in capsys.readouterr().err

    def test_plan_replay_frames(self, swap_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", swap_file, "--expansions", "3000", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        frames = tmp_path / "frames"
        rc = main(["render", swap_file, "--plan", str(plan_file), "--frames", str(frames), "--no-goals"])
        assert rc == 0
        actions = load(str(plan_file), plan_from_dict).actions
        states = [make_swap_scene()]
        for action in actions:
            states.append(apply_action(states[-1], action))
        assert len(states) == 3
        assert_frames(frames, RenderStyle(show_goals=False), states, actions)

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
        """``--out`` naming a file, or a path under one, exits 1 naming the file
        before any run is planned."""
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli, "run_benchmark", no_sweep)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        for out in (taken, taken / "sub"):
            rc = main(self.ARGS + ["--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 1, out
            assert f"{taken}: File exists" in err and "Traceback" not in err
            assert taken.read_text() == "keep"

    def test_variant_names_are_escaped_in_charts(self):
        summary = {"cells": [{"variant": "a<b", "n": 3, "mean_cost": 1.5, "mean_actions": 2.0}]}
        doc = xml.dom.minidom.parseString(render.render_benchmark_charts(summary))
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
        assert "a<b" in texts

    def test_charts_of_all_zero_cells_keep_a_unit_scale(self):
        summary = {"cells": [{"variant": v, "n": 3, "mean_cost": 0.0, "mean_actions": 0.0} for v in ("a", "b")]}
        doc = xml.dom.minidom.parseString(render.render_benchmark_charts(summary))
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
        assert texts.count("1.00") == 2 and "nan" not in " ".join(texts)
        bars = [r for r in doc.getElementsByTagName("rect") if r.getAttribute("fill") in render.PALETTE]
        assert {r.getAttribute("height") for r in bars if r.getAttribute("width") != "10"} == {"0.000000"}

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
    def test_pplan_seed_in_the_environment_leaves_a_plan_unchanged(self, monkeypatch, capsys):
        """A run's whole input is its command line and ``--config`` document: ``PPLAN_SEED``,
        which once set the seed, is not read.  On this scene seeds 0 and 5 plan differently."""
        argv = ["plan", str(FIXTURES / "exec_cluttered.json"), "--expansions", "300"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--seed", "5"]) == 0
        assert capsys.readouterr().out != plain
        monkeypatch.setenv("PPLAN_SEED", "5")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain


class _Built(Exception):
    """Raised with the config a command built, so the command stops there."""


# (commands, PPLAN_SEED, --config document, flags, fields expected).  "seed"
# stands for the seed field: ``seed`` of a planner config, ``master_seed`` of
# a bench config.  No command reads ``PPLAN_SEED``: a value set in the
# environment, an integer or not, changes no field.
PLANNER, BENCH, ALL = ("plan", "execute"), ("bench",), ("plan", "execute", "bench")
PRECEDENCE = [
    (ALL, "9", {"seed": 7}, ["--seed", "5"], {"seed": 5}),
    (ALL, "9", {"seed": 7}, [], {"seed": 7}),
    (ALL, "9", None, [], {"seed": 0}),
    (ALL, None, None, [], {"seed": 0}),
    (ALL, "twelve", None, ["--seed", "5"], {"seed": 5}),
    (ALL, "twelve", {"seed": 7}, [], {"seed": 7}),
    (ALL, None, {"max_expansions": 500}, ["--time-budget", "0.25"], {"max_expansions": None, "time_budget_s": 0.25}),
    (ALL, None, {"time_budget_s": 0.5}, ["--expansions", "300"], {"max_expansions": 300, "time_budget_s": None}),
    (PLANNER, None, {"push_enabled": True}, ["--no-push"], {"push_enabled": False}),
    (BENCH, None, {"scenes_per_count": 5}, ["--scenes", "2"], {"scenes_per_count": 2}),
    (BENCH, None, {"runs_per_scene": 5}, ["--runs", "2"], {"runs_per_scene": 2}),
    (BENCH, None, {"object_counts": [5]}, ["--counts", "3,4"], {"object_counts": (3, 4)}),
]


@pytest.mark.parametrize("command, env, doc, flags, want", [
    (command, *case) for commands, *case in PRECEDENCE for command in commands])
def test_command_line_over_config_over_env(swap_file, tmp_path, monkeypatch, command, env, doc, flags, want):
    """Each of ``plan``, ``execute`` and ``bench`` builds its config with the same precedence: a flag
    over the ``--config`` document over the default.  The environment is under all three: it sets nothing."""
    def built(*args, **kwargs):
        raise _Built(next(a for a in args if isinstance(a, (PlannerConfig, BenchConfig))))

    monkeypatch.setattr(cli, {"bench": "run_benchmark"}.get(command, command), built)
    if env is not None:
        monkeypatch.setenv("PPLAN_SEED", env)
    seed = "master_seed" if command == "bench" else "seed"
    argv = [command] + ([] if command == "bench" else [swap_file]) + ["--out", str(tmp_path / "out")] + flags
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({seed if k == "seed" else k: v for k, v in doc.items()}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    with pytest.raises(_Built) as e:
        main(argv)
    cfg = e.value.args[0]
    assert {k: getattr(cfg, seed if k == "seed" else k) for k in want} == want


def run_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def assert_commands_exit_cleanly(scene: Scene) -> None:
    """Every command on ``scene`` exits 0, or 2 when planning or execution
    fails, with no traceback; every plan written renders."""
    with tempfile.TemporaryDirectory() as tmp:
        scene_file = str(Path(tmp) / "scene.json")
        Path(scene_file).write_text(scene_to_json(scene))
        for i, flags in enumerate(([], ["--no-push"])):
            plan_file = str(Path(tmp) / f"plan{i}.json")
            rc, err = run_main(["plan", scene_file, "--expansions", "300", "--out", plan_file, *flags])
            assert rc in (0, 2) and "Traceback" not in err, err
            if rc == 0:
                rc, err = run_main(["render", scene_file, "--plan", plan_file, "--out", str(Path(tmp) / "p.svg")])
                assert rc == 0 and "Traceback" not in err, err
        rc, err = run_main(["execute", scene_file, "--expansions", "300", "--noise"])
        assert rc in (0, 2) and "Traceback" not in err, err


class TestValidScenesEndToEnd:
    @settings(max_examples=25)
    @given(
        corner=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        sides=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
        n=st.integers(1, 8),
        halves=st.tuples(st.floats(0.01, 0.08), st.floats(0.01, 0.08)),
        tolerance=st.floats(1e-4, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_plan_execute_and_render_exit_cleanly(self, corner, sides, n, halves, tolerance, seed):
        """Anywhere near the origin, on a non-square table."""
        assume(sides[0] != sides[1])
        (x0, y0), (w, h) = corner, sides
        workspace = Rect(Vec2(x0, y0), Vec2(x0 + w, y0 + h))
        try:
            scene = generate_scene(n, seed, workspace, (min(halves), max(halves)), tolerance)
        except BenchError:
            assume(False)
        assert_commands_exit_cleanly(scene)

    @pytest.mark.parametrize("x0, y0", [
        (sx * m, sy * m) for m in (1e6, 1e9, 1e12) for sx in (1, -1) for sy in (1, -1)
    ])
    def test_far_from_the_origin(self, x0, y0):
        """Six large objects, whose push plan holds two pushes, on a table
        whose lower corner is up to 1e12 m out, where an ulp is 1.2e-4 m."""
        workspace = Rect(Vec2(x0, y0), Vec2(x0 + 1.2, y0 + 0.9))
        assert_commands_exit_cleanly(generate_scene(6, 0, workspace, (0.05, 0.079)))
