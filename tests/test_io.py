"""The input boundary: fuzzed documents, the config tables, and every
malformed input of the CLI exiting 1 with a message naming its field."""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_swap_scene
from pushplan import io
from pushplan.bench import BenchConfig
from pushplan.cli import main
from pushplan.io import SceneFormatError
from pushplan.metrics import total_cost
from pushplan.planner import Plan, PlannerConfig, plan
from pushplan.render import RenderStyle
from pushplan.scene import Scene
from pushplan.simulator import NoiseConfig

SCENE_DOC = io.scene_to_dict(make_swap_scene())
PLAN_DOC = io.plan_to_dict(plan(make_swap_scene(), PlannerConfig(max_expansions=3000, seed=0)))
PLANNER_DOC = {"max_expansions": 5000, "time_budget_s": None, "push_enabled": True, "seed": 7}
BENCH_DOC = {
    "master_seed": 0, "object_counts": [4, 6], "scenes_per_count": 2, "runs_per_scene": 1,
    "max_expansions": 100, "time_budget_s": None, "size_range": [0.03, 0.07], "tolerance": 0.005,
}


def _load_scene(doc):
    scene = io.scene_from_dict(doc)
    assert isinstance(scene, Scene)
    assert io.scene_from_dict(io.scene_to_dict(scene)) == scene


def _load_plan(doc):
    p = io.plan_from_dict(doc)
    assert isinstance(p, Plan) and math.isfinite(p.total)
    assert all(isinstance(a.object, int) and not isinstance(a.object, bool) for a in p.actions)
    back = io.plan_from_dict(io.plan_to_dict(p))
    assert back.actions == p.actions and back.costs == p.costs


def _load_planner_config(doc):
    cfg = io.planner_config_from_dict(doc)
    assert cfg.max_expansions is None or cfg.max_expansions >= 1
    assert cfg.time_budget_s is None or cfg.time_budget_s > 0
    assert isinstance(cfg.push_enabled, bool) and type(cfg.seed) is int


def _load_bench_config(doc):
    cfg = io.bench_config_from_dict(doc)
    assert cfg.object_counts and all(type(n) is int and n >= 1 for n in cfg.object_counts)
    assert cfg.scenes_per_count >= 1 and cfg.runs_per_scene >= 1
    assert 0 < cfg.size_range[0] <= cfg.size_range[1] and cfg.tolerance > 0
    assert cfg.max_expansions is None or cfg.time_budget_s is None


LOADERS = {
    "scene": (_load_scene, SCENE_DOC),
    "plan": (_load_plan, PLAN_DOC),
    "planner config": (_load_planner_config, PLANNER_DOC),
    "bench config": (_load_bench_config, BENCH_DOC),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(min_value=-(10**400), max_value=10**400) | st.sampled_from([0, 1, -1, 0.5, "left", "inf"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_DELETE = object()


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@st.composite
def mutated(draw, base):
    """``base`` with one entry, anywhere in it, replaced by any JSON value or deleted."""
    path = draw(st.sampled_from(list(_paths(base))))
    return _replaced(base, path, draw(st.just(_DELETE) | json_values))


def _loads_or_format_error(kind, doc):
    load, _ = LOADERS[kind]
    try:
        load(doc)
    except SceneFormatError as e:
        assert str(e)


class TestFuzz:
    @pytest.mark.parametrize("kind", LOADERS)
    def test_base_documents_load(self, kind):
        load, base = LOADERS[kind]
        load(base)

    @pytest.mark.parametrize("kind", LOADERS)
    @given(doc=json_values)
    def test_any_json_value(self, kind, doc):
        _loads_or_format_error(kind, doc)

    @pytest.mark.parametrize("kind", LOADERS)
    @given(data=st.data())
    def test_one_bad_entry(self, kind, data):
        _loads_or_format_error(kind, data.draw(mutated(LOADERS[kind][1])))

    @given(text=st.text(max_size=40) | st.just("[" * 100_000))
    def test_any_scene_text(self, text):
        try:
            io.scene_from_json(text)
        except SceneFormatError:
            pass


CONFIG_FIELDS = [(kind, f.name) for kind in (PlannerConfig, BenchConfig, NoiseConfig, RenderStyle)
                 for f in dataclasses.fields(kind)]


def _numbers(value):
    """The numbers in a field's value: the value itself, or a tuple's entries."""
    return [v for v in (value if isinstance(value, tuple) else (value,)) if not isinstance(v, (bool, type(None)))]


# Positive numbers, ints among them, a few too large for a float.
POSITIVE = st.floats(min_value=0.0, exclude_min=True) | st.integers(1, 10**400)


class TestConfigClasses:
    @given(value=json_values, as_tuple=st.booleans())
    def test_any_field_value_builds_or_raises_value_error(self, value, as_tuple):
        """A config class either builds, with every number convertible to a finite float, or raises
        ``ValueError`` quoting the field: never ``TypeError`` or ``OverflowError``.  A list is also
        tried as a tuple."""
        if as_tuple and isinstance(value, list):
            value = tuple(value)
        for kind, field in CONFIG_FIELDS:
            try:
                cfg = kind(**{field: value})
            except ValueError as e:
                assert f"'{field}'" in str(e)
                continue
            for f in dataclasses.fields(cfg):
                assert all(math.isfinite(float(v)) for v in _numbers(getattr(cfg, f.name))), (kind, field, value)

    @given(fields=st.fixed_dictionaries({}, optional={
        "master_seed": st.none() | st.integers(-(10**400), 10**400),
        "object_counts": st.lists(st.integers(1, 10**20), min_size=1, max_size=3, unique=True).map(tuple),
        "scenes_per_count": st.integers(1, 10**20),
        "runs_per_scene": st.integers(1, 10**20),
        "size_range": st.tuples(POSITIVE, POSITIVE),
        "tolerance": POSITIVE,
    }), budget=st.fixed_dictionaries({"max_expansions": st.integers(1, 10**400)})
       | st.fixed_dictionaries({"max_expansions": st.none(), "time_budget_s": POSITIVE}))
    def test_any_bench_config_reads_back_from_its_summary_document(self, fields, budget):
        """The contract a ``bench --config`` rerun of ``summary.json``'s config relies on: any
        ``BenchConfig`` that builds reads back equal from its document, through JSON text."""
        try:
            cfg = BenchConfig(**fields, **budget)
        except ValueError:
            return
        doc = json.loads(json.dumps(io.bench_config_to_dict(cfg)))
        assert io.bench_config_from_dict(doc) == cfg


class TestTables:
    def test_config_tables_cover_the_dataclasses(self):
        assert set(io._PLANNER_FIELDS) == {f.name for f in dataclasses.fields(PlannerConfig)}
        assert set(io._BENCH_FIELDS) == {f.name for f in dataclasses.fields(BenchConfig)}

    def test_valid_documents_keep_their_values(self):
        assert io.planner_config_from_dict(PLANNER_DOC) == PlannerConfig(max_expansions=5000, seed=7)
        assert io.planner_config_from_dict({"max_expansions": 30.0}).max_expansions == 30
        cfg = io.bench_config_from_dict({"time_budget_s": 0.5})
        assert (cfg.max_expansions, cfg.time_budget_s) == (None, 0.5)

    def test_an_action_on_a_negative_object_is_rejected(self):
        with pytest.raises(SceneFormatError, match="field 'object' must be at least 0, got -1"):
            io.action_from_dict(dict(SWAP_PLAN_ACTION, object=-1))

    def test_plan_total_is_derived_from_the_costs(self):
        doc = json.loads((Path(__file__).parent / "golden" / "plan_swap.json").read_text())
        p = io.plan_from_dict(dict(doc, total=99.0))
        assert p.total == total_cost(p.costs) == doc["total"]
        assert io.plan_from_dict({"actions": doc["actions"]}).total == 0.0
        assert [f.name for f in dataclasses.fields(Plan)] == ["actions", "costs"]

    def test_inverted_workspace_names_the_field(self):
        with pytest.raises(SceneFormatError, match=r"'workspace' must be \[x0, y0, x1, y1\] with x0 <= x1"):
            io.scene_from_dict(dict(SCENE_DOC, workspace=[1.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("reader, value", [
        (io._int, True), (io._int, 1.5), (io._int, "3"), (io._finite, False), (io._finite, 10**400),
        (io._finite, float("nan")), (io._bool, 1), (io._bool, "no"), (io._pose, [1.0]), (io._side, ["left"]),
    ])
    def test_readers_name_the_field(self, reader, value):
        with pytest.raises(SceneFormatError, match="'the.field'"):
            reader(value, "the.field")


# --- every malformed input of the CLI -----------------------------------------------

SWAP_PLAN_ACTION = {"type": "pick_place", "object": 0, "destination": [0.2, 0.2]}


def _field_flag(i: int, argv: list, field: str):
    """The ``CASES`` entry at index ``i``: a flag (``argv[-2]``) that sets ``field``, which the error
    quotes.  Its id, in pytest's ``<kind>-doc<i>-`` form, names the flag under test, not the field."""
    return pytest.param("flags", argv, field, id=f"flags-doc{i}-{argv[-2]}")


CASES = [
    # planner config
    *[("planner", {"max_expansions": v}, "'max_expansions'") for v in ("many", True, 1.5, -5)],
    *[("planner", {"time_budget_s": v}, "'time_budget_s'") for v in ("inf", -1)],
    # the UCT constant and the buffer attempt limit are fixed: unknown fields
    *[("planner", {"exploration_c": v}, "'exploration_c'") for v in (1.4, math.sqrt(2.0))],
    ("planner", {"push_enabled": "no"}, "'push_enabled'"),
    *[("planner", {"seed": v}, "'seed'") for v in ("abc", 1.5)],
    ("planner", {"buffer_max_attempts": 5}, "'buffer_max_attempts'"),
    # the push geometry is fixed: a "push" sub-document is an unknown field
    *[("planner", {"push": {"clearance": v}}, "'push'") for v in ("x", -1)],
    ("planner", {"push": {"edge_margin": "x"}}, "'push'"),
    ("planner", {"push": {"side_order": []}}, "'push'"),
    # bench config
    *[("bench", {"object_counts": v}, "'object_counts") for v in (5, [-4])],
    *[("bench", {"scenes_per_count": v}, "'scenes_per_count'") for v in ("x", 0)],
    *[("bench", {"size_range": v}, "'size_range'") for v in ([0.07], "ab")],
    ("bench", {"tolerance": "x"}, "'tolerance'"),
    ("bench", {"master_seed": "x"}, "'master_seed'"),
    ("bench", {"max_expansions": 100, "time_budget_s": 1.0}, "'time_budget_s'"),
    # plan document
    *[("plan", {"actions": [dict(SWAP_PLAN_ACTION, object=v)], "total": 1.0}, "'actions[0].object'")
      for v in (True, 0.9, "0")],
    *[("plan", {"actions": [dict(SWAP_PLAN_ACTION, destination=[v, 0.2])], "total": 1.0},
       "'actions[0].destination[0]'") for v in (float("nan"), float("inf"))],
    ("plan", {"actions": [SWAP_PLAN_ACTION], "costs": [{"approach": "x", "pick": 0.2, "transfer": 0.3}],
              "total": 1.0}, "'costs[0].approach'"),
    # flags: one that sets a config field is checked by the class that holds the field, which quotes it
    *[_field_flag(i, ["render", "{scene}", "--scale", v], "'scale'") for i, v in ((31, "0"), (32, "nan"))],
    _field_flag(33, ["bench", "--out", "{tmp}", "--runs", "0"], "'runs_per_scene'"),
    _field_flag(34, ["bench", "--out", "{tmp}", "--scenes", "0"], "'scenes_per_count'"),
    *[_field_flag(i, ["execute", "{scene}", "--noise", flag, v], field) for i, flag, v, field in (
        (35, "--lateral-sigma", "nan", "'lateral_sigma'"), (36, "--lateral-sigma", "inf", "'lateral_sigma'"),
        (37, "--depth-sigma", "nan", "'depth_sigma'"), (38, "--depth-sigma", "inf", "'depth_sigma'"))],
    _field_flag(39, ["plan", "{scene}", "--expansions", "-3"], "'max_expansions'"),
    ("flags", ["plan", "{scene}", "--expansions", "abc"], "--expansions"),
    *[("flags", ["bench", "--out", "{tmp}", "--jobs", v], "--jobs") for v in ("0", "-1")],
    # every field in range, but every scene starts solved: no cost to reduce
    ("bench", {"tolerance": 5, "object_counts": [3], "scenes_per_count": 2, "runs_per_scene": 1}, "N=3"),
    # outputs that cannot be written: a missing directory, an existing file as a directory
    ("flags", ["plan", "{scene}", "--expansions", "3000", "--out", "{tmp}/missing/p.json"], "missing/p.json"),
    ("flags", ["bench", "--out", "{scene}", "--counts", "4", "--scenes", "1", "--runs", "1",
               "--expansions", "300"], "swap.json: File exists"),
    ("flags", ["execute", "{scene}", "--expansions", "2000", "--frames", "{scene}"], "swap.json: File exists"),
    # a plan document needs one cost entry per action
    ("plan", {"actions": [SWAP_PLAN_ACTION] * 2, "costs": [{"approach": 0.1, "pick": 0.2, "transfer": 0.3}] * 6},
     "'costs' must be a list of 2"),
    # every cost is unscaled: a cost entry's lambda is 1 or absent
    ("plan", {"actions": [SWAP_PLAN_ACTION],
              "costs": [{"approach": 0.1, "pick": 0.2, "transfer": 0.3, "lambda": 2.0}]}, "'costs[0].lambda'"),
    # every document rejects an unknown field, at any depth
    ("scene", dict(SCENE_DOC, epsilom=0.5), "unknown field 'epsilom'"),
    ("scene", dict(SCENE_DOC, objects=[dict(SCENE_DOC["objects"][0], colour="red"), SCENE_DOC["objects"][1]]),
     "unknown field 'objects[0].colour'"),
    ("plan", {"actions": [dict(SWAP_PLAN_ACTION, side="left")]}, "unknown field 'actions[0].side'"),
    ("plan", {"actions": [SWAP_PLAN_ACTION], "cost": 1.0}, "unknown field 'cost'"),
    ("plan", {"actions": [SWAP_PLAN_ACTION],
              "costs": [{"approach": 0.1, "pick": 0.2, "transfer": 0.3, "lamda": 1.0}]},
     "unknown field 'costs[0].lamda'"),
    # a stored cost total is checked, as the plan's own total is, but not read
    ("plan", {"actions": [SWAP_PLAN_ACTION],
              "costs": [{"approach": 0.1, "pick": 0.2, "transfer": 0.3, "total": "abc"}]}, "'costs[0].total'"),
    # a sweep keeps one budget: clearing the expansion budget needs a time budget
    ("bench", {"object_counts": [3], "scenes_per_count": 1, "runs_per_scene": 1, "max_expansions": None},
     "'max_expansions'"),
    # the planner config's own budget rule, reported as a document error
    ("planner", {"max_expansions": 100, "time_budget_s": 1.0}, "'time_budget_s'"),
    # a repeated object count would plan every run of that count twice
    ("bench", {"object_counts": [4, 4]}, "'object_counts'"),
    ("flags", ["bench", "--out", "{tmp}", "--counts", "4,4"], "'object_counts'"),
    # a missing required field is named by its full path, at any depth
    ("scene", {key: value for key, value in SCENE_DOC.items() if key != "goal"}, "missing field 'goal'"),
    ("scene", dict(SCENE_DOC, objects=[{"a": 0.05}, SCENE_DOC["objects"][1]]), "missing field 'objects[0].b'"),
    ("plan", {"actions": [{"type": "pick_place", "object": 0}]}, "missing field 'actions[0].destination'"),
    ("plan", {"actions": [{"type": "push_place", "object": 0, "pre_push": [0.2, 0.5]}]},
     "missing field 'actions[0].side'"),
    ("plan", {"actions": [SWAP_PLAN_ACTION], "costs": [{"pick": 0.2, "transfer": 0.3}]},
     "missing field 'costs[0].approach'"),
    # a noise sigma whose drift draw would overflow a float
    ("flags", ["execute", "{scene}", "--expansions", "200", "--noise", "--depth-sigma", "9e307"], "'depth_sigma'"),
    # a value the config class rejects when built in Python, as a document
    ("planner", {"max_expansions": 1500, "seed": None}, "'seed'"),
    ("planner", {"time_budget_s": 10**400}, "'time_budget_s'"),
    ("bench", {"size_range": [0.1, 0.05]}, "'size_range'"),
    ("bench", {"tolerance": math.nan}, "'tolerance'"),
    ("bench", {"master_seed": None}, "'master_seed'"),
    ("bench", {"scenes_per_count": True}, "'scenes_per_count'"),
    ("bench", {"object_counts": [4.5]}, "'object_counts"),
    # a sigma is checked by ``NoiseConfig`` with noise off too
    ("flags", ["execute", "{scene}", "--expansions", "200", "--depth-sigma", "nan"], "'depth_sigma'"),
    # argparse parses the flags no class holds: a non-integer breaks the flag's rule, it is not an "invalid value"
    ("flags", ["bench", "--out", "{tmp}", "--jobs", "x"], "argument --jobs: must be an integer of at least 1"),
    ("flags", ["execute", "{scene}", "--step-budget", "1.5"],
     "argument --step-budget: must be an integer of at least 1"),
    # a seed beyond the float range is an integer: the message states the range
    ("flags", ["plan", "{scene}", "--expansions", "10", "--seed", "1" + "0" * 400], "'seed' must be an integer in"),
    # a count flag states its upper bound, and a text over CPython's digit limit is echoed shortened
    ("flags", ["bench", "--out", "{tmp}", "--jobs", "1" + "0" * 5000],
     "argument --jobs: must be an integer of at least 1, at most 1.7976931348623157e+308, "
     "got '100000000000...0000000000000'"),
    ("flags", ["execute", "{scene}", "--expansions", "200", "--step-budget", "1" + "0" * 400],
     "argument --step-budget: must be an integer of at least 1, at most 1.7976931348623157e+308"),
]


def _run(tmp_path, capsys, kind, doc) -> tuple[int, str]:
    """``main``'s exit code and stderr on a ``kind`` document ``doc``, or on the command line ``doc``
    (kind "flags", where ``{scene}`` is a swap scene and ``{tmp}`` the output path)."""
    scene = tmp_path / "swap.json"
    scene.write_text(io.scene_to_json(make_swap_scene()))
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    argv = {
        "planner": ["plan", str(scene), "--config", str(doc_file)],
        "bench": ["bench", "--config", str(doc_file), "--out", str(tmp_path / "out")],
        "plan": ["render", str(scene), "--plan", str(doc_file)],
        "scene": ["render", str(doc_file)],
    }.get(kind) or [a.format(scene=scene, tmp=tmp_path / "out") for a in doc]
    rc = main(argv)
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("kind, doc, named", CASES)
def test_malformed_input_exits_1_naming_the_field(tmp_path, capsys, kind, doc, named):
    rc, err = _run(tmp_path, capsys, kind, doc)
    assert rc == 1, err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, kind, doc", [
    (["plan", "{scene}", "--expansions", "0"], "planner", {"max_expansions": 0}),
    (["bench", "--out", "{tmp}", "--scenes", "0"], "bench", {"scenes_per_count": 0}),
    (["bench", "--out", "{tmp}", "--runs", "0"], "bench", {"runs_per_scene": 0}),
    (["bench", "--out", "{tmp}", "--counts", "0"], "bench", {"object_counts": [0]}),
])
def test_a_flag_and_the_field_it_sets_break_one_rule(tmp_path, capsys, flags, kind, doc):
    """The class that holds a field is its one owner: a flag that sets it and a config document
    that sets it are rejected by the same rule, in the same words."""
    (field,) = doc
    rule = f"'{field}' must "
    errors = [_run(tmp_path, capsys, "flags", flags), _run(tmp_path, capsys, kind, doc)]
    for rc, err in errors:
        assert rc == 1 and rule in err, err
    by_flag, by_document = (err[err.index(rule):] for _, err in errors)
    assert by_flag == by_document


FIXTURES = Path(__file__).parent / "fixtures"


def test_committed_fixtures(tmp_path, capsys):
    """The documents and commands the CI runs the installed ``pushplan`` script on."""
    swap = str(FIXTURES / "swap.json")
    assert io.load(swap, io.scene_from_dict) == make_swap_scene()
    assert main(["plan", swap, "--expansions", "3000", "--seed", "0"]) == 0
    assert main(["plan", swap, "--config", str(FIXTURES / "malformed_planner_config.json")]) == 1
    assert "'max_expansions'" in capsys.readouterr().err
    out = str(tmp_path / "p.json")
    assert main(["plan", swap, "--expansions", "3000", "--seed", "0", "--out", out]) == 0
    assert main(["render", swap, "--plan", out, "--out", str(tmp_path / "p.svg")]) == 0
    assert main(["plan", swap, "--expansions", "abc"]) == 1


@pytest.mark.parametrize("golden, argv", [
    ("plan_swap.json", ["plan", "swap.json", "--expansions", "3000", "--seed", "0"]),
    ("execute_swap_noise.json", ["execute", "swap.json", "--expansions", "2000", "--noise", "--seed", "9"]),
    ("execute_cluttered_noise.json",
     ["execute", "exec_cluttered.json", "--expansions", "2000", "--noise", "--seed", "9"]),
    ("execute_cluttered.json", ["execute", "exec_cluttered.json", "--expansions", "2000", "--seed", "9"]),
])
def test_golden_cli_outputs(capsys, golden, argv):
    """``plan`` and ``execute`` on the committed fixtures print their committed outputs byte for byte.

    ``exec_cluttered.json`` is ``bench.generate_scene(8, 0, size_range=(0.05, 0.079))``, seed 0
    being the first whose noisy execution keeps a re-derived plan tail that contains a push.
    Its zero-noise execution replays the tail from every observed scene as well.
    """
    assert main([argv[0], str(FIXTURES / argv[1])] + argv[2:]) == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "golden" / golden).read_text()
