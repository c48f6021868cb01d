"""README.md is a user guide that runs.

Each ``json`` block loads through the ``io`` loader its bold label names,
each ``pushplan`` line of an ``sh`` block exits 0 through ``cli.main`` in a
scratch directory, and every backticked ``tests/...`` path and
``<module>.<name>`` of a pushplan module exists.  ``pip`` and ``pytest``
lines are not run; any other line, or a block in another language, fails.
"""

import importlib
import json
import pkgutil
import re
import shlex
import shutil
from pathlib import Path

import pytest

import pushplan
from pushplan import io
from pushplan.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()
LINES = README.splitlines()

# (language, line number of the opening fence, body) of each fenced block.
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
BLOCKS = [(m[1], README.count("\n", 0, m.start()) + 1, m[2]) for m in FENCE.finditer(README)]

# Inline code spans outside the fenced blocks; a span may wrap across lines.
SPANS = [" ".join(s.split()) for s in re.findall(r"`([^`]+)`", FENCE.sub("", README))]

LOADERS = {
    "Scene": io.scene_from_dict,
    "Planner config": io.planner_config_from_dict,
    "Bench config": io.bench_config_from_dict,
}


def label_before(line: int) -> str:
    """The bold label that opens the nearest line above ``line`` starting with one."""
    for text in reversed(LINES[: line - 1]):
        if m := re.match(r"\*\*(.+?)\*\*", text):
            return m[1]
    return ""


JSON_BLOCKS = [pytest.param(line, body, id=label_before(line)) for lang, line, body in BLOCKS if lang == "json"]
# Every line of an ``sh`` block but the install and test commands.
SH_LINES = [
    pytest.param(line + i, text, id=text)
    for lang, line, body in BLOCKS if lang == "sh"
    for i, text in enumerate(body.splitlines(), 1)
    if text.strip() and text.split()[0] not in ("pip", "pytest")
]


def test_every_fenced_block_is_checked():
    assert {lang for lang, _, _ in BLOCKS} == {"json", "sh"}
    assert JSON_BLOCKS and SH_LINES


@pytest.mark.parametrize("line, body", JSON_BLOCKS)
def test_json_block_loads(line, body):
    label = label_before(line)
    assert label in LOADERS, f"README.md:{line}: no loader for a block labelled {label!r}"
    LOADERS[label](json.loads(body))


@pytest.mark.parametrize("line, command", SH_LINES)
def test_sh_line_exits_0(line, command, tmp_path, monkeypatch, capsys):
    """``scene.json`` is the swap fixture and ``plan.json`` its committed plan."""
    program, *argv = shlex.split(command)
    assert program == "pushplan", f"README.md:{line}: an sh line runs pushplan, pip or pytest"
    shutil.copy(ROOT / "tests" / "fixtures" / "swap.json", tmp_path / "scene.json")
    shutil.copy(ROOT / "tests" / "golden" / "plan_swap.json", tmp_path / "plan.json")
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    assert rc == 0, capsys.readouterr().err


def test_test_paths_exist():
    paths = [span.split("::")[0] for span in SPANS if span.startswith("tests/")]
    assert paths
    assert [p for p in paths if not (ROOT / p).exists()] == []


def test_module_names_resolve():
    modules = {m.name for m in pkgutil.iter_modules(pushplan.__path__)}
    names = [m for span in SPANS if (m := re.fullmatch(r"(\w+)\.([\w.]+)(\(.*\))?", span)) and m[1] in modules]
    assert names
    unresolved = []
    for m in names:
        obj = importlib.import_module(f"pushplan.{m[1]}")
        try:
            for attr in m[2].split("."):
                obj = getattr(obj, attr)
        except AttributeError:
            unresolved.append(m[0])
    assert unresolved == []
