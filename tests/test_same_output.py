"""tools/same_output.py compares the CLI output of two checkouts."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# fast commands: a verdict naming its structure, an emitted config and a
# usage error
COMMANDS = [
    ("check", "heisenberg"),
    ("canonicalize", "trivial"),
    ("check", "trivial", "--seed", "-1"),
]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "same_output", ROOT / "tools" / "same_output.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tool_lists_the_commands_it_compares():
    assert len(load_tool().COMMANDS) == 80


def test_checkout_matches_itself():
    assert load_tool().differences(ROOT, ROOT, COMMANDS) == []


def test_changed_fixture_name_is_reported(tmp_path):
    shutil.copytree(
        ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    fixture = tmp_path / "src" / "srlab" / "fixtures" / "heisenberg.json"
    cfg = json.loads(fixture.read_text())
    cfg["name"] = "renamed"
    fixture.write_text(json.dumps(cfg))
    lines = load_tool().differences(tmp_path, ROOT, COMMANDS)
    assert lines == ["check heisenberg: stdout differs"]
