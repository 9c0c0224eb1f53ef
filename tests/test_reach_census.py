"""The reachability census (``tools/reach_census.py``): its universe, its hook, its record."""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import pytest  # noqa: E402
import reach_census  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''
import abc


class Base(abc.ABC):
    @abc.abstractmethod
    def run(self):
        """Overridden."""

    @property
    def size(self):
        return 1

    @size.setter
    def size(self, value):
        pass


def helper(values):
    squares = [v * v for v in values]
    return sorted(squares, key=lambda v: -v)


def unused():
    return 0
'''


def _package(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    return package


def test_the_universe_is_every_function_but_lambdas_comprehensions_and_module_bodies(tmp_path):
    # a class body is a code object too: entered once, when its module is imported
    table = reach_census.universe(_package(tmp_path))
    names = {info["name"]: info for info in table.values()}
    assert set(names) == {"mod.py::Base", "mod.py::Base.run", "mod.py::Base.size", "mod.py::Base.size#2",
                          "mod.py::helper", "mod.py::unused"}
    assert names["mod.py::Base.run"]["abstract"]
    assert not names["mod.py::Base.size"]["abstract"]
    assert names["mod.py::helper"]["lines"] == 3    # the def line and two body lines


def test_outcomes_and_the_core_count(tmp_path, monkeypatch):
    table = reach_census.universe(_package(tmp_path))
    reached = {key for key, info in table.items()
               if info["name"] in ("mod.py::Base", "mod.py::helper")}
    monkeypatch.setattr(reach_census, "HELD", {"mod.py::unused": "item 99: decided later"})
    monkeypatch.setattr(reach_census, "KEPT", {"mod.py::Base": "observation point"})
    summary = reach_census.summarise(table, reached)
    assert summary["universe"]["functions"] == 6
    assert summary["unreached"]["functions"] == summary["core_unreached"]["functions"] == 4
    outcomes = {name: row["outcome"] for name, row in summary["functions"].items()}
    assert outcomes == {"mod.py::Base.run": "interface", "mod.py::Base.size": "kept",
                        "mod.py::Base.size#2": "kept", "mod.py::unused": "held"}
    assert summary["held"] == {"mod.py::unused": "item 99: decided later"}
    assert reach_census.allowed(summary) == set(outcomes)
    assert not reach_census.is_core("experiments/fig3_homogeneous.py")
    assert not reach_census.is_core("cli.py") and reach_census.is_core("core/controller.py")


def test_the_hook_records_what_a_child_process_enters_even_when_it_is_killed(tmp_path):
    package = _package(tmp_path)
    (tmp_path / "hook").mkdir()
    (tmp_path / "hook" / "sitecustomize.py").write_text(reach_census.HOOK)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    env = dict(os.environ, REACH_CENSUS_DIR=str(dumps),
               PYTHONPATH=os.pathsep.join([str(tmp_path / "hook"), str(tmp_path)]))
    killed = subprocess.run(
        [sys.executable, "-c",
         "import os, signal; from repro import mod; mod.helper([1, 2]); "
         "os.kill(os.getpid(), signal.SIGKILL)"],
        env=env, cwd=str(tmp_path), check=False)
    assert killed.returncode == -9
    reached = {tuple(json.loads(line)) for path in dumps.iterdir()
               for line in path.read_text().splitlines()}
    table = reach_census.universe(package)
    entered = {table[key]["name"] for key in reached if key in table}
    assert entered == {"mod.py::Base", "mod.py::helper"}


def test_the_committed_record_explains_every_unreached_function_and_names_no_stale_one():
    record = json.loads((ROOT / "REACH_CENSUS.json").read_text())
    assert record["schema"] == reach_census.RECORD_SCHEMA
    assert {row["outcome"] for row in record["functions"].values()} <= set(reach_census.LISTS)
    names = {info["name"] for info in reach_census.universe().values()}
    listed = reach_census.allowed(record)
    assert listed == set(record["functions"])
    assert listed <= names, sorted(listed - names)
    # held is only for what a numbered ROADMAP item decides
    assert all(reason.startswith("item ") for reason in record["held"].values())


@pytest.mark.parametrize("pattern, name, covered", [
    ("cli.py", "cli.py::main", True),
    ("cli.py", "cli2.py::main", False),
    ("mod.py::Base", "mod.py::Base", True),
    ("mod.py::Base", "mod.py::Base.run", True),
    ("mod.py::Base", "mod.py::BaseX", False),
    ("mod.py::help", "mod.py::helper", False),
])
def test_a_pattern_covers_its_module_its_name_and_that_name_s_methods(pattern, name, covered):
    assert reach_census.matches(pattern, name) is covered


@pytest.mark.parametrize("module, core", [
    *[(m + "fig3_homogeneous.py" if m.endswith("/") else m, False) for m in reach_census.CLI_ONLY],
    ("core/controller.py", True),
    ("scenarios/spec.py", True),
    ("experiments.py", True),
])
def test_only_the_cli_only_modules_are_outside_the_core(module, core):
    assert reach_census.is_core(module) is core


def _gate(tmp_path, monkeypatch, reached_names, held, interface=()):
    """Run ``main --check`` on the toy package with ``reached_names`` entered."""
    table = reach_census.universe(_package(tmp_path))
    reached = {key for key, info in table.items() if info["name"] in reached_names}
    monkeypatch.setattr(reach_census, "universe", lambda: table)
    monkeypatch.setattr(reach_census, "census", lambda: (reached, []))
    monkeypatch.setattr(reach_census, "HELD", {})
    monkeypatch.setattr(reach_census, "KEPT", {})
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"schema": reach_census.RECORD_SCHEMA, "held": held,
                                  "interface": {name: "abstract" for name in interface}}))
    return reach_census.main(["--check", str(record)])


def test_the_gate_fails_on_an_unreached_function_the_record_does_not_list(tmp_path, monkeypatch, capsys):
    assert _gate(tmp_path, monkeypatch, {"mod.py::Base", "mod.py::helper"}, {}) == 1
    out = capsys.readouterr().out
    assert "UNREACHED and not listed" in out and "mod.py::unused" in out


def test_the_gate_passes_when_every_unreached_function_is_listed(tmp_path, monkeypatch, capsys):
    held = {name: "item 1: toy" for name in
            ("mod.py::Base.size", "mod.py::Base.size#2", "mod.py::unused", "mod.py::helper")}
    assert _gate(tmp_path, monkeypatch, {"mod.py::Base", "mod.py::helper"}, held,
                 interface=["mod.py::Base.run"]) == 0
    # a listed function that a run now reaches is reported, not failed
    assert "reached now, still listed: mod.py::helper" in capsys.readouterr().out


def test_the_gate_refuses_a_record_of_another_schema(tmp_path):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"schema": "repro/bench-pairs@1"}))
    with pytest.raises(SystemExit) as refused:
        reach_census.main(["--check", str(record)])
    assert refused.value.code == 2


def test_the_census_needs_an_output_or_a_record_to_check():
    with pytest.raises(SystemExit) as refused:
        reach_census.main([])
    assert refused.value.code == 2


def test_out_writes_an_outcome_for_every_unreached_function(tmp_path, monkeypatch):
    table = reach_census.universe(_package(tmp_path))
    reached = {key for key, info in table.items() if info["name"] == "mod.py::helper"}
    monkeypatch.setattr(reach_census, "universe", lambda: table)
    monkeypatch.setattr(reach_census, "census", lambda: (reached, [{"run": "toy"}]))
    monkeypatch.setattr(reach_census, "tree_identity", lambda: "toy-tree")
    monkeypatch.setattr(reach_census, "HELD", {"mod.py::Base": "item 99: toy"})
    out = tmp_path / "record.json"
    assert reach_census.main(["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["schema"] == reach_census.RECORD_SCHEMA and record["tree"] == "toy-tree"
    assert record["runs"] == [{"run": "toy"}]
    # the held pattern covers the class and its methods; the abstract method is interface
    assert reach_census.allowed(record) == {"mod.py::Base", "mod.py::Base.run", "mod.py::Base.size",
                                            "mod.py::Base.size#2"}
    assert record["functions"]["mod.py::unused"]["outcome"] == "unexplained"
