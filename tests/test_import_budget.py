"""The run path's import budget: numpy is the only runtime dependency,
and a run imports only the layers it uses.

Counts, not timings, so they can gate in tier-1: ``import repro.cli``
used to drag in 106 modules of ``scipy`` and what it imports
(``numpy.f2py``, ``numpy.testing``, ``unittest``, ``charset_normalizer``)
— about 0.12 s of every process start, sweep workers included — for one
``gammaln`` and one ``logsumexp``.  And before the package ``__init__``s
re-exported lazily, ``import repro`` loaded 52 ``repro`` modules and
building a trace-replay sweep loaded all 75, the simulator included.
Each import-set check runs in a fresh interpreter, because this test
process has scipy and the whole package loaded.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with only ``src/`` on the path; return stdout."""
    completed = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_scenarios_run_with_scipy_unimportable():
    out = run_fresh("""
import sys
sys.modules["scipy"] = None  # any `import scipy[.x]` now raises ImportError
import repro, repro.cli, repro.scenarios
from repro.scenarios import apply_overrides, build, run_scenario

quickstart = build("quickstart", duration=30.0)
for plane in ("event", "columnar"):
    data = run_scenario(apply_overrides(quickstart, {"data_plane": plane})).data
    assert data["metrics"]["counters"]["completions"] > 0
shard = build("fig9-at-scale", functions=12, duration_minutes=12, shards=3,
              chunk_minutes=5).expand()[0]
assert run_scenario(shard).data["replay"]["invocations"] > 0
assert repro.cli.main(["size", "--rate", "100", "--service-time", "0.1", "--slo", "0.1"]) == 0
print("ran without scipy")
""")
    assert out.endswith("ran without scipy\n")


def test_importing_the_cli_loads_no_scipy_chain():
    out = run_fresh("""
import sys
import repro.cli
heavy = ("scipy", "numpy.f2py", "numpy.testing", "unittest", "charset_normalizer")
print(sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy)))
""")
    assert out == "[]\n"


# ----------------------------------------------------------------------
# A run imports only the layers it uses
# ----------------------------------------------------------------------
#: The packages whose ``__init__`` re-exports lazily (PEP 562).
LAZY_PACKAGES = (
    "repro",
    "repro.cluster",
    "repro.core",
    "repro.core.allocation",
    "repro.core.estimation",
    "repro.core.queueing",
    "repro.faults",
    "repro.federation",
    "repro.metrics",
    "repro.scenarios",
    "repro.sim",
    "repro.workloads",
)

#: Modules a trace-replay sweep never needs: the simulator and its control planes.
SIMULATOR_MODULES = (
    "repro.core.controller",
    "repro.simulation",
    "repro.policies",
    "repro.cluster.cluster",
    "repro.sim.engine",
    "repro.federation.runner",
)

LOADED = "sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))"


def test_importing_the_package_or_the_cli_loads_almost_nothing():
    out = run_fresh(f"""
import sys
import repro
print({LOADED})
import repro.cli
print({LOADED})
""")
    package, cli = (eval(line) for line in out.splitlines())
    assert len(package) <= 2, package
    assert len(cli) <= 3, cli


def test_a_replay_sweep_loads_no_simulator_and_its_shards_import_nothing_new():
    # the CI-size fig9-at-scale build of tools/envelope_digests.py
    out = run_fresh(f"""
import sys
from repro.scenarios import ResilientSweepRunner, build
from repro.scenarios.executor import _run_shard

sweep = build("fig9-at-scale", functions=12, duration_minutes=12, shards=3,
              chunk_minutes=5)
ResilientSweepRunner(sweep, workers=2)
print({LOADED})
print("numpy.random" in sys.modules)
data = _run_shard(sweep.expand()[0].to_dict())
assert data["replay"]["invocations"] > 0
print({LOADED})
""")
    set_up, draws_loaded, after_shard = (eval(line) for line in out.splitlines())
    assert len(set_up) <= 32, set_up
    # the parent never draws: numpy.random (2 MB resident) loads in the workers
    assert draws_loaded is False
    assert not set(SIMULATOR_MODULES) & set(set_up)
    # a forked worker inherits the parent's modules: a shard that imported
    # one would re-import it in every worker of every sweep
    assert after_shard == set_up


def test_a_single_cluster_run_loads_no_federation_module():
    # the CI-size quickstart scenario, built as the benchmark builds its
    # runners: straight through repro.simulation (the scenario layer's
    # spec module imports repro.federation.spec to validate federations)
    out = run_fresh(f"""
import sys
from repro.simulation import SimulationRunner
from repro.workloads.functions import get_function
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate

binding = WorkloadBinding(get_function("squeezenet"), StaticRate(20.0, duration=30.0),
                          slo_deadline=0.1)
result = SimulationRunner([binding], seed=7).run(duration=30.0)
assert result.metrics.counters["completions"] > 0
print({LOADED})
""")
    loaded = eval(out)
    assert "repro.simulation" in loaded
    assert [m for m in loaded if m.startswith("repro.federation")] == []


def test_the_policy_registry_answers_as_before_without_loading_the_policies():
    out = run_fresh("""
import sys
from repro.core.policy import policy_names
from repro.scenarios.spec import ControllerSpec

ControllerSpec()
print("repro.policies" in sys.modules)
for bad in ({"policy": "nope"}, {"policy": "static"}):
    try:
        ControllerSpec(**bad)
    except ValueError as error:
        print(error)
print(policy_names())
""")
    assert out.splitlines() == [
        "False",
        "unknown policy 'nope'; available: "
        "['hybrid', 'lass', 'noop', 'openwhisk', 'reactive', 'static']",
        "policy 'static' requires policy_params={'allocations': {function: count}}",
        "['hybrid', 'lass', 'noop', 'openwhisk', 'reactive', 'static']",
    ]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed
        if name == "__version__":  # the one name a package defines itself
            continue
        if isinstance(value, (type, types.FunctionType)):
            owners = [sys.modules[value.__module__]]
        else:  # a constant: whichever submodule binds this very object
            owners = [m for key, m in list(sys.modules.items())
                      if key.startswith(package + ".")]
        assert any(getattr(owner, name, None) is value for owner in owners), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(module, "no_such_name")


def test_star_import_of_the_package_binds_all_of_it():
    namespace = {}
    exec("from repro import *", namespace)
    import repro

    assert set(repro.__all__) <= set(namespace)
    assert namespace["SimulationRunner"] is repro.simulation.SimulationRunner
