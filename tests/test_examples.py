"""The ``examples/`` scripts run end to end, each in a fresh interpreter, and exit 0.

The three quick ones are tier-1; the two that take several seconds
(``overload_fair_share.py --quick``, ``run_all_experiments.py --quick``)
are ``slow``.  The reachability census (``tools/reach_census.py``)
counts a library entry point as reached when a tested example calls it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_example(*argv):
    """Run one example script from the checkout; returns the finished process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "examples" / argv[0]), *argv[1:]],
                          cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300, check=False)


@pytest.mark.parametrize("argv", [
    ("quickstart.py",),
    ("video_analytics_burst.py",),
    ("azure_trace_replay.py", "--minutes", "2"),
], ids=lambda argv: argv[0])
def test_example_exits_zero(argv):
    done = run_example(*argv)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()


@pytest.mark.slow
@pytest.mark.parametrize("argv", [
    ("overload_fair_share.py", "--quick"),
    ("run_all_experiments.py", "--quick"),
], ids=lambda argv: argv[0])
def test_slow_example_exits_zero(argv):
    done = run_example(*argv)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
