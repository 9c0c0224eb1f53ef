"""Benchmark-suite configuration.

Each benchmark module regenerates one table or figure of the paper
(usually at a reduced duration so the whole suite stays in the minutes
range) and asserts the paper's qualitative finding on the result.  Run
with::

    pytest benchmarks/ --benchmark-only

Full-length runs, and the paper-vs-measured comparison, are recorded in
EXPERIMENTS.md.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
# the paper-finding verdicts live with the test oracles (``oracles.paper_checks``)
_TESTS = Path(__file__).resolve().parent.parent / "tests"
if str(_TESTS) not in sys.path:
    sys.path.append(str(_TESTS))
