"""Benchmark / regeneration of Table 1: the function catalogue."""

from oracles.paper_checks import catalogue_consistency_checks
from repro.experiments.table1_functions import run_table1


def test_table1_catalogue(benchmark):
    rows = benchmark(run_table1)
    assert len(rows) == 7
    assert catalogue_consistency_checks() == []
