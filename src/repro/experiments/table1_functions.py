"""Table 1: the function catalogue used in the evaluation.

A thin renderer over the registry scenario ``"table1"``
(``kind="catalogue"``); the catalogue itself lives in
:mod:`repro.workloads.functions`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.scenarios import build, run_scenario


def run_table1() -> Tuple[Tuple[str, str, str], ...]:
    """Regenerate Table 1 as ``(function, language, standard size)`` rows."""
    rows = run_scenario(build("table1")).data["rows"]
    return tuple((r["function"], r["language"], r["standard_size"]) for r in rows)


def format_table1() -> str:
    """Render Table 1 as aligned text, matching the paper's column layout."""
    rows = run_table1()
    header = ("Function", "Language(s)", "Standard Size")
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(3)
    ]
    lines: List[str] = []
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(3)))
    lines.append("  ".join("-" * widths[i] for i in range(3)))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(3)))
    return "\n".join(lines)


__all__ = ["run_table1", "format_table1"]
