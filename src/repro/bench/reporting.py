"""Reporting helpers: paper-style tables printed by the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.bench.systems import QueryMeasurement


@dataclass
class ExperimentReport:
    """The measurements of one experiment (one figure/table of the paper)."""

    title: str
    measurements: list[QueryMeasurement]
    notes: list[str]

    def seconds(self, system: str, query: str) -> float | None:
        for measurement in self.measurements:
            if measurement.system == system and measurement.query == query:
                return measurement.seconds
        return None

    def total_seconds(self, system: str) -> float:
        return sum(m.seconds for m in self.measurements if m.system == system)

    def speedup(self, slower_system: str, faster_system: str) -> float:
        """Aggregate speedup of ``faster_system`` over ``slower_system``."""
        fast = self.total_seconds(faster_system)
        slow = self.total_seconds(slower_system)
        return slow / fast if fast > 0 else float("inf")


def format_matrix(
    report: ExperimentReport,
    queries: Sequence[str],
    systems: Sequence[str],
    cell_format: str = "{:>10.4f}",
) -> str:
    """Render a figure-style matrix: one row per system, one column per query."""
    header_cells = [f"{'system':<22}"] + [f"{name:>14}" for name in queries]
    lines = [report.title, "".join(header_cells)]
    for system in systems:
        cells = [f"{system:<22}"]
        for query in queries:
            seconds = report.seconds(system, query)
            cells.append(
                f"{cell_format.format(seconds):>14}" if seconds is not None else f"{'-':>14}"
            )
        lines.append("".join(cells))
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def format_totals(report: ExperimentReport, systems: Sequence[str]) -> str:
    """Render aggregate per-system totals (used for Table 3-style summaries)."""
    lines = [report.title]
    for system in systems:
        lines.append(f"  {system:<26} {report.total_seconds(system):10.4f} s")
    return "\n".join(lines)


def format_speedups(
    title: str, speedups: Mapping[str, float], baseline_label: str = "baseline"
) -> str:
    """Render a speedup table (Figure 13 style)."""
    lines = [title, f"  (speedup over {baseline_label})"]
    for label, value in speedups.items():
        lines.append(f"  {label:<34} {value:8.2f}x")
    return "\n".join(lines)


def format_phase_table(
    title: str,
    systems: Sequence[str],
    phases: Sequence[str],
    values: Mapping[tuple[str, str], float],
    totals: Mapping[str, float],
) -> str:
    """Render Table 3: accumulated seconds per system and workload phase."""
    header = [f"{'system':<26}"] + [f"{phase:>12}" for phase in phases] + [f"{'Total':>12}"]
    lines = [title, "".join(header)]
    for system in systems:
        cells = [f"{system:<26}"]
        for phase in phases:
            cells.append(f"{values.get((system, phase), 0.0):>12.3f}")
        cells.append(f"{totals.get(system, 0.0):>12.3f}")
        lines.append("".join(cells))
    return "\n".join(lines)
