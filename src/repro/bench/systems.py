"""System adapters used by the benchmark harness.

An adapter gives every system under test — Proteus and the simulated
comparators — the same three-step interface:

* ``attach_*`` methods make a dataset queryable (for Proteus this is a cheap
  registration over the raw file; for the baselines it is a *load*, whose cost
  is recorded because the Symantec workload accounts for it),
* ``execute(spec)`` runs one benchmark query and returns ``(rows, seconds)``,
* ``load_seconds`` reports the accumulated load time.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.common import BaselineEngine
from repro.core.engine import ProteusEngine
from repro.errors import UnsupportedFeatureError
from repro.storage.binary_format import read_column_table
from repro.workloads.query_spec import QuerySpec


@dataclass
class QueryMeasurement:
    """One timed query execution."""

    system: str
    query: str
    seconds: float
    rows: int
    result: list[tuple] = field(default_factory=list)


class SystemAdapter(ABC):
    """Common driver interface over Proteus and the baselines."""

    def __init__(self, name: str):
        self.name = name
        self.load_seconds = 0.0

    @abstractmethod
    def attach_csv(self, dataset: str, path: str, schema=None) -> None: ...

    @abstractmethod
    def attach_json(self, dataset: str, path: str, schema=None) -> None: ...

    @abstractmethod
    def attach_binary_columns(self, dataset: str, directory: str) -> None: ...

    @abstractmethod
    def execute(self, spec: QuerySpec) -> list[tuple]: ...

    def run(self, spec: QuerySpec) -> QueryMeasurement:
        """Execute a query and time it."""
        started = time.perf_counter()
        rows = self.execute(spec)
        elapsed = time.perf_counter() - started
        return QueryMeasurement(
            system=self.name, query=spec.name, seconds=elapsed,
            rows=len(rows), result=rows,
        )

    def supports(self, spec: QuerySpec) -> bool:
        """Whether the system can run the query at all (MongoDB-style engines
        only hold JSON collections, for instance)."""
        return True


class ProteusAdapter(SystemAdapter):
    """Adapter over the reproduction's own engine."""

    def __init__(
        self,
        name: str = "proteus",
        enable_caching: bool = False,
        enable_codegen: bool = True,
        cache_budget_bytes: int = 256 * 1024 * 1024,
    ):
        super().__init__(name)
        self.engine = ProteusEngine(
            enable_caching=enable_caching,
            enable_codegen=enable_codegen,
            cache_budget_bytes=cache_budget_bytes,
        )

    def attach_csv(self, dataset: str, path: str, schema=None) -> None:
        started = time.perf_counter()
        self.engine.register_csv(dataset, path, schema=schema)
        # With an explicit schema, registration is free (no load step); without
        # one, schema inference builds the structural index and the cost is
        # reported as the "first access" cost rather than a load.
        if schema is None:
            self.load_seconds += time.perf_counter() - started

    def attach_json(self, dataset: str, path: str, schema=None) -> None:
        started = time.perf_counter()
        self.engine.register_json(dataset, path, schema=schema)
        if schema is None:
            self.load_seconds += time.perf_counter() - started

    def attach_binary_columns(self, dataset: str, directory: str) -> None:
        self.engine.register_binary_columns(dataset, directory)

    def execute(self, spec: QuerySpec) -> list[tuple]:
        return self.engine.query(spec.to_text()).rows

    def warm_up(self, dataset: str) -> None:
        """Force the structural index build of a raw dataset (cold access)."""
        self.engine.structural_index_info(dataset)


class BaselineAdapter(SystemAdapter):
    """Adapter over one of the simulated comparator engines."""

    def __init__(self, engine: BaselineEngine, name: str | None = None):
        super().__init__(name or engine.name)
        self.engine = engine
        self._attached_formats: dict[str, str] = {}

    def attach_csv(self, dataset: str, path: str, schema=None) -> None:
        try:
            report = self.engine.load_csv(dataset, path)
        except UnsupportedFeatureError:
            return
        self._attached_formats[dataset] = "csv"
        self.load_seconds += report.seconds

    def attach_json(self, dataset: str, path: str, schema=None) -> None:
        try:
            report = self.engine.load_json(dataset, path)
        except UnsupportedFeatureError:
            return
        self._attached_formats[dataset] = "json"
        self.load_seconds += report.seconds

    def attach_binary_columns(self, dataset: str, directory: str) -> None:
        table = read_column_table(directory)
        columns = {name: np.asarray(table.column(name)) for name in table.schema.field_names()}
        try:
            report = self.engine.load_columns(dataset, columns)
        except UnsupportedFeatureError:
            return
        self._attached_formats[dataset] = "binary"
        self.load_seconds += report.seconds

    def supports(self, spec: QuerySpec) -> bool:
        return all(dataset in self._attached_formats for dataset in spec.datasets())

    def execute(self, spec: QuerySpec) -> list[tuple]:
        return self.engine.execute(spec)


def results_match(left: list[tuple], right: list[tuple], tolerance: float = 1e-6) -> bool:
    """Order-insensitive comparison of two result sets (used by the harness to
    cross-validate every system against Proteus)."""
    if len(left) != len(right):
        return False

    def normalize(rows: list[tuple]) -> list[tuple]:
        normalized = []
        for row in rows:
            normalized.append(tuple(_normalize_value(value) for value in row))
        return sorted(normalized, key=repr)

    for left_row, right_row in zip(normalize(left), normalize(right)):
        if len(left_row) != len(right_row):
            return False
        for a, b in zip(left_row, right_row):
            if isinstance(a, float) and isinstance(b, float):
                if not np.isclose(a, b, rtol=1e-4, atol=tolerance, equal_nan=True):
                    return False
            elif a != b:
                return False
    return True


def _normalize_value(value):
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return float(value)
    if isinstance(value, float):
        return float(value)
    return value
