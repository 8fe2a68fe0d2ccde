"""Shared infrastructure for the simulated comparator systems.

:class:`BaselineEngine` defines the interface the benchmark harness drives:
explicit load steps (these systems ingest data before querying it, unlike
Proteus) and :meth:`BaselineEngine.execute` over a
:class:`~repro.workloads.query_spec.QuerySpec`.

:class:`RowEngineBase` provides a generic tuple-at-a-time interpreter shared
by the row-oriented engines: rows stream through Python-level filter, join,
unnest and aggregation loops — the per-tuple interpretation overhead the paper
identifies in static engines.  Sub-classes supply the storage representation
and the field accessors (in particular, how JSON documents are stored and how
expensive it is to reach into them).
"""

from __future__ import annotations

import csv
import json
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import ExecutionError
from repro.workloads.query_spec import (
    FilterSpec,
    QuerySpec,
)

_COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass
class LoadReport:
    """Timing and size information of one load step."""

    dataset: str
    seconds: float
    rows: int
    bytes_stored: int = 0


@dataclass
class Aggregator:
    """Running aggregates for one output group."""

    count: int = 0
    sums: dict[int, float] = field(default_factory=lambda: defaultdict(float))
    mins: dict[int, Any] = field(default_factory=dict)
    maxs: dict[int, Any] = field(default_factory=dict)
    non_null: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def update(self, values: list[tuple[int, str, Any]]) -> None:
        self.count += 1
        for index, func, value in values:
            if value is None:
                continue
            self.non_null[index] += 1
            if func in ("sum", "avg"):
                self.sums[index] += value
            elif func == "max":
                current = self.maxs.get(index)
                self.maxs[index] = value if current is None else max(current, value)
            elif func == "min":
                current = self.mins.get(index)
                self.mins[index] = value if current is None else min(current, value)

    def result(self, index: int, func: str) -> Any:
        if func == "count":
            return self.count
        if func == "sum":
            return self.sums.get(index, 0.0)
        if func == "avg":
            denominator = self.non_null.get(index, 0)
            return self.sums.get(index, 0.0) / denominator if denominator else None
        if func == "max":
            return self.maxs.get(index)
        if func == "min":
            return self.mins.get(index)
        raise ExecutionError(f"unknown aggregate {func!r}")


class BaselineEngine(ABC):
    """Interface of every simulated comparator system."""

    name: str = "baseline"

    def __init__(self) -> None:
        self.load_reports: list[LoadReport] = []

    # -- loading ----------------------------------------------------------------

    @abstractmethod
    def load_csv(self, name: str, path: str) -> LoadReport:
        """Ingest a CSV file (these systems load before querying)."""

    @abstractmethod
    def load_json(self, name: str, path: str) -> LoadReport:
        """Ingest a JSON object stream."""

    @abstractmethod
    def load_columns(self, name: str, columns: dict[str, Iterable]) -> LoadReport:
        """Ingest an already-binary relational table."""

    @property
    def total_load_seconds(self) -> float:
        return sum(report.seconds for report in self.load_reports)

    # -- querying ------------------------------------------------------------------

    @abstractmethod
    def execute(self, spec: QuerySpec) -> list[tuple]:
        """Execute a query spec and return the result rows."""

    # -- shared helpers ---------------------------------------------------------------

    @staticmethod
    def read_csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = [row for row in reader if row]
        return header, rows

    @staticmethod
    def read_json_objects(path: str) -> list[dict]:
        objects: list[dict] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    objects.append(json.loads(line))
        return objects

    @staticmethod
    def coerce(text: str) -> Any:
        """Best-effort typed conversion of a CSV field."""
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text


class RowEngineBase(BaselineEngine):
    """Generic tuple-at-a-time interpreter for row-oriented engines."""

    #: Whether the optimizer can use a hash join when the join key lives
    #: inside a document-typed column (False models the "JSON is a BLOB opaque
    #: to the optimizer" behaviour that forces nested loops, cf. Q39 in §7.2).
    hash_join_on_document_fields: bool = True
    #: Apply filter predicates to both join inputs when the filtered field is
    #: the join key (sideways information passing).
    sideways_information_passing: bool = False
    #: Multiplier applied as pure per-tuple work to model engines with heavier
    #: or lighter per-tuple machinery (1 = no extra work).
    per_tuple_overhead: int = 1

    def __init__(self) -> None:
        super().__init__()
        self._document_tables: set[str] = set()

    # -- hooks supplied by concrete engines ------------------------------------------

    @abstractmethod
    def table_rows(self, dataset: str) -> Iterable[Any]:
        """Iterate the stored rows of a table."""

    @abstractmethod
    def row_value(self, dataset: str, row: Any, path: tuple[str, ...]) -> Any:
        """Extract a (possibly nested) field from a stored row."""

    def is_document_table(self, dataset: str) -> bool:
        return dataset in self._document_tables

    # -- generic execution ---------------------------------------------------------------

    def execute(self, spec: QuerySpec) -> list[tuple]:
        alias_to_dataset = {table.alias: table.dataset for table in spec.tables}
        if spec.unnest is not None:
            alias_to_dataset[spec.unnest.alias] = alias_to_dataset[spec.unnest.parent_alias]
        filters_by_alias: dict[str, list[FilterSpec]] = defaultdict(list)
        for filter_spec in spec.filters:
            filters_by_alias[filter_spec.alias].append(filter_spec)

        envs = self._base_stream(spec, spec.tables[0].alias, alias_to_dataset, filters_by_alias)
        joined = {spec.tables[0].alias}
        if spec.unnest is not None and spec.unnest.parent_alias == spec.tables[0].alias:
            envs = self._apply_unnest(spec, envs, alias_to_dataset, filters_by_alias)
            joined.add(spec.unnest.alias)

        for table in spec.tables[1:]:
            envs = self._join_next(
                spec, envs, table.alias, joined, alias_to_dataset, filters_by_alias
            )
            joined.add(table.alias)
            if spec.unnest is not None and spec.unnest.parent_alias == table.alias:
                envs = self._apply_unnest(spec, envs, alias_to_dataset, filters_by_alias)
                joined.add(spec.unnest.alias)

        return self._finalize(spec, envs, alias_to_dataset)

    # -- stages ------------------------------------------------------------------------------

    def _base_stream(
        self,
        spec: QuerySpec,
        alias: str,
        alias_to_dataset: dict[str, str],
        filters_by_alias: dict[str, list[FilterSpec]],
    ) -> Iterator[dict[str, Any]]:
        dataset = alias_to_dataset[alias]
        filters = filters_by_alias.get(alias, [])
        for row in self.table_rows(dataset):
            self._burn_per_tuple_overhead()
            if self._passes(dataset, row, filters):
                yield {alias: row}

    def _apply_unnest(
        self,
        spec: QuerySpec,
        envs: Iterable[dict[str, Any]],
        alias_to_dataset: dict[str, str],
        filters_by_alias: dict[str, list[FilterSpec]],
    ) -> Iterator[dict[str, Any]]:
        unnest = spec.unnest
        assert unnest is not None
        parent_dataset = alias_to_dataset[unnest.parent_alias]
        filters = filters_by_alias.get(unnest.alias, [])
        for env in envs:
            elements = self.row_value(parent_dataset, env[unnest.parent_alias], unnest.path)
            if not elements:
                continue
            for element in elements:
                self._burn_per_tuple_overhead()
                if all(
                    self._compare(_dig(element, f.path), f.op, f.value) for f in filters
                ):
                    yield {**env, unnest.alias: element}

    def _join_next(
        self,
        spec: QuerySpec,
        envs: Iterable[dict[str, Any]],
        alias: str,
        joined: set[str],
        alias_to_dataset: dict[str, str],
        filters_by_alias: dict[str, list[FilterSpec]],
    ) -> Iterator[dict[str, Any]]:
        dataset = alias_to_dataset[alias]
        filters = filters_by_alias.get(alias, [])
        join = None
        for candidate in spec.joins:
            if candidate.right_alias == alias and candidate.left_alias in joined:
                join = candidate
                break
            if candidate.left_alias == alias and candidate.right_alias in joined:
                join = type(candidate)(
                    candidate.right_alias, candidate.right_path,
                    candidate.left_alias, candidate.left_path,
                )
                break

        use_hash = join is not None and (
            self.hash_join_on_document_fields
            or not (
                self.is_document_table(dataset)
                or self.is_document_table(alias_to_dataset[join.left_alias])
            )
        )

        extra_filters = list(filters)
        if join is not None and self.sideways_information_passing:
            # Re-apply predicates on the join key of the other side.
            for filter_spec in spec.filters:
                if (
                    filter_spec.alias == join.left_alias
                    and filter_spec.path == join.left_path
                ):
                    extra_filters.append(
                        FilterSpec(alias, join.right_path, filter_spec.op, filter_spec.value)
                    )

        if join is not None and use_hash:
            build: dict[Any, list[dict[str, Any]]] = defaultdict(list)
            for env in envs:
                key = self.row_value(
                    alias_to_dataset[join.left_alias], env[join.left_alias], join.left_path
                )
                build[key].append(env)
            for row in self.table_rows(dataset):
                self._burn_per_tuple_overhead()
                if not self._passes(dataset, row, extra_filters):
                    continue
                key = self.row_value(dataset, row, join.right_path)
                for env in build.get(key, ()):
                    yield {**env, alias: row}
            return

        # Nested-loop fallback (no join predicate usable, or the optimizer is
        # blind to document internals).
        materialized = list(envs)
        for row in self.table_rows(dataset):
            if not self._passes(dataset, row, extra_filters):
                continue
            for env in materialized:
                self._burn_per_tuple_overhead()
                if join is not None:
                    left = self.row_value(
                        alias_to_dataset[join.left_alias], env[join.left_alias], join.left_path
                    )
                    right = self.row_value(dataset, row, join.right_path)
                    if left != right:
                        continue
                yield {**env, alias: row}

    def _finalize(
        self,
        spec: QuerySpec,
        envs: Iterable[dict[str, Any]],
        alias_to_dataset: dict[str, str],
    ) -> list[tuple]:
        def value_of(env: dict[str, Any], alias: str | None, path: tuple[str, ...]) -> Any:
            if alias is None:
                return None
            if spec.unnest is not None and alias == spec.unnest.alias:
                return _dig(env[alias], path)
            return self.row_value(alias_to_dataset[alias], env[alias], path)

        if not spec.is_aggregate():
            rows = []
            for env in envs:
                rows.append(tuple(value_of(env, p.alias, p.path) for p in spec.projections))
            return rows

        aggregate_specs = [
            (index, projection)
            for index, projection in enumerate(spec.projections)
            if projection.aggregate is not None
        ]
        if not spec.group_by:
            aggregator = Aggregator()
            for env in envs:
                aggregator.update(
                    [
                        (index, p.aggregate, value_of(env, p.alias, p.path)
                         if p.alias is not None else None)
                        for index, p in aggregate_specs
                    ]
                )
            row = tuple(
                aggregator.result(index, p.aggregate) if p.aggregate is not None else None
                for index, p in enumerate(spec.projections)
            )
            return [row]

        groups: dict[tuple, Aggregator] = {}
        group_keys: dict[tuple, tuple] = {}
        for env in envs:
            key = tuple(value_of(env, g.alias, g.path) for g in spec.group_by)
            if key not in groups:
                groups[key] = Aggregator()
                group_keys[key] = key
            groups[key].update(
                [
                    (index, p.aggregate, value_of(env, p.alias, p.path)
                     if p.alias is not None else None)
                    for index, p in aggregate_specs
                ]
            )
        results = []
        for key, aggregator in groups.items():
            row = []
            key_iter = iter(key)
            for index, projection in enumerate(spec.projections):
                if projection.aggregate is None:
                    row.append(next(key_iter))
                else:
                    row.append(aggregator.result(index, projection.aggregate))
            results.append(tuple(row))
        return results

    # -- small helpers ----------------------------------------------------------------------------

    def _passes(self, dataset: str, row: Any, filters: list[FilterSpec]) -> bool:
        for filter_spec in filters:
            value = self.row_value(dataset, row, filter_spec.path)
            if not self._compare(value, filter_spec.op, filter_spec.value):
                return False
        return True

    @staticmethod
    def _compare(value: Any, op: str, literal: Any) -> bool:
        if value is None:
            return False
        try:
            return _COMPARATORS[op](value, literal)
        except TypeError:
            return False

    def _burn_per_tuple_overhead(self) -> None:
        # Model heavier per-tuple machinery (virtual calls, datatype checks).
        for _ in range(self.per_tuple_overhead - 1):
            pass


def _dig(value: Any, path: tuple[str, ...]) -> Any:
    for step in path:
        if value is None:
            return None
        if isinstance(value, dict):
            value = value.get(step)
        else:
            return None
    return value
