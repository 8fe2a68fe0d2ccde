"""Dataset catalog and metadata store.

The catalog records every dataset the engine can query: its name, format,
location, element schema and per-format options.  It also acts as the
metadata store of §5.2 ("Enabling Cost-based Optimizations"): per-dataset
statistics gathered by the input plug-ins are attached to the catalog entry
and consulted by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core import types as t
from repro.errors import CatalogError


class DataFormat:
    """Names of the data formats supported natively by the engine."""

    CSV = "csv"
    JSON = "json"
    BINARY_ROW = "binary_row"
    BINARY_COLUMN = "binary_column"

    ALL = (CSV, JSON, BINARY_ROW, BINARY_COLUMN)


@dataclass
class Dataset:
    """A registered dataset."""

    name: str
    format: str
    path: str
    schema: t.RecordType
    options: dict[str, Any] = field(default_factory=dict)
    statistics: "DatasetStatistics | None" = None


@dataclass
class DatasetStatistics:
    """Statistics maintained per data source by the metadata store."""

    cardinality: int
    min_values: dict[str, float] = field(default_factory=dict)
    max_values: dict[str, float] = field(default_factory=dict)
    distinct_estimates: dict[str, int] = field(default_factory=dict)
    #: Observed missing-value count per top-level field.  A field mapped to 0
    #: is *proven* free of nulls in the scanned data; absent fields are
    #: unknown.  Declared schemas are not verified against the data, so this
    #: is the only sound basis for the static analyzer's nullability hints.
    null_counts: dict[str, int] = field(default_factory=dict)

    def value_range(self, field_name: str) -> tuple[float, float] | None:
        if field_name in self.min_values and field_name in self.max_values:
            return self.min_values[field_name], self.max_values[field_name]
        return None

    def proven_non_null(self, field_name: str) -> bool:
        """Whether the collected data had zero missing values in the field."""
        return self.null_counts.get(field_name, -1) == 0


class Catalog:
    """Registry of datasets available to the engine."""

    def __init__(self) -> None:
        self._datasets: dict[str, Dataset] = {}

    def register(self, dataset: Dataset, replace: bool = False) -> Dataset:
        if dataset.format not in DataFormat.ALL:
            raise CatalogError(f"unknown data format {dataset.format!r}")
        if dataset.name in self._datasets and not replace:
            raise CatalogError(f"dataset {dataset.name!r} is already registered")
        self._datasets[dataset.name] = dataset
        return dataset

    def unregister(self, name: str) -> None:
        self._datasets.pop(name, None)

    def get(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError as exc:
            raise CatalogError(
                f"unknown dataset {name!r}; registered datasets: {sorted(self._datasets)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __iter__(self) -> Iterator[Dataset]:
        return iter(self._datasets.values())

    def names(self) -> list[str]:
        return sorted(self._datasets)

    def element_types(self) -> dict[str, t.RecordType]:
        """Map of dataset name to element record type (used by the binder)."""
        return {name: dataset.schema for name, dataset in self._datasets.items()}

    def set_statistics(self, name: str, statistics: DatasetStatistics) -> None:
        self.get(name).statistics = statistics

    def statistics(self, name: str) -> DatasetStatistics | None:
        return self.get(name).statistics
