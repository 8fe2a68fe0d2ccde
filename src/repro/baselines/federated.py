"""Federated configuration: DBMS C + MongoDB behind a middleware layer (§7.2).

The second approach the paper evaluates on the Symantec workload packages two
specialized engines — a column store for flat (CSV/binary) data and a document
store for JSON — and integrates them with middleware.  The middleware

* routes single-format queries to the engine owning the data,
* for cross-format queries, pushes per-engine filters down, **extracts** the
  qualifying rows from each engine, converts them to an exchange format
  (Python dicts — the data-exchange cost of federation), joins them itself,
  and computes the final aggregates,
* keeps its own accounting (``middleware_seconds``) so that Table 3's
  "Middleware" column can be reproduced.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Iterable

from repro.baselines.columnstore_c import DbmsCLikeEngine
from repro.baselines.common import Aggregator, BaselineEngine, LoadReport
from repro.baselines.docstore import MongoLikeEngine
from repro.workloads.query_spec import (
    ProjectionSpec,
    QuerySpec,
    TableRef,
)


class FederatedEngine(BaselineEngine):
    """DBMS C for flat data + MongoDB for JSON + a mediating layer."""

    name = "federated_dbmsc_mongo"

    def __init__(self) -> None:
        super().__init__()
        self.relational = DbmsCLikeEngine()
        self.documents = MongoLikeEngine()
        self._owner: dict[str, BaselineEngine] = {}
        #: Time spent purely in the middleware (data exchange + mediation).
        self.middleware_seconds = 0.0

    # -- loading ------------------------------------------------------------------

    def load_csv(self, name: str, path: str) -> LoadReport:
        report = self.relational.load_csv(name, path)
        self._owner[name] = self.relational
        self.load_reports.append(report)
        return report

    def load_columns(self, name: str, columns: dict[str, Iterable]) -> LoadReport:
        report = self.relational.load_columns(name, columns)
        self._owner[name] = self.relational
        self.load_reports.append(report)
        return report

    def load_json(self, name: str, path: str) -> LoadReport:
        report = self.documents.load_json(name, path)
        self._owner[name] = self.documents
        self.load_reports.append(report)
        return report

    # -- querying ------------------------------------------------------------------

    def execute(self, spec: QuerySpec) -> list[tuple]:
        owners = {self._owner[table.dataset] for table in spec.tables}
        if len(owners) == 1:
            return owners.pop().execute(spec)
        return self._execute_cross_system(spec)

    # -- middleware ---------------------------------------------------------------------

    def _execute_cross_system(self, spec: QuerySpec) -> list[tuple]:
        """Split the query per engine, exchange data, join and aggregate here."""
        started = time.perf_counter()
        fetched: dict[str, list[dict]] = {}
        for table in spec.tables:
            needed = self._needed_fields(spec, table.alias)
            sub_spec = self._extraction_spec(spec, table, needed)
            engine = self._owner[table.dataset]
            rows = engine.execute(sub_spec)
            # Data exchange: convert every row into the mediation format.
            fetched[table.alias] = [
                {".".join(projection.path): value
                 for projection, value in zip(sub_spec.projections, row)}
                for row in rows
            ]
        result = self._mediate(spec, fetched)
        self.middleware_seconds += time.perf_counter() - started
        return result

    def _needed_fields(self, spec: QuerySpec, alias: str) -> list[tuple[str, ...]]:
        needed: list[tuple[str, ...]] = []
        aliases = {alias}
        if spec.unnest is not None and spec.unnest.parent_alias == alias:
            aliases.add(spec.unnest.alias)
        for projection in spec.projections:
            if projection.alias in aliases and projection.path:
                needed.append(self._qualify(spec, projection.alias, projection.path))
        for join in spec.joins:
            if join.left_alias in aliases:
                needed.append(self._qualify(spec, join.left_alias, join.left_path))
            if join.right_alias in aliases:
                needed.append(self._qualify(spec, join.right_alias, join.right_path))
        for group in spec.group_by:
            if group.alias in aliases:
                needed.append(self._qualify(spec, group.alias, group.path))
        unique: list[tuple[str, ...]] = []
        for path in needed:
            if path not in unique:
                unique.append(path)
        return unique

    @staticmethod
    def _qualify(spec: QuerySpec, alias: str, path: tuple[str, ...]) -> tuple[str, ...]:
        """Qualify unnested element fields with the collection path so the
        per-engine extraction query can compute them."""
        if spec.unnest is not None and alias == spec.unnest.alias:
            return tuple(spec.unnest.path) + tuple(path)
        return tuple(path)

    def _extraction_spec(
        self, spec: QuerySpec, table: TableRef, needed: list[tuple[str, ...]]
    ) -> QuerySpec:
        alias = table.alias
        aliases = {alias}
        unnest = None
        if spec.unnest is not None and spec.unnest.parent_alias == alias:
            aliases.add(spec.unnest.alias)
            unnest = spec.unnest
        projections = []
        for path in needed:
            projection_alias = alias
            projection_path = path
            if unnest is not None and path[: len(unnest.path)] == tuple(unnest.path):
                projection_alias = unnest.alias
                projection_path = path[len(unnest.path):]
            projections.append(
                ProjectionSpec(
                    output=".".join(path), alias=projection_alias,
                    path=tuple(projection_path), aggregate=None,
                )
            )
        filters = [f for f in spec.filters if f.alias in aliases]
        return QuerySpec(
            name=f"{spec.name}:{alias}",
            tables=[table],
            projections=projections,
            filters=filters,
            joins=[],
            unnest=unnest,
            group_by=[],
        )

    def _mediate(self, spec: QuerySpec, fetched: dict[str, list[dict]]) -> list[tuple]:
        """Join the exchanged row sets and compute the final result."""
        aliases = [table.alias for table in spec.tables]
        current = [{aliases[0]: row} for row in fetched[aliases[0]]]
        joined = {aliases[0]}
        for alias in aliases[1:]:
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
            rows = fetched[alias]
            if join is None:
                current = [{**env, alias: row} for env in current for row in rows]
            else:
                build: dict = defaultdict(list)
                left_key = ".".join(self._qualify(spec, join.left_alias, join.left_path))
                right_key = ".".join(self._qualify(spec, join.right_alias, join.right_path))
                for env in current:
                    build[env[join.left_alias].get(left_key)].append(env)
                merged = []
                for row in rows:
                    for env in build.get(row.get(right_key), ()):
                        merged.append({**env, alias: row})
                current = merged
            joined.add(alias)
        return self._aggregate(spec, current)

    def _aggregate(self, spec: QuerySpec, envs: list[dict]) -> list[tuple]:
        def value_of(env: dict, projection_alias: str | None, path: tuple[str, ...]):
            if projection_alias is None:
                return None
            owner_alias = projection_alias
            if spec.unnest is not None and projection_alias == spec.unnest.alias:
                owner_alias = spec.unnest.parent_alias
            key = ".".join(self._qualify(spec, projection_alias, path))
            return env[owner_alias].get(key)

        if not spec.is_aggregate():
            return [
                tuple(value_of(env, p.alias, p.path) for p in spec.projections)
                for env in envs
            ]
        aggregate_specs = [
            (index, p) for index, p in enumerate(spec.projections) if p.aggregate is not None
        ]
        if not spec.group_by:
            aggregator = Aggregator()
            for env in envs:
                aggregator.update(
                    [(index, p.aggregate, value_of(env, p.alias, p.path)
                      if p.alias is not None else None)
                     for index, p in aggregate_specs]
                )
            return [tuple(
                aggregator.result(index, p.aggregate) if p.aggregate is not None else None
                for index, p in enumerate(spec.projections)
            )]
        groups: dict[tuple, Aggregator] = {}
        for env in envs:
            key = tuple(value_of(env, g.alias, g.path) for g in spec.group_by)
            aggregator = groups.setdefault(key, Aggregator())
            aggregator.update(
                [(index, p.aggregate, value_of(env, p.alias, p.path)
                  if p.alias is not None else None)
                 for index, p in aggregate_specs]
            )
        rows = []
        for key, aggregator in groups.items():
            row = []
            key_iter = iter(key)
            for index, projection in enumerate(spec.projections):
                if projection.aggregate is None:
                    row.append(next(key_iter))
                else:
                    row.append(aggregator.result(index, projection.aggregate))
            rows.append(tuple(row))
        return rows
