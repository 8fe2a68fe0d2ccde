"""Per-query code generation (§5.1, "An Engine per Query").

The generator traverses the physical plan once, in post-order DFS, exactly as
the paper describes: visiting a leaf (scan) triggers the corresponding input
plug-in to emit data-access code populating virtual buffers; as the recursion
returns towards the root, every visited operator emits its own code over those
buffers (masks for selections, gather/probe code for joins, kernel calls for
grouping), and the final Reduce/Nest emits the code assembling the result.

The output is a single Python function — the specialized engine for this
query — compiled by :mod:`repro.core.codegen.compiler` and executed against a
:class:`~repro.core.codegen.runtime.QueryRuntime`.  Control-flow decisions
(datatype checks, which fields to extract, which access path to use) happen
exactly once, during this traversal, instead of once per tuple as in the
Volcano interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.aggregate_utils import replace_aggregates
from repro.core.codegen.compiler import GeneratedQuery, compile_query
from repro.core.codegen.context import CodegenContext
from repro.core.codegen.expr_gen import generate_expression
from repro.core.expressions import (
    AggregateCall,
    Expression,
    FieldRef,
    contains_aggregate,
    iter_aggregates,
    iter_parameters,
)
from repro.core.physical import (
    PhysHashJoin,
    PhysNest,
    PhysNestedLoopJoin,
    PhysReduce,
    PhysScan,
    PhysSelect,
    PhysUnnest,
    PhysicalPlan,
    parameters_of,
)
from repro.errors import CodegenError
from repro.plugins.base import InputPlugin
from repro.storage.catalog import Catalog, Dataset

#: Synthetic binding under which computed aggregate results are exposed to the
#: expression generator when finishing output columns.
_AGG_BINDING = "__agg__"


@dataclass
class _Buffers:
    """Virtual-buffer table threaded through the plan traversal."""

    columns: dict[tuple[str, tuple[str, ...]], str] = field(default_factory=dict)
    oids: dict[str, str] = field(default_factory=dict)
    count_var: str = "0"

    def all_variables(self) -> list[tuple[str, str]]:
        """(kind, variable) pairs for every live buffer (columns and OIDs)."""
        pairs = [("column", var) for var in self.columns.values()]
        pairs.extend(("oid", var) for var in self.oids.values())
        return pairs


class CodeGenerator:
    """Generates the specialized program for one physical plan."""

    def __init__(
        self,
        catalog: Catalog,
        plugins: Mapping[str, InputPlugin],
        cache_plugin: InputPlugin | None = None,
    ):
        self.catalog = catalog
        self.plugins = plugins
        self.cache_plugin = cache_plugin

    # -- entry point --------------------------------------------------------------

    def generate(self, plan: PhysicalPlan) -> GeneratedQuery:
        ctx = CodegenContext()
        self._binding_sources: dict[str, tuple[Dataset, InputPlugin]] = {}
        if isinstance(plan, PhysReduce):
            buffers = self._visit(plan.child, ctx)
            self._emit_reduce(plan, buffers, ctx)
        elif isinstance(plan, PhysNest):
            buffers = self._visit(plan.child, ctx)
            self._emit_nest(plan, buffers, ctx)
        else:
            raise CodegenError(f"plan root must be Reduce or Nest, got {plan.describe()}")
        return compile_query(ctx)

    # -- operator visitors -----------------------------------------------------------

    def _visit(self, node: PhysicalPlan, ctx: CodegenContext) -> _Buffers:
        if isinstance(node, PhysScan):
            return self._visit_scan(node, ctx)
        if isinstance(node, PhysSelect):
            return self._visit_select(node, ctx)
        if isinstance(node, PhysUnnest):
            return self._visit_unnest(node, ctx)
        if isinstance(node, PhysHashJoin):
            return self._visit_hash_join(node, ctx)
        if isinstance(node, PhysNestedLoopJoin):
            return self._visit_nested_loop(node, ctx)
        raise CodegenError(f"cannot generate code for operator {node.describe()}")

    def _visit_scan(self, node: PhysScan, ctx: CodegenContext) -> _Buffers:
        dataset = self.catalog.get(node.dataset)
        if node.access_path == "cache" and self.cache_plugin is not None:
            plugin = self.cache_plugin
        else:
            plugin = self.plugins.get(dataset.format)
            if plugin is None:
                raise CodegenError(f"no plug-in for format {dataset.format!r}")
        self._binding_sources[node.binding] = (dataset, plugin)
        ctx.comment(node.describe())
        variables = plugin.generate_scan(ctx, dataset, node.paths)
        buffers = _Buffers()
        for path, variable in variables.items():
            if path == ("__oid__",):
                buffers.oids[node.binding] = variable
            else:
                buffers.columns[(node.binding, tuple(path))] = variable
        count_var = ctx.fresh("count")
        oid_var = buffers.oids.get(node.binding)
        if oid_var is not None:
            ctx.emit(f"{count_var} = len({oid_var})")
        else:  # pragma: no cover - the base plug-in always returns OIDs
            ctx.emit(f"{count_var} = 0")
        buffers.count_var = count_var
        return buffers

    def _visit_select(self, node: PhysSelect, ctx: CodegenContext) -> _Buffers:
        lazy = self._try_lazy_scan_select(node, ctx)
        if lazy is not None:
            return lazy
        buffers = self._visit(node.child, ctx)
        ctx.comment(node.describe())
        return self._apply_filter(node.predicate, buffers, ctx)

    def _try_lazy_scan_select(
        self, node: PhysSelect, ctx: CodegenContext
    ) -> _Buffers | None:
        """Lazy materialization over verbose formats (§5.2).

        When a selection sits directly on a CSV/JSON scan, only the fields the
        predicate needs are converted eagerly; the remaining fields are
        converted after the filter, for the qualifying OIDs only.
        """
        child = node.child
        if not isinstance(child, PhysScan) or child.access_path == "cache":
            return None
        dataset = self.catalog.get(child.dataset)
        if dataset.format not in ("csv", "json"):
            return None
        predicate_paths = {
            tuple(path)
            for binding, path in node.predicate.referenced_fields()
            if binding == child.binding
        }
        deferred = [path for path in child.paths if tuple(path) not in predicate_paths]
        if not deferred:
            return None
        eager = [path for path in child.paths if tuple(path) in predicate_paths]
        eager_scan = PhysScan(child.dataset, child.binding, eager, child.access_path)
        buffers = self._visit_scan(eager_scan, ctx)
        ctx.comment(node.describe() + " [lazy field materialization]")
        filtered = self._apply_filter(node.predicate, buffers, ctx)
        plugin = self.plugins[dataset.format]
        dataset_var = ctx.register_constant(f"ds_{dataset.name}", dataset)
        plugin_var = ctx.register_constant(f"plugin_{plugin.format_name}", plugin)
        oid_var = filtered.oids[child.binding]
        lazy_var = ctx.fresh("lazy")
        deferred_literal = ", ".join(repr(tuple(path)) for path in deferred)
        ctx.emit(
            f"{lazy_var} = rt.scan_selected({plugin_var}, {dataset_var}, "
            f"({deferred_literal}{',' if deferred else ''}), {oid_var})"
        )
        for path in deferred:
            column_var = ctx.fresh("lazy_" + "_".join(path))
            ctx.emit(f"{column_var} = {lazy_var}.column({tuple(path)!r})")
            filtered.columns[(child.binding, tuple(path))] = column_var
        return filtered

    def _apply_filter(
        self, predicate: Expression, buffers: _Buffers, ctx: CodegenContext
    ) -> _Buffers:
        mask_source = generate_expression(predicate, buffers.columns)
        mask_var = ctx.fresh("mask")
        ctx.emit(f"{mask_var} = rt.mask({mask_source})")
        filtered = _Buffers()
        for key, variable in buffers.columns.items():
            new_var = ctx.fresh("sel")
            ctx.emit(f"{new_var} = {variable}[{mask_var}]")
            filtered.columns[key] = new_var
        for binding, variable in buffers.oids.items():
            new_var = ctx.fresh("sel_oid")
            ctx.emit(f"{new_var} = {variable}[{mask_var}]")
            filtered.oids[binding] = new_var
        count_var = ctx.fresh("count")
        ctx.emit(f"{count_var} = int({mask_var}.sum())")
        filtered.count_var = count_var
        return filtered

    def _visit_unnest(self, node: PhysUnnest, ctx: CodegenContext) -> _Buffers:
        if node.outer:
            raise CodegenError(
                "outer unnest is served by the batch-native unnest of the "
                "vectorized tier"
            )
        buffers = self._visit(node.child, ctx)
        source = self._binding_sources.get(node.binding)
        if source is None:
            raise CodegenError(
                f"unnest over binding {node.binding!r} which is not backed by a scan"
            )
        dataset, plugin = source
        if plugin.format_name == "cache":
            # Nested collections always come from the raw source; caches only
            # hold converted primitive columns.
            plugin = self.plugins.get(dataset.format, plugin)
        self._binding_sources[node.var] = (dataset, plugin)
        parent_oid_var = buffers.oids.get(node.binding)
        if parent_oid_var is None:
            raise CodegenError(f"no OID buffer for binding {node.binding!r}")
        ctx.comment(node.describe())
        dataset_var = ctx.register_constant(f"ds_{dataset.name}", dataset)
        plugin_var = ctx.register_constant(f"plugin_{plugin.format_name}", plugin)
        full_scan = isinstance(node.child, PhysScan)
        unnest_var = ctx.fresh("unnest")
        element_paths = ", ".join(repr(tuple(path)) for path in node.element_paths)
        ctx.emit(
            f"{unnest_var} = rt.unnest({plugin_var}, {dataset_var}, "
            f"{tuple(node.path)!r}, ({element_paths}{',' if node.element_paths else ''}), "
            f"{parent_oid_var}, full_scan={full_scan})"
        )
        positions_var = ctx.fresh("parent_pos")
        ctx.emit(f"{positions_var} = {unnest_var}.parent_positions")
        flattened = _Buffers()
        for key, variable in buffers.columns.items():
            new_var = ctx.fresh("un")
            ctx.emit(f"{new_var} = {variable}[{positions_var}]")
            flattened.columns[key] = new_var
        for binding, variable in buffers.oids.items():
            new_var = ctx.fresh("un_oid")
            ctx.emit(f"{new_var} = {variable}[{positions_var}]")
            flattened.oids[binding] = new_var
        for path in node.element_paths:
            column_var = ctx.fresh("elem_" + ("_".join(path) if path else "value"))
            ctx.emit(f"{column_var} = {unnest_var}.column({tuple(path)!r})")
            flattened.columns[(node.var, tuple(path))] = column_var
        count_var = ctx.fresh("count")
        ctx.emit(f"{count_var} = {unnest_var}.count")
        flattened.count_var = count_var
        if node.predicate is not None:
            return self._apply_filter(node.predicate, flattened, ctx)
        return flattened

    def _visit_hash_join(self, node: PhysHashJoin, ctx: CodegenContext) -> _Buffers:
        left = self._visit(node.left, ctx)
        right = self._visit(node.right, ctx)
        ctx.comment(node.describe())
        left_key_var = ctx.fresh("build_key")
        right_key_var = ctx.fresh("probe_key")
        ctx.emit(f"{left_key_var} = {generate_expression(node.left_key, left.columns)}")
        ctx.emit(f"{right_key_var} = {generate_expression(node.right_key, right.columns)}")
        build_dataset, build_format = self._side_source(node.left)
        cache_key = (node.left.fingerprint(), node.left_key.fingerprint())
        cache_key_var = ctx.register_constant("join_key", cache_key)
        # The fingerprints above abstract parameter values; the runtime folds
        # the bound values of these keys back into the cache key so builds
        # with different constants never share a cached table.
        build_params: dict = {}
        for key in parameters_of(node.left):
            build_params.setdefault(key)
        for parameter in iter_parameters(node.left_key):
            build_params.setdefault(parameter.key)
        left_idx = ctx.fresh("left_idx")
        right_idx = ctx.fresh("right_idx")
        ctx.emit(
            f"{left_idx}, {right_idx} = rt.radix_join({left_key_var}, {right_key_var}, "
            f"build_cache_key={cache_key_var}, source_format={build_format!r}, "
            f"dataset={build_dataset!r}, param_keys={tuple(build_params)!r})"
        )
        joined = _Buffers()
        for key, variable in left.columns.items():
            new_var = ctx.fresh("jl")
            ctx.emit(f"{new_var} = {variable}[{left_idx}]")
            joined.columns[key] = new_var
        for binding, variable in left.oids.items():
            new_var = ctx.fresh("jl_oid")
            ctx.emit(f"{new_var} = {variable}[{left_idx}]")
            joined.oids[binding] = new_var
        for key, variable in right.columns.items():
            new_var = ctx.fresh("jr")
            ctx.emit(f"{new_var} = {variable}[{right_idx}]")
            joined.columns[key] = new_var
        for binding, variable in right.oids.items():
            new_var = ctx.fresh("jr_oid")
            ctx.emit(f"{new_var} = {variable}[{right_idx}]")
            joined.oids[binding] = new_var
        count_var = ctx.fresh("count")
        ctx.emit(f"{count_var} = len({left_idx})")
        joined.count_var = count_var
        if node.residual is not None:
            return self._apply_filter(node.residual, joined, ctx)
        return joined

    def _visit_nested_loop(self, node: PhysNestedLoopJoin, ctx: CodegenContext) -> _Buffers:
        left = self._visit(node.left, ctx)
        right = self._visit(node.right, ctx)
        ctx.comment(node.describe())
        left_idx = ctx.fresh("nl_left")
        right_idx = ctx.fresh("nl_right")
        ctx.emit(
            f"{left_idx}, {right_idx} = rt.cross_product({left.count_var}, {right.count_var})"
        )
        joined = _Buffers()
        for key, variable in left.columns.items():
            new_var = ctx.fresh("nl")
            ctx.emit(f"{new_var} = {variable}[{left_idx}]")
            joined.columns[key] = new_var
        for binding, variable in left.oids.items():
            new_var = ctx.fresh("nl_oid")
            ctx.emit(f"{new_var} = {variable}[{left_idx}]")
            joined.oids[binding] = new_var
        for key, variable in right.columns.items():
            new_var = ctx.fresh("nl")
            ctx.emit(f"{new_var} = {variable}[{right_idx}]")
            joined.columns[key] = new_var
        for binding, variable in right.oids.items():
            new_var = ctx.fresh("nl_oid")
            ctx.emit(f"{new_var} = {variable}[{right_idx}]")
            joined.oids[binding] = new_var
        count_var = ctx.fresh("count")
        ctx.emit(f"{count_var} = len({left_idx})")
        joined.count_var = count_var
        if node.predicate is not None:
            return self._apply_filter(node.predicate, joined, ctx)
        return joined

    def _side_source(self, side: PhysicalPlan) -> tuple[str, str]:
        """(dataset, source format) of a join side, for cache bookkeeping."""
        for node in side.walk():
            if isinstance(node, PhysScan):
                dataset = self.catalog.get(node.dataset)
                return node.dataset, dataset.format
        return "", "binary_column"

    # -- roots -----------------------------------------------------------------------

    def _emit_reduce(self, node: PhysReduce, buffers: _Buffers, ctx: CodegenContext) -> None:
        ctx.comment(node.describe())
        aggregated = any(contains_aggregate(column.expression) for column in node.columns)
        if not aggregated:
            assignments = []
            for column in node.columns:
                source = generate_expression(column.expression, buffers.columns)
                variable = ctx.fresh("out_" + column.name)
                # rt.column broadcasts constant-only heads (0-d results) to
                # the row count so literal projections keep their cardinality.
                ctx.emit(f"{variable} = rt.column({source}, {buffers.count_var})")
                assignments.append((column.name, variable))
            ctx.emit(f"rt.record_output({buffers.count_var})")
            self._emit_return(assignments, ctx)
            return
        aggregate_vars = self._emit_aggregates(node.columns, buffers, ctx, grouped=False)
        assignments = []
        for column in node.columns:
            final = replace_aggregates(column.expression, aggregate_vars)
            source = generate_expression(final, self._aggregate_buffers(aggregate_vars))
            variable = ctx.fresh("out_" + column.name)
            ctx.emit(f"{variable} = {source}")
            assignments.append((column.name, variable))
        ctx.emit("rt.record_output(1)")
        self._emit_return(assignments, ctx)

    def _emit_nest(self, node: PhysNest, buffers: _Buffers, ctx: CodegenContext) -> None:
        ctx.comment(node.describe())
        key_vars = []
        for index, expression in enumerate(node.group_by):
            source = generate_expression(expression, buffers.columns)
            variable = ctx.fresh(f"group_key_{index}")
            ctx.emit(f"{variable} = np.asarray({source})")
            key_vars.append(variable)
        grouping_var = ctx.fresh("grouping")
        ctx.emit(f"{grouping_var} = rt.radix_group([{', '.join(key_vars)}])")
        gid_var = ctx.fresh("group_ids")
        ngroups_var = ctx.fresh("num_groups")
        ctx.emit(f"{gid_var} = {grouping_var}.group_ids")
        ctx.emit(f"{ngroups_var} = {grouping_var}.num_groups")
        aggregate_vars = self._emit_aggregates(
            node.columns, buffers, ctx, grouped=True, gid_var=gid_var, ngroups_var=ngroups_var
        )
        group_key_fingerprints = {
            expression.fingerprint(): index for index, expression in enumerate(node.group_by)
        }
        assignments = []
        for column in node.columns:
            fingerprint = column.expression.fingerprint()
            if fingerprint in group_key_fingerprints:
                index = group_key_fingerprints[fingerprint]
                variable = ctx.fresh("out_" + column.name)
                ctx.emit(f"{variable} = {grouping_var}.key_arrays[{index}]")
                assignments.append((column.name, variable))
                continue
            if not contains_aggregate(column.expression):
                raise CodegenError(
                    f"group-by output column {column.name!r} is neither a group key "
                    "nor an aggregate"
                )
            final = replace_aggregates(column.expression, aggregate_vars)
            source = generate_expression(final, self._aggregate_buffers(aggregate_vars))
            variable = ctx.fresh("out_" + column.name)
            ctx.emit(f"{variable} = {source}")
            assignments.append((column.name, variable))
        ctx.emit(f"rt.record_output({ngroups_var})")
        self._emit_return(assignments, ctx)

    # -- aggregate helpers ----------------------------------------------------------------

    def _emit_aggregates(
        self,
        columns,
        buffers: _Buffers,
        ctx: CodegenContext,
        grouped: bool,
        gid_var: str = "",
        ngroups_var: str = "",
    ) -> dict[tuple, Expression]:
        """Emit code computing every distinct aggregate; return the mapping
        from aggregate fingerprint to the expression referencing its result."""
        results: dict[tuple, Expression] = {}
        emitted: dict[tuple, str] = {}
        for column in columns:
            for aggregate in iter_aggregates(column.expression):
                fingerprint = aggregate.fingerprint()
                if fingerprint in emitted:
                    continue
                variable = ctx.fresh(f"agg_{aggregate.func}")
                argument_source = None
                if aggregate.argument is not None:
                    argument_source = generate_expression(aggregate.argument, buffers.columns)
                if grouped:
                    if aggregate.func == "count" and aggregate.argument is None:
                        ctx.emit(
                            f"{variable} = rt.group_agg('count', {gid_var}, {ngroups_var})"
                        )
                    else:
                        ctx.emit(
                            f"{variable} = rt.group_agg({aggregate.func!r}, {gid_var}, "
                            f"{ngroups_var}, np.asarray({argument_source}))"
                        )
                else:
                    if aggregate.func == "count" and aggregate.argument is None:
                        ctx.emit(f"{variable} = rt.scalar_agg('count', None, {buffers.count_var})")
                    else:
                        ctx.emit(
                            f"{variable} = rt.scalar_agg({aggregate.func!r}, "
                            f"np.asarray({argument_source}), {buffers.count_var})"
                        )
                emitted[fingerprint] = variable
                results[fingerprint] = FieldRef(_AGG_BINDING, (variable,))
        return results

    @staticmethod
    def _aggregate_buffers(
        aggregate_vars: Mapping[tuple, Expression]
    ) -> dict[tuple[str, tuple[str, ...]], str]:
        buffers: dict[tuple[str, tuple[str, ...]], str] = {}
        for expression in aggregate_vars.values():
            assert isinstance(expression, FieldRef)
            buffers[(expression.binding, expression.path)] = expression.path[0]
        return buffers

    @staticmethod
    def _emit_return(assignments: list[tuple[str, str]], ctx: CodegenContext) -> None:
        entries = ", ".join(f"{name!r}: {variable}" for name, variable in assignments)
        ctx.emit(f"return {{{entries}}}")
