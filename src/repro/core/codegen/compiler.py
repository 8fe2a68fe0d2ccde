"""Compilation of generated query modules and their drivers.

The paper compiles the stitched-together LLVM IR of a query into machine code
within milliseconds and calls the resulting library.  The reproduction
compiles the generated Python source with :func:`compile` and executes it
into a namespace holding NumPy, the null-aware kernels and any registered
constants.  A compiled module is a function of the plan's expressions only —
no schema, dataset or statistic is baked in — so the engine keeps it in a
bounded LRU keyed by those expressions
(:func:`~repro.core.codegen.generator.module_key`) that no catalog change
clears, and the prepared query whose plan first ran it holds it in its
shape.  A driver (:mod:`repro.core.codegen.driver`) names nothing of one
plan, so the engine compiles each driver source once
(:func:`compile_driver`) for every program of its structure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.codegen.context import CodegenContext
from repro.core.executor import radix
from repro.core.executor.vectorized import (
    as_bool_array,
    bound_parameter,
    driver_runtime,
    materialize,
)
from repro.core.expressions import Expression
from repro.errors import CodegenError


@dataclass
class GeneratedQuery:
    """The fused expression functions generated for one plan."""

    source: str
    #: Expression fingerprint -> compiled ``f(batch) -> column or scalar``.
    functions: dict[tuple, Callable[[Any], Any]]
    compile_seconds: float

    def function_for(self, expression: Expression) -> Callable[[Any], Any]:
        """The fused function of one plan expression — how the pipeline
        evaluates it per batch."""
        try:
            return self.functions[expression.fingerprint()]
        except KeyError as exc:  # pragma: no cover - indicates a generator bug
            raise CodegenError(
                f"no generated function evaluates {expression!r}"
            ) from exc

    def __call__(self, executor, program) -> tuple[list[str], dict[str, Any]]:
        """Run ``program``, the plan's
        :class:`~repro.core.executor.vectorized.PipelineProgram` built on
        these functions, through the batch pipeline — the once-per-execution
        entry of the ``codegen`` tier."""
        return executor.execute(program)


def compile_query(
    ctx: CodegenContext, function_names: Mapping[tuple, str]
) -> GeneratedQuery:
    """Compile the accumulated module source; ``function_names`` maps each
    expression fingerprint to the generated function evaluating it."""
    source = ctx.source()
    started = time.perf_counter()
    code = _compile(source, "<proteus-generated-query>")
    namespace: dict[str, Any] = {
        "np": np,
        "radix": radix,
        "mask": as_bool_array,
        "column": materialize,
        "param": bound_parameter,
    }
    namespace.update(ctx.constants)
    exec(code, namespace)
    return GeneratedQuery(
        source=source,
        functions={
            fingerprint: namespace[name]
            for fingerprint, name in function_names.items()
        },
        compile_seconds=time.perf_counter() - started,
    )


def compile_driver(source: str) -> Callable[..., Callable]:
    """The factory ``make`` a driver source defines: every program of the
    source's structure shares it and binds its own constants."""
    namespace = driver_runtime()
    exec(_compile(source, "<proteus-generated-driver>"), namespace)
    return namespace["make"]


def _compile(source: str, filename: str):
    try:
        return compile(source, filename, "exec")
    except SyntaxError as exc:  # pragma: no cover - indicates a generator bug
        raise CodegenError(f"generated code does not compile: {exc}\n{source}") from exc
