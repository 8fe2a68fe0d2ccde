"""Per-query code generation: the engine-per-query mechanism of the paper."""

from repro.core.codegen.compiler import GeneratedQuery, compile_query
from repro.core.codegen.generator import CodeGenerator, module_key, plan_expressions

__all__ = [
    "CodeGenerator", "GeneratedQuery", "compile_query", "module_key", "plan_expressions",
]
