"""Driver generation (§5.1, "An Engine per Query", taken to the pipeline).

The paper's engine generates a query's whole pipeline — scan, filter,
reduce — as one piece of code.  The expression generator emits the plan's
expressions; this module emits, per
:class:`~repro.core.executor.vectorized.PipelineProgram`, the code that
runs them: one function per :class:`~repro.core.executor.vectorized.Pipeline`
of the program, which takes one scan range from the scan's batches through
every operator up to the pipeline's sink as straight-line calls — the
generated predicates with one position array and one gather of the live
columns, the deferred fetch of a lazy scan, the unnest kernel, the join
probes and their gathers, the slot reduction of a join-chain input, and the
sink's update — keeping the sink's state in its own locals.  Each operator
is timed by the one tracing hook when its span is there (a traced run).

A driver names nothing of one plan.  What the program fixes — the
expression functions it calls and the :class:`Live` columns it gathers —
are the parameters of the factory ``make`` the source defines, bound once
per program; what one execution decides (the cache's columns, the build
sides, the spans, the LIMIT) comes in as the values
:meth:`VectorizedExecutor._open` hands ``drive``, in the order its first
line unpacks them.  So a source is a function of the pipeline's structure
alone, and the engine compiles it once: every program of that structure —
another query's, an ORDER BY variation, a shape template's instance over
newly arrived datasets — reuses the code.
"""

from __future__ import annotations

from textwrap import indent
from typing import Any, Callable

from repro.core.executor.vectorized import (
    HashJoinStep,
    Pipeline,
    PipelineProgram,
    SelectStep,
    UnnestStep,
)

#: One operator's work on the batch ``b``, timed when it has a span; ``b``
#: is ``None`` after it when no row is left.
_TIMED = """\
if {span} is not None: w, r = clock(), b.count
{body}if {span} is not None: hook({span}, w, r, b)
if b is None: continue
"""

#: Keep the rows a predicate passes: one position array, and one gather of
#: the live columns unless every row passed.
_FILTER = """\
at = mask({predicate}(b), b.count).nonzero()[0]
if len(at) < b.count:
    b = b.take(at, {live}) if len(at) else None
"""

_PROBE = """\
lp, rp = probe(op{index}_slots, column({key}(b), b.count))
if len(lp):
    n.join_output_rows += len(lp)
    b = gather_joined(op{index}_left, b, lp, rp, {live})
{residual}else:
    b = None
"""

#: The values a driver's sink takes, after the operators' (see
#: :meth:`VectorizedExecutor._open`).
_SINK_VALUES = {
    "collect": [],
    "project": ["limit"],
    "topk": ["limit", "k"],
    "nest": ["nest"],
    "slot": ["space", "shifted", "reducer", "slot_span", "select_span"],
}


def generate_driver(program: PipelineProgram) -> dict[tuple[int, str], tuple[str, tuple]]:
    """Per pipeline of ``program``, by the program's pipeline key: the
    driver source and the constants its factory ``make`` takes."""
    return {
        key: _source(pipeline, key, program) for key, pipeline in program.pipelines.items()
    }


def _source(pipeline: Pipeline, key: tuple[int, str], program: PipelineProgram) -> tuple[str, tuple]:
    constants: list[Any] = []
    parameters: list[str] = []

    def bind(value: Any, prefix: str) -> str:
        """The factory parameter ``value`` is bound to (``None`` stays)."""
        if value is None:
            return "None"
        constants.append(value)
        parameters.append(f"{prefix}{len(constants)}")
        return parameters[-1]

    def kept(predicate: Callable | None, columns: Any = None) -> str:
        if predicate is None:
            return ""
        return _FILTER.format(predicate=bind(predicate, "f"), live=bind(columns, "live"))

    def guarded(predicate: Callable | None) -> str:
        """A predicate over the batch an operator may have emptied."""
        return "" if predicate is None else "if b is not None:\n" + indent(kept(predicate), "    ")

    names, route, loop = ["s"], ["scan"], []
    for index, op in enumerate(pipeline.ops, 1):
        if isinstance(op, SelectStep):
            body = kept(op.predicate, op.live)
            if op.on_scan:
                body += "if b is not None and s.deferred:\n    fetch_deferred(s, b, n)\n"
        elif isinstance(op, UnnestStep):
            names.append(f"op{index}_run")
            body = f"b = unnest(op{index}_run, b, n)\n" + guarded(op.predicate)
        elif isinstance(op, HashJoinStep):
            names += [f"op{index}_left", f"op{index}_slots"]
            body = _PROBE.format(index=index, key=bind(op.right_key, "f"),
                                 live=bind(op.live, "live"),
                                 residual=indent(kept(op.residual), "    "))
        else:
            names.append(f"op{index}_left")
            body = f"b = cross(op{index}_left, b, {bind(op.live, 'live')})\n" + guarded(op.predicate)
        names.append(f"op{index}_span")
        route.append(type(op.node).__name__.removeprefix("Phys").lower())
        loop.append(_TIMED.format(span=f"op{index}_span", body=body))
    init, update, finish = _sink(pipeline, key, program, bind, kept)
    drive = (
        "def drive(x, v, lo, hi, n):\n"
        f'    """One scan range: {" -> ".join(route + [pipeline.sink])}."""\n'
        f"    {', '.join(names + _SINK_VALUES[pipeline.sink])}, = v\n"
        "    check = x.context.check\n"
        + indent(init, "    ")
        + "    for b in scan_batches(s, lo, hi, n, x.batch_size, x.params):\n"
        "        check()\n"
        + indent("".join(loop) + update, "        ")
        + indent(finish, "    ")
    )
    source = f"def make({', '.join(parameters)}):\n" + indent(drive, "    ") + "    return drive\n"
    return source, tuple(constants)


def _sink(
    pipeline: Pipeline, key: tuple[int, str], program: PipelineProgram, bind, kept
) -> tuple[str, str, str]:
    """The sink's state before the loop, its update per batch and the
    range's partial it returns."""
    def columns(functions) -> str:
        return ", ".join(f"column({bind(function, 'f')}(b), b.count)" for function in functions)

    heads = [head for _, head in program.heads]
    if pipeline.sink == "collect":
        return "out = []\n", "out.append(b)\n", "return out\n"
    if pipeline.sink == "project":
        # LIMIT 0 still takes one batch, so the truncated empty buffers keep
        # their dtypes.
        return (
            f"chunks = ({'[], ' * len(heads)})\ntotal = 0\n",
            "".join(f"chunks[{i}].append(column({bind(head, 'f')}(b), b.count))\n"
                    for i, head in enumerate(heads))
            + "total += b.count\nif limit is not None and total >= (limit or 1):\n    break\n",
            "return project_range(chunks, total, limit, n)\n",
        )
    if pipeline.sink == "topk":
        return (
            "names = k.head_names\nacc = TopKAccumulator(names, k.sort.keys, limit, k.non_null)\n",
            f"acc.push(dict(zip(names, ({columns(heads)},))), b.count)\n",
            "return topk_range(acc, n)\n",
        )
    if pipeline.sink == "nest":
        nest = program.nest
        assert nest is not None
        arguments = list(nest.arguments.values())
        if not nest.keys:
            return (
                "folded = []\n",
                f"folded.append(nest.fold([{columns(arguments)}], b.count))\n",
                "return folded\n",
            )
        chunks = nest.keys + arguments
        return (
            f"chunks = ({'[], ' * len(chunks)})\ntotal = 0\n",
            "".join(f"chunks[{i}].append(column({bind(function, 'f')}(b), b.count))\n"
                    for i, function in enumerate(chunks))
            + "total += b.count\n",
            f"return nest.group(chunks[:{len(nest.keys)}], chunks[{len(nest.keys)}:], total)\n",
        )
    spec = next(spec for spec in program.inputs if id(spec.step) == key[0])
    select = pipeline.predicate
    if select is None:
        init, lazy = "pr = None\n", ""
    elif select.on_scan:
        # Over a scan that deferred fields this execution, the selection
        # filters and fetches them: the mask is no use.
        init = f"pr = None if s.deferred else {bind(select.predicate, 'f')}\n"
        lazy = "if s.deferred:\n" + indent(_TIMED.format(
            span="select_span",
            body=kept(select.predicate, select.live)
            + "if b is not None:\n    fetch_deferred(s, b, n)\n",
        ), "    ")
    else:
        init, lazy = f"pr = {bind(select.predicate, 'f')}\n", ""
    return (
        "state = reducer.new_state()\n" + init,
        lazy
        + _TIMED.format(span="slot_span", body=f"b = slotted(b, space, shifted, "
                        f"{bind(spec.key, 'f')}, pr)\n")
        + "reducer.update(state, b, n)\n",
        "return reducer.finish_morsel(state, n)\n",
    )
