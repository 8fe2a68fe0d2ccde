#!/usr/bin/env python
"""Repo lint for the tier contract and span coverage.

Two rules, both enforced over the AST (no imports of the checked modules):

**Tier parity.**  The tier set is ``CASCADE_TIERS`` in
``src/repro/core/analysis/model.py``; the rows of ``OPERATOR_CAPABILITIES``
and the keys of ``EXECUTOR_MODULES`` below must name exactly those tiers
(adding or removing one in one place but not the others fails the build).
Every ``Phys*`` operator class defined in ``src/repro/core/physical.py``
must, for each tier, either be referenced by name in that tier's executor
module (it has a handler) or appear as an explicit key in that tier's row of
``OPERATOR_CAPABILITIES`` in ``src/repro/core/analysis/capabilities.py``
(its coverage is declared, possibly as a conditional decline).  A new operator therefore cannot
silently fall through a tier to a raw "unhandled node" crash: the build
fails until its coverage is stated somewhere.  Stale capability keys that
no longer name an operator class are flagged too.

**Span coverage.**  Every ``Phys*`` operator class must appear as a key in
exactly one of ``SPAN_INSTRUMENTED_OPERATORS`` / ``SPAN_EXEMPT_OPERATORS``
in ``src/repro/obs/instrument.py`` — the declared inventory of which
operators the tracing layer covers (and where: in the batch pipeline, the
span an execution puts beside a stage or scan; in Volcano, an
iterator wrapper; on the engine, a root span), and which are deliberately
left dark (and why).  A new operator cannot silently execute untraced: the
build fails until its observability story is stated.  Stale names are
flagged too.

Run as ``python tools/tier_lint.py`` from the repo root; exits non-zero and
prints one line per violation.  The check functions take explicit paths so
the test suite can run them against seeded synthetic violations.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Executor module (repo-relative) per ``CASCADE_TIERS`` member.
EXECUTOR_MODULES: dict[str, str] = {
    "TIER_CODEGEN": "src/repro/core/executor/vectorized.py",
    "TIER_VOLCANO": "src/repro/core/executor/volcano.py",
}

PHYSICAL_MODULE = "src/repro/core/physical.py"
MODEL_MODULE = "src/repro/core/analysis/model.py"
CAPABILITIES_MODULE = "src/repro/core/analysis/capabilities.py"
INSTRUMENT_MODULE = "src/repro/obs/instrument.py"

#: Base classes that are abstractions, not dispatchable operators.
NON_OPERATORS = frozenset({"PhysicalPlan"})


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def collect_phys_operators(physical_path: Path) -> set[str]:
    """Names of every concrete physical-operator class."""
    tree = _parse(physical_path)
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name.startswith("Phys")
        and node.name not in NON_OPERATORS
    }


def collect_referenced_names(module_path: Path) -> set[str]:
    """Every bare name and attribute name mentioned in a module."""
    names: set[str] = set()
    for node in ast.walk(_parse(module_path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _module_dict_literals(tree: ast.Module) -> dict[str, ast.Dict]:
    """Module-level ``NAME = {...}`` / ``NAME: T = {...}`` dict literals."""
    literals: dict[str, ast.Dict] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Dict):
            for target in targets:
                if isinstance(target, ast.Name):
                    literals[target.id] = value
    return literals


def collect_capability_entries(capabilities_path: Path) -> dict[str, set[str]]:
    """Operator-class keys per tier row of ``OPERATOR_CAPABILITIES``."""
    table = _module_dict_literals(_parse(capabilities_path)).get(
        "OPERATOR_CAPABILITIES"
    )
    if table is None:
        raise SystemExit(
            f"tier_lint: no OPERATOR_CAPABILITIES dict literal in {capabilities_path}"
        )
    entries: dict[str, set[str]] = {}
    for tier_key, row in zip(table.keys, table.values):
        if not isinstance(tier_key, ast.Name) or not isinstance(row, ast.Dict):
            continue
        entries[tier_key.id] = {
            key.id for key in row.keys if isinstance(key, ast.Name)
        }
    return entries


def collect_cascade_tiers(model_path: Path) -> list[str]:
    """The ``TIER_*`` constant names listed in ``CASCADE_TIERS``."""
    for node in _parse(model_path).body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "CASCADE_TIERS"
                for target in node.targets
            )
            and isinstance(node.value, ast.Tuple)
        ):
            return [
                element.id
                for element in node.value.elts
                if isinstance(element, ast.Name)
            ]
    raise SystemExit(f"tier_lint: no CASCADE_TIERS tuple in {model_path}")


def check_tier_parity(root: Path) -> list[str]:
    """Tier-parity violations (empty when the contract holds)."""
    operators = collect_phys_operators(root / PHYSICAL_MODULE)
    table = collect_capability_entries(root / CAPABILITIES_MODULE)
    tiers = collect_cascade_tiers(root / MODEL_MODULE)
    violations: list[str] = []
    for listing, names in (
        (f"{CAPABILITIES_MODULE}: OPERATOR_CAPABILITIES rows", set(table)),
        ("tools/tier_lint.py: EXECUTOR_MODULES", set(EXECUTOR_MODULES)),
    ):
        for tier in sorted(set(tiers) ^ names):
            where = "missing from" if tier in tiers else "not in CASCADE_TIERS but in"
            violations.append(f"{MODEL_MODULE}: tier {tier} is {where} {listing}")
    for tier in tiers:
        module = EXECUTOR_MODULES.get(tier)
        if module is None:
            continue
        handled = collect_referenced_names(root / module)
        declared = table.get(tier, set())
        for operator in sorted(operators):
            if operator not in handled and operator not in declared:
                violations.append(
                    f"{module}: operator {operator} has no handler and no "
                    f"{tier} entry in OPERATOR_CAPABILITIES"
                )
        for stale in sorted(declared - operators):
            violations.append(
                f"{CAPABILITIES_MODULE}: {tier} row names {stale}, which is "
                "not a physical operator class"
            )
    return violations


def collect_string_keyed_dict(module_path: Path, name: str) -> set[str]:
    """String keys of a module-level dict literal assigned to ``name``."""
    literal = _module_dict_literals(_parse(module_path)).get(name)
    if literal is None:
        raise SystemExit(f"tier_lint: no {name} dict literal in {module_path}")
    return {
        key.value
        for key in literal.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def check_span_coverage(root: Path) -> list[str]:
    """Span-coverage violations (empty when every operator is declared)."""
    operators = collect_phys_operators(root / PHYSICAL_MODULE)
    instrument = root / INSTRUMENT_MODULE
    instrumented = collect_string_keyed_dict(
        instrument, "SPAN_INSTRUMENTED_OPERATORS"
    )
    exempt = collect_string_keyed_dict(instrument, "SPAN_EXEMPT_OPERATORS")
    violations: list[str] = []
    for operator in sorted(operators - instrumented - exempt):
        violations.append(
            f"{INSTRUMENT_MODULE}: operator {operator} is neither "
            "span-instrumented nor declared exempt"
        )
    for operator in sorted(instrumented & exempt):
        violations.append(
            f"{INSTRUMENT_MODULE}: operator {operator} is declared both "
            "instrumented and exempt"
        )
    for stale in sorted((instrumented | exempt) - operators):
        violations.append(
            f"{INSTRUMENT_MODULE}: {stale} is not a physical operator class"
        )
    return violations


def run(root: Path) -> list[str]:
    """All violations for a repo rooted at ``root``."""
    violations = check_tier_parity(root)
    violations.extend(check_span_coverage(root))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent,
        type=Path,
        help="repository root (defaults to the checkout containing this file)",
    )
    options = parser.parse_args(argv)
    violations = run(options.root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"tier_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("tier_lint: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
