"""Code-generation context.

The context accumulates the source lines of one query's generated module and
the table of constants the module references by name.  It is the Python
analogue of the paper's LLVM IR builder: the generator appends one function
per plan expression to it, and the result is compiled into one module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CodegenContext:
    """Accumulates generated source and registered constants."""

    lines: list[str] = field(default_factory=list)
    constants: dict[str, Any] = field(default_factory=dict)
    _counter: int = 0
    _constant_ids: dict[int, str] = field(default_factory=dict)

    def emit(self, line: str = "") -> None:
        """Append one line of module source."""
        self.lines.append(line)

    def fresh(self, prefix: str) -> str:
        """Return a fresh identifier with the given prefix."""
        self._counter += 1
        sanitized = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in prefix)
        return f"{sanitized}_{self._counter}"

    def register_constant(self, prefix: str, value: Any) -> str:
        """Register a Python object the generated code needs and return the
        global name under which it will be visible."""
        identity = id(value)
        if identity in self._constant_ids:
            return self._constant_ids[identity]
        name = self.fresh("__" + prefix)
        self.constants[name] = value
        self._constant_ids[identity] = name
        return name

    def source(self) -> str:
        """Assemble the module source."""
        return "\n".join(self.lines) + "\n"
