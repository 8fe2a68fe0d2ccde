"""Data model of the Proteus reproduction.

The engine operates over a small but expressive type system that covers both
flat relational data and nested collections (the JSON data model):

* primitive types: bool, int, float, string, date,
* record types: named, typed fields,
* collection types: bag, set, list and array collections of any element type.

Collections are described by *monoids* (Fegaras & Maier): a collection monoid
(bag/set/list) describes how query output is assembled, while a primitive
monoid (sum/max/min/count/and/or) describes an aggregate.  The calculus,
algebra and code generator all share these definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError

# ---------------------------------------------------------------------------
# Primitive and composite data types
# ---------------------------------------------------------------------------


class DataType:
    """Base class of all data types.  Instances are immutable and hashable."""

    name: str = "unknown"

    def is_numeric(self) -> bool:
        return False

    def is_primitive(self) -> bool:
        return True

    def numpy_dtype(self) -> np.dtype:
        """Return the NumPy dtype used for columnar buffers of this type."""
        raise SchemaError(f"type {self.name} has no columnar representation")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self).__name__)


class BoolType(DataType):
    name = "bool"

    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.bool_)


class IntType(DataType):
    name = "int"

    def is_numeric(self) -> bool:
        return True

    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.int64)


class FloatType(DataType):
    name = "float"

    def is_numeric(self) -> bool:
        return True

    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.float64)


class StringType(DataType):
    name = "string"

    def numpy_dtype(self) -> np.dtype:
        return np.dtype(object)


class DateType(DataType):
    """Dates are stored as integer days since the Unix epoch."""

    name = "date"

    def is_numeric(self) -> bool:
        return True

    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.int64)


BOOL = BoolType()
INT = IntType()
FLOAT = FloatType()
STRING = StringType()
DATE = DateType()

_PRIMITIVES_BY_NAME: dict[str, DataType] = {
    t.name: t for t in (BOOL, INT, FLOAT, STRING, DATE)
}


def is_missing(value: object) -> bool:
    """Whether a scalar is a missing value in the engine's encoding: ``None``
    in object buffers / tuple environments, NaN in float buffers (and in raw
    float data).  This is the single engine-wide definition of "missing",
    shared by every execution tier."""
    return value is None or (isinstance(value, float) and value != value)


def truthy(value: object) -> bool:
    """Predicate truthiness with missing values false, identically in every
    execution tier."""
    return not is_missing(value) and bool(value)


def python_value(value: object) -> object:
    """Unbox NumPy scalars to plain Python values (result assembly and
    tuple-at-a-time interop)."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def dig_path(value: object, path: Sequence[str]) -> object:
    """Walk a (possibly nested) record along a field path; missing steps and
    non-record intermediates yield ``None``.  This is the single
    nested-access rule shared by expression evaluation, the Volcano
    interpreter and the JSON plug-in.  No ``getattr`` fallback: raw-data
    values whose field names collide with builtin attributes (``count``,
    ``items``, ...) must not resolve to bound methods."""
    for step in path:
        if type(value) is dict:  # fast path: json/tuple data is plain dicts
            value = value.get(step)
        elif isinstance(value, Mapping):
            value = value.get(step)
        else:
            return None
    return value


def primitive_type(name: str) -> DataType:
    """Look up a primitive type by name (``"int"``, ``"float"``, ...)."""
    try:
        return _PRIMITIVES_BY_NAME[name]
    except KeyError as exc:
        raise SchemaError(f"unknown primitive type {name!r}") from exc


@dataclass(frozen=True)
class Field:
    """A named, typed field of a record."""

    name: str
    dtype: DataType
    nullable: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        suffix = "?" if self.nullable else ""
        return f"{self.name}:{self.dtype.name}{suffix}"


class RecordType(DataType):
    """A record (struct) type: an ordered list of named, typed fields."""

    name = "record"

    def __init__(self, fields: Sequence[Field]):
        names = [f.name for f in fields]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate field names in record: {names}")
        self._fields: tuple[Field, ...] = tuple(fields)
        self._by_name: dict[str, Field] = {f.name: f for f in self._fields}
        #: Hashed once: a schema is part of the engine's shape-template key.
        self._hash = hash(self._fields)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    def field_names(self) -> list[str]:
        return [f.name for f in self._fields]

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise SchemaError(
                f"record has no field {name!r}; available: {self.field_names()}"
            ) from exc

    def field_type(self, name: str) -> DataType:
        return self.field(name).dtype

    def resolve_path(self, path: Sequence[str]) -> DataType:
        """Resolve a (possibly nested) field path to the type it denotes."""
        current: DataType = self
        for step in path:
            if not isinstance(current, RecordType):
                raise SchemaError(f"cannot descend into non-record type via {step!r}")
            current = current.field_type(step)
        return current

    def is_primitive(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RecordType) and self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        inner = ", ".join(repr(f) for f in self._fields)
        return f"record({inner})"


class CollectionKind:
    """Collection monoid kinds supported by the calculus."""

    BAG = "bag"
    SET = "set"
    LIST = "list"
    ARRAY = "array"

    ALL = (BAG, SET, LIST, ARRAY)


class CollectionType(DataType):
    """A homogeneous collection (bag, set, list or array) of elements."""

    name = "collection"

    def __init__(self, element: DataType, kind: str = CollectionKind.BAG):
        if kind not in CollectionKind.ALL:
            raise SchemaError(f"unknown collection kind {kind!r}")
        self.element = element
        self.kind = kind

    def is_primitive(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CollectionType)
            and self.kind == other.kind
            and self.element == other.element
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.element))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.kind}({self.element!r})"


# ---------------------------------------------------------------------------
# Monoids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monoid:
    """A monoid used either to build collections or to aggregate values.

    ``zero`` is the identity element; ``commutative`` and ``idempotent``
    describe the algebraic properties the normalizer may rely on when
    reordering qualifiers.
    """

    name: str
    zero: object
    commutative: bool
    idempotent: bool
    is_collection: bool


SUM = Monoid("sum", 0, True, False, False)
COUNT = Monoid("count", 0, True, False, False)
MAX = Monoid("max", None, True, True, False)
MIN = Monoid("min", None, True, True, False)
AVG = Monoid("avg", None, True, False, False)
AND = Monoid("and", True, True, True, False)
OR = Monoid("or", False, True, True, False)
BAG = Monoid("bag", (), True, False, True)
SET = Monoid("set", frozenset(), True, True, True)
LIST = Monoid("list", (), False, False, True)

_MONOIDS_BY_NAME: dict[str, Monoid] = {
    m.name: m for m in (SUM, COUNT, MAX, MIN, AVG, AND, OR, BAG, SET, LIST)
}

AGGREGATE_MONOIDS = ("sum", "count", "max", "min", "avg", "and", "or")
COLLECTION_MONOIDS = ("bag", "set", "list")


def monoid(name: str) -> Monoid:
    """Look up a monoid by name."""
    try:
        return _MONOIDS_BY_NAME[name.lower()]
    except KeyError as exc:
        raise SchemaError(f"unknown monoid {name!r}") from exc


# ---------------------------------------------------------------------------
# Schema helpers
# ---------------------------------------------------------------------------


def make_schema(spec: Mapping[str, object] | Iterable[tuple[str, object]]) -> RecordType:
    """Build a :class:`RecordType` from a concise specification.

    ``spec`` maps field names to either a primitive type name (``"int"``), a
    :class:`DataType`, a nested mapping (for nested records), or a one-element
    list (for a nested collection of the element spec).

    >>> schema = make_schema({"id": "int", "children": [{"name": "string", "age": "int"}]})
    >>> schema.field_type("id").name
    'int'
    """
    items = spec.items() if isinstance(spec, Mapping) else spec
    fields = [Field(name, _spec_to_type(value)) for name, value in items]
    return RecordType(fields)


def _spec_to_type(value: object) -> DataType:
    if isinstance(value, DataType):
        return value
    if isinstance(value, str):
        return primitive_type(value)
    if isinstance(value, Mapping):
        return make_schema(value)
    if isinstance(value, (list, tuple)):
        if len(value) != 1:
            raise SchemaError("collection spec must contain exactly one element spec")
        return CollectionType(_spec_to_type(value[0]), CollectionKind.LIST)
    raise SchemaError(f"cannot interpret schema spec element {value!r}")


def infer_type(value: object) -> DataType:
    """Infer the data type of a Python value (used by schema discovery)."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, (int, np.integer)):
        return INT
    if isinstance(value, (float, np.floating)):
        return FLOAT
    if isinstance(value, str):
        return STRING
    if isinstance(value, Mapping):
        return make_schema({k: infer_type(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        if not value:
            return CollectionType(STRING, CollectionKind.LIST)
        return CollectionType(infer_type(value[0]), CollectionKind.LIST)
    if value is None:
        return STRING
    raise SchemaError(f"cannot infer type of value {value!r}")


def merge_types(left: DataType, right: DataType) -> DataType:
    """Merge two inferred types (int widens to float; records merge fields)."""
    if left == right:
        return left
    numeric = {INT, FLOAT}
    if left in numeric and right in numeric:
        return FLOAT
    if isinstance(left, RecordType) and isinstance(right, RecordType):
        names: list[str] = []
        merged: dict[str, DataType] = {}
        nullable: set[str] = set()
        for rec in (left, right):
            for f in rec.fields:
                if f.name not in merged:
                    names.append(f.name)
                    merged[f.name] = f.dtype
                else:
                    merged[f.name] = merge_types(merged[f.name], f.dtype)
        left_names = set(left.field_names())
        right_names = set(right.field_names())
        nullable = (left_names | right_names) - (left_names & right_names)
        return RecordType(
            [Field(n, merged[n], nullable=n in nullable) for n in names]
        )
    if isinstance(left, CollectionType) and isinstance(right, CollectionType):
        # An empty collection infers its element type as STRING; when merged
        # with a collection whose elements are records, keep the record shape.
        if isinstance(left.element, RecordType) and right.element == STRING:
            return left
        if isinstance(right.element, RecordType) and left.element == STRING:
            return right
        return CollectionType(merge_types(left.element, right.element), left.kind)
    # Fall back to string, the most permissive representation.
    return STRING


def arithmetic_result_type(left: DataType, right: DataType) -> DataType:
    """Type of an arithmetic expression over two numeric operands."""
    if not left.is_numeric() or not right.is_numeric():
        raise SchemaError(
            f"arithmetic requires numeric operands, got {left.name} and {right.name}"
        )
    if FLOAT in (left, right):
        return FLOAT
    return INT
