"""The spec layer's field table: every spec field declared once, parsed by one set of rules.

Every declarative spec — scenario, workload, cluster, controller,
faults, federation, sweep — is a frozen dataclass deriving from
:class:`Spec` whose fields are declared with :func:`spec_field`: the
field's :class:`Kind` (count, finite number, bool, string, optional,
nested spec, tuple, mapping, raw JSON), its range, its default, and
whether its echo omits it while it holds that default.  From that one
declaration :class:`Spec` derives

* parsing at construction (``__post_init__``): each value is checked by
  its kind and normalised — a JSON integer in a float field becomes the
  float it echoes as, lists become tuples, nested mappings become specs —
  and anything else (a bool, a string, NaN or ±inf where a number
  belongs) is refused with a ``ValueError`` naming the field;
* :meth:`Spec.from_dict`: unknown and missing keys are refused by name,
  then the constructor parses the rest;
* :meth:`Spec.to_dict`: the JSON-ready echo, which leaves out a field
  declared ``omit_default`` while it holds its default (so adding such a
  field kept every older echo's bytes); and
* :meth:`Spec.omits_default` / :meth:`Spec.nested_spec`, which tell
  :func:`repro.scenarios.sweep.apply_overrides` which absent paths an
  override may create.

Rules that relate two fields (a window's end after its start, the
federation gates of a scenario, ...) stay hand-written in each class's
``__post_init__``, after ``super().__post_init__()`` has parsed every
field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from functools import lru_cache
from typing import Any, ClassVar, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple


def canonical_json(obj: Any) -> str:
    """Serialise ``obj`` to the canonical JSON used for byte-comparisons.

    Keys are sorted and separators fixed, so two runs that produce equal
    data structures produce equal bytes — this is the representation the
    parallel-equals-serial sweep guarantee is stated over.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def is_count(value: Any) -> bool:
    """True for a plain ``int`` (a JSON integer), never a ``bool`` or a float."""
    return isinstance(value, int) and not isinstance(value, bool)


def freeze(value: Any) -> Any:
    """Recursively convert lists to tuples so frozen specs compare stably."""
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, Mapping):
        return {k: freeze(v) for k, v in value.items()}
    return value


def thaw(value: Any) -> Any:
    """Recursively convert tuples back to lists (and copy mappings) for JSON."""
    if isinstance(value, (list, tuple)):
        return [thaw(v) for v in value]
    if isinstance(value, Mapping):
        return {k: thaw(v) for k, v in value.items()}
    return value


def check_keys(label: str, mapping: Mapping[str, Any], required: Sequence[str],
               optional: Sequence[str] = ()) -> None:
    """Refuse a params mapping missing a required key or holding an unlisted one."""
    missing = [key for key in required if key not in mapping]
    if missing:
        raise ValueError(f"{label} missing keys: {missing}")
    unknown = sorted(key for key in mapping if key not in required and key not in optional)
    if unknown:
        raise ValueError(f"{label} has unknown keys: {unknown}")


# ----------------------------------------------------------------------
# Kinds: how one field's values are checked, normalised and echoed
# ----------------------------------------------------------------------
class Kind:
    """Raw JSON: any value, frozen on the way in and thawed on the way out.

    Subclasses check and normalise in ``parse``; a scalar's echo is
    itself, which ``thaw`` already gives.
    """

    #: the spec class a dotted override path descends into through this field
    spec: Optional[type] = None

    def parse(self, value: Any, label: str) -> Any:
        """The normalised value, or a ValueError naming ``label``."""
        return freeze(value)

    def dump(self, value: Any) -> Any:
        """The JSON-ready echo of a parsed value."""
        return thaw(value)


class Count(Kind):
    """A plain ``int`` of at least ``low`` (never a bool, a float or a str)."""

    def __init__(self, low: int = 0) -> None:
        self.low = low

    def parse(self, value: Any, label: str) -> int:
        if not is_count(value) or value < self.low:
            raise ValueError(f"{label} must be an int >= {self.low}; got {value!r}")
        return value


#: the ranges a :class:`Number` may be held to, by the phrase its refusal uses
_RANGES = {
    None: lambda v: True,
    "positive": lambda v: v > 0,
    "greater than 1": lambda v: v > 1,
    "non-negative": lambda v: v >= 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


class Number(Kind):
    """A finite real number stored as a float, optionally inside a named range."""

    def __init__(self, within: Optional[str] = None) -> None:
        self.within = within
        self._holds = _RANGES[within]

    def parse(self, value: Any, label: str) -> float:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"{label} must be a finite number; got {value!r}")
        if not self._holds(value):
            raise ValueError(f"{label} must be {self.within}; got {value!r}")
        return float(value)


class Flag(Kind):
    """``true`` or ``false`` — not ``0``, ``1`` or ``"no"``."""

    def parse(self, value: Any, label: str) -> bool:
        if not isinstance(value, bool):
            raise ValueError(f"{label} must be true or false; got {value!r}")
        return value


class Text(Kind):
    """A string, optionally non-empty or one of ``choices``."""

    def __init__(self, choices: Sequence[str] = (), nonempty: bool = False) -> None:
        self.choices = tuple(choices)
        self.nonempty = nonempty

    def parse(self, value: Any, label: str) -> str:
        if not isinstance(value, str):
            raise ValueError(f"{label} must be a string; got {value!r}")
        if self.nonempty and not value:
            raise ValueError(f"{label} must be non-empty")
        if self.choices and value not in self.choices:
            raise ValueError(f"{label} must be one of {list(self.choices)}; got {value!r}")
        return value


class Maybe(Kind):
    """``None``, or a value of ``kind``."""

    def __init__(self, kind: Kind) -> None:
        self.kind = kind
        self.spec = kind.spec

    def parse(self, value: Any, label: str) -> Any:
        return None if value is None else self.kind.parse(value, label)

    def dump(self, value: Any) -> Any:
        return None if value is None else self.kind.dump(value)


class Nested(Kind):
    """A nested spec, given as an instance or as its ``to_dict`` form."""

    def __init__(self, spec: type) -> None:
        self.spec = spec

    def parse(self, value: Any, label: str) -> Any:
        if isinstance(value, self.spec):
            return value
        if not isinstance(value, Mapping):
            raise ValueError(f"{label} must be a mapping; got {value!r}")
        return self.spec.from_dict(value)

    def dump(self, value: Any) -> Any:
        return value.to_dict()


class Many(Kind):
    """A list of ``item`` values, stored as a tuple."""

    def __init__(self, item: Kind) -> None:
        self.item = item
        self.spec = item.spec

    def parse(self, value: Any, label: str) -> Tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{label} must be a list; got {value!r}")
        return tuple(self.item.parse(v, f"{label}[{i}]") for i, v in enumerate(value))

    def dump(self, value: Any) -> Any:
        return [self.item.dump(v) for v in value]


class Table(Kind):
    """A mapping from strings to ``value`` values."""

    def __init__(self, value: Kind) -> None:
        self.value = value

    def parse(self, value: Any, label: str) -> Dict[str, Any]:
        if not isinstance(value, Mapping):
            raise ValueError(f"{label} must be a mapping; got {value!r}")
        for key in value:
            if not isinstance(key, str):
                raise ValueError(f"{label} keys must be strings; got {key!r}")
        return {k: self.value.parse(v, f"{label}[{k!r}]") for k, v in value.items()}

    def dump(self, value: Any) -> Any:
        return {k: self.value.dump(v) for k, v in value.items()}


#: a raw JSON value (lists frozen to tuples)
ANY = Kind()


# ----------------------------------------------------------------------
# The table and the spec base class
# ----------------------------------------------------------------------
def spec_field(kind: Kind, default: Any = dataclasses.MISSING, *,
               omit_default: bool = False) -> Any:
    """Declare one spec field: its kind, its default (none: required), its echo.

    A mapping default is copied per instance (a nested spec's default is
    written ``{}`` and parsed into the spec).  ``omit_default`` leaves the
    field out of :meth:`Spec.to_dict` while it equals its default.
    """
    metadata = {"kind": kind, "omit_default": omit_default}
    if isinstance(default, dict):
        return dataclasses.field(default_factory=dict, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


class _Entry(NamedTuple):
    """One row of a spec class's field table."""

    name: str
    kind: Kind
    default: Any
    required: bool
    omit_default: bool


@lru_cache(maxsize=None)
def _table(cls: type) -> Tuple[_Entry, ...]:
    """The field table of a spec class, in declaration order."""
    rows = []
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            default = f.default
        rows.append(_Entry(f.name, f.metadata["kind"], default,
                           default is dataclasses.MISSING, f.metadata["omit_default"]))
    return tuple(rows)


class Spec:
    """Base of every spec class: parsing and serialisation from the field table."""

    #: the ``schema`` value a top-level spec's dict form carries (None: no key)
    SCHEMA: ClassVar[Optional[str]] = None
    #: what an error message puts before a field's name
    PREFIX: ClassVar[str] = ""
    #: keys of deleted fields that older echoes still carry: loaded and dropped
    RETIRED: ClassVar[Tuple[str, ...]] = ()

    def _label(self, name: str) -> str:
        """How a refusal names field ``name``."""
        return self.PREFIX + name

    def __post_init__(self) -> None:
        """Parse every field by its kind (subclasses add cross-field checks after)."""
        for row in _table(type(self)):
            value = row.kind.parse(getattr(self, row.name), self._label(row.name))
            object.__setattr__(self, row.name, value)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Rebuild (and re-validate) a spec from :meth:`to_dict` output.

        A key the table does not declare, a missing required key, a
        wrong ``schema`` and a value its kind refuses all raise
        ``ValueError``; an absent optional key takes its default.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"{cls.__name__} must be a mapping; got {data!r}")
        data = dict(data)
        if cls.SCHEMA is not None:
            schema = data.pop("schema", cls.SCHEMA)
            if schema != cls.SCHEMA:
                raise ValueError(f"unsupported {cls.__name__} schema {schema!r}; "
                                 f"expected {cls.SCHEMA!r}")
        for key in cls.RETIRED:
            data.pop(key, None)
        rows = _table(cls)
        known = [row.name for row in rows]
        unknown = sorted((key for key in data if key not in known), key=str)
        if unknown:
            from difflib import get_close_matches

            hints = [f"{key!r} (did you mean {close[0]!r}?)" if close else repr(key)
                     for key in unknown
                     for close in [get_close_matches(str(key), known, n=1)]]
            raise ValueError(f"{cls.__name__} has unknown keys: {', '.join(hints)}; "
                             f"valid: {known}")
        missing = [row.name for row in rows if row.required and row.name not in data]
        if missing:
            raise ValueError(f"{cls.__name__} is missing required keys: {missing}")
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view; ``omit_default`` fields only when set."""
        data: Dict[str, Any] = {} if self.SCHEMA is None else {"schema": self.SCHEMA}
        for row in _table(type(self)):
            value = getattr(self, row.name)
            if not (row.omit_default and value == row.default):
                data[row.name] = row.kind.dump(value)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON text of :meth:`to_dict` (canonical when ``indent`` is None)."""
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Parse a spec from JSON text (inverse of :meth:`to_json`)."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def omits_default(cls, name: str) -> bool:
        """Whether field ``name`` is left out of the echo while at its default."""
        return any(row.name == name and row.omit_default for row in _table(cls))

    @classmethod
    def nested_spec(cls, name: str) -> Optional[type]:
        """The spec class field ``name`` holds (one, optional, or a list of), if any."""
        for row in _table(cls):
            if row.name == name:
                return row.kind.spec
        return None


__all__ = [
    "ANY",
    "Count",
    "Flag",
    "Kind",
    "Many",
    "Maybe",
    "Nested",
    "Number",
    "Spec",
    "Table",
    "Text",
    "canonical_json",
    "check_keys",
    "freeze",
    "is_count",
    "spec_field",
    "thaw",
]
