"""Spec-layer foundation: schema version, kind registry, serialisation, decoding.

Every spec in :mod:`repro.spec` (and :mod:`repro.arch`, and the fleet and
DSE settings of :mod:`repro.fleet` and :mod:`repro.dse`) is a frozen
dataclass deriving from :class:`SpecBase` and registered under its
``kind`` tag with :func:`register`.  The base class provides the whole
serialisation contract:

* :meth:`SpecBase.to_dict` — a canonical, JSON-ready mapping: the spec's
  ``kind`` tag plus every field whose value differs from the field's
  default (so documents stay small and diffs stay meaningful);
* :meth:`SpecBase.to_json` — the canonical document text: sorted keys,
  two-space indent, a ``schema`` version tag, and a trailing newline —
  byte-deterministic for equal specs;
* :meth:`SpecBase.from_dict` — the inverse, derived from the dataclass
  annotations: each field is read against its type, and the JSON path of
  every value is tracked so a failure reports *where* the document is
  wrong (``stages[2].spec.workload.seq_len: expected an integer, got
  'long'``).  A missing field takes its default, a field without one is
  required, and unknown fields are rejected so typos cannot silently
  become defaults.

A class overrides ``from_dict`` only for what an annotation cannot say —
a bare-string shorthand, a rule across fields — and decodes every mapping
through ``super().from_dict(data, path)``.  A ``ConfigurationError`` that
a constructor raises reaches the caller as a :class:`SpecError` prefixed
with the document path.
"""

from __future__ import annotations

import collections.abc
import json
import math
import typing
from dataclasses import MISSING, fields
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple, Type, TypeVar, Union

from ..errors import ConfigurationError, ReproError, SpecError

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SpecBase",
    "check_schema",
    "decode_value",
    "register",
    "require_finite",
    "spec_error",
]

#: Version of the spec document schema.  Bump on any incompatible change
#: to a spec's fields; :func:`check_schema` rejects documents written by a
#: different version with a precise error instead of misparsing them.
SPEC_SCHEMA_VERSION = 1

#: Registered spec classes by kind tag (filled by :func:`register`).
_KINDS: Dict[str, Type["SpecBase"]] = {}

#: Per spec class: ``(name, annotation, required)`` of every field,
#: resolved on the class's first decode.
_FIELD_TYPES: Dict[type, Tuple[Tuple[str, Any, bool], ...]] = {}

_Spec = TypeVar("_Spec", bound="SpecBase")


def register(cls: Type[_Spec]) -> Type[_Spec]:
    """Class decorator: make a spec class decodable by its ``kind`` tag."""
    _KINDS[cls.kind] = cls
    return cls


def spec_error(path: str, message: str) -> SpecError:
    """A :class:`SpecError` whose message leads with the JSON path."""
    return SpecError(f"{path}: {message}")


def _check_name(lookup: Callable[[str], object], name: str, path: str) -> None:
    """Re-raise the error registry ``lookup`` raises for ``name`` at ``path``."""
    try:
        lookup(name)
    except ReproError as error:
        raise spec_error(path, str(error)) from None


def require_finite(prefix: str, owner: object, names: Sequence[str]) -> None:
    """Reject NaN and infinities, which slip past range checks (``nan < 0``).

    Each named attribute of ``owner`` may be ``None``, a number, or a tuple
    of numbers; the error names the attribute after ``prefix``.
    """
    for name in names:
        value = getattr(owner, name)
        for item in value if isinstance(value, tuple) else (value,):
            if item is not None and not math.isfinite(item):
                raise ConfigurationError(
                    f"{prefix}{name} must be finite, got {item}"
                )


def check_schema(data: Mapping[str, Any], path: str) -> None:
    """Validate an (optional) ``schema`` tag against this library's version."""
    version = data.get("schema")
    if version is None:
        return
    if version != SPEC_SCHEMA_VERSION:
        raise spec_error(
            f"{path}.schema",
            f"unsupported spec schema version {version!r}; this library "
            f"reads version {SPEC_SCHEMA_VERSION}",
        )


def _encode(value: Any) -> Any:
    """Recursively encode a field value into JSON-ready primitives."""
    if isinstance(value, SpecBase):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


class SpecBase:
    """Shared serialisation behaviour of every spec dataclass.

    Subclasses set a ``kind`` class attribute (the dispatch tag of the
    serialised form); encoding and decoding both derive from the
    dataclass fields and their annotations.
    """

    kind: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Canonical mapping form: the kind tag plus non-default fields."""
        data: Dict[str, Any] = {"kind": self.kind}
        for field in fields(self):  # type: ignore[arg-type]
            value = getattr(self, field.name)
            if field.default is not MISSING and value == field.default:
                continue
            if (
                field.default_factory is not MISSING  # type: ignore[misc]
                and value == field.default_factory()  # type: ignore[misc]
            ):
                continue
            data[field.name] = _encode(value)
        return data

    def to_json(self) -> str:
        """Canonical document text (schema tag, sorted keys, trailing newline)."""
        document = {"schema": SPEC_SCHEMA_VERSION, **self.to_dict()}
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls: Type[_Spec], data: Any, path: str = "$") -> _Spec:
        """Decode one spec mapping, reading every field against its annotation."""
        if not isinstance(data, Mapping):
            raise spec_error(
                path, f"expected a {cls.kind!r} mapping, got {type(data).__name__}"
            )
        check_schema(data, path)
        declared = data.get("kind")
        if declared is not None and declared != cls.kind:
            raise spec_error(
                f"{path}.kind", f"expected kind {cls.kind!r}, got {declared!r}"
            )
        types = _field_types(cls)
        unknown = set(data) - {name for name, _, _ in types} - {"kind", "schema"}
        if unknown:
            raise spec_error(
                path,
                f"unknown field(s) {', '.join(sorted(unknown))} for a "
                f"{cls.kind} spec",
            )
        values = {}
        for name, hint, required in types:
            if name in data:
                values[name] = decode_value(hint, data[name], f"{path}.{name}")
            elif required:
                raise spec_error(
                    path, f"missing required field {name!r} of a {cls.kind} spec"
                )
        try:
            return cls(**values)
        except ConfigurationError as error:
            # A __post_init__ check knows no document path: prefix it once.
            message = str(error)
            if isinstance(error, SpecError) and message.startswith(
                (f"{path}.", f"{path}:")
            ):
                raise
            raise spec_error(path, message) from None


def _field_types(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    types = _FIELD_TYPES.get(cls)
    if types is None:
        # Annotations may name any registered spec class, including ones
        # defined in a module that imports this package (``ArchSpec``).
        hints = typing.get_type_hints(
            cls, localns={spec.__name__: spec for spec in _KINDS.values()}
        )
        types = tuple(
            (
                field.name,
                hints[field.name],
                field.default is MISSING
                and field.default_factory is MISSING,  # type: ignore[misc]
            )
            for field in fields(cls)
        )
        _FIELD_TYPES[cls] = types
    return types


def decode_value(hint: Any, value: Any, path: str) -> Any:
    """Decode one JSON value against a field annotation.

    ``null`` is accepted only by ``Optional`` annotations; ``int`` takes
    integral floats and ``float`` takes ints; a union of spec classes
    dispatches on the value's ``kind`` tag, and a union of scalars keeps
    the value's own type.
    """
    origin = typing.get_origin(hint)
    if origin is Union:
        options = typing.get_args(hint)
        if type(None) in options:
            if value is None:
                return None
            inner = Union[tuple(o for o in options if o is not type(None))]
            if inner is str and not isinstance(value, str):
                raise spec_error(path, f"expected a string or null, got {value!r}")
            return decode_value(inner, value, path)
        if all(issubclass(option, SpecBase) for option in options):
            return _decode_tagged(options, value, path)
        if not isinstance(value, options):
            raise spec_error(path, f"expected a scalar value, got {value!r}")
        return value
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise spec_error(path, f"expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(
            decode_value(item, entry, f"{path}[{index}]")
            for index, entry in enumerate(value)
        )
    if origin is collections.abc.Mapping:
        if not isinstance(value, Mapping):
            raise spec_error(path, f"expected a mapping, got {value!r}")
        return value
    if hint is Any:
        return value
    if issubclass(hint, SpecBase):
        return hint.from_dict(value, path)
    return _SCALARS[hint](value, path)


def _decode_tagged(classes: Tuple[type, ...], value: Any, path: str) -> Any:
    """Decode a union of spec classes (a stage's runnable spec) by ``kind``."""
    if not isinstance(value, Mapping):
        raise spec_error(path, f"expected a spec mapping, got {value!r}")
    by_kind = {cls.kind: cls for cls in classes}
    declared = value.get("kind")
    if not isinstance(declared, str) or declared not in by_kind:
        raise spec_error(
            f"{path}.kind",
            f"stage specs must be one of {', '.join(sorted(by_kind))}; "
            f"got {declared!r}",
        )
    return by_kind[declared].from_dict(value, path)


def _read_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise spec_error(path, f"expected a string, got {value!r}")
    return value


def _read_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise spec_error(path, f"expected a boolean, got {value!r}")
    return value


def _read_int(value: Any, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise spec_error(path, f"expected an integer, got {value!r}")
    return value


def _read_float(value: Any, path: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond float range
            pass
    raise spec_error(path, f"expected a number, got {value!r}")


_SCALARS: Dict[type, Callable[[Any, str], Any]] = {
    str: _read_str,
    bool: _read_bool,
    int: _read_int,
    float: _read_float,
}
