"""Equal values shared, not copied, in stored results and loaded ones.

Every stored :class:`~repro.api.EvalResult` row holds its model
configuration and its platform, and a warm sweep reads thousands of rows
built from a handful of each.
:class:`~repro.graph.transformer.TransformerConfig` and
:class:`~repro.hw.platform.MultiChipPlatform` therefore pickle through
:func:`reduce_interned` as ``intern(cls, blob)``, where ``blob`` is the
pickle of the object's field values in field order, and :func:`intern`
returns the one live object of that class and blob, decoding the blob
only when no such object is alive.

The table is module-level because ``pickle`` reaches :func:`intern` by
its import path with nothing but the class and the blob.  It holds its
objects weakly, so it keeps nothing alive that the program dropped, and
it hands out only objects equal to what their blob encodes: the types
are frozen, so sharing one is indistinguishable from decoding a copy.
``copy.copy`` and ``copy.deepcopy`` go through the same reduction and
return a shared instance.

Within one result, :func:`shared_rows` makes the per-chip rows of chips
that did the same work one object, which a pickle stores and loads once.

This module uses the standard library only; the store digest of
:mod:`repro.api.cache` covers it.
"""

from __future__ import annotations

import pickle
import weakref
from dataclasses import fields
from typing import Any, Callable, Dict, Iterable, Tuple

__all__ = ["intern", "reduce_interned", "shared_rows"]

#: Instance attribute memoising the object's blob.
_BLOB = "_repro_blob"

#: The live object of each ``(class, blob)``, held weakly.
_LIVE: "weakref.WeakValueDictionary[Tuple[type, bytes], Any]" = (
    weakref.WeakValueDictionary()
)


def intern(cls: type, blob: bytes) -> Any:
    """The live ``cls`` object whose field values pickle to ``blob``.

    Decodes ``blob`` into a new object, without running ``__init__``
    (the pickled object passed its checks), only when none is alive.
    """
    key = (cls, blob)
    obj = _LIVE.get(key)
    if obj is None:
        obj = cls.__new__(cls)
        state = obj.__dict__
        state.update(zip((field.name for field in fields(cls)), pickle.loads(blob)))
        state[_BLOB] = blob
        _LIVE[key] = obj
    return obj


def reduce_interned(self, protocol: int) -> Tuple[Callable[..., Any], tuple]:
    """``__reduce_ex__`` of an interned dataclass: ``intern(cls, blob)``.

    The blob holds the field values only, with no field names and no
    instance memo such as the content-hash text, and is computed once
    per object.
    """
    blob = self.__dict__.get(_BLOB)
    if blob is None:
        blob = pickle.dumps(
            tuple(getattr(self, field.name) for field in fields(self)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        object.__setattr__(self, _BLOB, blob)
    return intern, (type(self), blob)


def shared_rows(rows: Iterable[tuple]) -> Tuple[tuple, ...]:
    """``rows`` as a tuple in which equal rows are one object.

    A pickle stores an object it meets twice only once, and loads it
    once, so the per-chip rows of chips that did the same work cost one
    copy in a stored result and in the memory of every loaded one.
    Rows match by ``==``, under which ``1 == 1.0`` and ``0.0 == -0.0``:
    each column of the callers' rows holds one type and never ``-0.0``.
    """
    shared: Dict[tuple, tuple] = {}
    return tuple(shared.setdefault(row, row) for row in rows)
