"""Small shared utilities."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUCache:
    """A minimal bounded mapping with least-recently-used eviction.

    Used to memoize expensive per-key construction (front-end lowering,
    per-worker tool kits) without letting long batch runs grow the memo
    without bound.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses")

    def __init__(self, maxsize: int):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self.maxsize:
            data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()


# ---------------------------------------------------------------------------
# serialization schema versioning

#: current schema of every ``to_dict`` payload (TunedKernel,
#: SearchResult, TransformParams, KernelTiming).  Bump only when a
#: payload changes shape incompatibly; readers accept anything <= this.
SCHEMA_VERSION = 1


def check_schema(data: dict, what: str) -> int:
    """Validate the ``schema`` field of a serialized payload.

    Missing means schema 1 (every pre-versioning payload), so old
    caches, checkpoints and result stores keep loading.  A schema from
    the future is an error — silently misreading it would be worse.
    """
    schema = data.get("schema", 1)
    try:
        schema = int(schema)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what}: bad schema field {schema!r}")
    if not 1 <= schema <= SCHEMA_VERSION:
        raise ValueError(f"{what}: unsupported schema {schema} "
                         f"(this build reads <= {SCHEMA_VERSION})")
    return schema
