"""Byte-addressed memory image for the functional interpreter.

Arrays are allocated 64-byte aligned (cache-line / SSE alignment — the
timers in the paper's methodology use aligned operands, and our
vectorizer assumes 16-byte alignment).  Loads/stores are bounds-checked:
the interpreter faults on out-of-range or misaligned vector accesses,
which is how transform bugs surface in tests.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

import numpy as np

from ..errors import SimulationFault
from ..ir.types import DType

_NP_DTYPE = {DType.F32: np.float32, DType.F64: np.float64,
             DType.I64: np.int64, DType.PTR: np.int64}

_INT = frozenset((DType.I64, DType.PTR))

_ALIGN = 64


class MemoryImage:
    """A sparse collection of allocations addressed by integer addresses.

    Allocations only ever grow upward and never overlap, so the one that
    could hold an address is found by bisecting their bases."""

    def __init__(self) -> None:
        self._next = 0x1000
        # parallel, sorted by base: base, end, a uint8 view of the
        # array (stores write through it) and the name of each allocation
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._bytes: List[np.ndarray] = []
        self._names: List[str] = []

    # ------------------------------------------------------------------
    def allocate(self, array: np.ndarray, name: str = "") -> int:
        """Register a numpy array; returns its base address.  The array
        is used *in place*: stores through the image mutate it."""
        if array.ndim != 1:
            raise SimulationFault(f"only 1-D arrays supported ({name})")
        if not array.flags["C_CONTIGUOUS"]:
            raise SimulationFault(f"array {name!r} must be contiguous")
        base = (self._next + _ALIGN - 1) // _ALIGN * _ALIGN
        size = array.nbytes
        self._bases.append(base)
        self._ends.append(base + size)
        self._bytes.append(array.view(np.uint8))
        self._names.append(name)
        self._next = base + size + _ALIGN  # red zone between allocations
        return base

    def allocate_raw(self, nbytes: int, name: str = "") -> int:
        """Allocate zeroed raw space (used for the spill stack)."""
        arr = np.zeros(nbytes, dtype=np.uint8)
        return self.allocate(arr, name)

    # ------------------------------------------------------------------
    def _find(self, addr: int, nbytes: int) -> np.ndarray:
        """The ``nbytes`` bytes at ``addr``, as a writable uint8 view."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr + nbytes <= self._ends[i]:
            off = addr - self._bases[i]
            return self._bytes[i][off:off + nbytes]
        raise SimulationFault(
            f"access of {nbytes} bytes at {addr:#x} is out of bounds")

    def load(self, addr: int, dtype: DType, lanes: int = 1):
        """Load a scalar (lanes == 1) or vector value."""
        npdt = _NP_DTYPE[dtype]
        if lanes > 1 and addr % 16 != 0:
            raise SimulationFault(
                f"unaligned vector load at {addr:#x}")
        values = self._find(addr, dtype.size * lanes).view(npdt)
        if lanes == 1:
            v = values[0]
            return int(v) if dtype in _INT else npdt(v)
        return values.copy()

    def store(self, addr: int, value, dtype: DType, lanes: int = 1) -> None:
        npdt = _NP_DTYPE[dtype]
        if lanes > 1 and addr % 16 != 0:
            raise SimulationFault(
                f"unaligned vector store at {addr:#x}")
        dest = self._find(addr, dtype.size * lanes)
        if lanes == 1:
            data = np.array([value], dtype=npdt)
        else:
            data = np.asarray(value, dtype=npdt)
            if data.shape != (lanes,):
                raise SimulationFault(
                    f"vector store of shape {data.shape}, expected ({lanes},)")
        dest[:] = data.view(np.uint8)

    def load_unaligned(self, addr: int, dtype: DType, lanes: int):
        """Vector load without the 16-byte alignment requirement
        (movups semantics)."""
        npdt = _NP_DTYPE[dtype]
        return self._find(addr, dtype.size * lanes).view(npdt).copy()

    def store_unaligned(self, addr: int, value, dtype: DType,
                        lanes: int) -> None:
        npdt = _NP_DTYPE[dtype]
        dest = self._find(addr, dtype.size * lanes)
        data = np.asarray(value, dtype=npdt)
        if data.shape != (lanes,):
            raise SimulationFault(
                f"vector store of shape {data.shape}, expected ({lanes},)")
        dest[:] = data.view(np.uint8)

    # ------------------------------------------------------------------
    def describe(self, addr: int) -> str:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return f"{self._names[i] or '<anon>'}+{addr - self._bases[i]}"
        return f"{addr:#x} (unmapped)"
