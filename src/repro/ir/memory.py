"""Flat byte-addressable memory image.

This is the *functional* store of the whole platform.  Device models
(DRAM, SPMs) each own a :class:`MemoryImage` (or a window into one);
the interpreter and the accelerator runtime read and write real bytes
here, which is what makes the simulation "execute-in-execute".

Includes a tiny bump allocator so workloads and tests can place arrays
without managing addresses by hand.

The bytes live in an anonymous ``mmap``, which the OS zero-fills one
page at a time on first touch: an image costs resident memory only for
the pages a run actually uses, however large its address window.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.ir.semantics import bytes_to_value, value_to_bytes
from repro.ir.types import Type


class MemoryError_(RuntimeError):
    """Out-of-range access on a memory image."""


class MemoryImage:
    """A contiguous byte store starting at ``base``."""

    def __init__(self, size: int, base: int = 0, name: str = "mem") -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.name = name
        self.base = base
        self.size = size
        self._data = mmap.mmap(-1, size)
        self._alloc_ptr = base

    # -- raw byte access ---------------------------------------------------
    def _check(self, addr: int, size: int) -> int:
        offset = addr - self.base
        if offset < 0 or offset + size > self.size:
            raise MemoryError_(
                f"{self.name}: access [{addr:#x}, {addr + size:#x}) outside "
                f"[{self.base:#x}, {self.base + self.size:#x})"
            )
        return offset

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.base + self.size

    def read(self, addr: int, size: int) -> bytes:
        offset = self._check(addr, size)
        return bytes(self._data[offset : offset + size])

    def write(self, addr: int, data: bytes) -> None:
        offset = self._check(addr, len(data))
        self._data[offset : offset + len(data)] = data

    def fill(self, value: int = 0) -> None:
        self._data[:] = bytes([value & 0xFF]) * self.size

    # -- typed access --------------------------------------------------------
    def read_value(self, addr: int, type_: Type):
        return bytes_to_value(self.read(addr, type_.size_bytes()), type_)

    def write_value(self, addr: int, value, type_: Type) -> None:
        self.write(addr, value_to_bytes(value, type_))

    # -- numpy array views ------------------------------------------------------
    def write_array(self, addr: int, array: np.ndarray) -> None:
        self.write(addr, array.tobytes())

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        raw = self.read(addr, dtype.itemsize * count)
        return np.frombuffer(raw, dtype=dtype).copy()

    # -- allocation ----------------------------------------------------------------
    def alloc(self, size: int, align: int = 8) -> int:
        """Bump-allocate ``size`` bytes, returning the address."""
        addr = self._alloc_ptr
        if align > 1 and addr % align:
            addr += align - addr % align
        if addr + size > self.base + self.size:
            raise MemoryError_(f"{self.name}: allocator exhausted")
        self._alloc_ptr = addr + size
        return addr

    def alloc_array(self, array: np.ndarray, align: int = 8) -> int:
        addr = self.alloc(array.nbytes, align)
        self.write_array(addr, array)
        return addr

    def reset_allocator(self) -> None:
        self._alloc_ptr = self.base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryImage {self.name} base={self.base:#x} size={self.size}>"
