"""MemoryImage: bounds, typed access, allocation."""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.memory import MemoryError_, MemoryImage
from repro.ir.types import DOUBLE, I16, I32


def test_read_write_roundtrip():
    mem = MemoryImage(256, base=0x1000)
    mem.write(0x1010, b"hello")
    assert mem.read(0x1010, 5) == b"hello"


def test_bounds_checked():
    mem = MemoryImage(256, base=0x1000)
    with pytest.raises(MemoryError_):
        mem.read(0xFFF, 1)
    with pytest.raises(MemoryError_):
        mem.read(0x10FF, 2)
    with pytest.raises(MemoryError_):
        mem.write(0x1100, b"x")


def test_contains():
    mem = MemoryImage(256, base=0x1000)
    assert mem.contains(0x1000)
    assert mem.contains(0x10FF)
    assert mem.contains(0x1000, 256)
    assert not mem.contains(0x1000, 257)
    assert not mem.contains(0xFFF)


def test_typed_access():
    mem = MemoryImage(256, base=0)
    mem.write_value(8, -5, I32)
    assert mem.read_value(8, I32) == (-5) & 0xFFFFFFFF
    mem.write_value(16, 3.25, DOUBLE)
    assert mem.read_value(16, DOUBLE) == 3.25


def test_numpy_arrays():
    mem = MemoryImage(1024, base=0x100)
    data = np.arange(10, dtype=np.float64)
    mem.write_array(0x100, data)
    out = mem.read_array(0x100, np.float64, 10)
    assert np.array_equal(out, data)
    out[0] = 99  # copy, not a view
    assert mem.read_value(0x100, DOUBLE) == 0.0


def test_allocator_alignment_and_exhaustion():
    mem = MemoryImage(64, base=0x10)
    a = mem.alloc(5)
    b = mem.alloc(8)
    assert a == 0x10
    assert b % 8 == 0
    with pytest.raises(MemoryError_):
        mem.alloc(1000)


def test_alloc_array_stages_contents():
    mem = MemoryImage(1024, base=0)
    data = np.array([1, 2, 3], dtype=np.int32)
    addr = mem.alloc_array(data)
    assert np.array_equal(mem.read_array(addr, np.int32, 3), data)


def test_reset_allocator():
    mem = MemoryImage(64, base=0)
    first = mem.alloc(8)
    mem.reset_allocator()
    assert mem.alloc(8) == first


def test_fill():
    mem = MemoryImage(16, base=0)
    mem.fill(0xAB)
    assert mem.read(0, 16) == b"\xab" * 16


@given(
    st.integers(min_value=0, max_value=200),
    st.binary(min_size=1, max_size=56),
)
def test_write_read_arbitrary(offset, blob):
    mem = MemoryImage(256, base=0x2000)
    mem.write(0x2000 + offset, blob)
    assert mem.read(0x2000 + offset, len(blob)) == blob


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        MemoryImage(0)


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_large_image_commits_lazily():
    # An image costs resident memory for the pages a run touches, not
    # for its whole address window (a finished platform may linger as
    # cyclic garbage until the next full collection).
    before = _resident_bytes()
    mem = MemoryImage(256 << 20, base=0x8000_0000)
    mem.write(0x8000_0000 + (128 << 20), b"\x01\x02")
    assert _resident_bytes() - before < 8 << 20
    assert mem.read(0x8000_0000 + (128 << 20), 3) == b"\x01\x02\x00"


def test_lazy_image_supports_every_access():
    mem = MemoryImage(64, base=0x100)
    addr = mem.alloc_array(np.arange(4, dtype=np.float64))
    np.testing.assert_array_equal(mem.read_array(addr, np.float64, 4),
                                  np.arange(4, dtype=np.float64))
    # The fault injector's in-place bit flip.
    mem._data[addr - mem.base] ^= 0x80
    assert mem.read(addr, 1) == b"\x80"
    mem.fill(0x5A)
    assert mem.read(0x100, 64) == b"\x5a" * 64
