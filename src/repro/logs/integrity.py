"""Shard integrity: CRC-32C content checksums and sidecar verification.

``.npy`` carries no checksum, so a torn write (crash mid-``write``), a
truncated copy, or a flipped bit in the payload is consumed as truth --
the header still parses and the damage silently poisons every reduction
downstream.  This module closes that hole the way production object
stores do: every binary shard/mirror gets a ``<name>.crc32c`` sidecar
written at synthesis time (CRC-32C of the full file bytes, Castagnoli
polynomial -- the same checksum ext4, iSCSI and most object stores
use), and loads verify it before the payload is trusted.  A mismatch
raises the typed :class:`ShardIntegrityError` (a ``ValueError``
subclass, so existing binary-mirror -> text-log fallback ladders treat
it exactly like an unreadable mirror), which the fleet supervisor
routes into the quarantine path instead of the reduction.

The checksum itself is computed without native dependencies at useful
speed.  The register update is GF(2)-linear, so a buffer is split into
64-byte chunks whose partial CRCs (zero initial register) are computed
together: the chunks are rows of little-endian 32-bit words, and 16
slicing-by-4 table-gather steps over the word columns finish every row
at once.  The partials are then folded pairwise in a vectorised tree;
level ``j`` joins neighbours with cached 4x256 tables that advance a
register past ``64 * 2**j`` zero bytes.  The incoming register is
advanced past the whole body by composing those same level tables, and
a tail shorter than one chunk finishes on a scalar slicing-by-8 loop,
which also handles buffers too small for numpy to pay off.  Both paths
produce standard CRC-32C values (e.g.
``crc32c(b"123456789") == 0xE3069283``).
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import numpy as np

#: CRC-32C (Castagnoli), reflected representation.
_POLY = 0x82F63B78

#: Buffers below this take the scalar path.  Measured on a 2-vCPU x86
#: VM (numpy 2.4, CPython 3.11): the paths cross near 2.5-3 KiB; at
#: 4 KiB the scalar loop takes 0.46 ms and the vector kernel 0.39 ms,
#: at 64 KiB 11.5 ms against 0.87 ms.  4 KiB is the first power of two
#: past the crossover.
_VECTOR_MIN = 4 * 1024

#: Sidecar suffix appended to the checksummed file's own name, chosen so
#: ``*.npy`` globs never match a sidecar.
SIDECAR_SUFFIX = ".crc32c"


class ShardIntegrityError(ValueError):
    """A binary shard/mirror failed its content checksum.

    Subclasses ``ValueError`` so every existing "unreadable mirror"
    except-ladder (binary -> text fallback, CLI exit-2 mapping) handles
    a checksum mismatch exactly like a corrupt npy header, while
    callers that care (the fleet supervisor's quarantine path) can
    match the precise type.
    """

    def __init__(self, path, reason: str):
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``, which needs (path, reason) -- so a
        # worker-raised instance would fail to unpickle in the parent
        # and be misclassified as a retryable pool error.
        return (type(self), (str(self.path), self.reason))


# ----------------------------------------------------------------------
# CRC-32C kernels
# ----------------------------------------------------------------------
def _make_tables(n: int = 8) -> np.ndarray:
    """Slicing tables: ``T[k][b]`` advances byte ``b`` past ``k`` more bytes."""
    t = np.zeros((n, 256), dtype=np.uint32)
    c = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        c = np.where(c & 1, (c >> 1) ^ np.uint32(_POLY), c >> 1)
    t[0] = c
    for k in range(1, n):
        t[k] = t[0][t[k - 1] & 0xFF] ^ (t[k - 1] >> 8)
    return t


_T = _make_tables(8)
#: Python-int copies for the scalar loop (uint32 indexing is slower).
_TL = [row.tolist() for row in _T]

#: Byte-indexed tables of the "advance past 4 zero bytes" operator:
#: ``_apply(_T4, reg ^ word)`` is one slicing-by-4 step.
_T4 = _T[3::-1]

#: Table column for each single-bit byte value (recovers the operator's
#: 32 basis images from its tables).
_BITS = np.uint32(1) << np.arange(8, dtype=np.uint32)


def _update_scalar(reg: int, data) -> int:
    """Advance the raw CRC register over ``data``, slicing-by-8."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _TL
    mv = memoryview(data).cast("B")
    n = len(mv)
    i = 0
    end8 = n - (n % 8)
    while i < end8:
        b = mv[i : i + 8]
        reg = (
            t7[(reg ^ b[0]) & 0xFF]
            ^ t6[((reg >> 8) ^ b[1]) & 0xFF]
            ^ t5[((reg >> 16) ^ b[2]) & 0xFF]
            ^ t4[((reg >> 24) ^ b[3]) & 0xFF]
            ^ t3[b[4]]
            ^ t2[b[5]]
            ^ t1[b[6]]
            ^ t0[b[7]]
        )
        i += 8
    while i < n:
        reg = t0[(reg ^ mv[i]) & 0xFF] ^ (reg >> 8)
        i += 1
    return reg


def _apply(tables: np.ndarray, x):
    """Apply a GF(2) operator, given as 4x256 byte tables, to registers."""
    return (
        tables[0][x & 0xFF]
        ^ tables[1][(x >> 8) & 0xFF]
        ^ tables[2][(x >> 16) & 0xFF]
        ^ tables[3][x >> 24]
    )


def _square(tables: np.ndarray) -> np.ndarray:
    """Tables of the operator applied twice."""
    cols = _apply(tables, tables[:, _BITS].ravel()).reshape(4, 8)
    # Subset-XOR expansion: after bit b the row holds all 2**(b+1)
    # combinations of the byte's first b+1 basis images.
    out = np.zeros((4, 1), dtype=np.uint32)
    for bit in range(8):
        out = np.concatenate((out, out ^ cols[:, bit : bit + 1]), axis=1)
    return out


@functools.lru_cache(maxsize=None)
def _level(j: int) -> np.ndarray:
    """Tables advancing the register past ``64 * 2**j`` zero bytes."""
    if j == 0:
        tables = _T4
        for _ in range(4):  # 4 -> 8 -> 16 -> 32 -> 64 bytes
            tables = _square(tables)
        return tables
    return _square(_level(j - 1))


def _update_vector(reg: int, data: np.ndarray) -> int:
    """Advance the register over a large buffer (at least 64 bytes).

    The body is read as ``rows x 16`` little-endian words, one 64-byte
    chunk per row, and every chunk's partial CRC (zero initial
    register) is computed at once: 16 slicing-by-4 column steps.  The
    partials are then folded pairwise, ``A(left) ^ right`` with ``A``
    advancing past the left half's length (64 * 2**level bytes), until
    one remains; an odd count gets a zero partial prepended, which
    stands for leading zero bytes and so changes nothing under a zero
    register.  The incoming register is advanced past the whole body
    by composing the level operators over the set bits of ``rows``,
    and the tail shorter than one chunk finishes on the scalar path.
    """
    rows = data.size // 64
    words = data[: rows * 64].view("<u4").reshape(rows, 16)
    z = np.zeros(rows, dtype=np.uint32)
    for col in range(16):
        z = _apply(_T4, z ^ words[:, col])
    level = 0
    while z.size > 1:
        if z.size & 1:
            z = np.concatenate((np.zeros(1, dtype=np.uint32), z))
        z = _apply(_level(level), z[0::2]) ^ z[1::2]
        level += 1
    for j in range(rows.bit_length()):
        if rows >> j & 1:
            reg = int(_apply(_level(j), np.uint32(reg)))
    reg ^= int(z[0])
    tail = data[rows * 64 :]
    if tail.size:
        reg = _update_scalar(reg, tail.tobytes())
    return reg


def crc32c(data, value: int = 0) -> int:
    """Standard CRC-32C of ``data`` (bytes-like), optionally chained.

    ``value`` is a previous :func:`crc32c` result to continue from, so
    large files can be checksummed in streamed blocks.
    """
    reg = (~value) & 0xFFFFFFFF
    buf = np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8)
    if buf.size >= _VECTOR_MIN:
        reg = _update_vector(reg, buf)
    else:
        reg = _update_scalar(reg, buf.tobytes())
    return (~reg) & 0xFFFFFFFF


def crc32c_file(path: str | os.PathLike, block_bytes: int = 1 << 24) -> tuple:
    """``(crc32c, size)`` of a file's full contents, read in blocks."""
    value = 0
    size = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(block_bytes)
            if not block:
                break
            value = crc32c(block, value)
            size += len(block)
    return value, size


# ----------------------------------------------------------------------
# Sidecars
# ----------------------------------------------------------------------
def sidecar_path(path: str | os.PathLike) -> Path:
    """The checksum sidecar belonging to ``path``."""
    path = Path(path)
    return path.with_name(path.name + SIDECAR_SUFFIX)


def write_checksum(path: str | os.PathLike) -> Path:
    """Checksum ``path`` and write its sidecar; returns the sidecar path."""
    value, size = crc32c_file(path)
    doc = {"algorithm": "crc32c", "crc32c": f"{value:08x}", "size": size}
    side = sidecar_path(path)
    side.write_text(json.dumps(doc) + "\n")
    return side


def verify_checksum(path: str | os.PathLike, required: bool = False) -> bool:
    """Verify ``path`` against its sidecar, if one exists.

    Returns ``True`` when the checksum was present and matched and
    ``False`` when no sidecar exists (legacy data; ``required=True``
    turns that into an error).  Any mismatch -- wrong length (torn or
    truncated write) or wrong CRC (bit damage) -- raises
    :class:`ShardIntegrityError`.
    """
    side = sidecar_path(path)
    try:
        doc = json.loads(side.read_text())
    except FileNotFoundError:
        if required:
            raise ShardIntegrityError(
                path, f"no {SIDECAR_SUFFIX} sidecar to verify against"
            ) from None
        return False
    except (OSError, json.JSONDecodeError) as exc:
        raise ShardIntegrityError(
            path, f"unreadable checksum sidecar ({exc})"
        ) from exc
    if not isinstance(doc, dict) or doc.get("algorithm") != "crc32c":
        raise ShardIntegrityError(
            path, f"unsupported checksum sidecar {side.name}"
        )
    value, size = crc32c_file(path)
    want_size = doc.get("size")
    if want_size is not None and size != int(want_size):
        raise ShardIntegrityError(
            path,
            f"size mismatch ({size} bytes vs {want_size} recorded); "
            "torn or truncated write",
        )
    want = str(doc.get("crc32c", ""))
    if f"{value:08x}" != want.lower():
        raise ShardIntegrityError(
            path,
            f"crc32c mismatch ({value:08x} vs {want} recorded); "
            "payload corrupted",
        )
    return True
