"""CRC-32C kernel correctness and shard sidecar verification.

The checksum implementation is pure numpy (scalar slicing-by-8 below
4 KiB, 64-byte chunk partials folded in a GF(2) tree above), so both
paths are pinned to the standard CRC-32C test vector, to each other and
to a bit-at-a-time textbook oracle; the sidecar layer is exercised
against real damage (truncation, bit flips).
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.faults.types import empty_errors
from repro.logs import integrity
from repro.logs.integrity import (
    SIDECAR_SUFFIX,
    ShardIntegrityError,
    crc32c,
    crc32c_file,
    sidecar_path,
    verify_checksum,
    write_checksum,
)
from repro.logs.store import load_records, save_records

from repro.faults.types import ERROR_DTYPE


def _crc32c_bitwise(data: bytes, value: int = 0) -> int:
    """Textbook bit-at-a-time CRC-32C; shares no tables with the module."""
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _random_bytes(n: int, seed: int = 5) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, size=n, dtype=np.uint8
    ).tobytes()


class TestCrc32c:
    def test_known_answer(self):
        # The canonical CRC-32C check vector (RFC 3720 appendix B.4).
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_input(self):
        assert crc32c(b"") == 0

    def test_scalar_and_vector_paths_agree(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=300_000, dtype=np.uint8).tobytes()
        # Full-buffer value (vector path) must equal the value
        # accumulated via chained blocks below the cutoff (scalar path).
        block = 2048
        assert block < integrity._VECTOR_MIN
        whole = crc32c(data)
        chained = 0
        for i in range(0, len(data), block):
            chained = crc32c(data[i : i + block], chained)
        assert whole == chained

    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 3])
    def test_matches_oracle_around_cutoff(self, delta):
        data = _random_bytes(integrity._VECTOR_MIN + delta)
        assert crc32c(data) == _crc32c_bitwise(data)

    @pytest.mark.parametrize(
        "rows", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 127, 129, 255, 257]
    )
    def test_tree_fold_matches_oracle(self, rows):
        # Chunk counts of 1 and 2**k +- 1 exercise the odd-count zero
        # partial at every tree level; a 3-byte tail and a non-zero
        # incoming register exercise the body advance.
        data = _random_bytes(64 * rows + 3, seed=rows)
        value = 0x9E3779B9
        reg = integrity._update_vector(
            (~value) & 0xFFFFFFFF, np.frombuffer(data, dtype=np.uint8)
        )
        assert (~reg) & 0xFFFFFFFF == _crc32c_bitwise(data, value)

    def test_chained_value_matches_oracle(self):
        head, body = _random_bytes(100, seed=1), _random_bytes(20_001, seed=2)
        assert len(body) % 4 == 1
        assert crc32c(body, crc32c(head)) == _crc32c_bitwise(head + body)

    def test_oracle_known_answer(self):
        assert _crc32c_bitwise(b"123456789") == 0xE3069283

    def test_chaining_is_associative(self):
        data = b"The quick brown fox jumps over the lazy dog" * 100
        for split in (1, 17, len(data) // 2, len(data) - 1):
            assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)

    def test_detects_single_bit_flip(self):
        rng = np.random.default_rng(11)
        data = bytearray(rng.integers(0, 256, size=100_000, dtype=np.uint8))
        reference = crc32c(bytes(data))
        data[50_000] ^= 0x10
        assert crc32c(bytes(data)) != reference

    def test_file_helper_matches_buffer(self, tmp_path):
        payload = b"x" * 70_000 + b"tail"
        path = tmp_path / "blob"
        path.write_bytes(payload)
        value, size = crc32c_file(path, block_bytes=4096)
        assert value == crc32c(payload)
        assert size == len(payload)


class TestSidecars:
    @pytest.fixture
    def shard(self, tmp_path):
        errors = empty_errors(64)
        errors["time"] = np.arange(64)
        errors["node"] = np.arange(64) % 7
        path = tmp_path / "errors-rack00.npy"
        save_records(path, errors)
        write_checksum(path)
        return path

    def test_round_trip_verifies(self, shard):
        assert verify_checksum(shard) is True
        doc = json.loads(sidecar_path(shard).read_text())
        assert doc["algorithm"] == "crc32c"
        assert doc["size"] == shard.stat().st_size

    def test_sidecar_never_globbed_as_shard(self, shard):
        assert sidecar_path(shard).name.endswith(SIDECAR_SUFFIX)
        assert not sidecar_path(shard).match("*.npy")

    def test_missing_sidecar_is_legacy_unless_required(self, shard):
        sidecar_path(shard).unlink()
        assert verify_checksum(shard) is False
        with pytest.raises(ShardIntegrityError, match="no .* sidecar"):
            verify_checksum(shard, required=True)

    def test_truncation_detected(self, shard):
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        with pytest.raises(ShardIntegrityError, match="size mismatch"):
            verify_checksum(shard)

    def test_bit_flip_detected(self, shard):
        data = bytearray(shard.read_bytes())
        data[-5] ^= 0x01  # payload byte, header untouched
        shard.write_bytes(bytes(data))
        with pytest.raises(ShardIntegrityError, match="crc32c mismatch"):
            verify_checksum(shard)

    def test_load_records_verify_gate(self, shard):
        # verify=True consumes an intact shard and rejects a corrupt one.
        load_records(shard, ERROR_DTYPE, verify=True)
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0x80
        shard.write_bytes(bytes(data))
        with pytest.raises(ShardIntegrityError):
            load_records(shard, ERROR_DTYPE, verify=True)

    def test_error_survives_pickling(self, shard):
        # Pool workers hand the exception to the parent through pickle;
        # path and reason must survive so quarantine reporting stays typed.
        err = ShardIntegrityError(shard, "crc32c mismatch (test)")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ShardIntegrityError)
        assert clone.path == err.path
        assert clone.reason == err.reason
