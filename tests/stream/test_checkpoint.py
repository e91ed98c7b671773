"""CheckpointStore: atomic snapshots, versioning, corruption handling."""

import json

import pytest

from repro.logs.integrity import crc32c
from repro.stream.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    CheckpointStore,
)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert not store.exists()
        assert store.load() is None
        store.save({"batches": 3, "payload": [1, 2.5, None, "x"]})
        assert store.exists()
        state = store.load()
        assert state["batches"] == 3
        assert state["payload"] == [1, 2.5, None, "x"]
        assert state["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_save_leaves_no_tmp_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1})
        store.save({"a": 2})
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["checkpoint.json"]
        assert store.load()["a"] == 2

    def test_float_round_trip_is_exact(self, tmp_path):
        store = CheckpointStore(tmp_path)
        values = [0.1 + 0.2, 1e300, 1559347200.000001, -0.0]
        store.save({"floats": values})
        assert store.load()["floats"] == values

    def test_version_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1})
        doc = json.loads(store.path.read_text())
        doc["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        store.path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="schema_version"):
            store.load()

    def test_v1_checkpoint_gets_schema_hint(self, tmp_path):
        # A pre-CRC checkpoint fails on its version, not on the frame.
        store = CheckpointStore(tmp_path)
        store.path.write_text(json.dumps({"schema_version": 1, "a": 1}))
        with pytest.raises(CheckpointError, match="schema_version.*--no-resume"):
            store.load()

    def test_document_is_compact_and_crc_framed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": [1, 2.5], "b": {"c": None}})
        raw = store.path.read_text()
        assert "\n" not in raw and ", " not in raw
        doc = json.loads(raw)
        assert list(doc) == ["crc32c", "schema_version", "a", "b"]
        rest = dict(doc)
        del rest["crc32c"]
        body = json.dumps(rest, separators=(",", ":")).encode()
        assert doc["crc32c"] == f"{crc32c(body):08x}"
        assert "crc32c" not in store.load()

    def test_reformatted_checkpoint_still_loads(self, tmp_path):
        # The frame covers the content, not the whitespace.
        store = CheckpointStore(tmp_path)
        store.save({"a": 1, "f": [0.1 + 0.2]})
        doc = json.loads(store.path.read_text())
        store.path.write_text(json.dumps(doc, indent=2))
        assert store.load()["f"] == [0.1 + 0.2]

    def test_tampered_value_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"coalescer": {"errors_seen": 40}})
        doc = json.loads(store.path.read_text())
        doc["coalescer"]["errors_seen"] += 7
        store.path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as exc:
            store.load()
        msg = str(exc.value)
        assert "crc32c mismatch" in msg
        assert "found" in msg and "expected" in msg
        assert "--no-resume" in msg

    def test_missing_crc_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1})
        doc = json.loads(store.path.read_text())
        del doc["crc32c"]
        store.path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="crc32c mismatch"):
            store.load()

    def test_corrupt_json_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"a": 1})
        store.path.write_text(store.path.read_text()[:-10])
        with pytest.raises(CheckpointError):
            store.load()

    def test_non_object_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError):
            store.load()

    def test_creates_directory(self, tmp_path):
        store = CheckpointStore(tmp_path / "nested" / "ckpt")
        store.save({"a": 1})
        assert store.load()["a"] == 1
