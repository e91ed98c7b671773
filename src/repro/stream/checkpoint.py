"""Crash-safe snapshots of the streaming pipeline's state.

One checkpoint is one JSON document holding everything needed to resume
exactly where a killed pipeline stopped: per-file byte offsets and line
numbers, raw per-family :class:`~repro.logs.ingest.IngestStats` plus
the deferred re-sort accounting, the online coalescer's group state,
the alert engine's rule state and the alert sink's position, and the
pipeline's own counters.  Resuming from it replays nothing: bytes
before the stored offsets are never re-read, so no record is
double-counted and no alert fires twice.

Writes are atomic: the document lands in a ``.tmp`` sibling first and
is renamed over ``checkpoint.json`` with :func:`os.replace`, so a crash
mid-write leaves the previous checkpoint intact.  The document is
written in compact JSON (no indentation, so the C encoder runs) and is
CRC-framed: a leading ``crc32c`` field holds the CRC-32C of the compact
encoding of the rest of the document, spliced in after one encoding
pass.  The schema is versioned; loading a checkpoint from a different
schema, a corrupt file, or one whose content no longer matches its
CRC (bit damage, a hand edit) raises :class:`CheckpointError` rather
than resuming from garbage.  The document layout is validated in CI
against ``schemas/checkpoint.schema.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro._util import fsync_dir
from repro.errors import ReproError
from repro.logs.integrity import crc32c

#: Bump on any change to the checkpoint document layout.
CHECKPOINT_SCHEMA_VERSION = 2

CHECKPOINT_NAME = "checkpoint.json"

_SEPARATORS = (",", ":")


def _digest(body: str) -> str:
    """The frame CRC of a compact-encoded document without its ``crc32c``."""
    return f"{crc32c(body.encode()):08x}"


class CheckpointError(RuntimeError, ReproError):
    """A checkpoint could not be loaded (corrupt, wrong schema or CRC)."""


class CheckpointStore:
    """Atomic, versioned checkpoint persistence in one directory."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    @property
    def path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, state: dict) -> Path:
        """Atomically persist ``state``; returns the checkpoint path.

        Crash-ordering invariant: (1) the temp file's *data* is fsynced
        before the rename, so the rename can never expose a
        half-written document; (2) the *directory* is fsynced after the
        rename, so a power cut cannot roll the rename itself back and
        resurface the previous checkpoint after the caller was told the
        new one is durable.  Either order alone leaves a window where
        resume-after-crash replays records the pipeline already
        acknowledged.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        doc = {"schema_version": CHECKPOINT_SCHEMA_VERSION, **state}
        body = json.dumps(doc, separators=_SEPARATORS)
        payload = f'{{"crc32c":"{_digest(body)}",{body[1:]}'
        tmp = self.path.with_suffix(".json.tmp")
        with open(tmp, "w") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        fsync_dir(self.directory)
        return self.path

    def load(self) -> dict | None:
        """The current checkpoint document, or None when none exists."""
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{self.path}: corrupt checkpoint ({exc})"
            ) from exc
        if not isinstance(doc, dict):
            raise CheckpointError(
                f"{self.path}: checkpoint must be a JSON object"
            )
        version = doc.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"{self.path}: checkpoint schema_version mismatch: found "
                f"{version!r}, expected {CHECKPOINT_SCHEMA_VERSION}; hint: "
                "start over with --no-resume (or delete the checkpoint "
                "directory) -- checkpoints do not migrate across schemas"
            )
        recorded = doc.pop("crc32c", None)
        digest = _digest(json.dumps(doc, separators=_SEPARATORS))
        if recorded != digest:
            raise CheckpointError(
                f"{self.path}: checkpoint crc32c mismatch: found {digest}, "
                f"expected {recorded}; hint: the checkpoint was damaged "
                "or edited after it was written -- start over with "
                "--no-resume (or delete the checkpoint directory)"
            )
        return doc
