"""Typed failures of the prediction subsystem.

Everything user-facing raises :class:`PredictError` with a
``found/expected`` statement plus a recovery hint (the convention PR 9
established for rollup version mismatches), so the CLI can map it to a
clean ``exit 2`` instead of a traceback.
"""

from __future__ import annotations

from repro.errors import ReproError


class PredictError(RuntimeError, ReproError):
    """A model could not be trained, loaded, or applied."""


def mismatch(what: str, found, expected, hint: str) -> PredictError:
    """Uniform found/expected + hint error text."""
    return PredictError(
        f"{what} mismatch: found {found!r}, expected {expected!r}; "
        f"hint: {hint}"
    )
