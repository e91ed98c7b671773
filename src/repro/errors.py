"""The common base of the package's typed operational errors.

Deliberately import-free: the CLI catches :class:`ReproError` in one
place, and importing this module must not pull in any layer.
"""


class ReproError(Exception):
    """A failure whose message names its cause and a recovery hint.

    Ingest, checkpoint, tail, predict, rollup, query and fleet-format
    errors carry it as a second base; ``astra-memrepro`` prints
    ``error: <message>`` and exits 2 for any of them.
    """
