"""``python -m repro.cli`` -- the same entry point as ``python -m repro``."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
