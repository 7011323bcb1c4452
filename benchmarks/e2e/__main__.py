"""Entry point: ``python -m benchmarks.e2e`` or
``python3 benchmarks/e2e/__main__.py``, from the repository root."""

import sys
from pathlib import Path

if not __package__:
    # Run as a script: import the package from the repository root
    # rather than from this directory.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.harness import main

if __name__ == "__main__":
    sys.exit(main())
