"""Let the processes the tests start import blockfer from a checkout.

The pythonpath setting in pyproject.toml puts src/ on this process's
sys.path only; the CLI tests run `python -m blockfer.cli` as children,
which read PYTHONPATH instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
