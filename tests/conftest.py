"""The tests import hammerkit from ``src`` (pytest's ``pythonpath`` in
pyproject.toml).  Prover processes they start import it too, so they get
the same directory on their path."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
