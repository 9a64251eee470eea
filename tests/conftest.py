"""The CLI tests run ``python -m seatgraphs`` in subprocesses; put the
package's source directory on their PYTHONPATH so that a bare
``pytest`` from the repository root needs no environment set up."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
