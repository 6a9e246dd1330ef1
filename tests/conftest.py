import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# The CLI tests run `python -m pnfield.cli` in subprocesses, which see the
# package only through PYTHONPATH; pyproject's pythonpath setting reaches
# this process alone.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
