"""Load the benchmark's brute-force window oracle for the tests.

``benchmarks/oracle.py`` is the one annulus-scan oracle of the repository;
the benchmark gates and the differential tests both check windows against
it.  It is registered here as the module ``window_oracle``.
"""

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "window_oracle", Path(__file__).resolve().parent.parent / "benchmarks" / "oracle.py"
)
window_oracle = importlib.util.module_from_spec(_spec)
sys.modules["window_oracle"] = window_oracle
_spec.loader.exec_module(window_oracle)
