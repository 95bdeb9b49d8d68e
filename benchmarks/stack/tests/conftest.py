"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/stack/tests -q

Not collected by tier-1 (``testpaths = ["tests"]``).
"""

import os
import sys

STACK = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(STACK))
for path in (os.path.join(ROOT, "src"), STACK):
    if path not in sys.path:
        sys.path.insert(0, path)
