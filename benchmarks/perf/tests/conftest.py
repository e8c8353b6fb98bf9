"""Make the harness modules and the repo's sources importable."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
REPO = PERF.parents[1]
for path in (REPO / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
