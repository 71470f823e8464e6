"""Disk cache for the heavy Monte Carlo scenario runs used by the test suite.

Scenario runs are deterministic given (scenario, parallelism-independent
reduction), the package source and the numerical stack, so their records can be
reused across test modules and sessions.  The key hashes the scenario fields
together with the contents of every ``ppcf`` source file and the Python, NumPy
and SciPy versions, so any code change or upgrade forces a cold run.  Each file
name starts with the source digest, and writing an entry deletes the entries of
every other source, so the cache holds the records of one source at a time.
"""

import hashlib
import json
import platform
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

import ppcf
from ppcf.harness import Scenario, TableRow, run_scenario_records

CACHE_DIR = Path(__file__).parent / ".mc_cache"


def _source_digest() -> str:
    """sha256 over the sorted ``ppcf/**/*.py`` files (relative path and contents)."""
    root = Path(ppcf.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_scenario_cached(s: Scenario, parallelism: int = 2):
    """(rows per estimator, raw records), cached on disk by scenario, source and stack."""
    stack = {"python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__}
    source = _source_digest()
    key_src = json.dumps({"scenario": asdict(s), "source": source, "stack": stack},
                         sort_keys=True, default=str)
    key = hashlib.sha256(key_src.encode()).hexdigest()[:24]
    prefix = source[:16] + "-"
    path = CACHE_DIR / f"{prefix}{key}.json"
    if path.exists():
        payload = json.loads(path.read_text())
        rows = {est: TableRow(**row) for est, row in payload["rows"].items()}
        return rows, payload["records"]
    rows, records = run_scenario_records(s, parallelism=parallelism)
    CACHE_DIR.mkdir(exist_ok=True)
    for stale in CACHE_DIR.glob("*.json"):
        if not stale.name.startswith(prefix):
            stale.unlink(missing_ok=True)
    payload = {**json.loads(key_src),
               "rows": {est: asdict(row) for est, row in rows.items()},
               "records": records}
    path.write_text(json.dumps(payload))
    return rows, records
