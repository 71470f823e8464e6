"""Record the outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py [workload ...]

Runs every operation of each named workload's main and held-out blocks once
and writes ``reference.json`` next to this file.  Run it only when the
estimator is meant to change; a performance change must pass the existing
reference.  Takes about five minutes on two cores.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("PPCF_SEED", None)

import workloads  # noqa: E402


def record_mc(wl, blocks) -> dict:
    entries = {}
    for block in blocks:
        for first in range(block.start, block.stop, wl.call):
            for o in wl.run_indices(first, min(wl.call, block.stop - first)):
                entries[o.index] = workloads.reference_entry(o)
            print(f"{wl.name}: {len(entries)} recorded", flush=True)
    return entries


def _fit_one(index: int) -> dict:
    wl = workloads.WORKLOADS["fit_q2_files"]
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as tmp:
        out = wl.fit(wl.make_data_set(index, tmp), tmp)
    return workloads.reference_entry(out)


def record_fits(wl, blocks) -> dict:
    indices = [i for block in blocks for i in block]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        return dict(zip(indices, pool.map(_fit_one, indices, chunksize=1)))


def main(names) -> int:
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        blocks = (wl.main_indices(), wl.held_out)
        record = record_fits if name == "fit_q2_files" else record_mc
        reference[name] = record(wl, blocks)
        path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
