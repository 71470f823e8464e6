"""The benchmark's three workloads: inputs from a seed, operations, output checks.

Every operation takes its inputs from a recorded index, so its outputs can be
checked against ``reference.json``.  In the Monte Carlo cells the index is the
replication seed; in ``fit_q2_files`` it names a data set.  Set-up turns the
workload seed into one pass: the operations a run repeats until its time is up.
``HELD_OUT_SEED`` alone gives a pass over a separate held-out block, kept for
checking later claims on inputs nobody tuned against.

A Monte Carlo pass is one ``run_scenario_records`` call, the unit of table
reproduction, as large as one run allows.  ``mc_w1_poisson`` has five such
blocks and the seed picks one; ``mc_w2_lgcp_t4`` and ``fit_q2_files`` have
one block each, so every run measures the same operations: their costs vary
by 15% or more with the point count and the PCF fit, and runs drawing
different operations differed by as much.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ppcf import cli, harness
from ppcf.fields import simulate_grf, write_grid_file

HELD_OUT_SEED = 7919
SEED_STRIDE = 7

# Outputs must match the reference to rtol 1e-5 (atol 1e-9); PCF families and
# failure types must match exactly.  Reordered floating-point sums move
# theta-hat and SE by ~1e-12 relative, and a 1e-6 relative change in the PCF
# double sum moves SE by at most ~1e-6, so both pass; changing the kernel,
# bandwidth, fold split or PCF fit moves theta-hat by 1e-3 or more and fails.
RTOL = 1e-5
ATOL = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Outcome:
    """One operation: its index and either its outputs or an error type."""

    index: int
    summary: Optional[dict] = None
    error: Optional[str] = None
    points: int = 0
    warnings: list = field(default_factory=list)


def _rotation(seed: int, count: int) -> int:
    """Which of ``count`` blocks (or data sets) a workload seed starts from."""
    return (seed * SEED_STRIDE) % count


class MonteCarloCell:
    """Replications of one scenario cell through ``harness.run_scenario_records``.

    A pass is one call with ``reps = call`` and ``base_seed`` = the first index
    of the seed's block, run by the harness's own pool of ``parallelism``
    workers.  The main blocks are ``[k * call, (k + 1) * call)`` for
    ``k < blocks``.  A smoke pass runs one replication per worker.
    """

    parallelism = 2
    repeatable = True

    def __init__(self, name, cell, call, blocks, held_out):
        self.name = name
        self.cell = cell
        self.call = call
        self.blocks = blocks
        self.held_out = held_out

    def main_indices(self) -> range:
        return range(self.call * self.blocks)

    def setup(self, seed: int, workdir: Path, smoke: bool = False) -> list:
        if seed == HELD_OUT_SEED:
            first = self.held_out.start
        else:
            first = _rotation(seed, self.blocks) * self.call
        return [(first, self.parallelism if smoke else self.call)]

    def run(self, batch, outdir):
        return self.run_indices(*batch)

    def run_indices(self, first: int, count: int):
        s = harness.Scenario(**self.cell, reps=count, base_seed=first)
        try:
            _, records = harness.run_scenario_records(s, parallelism=self.parallelism)
        except Exception as exc:  # the whole call is lost; count every replication
            return [Outcome(first + r, error=type(exc).__name__) for r in range(count)]
        out = []
        for rec in records:
            index = first + rec["rep"]
            if rec.get("ok"):
                out.append(Outcome(index, summary=mc_summary(rec), points=rec["n_points"]))
            else:
                out.append(Outcome(index, error=rec["error"].split(":")[0]))
        return out


def mc_summary(rec: dict) -> dict:
    """theta-hat per estimator; SE and PCF family per estimator and variance variant."""
    return {est: {"theta": e["theta"],
                  "variants": {v: {"se": d["se"], "pcf_family": d["pcf_family"]}
                               for v, d in e["variants"].items()}}
            for est, e in rec["estimators"].items()}


@dataclass
class DataSet:
    index: int
    pattern: str
    y_grid: str
    z_grids: tuple
    points: int


class FileFits:
    """``ppcf fit`` on distinct W1 LGCP data sets (q = 2), serially in this process.

    A pass fits every data set of the block once, in an order the seed rotates;
    a run makes one pass, so no two of its fits share inputs.  A smoke pass
    fits one data set.
    """

    name = "fit_q2_files"
    parallelism = 1
    repeatable = False
    scenario = dict(window="W1", process="lgcp", covariates="ind", nuisance="linear",
                    reps=1, base_seed=310_000)

    def __init__(self, block=4, held_out=range(40, 44)):
        self.block = block
        self.held_out = held_out

    def make_data_set(self, index: int, workdir: Path) -> DataSet:
        s = harness.Scenario(**self.scenario)
        d = Path(workdir) / f"set{index}"
        paths = harness.emit_scenario_files(s, index, d)
        n_lat = int(round(harness.LATTICE_PER_UNIT * s.the_window().width))
        z1_seed = int(np.random.SeedSequence([s.base_seed, index]).generate_state(1)[0])
        z1 = simulate_grf(s.the_window(), n_lat, n_lat, harness.COVARIATE_GRF, z1_seed)
        write_grid_file(z1, d / "z1.txt")
        with open(paths["pattern"]) as fh:
            n_points = int(fh.readline().split()[4])
        return DataSet(index, paths["pattern"], paths["y0"], (paths["z0"], str(d / "z1.txt")),
                       n_points)

    def main_indices(self) -> range:
        return range(self.block)

    def setup(self, seed: int, workdir: Path, smoke: bool = False) -> list:
        if seed == HELD_OUT_SEED:
            indices = list(self.held_out)
        else:
            r = _rotation(seed, self.block)
            indices = list(range(r, self.block)) + list(range(r))
        if smoke:
            indices = indices[:1]
        return [self.make_data_set(i, workdir) for i in indices]

    def run(self, ds: DataSet, outdir):
        return [self.fit(ds, outdir)]

    def argv(self, ds: DataSet, out_prefix) -> list:
        argv = ["fit", ds.pattern, "--y-grid", ds.y_grid]
        for z in ds.z_grids:
            argv += ["--z-grid", z]
        return argv + ["--grid-n", "32", "--pcf", "estimated", "--seed", str(ds.index),
                       "--out", str(out_prefix)]

    def fit(self, ds: DataSet, outdir: Path) -> Outcome:
        prefix = Path(outdir) / f"fit{ds.index}"
        out = Outcome(ds.index, points=ds.points)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(self.argv(ds, prefix))
                with open(f"{prefix}_summary.jsonl") as fh:
                    rec = json.loads(fh.readline())
                out.summary = {"theta": rec["theta"], "se": rec["se"],
                               "pcf_family": rec["pcf"]["family"]}
            except (Exception, SystemExit) as exc:  # one failed fit; keep going
                out.error = type(exc).__name__
        # counted, then shown as they would have been
        for w in caught:
            out.warnings.append(str(w.message))
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return out


WORKLOADS = {
    "mc_w1_poisson": MonteCarloCell(
        "mc_w1_poisson",
        dict(window="W1", process="poisson", covariates="ind", nuisance="linear",
             pcf_mode="none", estimators=("semi",)),
        call=200, blocks=5, held_out=range(1024, 1224)),
    "mc_w2_lgcp_t4": MonteCarloCell(
        "mc_w2_lgcp_t4",
        dict(window="W2", process="lgcp", covariates="dep", nuisance="poly",
             pcf_mode="estimated", estimators=("semi", "para", "oracle")),
        call=8, blocks=1, held_out=range(96, 104)),
    "fit_q2_files": FileFits(),
}


# -- reference check --------------------------------------------------------------


def load_reference(name: str) -> dict:
    """Recorded outputs of a workload, keyed by index."""
    with open(REFERENCE_PATH) as fh:
        return {int(i): entry for i, entry in json.load(fh)[name].items()}


def reference_entry(outcome: Outcome) -> dict:
    """What ``reference.json`` stores for one operation."""
    if outcome.error is not None:
        return {"error": outcome.error}
    return outcome.summary


def matches(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            matches(g, w) for g, w in zip(got, want))
    if isinstance(want, float) and not isinstance(got, (bool, str)):
        return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    return got == want


def failure(outcome: Outcome, reference: dict) -> Optional[str]:
    """Why an operation failed, or None: an error, or outputs off the reference."""
    if outcome.error is not None:
        return outcome.error
    if not matches(reference_entry(outcome), reference.get(outcome.index)):
        return "reference mismatch"
    return None
