"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The smoke runs take about two minutes on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def work(self, seconds):
        self.t += seconds


def test_self_time_of_nested_spans():
    clock = Clock()
    tr = spans.Tracer(clock=clock)
    tr.enter("a")
    clock.work(1)
    tr.enter("b")
    clock.work(2)
    tr.enter("c")
    clock.work(4)
    tr.exit()
    tr.exit()
    tr.enter("b")
    clock.work(8)
    tr.exit()
    clock.work(16)
    tr.exit()
    assert tr.self_s == {"a": 17, "b": 10, "c": 4}
    assert tr.calls == {"a": 1, "b": 2, "c": 1}
    assert tr.root_s == 31
    assert sum(tr.self_s.values()) == tr.root_s


def test_self_time_of_reentrant_spans_through_wrappers():
    # lfd_values -> EtaAggregate.eta_at -> NuisanceFit.eta_at (twice), and a
    # span that re-enters itself: each frame keeps only its own time.
    clock = Clock()
    tr = spans.Tracer(clock=clock)

    def nf_eta_at():
        clock.work(3)

    def agg_eta_at():
        clock.work(1)
        nf()
        nf()

    def lfd_values(depth):
        clock.work(5)
        if depth:
            lfd(depth - 1)
        agg()

    nf = spans.traced(tr, "nuisance.NuisanceFit.eta_at", nf_eta_at)
    agg = spans.traced(tr, "crossfit.EtaAggregate.eta_at", agg_eta_at)
    lfd = spans.traced(tr, "inference.lfd_values", lfd_values)
    lfd(1)
    assert tr.calls == {"inference.lfd_values": 2, "crossfit.EtaAggregate.eta_at": 2,
                        "nuisance.NuisanceFit.eta_at": 4}
    assert tr.self_s == {"inference.lfd_values": 10, "crossfit.EtaAggregate.eta_at": 2,
                         "nuisance.NuisanceFit.eta_at": 12}
    assert tr.root_s == 24


def test_span_closes_when_the_call_raises():
    clock = Clock()
    tr = spans.Tracer(clock=clock)

    def boom():
        clock.work(2)
        raise KeyError("x")

    def outer():
        clock.work(1)
        with pytest.raises(KeyError):
            inner()

    inner = spans.traced(tr, "inner", boom)
    spans.traced(tr, "outer", outer)()
    assert tr.self_s == {"outer": 1, "inner": 2}
    assert tr.root_s == 3


def test_counts_under_an_open_ancestor():
    tr = spans.Tracer(clock=Clock())
    eta_all = spans.traced(tr, "nuisance.NuisanceFit.eta_all", lambda: None)
    eta_at = spans.traced(tr, "nuisance.NuisanceFit.eta_at", lambda: None)

    def solve():
        eta_all()
        eta_at()
        eta_at()
        eta_all()

    spans.traced(tr, "model.profile_maximize", solve)()
    eta_all()
    eta_at()
    assert tr.counts == {"model.profile_maximize.score_evals": 2,
                         "model.profile_maximize.value_evals": 2}
    assert tr.calls["nuisance.NuisanceFit.eta_all"] == 3


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    import ppcf.crossfit
    import ppcf.harness
    import ppcf.model
    import ppcf.nuisance

    original = ppcf.model.build_quadrature
    original_init = ppcf.nuisance.NuisanceFit.__init__
    tr = spans.Tracer()
    patched = spans.install(tr)
    try:
        for mod in (ppcf.model, ppcf.crossfit, ppcf.harness):
            assert mod.build_quadrature is not original
            assert mod.build_quadrature.__wrapped__ is original
        assert ppcf.harness.pcf_correction.__wrapped__ is not None
        assert ppcf.nuisance.NuisanceFit.__init__ is not original_init
    finally:
        spans.uninstall(tr, patched)
    for mod in (ppcf.model, ppcf.crossfit, ppcf.harness):
        assert mod.build_quadrature is original
    assert ppcf.nuisance.NuisanceFit.__init__ is original_init


def _child_work(fn):
    fn()
    fn()


def test_forked_child_spools_its_own_spans(tmp_path):
    tr = spans.Tracer(spool_dir=tmp_path)
    tr.activate()
    try:
        leaf = spans.traced(tr, "leaf", lambda: None)
        tr.enter("parent-only")
        proc = multiprocessing.get_context("fork").Process(target=_child_work, args=(leaf,))
        proc.start()
        proc.join(timeout=30)
        tr.exit()
    finally:
        tr.deactivate()
    assert not proc.is_alive() and proc.exitcode == 0
    totals = spans.Totals.from_spool(tmp_path)
    assert totals.calls == {"leaf": 2}
    assert tr.calls == {"parent-only": 1}


class _Passes:
    """A workload stand-in whose operations each take about 10 ms."""

    def __init__(self, repeatable):
        self.repeatable = repeatable

    def run(self, batch, outdir):
        time.sleep(0.01)
        return [batch]


@pytest.mark.parametrize("repeatable", [True, False])
def test_timed_pass_measures_whole_passes(tmp_path, repeatable):
    import run

    got = run.timed_pass(_Passes(repeatable), ["a", "b", "c"], 0.2, tmp_path)
    n = len(got["outcomes"])
    assert n % 3 == 0 and got["outcomes"][:3] == ["a", "b", "c"]
    assert n > 3 if repeatable else n == 3


def test_every_pass_stays_inside_the_reference():
    import workloads

    for name, wl in workloads.WORKLOADS.items():
        reference = workloads.load_reference(name)
        assert set(reference) == set(wl.main_indices()) | set(wl.held_out), name
        if isinstance(wl, workloads.MonteCarloCell):
            for seed in list(range(10)) + [workloads.HELD_OUT_SEED]:
                (first, count), = wl.setup(seed, None)
                assert set(range(first, first + count)) <= set(reference), (name, seed)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"\n{name} " in proc.stdout   # also in the readable summary
    assert "fail_frac " in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_w1_poisson",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
