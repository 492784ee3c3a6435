"""Tests of the benchmark itself: span bookkeeping, wrapper placement, exact counts.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
from hostspeed import HostClock
from spans import Tracer, self_times, union_length
from workloads import WORKLOADS

REPO = run.ROOT


def small(name: str):
    """The named workload with few epochs and no accuracy floors, on the same code paths."""
    return dataclasses.replace(WORKLOADS[name], epochs=4, floors=())


def test_union_length_merges_and_clips():
    assert union_length([], 0.0, 1.0) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert union_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_self_times_on_a_synthetic_tree():
    # 0 root [0, 10]
    # ├── 1 [1, 4]
    # │   └── 2 [2, 3]
    # └── 3 [5, 9]
    #     ├── 4 [6, 7]
    #     └── 5 [6.5, 8]   overlaps its sibling, so the union [6, 8] counts once
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 6.5]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    parents = [-1, 0, 1, 0, 3, 3]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 2.0, 1.0, 1.5]


def test_module_self_times_and_remainder_add_up_to_the_job():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(2000)), "autodiff.matmul")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "model.forward.train")
    for _ in range(2):
        outer()
    m = tracer.job_metrics(wall_s=1.0)
    assert m["model.forward.train.calls"] == 2 and m["autodiff.matmul.calls"] == 6
    modules = sum(m[f"{module}.self_s"] for module in ("graphs", "autodiff", "model", "bounds",
                                                       "training", "metrics", "cli"))
    assert modules + m["untraced_remainder_s"] == pytest.approx(1.0, abs=1e-12)
    assert m["model.forward.self_s"] == pytest.approx(
        m["model.forward.train.s"] - m["autodiff.matmul.s"], abs=1e-12)


def test_host_clock_scales_each_phase_by_the_references_around_it(monkeypatch):
    clock = HostClock()
    clock.phases = [1.0, 2.0]
    nominal = hostspeed.NOMINAL_REFERENCE_S
    clock.references = [nominal, nominal, 3 * nominal]   # the host slows by half during phase 2
    assert clock.raw_seconds() == 3.0
    assert clock.nominal_seconds() == pytest.approx(1.0 + 2.0 / 2.0)

    monkeypatch.setattr(hostspeed, "reference_time", lambda: nominal)
    clock.reset()
    clock.mark()
    clock.tick()     # skipped: the phase is shorter than MIN_PHASE_S
    clock.mark()
    assert len(clock.references) == 2 and len(clock.phases) == 1


def test_epoch_ticks_split_a_job_into_phases(tmp_path):
    workload = dataclasses.replace(small("node2000_flexidrop"), epochs=3)
    clock = HostClock()
    inputs = workload.setup(0, tmp_path)
    with run.epoch_ticks(clock):
        jobs = run.run_jobs(workload, inputs, 0, tmp_path, deadline=0.0, min_jobs=1, clock=clock)
    job = jobs[0].clock
    assert len(job.references) == len(job.phases) + 1 >= 2
    assert 0.0 < job.raw_seconds() <= jobs[0].wall_s
    assert job.nominal_seconds() > 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_fire_where_expected_and_leave_outputs_alone(name, tmp_path):
    from flexidrop import cli, model, training

    workload = small(name)
    metrics, jobs = run.traced(workload, seed=0, seconds=0.0, workdir=tmp_path)
    # the run fails a job whose outputs differ from the first untraced job's,
    # a traced run whose counts differ between jobs, and a span that never fired
    assert [j.problems for j in jobs] == [[] for _ in jobs]
    assert len({j.fingerprint for j in jobs}) == 1
    for span in workload.expected_spans:
        assert metrics[f"{span}.calls"][0] > 0, span
    assert training.forward is model.forward and cli.train is training.train


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_computed_counts_repeat_exactly_across_runs(name, tmp_path):
    workload = small(name)
    counts = []
    for i in range(2):
        metrics, _ = run.traced(workload, seed=3, seconds=0.0, workdir=tmp_path / str(i))
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit != "s" and k not in run.INEXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["autodiff.matmul.flops"] > 0 and counts[0]["autodiff.out_bytes"] > 0


def test_printed_metrics_are_the_ones_benchmark_json_names(tmp_path):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workload = small("node2000_flexidrop")
    e2e, _ = run.end_to_end(workload, seed=0, seconds=0.0, workdir=tmp_path / "e")
    layer, _ = run.traced(workload, seed=0, seconds=0.0, workdir=tmp_path / "t")
    for printed, declared in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {k: unit for k, (_, unit) in printed.items()} == \
            {m["name"]: m["unit"] for m in declared}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "node200_cli",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
