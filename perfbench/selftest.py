"""The benchmark's own tests (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py

They run real, short benchmark runs from the checkout root, so they take
about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from speed import RefClock  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def bench(workload: str, seed: int, trace: int = 0, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(trace, key):
    code, lines = bench("cli-session", 3, trace=trace)
    assert code == 0, lines[-5:]
    res = result(lines)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected


def _digest(seed: int) -> str:
    rds = workloads.setup("word-queries")
    jobs = workloads.make_jobs("word-queries", seed, rds)
    outputs, _, _ = workloads.timed_jobs(jobs)
    return workloads.digest({n: workloads.summarize("word-queries", o) for n, o in outputs.items()})


def test_refclock_advances_while_running_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    clock = RefClock().start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        sum(range(1000))
    reading = clock.stop()
    assert reading > 0 and clock.now() == reading == clock.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before


def test_two_runs_give_identical_digests():
    first, second = _digest(5), _digest(5)
    assert first == second == workloads.PINS["word-queries"]["digests"]["5"]
    assert _digest(6) != first


@pytest.mark.parametrize("workload", ["adm-ladder", "newton", "word-queries", "cli-session"])
def test_negative_control_fires(workload):
    rds = workloads.setup(workload)
    jobs = workloads.make_jobs(workload, 0, rds)
    if workload == "word-queries":
        jobs = jobs[:20]
    elif workload == "adm-ladder":
        jobs = [j for j in jobs if j[0] in ("GL4-w2", "PGL4-w1")]
    outputs, _, _ = workloads.timed_jobs(jobs)
    summaries = {n: workloads.summarize(workload, o) for n, o in outputs.items()}
    for name, summary in summaries.items():
        assert workloads.check(workload, name, summary, outputs[name]) == []
    name, summary, out = workloads.plant(workload, summaries, outputs)
    assert workloads.check(workload, name, summary, out)


def test_wrong_pinned_value_fails_the_run():
    copy = os.path.join(ROOT, ".bench_out", "altered")  # the benchmark and the program, one pin altered
    shutil.rmtree(copy, ignore_errors=True)
    try:
        for name in ("perfbench", "src"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        pins_file = os.path.join(copy, "perfbench", "pins.json")
        with open(pins_file, encoding="utf-8") as fh:
            pins = json.load(fh)
        pins["cli-session"]["describe"]["sha256"] = "0" * 64
        with open(pins_file, "w", encoding="utf-8") as fh:
            json.dump(pins, fh)
        code, lines = bench("cli-session", 4, cwd=copy)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    res = result(lines)
    assert code == 1 and res["correct"] is False and res["failed"] >= 1


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", "bare")  # holds only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = bench("adm-ladder", 1, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not lines
