"""affweyl benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload adm-ladder --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Every repetition (one pass over the job list) runs in fresh
single-threaded interpreters (perfbench/worker.py; one per entry on
adm-ladder and newton) with AFFWEYL_JOBS removed from their environment,
so memo tables start empty without ever calling ``cache_clear()``.

--trace 0  prints the end-to-end metrics: set-up time (median of
           SETUP_PROBES fresh set-ups spread over the run), wall time of the
           job list and peak RSS (each a median over the repetitions);
           word-queries also prints per-query latency percentiles, and every
           workload the failed share.  Times are seconds at a fixed
           reference speed (perfbench/speed.py): a shared host's virtual CPU
           changes speed by up to 2x for seconds at a time, for all Python
           code alike, and the clock divides that factor out.  The medians
           at the host's own speed are printed beside them.
--trace 1  alternates untraced and traced repetitions and prints the
           per-layer metrics of the traced ones, measured from outside by
           perfbench/tracer.py (their times at the host's own speed), plus
           the tracing overhead (from reference-speed wall times).

Every output is checked (perfbench/workloads.py); the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every check passed.  A record of the run, with the
trace spans, is written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from worker import merge_raw
from workloads import child_env, pass_units, sha

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adm-ladder", "newton", "word-queries", "cli-session")
SETUP_PROBES = 16  # fresh set-ups per untraced run, whatever its number of repetitions
RUN_LIMIT_S = 170  # hard ceiling for one run, whatever --seconds says

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ORACLE_SCOPES = ("adm", "adm-perm", "bruhat", "length", "negative-control", "root-datum",
                 "roundtrip", "stembridge", "straight")


def header() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def worker(role: str, args, deadline: float, job: str | None = None, **flags) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed)]
    if job is not None:
        cmd += ["--job", job]
    for key, value in flags.items():
        cmd += [f"--{key}", str(int(value))]
    timeout = max(5.0, deadline - time.monotonic())
    # own process group, so that a timeout also stops the CLI commands a worker started
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crash": f"{role} worker exceeded {timeout:.0f} s"}
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        return {"crash": f"{role} worker exited with {proc.returncode}"}
    return json.loads(out.strip().splitlines()[-1])


def one_pass(args, deadline: float, **flags) -> dict:
    """The job list once, as one worker per unit; combined like a single repetition."""
    parts = []
    for unit in pass_units(args.workload, args.seed):
        res = worker("rep", args, deadline, job=unit, **flags)
        if "crash" in res:
            return res
        parts.append(res)
    if len(parts) == 1:
        return parts[0]
    return {
        "wall_s": sum(p["wall_s"] for p in parts),
        "raw_s": sum(p["raw_s"] for p in parts),
        "job_s": {k: v for p in parts for k, v in p["job_s"].items()},
        "rss_mb": max(p["rss_mb"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
        "control_fired": all(p["control_fired"] for p in parts),
        "digest": sha(sorted(p["digest"] for p in parts)),
        "verify_s": sum(p["verify_s"] for p in parts),
        "probes": {"attempted": sum(p["probes"]["attempted"] for p in parts),
                   "failures": [f for p in parts for f in p["probes"]["failures"]]},
        "trace": merge_raw([p["trace"] for p in parts]) if parts[0]["trace"] else None,
    }


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics from one traced repetition's raw aggregates."""
    stats = raw["stats"]
    edges = {(a, b): (n, t) for a, b, n, t in raw["edges"]}
    results = raw["results"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def hit_ratio(name):
        hits, misses = raw["caches"][name]
        return ratio(hits, hits + misses)

    covers = edges.get(("admissible.adm", "affine_weyl.bruhat_leq"), (0, 0.0))
    members = edges.get(("admissible.adm", "admissible.is_admissible"), (0, 0.0))
    adm_results = results.get("admissible.adm", {})
    m = {
        "admissible.adm.covers_s": covers[1],
        "admissible.adm.cover_tests": covers[0],
        "admissible.adm.cover_edges": adm_results.get("cover_edges", 0),
        "admissible.adm.cover_yield": ratio(adm_results.get("cover_edges", 0), covers[0]),
        "admissible.adm.closure_s": total("admissible.adm") - covers[1] - members[1],
        "admissible.adm.membership_s": members[1],
        "admissible.adm.candidates": members[0],
        "admissible.adm.elements": adm_results.get("elements", 0),
        "admissible.kr_poset.self_s": self_s("admissible.kr_poset"),
        "admissible.kr_poset.bruhat_tests": edges.get(("admissible.kr_poset", "affine_weyl.bruhat_leq"), (0, 0))[0],
        "affine_weyl.mul.calls": calls("affine_weyl.mul"),
        "affine_weyl.mul.self_s": self_s("affine_weyl.mul"),
        "affine_weyl.length.calls": calls("affine_weyl.length"),
        "affine_weyl.length.self_s": self_s("affine_weyl.length"),
        "affine_weyl.length.hit_ratio": hit_ratio("length"),
        "affine_weyl.reduced_word.calls": calls("affine_weyl.reduced_word"),
        "affine_weyl.reduced_word.self_s": self_s("affine_weyl.reduced_word"),
        "affine_weyl.reduced_word.hit_ratio": hit_ratio("reduced_word"),
        "affine_weyl.bruhat_leq.calls": calls("affine_weyl.bruhat_leq"),
        "affine_weyl.bruhat_leq.self_s": self_s("affine_weyl.bruhat_leq"),
        "affine_weyl.double_coset_rep.self_s": self_s("affine_weyl.double_coset_rep"),
        "affine_weyl.sigma_apply.self_s": self_s("affine_weyl.sigma_apply"),
        "affine_weyl.memo.entries": raw["memo_entries"],
        "affine_weyl.bruhat_memo.entries": raw["bruhat_memo_entries"],
        "root_datum.pairing.calls": calls("root_datum.pairing"),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "straight_newton.straight_classes.self_s": self_s("straight_newton.straight_classes"),
        "straight_newton.newton_point.calls": calls("straight_newton.newton_point"),
        "straight_newton.newton_point.s": total("straight_newton.newton_point"),
        "straight_newton.levi_datum.calls": calls("straight_newton.levi_datum"),
        "straight_newton.levi_datum.s": total("straight_newton.levi_datum"),
        "straight_newton.components_bound_report.s": total("straight_newton.components_bound_report"),
        "straight_newton.is_straight.calls": calls("straight_newton.is_straight"),
        "root_datum.build.calls": calls("root_datum.build_root_datum") + calls("root_datum.sub_datum"),
        "root_datum.build.self_s": self_s("root_datum.build_root_datum") + self_s("root_datum.sub_datum"),
        "linalg.solve_rational.calls": calls("linalg.solve_rational"),
        "linalg.solve_rational.self_s": self_s("linalg.solve_rational"),
        "stembridge.minuscule_lift.calls": calls("stembridge.minuscule_lift"),
        "stembridge.minuscule_lift.s": total("stembridge.minuscule_lift"),
        "gln_perm.perm_set.s": total("gln_perm.perm_set"),
        "gln_perm.is_permissible.calls": calls("gln_perm.is_permissible"),
        "gln_perm.perm_yield": ratio(results.get("gln_perm.perm_set", {}).get("permissible", 0),
                                     calls("gln_perm.is_permissible")),
        "notation.format_element.self_s": self_s("notation.format_element"),
        "notation.parse_element.self_s": self_s("notation.parse_element"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for scope in ORACLE_SCOPES:
        m[f"oracles.{scope}.s"] = total(f"oracles.{scope}")
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("hit_ratio", "yield", "share")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in turn; their lines prefixed, their results in one last line."""
    results, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        results[workload] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode or (not lines)
    print(json.dumps(results))
    return int(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "affweyl", "__init__.py")):
        print(f"error: no affweyl sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    start = time.monotonic()
    budget_end = start + args.seconds
    hard_end = start + RUN_LIMIT_S
    head = dict(header(), workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("# header " + json.dumps(head, sort_keys=True))

    reps, traced, setups, raw_setups, crashes = [], [], [], [], []
    probes = 0 if args.trace else SETUP_PROBES
    probed = 0

    def probe_setups(until: int) -> None:
        nonlocal probed
        while probed < until:
            probed += 1
            res = worker("setup", args, hard_end)
            if "crash" in res:
                crashes.append(res["crash"])
            else:
                setups.append(res["setup_s"])
                raw_setups.append(res["setup_raw_s"])

    worker("setup", args, hard_end)  # compiles bytecode and warms the file cache; not measured
    while True:
        t0 = time.monotonic()
        # set-up probes are spread over the budget, so that their median covers all of it
        probe_setups(min(probes, math.ceil(probes * (t0 - start) / args.seconds)))
        res = one_pass(args, hard_end, verify=not reps)
        if "crash" in res:
            crashes.append(res["crash"])
            break
        reps.append(res)
        if args.trace:
            res = one_pass(args, hard_end, trace=1)
            if "crash" in res:
                crashes.append(res["crash"])
                break
            traced.append(res)
        next_cost = time.monotonic() - t0 - reps[-1]["verify_s"]
        # another pass starts when at least half of it fits: a run ends within half a pass
        # of its budget, and a slow pass does not leave most of the budget unused
        if time.monotonic() + next_cost / 2 > budget_end:
            break
    probe_setups(probes)

    attempted = sum(r["attempted"] for r in reps + traced) + len(crashes)
    failed = sum(r["failed"] for r in reps + traced) + len(crashes)
    failures = list(crashes)
    for r in reps + traced:
        failures += r["failures"]
        if not r["control_fired"]:
            failures.append("negative control: a planted wrong value passed the gate")
            failed += 1
    digests = {r["digest"] for r in reps + traced}
    if len(digests) > 1:
        failures.append(f"outputs differ between repetitions: {sorted(digests)}")
        failed += 1
    probe_attempted = sum(r["probes"]["attempted"] for r in reps)
    probe_failures = [f for r in reps for f in r["probes"]["failures"]]

    metrics = {}
    if reps and not args.trace:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups) if setups else float("nan"),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        print(f"# {len(reps)} repetitions; setup_s over {len(setups)} fresh set-ups")
        print(f"# at the host's own speed: wall_s = {statistics.median(r['raw_s'] for r in reps):.6g} s, "
              f"setup_s = {statistics.median(raw_setups) if raw_setups else float('nan'):.6g} s (medians, not metrics)")
        if args.workload == "word-queries":
            # per-query latency: each query's median over the repetitions, then percentiles
            lat_us = [statistics.median(r["job_s"][q] for r in reps) * 1e6 for q in reps[0]["job_s"]]
            print(f"# query_p50_us = {percentile(lat_us, 50):.6g} us, query_p99_us = {percentile(lat_us, 99):.6g} us "
                  f"({len(lat_us)} queries, each the median of {len(reps)} timings)")
    elif reps and traced:
        per_rep = [layer_metrics(r["trace"]) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        overhead = ratio(statistics.median(r["wall_s"] for r in traced),
                         statistics.median(r["wall_s"] for r in reps)) - 1.0
        metrics["trace.overhead_share"] = overhead
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        print(f"# per-layer metrics: median over {len(traced)} traced repetitions, "
              f"overhead against {len(reps)} untraced ones")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    share = ratio(failed + len(probe_failures), attempted + probe_attempted)
    print(f"# failed_share = {share:.6g} ({failed} of {attempted} operations failed the gate; "
          f"{len(probe_failures)} of {probe_attempted} known-defect deep probes failed)")
    for f in failures[:20]:
        print(f"# FAIL {f}")
    for f in probe_failures:
        print(f"# known defect: {f}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    record = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"header": head, "reps": reps, "traced": traced, "setups": setups,
                   "failures": failures, "probe_failures": probe_failures}, fh)

    correct = not failures and bool(reps)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
