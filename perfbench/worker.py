"""One repetition of a workload in a fresh interpreter; prints one JSON line.

Roles:
  setup        time ``import affweyl`` plus building the workload's root data
  rep          set up, run the job list (or one job of it) once, timed, then
               check every output
  cli-command  run one CLI command under the tracer (traced cli-session only)

Times are read from a reference-speed clock (perfbench/speed.py), which
divides out the speed changes of a shared host; raw wall times are kept
beside them.

The parent (run.py) starts every interpreter with AFFWEYL_JOBS removed, so
no state survives from one repetition to the next and no cache is reset by
hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

from speed import RefClock

# (module, attribute, hot): hot primitives get counters and times, no span records
TARGETS = [
    ("affine_weyl", "mul", True),
    ("affine_weyl", "length", True),
    ("affine_weyl", "reduced_word", True),
    ("affine_weyl", "bruhat_leq", True),
    ("affine_weyl", "double_coset_rep", True),
    ("affine_weyl", "sigma_apply", True),
    ("root_datum", "pairing", True),
    ("linalg", "mat_mul", True),
    ("linalg", "solve_rational", True),
    ("root_datum", "build_root_datum", False),
    ("root_datum", "sub_datum", False),
    ("admissible", "adm", False),
    ("admissible", "is_admissible", True),
    ("admissible", "kr_poset", False),
    ("straight_newton", "straight_classes", False),
    ("straight_newton", "b_set", False),
    ("straight_newton", "newton_point", True),
    ("straight_newton", "levi_datum", False),
    ("straight_newton", "components_bound_report", False),
    ("straight_newton", "is_straight", True),
    ("stembridge", "minuscule_lift", False),
    ("gln_perm", "perm_set", False),
    ("gln_perm", "is_permissible", True),
    ("gln_perm", "adm_eq_perm_check", False),
    ("notation", "format_element", True),
    ("notation", "parse_element", True),
    ("cli", "main", False),
]

# results counted once per distinct object: computed answers, not cache hits
ON_RESULT = {
    "admissible.adm": lambda a: {"elements": len(a.elements), "cover_edges": len(a.cover_edges)},
    "gln_perm.perm_set": lambda perms: {"permissible": len(perms)},
}


class Probe:
    """Tracer plus the lru_cache readings taken around the timed region."""

    def __init__(self):
        from tracer import Tracer

        self.tracer = Tracer()
        self.caches = _lru_caches()
        aw = sys.modules["affweyl.affine_weyl"]
        self.watched = {"length": aw.length, "reduced_word": aw.reduced_word}
        self.start = {k: f.cache_info() for k, f in self.watched.items()}
        for module, attr, hot in TARGETS:
            full = f"affweyl.{module}"
            if full in sys.modules:
                name = f"{module}.{attr}"
                self.tracer.install(full, attr, name, hot, ON_RESULT.get(name))
        if "affweyl.oracles" in sys.modules:
            self._wrap_oracles(sys.modules["affweyl.oracles"])

    def _wrap_oracles(self, oracles):
        # per-scope timing: the suite looks its checks up in this registry
        self.registry = oracles._REGISTRY
        self.registry_saved = list(self.registry)
        self.registry[:] = [(n, s, self.tracer.wrap(fn, f"oracles.{s}")) for n, s, fn in self.registry]

    def finish(self) -> dict:
        """Stop tracing and return the raw aggregates of the timed region."""
        self.tracer.uninstall()
        if hasattr(self, "registry"):
            self.registry[:] = self.registry_saved
        bruhat_memo = getattr(sys.modules["affweyl.affine_weyl"], "_bruhat_leq_wa", None)
        raw = self.tracer.snapshot()
        raw["caches"] = {
            name: [f.cache_info().hits - self.start[name].hits, f.cache_info().misses - self.start[name].misses]
            for name, f in self.watched.items()
        }
        raw["memo_entries"] = sum(f.cache_info().currsize for f in self.caches)
        raw["bruhat_memo_entries"] = bruhat_memo.cache_info().currsize if hasattr(bruhat_memo, "cache_info") else 0
        return raw


def _lru_caches() -> list:
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("affweyl."):
            for value in vars(module).values():
                if callable(value) and hasattr(value, "cache_info"):
                    found[id(value)] = value
    return list(found.values())


def merge_raw(raws: list[dict]) -> dict:
    from tracer import merge

    out = merge(raws)
    out["caches"] = {k: [sum(r["caches"][k][i] for r in raws) for i in (0, 1)] for k in raws[0]["caches"]}
    out["memo_entries"] = max(r["memo_entries"] for r in raws)
    out["bruhat_memo_entries"] = max(r["bruhat_memo_entries"] for r in raws)
    return out


def run_setup(workload: str) -> dict:
    import workloads

    clock = RefClock().start()
    t0, r0 = time.perf_counter(), clock.now()
    workloads.setup(workload)
    raw_s, setup_s = time.perf_counter() - t0, clock.now() - r0
    clock.stop()
    return {"setup_s": setup_s, "setup_raw_s": raw_s}


def run_rep(args) -> dict:
    import workloads

    rds = workloads.setup(args.workload)
    jobs = workloads.make_jobs(args.workload, args.seed, rds, bool(args.trace), args.job)
    cli = args.workload == "cli-session"
    probe = Probe() if args.trace and not cli else None
    # CLI commands run in their own interpreters and time themselves (clirun.py)
    clock = None if cli else RefClock().start()
    t0 = time.perf_counter()
    outputs, job_s, wall_s = workloads.timed_jobs(jobs, probe.tracer if probe else None,
                                                  clock.now if clock else time.perf_counter)
    raw_s = time.perf_counter() - t0
    if clock:
        clock.stop()
    else:
        job_s = {name: out["ref_s"] for name, out in outputs.items() if isinstance(out, dict)}
        wall_s = sum(job_s.values())
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    rss_mb = usage.ru_maxrss / 1024.0
    raw = probe.finish() if probe else None
    if args.trace and cli:
        raw = merge_raw([o["trace"] for o in outputs.values() if isinstance(o, dict)])

    summaries = {name: workloads.summarize(args.workload, out) for name, out in outputs.items()}
    failures = []
    for name, summary in summaries.items():
        failures += workloads.check(args.workload, name, summary, outputs[name])
    digest = workloads.digest(summaries)
    pinned = workloads.PINS.get(args.workload, {}).get("digests", {}).get(str(args.seed))
    if pinned is not None and pinned != digest:
        failures.append(f"digest: {digest} differs from the digest pinned for seed {args.seed}")
    try:
        name, summary, out = workloads.plant(args.workload, summaries, outputs)
        control_fired = bool(workloads.check(args.workload, name, summary, out))
    except Exception:  # noqa: BLE001 - a control that cannot run has not fired
        control_fired = False

    # once per run: the independent routes, and the deep probes of a known defect
    t_verify = time.perf_counter()
    probes = {"attempted": 0, "failures": []}
    if args.verify:
        failures += workloads.verify_independent(args.workload, args.seed, outputs)
        if args.workload == "word-queries":
            probes["attempted"], probes["failures"] = workloads.deep_probes()
    verify_s = time.perf_counter() - t_verify
    return {
        "wall_s": wall_s,
        "raw_s": raw_s,
        "job_s": job_s,
        "rss_mb": rss_mb,
        "attempted": len(jobs),
        # messages start with the failing job's name; a job fails once however many checks it fails
        "failed": len({f.partition(":")[0] for f in failures}),
        "failures": failures,
        "control_fired": control_fired,
        "digest": digest,
        "verify_s": verify_s,
        "probes": probes,
        "trace": raw,
    }


def run_cli_command(argv: list) -> dict:
    clock = RefClock().start()
    t0 = time.perf_counter()
    import affweyl.cli

    probe = Probe()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = affweyl.cli.main(argv)
    raw = probe.finish()
    ref_s = clock.stop()
    return {"exit": code, "stdout": buf.getvalue(), "trace": raw,
            "clock": {"raw_s": time.perf_counter() - t0, "ref_s": ref_s}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "rep", "cli-command"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--job", help="run only this job of the list")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--verify", type=int, default=0)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.role == "setup":
        result = run_setup(args.workload)
    elif args.role == "rep":
        result = run_rep(args)
    else:
        result = run_cli_command(args.argv)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
