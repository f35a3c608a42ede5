"""Regenerate perfbench/pins.json from the program in src/.

    python3 perfbench/pin.py

Pins are the seed program's answers, accepted only after the independent
routes agree with them (adm_by_exhaustion, the subword Bruhat oracle,
brute-force straightness, the permissibility check, the query invariants).
Run it only when the expected answers change on purpose, and say why.
"""

from __future__ import annotations

import json
import sys

import workloads

sys.path.insert(0, workloads.SRC)

DIGEST_SEEDS = range(32)


def run(workload: str, seed: int):
    rds = workloads.setup(workload)
    jobs = workloads.make_jobs(workload, seed, rds)
    outputs, _, _ = workloads.timed_jobs(jobs)
    summaries = {name: workloads.summarize(workload, out) for name, out in outputs.items()}
    problems = [f"{n}: {s['error']}" for n, s in summaries.items() if "error" in s]
    problems += workloads.verify_independent(workload, seed, outputs)
    if workload == "word-queries":
        for name, summary in summaries.items():
            problems += workloads.check(workload, name, summary, outputs[name])
    if problems:
        sys.exit("refusing to pin:\n" + "\n".join(problems))
    return summaries


def main() -> int:
    pins = {}
    for workload in ("adm-ladder", "newton", "cli-session"):
        pins[workload] = run(workload, 0)
        print(f"pinned {len(pins[workload])} jobs of {workload}", flush=True)
    if any(s["perm"][0] is not True for s in pins["adm-ladder"].values() if "perm" in s):
        sys.exit("refusing to pin: an admissible set differs from the permissible set")
    digests = {}
    for seed in DIGEST_SEEDS:
        digests[str(seed)] = workloads.digest(run("word-queries", seed))
    pins["word-queries"] = {"digests": digests}
    print(f"pinned word-queries digests for seeds {DIGEST_SEEDS.start}..{DIGEST_SEEDS.stop - 1}")
    with open(workloads.PINS_FILE, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
