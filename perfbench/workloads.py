"""Jobs, output summaries and the correctness gate of each workload.

A job is one operation: an adm-ladder or newton entry, one word query, or
one CLI command.  ``make_jobs`` turns the workload spec and the seed into
a list of (name, callable); the callables only call affweyl's public
functions on inputs generated here.  After the timed region the raw
outputs are reduced by ``summarize`` to plain JSON values, which
``check`` compares with the pinned values and with invariants that hold
independently of the implementation.  ``plant`` returns a deliberately
wrong copy of one summary; the gate must flag it (negative control).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    SPECS = json.load(_fh)
PINS_FILE = os.path.join(HERE, "pins.json")
PINS = {}
if os.path.exists(PINS_FILE):
    with open(PINS_FILE, encoding="utf-8") as _fh:
        PINS = json.load(_fh)

_GROUP_RE = re.compile(r"^(GSp|PGL|GL|SL)(\d+)$")


def group_spec(text: str) -> dict:
    m = _GROUP_RE.match(text)
    if not m:
        raise ValueError(f"bad group name {text!r} in workloads.json")
    return {"preset": m.group(1), "n": int(m.group(2))}


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k != "AFFWEYL_JOBS"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def setup(workload: str) -> dict:
    """Import affweyl and build the workload's root data (the timed set-up)."""
    import affweyl

    if workload == "cli-session":
        import affweyl.cli  # noqa: F401  every command pays this import
    spec = SPECS[workload]
    names = spec.get("groups") or sorted({e["group"] for e in spec["entries"]})
    if workload == "word-queries":
        names = names + [p["group"] for p in spec["deep_probes"]]
    return {name: affweyl.build_root_datum(group_spec(name)) for name in names}


# ---------------------------------------------------------------------------
# job lists


def pass_units(workload: str, seed: int) -> list:
    """What each worker process of one pass over the job list runs, in order.

    adm-ladder and newton entries get an interpreter each, so that an entry's
    cost does not depend on the entries the seed put before it (shared memo
    tables, and a larger heap making garbage collection slower).  Queries
    share one interpreter by design; CLI commands start their own anyway.
    """
    if workload in ("adm-ladder", "newton"):
        names = [e["name"] for e in SPECS[workload]["entries"]]
        random.Random(seed).shuffle(names)
        return names
    return [None]


def make_jobs(workload: str, seed: int, rds: dict, traced: bool = False, only: str | None = None) -> list:
    """The seeded job list, or only the job named only."""
    rng = random.Random(seed)
    spec = SPECS[workload]
    if workload == "adm-ladder":
        jobs = [(e["name"], _adm_job(e, rds[e["group"]])) for e in spec["entries"]]
    elif workload == "newton":
        jobs = [(e["name"], _newton_job(e, rds[e["group"]])) for e in spec["entries"]]
    elif workload == "cli-session":
        jobs = [(c["name"], _cli_job(c["argv"], traced)) for c in spec["commands"]]
    else:
        return [(f"q{i}", _query_job(q, rds[q["group"]])) for i, q in enumerate(make_queries(spec, seed, rds))]
    rng.shuffle(jobs)
    return [job for job in jobs if only is None or job[0] == only]


def _adm_job(entry: dict, rd):
    import affweyl as aw  # calls go through module attributes, so traced names are seen

    mu = tuple(entry["mu"])
    level = aw.make_level(rd, entry["level"])

    def job():
        aset = aw.adm(mu, rd)
        poset = aw.kr_poset(mu, rd, level)
        perm = aw.adm_eq_perm_check(rd.rank, mu, rd) if entry["perm_check"] else None
        return {"rd": rd, "mu": mu, "adm": aset, "poset": poset, "perm": perm}

    return job


def _newton_job(entry: dict, rd):
    import affweyl as aw

    mu = tuple(entry["mu"])
    sigmas = [aw.sigma_from_name(rd, name) for name in entry["sigmas"]]

    def job():
        out = []
        for sigma in sigmas:
            points = aw.b_set(mu, rd, sigma)
            reports = []
            for b in points:
                try:
                    reports.append(aw.components_bound_report(mu, b, rd, sigma))
                except aw.AffineWeylError as exc:
                    # a typed refusal (sigma does not stabilise the Levi) is a pinned outcome
                    reports.append(type(exc).__name__)
            out.append({"sigma": sigma, "points": points, "reports": reports})
        return {"rd": rd, "mu": mu, "per_sigma": out}

    return job


def _cli_job(argv: list, traced: bool):
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", "cli-command", "--"] + argv
    else:
        cmd = [sys.executable, os.path.join(HERE, "clirun.py")] + argv

    def job():
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, timeout=170)
        raw_s = time.perf_counter() - t0
        if traced:
            # the traced wrapper reports the command's stdout, trace and clock as JSON
            payload = json.loads(proc.stdout)
            out = {"exit": payload["exit"], "stdout": payload["stdout"].encode(), "trace": payload["trace"]}
            clock = payload["clock"]
        else:
            out = {"exit": proc.returncode, "stdout": proc.stdout}
            clock = json.loads(proc.stderr.decode().rpartition("#refclock ")[2])
        # the command measured itself at reference speed; the interpreter start and
        # exit around it are rescaled by the same factor
        out["ref_s"] = raw_s * clock["ref_s"] / clock["raw_s"]
        return out

    return job


def make_queries(spec: dict, seed: int, rds: dict) -> list:
    """The seeded query inputs: group, lambda, finite word u, subword mask, level."""
    from affweyl import make_level

    rng = random.Random(seed)
    groups = spec["groups"]
    order = [groups[i % len(groups)] for i in range(spec["queries"])]
    rng.shuffle(order)
    queries = []
    for name in order:
        rd = rds[name]
        n_fin = rd.semisimple_rank
        n_gens = n_fin + len(rd.components())
        lam = tuple(rng.randint(-spec["box"], spec["box"]) for _ in range(rd.rank))
        word = tuple(rng.randrange(n_fin) for _ in range(spec["word_length"]))
        mask = rng.getrandbits(256)
        size = rng.randint(1, spec["max_level_size"])
        level = make_level(rd, rng.sample(range(n_gens), size))
        queries.append({"group": name, "lam": lam, "word": word, "mask": mask, "level": level})
    return queries


def _query_job(q: dict, rd):
    import affweyl as aw

    def job():
        gens = aw.iwahori_generators(rd)
        finite = gens[len(rd.components()):]
        w = aw.translation_element(q["lam"], rd)
        for i in q["word"]:
            w = aw.mul(w, finite[i])
        ell = aw.length(rd, w)
        letters, omega = aw.reduced_word(rd, w)
        v = aw.identity_element(rd)
        for k, letter in enumerate(letters):
            if q["mask"] >> k & 1:
                v = aw.mul(v, gens[letter])
        v = aw.mul(v, omega)
        below = aw.bruhat_leq(rd, v, w)
        rep = aw.double_coset_rep(rd, w, q["level"])
        kappa = aw.kottwitz(rd, w)
        text = aw.format_element(rd, w)
        back = aw.parse_element(rd, text)
        return {"rd": rd, "q": q, "w": w, "v": v, "length": ell, "letters": letters, "omega": omega,
                "below": below, "rep": rep, "kappa": kappa, "text": text, "back": back}

    return job


# ---------------------------------------------------------------------------
# summaries: plain JSON values, compared with pins across runs


def summarize(workload: str, out):
    if isinstance(out, BaseException):
        return {"error": type(out).__name__}
    if workload == "adm-ladder":
        return _summarize_adm(out)
    if workload == "newton":
        return _summarize_newton(out)
    if workload == "cli-session":
        return {"exit": out["exit"], "sha256": hashlib.sha256(out["stdout"]).hexdigest()}
    return _summarize_query(out)


def _summarize_adm(out: dict) -> dict:
    from affweyl import format_element

    rd, aset, poset, perm = out["rd"], out["adm"], out["poset"], out["perm"]
    elements = [format_element(rd, w) for w in aset.elements]
    nodes = [format_element(rd, w) for w in poset.nodes]
    summary = {
        "adm_size": len(aset.elements),
        "cover_edges": len(aset.cover_edges),
        "adm_sha": sha([elements, [list(e) for e in aset.cover_edges]]),
        "kr_nodes": len(poset.nodes),
        "kr_edges": len(poset.edges),
        "kr_sha": sha([nodes, list(poset.ranks), [list(e) for e in poset.edges], poset.bottom]),
    }
    if perm is not None:
        summary["perm"] = [perm.equal, perm.adm_size, perm.perm_size]
    return summary


def _summarize_newton(out: dict) -> dict:
    from affweyl import format_element

    rd = out["rd"]
    points, witnesses, detail = [], [], []
    for part in out["per_sigma"]:
        points.append([[[str(x) for x in p.nu], p.denominator, list(p.kappa)] for p in part["points"]])
        counts = []
        for rep in part["reports"]:
            if isinstance(rep, str):
                counts.append(rep)
                detail.append(rep)
                continue
            counts.append(len(rep.witnesses))
            detail.append([
                [format_element(rd, w.element), w.levi.type_label, len(w.levi.positive_roots),
                 list(w.lambda_w), [list(c) for c in w.lift_chain], w.central_in_levi,
                 w.pi1_sigma.describe() if w.pi1_sigma else None, w.marker]
                for w in rep.witnesses
            ])
        witnesses.append(counts)
    return {"newton_points": points, "witnesses": witnesses, "report_sha": sha(detail)}


def _summarize_query(out: dict) -> dict:
    from affweyl import format_element

    rd, q = out["rd"], out["q"]
    return {
        "group": q["group"],
        "lam": list(q["lam"]),
        "word": list(q["word"]),
        "length": out["length"],
        "omega": format_element(rd, out["omega"]),
        "below": out["below"],
        "rep": format_element(rd, out["rep"]),
        "kappa": list(out["kappa"]),
        "text": out["text"],
    }


def digest(summaries: dict) -> str:
    return sha([summaries[k] for k in sorted(summaries, key=_job_order)])


def _job_order(name: str):
    return (int(name[1:]), name) if re.fullmatch(r"q\d+", name) else (0, name)


# ---------------------------------------------------------------------------
# the gate


def check(workload: str, name: str, summary: dict, out) -> list[str]:
    """Problems with one job's output; an empty list means it passed."""
    if "error" in summary:
        return [f"{name}: unexpected {summary['error']}"]
    if workload == "word-queries":
        return [f"{name}: {p}" for p in _query_invariants(out)]
    pinned = PINS.get(workload, {}).get(name)
    if pinned is None:
        return [f"{name}: no pinned value"]
    problems = [f"{name}: {key} = {summary.get(key)!r}, pinned {pinned[key]!r}"
                for key in pinned if summary.get(key) != pinned[key]]
    problems += [f"{name}: unpinned field {key}" for key in summary if key not in pinned]
    if workload == "adm-ladder" and "perm" in summary and summary["perm"][0] is not True:
        problems.append(f"{name}: Adm(mu) differs from the permissible set")
    return problems


def _query_invariants(out: dict) -> list[str]:
    """Answers every query must satisfy whatever the implementation."""
    from affweyl import fundamental_group, iwahori_generators, kottwitz, length, mul

    rd, q, w = out["rd"], out["q"], out["w"]
    gens = iwahori_generators(rd)
    problems = []
    if out["length"] != len(out["letters"]):
        problems.append("reduced word length differs from length(w)")
    rebuilt = out["omega"]
    for letter in reversed(out["letters"]):
        rebuilt = mul(gens[letter], rebuilt)
    if rebuilt != w or length(rd, out["omega"]) != 0:
        problems.append("reduced word does not rebuild w")
    if out["below"] is not True:
        problems.append("a subword of a reduced word of w is not Bruhat-below w")
    if out["kappa"] != fundamental_group(rd).project(q["lam"]) or kottwitz(rd, out["v"]) != out["kappa"]:
        problems.append("Kottwitz class differs from the class of lambda")
    rep = out["rep"]
    lrep = length(rd, rep)
    if lrep > out["length"] or kottwitz(rd, rep) != out["kappa"]:
        problems.append("double coset representative is longer than w or in another class")
    for i in q["level"].generators:
        if length(rd, mul(gens[i], rep)) < lrep or length(rd, mul(rep, gens[i])) < lrep:
            problems.append("double coset representative has a descent in the level")
    if out["back"] != w:
        problems.append("parse_element(format_element(w)) != w")
    return problems


def plant(workload: str, summaries: dict, outputs: dict):
    """A copy of one job's summary and output with one planted wrong value."""
    name = sorted(summaries, key=_job_order)[0]
    summary = dict(summaries[name])
    out = dict(outputs[name])
    if workload == "adm-ladder":
        import dataclasses

        aset = out["adm"]
        out["adm"] = dataclasses.replace(aset, cover_edges=aset.cover_edges[1:])  # drop one cover edge
        summary = _summarize_adm(out)
    elif workload == "newton":
        part = dict(out["per_sigma"][0])
        part["points"], part["reports"] = part["points"][1:], part["reports"][1:]  # lose one Newton point
        out["per_sigma"] = [part] + out["per_sigma"][1:]
        summary = _summarize_newton(out)
    elif workload == "cli-session":
        out["stdout"] = out["stdout"] + b"\n"
        summary = summarize(workload, out)
    else:
        out["below"] = not out["below"]
        summary = _summarize_query(out)
    return name, summary, out


# ---------------------------------------------------------------------------
# independent routes, run once per benchmark run outside the timed region


def verify_independent(workload: str, seed: int, outputs: dict) -> list[str]:
    # a job that raised has already failed the gate; its output is the exception
    outputs = {name: out for name, out in outputs.items() if not isinstance(out, BaseException)}
    if workload == "adm-ladder":
        return _verify_adm(outputs)
    if workload == "newton":
        return _verify_newton(outputs)
    if workload == "word-queries":
        return _verify_queries(seed, outputs)
    return []


def _verify_adm(outputs: dict) -> list[str]:
    from affweyl import length
    from affweyl.admissible import adm_by_exhaustion
    from affweyl.affine_weyl import bruhat_leq_subword_oracle

    problems = []
    for entry in SPECS["adm-ladder"]["entries"]:
        if not entry["exhaustion"] or entry["name"] not in outputs:
            continue
        out = outputs[entry["name"]]
        rd, aset = out["rd"], out["adm"]
        if adm_by_exhaustion(out["mu"], rd) != set(aset.elements):
            problems.append(f"{entry['name']}: adm differs from adm_by_exhaustion")
        if not entry["cover_oracle"]:
            continue
        elements = aset.elements
        lengths = [length(rd, w) for w in elements]
        edges = tuple(sorted(
            (i, j)
            for j, w in enumerate(elements)
            for i, v in enumerate(elements)
            if lengths[i] == lengths[j] - 1 and bruhat_leq_subword_oracle(rd, v, w)
        ))
        if edges != aset.cover_edges:
            problems.append(f"{entry['name']}: cover edges differ from the subword oracle")
    return problems


def _verify_newton(outputs: dict) -> list[str]:
    from affweyl import dominant_rep, straight_classes
    from affweyl.straight_newton import is_straight_bruteforce

    problems = []
    for name, out in outputs.items():
        rd = out["rd"]
        mu_dom = tuple(dominant_rep(out["mu"], rd)[0])
        for part in out["per_sigma"]:
            sigma = part["sigma"]
            for cls in straight_classes(mu_dom, rd, sigma):
                if not is_straight_bruteforce(rd, sigma, cls.representative):
                    problems.append(f"{name}: class representative is not straight by brute force")
    return problems


def _verify_queries(seed: int, outputs: dict) -> list[str]:
    """bruhat_leq against the exhaustive subword oracle, on a sample of queries
    cut short: w' is the first oracle_max_length letters of w's reduced word,
    v' the query's subword of them, and a neighbour of v' tests a "no" too."""
    from affweyl import bruhat_leq, identity_element, iwahori_generators, mul
    from affweyl.affine_weyl import bruhat_leq_subword_oracle

    spec = SPECS["word-queries"]
    rng = random.Random(seed)
    names = sorted(outputs, key=_job_order)
    problems = []
    for name in rng.sample(names, min(spec["oracle_sample"], len(names))):
        out = outputs[name]
        rd = out["rd"]
        gens = iwahori_generators(rd)
        w = v = identity_element(rd)
        for k, letter in enumerate(out["letters"][: spec["oracle_max_length"]]):
            w = mul(w, gens[letter])
            if out["q"]["mask"] >> k & 1:
                v = mul(v, gens[letter])
        w, v = mul(w, out["omega"]), mul(v, out["omega"])
        other = mul(v, gens[rng.randrange(len(gens))])
        for x in (v, other):
            if bruhat_leq(rd, x, w) != bruhat_leq_subword_oracle(rd, x, w):
                problems.append(f"{name}: bruhat_leq disagrees with the subword oracle")
    return problems


def deep_probes() -> tuple[int, list[str]]:
    """Bruhat comparisons of length about 800: deep enough to overflow a recursive
    descent.  The expected answer is integral dominance, which is Bruhat order on
    dominant translations."""
    from affweyl import build_root_datum, bruhat_leq, dominance_leq, translation_element

    failures = []
    probes = SPECS["word-queries"]["deep_probes"]
    for p in probes:
        rd = build_root_datum(group_spec(p["group"]))
        expected = dominance_leq(tuple(p["v"]), tuple(p["w"]), rd, integral=True)
        try:
            got = bruhat_leq(rd, translation_element(p["v"], rd), translation_element(p["w"], rd))
        except RecursionError:
            failures.append(f"{p['group']} {p['v']} <= {p['w']}: RecursionError")
            continue
        if got != expected:
            failures.append(f"{p['group']} {p['v']} <= {p['w']}: got {got}, expected {expected}")
    return len(probes), failures


def timed_jobs(jobs: list, tracer=None, clock=time.perf_counter) -> tuple[dict, dict, float]:
    """Run the jobs in order; outputs, per-job seconds and total seconds, read from clock."""
    outputs, seconds = {}, {}
    start = clock()
    for name, fn in jobs:
        t0 = clock()
        try:
            outputs[name] = tracer.run_span(f"job:{name}", fn) if tracer else fn()
        except Exception as exc:  # noqa: BLE001 - an unexpected exception is a failed job
            outputs[name] = exc
        seconds[name] = clock() - t0
    return outputs, seconds, clock() - start
