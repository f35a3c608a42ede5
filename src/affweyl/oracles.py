"""Self-contained oracle suite: every derived constant re-derived.

Each entry recomputes a pinned value through an independent route (brute
force word search, exhaustive enumeration, subword checks) and compares.
The negative control deliberately tampers with the length function and
passes only when the cross-check detects the tampering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import admissible, gln_perm, notation, stembridge, straight_newton
from .affine_weyl import (
    bruhat_leq,
    bruhat_leq_subword_oracle,
    identity_element,
    iwahori_generators,
    kottwitz,
    length,
    mul,
    omega_rep,
    sigma_identity,
    translation_element,
    word_length_map,
)
from .root_datum import (
    build_root_datum,
    dominance_leq,
    fundamental_group,
    is_dominant,
)


@dataclass(frozen=True)
class OracleResult:
    name: str
    scope: str
    passed: bool
    detail: str


_REGISTRY: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = []


def _oracle(name: str, scope: str):
    def wrap(fn):
        _REGISTRY.append((name, scope, fn))
        return fn

    return wrap


def _rd(preset: str, n: int):
    return build_root_datum({"preset": preset, "n": n})


@_oracle("positive-root-counts", "root-datum")
def _check_counts():
    expect = {("GL", 2): 1, ("GL", 3): 3, ("GL", 4): 6, ("GSp", 4): 4, ("GSp", 6): 9}
    for (preset, n), count in expect.items():
        rd = _rd(preset, n)
        if len(rd.positive_coroots) != count:
            return False, f"{preset}{n}: {len(rd.positive_coroots)} != {count}"
    return True, f"{len(expect)} presets match the closed-form root counts"


@_oracle("fundamental-groups", "root-datum")
def _check_pi1():
    cases = [(("GL", 2), "Z"), (("SL", 3), "1"), (("PGL", 3), "Z/3"), (("GSp", 4), "Z")]
    for (preset, n), expected in cases:
        rd = _rd(preset, n)
        got = fundamental_group(rd).describe()
        if got != expected:
            return False, f"{preset}{n}: pi1 = {got} != {expected}"
        pi1 = fundamental_group(rd)
        for cv in rd.simple_coroots:
            if pi1.project(cv) != pi1.zero():
                return False, f"{preset}{n}: a simple coroot survives the projection"
    gl4 = _rd("GL", 4)
    pi1 = fundamental_group(gl4)
    for r in range(1, 4):
        mu = tuple(1 if k < r else 0 for k in range(4))
        if pi1.project(mu) == pi1.zero():
            return False, f"GL4 minuscule {mu} projects to zero"
    return True, "pi1 normal forms and projections as derived"


@_oracle("length-formula-vs-word-search", "length")
def _check_length_words():
    for preset, n, radius in [("GL", 2, 5), ("GL", 3, 4), ("GSp", 4, 4)]:
        rd = _rd(preset, n)
        dist = word_length_map(rd, radius)
        for w, d in dist.items():
            if length(rd, w) != d:
                return False, f"{preset}{n}: formula {length(rd, w)} != word distance {d}"
        # elements with a length-zero part: word distance in the W_a factor
        tau = omega_rep(rd, tuple([1] + [0] * (rd.rank - 1)))
        for w, d in dist.items():
            shifted = mul(w, tau)
            if length(rd, shifted) != d:
                return False, f"{preset}{n}: omega shift changed the length"
    return True, "lengths match breadth-first word search on three presets"


@_oracle("bruhat-recursion-vs-subword", "bruhat")
def _check_bruhat_oracle():
    rng = random.Random(7)
    for preset, n, radius in [("GL", 2, 5), ("GL", 3, 3)]:
        rd = _rd(preset, n)
        ball = sorted(word_length_map(rd, radius), key=lambda w: (length(rd, w), w.translation, w.finite))
        pairs = [(v, w) for v in ball for w in ball]
        rng.shuffle(pairs)
        for v, w in pairs[:400]:
            if bruhat_leq(rd, v, w) != bruhat_leq_subword_oracle(rd, v, w):
                return False, f"{preset}{n}: disagreement at {v}, {w}"
    return True, "descent recursion agrees with exhaustive subword search"


@_oracle("translation-bruhat-vs-dominance", "bruhat")
def _check_translation_dominance():
    for preset, n in [("GL", 2), ("GL", 3)]:
        rd = _rd(preset, n)
        box = range(-1, 2)
        import itertools

        vecs = [v for v in itertools.product(box, repeat=rd.rank) if is_dominant(v, rd)]
        for lam in vecs:
            for mu in vecs:
                lhs = bruhat_leq(rd, translation_element(lam, rd), translation_element(mu, rd))
                rhs = dominance_leq(lam, mu, rd, integral=True)
                if lhs != rhs:
                    return False, f"{preset}{n}: {lam} vs {mu}: bruhat {lhs}, dominance {rhs}"
    return True, "dominant translations order by integral dominance"


@_oracle("drinfeld-cardinalities", "adm")
def _check_drinfeld():
    for n in (2, 3, 4):
        rd = _rd("GL", n)
        mu = tuple([1] + [0] * (n - 1))
        enumerated = admissible.adm_by_exhaustion(mu, rd)
        fast = set(admissible.adm(mu, rd).elements)
        if enumerated != fast:
            return False, f"GL{n}: closure and exhaustion disagree"
        if len(fast) != 2**n - 1:
            return False, f"GL{n}: |Adm| = {len(fast)} != {2**n - 1}"
    return True, "|Adm| = 2^n - 1 for the one-box coweight, n <= 4, against exhaustion"


@_oracle("adm-structure", "adm")
def _check_adm_structure():
    cases = [("GL", 2, (1, 0)), ("GL", 3, (1, 1, 0)), ("GSp", 4, (1, 1, 1))]
    for preset, n, mu in cases:
        rd = _rd(preset, n)
        aset = admissible.adm(mu, rd)
        zero = [w for w in aset.elements if length(rd, w) == 0]
        if len(zero) != 1 or zero[0] != admissible.tau(mu, rd):
            return False, f"{preset}{n}: length-zero elements {len(zero)} != 1"
        if not all(bruhat_leq(rd, zero[0], w) for w in aset.elements):
            return False, f"{preset}{n}: minimal element is not below everything"
        kap = {kottwitz(rd, w) for w in aset.elements}
        if len(kap) != 1:
            return False, f"{preset}{n}: Kottwitz class is not constant"
    return True, "unique bottom and constant Kottwitz class on three presets"


@_oracle("adm-equals-perm", "adm-perm")
def _check_adm_perm():
    for n in (2, 3, 4):
        rd = _rd("GL", n)
        for r in range(n + 1):
            mu = tuple(1 if k < r else 0 for k in range(n))
            report = gln_perm.adm_eq_perm_check(n, mu, rd)
            if not report.equal:
                return False, f"GL{n}, r={r}: symmetric difference {report.only_in_adm + report.only_in_perm}"
    return True, "admissible and permissible sets agree for GL(n), n <= 4, all minuscule"


@_oracle("newton-sets", "straight")
def _check_newton():
    from fractions import Fraction as F

    gl2 = _rd("GL", 2)
    pts = straight_newton.b_set((1, 0), gl2, sigma_identity(gl2))
    nus = sorted(p.nu for p in pts)
    if nus != [(F(1, 2), F(1, 2)), (F(1), F(0))]:
        return False, f"B(GL2,(1,0)) slopes {nus}"
    gl3 = _rd("GL", 3)
    pts3 = straight_newton.b_set((1, 0, 0), gl3, sigma_identity(gl3))
    if len(pts3) != 3:
        return False, f"B(GL3,(1,0,0)) has {len(pts3)} points"
    gsp = _rd("GSp", 4)
    ptsg = straight_newton.b_set((1, 1, 1), gsp, sigma_identity(gsp))
    if len(ptsg) != 3:
        return False, f"B(GSp4,(1,1,1)) has {len(ptsg)} points"
    return True, "pinned Newton sets re-derived from straight classes"


@_oracle("stembridge-small", "stembridge")
def _check_stembridge():
    import itertools

    gl3 = _rd("GL", 3)
    box = range(0, 3)
    doms = [v for v in itertools.product(box, repeat=3) if is_dominant(v, gl3)]
    pi1 = fundamental_group(gl3)
    for lam in doms:
        for mu in doms:
            ok_pre = pi1.project(lam) == pi1.project(mu) and dominance_leq(lam, mu, gl3)
            try:
                chain = stembridge.stembridge_chain(lam, mu, gl3)
                found = True
            except stembridge.ChainPreconditionError:
                found = False
            if found != ok_pre:
                return False, f"GL3: chain for {lam} <= {mu}: got {found}, want {ok_pre}"
            if found:
                cur = mu
                for step in chain.steps:
                    cur = tuple(a - b for a, b in zip(cur, step))
                    if not is_dominant(cur, gl3):
                        return False, f"GL3: intermediate {cur} not dominant"
                if cur != lam:
                    return False, "GL3: chain did not reach lambda"
    return True, "chains exist exactly under the preconditions on a GL3 box"


@_oracle("notation-roundtrip", "roundtrip")
def _check_roundtrip():
    rng = random.Random(11)
    for preset, n in [("GL", 2), ("GL", 3), ("GSp", 4)]:
        rd = _rd(preset, n)
        gens = iwahori_generators(rd)
        for _ in range(150):
            w = identity_element(rd)
            for _ in range(rng.randrange(0, 7)):
                w = mul(w, gens[rng.randrange(len(gens))])
            shift = tuple(rng.randrange(-1, 2) for _ in range(rd.rank))
            w = mul(w, omega_rep(rd, shift))
            text = notation.format_element(rd, w)
            if notation.parse_element(rd, text) != w:
                return False, f"{preset}{n}: {text} does not round-trip"
    return True, "450 random elements round-trip through the text form"


@_oracle("tampered-length-is-detected", "negative-control")
def _check_negative_control():
    rd = _rd("GL", 2)
    dist = word_length_map(rd, 4)

    def tampered(w):
        # deliberate off-by-one on translation elements
        real = length(rd, w)
        if w.finite == identity_element(rd).finite and any(w.translation):
            return real + 1
        return real

    mismatch = any(tampered(w) != d for w, d in dist.items())
    if not mismatch:
        return False, "tampering went unnoticed by the word-search oracle"
    return True, "word-search oracle flags a deliberately broken length"


def run_oracle_suite(scope: Optional[str] = None) -> list[OracleResult]:
    """Run all oracles (or one scope) in registration order."""
    results = []
    for name, sc, fn in _REGISTRY:
        if scope is not None and sc != scope:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(OracleResult(name, sc, passed, detail))
    return results


def available_scopes() -> tuple[str, ...]:
    return tuple(sorted({s for _, s, _ in _REGISTRY}))
