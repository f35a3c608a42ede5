"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every expected constant here was first derived from an independent route
(exhaustive enumeration, brute-force word search, or the vertex-condition
enumeration) before being pinned.
"""

import itertools
import random
import time
from fractions import Fraction as F

from affweyl.admissible import adm, adm_K, adm_by_exhaustion, tau
from affweyl.affine_weyl import (
    AffineWeylError,
    ParahoricLevel,
    bruhat_leq,
    double_coset_rep,
    identity_element,
    iwahori_generators,
    length,
    make_level,
    mul,
    omega_rep,
    sigma_apply,
    sigma_from_name,
    sigma_identity,
    translation_element,
)
from affweyl.cli import main as cli_main
from affweyl.gln_perm import adm_eq_perm_check
from affweyl.linalg import mat_vec
from affweyl.notation import format_element, parse_element
from affweyl.root_datum import (
    build_root_datum,
    dominance_leq,
    dominant_rep,
    fundamental_group,
    is_dominant,
    weyl_orbit,
)
from affweyl.stembridge import (
    ChainPreconditionError,
    is_minuscule,
    minuscule_lift,
    stembridge_chain,
)
from affweyl.straight_newton import (
    b_set,
    basic_point,
    is_straight,
    levi_datum,
    mu_bar,
    newton_point,
    adlv_nonempty,
    straight_classes,
)

GL2 = build_root_datum({"preset": "GL", "n": 2})
GL3 = build_root_datum({"preset": "GL", "n": 3})
GL4 = build_root_datum({"preset": "GL", "n": 4})
GL5 = build_root_datum({"preset": "GL", "n": 5})
GSP4 = build_root_datum({"preset": "GSp", "n": 4})

TESTED_CASES = [
    (GL2, (1, 0)),
    (GL2, (1, 1)),
    (GL2, (2, 0)),
    (GL3, (1, 0, 0)),
    (GL3, (1, 1, 0)),
    (GL3, (2, 1, 0)),
    (GL4, (1, 1, 0, 0)),
    (GL4, (1, 0, 0, -1)),
    (GL5, (1, 0, 0, 0, 0)),
    (GSP4, (1, 1, 1)),
]


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_adm_equals_perm():
    started = time.time()
    checked = 0
    for n in (2, 3, 4, 5):
        rd = build_root_datum({"preset": "GL", "n": n})
        for r in range(n + 1):
            mu = tuple(1 if k < r else 0 for k in range(n))
            report = adm_eq_perm_check(n, mu, rd)
            assert report.equal, (n, r, report.only_in_adm, report.only_in_perm)
            assert not report.only_in_adm and not report.only_in_perm
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds the two-minute budget"
    _report(1, f"admissible = permissible for {checked} (n, mu) pairs, n <= 5, in {elapsed:.1f}s")


def test_criterion_2_bruhat_vs_dominance_on_translations():
    dominant_pairs = 0
    all_pairs = 0
    for rd in (GL2, GL3, GSP4):
        vecs = list(itertools.product(range(-2, 3), repeat=rd.rank))
        doms = [v for v in vecs if is_dominant(v, rd)]
        for lam in doms:
            for mu in doms:
                lhs = bruhat_leq(rd, translation_element(lam, rd), translation_element(mu, rd))
                rhs = dominance_leq(lam, mu, rd, integral=True)
                assert lhs == rhs, (rd.type_label, lam, mu, lhs, rhs)
                dominant_pairs += 1
        # one direction survives without the dominance hypothesis
        for lam in vecs:
            for mu in vecs:
                if bruhat_leq(rd, translation_element(lam, rd), translation_element(mu, rd)):
                    assert dominance_leq(
                        dominant_rep(lam, rd)[0], dominant_rep(mu, rd)[0], rd, integral=True
                    )
                all_pairs += 1
    # the unrestricted converse genuinely fails: equal dominant representatives,
    # incomparable translations
    assert dominance_leq((1, 0), (1, 0), GL2, integral=True)
    assert not bruhat_leq(
        GL2, translation_element((1, 0), GL2), translation_element((0, 1), GL2)
    )
    _report(
        2,
        f"order of translations = integral dominance on {dominant_pairs} dominant pairs "
        f"(and the forward direction on {all_pairs} unrestricted pairs)",
    )


def test_criterion_3_admissible_set_structure():
    for rd, mu in TESTED_CASES:
        aset = adm(mu, rd)
        zeros = [w for w in aset.elements if length(rd, w) == 0]
        assert zeros == [tau(mu, rd)], (rd.type_label, mu)
        assert all(bruhat_leq(rd, zeros[0], w) for w in aset.elements)
        elements = set(aset.elements)
        tops = {
            w for w in elements if not any(v != w and bruhat_leq(rd, w, v) for v in elements)
        }
        mu_dom = dominant_rep(mu, rd)[0]
        orbit = weyl_orbit(mu_dom, rd)
        assert tops == {translation_element(lam, rd) for lam in orbit}
        assert len(tops) == len(orbit)
        top_len = length(rd, translation_element(mu_dom, rd))
        assert all(length(rd, w) == top_len for w in tops)
    drinfeld = []
    for n in (2, 3, 4, 5):
        rd = build_root_datum({"preset": "GL", "n": n})
        mu = tuple([1] + [0] * (n - 1))
        enumerated = adm_by_exhaustion(mu, rd)
        assert enumerated == set(adm(mu, rd).elements)
        assert len(enumerated) == 2**n - 1
        drinfeld.append(len(enumerated))
    _report(
        3,
        f"unique bottom / translation tops on {len(TESTED_CASES)} cases; "
        f"one-box cardinalities {drinfeld} = 2^n - 1 confirmed by enumeration",
    )


def test_criterion_4_straight_class_consistency():
    cases = [(rd, mu, sigma_identity(rd)) for rd, mu in TESTED_CASES]
    cases.append((GL4, (1, 0, 0, -1), sigma_from_name(GL4, "flip")))
    pairs = 0
    for rd, mu, sigma in cases:
        classes = straight_classes(mu, rd, sigma)
        labeled = [
            (w, i, newton_point(rd, sigma, w)[1])
            for i, cls in enumerate(classes)
            for w in cls.members
        ]
        for w1, i1, p1 in labeled:
            for w2, i2, p2 in labeled:
                assert (i1 == i2) == (p1 == p2), (rd.type_label, mu, w1, w2)
                pairs += 1
    _report(4, f"class partition matches the (Newton, Kottwitz) partition on {pairs} member pairs")


def test_criterion_5_newton_set_witnesses():
    for rd, mu in TESTED_CASES:
        sigma = sigma_identity(rd)
        classes = straight_classes(mu, rd, sigma)
        points = b_set(mu, rd, sigma)
        assert len(classes) == len(points)
        for cls in classes:
            assert cls.members, "a Newton point without a straight witness"
            assert all(w in set(adm(mu, rd).elements) for w in cls.members)
            assert all(is_straight(rd, sigma, w) for w in cls.members)
        basic = basic_point(mu, rd, sigma)
        assert sum(1 for p in points if p == basic) == 1
        mu_dom = dominant_rep(mu, rd)[0]
        bar = mu_bar(mu, rd, sigma)
        assert tuple(bar) == tuple(F(x) for x in mu_dom)
        assert any(p.nu == tuple(bar) for p in points)
    pinned = b_set((1, 0), GL2, sigma_identity(GL2))
    assert {(p.nu, p.kappa) for p in pinned} == {
        ((F(1), F(0)), (1,)),
        ((F(1, 2), F(1, 2)), (1,)),
    }
    _report(
        5,
        f"every Newton point carries admissible straight witnesses on {len(TESTED_CASES)} cases; "
        "B(GL2, (1,0)) = {(1,0), (1/2,1/2)} with kappa = 1",
    )


def _finite_weyl_matrices(levi):
    from affweyl.affine_weyl import finite_reflection
    from affweyl.linalg import mat_mul

    mats = {identity_element(levi).finite}
    gens = [finite_reflection(levi, i).finite for i in range(levi.semisimple_rank)]
    frontier = list(mats)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                c = mat_mul(m, g)
                if c not in mats:
                    mats.add(c)
                    nxt.append(c)
        frontier = nxt
    return mats


def test_criterion_6_levi_straightness():
    witnesses = 0
    for rd, mu in TESTED_CASES:
        sigma = sigma_identity(rd)
        for cls in straight_classes(mu, rd, sigma):
            for w in cls.members:
                nu_raw, _ = newton_point(rd, sigma, w)
                levi = levi_datum(nu_raw, rd)
                assert w.finite in _finite_weyl_matrices(levi)
                assert length(levi, w) == 0
                witnesses += 1
    _report(6, f"{witnesses} straight witnesses lie in their Levi with affine length zero")


def test_criterion_7_stembridge_exhaustivity():
    chain_checks = 0
    for rd, bound in ((GL2, 3), (GL3, 3), (GSP4, 3)):
        pi1 = fundamental_group(rd)
        lo = -3 if rd.type_label.startswith("GL") else 0
        doms = [
            v
            for v in itertools.product(range(lo, bound + 1), repeat=rd.rank)
            if is_dominant(v, rd)
        ]
        for lam in doms:
            for mu in doms:
                expected = pi1.project(lam) == pi1.project(mu) and dominance_leq(lam, mu, rd)
                try:
                    chain = stembridge_chain(lam, mu, rd)
                    got = True
                except ChainPreconditionError:
                    got = False
                assert got == expected, (rd.type_label, lam, mu)
                if got:
                    cur = mu
                    for cv in chain.steps:
                        cur = tuple(a - b for a, b in zip(cur, cv))
                        assert is_dominant(cur, rd)
                    assert cur == lam
                chain_checks += 1
    lifts = 0
    for rd, mu in [(GL2, (1, 0)), (GL3, (1, 1, 0)), (GL4, (1, 1, 0, 0)), (GSP4, (1, 1, 1))]:
        assert is_minuscule(mu, rd)
        orbit = weyl_orbit(mu, rd)
        for lam in orbit:
            lift = minuscule_lift(lam, mu, rd)
            assert lift.value in orbit
            cur = tuple(mu)
            for coroot, point in lift.chain:
                idx = rd.simple_coroots.index(coroot)
                assert sum(a * b for a, b in zip(cur, rd.simple_roots[idx])) == 1
                cur = point
            assert cur == tuple(lam)
            lifts += 1
    _report(
        7,
        f"chains exist iff dominated within one class ({chain_checks} dominant pairs); "
        f"{lifts} orbit lifts with every pairing exactly 1",
    )


def _sigma_stable_levels(rd, sigma):
    out = [ParahoricLevel.iwahori()]
    n = len(iwahori_generators(rd))
    for k in range(1, n):
        for subset in itertools.combinations(range(n), k):
            try:
                out.append(make_level(rd, subset, sigma))
            except AffineWeylError:
                continue
    return out


def test_criterion_8_level_independence_and_surjectivity():
    checks = 0
    for rd, mu in [(GL2, (1, 0)), (GL3, (1, 0, 0)), (GSP4, (1, 1, 1))]:
        sigma = sigma_identity(rd)
        levels = _sigma_stable_levels(rd, sigma)
        for p in b_set(mu, rd, sigma):
            assert adlv_nonempty(mu, p, rd, sigma)
        fake = b_set(mu, rd, sigma)[0]
        from affweyl.straight_newton import NewtonPoint

        off = NewtonPoint(fake.nu, tuple(x + 1 for x in fake.kappa))
        assert not adlv_nonempty(mu, off, rd, sigma)
        full = adm(mu, rd).elements
        for level in levels:
            reps = set(adm_K(mu, rd, level))
            assert {double_coset_rep(rd, w, level) for w in full} == reps
            checks += 1
    _report(8, f"non-emptiness is level free and adm_K is the coset image on {checks} levels")


def test_criterion_9_sigma_stability():
    flip = sigma_from_name(GL4, "flip")
    mu = (1, 1, 0, 0)
    image = {sigma_apply(flip, w) for w in adm(mu, GL4).elements}
    mu_image = dominant_rep(mat_vec(flip.matrix, mu), GL4)[0]
    assert image == set(adm(mu_image, GL4).elements)
    fixed_mu = (1, 0, 0, -1)
    assert dominant_rep(mat_vec(flip.matrix, fixed_mu), GL4)[0] == fixed_mu
    aset = set(adm(fixed_mu, GL4).elements)
    assert {sigma_apply(flip, w) for w in aset} == aset
    _report(
        9,
        f"flip maps Adm({mu}) onto Adm({mu_image}) and fixes Adm({fixed_mu}) elementwise",
    )


def test_criterion_10_determinism_and_roundtrip(capsys, tmp_path):
    commands = [
        ("adm", "--group", "GL3", "--mu", "1,1,0", "--format", "tsv"),
        ("newton", "--group", "GSp4", "--mu", "1,1,1", "--format", "json"),
        ("poset", "--group", "GL2", "--mu", "1,0"),
        ("describe", "--group", "PGL3", "--format", "table"),
    ]
    for argv in commands:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first
    rng = random.Random(123)
    count = 0
    for rd in (GL2, GL3, GL4, GSP4):
        gens = iwahori_generators(rd)
        for _ in range(250):
            w = identity_element(rd)
            for _ in range(rng.randrange(0, 8)):
                w = mul(w, gens[rng.randrange(len(gens))])
            w = mul(w, omega_rep(rd, tuple(rng.randint(-2, 2) for _ in range(rd.rank))))
            assert parse_element(rd, format_element(rd, w)) == w
            count += 1
    assert count == 1000
    _report(10, f"4 commands byte-stable across reruns; {count} element round-trips")
