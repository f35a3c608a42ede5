import dataclasses
import inspect
import itertools
import random
from fractions import Fraction as F

import pytest

import affweyl
from affweyl import straight_newton
from affweyl.affine_weyl import (
    AffineWeylError,
    finite_reflection,
    identity_element,
    inv,
    iwahori_generators,
    length,
    make_level,
    make_sigma,
    mul,
    omega_part,
    sigma_from_name,
    sigma_generator_permutation,
    sigma_identity,
    translation_element,
)
from affweyl.linalg import mat_vec
from affweyl.notation import format_element
from affweyl.root_datum import (
    build_root_datum,
    dominance_leq,
    pairing,
)
from affweyl.straight_newton import (
    DISCRETE_MARKER,
    NewtonPoint,
    adlv_nonempty,
    b_set,
    basic_point,
    components_bound_report,
    is_straight,
    is_straight_bruteforce,
    levi_datum,
    mu_bar,
    newton_point,
    pi1_sigma_invariants,
    straight_classes,
    twisted_power,
)
from test_admissible import _WORKLOADS, _preset_datum

GL2 = build_root_datum({"preset": "GL", "n": 2})
GL3 = build_root_datum({"preset": "GL", "n": 3})
GL4 = build_root_datum({"preset": "GL", "n": 4})
GSP4 = build_root_datum({"preset": "GSp", "n": 4})
SID2 = sigma_identity(GL2)
SID3 = sigma_identity(GL3)


def test_straightness_examples():
    assert is_straight(GL2, SID2, translation_element((1, 0), GL2))
    assert is_straight(GL2, SID2, translation_element((-2, 5), GL2))
    assert not is_straight(GL2, SID2, finite_reflection(GL2, 0))
    tau = omega_part(GL2, translation_element((1, 0), GL2))
    assert is_straight(GL2, SID2, tau)


def test_straightness_matches_bruteforce():
    rng = random.Random(0)
    gens = iwahori_generators(GL3)
    for _ in range(60):
        w = identity_element(GL3)
        for _ in range(rng.randrange(0, 5)):
            w = mul(w, gens[rng.randrange(len(gens))])
        assert is_straight(GL3, SID3, w) == is_straight_bruteforce(GL3, SID3, w)
    flip = sigma_from_name(GL4, "flip")
    gens4 = iwahori_generators(GL4)
    for _ in range(40):
        w = identity_element(GL4)
        for _ in range(rng.randrange(0, 4)):
            w = mul(w, gens4[rng.randrange(len(gens4))])
        assert is_straight(GL4, flip, w) == is_straight_bruteforce(GL4, flip, w)


def test_newton_point_examples():
    raw, point = newton_point(GL2, SID2, translation_element((1, 0), GL2))
    assert raw == (F(1), F(0))
    assert point.nu == (F(1), F(0)) and point.denominator == 1 and point.kappa == (1,)
    tau = omega_part(GL2, translation_element((1, 0), GL2))
    raw, point = newton_point(GL2, SID2, tau)
    assert point.nu == (F(1, 2), F(1, 2)) and point.denominator == 2
    raw, point = newton_point(GL2, SID2, translation_element((0, 1), GL2))
    assert raw == (F(0), F(1)) and point.nu == (F(1), F(0))


def test_newton_of_translation_is_the_cocharacter():
    for lam in itertools.product(range(-2, 3), repeat=2):
        raw, _ = newton_point(GL2, SID2, translation_element(lam, GL2))
        assert raw == tuple(F(x) for x in lam)


def test_newton_of_translation_under_flip_is_orbit_average():
    flip = sigma_from_name(GL4, "flip")
    lam = (1, 0, 0, 0)
    raw, _ = newton_point(GL4, flip, translation_element(lam, GL4))
    avg = tuple(
        F(a + b, 2) for a, b in zip(lam, mat_vec(flip.matrix, lam))
    )
    assert raw == avg == (F(1, 2), F(0), F(0), F(-1, 2))


def test_levi_datum_examples():
    assert len(levi_datum((F(1, 2), F(1, 2)), GL2).positive_roots) == 1
    assert len(levi_datum((F(1), F(0)), GL2).positive_roots) == 0
    assert len(levi_datum((F(1), F(1)), GL2).positive_roots) == 1
    assert len(levi_datum((F(1, 2), F(1, 2), F(0)), GL3).positive_roots) == 1


@pytest.mark.parametrize("nu", [("1", "0"), (True, False), (0.1, 0.9), (F(1, 2), 0.5)], ids=repr)
def test_levi_datum_refuses_what_a_newton_point_refuses(nu):
    # one check for both: a string, a bool or a float is refused, never converted
    for build in (lambda: levi_datum(nu, GL2), lambda: NewtonPoint(nu, ())):
        with pytest.raises(AffineWeylError, match="must be an int or a Fraction, not"):
            build()


def test_levi_datum_takes_ints_and_fractions_alike():
    for nu, rd, n_pos in [((1, 0), GL2, 0), ((1, 1), GL2, 1), ((0, 1), GL2, 0), ((F(1, 2), F(1, 2), 0), GL3, 1)]:
        levi = levi_datum(nu, rd)
        assert levi is levi_datum(tuple(map(F, nu)), rd)
        assert len(levi.positive_roots) == n_pos


def test_levi_centrality_respects_the_similitude_direction():
    # (0,0,1) pairs nontrivially with the long root, so it is not central
    assert len(levi_datum((0, 0, 1), GSP4).positive_roots) == 1
    # the central direction of the similitude torus keeps the whole group
    assert len(levi_datum((1, 1, 2), GSP4).positive_roots) == 4


def test_straight_classes_gl2():
    classes = straight_classes((1, 0), GL2, SID2)
    assert len(classes) == 2
    basic, ordinary = classes
    assert basic.newton.nu == (F(1, 2), F(1, 2))
    assert [format_element(GL2, m) for m in basic.members] == ["t[1,0]*s1"]
    assert len(basic.levi.positive_roots) == 1
    assert ordinary.newton.nu == (F(1), F(0))
    assert {format_element(GL2, m) for m in ordinary.members} == {"t[0,1]", "t[1,0]"}
    assert len(ordinary.levi.positive_roots) == 0
    assert ordinary.representative == min(
        ordinary.members, key=lambda w: (length(GL2, w), w.translation, w.finite)
    )


def test_straight_classes_gl3():
    classes = straight_classes((1, 0, 0), GL3, SID3)
    assert [c.newton.nu for c in classes] == [
        (F(1, 3), F(1, 3), F(1, 3)),
        (F(1, 2), F(1, 2), F(0)),
        (F(1), F(0), F(0)),
    ]
    assert [len(c.members) for c in classes] == [1, 3, 3]
    for c in classes:
        assert all(is_straight(GL3, SID3, m) for m in c.members)
        assert all(newton_point(GL3, SID3, m)[1] == c.newton for m in c.members)


def test_class_count_equals_b_set():
    for rd, mu, sigma in [
        (GL2, (1, 0), SID2),
        (GL3, (1, 1, 0), SID3),
        (GSP4, (1, 1, 1), sigma_identity(GSP4)),
    ]:
        assert len(straight_classes(mu, rd, sigma)) == len(b_set(mu, rd, sigma))


def test_b_set_gl2_pinned():
    points = b_set((1, 0), GL2, SID2)
    assert {(p.nu, p.kappa) for p in points} == {
        ((F(1, 2), F(1, 2)), (1,)),
        ((F(1), F(0)), (1,)),
    }
    assert basic_point((1, 0), GL2, SID2).nu == (F(1, 2), F(1, 2))


def test_b_set_central_is_single_basic():
    points = b_set((1, 1), GL2, SID2)
    assert len(points) == 1
    assert points[0].nu == (F(1), F(1))


def test_b_set_gsp4():
    points = b_set((1, 1, 1), GSP4, sigma_identity(GSP4))
    assert sorted(p.nu for p in points) == [
        (F(1, 2), F(1, 2), F(1)),
        (F(1), F(1, 2), F(1)),
        (F(1), F(1), F(1)),
    ]


def test_b_set_gl5_is_the_slope_chain():
    gl5 = build_root_datum({"preset": "GL", "n": 5})
    points = b_set((1, 0, 0, 0, 0), gl5, sigma_identity(gl5))
    slopes = sorted(p.nu for p in points)
    assert slopes == [
        tuple([F(1, 5)] * 5),
        tuple([F(1, 4)] * 4 + [F(0)]),
        tuple([F(1, 3)] * 3 + [F(0)] * 2),
        tuple([F(1, 2)] * 2 + [F(0)] * 3),
        (F(1), F(0), F(0), F(0), F(0)),
    ]
    # a totally ordered Newton poset
    for p in points:
        for q in points:
            assert dominance_leq(p.nu, q.nu, gl5, integral=False) or dominance_leq(
                q.nu, p.nu, gl5, integral=False
            )


def test_b_set_non_minuscule_gl3():
    points = b_set((2, 1, 0), GL3, SID3)
    assert sorted(p.nu for p in points) == [
        (F(1), F(1), F(1)),
        (F(3, 2), F(3, 2), F(0)),
        (F(2), F(1, 2), F(1, 2)),
        (F(2), F(1), F(0)),
    ]


def test_b_set_bounded_by_mu_bar_with_max_for_identity():
    for rd, mu, sigma in [(GL3, (1, 0, 0), SID3), (GSP4, (1, 1, 1), sigma_identity(GSP4))]:
        bar = mu_bar(mu, rd, sigma)
        points = b_set(mu, rd, sigma)
        for p in points:
            assert dominance_leq(p.nu, bar, rd, integral=False)
        assert tuple(bar) in {p.nu for p in points}
        pairs = {(p.nu, p.kappa) for p in points}
        assert len(pairs) == len(points)


def test_adlv_nonempty_examples():
    points = b_set((1, 0), GL2, SID2)
    basic = basic_point((1, 0), GL2, SID2)
    assert adlv_nonempty((1, 0), basic, GL2, SID2)
    fake = NewtonPoint((F(2), F(-1)), (1,))
    assert not adlv_nonempty((1, 0), fake, GL2, SID2)
    wrong_kappa = NewtonPoint(points[0].nu, (0,))
    assert not adlv_nonempty((1, 0), wrong_kappa, GL2, SID2)


def test_adlv_level_independent():
    # B(G, mu) membership is the same at every parahoric, so no level is taken
    assert "level" not in inspect.signature(adlv_nonempty).parameters
    mu = (1, 0, 0)
    for p in b_set(mu, GL3, SID3):
        assert adlv_nonempty(mu, p, GL3, SID3)


def test_pi1_sigma_invariants():
    assert pi1_sigma_invariants(GL3, SID3).describe() == "Z"
    pgl3 = build_root_datum({"preset": "PGL", "n": 3})
    assert pi1_sigma_invariants(pgl3, sigma_identity(pgl3)).describe() == "Z/3"
    assert pi1_sigma_invariants(pgl3, sigma_from_name(pgl3, "flip")).describe() == "1"
    sl3 = build_root_datum({"preset": "SL", "n": 3})
    assert pi1_sigma_invariants(sl3, sigma_from_name(sl3, "flip")).describe() == "1"
    # the flip inverts the determinant class, so nothing nontrivial is fixed
    assert pi1_sigma_invariants(GL4, sigma_from_name(GL4, "flip")).describe() == "1"


def _finite_weyl_subgroup(levi):
    mats = {identity_element(levi).finite}
    gens = [finite_reflection(levi, i).finite for i in range(levi.semisimple_rank)]
    frontier = list(mats)
    from affweyl.linalg import mat_mul

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


def test_straight_elements_live_in_their_levi_with_length_zero():
    cases = [
        (GL2, (1, 0), SID2),
        (GL3, (1, 0, 0), SID3),
        (GL3, (1, 1, 0), SID3),
        (GSP4, (1, 1, 1), sigma_identity(GSP4)),
    ]
    for rd, mu, sigma in cases:
        for cls in straight_classes(mu, rd, sigma):
            for w in cls.members:
                nu_raw, _ = newton_point(rd, sigma, w)
                levi = levi_datum(nu_raw, rd)
                assert w.finite in _finite_weyl_subgroup(levi)
                assert length(levi, w) == 0


def test_components_bound_basic_gl2():
    basic = basic_point((1, 0), GL2, SID2)
    report = components_bound_report((1, 0), basic, GL2, SID2)
    assert len(report.witnesses) == 1
    wit = report.witnesses[0]
    assert format_element(GL2, wit.element) == "t[1,0]*s1"
    assert len(wit.levi.positive_roots) == 1
    assert wit.lambda_w == (0, 1)
    assert not wit.central_in_levi
    assert wit.pi1_sigma is not None and wit.pi1_sigma.describe() == "Z"
    assert wit.marker is None


def test_components_bound_ordinary_gl2():
    points = b_set((1, 0), GL2, SID2)
    ordinary = next(p for p in points if p.nu == (F(1), F(0)))
    report = components_bound_report((1, 0), ordinary, GL2, SID2)
    assert {format_element(GL2, w.element) for w in report.witnesses} == {"t[0,1]", "t[1,0]"}
    for wit in report.witnesses:
        assert len(wit.levi.positive_roots) == 0
        assert wit.central_in_levi
        assert wit.marker == DISCRETE_MARKER
        assert wit.pi1_sigma is None


def test_components_bound_central_mu():
    point = b_set((1, 1), GL2, SID2)[0]
    report = components_bound_report((1, 1), point, GL2, SID2)
    assert len(report.witnesses) == 1
    assert report.witnesses[0].element == translation_element((1, 1), GL2)
    assert report.witnesses[0].marker == DISCRETE_MARKER


def test_components_bound_rejects_foreign_point():
    fake = NewtonPoint((F(2), F(0)), (1,))
    with pytest.raises(AffineWeylError):
        components_bound_report((1, 0), fake, GL2, SID2)


def test_components_bound_refuses_a_levi_that_sigma_does_not_stabilize():
    # the newton benchmark pins this refusal at one of the four points
    gl5 = build_root_datum({"preset": "GL", "n": 5})
    mu, flip = (1, 1, 0, 0, 0), sigma_from_name(gl5, "flip")
    points = b_set(mu, gl5, flip)
    assert len(points) == 4
    reports, refused = [], []
    for b in points:
        try:
            reports.append(components_bound_report(mu, b, gl5, flip))
        except AffineWeylError as exc:
            refused.append(str(exc))
    assert refused == ["sigma does not stabilize the Levi of this witness; no invariants defined"]
    assert len(reports) == 3 and all(report.witnesses for report in reports)


def test_lift_chain_pairings_are_one():
    mu = (1, 1, 0, 0)
    sid4 = sigma_identity(GL4)
    basic = basic_point(mu, GL4, sid4)
    report = components_bound_report(mu, basic, GL4, sid4)
    for wit in report.witnesses:
        # re-walk the recorded chain and confirm each subtraction is a
        # reflection with pairing one
        cur = tuple(report.mu)
        for coroot in wit.lift_chain:
            idx = GL4.simple_coroots.index(tuple(coroot))
            assert pairing(cur, GL4.simple_roots[idx]) == 1
            cur = tuple(a - b for a, b in zip(cur, coroot))
        assert cur == wit.lambda_w


def test_newton_denominator_divides_twist_order():
    for rd, mu, sigma in [(GL3, (1, 0, 0), SID3), (GSP4, (1, 1, 1), sigma_identity(GSP4))]:
        for cls in straight_classes(mu, rd, sigma):
            m, _ = twisted_power(rd, sigma, cls.representative)
            assert m % cls.newton.denominator == 0


def test_a_newton_point_is_nu_and_kappa():
    # a point of B(GL2, (1,0)) built by a caller: no stored denominator can disagree with nu
    probe = NewtonPoint((F(1, 2), F(1, 2)), (1,))
    assert probe.denominator == 2
    assert adlv_nonempty((1, 0), probe, GL2, SID2)
    assert components_bound_report((1, 0), probe, GL2, SID2).b == probe
    assert probe == basic_point((1, 0), GL2, SID2)
    # ints are taken as Fractions, any sequences as tuples
    assert NewtonPoint([1, 0], [1]) == NewtonPoint((F(1), F(0)), (1,)) == b_set((1, 0), GL2, SID2)[1]
    with pytest.raises(TypeError):
        NewtonPoint(probe.nu, 2, (1,))
    for bad in (0.5, True, "1/2", None):
        with pytest.raises(AffineWeylError, match="int or a Fraction"):
            NewtonPoint((bad, F(1, 2)), (1,))
    with pytest.raises(AffineWeylError, match="Kottwitz class coordinate must be an integer"):
        NewtonPoint(probe.nu, (1.0,))


NEWTON_DENOMINATOR_CASES = [
    (f"{entry['name']}:{name}", _preset_datum(entry["group"]), tuple(entry["mu"]), name)
    for entry in _WORKLOADS["newton"]["entries"]
    for name in entry["sigmas"]
] + [("GSp6:id", _preset_datum("GSp6"), (2, 1, 0, 1), "id")]


@pytest.mark.parametrize("rd,mu,name", [c[1:] for c in NEWTON_DENOMINATOR_CASES], ids=[c[0] for c in NEWTON_DENOMINATOR_CASES])
def test_the_derived_denominator_is_that_of_the_integer_key(rd, mu, name):
    # the lcm of nu's reduced denominators against m/g, g = gcd(m, dom(lambda)), of the twisted power
    sigma = sigma_from_name(rd, name)
    project = straight_newton.pi1_coinvariants(rd, sigma).project
    denominators = set()
    for cls in straight_classes(mu, rd, sigma):
        m, power = twisted_power(rd, sigma, cls.representative)
        key = straight_newton._newton_key(rd, project, cls.representative, m, power.translation)
        assert key[0] == cls.newton.denominator
        assert NewtonPoint(cls.newton.nu, cls.newton.kappa) == cls.newton
        denominators.add(cls.newton.denominator)
    if rd.type_label == "GSp6" and mu == (2, 1, 0, 1):
        assert denominators == {1, 2, 3}


# mul calls of b_set plus every components_bound_report on GL6 (1,0,...,0)
# under id and flip, from empty memo tables; the search makes one twisted
# power per element and one move per distinct Omega twist
GL6_W1_MUL_CEILING = 3810


def test_b_set_and_reports_stay_under_a_mul_count_ceiling(monkeypatch):
    import sys

    from affweyl import affine_weyl, clear_caches

    clear_caches()
    real = affine_weyl.mul
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("affweyl") and getattr(module, "mul", None) is real:
            monkeypatch.setattr(module, "mul", counting)
    gl6 = build_root_datum({"preset": "GL", "n": 6})
    mu = (1, 0, 0, 0, 0, 0)
    for name in ("id", "flip"):
        sigma = sigma_from_name(gl6, name)
        for b in b_set(mu, gl6, sigma):
            components_bound_report(mu, b, gl6, sigma)
    assert 0 < calls <= GL6_W1_MUL_CEILING



NEWTON_CASES = [("GL4", (1, 1, 0, 0), name) for name in ("id", "flip")] + [
    (e["group"], tuple(e["mu"]), name) for e in _WORKLOADS["newton"]["entries"] for name in e["sigmas"]
]


@pytest.mark.parametrize("group,mu,name", NEWTON_CASES)
def test_lambda_w_is_the_translation_read_through_the_inverse(group, mu, name):
    # inv is the oracle here: the report reflects along a word of u^-1 instead
    rd = _preset_datum(group)
    sigma = sigma_from_name(rd, name)
    witnesses = 0
    for b in b_set(mu, rd, sigma):
        try:
            report = components_bound_report(mu, b, rd, sigma)
        except AffineWeylError:
            continue
        for wit in report.witnesses:
            w = wit.element
            assert wit.lambda_w == mat_vec(inv(w).finite, w.translation)
            witnesses += 1
    assert witnesses


@pytest.mark.parametrize("group,mu,name", NEWTON_CASES)
def test_restrict_sigma_hands_back_sigma_itself(group, mu, name):
    # sigma restricted to a Levi is sigma itself, checked on the Levi where it is taken
    rd = _preset_datum(group)
    sigma = sigma_from_name(rd, name)
    restricted = 0
    for cls in straight_classes(mu, rd, sigma):
        for nu_raw in cls.member_nu_raw:
            levi = levi_datum(nu_raw, rd)
            try:
                rebuilt = make_sigma(levi, sigma.matrix)
            except AffineWeylError:
                refusal = f"is not a diagram automorphism of {levi.type_label}"
                with pytest.raises(AffineWeylError, match=refusal):
                    sigma_generator_permutation(levi, sigma)
                with pytest.raises(AffineWeylError, match=refusal):
                    pi1_sigma_invariants(levi, sigma)
                continue
            assert rebuilt == sigma
            assert pi1_sigma_invariants(levi, sigma) is pi1_sigma_invariants(levi, rebuilt)
            restricted += 1
    assert restricted


def test_pi1_sigma_invariants_computes_each_levi_and_sigma_once(monkeypatch):
    # every class of B(G, mu) with all its witnesses: many witnesses share a Levi
    cases = [("GL", 4, (1, 1, 0, 0)), ("GL", 5, (1, 1, 0, 0, 0)), ("GSp", 6, (1, 1, 1, 1)),
             ("GL", 6, (1, 0, 0, 0, 0, 0))]
    table = straight_newton.pi1_sigma_invariants
    seen = []

    def recorded(levi, sigma):
        seen.append((levi, sigma))
        return table(levi, sigma)

    affweyl.clear_caches()
    monkeypatch.setattr(straight_newton, "pi1_sigma_invariants", recorded)
    for preset, n, mu in cases:
        rd = build_root_datum({"preset": preset, "n": n})
        sigma = sigma_identity(rd)
        for b in b_set(mu, rd, sigma):
            components_bound_report(mu, b, rd, sigma)
    # distinct by value: equal Levis must be one object to be one key
    distinct = {(dataclasses.astuple(levi), sigma) for levi, sigma in seen}
    assert (len(seen), len(distinct)) == (77, 46)
    assert table.cache_info().misses == len(distinct)


def test_a_sigma_of_another_datum_is_refused_before_any_twisted_power(monkeypatch):
    # the GL3 flip has the rank of GSp4 but is no automorphism of it
    def no_power(*args):
        raise AssertionError("a twisted power was taken")

    monkeypatch.setattr(straight_newton, "twisted_power", no_power)
    flip3 = sigma_from_name(GL3, "flip")
    with pytest.raises(AffineWeylError, match=r"sigma \(\(0, 0, -1\).* is not a diagram automorphism of GSp4"):
        b_set((1, 1, 1), GSP4, flip3)
    with pytest.raises(AffineWeylError, match="wrong shape"):
        straight_classes((1, 0), GL2, flip3)


def test_negative_control_a_class_with_two_newton_points_is_refused(monkeypatch):
    # the flip's search on GL3 reaches straight elements outside Adm(mu); one of them
    # is given a twisted power of another Newton point, as a wrong power would
    mu, flip = (1, 0, 0), sigma_from_name(GL3, "flip")
    adm_set = set(affweyl.adm(mu, GL3).elements)
    straight_power = straight_newton._straight_power
    shifted = []

    def another_point(rd, sigma, w):
        power = straight_power(rd, sigma, w)
        if power is not None and w not in adm_set and not shifted:
            shifted.append(w)
            m, lam = power
            return m, (lam[0] + 1,) + lam[1:]
        return power

    affweyl.clear_caches()
    monkeypatch.setattr(straight_newton, "_straight_power", another_point)
    try:
        with pytest.raises(straight_newton.ConsistencyError, match="one twisted class carries several Newton points"):
            straight_classes(mu, GL3, flip)
    finally:
        affweyl.clear_caches()
    assert len(shifted) == 1


# each answered or raised a raw error: newton_point an IndexError, is_straight True,
# mu_bar a 2-vector, newton_point on GSp4 a point with kappa = (), pi1_sigma_invariants a group
FOREIGN_SIGMA_PROBES = {
    "newton_point-GL3-id_GL2": lambda: newton_point(GL3, SID2, translation_element((1, 0, 0), GL3)),
    "is_straight-GL3-id_GL2": lambda: is_straight(GL3, SID2, translation_element((1, 0, 0), GL3)),
    "mu_bar-GL3-flip_GL2": lambda: mu_bar((1, 0, 0), GL3, sigma_from_name(GL2, "flip")),
    "newton_point-GSp4-flip_GL3": lambda: newton_point(
        GSP4, sigma_from_name(GL3, "flip"), translation_element((1, 0, 0), GSP4)
    ),
    "pi1_sigma_invariants-GSp4-flip_GL3": lambda: pi1_sigma_invariants(GSP4, sigma_from_name(GL3, "flip")),
    "make_level-GSp4-flip_GL3": lambda: make_level(GSP4, [1], sigma_from_name(GL3, "flip")),
}


@pytest.mark.parametrize("probe", FOREIGN_SIGMA_PROBES.values(), ids=FOREIGN_SIGMA_PROBES.keys())
def test_a_sigma_of_another_datum_is_refused_by_name(probe):
    with pytest.raises(AffineWeylError, match=r"^sigma \(\(.* is not a diagram automorphism of (GL3|GSp4): "):
        probe()


@pytest.mark.parametrize("query", [twisted_power, newton_point, is_straight])
def test_an_element_of_another_rank_is_refused_before_any_power(monkeypatch, query):
    def no_product(*args):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(straight_newton, "mul", no_product)
    w = translation_element((1, 0), GL2)
    with pytest.raises(AffineWeylError, match="an element of rank 2 met a datum of rank 3"):
        query(GL3, SID3, w)


def test_a_report_lifts_each_distinct_translation_once(monkeypatch):
    real = straight_newton.minuscule_lift
    lifted = []

    def recording(lam, mu, rd):
        lifted.append(tuple(lam))
        return real(lam, mu, rd)

    monkeypatch.setattr(straight_newton, "minuscule_lift", recording)
    mu = (1, 0, 0, 0, 0, 0)
    rd = build_root_datum({"preset": "GL", "n": 6})
    sigma = sigma_identity(rd)
    witnesses = 0
    for b in b_set(mu, rd, sigma):
        start = len(lifted)
        report = components_bound_report(mu, b, rd, sigma)
        assert sorted(lifted[start:]) == sorted({wit.lambda_w for wit in report.witnesses})
        witnesses += len(report.witnesses)
    assert witnesses > len(lifted)
