"""Levi data read off the parent datum's roots, and integer Newton points.

Every Levi that levi_datum hands b_set and components_bound_report is
compared with the datum sub_datum derives from the positive roots
orthogonal to its slope vector, simple roots in sub_datum's order, and
with the datum _build makes from the same simple system; every Levi of a
slope vector that is not dominant, and of random slope vectors, is the
very object sub_datum derives from its positive roots.  sub_datum and
_build read coroot coordinates off the same fundamental-weight forms, so
the positive systems, coroot_height and dominance_leq are also checked
against an independent Fraction solve (solve_rational).
"""

import dataclasses
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from affweyl import clear_caches
from affweyl import straight_newton
from affweyl.affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    iwahori_generators,
    mul,
    omega_rep,
    sigma_apply,
    sigma_from_name,
    translation_element,
)
from affweyl import root_datum
from affweyl.linalg import mat_mul, mat_vec, solve_rational
from affweyl.root_datum import (
    RootDatum,
    RootDatumError,
    _build,
    build_root_datum,
    dominance_leq,
    dominant_rep,
    pairing,
    sub_datum,
)
from affweyl.stembridge import ChainPreconditionError
from affweyl.straight_newton import (
    NewtonPoint,
    b_set,
    components_bound_report,
    newton_point,
    pi1_coinvariants,
    twisted_power,
)


def _rd(preset, n):
    return build_root_datum({"preset": preset, "n": n})


# (preset, n, mu, sigma names); flip exists on the type A presets only
LADDER = [
    ("GL", 2, (1, 0), ("id", "flip")),
    ("GL", 3, (1, 1, 0), ("id", "flip")),
    ("GL", 4, (1, 1, 0, 0), ("id", "flip")),
    ("GL", 5, (1, 0, 0, 0, 0), ("id", "flip")),
    ("GSp", 4, (1, 1, 1), ("id",)),
    ("GSp", 6, (1, 1, 1, 1), ("id",)),
    ("SL", 3, (1, 1), ("id", "flip")),
    ("SL", 4, (1, 0, 1), ("id", "flip")),
    ("PGL", 3, (1, 0), ("id", "flip")),
    ("PGL", 4, (1, 0, 0), ("id", "flip")),
]


def _with_data(entries):
    """LADDER-style entries as (datum, mu, sigma names)."""
    return [(_rd(preset, n), mu, sigmas) for preset, n, mu, sigmas in entries]


def _reached_levis(monkeypatch, cases):
    """(parent, nu, Levi) for every call by which levi_datum hands the Newton routines a Levi.

    cases are (datum, mu, sigma names).
    """
    records = []
    levi_datum = straight_newton.levi_datum

    def recording(nu_raw, rd):
        levi = levi_datum(nu_raw, rd)
        records.append((rd, tuple(nu_raw), levi))
        return levi

    clear_caches()
    monkeypatch.setattr(straight_newton, "levi_datum", recording)
    try:
        for rd, mu, sigmas in cases:
            for name in sigmas:
                sigma = sigma_from_name(rd, name)
                for b in b_set(mu, rd, sigma):
                    try:
                        components_bound_report(mu, b, rd, sigma)
                    except (AffineWeylError, ChainPreconditionError):
                        # a typed refusal comes after the witness Levi is derived
                        pass
    finally:
        # the recorder watches these routines only; a caller may go on to call levi_datum itself
        monkeypatch.setattr(straight_newton, "levi_datum", levi_datum)
        clear_caches()
    return records


def _distinct(records):
    """(parent, Levi) once per Levi reached."""
    return list({id(levi): (rd, levi) for rd, _, levi in records}.values())


def _orthogonal(nu, rd):
    return [k for k, root in enumerate(rd.positive_roots) if pairing(nu, root) == 0]


def _mismatches(records):
    """The reached Levis other than sub_datum of the positive roots orthogonal to their slope vector.

    sub_datum lists the simple roots in its own order, so a Levi that holds
    the right roots in another order is a mismatch too.  Each is also
    compared with the datum _build makes from its simple system, a route
    that shares no code with sub_datum's.
    """
    return [
        levi
        for rd, nu, levi in records
        if levi != sub_datum(rd, _orthogonal(nu, rd), f"levi:{rd.type_label}")
        or levi != _build((rd.rank, levi.simple_roots, levi.simple_coroots), f"levi:{rd.type_label}")
    ]


def test_every_reached_levi_equals_the_rebuilt_datum(monkeypatch):
    records = _reached_levis(monkeypatch, _with_data(LADDER))
    assert len(_distinct(records)) >= 80
    # the torus, and Levis with one and with several simple roots
    assert {len(levi.simple_roots) for _, _, levi in records} >= {0, 1, 2, 3}
    assert not _mismatches(records)


def _corrupted(levi, **changes):
    """The datum of levi's fields with some replaced; _canonical is the only constructor."""
    fields = {f.name: getattr(levi, f.name) for f in dataclasses.fields(levi)}
    return root_datum._canonical(*{**fields, **changes}.values())


def _swap_two_roots(levi):
    roots = list(levi.positive_roots)
    if len(roots) >= 2:
        roots[0], roots[-1] = roots[-1], roots[0]
    return _corrupted(levi, positive_roots=tuple(roots))


def _drop_one_root(levi):
    return _corrupted(
        levi,
        positive_roots=levi.positive_roots[:-1],
        positive_coroots=levi.positive_coroots[:-1],
    )


@pytest.mark.parametrize("corrupt", [_swap_two_roots, _drop_one_root])
def test_negative_control_a_corrupted_derivation_is_caught(monkeypatch, corrupt):
    # each Levi levi_datum assembles is corrupted: it differs from the datum sub_datum derives
    assemble = straight_newton._assemble
    monkeypatch.setattr(straight_newton, "_assemble", lambda *fields: corrupt(assemble(*fields)))
    cases = _with_data([("GL", 4, (1, 1, 0, 0), ("id",)), ("GSp", 4, (1, 1, 1), ("id",))])
    assert _mismatches(_reached_levis(monkeypatch, cases))


def test_sub_datum_rejects_a_set_that_is_not_a_whole_positive_system():
    gl3 = _rd("GL", 3)
    # e1-e2 and e2-e3 without their sum: s1 maps the coroot of e2-e3 outside the set
    simple_only = [gl3.positive_coroots.index(c) for c in gl3.simple_coroots]
    with pytest.raises(RootDatumError):
        sub_datum(gl3, simple_only, "levi:GL3")
    assert len(sub_datum(gl3, range(3), "levi:GL3").positive_roots) == 3


def _reflection_stable(rd, idx):
    """Whether the chosen roots and their negatives are stable under their own reflections."""
    roots = [rd.positive_roots[k] for k in idx]
    closed = set(roots) | {tuple(-x for x in r) for r in roots}
    return all(
        tuple(x - pairing(rd.positive_coroots[k], beta) * y for x, y in zip(beta, rd.positive_roots[k]))
        in closed
        for k in idx
        for beta in closed
    )


G2 = build_root_datum(
    {"rank": 2, "simple_roots": [[2, -1], [-3, 2]], "simple_coroots": [[1, 0], [0, 1]], "label": "G2"}
)


@pytest.mark.parametrize(
    "rd", [_rd("GL", 4), _rd("GSp", 4), _rd("GSp", 6), G2], ids=lambda rd: rd.type_label
)
def test_sub_datum_on_every_index_set_builds_or_raises_root_datum_error(rd):
    # a set that is not a whole positive system must raise RootDatumError, not
    # a plain ValueError: finite type is never tested apart from closure
    n = len(rd.positive_roots)
    refused = 0
    for mask in range(1 << n):
        idx = [k for k in range(n) if mask >> k & 1]
        if _reflection_stable(rd, idx):
            levi = sub_datum(rd, idx, "sub")
            assert set(levi.positive_roots) == {rd.positive_roots[k] for k in idx}
        else:
            refused += 1
            with pytest.raises(RootDatumError):
                sub_datum(rd, idx, "sub")
    assert refused > 0


# ---------------------------------------------------------------------------
# integer Newton points and the interned sigma action

DATA = [
    (_rd("GL", 3), "id"),
    (_rd("GL", 4), "flip"),
    (_rd("GSp", 4), "id"),
    (_rd("SL", 3), "flip"),
    (_rd("PGL", 4), "flip"),
    (_rd("GL", 5), "flip"),
]

_PROPERTY = settings(max_examples=80)


@st.composite
def _cases(draw, data=DATA):
    rd, name = data[draw(st.integers(0, len(data) - 1))]
    gens = iwahori_generators(rd)
    lam = draw(st.lists(st.integers(-3, 3), min_size=rd.rank, max_size=rd.rank))
    w = translation_element(lam, rd)
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
        w = mul(w, gens[i])
    shift = draw(st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank))
    return rd, sigma_from_name(rd, name), mul(w, omega_rep(rd, shift))


@_PROPERTY
@given(_cases())
def test_newton_point_matches_the_fraction_route(case):
    rd, sigma, w = case
    m, power = twisted_power(rd, sigma, w)
    nu_raw = tuple(Fraction(x, m) for x in power.translation)
    nu_dom, word = dominant_rep(nu_raw, rd)
    den = lcm(*(x.denominator for x in nu_dom))
    kappa = pi1_coinvariants(rd, sigma).project(w.translation)
    assert newton_point(rd, sigma, w) == (nu_raw, NewtonPoint(tuple(nu_dom), kappa))
    assert newton_point(rd, sigma, w)[1].denominator == den
    # the integer vector takes the same reflections as the slope vector
    assert dominant_rep(power.translation, rd)[1] == word


def _plain_sigma_apply(sigma, w):
    return AffineWeylElement(
        mat_vec(sigma.matrix, w.translation),
        mat_mul(sigma.matrix, mat_mul(w.finite, sigma.matrix_inv)),
    )


def _raw_mul(a, b):
    """(lambda, u)(mu, v) = (lambda + u mu, uv) on plain tuples."""
    (lam, u), (mu, v) = a, b
    cols = list(zip(*v))
    return (
        tuple(x + sum(r * y for r, y in zip(row, mu)) for x, row in zip(lam, u)),
        tuple(tuple(sum(r * c for r, c in zip(row, col)) for col in cols) for row in u),
    )


def _raw_sigma(sigma, a):
    """sigma(lambda, u) = (S lambda, S u S^-1) on plain tuples."""
    zero = (0,) * len(a[0])
    return _raw_mul(_raw_mul((zero, sigma.matrix), a), (zero, sigma.matrix_inv))


TWIST_DATA = [(_rd(p, n), name) for p, n in [("GL", 3), ("GL", 4), ("SL", 3), ("PGL", 3)] for name in ("id", "flip")]


@_PROPERTY
@given(_cases(TWIST_DATA))
def test_twisted_power_is_the_first_translation_among_raw_twisted_products(case):
    rd, sigma, w = case
    m, power = twisted_power(rd, sigma, w)
    one = tuple(tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank))
    shifted = product = (w.translation, w.finite)
    for k in range(1, m):
        # no earlier index with sigma^k = 1 gives a translation
        assert k % sigma.order or product[1] != one
        shifted = _raw_sigma(sigma, shifted)
        product = _raw_mul(product, shifted)
    assert m % sigma.order == 0 and product[1] == one
    assert product == (power.translation, power.finite)


@_PROPERTY
@given(_cases())
def test_sigma_apply_matches_matrix_conjugation_across_clear_caches(case):
    rd, sigma, w = case
    assert sigma_apply(sigma, w) == _plain_sigma_apply(sigma, w)
    clear_caches()
    assert sigma_apply(sigma, w) == _plain_sigma_apply(sigma, w)
    fresh = AffineWeylElement(w.translation, w.finite)
    assert sigma_apply(sigma, fresh) == sigma_apply(sigma, w)
    identity = sigma_from_name(rd, "id")
    assert sigma_apply(identity, w) is w


# ---------------------------------------------------------------------------
# simple-coroot coordinates against an independent Fraction solve

A1_X_C2 = build_root_datum(
    {
        "rank": 5,
        "simple_roots": [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 2, -1]],
        "simple_coroots": [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, 0]],
    }
)
POSITIVE_SYSTEM_DATA = (
    [_rd("GL", n) for n in range(1, 8)]
    + [_rd(p, n) for p in ("SL", "PGL") for n in range(2, 6)]
    + [_rd("GSp", n) for n in (2, 4, 6, 8)]
    + [A1_X_C2]
)


def _check_positive_system(rd):
    """Coefficients by solve_rational: non-negative, summing to coroot_height, sorted."""
    keys = []
    for cv in rd.positive_coroots:
        coeffs = solve_rational(rd.simple_coroots, cv)
        assert coeffs is not None and all(c >= 0 for c in coeffs), (rd.type_label, cv)
        assert sum(coeffs) == rd.coroot_height(cv), (rd.type_label, cv)
        keys.append((sum(coeffs), cv))
    assert keys == sorted(keys), rd.type_label


@pytest.mark.parametrize("rd", POSITIVE_SYSTEM_DATA, ids=lambda rd: rd.type_label)
def test_positive_system_matches_the_fraction_solve(rd):
    _check_positive_system(rd)


def test_every_reached_levi_has_the_fraction_solve_positive_system(monkeypatch):
    levis = _distinct(_reached_levis(monkeypatch, _with_data(LADDER)))
    assert len(levis) >= 80
    for _, levi in levis:
        _check_positive_system(levi)


B2 = build_root_datum({"rank": 2, "simple_roots": [[2, -2], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]], "label": "B2"})
# beyond LADDER: GL6 with the flip, GSp8, the non-simply-laced B2 and G2, and a product
CONJUGATE_DATA = _with_data(LADDER) + [
    (_rd("GL", 6), (1, 1, 0, 0, 0, 0), ("id", "flip")),
    (_rd("GSp", 8), (1, 1, 1, 1, 1), ("id",)),
    (B2, (2, 2), ("id",)),
    (B2, (2, 1), ("id",)),
    (G2, (2, 3), ("id",)),
    (G2, (1, 2), ("id",)),
    (A1_X_C2, (1, 0, 1, 1, 1), ("id",)),
    (A1_X_C2, (1, 0, 2, 1, 1), ("id",)),
]


def _conjugates(records):
    """The records whose slope vector is not dominant: their Levi is not a standard one."""
    return [(rd, nu, levi) for rd, nu, levi in records if dominant_rep(nu, rd)[1]]


def test_every_conjugate_levi_is_the_datum_sub_datum_derives(monkeypatch):
    conjugates = _conjugates(_reached_levis(monkeypatch, CONJUGATE_DATA))
    # every datum of semisimple rank at least 2 reaches conjugate Levis that have roots
    assert {rd for rd, _, levi in conjugates if levi.positive_roots} == {
        rd for rd, _, _ in CONJUGATE_DATA if rd.semisimple_rank >= 2
    }
    for rd, nu, levi in conjugates:
        assert levi is sub_datum(rd, _orthogonal(nu, rd), f"levi:{rd.type_label}"), (rd.type_label, nu)


# GL1-8, SL2-6, PGL2-6, GSp2-10, the non-simply-laced B2 and G2, and a product
LEVI_DATA = (
    [_rd("GL", n) for n in range(1, 9)]
    + [_rd(p, n) for p in ("SL", "PGL") for n in range(2, 7)]
    + [_rd("GSp", n) for n in (2, 4, 6, 8, 10)]
    + [B2, G2, A1_X_C2]
)
_SLOPE = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))


@st.composite
def _slope_vectors(draw):
    rd = draw(st.sampled_from(LEVI_DATA))
    return rd, tuple(draw(st.lists(_SLOPE, min_size=rd.rank, max_size=rd.rank)))


@settings(max_examples=200)
@given(_slope_vectors())
def test_the_levi_of_any_slope_vector_is_the_datum_sub_datum_derives(case):
    rd, nu = case
    levi, label = straight_newton.levi_datum(nu, rd), f"levi:{rd.type_label}"
    orthogonal = _orthogonal(nu, rd)
    assert set(levi.positive_roots) == {rd.positive_roots[k] for k in orthogonal}
    assert levi is sub_datum(rd, orthogonal, label)
    assert levi is _build((rd.rank, levi.simple_roots, levi.simple_coroots), label)


def test_negative_control_a_datum_with_two_coroots_swapped_is_refused():
    # 2 rho^vee is unchanged, so the simple roots are GSp4's; their coroots are not, nor the Cartan matrix
    gsp4 = _rd("GSp", 4)
    coroots = list(gsp4.positive_coroots)
    coroots[0], coroots[-1] = coroots[-1], coroots[0]
    fake = _corrupted(gsp4, positive_coroots=tuple(coroots))
    with pytest.raises(RootDatumError):
        straight_newton.levi_datum((0, 0, 0), fake)
    assert straight_newton.levi_datum((0, 0, 0), gsp4) is sub_datum(gsp4, range(4), "levi:GSp4")


def _reference_dominance_leq(lam, mu, rd, integral):
    diff = [Fraction(b) - Fraction(a) for a, b in zip(lam, mu)]
    if not rd.simple_coroots:
        return not any(diff)
    coeffs = solve_rational(rd.simple_coroots, diff)
    if coeffs is None or any(c < 0 for c in coeffs):
        return False
    return not integral or all(c.denominator == 1 for c in coeffs)


DOMINANCE_DATA = [_rd("GL", n) for n in (1, 2, 3, 5)] + [
    _rd("SL", 4),
    _rd("PGL", 4),
    _rd("GSp", 4),
    _rd("GSp", 6),
    A1_X_C2,
]
_SMALL = st.integers(-4, 4)
_RATIONAL = st.builds(Fraction, _SMALL, st.sampled_from([1, 2, 3, 4]))


@st.composite
def _dominance_cases(draw):
    rd = draw(st.sampled_from(DOMINANCE_DATA))
    entries = draw(st.sampled_from([_SMALL, _RATIONAL]))
    lam = tuple(draw(st.lists(entries, min_size=rd.rank, max_size=rd.rank)))
    if draw(st.booleans()):
        # mu - lam in the span of the simple coroots, coefficients of either sign
        coeffs = draw(st.lists(entries, min_size=rd.semisimple_rank, max_size=rd.semisimple_rank))
        mu = tuple(
            x + sum(c * cv[k] for c, cv in zip(coeffs, rd.simple_coroots)) for k, x in enumerate(lam)
        )
    else:
        mu = tuple(draw(st.lists(entries, min_size=rd.rank, max_size=rd.rank)))
    return rd, lam, mu, draw(st.booleans())


def _check_dominance(case):
    rd, lam, mu, integral = case
    expected = _reference_dominance_leq(lam, mu, rd, integral)
    assert dominance_leq(lam, mu, rd, integral=integral) == expected, case


@settings(max_examples=200)
@given(_dominance_cases())
def test_dominance_leq_matches_the_fraction_solve(case):
    _check_dominance(case)


def _one_entry_off(forms):
    d, covectors = forms
    if not covectors:
        return forms
    first = (covectors[0][0] + 1,) + covectors[0][1:]
    return d, (first,) + covectors[1:]


def test_negative_control_one_wrong_form_entry_fails_both_checks(monkeypatch):
    real = root_datum._fundamental_forms
    monkeypatch.setattr(root_datum, "_fundamental_forms", lambda *a: _one_entry_off(real(*a)))
    # a property on the class shadows the forms already cached on a datum
    monkeypatch.setattr(
        RootDatum,
        "_forms",
        property(lambda rd: _one_entry_off(real(rd.simple_roots, rd.cartan_matrix))),
    )
    with pytest.raises((AssertionError, RootDatumError)):
        for rd in POSITIVE_SYSTEM_DATA:
            _check_positive_system(rd)
    with pytest.raises(AssertionError):
        test_dominance_leq_matches_the_fraction_solve()
