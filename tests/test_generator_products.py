"""Generator products by formula and signed root permutations composed
along reduced words, each checked against plain matrix arithmetic and
vec_mat."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import affweyl
from affweyl import affine_weyl
from affweyl.affine_weyl import (
    AffineWeylElement,
    _Context,
    _context,
    _right_descends,
    _start,
    _step,
    finite_reflection,
    identity_element,
    iwahori_generators,
    length,
    make_sigma,
    mul,
    omega_rep,
    reduced_word,
    sigma_from_name,
    translation_element,
    word_length_map,
)
from affweyl.linalg import mat_mul, vec_mat
from affweyl.root_datum import build_root_datum
from test_affine_weyl import A1_X_C2
from test_root_datum import _cartan_spec

DATA = [
    build_root_datum({"preset": p, "n": n})
    for p, n in (("GL", 2), ("GL", 3), ("GL", 4), ("SL", 3), ("SL", 4), ("PGL", 3), ("GSp", 4), ("GSp", 6))
] + [A1_X_C2]
FLIPPED = [rd for rd in DATA if rd.type_label[:2] in ("GL", "SL", "PG")]


def _id(rd):
    return rd.type_label


def _dense(a, b):
    """(t_lambda u)(t_mu v) = t_(lambda + u mu) uv in plain matrix arithmetic."""
    moved = tuple(sum(x * y for x, y in zip(row, b.translation)) for row in a.finite)
    return AffineWeylElement(tuple(x + y for x, y in zip(a.translation, moved)), mat_mul(a.finite, b.finite))


def _vec_mat_perm(rd, matrix):
    """The signed permutation of the positive roots by u^-1: b u = u^-1(b) = +-b_m."""
    index = rd._root_index
    return tuple(index[vec_mat(root, matrix)] for root in rd.positive_roots)


def _finite_group(rd):
    return list(word_length_map(rd, gens=[finite_reflection(rd, i) for i in range(rd.semisimple_rank)]))


@st.composite
def _elements(draw, data=DATA):
    rd = data[draw(st.integers(0, len(data) - 1))]
    gens = iwahori_generators(rd)
    w = translation_element(draw(st.lists(st.integers(-3, 3), min_size=rd.rank, max_size=rd.rank)), rd)
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=8)):
        w = mul(w, gens[i])
    shift = draw(st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank))
    return rd, mul(w, omega_rep(rd, shift))


_PROPERTY = settings(max_examples=80)


@_PROPERTY
@given(_elements(), st.data())
def test_product_with_a_finite_right_factor_is_the_dense_one(case, data):
    rd, w = case
    finite = _finite_group(rd)
    v = finite[data.draw(st.integers(0, len(finite) - 1))]
    assert not any(v.translation)
    assert mul(w, v) == _dense(w, v)
    for s in iwahori_generators(rd):
        if not any(s.translation):
            assert mul(w, s) == _dense(w, s)


@_PROPERTY
@given(_elements(FLIPPED))
def test_product_with_sigma_is_the_dense_one(case):
    rd, w = case
    for s in sigma_from_name(rd, "flip").elements:
        assert mul(w, s) == _dense(w, s)
        assert mul(s, w) == _dense(s, w)


@_PROPERTY
@given(_elements())
def test_each_affine_simple_reflection_times_an_element_is_the_dense_product(case):
    rd, w = case
    for s in iwahori_generators(rd):
        assert mul(s, w) == _dense(s, w)
        assert mul(s, mul(s, w)) == w


@pytest.mark.parametrize("rd", DATA, ids=_id)
def test_wall_permutation_is_the_signed_action_of_its_reflection(rd):
    roots, ctx = rd.positive_roots, _context(rd)
    for wall, s in zip(ctx.walls, ctx.gens):
        perm = ctx.perm(s._u)
        assert sorted(m if m >= 0 else ~m for m in perm) == list(range(len(roots)))
        assert perm[wall.k] == ~wall.k
        assert perm == _vec_mat_perm(rd, s.finite)
        # and s is an involution on signed indices
        assert all(perm[m] == j if m >= 0 else perm[~m] == ~j for j, m in enumerate(perm))


@pytest.mark.parametrize("rd", DATA, ids=_id)
def test_signs_read_through_a_wall_equal_the_vec_mat_signs(rd):
    # fresh entries and a fresh context, so every permutation is derived here:
    # u's by vec_mat, s u's by one step through each wall
    for u in _finite_group(rd):
        for i in range(len(iwahori_generators(rd))):
            ctx = _Context(rd)
            fresh = affine_weyl._Finite(u.finite)
            perm = ctx.perm(fresh)
            assert perm == _vec_mat_perm(rd, u.finite)
            _, _, su, su_perm = _step(ctx, i, u.translation, [0] * len(ctx.walls), fresh, perm)
            assert su.matrix == mat_mul(ctx.gens[i].finite, u.finite)
            assert su_perm == ctx.perms[su] == _vec_mat_perm(rd, su.matrix)


@_PROPERTY
@given(_elements())
def test_signs_along_reduced_words_equal_the_vec_mat_signs(case):
    rd, w = case
    letters, omega = reduced_word(rd, w)
    gens = iwahori_generators(rd)
    ctx = _Context(rd)  # empty: each step composes
    lam, pairs, u, perm = _start(ctx, w)
    cur = w
    for i in letters:
        lam, pairs, u, perm = _step(ctx, i, lam, pairs, u, perm)
        cur = mul(gens[i], cur)
        assert (tuple(lam), u) == (cur.translation, cur._u)
        assert perm == _vec_mat_perm(rd, cur.finite)
    assert cur == omega


RIGHT_DESCENT_DATA = [
    build_root_datum({"preset": p, "n": n})
    for p, n in (("GL", 3), ("GL", 4), ("SL", 3), ("PGL", 4), ("GSp", 4), ("GSp", 6))
] + [
    build_root_datum({**_cartan_spec([[2, -2], [-1, 2]]), "label": "B2"}),
    build_root_datum({**_cartan_spec([[2, -1], [-3, 2]]), "label": "G2"}),
    A1_X_C2,
]


@pytest.mark.parametrize("rd", RIGHT_DESCENT_DATA, ids=_id)
def test_right_descent_read_matches_lengths(rd):
    rng = random.Random(22)
    gens = iwahori_generators(rd)
    for _ in range(200):
        w = translation_element([rng.randint(-3, 3) for _ in range(rd.rank)], rd)
        for _ in range(rng.randrange(10)):
            w = mul(w, gens[rng.randrange(len(gens))])
        w = mul(w, omega_rep(rd, [rng.randint(-2, 2) for _ in range(rd.rank)]))
        lw = length(rd, w)
        for i, s in enumerate(gens):
            assert _right_descends(rd, w, i) == (length(rd, mul(w, s)) < lw)


def test_a_permutation_does_not_determine_the_finite_part():
    # why the entries stay keyed by the matrix: the flip of GL2 permutes the
    # positive roots like the identity, and on a torus every matrix has the
    # empty permutation, but neither is the identity
    gl2 = DATA[0]
    torus = build_root_datum({"rank": 2, "simple_roots": [], "simple_coroots": [], "label": "T2"})
    for rd, sigma in ((gl2, sigma_from_name(gl2, "flip")), (torus, make_sigma(torus, [[0, 1], [1, 0]]))):
        s, _ = sigma.elements
        assert _context(rd).perm(s._u) == tuple(range(len(rd.positive_roots)))  # (0,) and ()
        assert not s._u.is_identity
        assert s != identity_element(rd) and mul(s, s) == identity_element(rd)


@pytest.mark.parametrize("clear", [affweyl.clear_caches], ids=lambda f: f.__name__)
def test_generators_built_before_a_clear_multiply_like_dense_products(clear):
    rd = DATA[6]  # GSp4
    old = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)] + list(iwahori_generators(rd))
    clear()
    assert not affine_weyl._FINITE_PARTS
    assert _context.cache_info().currsize == 0
    lam = translation_element((2, -1, 0), rd)
    new = [mul(lam, g) for g in old] + [mul(g, lam) for g in old]
    for a in old:
        for b in new:
            assert mul(a, b) == _dense(a, b)
            assert mul(b, a) == _dense(b, a)
    rebuilt = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)] + list(iwahori_generators(rd))
    assert rebuilt == old
    for g in rebuilt:
        assert g._u is affine_weyl._FINITE_PARTS[g.finite]
        assert mul(g, lam) == _dense(g, lam)
