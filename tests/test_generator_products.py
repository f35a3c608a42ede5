"""Generator products by formula and sign vectors carried along reduced
words, each checked against plain matrix arithmetic and vec_mat."""

import pytest
from hypothesis import given, settings, strategies as st

import affweyl
from affweyl import affine_weyl
from affweyl.affine_weyl import (
    AffineWeylElement,
    _left_signs,
    _signs,
    _walls,
    finite_reflection,
    iwahori_generators,
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


def _vec_mat_signs(rd, matrix):
    index = rd._root_index
    return tuple(1 if index[vec_mat(root, matrix)] < 0 else 0 for root in rd.positive_roots)


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
    roots, index = rd.positive_roots, rd._root_index
    for (root, k, _, perm, _), s in zip(_walls(rd), iwahori_generators(rd)):
        assert sorted(m if m >= 0 else ~m for m in perm) == list(range(len(roots)))
        assert perm[k] == ~k
        # b s = s(b) for the involution s; the image's sign is its index's
        assert perm == tuple(index[vec_mat(b, s.finite)] for b in roots)
        # and s is an involution on signed indices
        assert all(perm[m] == j if m >= 0 else perm[~m] == ~j for j, m in enumerate(perm))


@pytest.mark.parametrize("rd", DATA, ids=_id)
def test_signs_read_through_a_wall_equal_the_vec_mat_signs(rd):
    # fresh entries outside the intern table, so every vector is derived here
    for u in _finite_group(rd):
        signs = _signs(rd, affine_weyl._Finite(u.finite))
        assert signs == _vec_mat_signs(rd, u.finite)
        for s, wall in zip(iwahori_generators(rd), _walls(rd)):
            su = affine_weyl._Finite(mat_mul(s.finite, u.finite))
            assert _left_signs(rd, su, wall, signs) == _vec_mat_signs(rd, su.matrix)
            assert su.signs == (rd, _vec_mat_signs(rd, su.matrix))


@_PROPERTY
@given(_elements())
def test_signs_along_reduced_words_equal_the_vec_mat_signs(case):
    rd, w = case
    letters, omega = reduced_word(rd, w)
    gens = iwahori_generators(rd)
    cur = w
    for i in letters:
        cur = mul(gens[i], cur)
        assert cur._u.signs == (rd, _vec_mat_signs(rd, cur.finite))
    assert cur == omega


@pytest.mark.parametrize("clear", [affweyl.clear_caches, affine_weyl.clear_finite_parts], ids=lambda f: f.__name__)
def test_generators_built_before_a_clear_multiply_like_dense_products(clear):
    rd = DATA[6]  # GSp4
    old = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)] + list(iwahori_generators(rd))
    clear()
    assert not affine_weyl._FINITE_PARTS
    lam = translation_element((2, -1, 0), rd)
    new = [mul(lam, g) for g in old] + [mul(g, lam) for g in old]
    for a in old:
        for b in new:
            assert mul(a, b) == _dense(a, b)
            assert mul(b, a) == _dense(b, a)
    # iwahori_generators is a memo table, which clear_finite_parts leaves alone
    rebuilt = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)]
    if clear is affweyl.clear_caches:
        rebuilt += iwahori_generators(rd)
    assert rebuilt == old[: len(rebuilt)]
    for g in rebuilt:
        assert g._u is affine_weyl._FINITE_PARTS[g.finite]
        assert mul(g, lam) == _dense(g, lam)
