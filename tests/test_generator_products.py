"""Generator products by formula and signed root permutations composed
along reduced words, each checked against plain matrix arithmetic and
vec_mat."""

import random
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import affweyl
from affweyl import affine_weyl, root_datum
from affweyl.admissible import adm
from affweyl.affine_weyl import (
    AffineWeylElement,
    _Context,
    _context,
    _descents,
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
    sigma_apply,
    sigma_from_name,
    sigma_identity,
    translation_element,
    word_length_map,
)
from affweyl.linalg import mat_mul, mat_vec, vec_mat
from affweyl.root_datum import build_root_datum
from affweyl.straight_newton import b_set
from test_affine_weyl import A1_X_C2, FACTOR_CYCLE, FACTOR_SWAP, GL2_CUBED, GL2_X_GL2
from test_levi import B2, G2
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
    sigma, zero = sigma_from_name(rd, "flip"), (0,) * rd.rank
    # S and S^-1 built by hand: outside W_0, so mul takes them through the matrix route
    for s in (AffineWeylElement(zero, sigma.matrix), AffineWeylElement(zero, sigma.matrix_inv)):
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
            assert su_perm == ctx.perm(su) == _vec_mat_perm(rd, su.matrix)


@_PROPERTY
@given(_elements())
def test_signs_along_reduced_words_equal_the_vec_mat_signs(case):
    rd, w = case
    letters, omega = reduced_word(rd, w)
    gens = iwahori_generators(rd)
    # a fresh context made none of w's entries, so each step multiplies
    # matrices, its product belongs to no context and its permutation composes
    ctx = _Context(rd)
    lam, pairs, u, perm = _start(ctx, w)
    cur = w
    for i in letters:
        lam, pairs, u, perm = _step(ctx, i, lam, pairs, u, perm)
        cur = mul(gens[i], cur)
        assert (tuple(lam), u.matrix) == (cur.translation, cur.finite)
        assert u.ctx is None and cur._u.ctx is _context(rd)
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
        _, right = _descents(rd, w)
        for i, s in enumerate(gens):
            assert bool(right >> i & 1) == (length(rd, mul(w, s)) < lw)


def _masks_by_lengths(rd, w):
    """(left, right) read off the lengths of s_i w and w s_i, each product built."""
    lw = length(rd, w)
    left = right = 0
    for i, s in enumerate(iwahori_generators(rd)):
        if length(rd, mul(s, w)) < lw:
            left |= 1 << i
        if length(rd, mul(w, s)) < lw:
            right |= 1 << i
    return left, right


@st.composite
def _descent_elements(draw):
    """(rd, omega t_lambda s_letters) on GL, SL, PGL, GSp, B2, G2 and A1 x C2."""
    rd = draw(st.sampled_from(RIGHT_DESCENT_DATA))
    gens = iwahori_generators(rd)
    w = translation_element(draw(st.lists(st.integers(-3, 3), min_size=rd.rank, max_size=rd.rank)), rd)
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=8)):
        w = mul(w, gens[i])
    shift = draw(st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank))
    return rd, mul(omega_rep(rd, shift), w)


@settings(max_examples=300, deadline=None)
@given(_descent_elements())
def test_descent_masks_match_lengths(case):
    # GSp, B2 and G2 are the data on which a transposed right read goes wrong
    rd, w = case
    assert _descents(rd, w) == _masks_by_lengths(rd, w)


def test_negative_control_swapped_descent_masks_fail_the_length_read():
    # the masks of a swapped read must disagree with the lengths somewhere on each datum
    rng = random.Random(33)
    for rd in RIGHT_DESCENT_DATA:
        gens = iwahori_generators(rd)
        swapped = 0
        for _ in range(50):
            w = translation_element([rng.randint(-3, 3) for _ in range(rd.rank)], rd)
            for _ in range(rng.randrange(8)):
                w = mul(w, gens[rng.randrange(len(gens))])
            left, right = _descents(rd, w)
            swapped += (right, left) != _masks_by_lengths(rd, w)
        assert swapped, rd.type_label


def test_a_permutation_does_not_determine_the_finite_part():
    # why the entries stay keyed by the matrix: outside W_0 the permutation is
    # not faithful.  The flip of GL2 permutes the positive roots like the
    # identity, and on a torus every matrix has the empty permutation, but
    # neither S nor S^-1, built here by hand, is the identity
    gl2 = DATA[0]
    torus = build_root_datum({"rank": 2, "simple_roots": [], "simple_coroots": [], "label": "T2"})
    for rd, sigma in ((gl2, sigma_from_name(gl2, "flip")), (torus, make_sigma(torus, [[0, 1], [1, 0]]))):
        zero = (0,) * rd.rank
        s, s_inv = AffineWeylElement(zero, sigma.matrix), AffineWeylElement(zero, sigma.matrix_inv)
        for x in (s, s_inv):
            assert _context(rd).perm(x._u) == tuple(range(len(rd.positive_roots)))  # (0,) and ()
            assert not x._u.is_identity and x != identity_element(rd)
        assert mul(s, s_inv) == identity_element(rd) and mul(s, s) == identity_element(rd)


FAITHFUL_DATA = [
    build_root_datum({"preset": p, "n": n})
    for p, n in [("GL", n) for n in range(2, 7)] + [("SL", 3), ("SL", 4), ("PGL", 3), ("PGL", 4)]
    + [("GSp", 4), ("GSp", 6), ("GSp", 8)]
] + [B2, G2, A1_X_C2]
# |W_0|: n! on GL_n, SL_n and PGL_n; 2^g g! on GSp_2g; 8 on B2, 12 on G2, 2 * 8 on A1 x C2
FAITHFUL_ORDERS = [2, 6, 24, 120, 720, 6, 24, 6, 24, 8, 48, 384, 8, 12, 16]


@pytest.mark.parametrize("rd,order", zip(FAITHFUL_DATA, FAITHFUL_ORDERS), ids=[_id(rd) for rd in FAITHFUL_DATA])
def test_the_signed_permutation_is_faithful_on_the_finite_weyl_group(rd, order):
    # u in W_0 fixing every root fixes every coroot and the annihilator of the
    # roots, so u = 1: inside W_0 the permutation could key the entries
    finite = _finite_group(rd)
    ctx = _context(rd)
    assert len(finite) == order
    assert len({ctx.perm(u._u) for u in finite}) == order


@pytest.mark.parametrize("clear", [affweyl.clear_caches], ids=lambda f: f.__name__)
def test_generators_built_before_a_clear_multiply_like_dense_products(clear):
    rd = DATA[6]  # GSp4
    old = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)] + list(iwahori_generators(rd))
    clear()
    assert not affine_weyl._CONTEXTS
    assert all(g._u.ctx is None and not g._u.products for g in old)
    lam = translation_element((2, -1, 0), rd)
    new = [mul(lam, g) for g in old] + [mul(g, lam) for g in old]
    for a in old:
        for b in new:
            assert mul(a, b) == _dense(a, b)
            assert mul(b, a) == _dense(b, a)
    rebuilt = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)] + list(iwahori_generators(rd))
    assert rebuilt == old
    ctx = _context(rd)
    for g in rebuilt:
        assert g._u.ctx is ctx and g._u is ctx.entries[_vec_mat_perm(rd, g.finite)]
        assert mul(g, lam) == _dense(g, lam)


def test_an_element_held_across_a_clear_keeps_no_context_alive():
    rd = DATA[6]  # GSp4
    affweyl.clear_caches()  # so no context of another rank-3 datum owns a shared reflection
    gens = iwahori_generators(rd)
    held = [*gens, mul(mul(gens[0], gens[1]), gens[2])]
    ctx = weakref.ref(_context(rd))
    assert all(w._u.ctx is ctx() for w in held)
    affweyl.clear_caches()
    assert ctx() is None
    assert all(w._u.ctx is None and w._u.perm is None for w in held)
    assert [_context(rd).perm(w._u) for w in held] == [_vec_mat_perm(rd, w.finite) for w in held]


# ---------------------------------------------------------------------------
# finite products by composing signed permutations


def _composition_problems(rd, words):
    """Multiply the words' generators in a fresh context, then pairs of the products; what differs from mat_mul.

    Every entry met is made by that context, so each product table miss
    is composed; each product must be an entry of that context with the
    dense matrix product as its matrix and that matrix's vec_mat
    permutation.
    """
    affweyl.clear_caches()
    ctx = _context(rd)
    one = identity_element(rd)._u
    products, problems = [], []

    def check(u, v):
        uv, dense = affine_weyl._product(u, v), mat_mul(u.matrix, v.matrix)
        if uv.matrix != dense or uv.ctx is not ctx:
            problems.append((u.matrix, v.matrix))
        elif ctx.perm(uv) != _vec_mat_perm(rd, dense):
            problems.append(("perm", dense))
        return uv

    for word in words:
        u = one
        for i in word:
            u = check(u, ctx.gens[i]._u)
        products.append(u)
    for u in products:
        for v in products:
            check(u, v)
    return problems


@_PROPERTY
@given(st.data())
def test_generator_words_compose_to_the_dense_product(data):
    rd = data.draw(st.sampled_from(FAITHFUL_DATA), label="rd")
    letters = st.integers(0, len(iwahori_generators(rd)) - 1)
    words = data.draw(st.lists(st.lists(letters, max_size=12), min_size=1, max_size=4), label="words")
    assert _composition_problems(rd, words) == []


def _sign_dropped(self, p, q):
    return tuple([q[m] if m >= 0 else q[~m] for m in p])


@pytest.mark.parametrize("rd", [DATA[1], DATA[6], A1_X_C2], ids=_id)
def test_negative_control_a_dropped_sign_in_composition_is_caught(monkeypatch, rd):
    words = [[1, 2, 1, 0], [0, 1, 2], [2, 0, 1, 2, 0]]
    assert _composition_problems(rd, words) == []
    monkeypatch.setattr(_Context, "compose", _sign_dropped)
    try:
        assert _composition_problems(rd, words)
    finally:
        monkeypatch.undo()
        affweyl.clear_caches()  # drop the entries and product tables made under the broken rule


def test_two_data_of_one_rank_interleaved():
    # GL4 and GSp6 both have rank 4 and share the identity matrix and some
    # reflections, yet each context makes its own entries: GSp6's, built
    # first, takes no part of GL4's W_0
    gl4, gsp6 = DATA[2], DATA[7]
    affweyl.clear_caches()
    ctxs = [_context(gsp6), _context(gl4)]
    rng = random.Random(4)
    walks = [identity_element(rd) for rd in (gsp6, gl4)]
    for _ in range(300):
        k = rng.randrange(2)
        rd, ctx = (gsp6, gl4)[k], ctxs[k]
        g = ctx.gens[rng.randrange(len(ctx.gens))]
        a, b = (walks[k], g) if rng.randrange(2) else (g, walks[k])
        walks[k] = mul(a, b)
        assert walks[k] == _dense(a, b)
        assert walks[k]._u.ctx is ctx
        assert ctx.perm(walks[k]._u) == _vec_mat_perm(rd, walks[k].finite)
    for rd, ctx, order in ((gl4, ctxs[1], 24), (gsp6, ctxs[0], 48)):
        finite = _finite_group(rd)
        assert len({ctx.perm(u._u) for u in finite}) == order
        assert all(u._u.ctx is ctx for u in finite)
    for ctx in ctxs:
        assert all(u.ctx is ctx and u.perm == p for p, u in ctx.entries.items())
        # a product table keeps only products of two entries of its own context
        assert all(v.ctx is ctx and uv.ctx is ctx for u in ctx.entries.values() for v, uv in u.products.items())


def test_concurrent_products_in_fresh_contexts():
    # threads that meet the same new entries at once, in data of one rank:
    # each product is still the dense one, under its vec_mat permutation
    rng = random.Random(9)
    words = [(rd, [rng.randrange(len(iwahori_generators(rd))) for _ in range(10)])
             for rd in (DATA[2], DATA[7]) for _ in range(20)]
    expected = []
    for rd, word in words:
        m = identity_element(rd).finite
        for i in word:
            m = mat_mul(m, iwahori_generators(rd)[i].finite)
        expected.append(m)
    wrong = []

    def work(offset):
        for k in range(len(words)):
            j = (k + offset) % len(words)
            rd, word = words[j]
            ctx = _context(rd)
            u = identity_element(rd)._u
            for i in word:
                u = affine_weyl._product(u, ctx.gens[i]._u)
            if u.matrix != expected[j] or ctx.perm(u) != _vec_mat_perm(rd, u.matrix):
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            affweyl.clear_caches()
            threads = [threading.Thread(target=work, args=(7 * t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_a_flip_built_by_hand_keeps_the_matrix_route():
    gl2 = DATA[0]
    affweyl.clear_caches()  # so no context of another rank-2 datum owns the identity
    ctx = _context(gl2)
    zero = (0, 0)
    flip = AffineWeylElement(zero, sigma_from_name(gl2, "flip").matrix)
    one = identity_element(gl2)
    entries = dict(ctx.entries)
    for g in iwahori_generators(gl2):
        assert mul(flip, g) == _dense(flip, g) and mul(g, flip) == _dense(g, flip)
    assert mul(flip, flip) == one and mul(one, flip) == flip
    # its permutation is the identity's, but it is not entered under it
    assert ctx.perm(flip._u) == ctx.perm(one._u) == (0,)
    assert flip._u.ctx is None and flip._u.perm is None
    assert ctx.entries == entries and ctx.entries[(0,)] is one._u
    # and no product table of the context keeps it
    assert all(v.ctx is ctx for v in one._u.products)


def test_products_of_a_matrix_built_by_hand_are_kept_nowhere():
    # 20000 distinct shears, each the product of the last with one more:
    # none stays reachable once the walk has moved past it
    shear = AffineWeylElement((0, 0), ((1, 1), (0, 1)))
    w = mul(shear, shear)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20000):
            w = mul(w, shear)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert w.finite == ((1, 20002), (0, 1))
    assert held < 1 << 20


def test_a_product_table_keeps_only_its_own_contexts_entries():
    # hand-built elements, GL4's flip on a GSp6 element and products across
    # GL4 and GSp6, all of rank 4, leave no foreign key or value in a table
    gl4, gsp6 = DATA[2], DATA[7]
    affweyl.clear_caches()
    flip = sigma_from_name(gl4, "flip")
    ctxs = [_context(gl4), _context(gsp6)]
    own = [mul(translation_element((1, 0, 0, 0), rd), g) for rd in (gl4, gsp6) for g in iwahori_generators(rd)]
    by_hand = [AffineWeylElement(w.translation, w.finite) for w in own]
    flipped = [sigma_apply(flip, w) for w in own[len(iwahori_generators(gl4)):]]
    for a in own + by_hand + flipped:
        for b in own + by_hand + flipped:
            assert mul(a, b) == _dense(a, b)
    assert all(w._u.ctx is None for w in by_hand + flipped)
    for ctx in ctxs:
        assert all(v.ctx is ctx and uv.ctx is ctx for u in ctx.entries.values() for v, uv in u.products.items())


# ---------------------------------------------------------------------------
# each datum's context makes its own entries


ORDER_CASES = [
    (DATA[2], DATA[7], (1, 1, 1, 1)),  # GL4, then GSp6: both of rank 4
    (DATA[4], build_root_datum({"preset": "PGL", "n": 4}), (1, 0, 0)),  # SL4, then PGL4: both of rank 3
]


@pytest.mark.parametrize("first,rd,mu", ORDER_CASES, ids=["GSp6-after-GL4", "PGL4-after-SL4"])
def test_a_datum_makes_as_many_matrices_whatever_context_came_first(monkeypatch, first, rd, mu):
    calls = []

    def counted(a, b):
        calls.append(None)
        return mat_mul(a, b)

    for module in (affine_weyl, root_datum):
        monkeypatch.setattr(module, "mat_mul", counted)
    counts, owners = [], []
    # the first run also fills what the datum keeps on itself, which no clear drops
    for before in (None, None, first):
        affweyl.clear_caches()
        if before is not None:
            _context(before)
        calls.clear()
        elements = adm(mu, rd).elements
        b_set(mu, rd, sigma_identity(rd))
        counts.append(len(calls))
        owners.append({w._u.ctx for w in elements} == {_context(rd)})
    assert counts[1] == counts[2]
    assert all(owners)


SIGMA_CASES = {f"{rd.type_label}-flip": (rd, sigma_from_name(rd, "flip")) for rd in FLIPPED}
SIGMA_CASES.update({"GL2xGL2-swap": (GL2_X_GL2, FACTOR_SWAP), "GL2^3-cycle": (GL2_CUBED, FACTOR_CYCLE)})


# one example budget per case: only the cycle, of order 3, tells tau from tau^-1
@pytest.mark.parametrize("rd,sigma", SIGMA_CASES.values(), ids=SIGMA_CASES.keys())
@settings(max_examples=30)
@given(st.data())
def test_sigma_apply_is_the_dense_conjugate_in_the_elements_context(rd, sigma, data):
    _, w = data.draw(_elements([rd]), label="w")
    s = sigma.matrix
    image = sigma_apply(sigma, w)
    assert image.translation == mat_vec(s, w.translation)
    assert image.finite == mat_mul(mat_mul(s, w.finite), sigma.matrix_inv)
    ctx = _context(rd)
    assert image._u.ctx is ctx and image._u is ctx.entries[_vec_mat_perm(rd, image.finite)]


def test_sigma_apply_multiplies_matrices_outside_a_context():
    # an element built by hand belongs to no context, and GL4's flip is no
    # diagram automorphism of GSp6, which has rank 4 as well
    gl4, gsp6 = DATA[2], DATA[7]
    flip = sigma_from_name(gl4, "flip")
    affweyl.clear_caches()
    s1 = finite_reflection(gl4, 1)
    by_hand = AffineWeylElement((1, 0, 0, 0), s1.finite)
    of_gsp6 = mul(translation_element((1, 0, 0, 0), gsp6), finite_reflection(gsp6, 0))
    for w in (by_hand, of_gsp6):
        image = sigma_apply(flip, w)
        assert image.translation == mat_vec(flip.matrix, w.translation)
        assert image.finite == mat_mul(mat_mul(flip.matrix, w.finite), flip.matrix_inv)
        # a plain matrix, kept in no context's table
        assert image._u.ctx is None and image._u.perm is None
        assert not any(image._u in c.entries.values() for c in affine_weyl._CONTEXTS.values())
    assert _context(gsp6).sigmas == {flip: None}
    assert sigma_apply(flip, s1)._u.ctx is _context(gl4)
