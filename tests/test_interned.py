"""The element contract over finite parts, entries or plain matrices, and property tests
of the table-driven group law against plain matrix arithmetic."""

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import affweyl
from affweyl import affine_weyl
from affweyl.admissible import adm
from affweyl.affine_weyl import (
    AffineWeylElement,
    finite_reflection,
    identity_element,
    inv,
    iwahori_generators,
    length,
    mul,
    omega_rep,
    reduced_word,
    sigma_apply,
    sigma_from_name,
    translation_element,
    word_length_map,
)
from affweyl.linalg import mat_mul
from affweyl.root_datum import build_root_datum
from affweyl.stembridge import NotMinusculeError
from affweyl.straight_newton import b_set, components_bound_report, is_straight, newton_point, straight_classes
from test_affine_weyl import FACTOR_CYCLE, FACTOR_SWAP, GL2_CUBED, GL2_X_GL2

SPECS = [("GL", 2), ("GL", 3), ("GL", 4), ("SL", 3), ("PGL", 3), ("GSp", 4)]
DATA = [build_root_datum({"preset": p, "n": n}) for p, n in SPECS]
BALLS = [word_length_map(rd, 4) for rd in DATA]
GL3 = DATA[1]


def _fresh(matrix):
    """An equal matrix that shares no tuple with the argument."""
    return tuple(tuple([*row]) for row in matrix)


def _sample_element(rd):
    gens = iwahori_generators(rd)
    w = translation_element((2,) + (0,) * (rd.rank - 1), rd)
    for i in (1, 0, 1, len(gens) - 1):
        w = mul(w, gens[i])
    return w


def test_raw_construction_equals_product():
    s = iwahori_generators(GL3)[1:]
    w = mul(mul(translation_element((1, -2, 0), GL3), s[0]), s[1])
    matrix = [[0] * 3 for _ in range(3)]
    for row, col in ((1, 0), (2, 1), (0, 2)):  # s1 s2 sends e0 -> e1 -> e2 -> e0
        matrix[row][col] = 1
    raw = AffineWeylElement((1, -2, 0), tuple(tuple(r) for r in matrix))
    assert raw == w and w == raw
    assert hash(raw) == hash(w)
    assert raw != AffineWeylElement((1, -2, 1), raw.finite)
    assert raw != (raw.translation, raw.finite)


@pytest.mark.parametrize("rd", DATA, ids=lambda rd: rd.type_label)
def test_hash_is_that_of_the_pair(rd):
    for w in list(BALLS[DATA.index(rd)])[:40]:
        assert hash(w) == hash((w.translation, w.finite))
        assert hash(w) == hash((w.translation, _fresh(w.finite)))


def test_elements_are_immutable():
    w = _sample_element(GL3)
    with pytest.raises(AttributeError):
        w.translation = (0, 0, 0)
    with pytest.raises(AttributeError):
        w.finite = identity_element(GL3).finite
    with pytest.raises(AttributeError):
        w.extra = 1
    with pytest.raises(AttributeError):
        del w.translation
    assert w == _sample_element(GL3)
    assert copy.copy(w) == w == copy.deepcopy(w)
    assert pickle.loads(pickle.dumps(w)) == w


def test_separately_built_equal_data():
    other = build_root_datum({"preset": "GL", "n": 3})
    assert other is GL3 and other == GL3 and hash(other) == hash(GL3)
    assert iwahori_generators(other) == iwahori_generators(GL3)
    w, v = _sample_element(GL3), _sample_element(other)
    assert w == v and hash(w) == hash(v)
    assert length(other, v) == length(GL3, w)
    assert reduced_word(other, v) == reduced_word(GL3, w)


def test_equality_survives_clear_caches():
    w_old = _sample_element(GL3)
    affweyl.clear_caches()
    assert not affine_weyl._CONTEXTS and w_old._u.ctx is None
    w_new = _sample_element(GL3)
    assert w_old.finite is not w_new.finite  # a plain matrix and a new entry, one matrix
    assert w_old == w_new and w_new == w_old
    assert hash(w_old) == hash(w_new)
    assert mul(w_old, w_new) == mul(w_new, w_new)
    assert mul(w_new, w_old) == mul(w_new, w_new)
    assert inv(w_old) == inv(w_new)
    assert length(GL3, w_old) == length(GL3, w_new)


def test_non_root_finite_part_is_refused():
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))  # sends the root e0 - e1 to e0
    w = AffineWeylElement((0, 0, 0), shear)
    with pytest.raises(affine_weyl.AffineWeylError, match="not a root"):
        length(GL3, w)


# ---------------------------------------------------------------------------
# properties over random elements: a word of affine simple reflections
# between a translation and a length-zero element


@st.composite
def _elements(draw, count, data=DATA):
    k = draw(st.integers(0, len(data) - 1))
    rd = data[k]
    gens = iwahori_generators(rd)
    out = []
    for _ in range(count):
        lam = draw(st.lists(st.integers(-3, 3), min_size=rd.rank, max_size=rd.rank))
        w = translation_element(lam, rd)
        for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
            w = mul(w, gens[i])
        shift = draw(st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank))
        out.append(mul(w, omega_rep(rd, shift)))
    return k, out


def _plain_mul(a, b):
    """(t_lambda u)(t_mu v) in plain matrix arithmetic."""
    moved = [sum(a.finite[i][j] * b.translation[j] for j in range(len(b.translation)))
             for i in range(len(a.translation))]
    return tuple(x + y for x, y in zip(a.translation, moved)), mat_mul(a.finite, b.finite)


_PROPERTY = settings(max_examples=60)


@_PROPERTY
@given(_elements(3))
def test_group_law_against_plain_matrices(case):
    k, (a, b, c) = case
    rd = DATA[k]
    ab = mul(a, b)
    assert (ab.translation, ab.finite) == _plain_mul(a, b)
    assert mul(ab, c) == mul(a, mul(b, c))
    assert mul(a, inv(a)) == identity_element(rd) == mul(inv(a), a)


@_PROPERTY
@given(_elements(1), st.data())
def test_length_is_word_distance(case, data):
    k, (w,) = case
    rd = DATA[k]
    ball = list(BALLS[k].items())
    b, d = ball[data.draw(st.integers(0, len(ball) - 1))]
    om = reduced_word(rd, w)[1]
    assert length(rd, om) == 0
    assert length(rd, mul(b, om)) == d
    assert length(rd, mul(om, b)) == d


FLIP_DATA = [DATA[1], DATA[3]]


@_PROPERTY
@given(_elements(1, FLIP_DATA))
def test_flip_preserves_length(case):
    k, (w,) = case
    rd = FLIP_DATA[k]
    assert length(rd, sigma_apply(sigma_from_name(rd, "flip"), w)) == length(rd, w)


def test_concurrent_lengths_on_data_sharing_matrices():
    # GL3 and GSp4 have rank 3 and share the matrix swapping the first two
    # coordinates, so GSp4 reads the signs of GL3's entry off its matrix
    gsp4 = DATA[5]
    swap = iwahori_generators(GL3)[1]
    assert swap.finite in {s.finite for s in iwahori_generators(gsp4)}
    cases = [(rd, mul(translation_element(lam, rd), swap))
             for rd in (GL3, gsp4) for lam in ((2, -1, 0), (0, 3, 1), (-2, 1, 1))]
    expected = [length(rd, w) for rd, w in cases]
    uncached = length.__wrapped__
    wrong = []

    def work(offset):
        for k in range(3000):
            i = (k + offset) % len(cases)
            if uncached(*cases[i]) != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


# ---------------------------------------------------------------------------
# sigma is applied to elements, never multiplied into them


def _flip(preset, n):
    rd = build_root_datum({"preset": preset, "n": n})
    return rd, sigma_from_name(rd, "flip")


W0_ONLY_CASES = [
    (*_flip("GL", 3), [(1, 0, 0), (1, 1, 0)]),
    (*_flip("GL", 4), [(1, 1, 0, 0)]),
    (*_flip("GL", 5), [(1, 0, 0, 0, 0)]),
    (*_flip("SL", 4), [(1, 0, 1)]),
    (*_flip("PGL", 4), [(1, 0, 0)]),
    (GL2_X_GL2, FACTOR_SWAP, [(1, 0, 1, 0), (1, 0, 0, 0)]),
    (GL2_CUBED, FACTOR_CYCLE, [(1, 0, 1, 0, 1, 0), (1, 0, 0, 0, 0, 0)]),
]


@pytest.mark.parametrize("rd,sigma,mus", W0_ONLY_CASES, ids=["GL3", "GL4", "GL5", "SL4", "PGL4", "GL2xGL2-swap", "GL2^3-cycle"])
def test_the_intern_table_holds_only_finite_weyl_matrices(rd, sigma, mus):
    # every library path that meets sigma makes S u S^-1 an entry of rd's
    # context and returns no plain matrix: never S or a product u S; one datum
    # per run, as the flip of GL3 is the longest element of SL4's W_0
    affweyl.clear_caches()
    ctx = affine_weyl._context(rd)
    returned = []
    for mu in mus:
        for c in straight_classes(mu, rd, sigma):
            returned += [c.representative, *c.members]
        for b in b_set(mu, rd, sigma):
            try:
                returned += [x.element for x in components_bound_report(mu, b, rd, sigma).witnesses]
            except NotMinusculeError:
                # SL4 is simply connected, so its one minuscule coweight is 0
                assert rd.type_label == "SL4"
        for w in adm(mu, rd).elements:
            newton_point(rd, sigma, w)
            is_straight(rd, sigma, w)
            returned += [w, sigma_apply(sigma, w)]
    assert returned and all(w._u.ctx is ctx for w in returned)
    # the entries of every context made on the way
    keys = {u.matrix for ctx in affine_weyl._CONTEXTS.values() for u in ctx.entries.values()}
    # the oracle: W_0, by breadth-first search over the finite simple reflections
    reflections = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)]
    assert keys <= {u.finite for u in word_length_map(rd, gens=reflections)}
    assert sigma.matrix not in keys
