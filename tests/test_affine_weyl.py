import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from affweyl import affine_weyl
from affweyl.affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    ParahoricLevel,
    _shorten,
    bruhat_leq,
    bruhat_leq_subword_oracle,
    double_coset_rep,
    finite_reflection,
    identity_element,
    inv,
    is_left_descent,
    is_translation,
    iwahori_generators,
    kottwitz,
    length,
    make_level,
    make_sigma,
    mul,
    omega_part,
    omega_rep,
    reduced_word,
    reflection_matrix,
    sigma_apply,
    sigma_from_name,
    sigma_generator_permutation,
    sigma_identity,
    translation_element,
    word_length_map,
)
from affweyl.linalg import solve_rational
from affweyl.root_datum import build_root_datum, dominance_leq, fundamental_group, is_dominant


GL2 = build_root_datum({"preset": "GL", "n": 2})
GL3 = build_root_datum({"preset": "GL", "n": 3})
GL4 = build_root_datum({"preset": "GL", "n": 4})
GSP4 = build_root_datum({"preset": "GSp", "n": 4})


def finite_parahoric_subgroup(rd, level):
    """All of W_K, the oracle for double_coset_rep; make_level keeps it finite."""
    gens = iwahori_generators(rd)
    return set(word_length_map(rd, gens=[gens[i] for i in level.generators]))


def random_element(rd, rng, letters=6, central=1):
    gens = iwahori_generators(rd)
    w = identity_element(rd)
    for _ in range(rng.randrange(0, letters + 1)):
        w = mul(w, gens[rng.randrange(len(gens))])
    shift = tuple(rng.randint(-central, central) for _ in range(rd.rank))
    return mul(w, omega_rep(rd, shift))


def test_translations_commute():
    t10 = translation_element((1, 0), GL2)
    t01 = translation_element((0, 1), GL2)
    assert mul(t10, t01) == translation_element((1, 1), GL2)


def test_simple_reflection_involution():
    s1 = finite_reflection(GL2, 0)
    assert mul(s1, s1) == identity_element(GL2)


def test_inverse_by_multiplication():
    rng = random.Random(0)
    for rd in (GL2, GL3, GSP4):
        for _ in range(25):
            w = random_element(rd, rng)
            assert mul(w, inv(w)) == identity_element(rd)
            assert mul(inv(w), w) == identity_element(rd)


def test_group_law_associative():
    rng = random.Random(1)
    for rd in (GL2, GSP4):
        for _ in range(25):
            a, b, c = (random_element(rd, rng, letters=4) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_rank_mismatch_rejected():
    with pytest.raises(AffineWeylError):
        mul(identity_element(GL2), identity_element(GL3))


@pytest.mark.parametrize(
    "translation,finite",
    [
        ((1, 0), identity_element(GL3).finite),  # zip would truncate: length(GL3, .) read 2
        ((1, 0, 0), ((1, 0, 0), (0, 1, 0))),
        ((1, 0, 0), ((1, 0, 0), (0, 1), (0, 0, 1))),
        ((), ((1,),)),
    ],
)
def test_constructor_refuses_mismatched_shapes(translation, finite):
    with pytest.raises(AffineWeylError, match="must be"):
        AffineWeylElement(translation, finite)


def test_pinned_lengths():
    assert length(GL2, translation_element((1, 0), GL2)) == 1
    assert length(GL2, translation_element((1, 1), GL2)) == 0
    assert length(GL3, translation_element((1, 0, 0), GL3)) == 2


A1_X_C2 = build_root_datum(
    {
        "rank": 5,
        "simple_roots": [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 2, -1]],
        "simple_coroots": [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, 0]],
    }
)
GENERATOR_DATA = (
    [build_root_datum({"preset": "GL", "n": n}) for n in range(1, 8)]
    + [build_root_datum({"preset": p, "n": n}) for p in ("SL", "PGL") for n in range(2, 6)]
    + [build_root_datum({"preset": "GSp", "n": n}) for n in (2, 4, 6, 8)]
    + [A1_X_C2]
)


@pytest.mark.parametrize("rd", GENERATOR_DATA, ids=lambda rd: rd.type_label)
def test_affine_generators_from_simple_root_coefficients(rd):
    affine = []
    for comp in rd.components():
        best = None
        for root, coroot in zip(rd.positive_roots, rd.positive_coroots):
            coeffs = solve_rational(rd.simple_roots, root)
            if any(c for i, c in enumerate(coeffs) if i not in comp):
                continue
            if best is None or sum(coeffs) > best[0]:
                best = (sum(coeffs), root, coroot)
        _, theta, theta_vee = best
        affine.append(AffineWeylElement(theta_vee, reflection_matrix(theta, theta_vee)))
    finite = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)]
    assert iwahori_generators(rd) == tuple(affine + finite)


@st.composite
def _descent_cases(draw):
    """A random word over the affine generators times a random Omega shift."""
    rd = draw(st.sampled_from(GENERATOR_DATA))
    gens = iwahori_generators(rd)
    w = identity_element(rd)
    letters = st.lists(st.integers(0, len(gens) - 1), max_size=10) if gens else st.just([])
    for i in draw(letters):
        w = mul(w, gens[i])
    shift = draw(st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank))
    return rd, mul(w, omega_rep(rd, shift))


def greedy_word_by_lengths(rd, w):
    """The greedy reduced word found by multiplying and comparing lengths."""
    gens = iwahori_generators(rd)
    letters, cur = [], w
    while length(rd, cur) > 0:
        i = next(i for i, s in enumerate(gens) if length(rd, mul(s, cur)) < length(rd, cur))
        letters.append(i)
        cur = mul(gens[i], cur)
    return tuple(letters), cur


@settings(max_examples=200)
@given(_descent_cases())
def test_is_left_descent_matches_lengths(case):
    rd, w = case
    lw = length(rd, w)
    for i, s in enumerate(iwahori_generators(rd)):
        assert is_left_descent(rd, w, i) == (length(rd, mul(s, w)) < lw)
        assert is_left_descent(rd, inv(w), i) == (length(rd, mul(w, s)) < lw)
    assert reduced_word(rd, w) == greedy_word_by_lengths(rd, w)


@pytest.mark.parametrize("i", [-1, 3, 99, 1.5, True])
def test_is_left_descent_refuses_a_generator_index_out_of_range(i):
    # -1 used to answer for the last wall, and 3 or 99 raised a raw IndexError
    w = translation_element((1, 0, -1), GL3)
    with pytest.raises(AffineWeylError, match="out of range|must be an integer"):
        is_left_descent(GL3, w, i)


@pytest.mark.parametrize("i", [-1, 2, True], ids=["negative", "past-the-end", "bool"])
def test_finite_reflection_refuses_a_bad_index(i):
    # -1 used to equal finite_reflection(GL3, 1), and 2 raised a raw IndexError
    with pytest.raises(AffineWeylError, match="out of range|must be an integer"):
        finite_reflection(GL3, i)


@pytest.mark.parametrize("query", [length, reduced_word, lambda rd, w: is_left_descent(rd, w, 0)],
                         ids=["length", "reduced_word", "is_left_descent"])
def test_an_element_of_another_rank_is_refused_by_rank(query):
    w = translation_element((1, 0), GL2)
    with pytest.raises(AffineWeylError, match="rank 2 met a datum of rank 3"):
        query(GL3, w)


def test_length_equals_word_search():
    for rd, radius in [(GL2, 5), (GL3, 4), (GSP4, 4)]:
        for w, d in word_length_map(rd, radius).items():
            assert length(rd, w) == d


def test_length_of_omega_translates():
    dist = word_length_map(GL2, 4)
    tau = omega_rep(GL2, (1, 0))
    for w, d in dist.items():
        assert length(GL2, mul(w, tau)) == d


def test_reduced_word_roundtrip_and_lengths():
    rng = random.Random(2)
    for rd in (GL2, GL3, GSP4):
        assert reduced_word(rd, identity_element(rd)) == ((), identity_element(rd))
        gens = iwahori_generators(rd)
        for _ in range(30):
            w = random_element(rd, rng)
            letters, omega = reduced_word(rd, w)
            assert len(letters) == length(rd, w)
            assert length(rd, omega) == 0
            rebuilt = identity_element(rd)
            for i in letters:
                rebuilt = mul(rebuilt, gens[i])
            assert mul(rebuilt, omega) == w


def test_reduced_word_of_unit_translation():
    letters, omega = reduced_word(GL2, translation_element((1, 0), GL2))
    assert len(letters) == 1
    assert length(GL2, omega) == 0
    assert mul(omega, omega) == translation_element((1, 1), GL2)


def test_bruhat_examples():
    t10 = translation_element((1, 0), GL2)
    t01 = translation_element((0, 1), GL2)
    tau = omega_part(GL2, t10)
    assert bruhat_leq(GL2, tau, t10)
    assert not bruhat_leq(GL2, t10, t01)
    assert not bruhat_leq(GL2, t01, t10)
    assert bruhat_leq(GL2, t10, t10)


def test_bruhat_matches_subword_oracle():
    ball2 = sorted(word_length_map(GL2, 6), key=lambda w: (length(GL2, w), w.translation, w.finite))
    for v in ball2:
        for w in ball2:
            assert bruhat_leq(GL2, v, w) == bruhat_leq_subword_oracle(GL2, v, w)
    rng = random.Random(3)
    ball3 = list(word_length_map(GL3, 4))
    pairs = [(v, w) for v in ball3 for w in ball3]
    rng.shuffle(pairs)
    for v, w in pairs[:500]:
        assert bruhat_leq(GL3, v, w) == bruhat_leq_subword_oracle(GL3, v, w)


@pytest.mark.parametrize("preset,n", [("GSp", 4), ("PGL", 3), ("SL", 3)])
def test_bruhat_matches_subword_oracle_across_omega_cosets(preset, n):
    rd = build_root_datum({"preset": preset, "n": n})
    rng = random.Random(4)
    ball = list(word_length_map(rd, 4))
    shifts = [omega_rep(rd, [rng.randint(-2, 2) for _ in range(rd.rank)]) for _ in range(4)]
    elements = [mul(w, rng.choice(shifts)) for w in ball]
    pairs = [(v, w) for v in elements for w in elements]
    rng.shuffle(pairs)
    for v, w in pairs[:300]:
        assert bruhat_leq(rd, v, w) == bruhat_leq_subword_oracle(rd, v, w), (v, w)


@pytest.mark.parametrize(
    "rd,lam,mu,expected",
    [
        (GL3, (999, 1, 0), (1000, 0, 0), True),
        (GL3, (1000, 0, 0), (999, 1, 0), False),
        (GL4, (300, 1, 0, 0), (301, 0, 0, 0), True),
    ],
)
def test_bruhat_on_long_translations(rd, lam, mu, expected):
    got = bruhat_leq(rd, translation_element(lam, rd), translation_element(mu, rd))
    assert got == expected == dominance_leq(lam, mu, rd)


def test_bruhat_needs_equal_omega_part():
    t10 = translation_element((1, 0), GL2)
    t20 = translation_element((2, 0), GL2)
    assert not bruhat_leq(GL2, t10, t20)
    assert not bruhat_leq(GL2, identity_element(GL2), t10)


def test_kottwitz_values():
    t10 = translation_element((1, 0), GL2)
    assert kottwitz(GL2, t10) == (1,)
    for i in range(len(iwahori_generators(GL2))):
        assert kottwitz(GL2, iwahori_generators(GL2)[i]) == (0,)
    assert kottwitz(GL2, omega_part(GL2, t10)) == (1,)


def test_kottwitz_is_homomorphism_constant_on_wa_cosets():
    rng = random.Random(4)
    pi1 = fundamental_group(GL3)
    for _ in range(30):
        v = random_element(GL3, rng)
        w = random_element(GL3, rng)
        assert kottwitz(GL3, mul(v, w)) == pi1.add(kottwitz(GL3, v), kottwitz(GL3, w))
        for g in iwahori_generators(GL3):
            assert kottwitz(GL3, mul(v, g)) == kottwitz(GL3, v)


def test_translation_bruhat_vs_dominance_on_dominant_pairs():
    for rd in (GL2, GL3, GSP4):
        doms = [
            v
            for v in itertools.product(range(-2, 3), repeat=rd.rank)
            if is_dominant(v, rd)
        ]
        rng = random.Random(5)
        pairs = [(a, b) for a in doms for b in doms]
        rng.shuffle(pairs)
        for lam, mu in pairs[:300]:
            lhs = bruhat_leq(rd, translation_element(lam, rd), translation_element(mu, rd))
            assert lhs == dominance_leq(lam, mu, rd, integral=True)


def test_length_subadditive_and_translation_homogeneous():
    rng = random.Random(6)
    for rd in (GL2, GSP4):
        for _ in range(30):
            v = random_element(rd, rng, letters=5)
            w = random_element(rd, rng, letters=5)
            assert length(rd, mul(v, w)) <= length(rd, v) + length(rd, w)
        for lam in itertools.product(range(0, 3), repeat=rd.rank):
            if not is_dominant(lam, rd):
                continue
            base = length(rd, translation_element(lam, rd))
            for n in range(1, 5):
                scaled = tuple(n * x for x in lam)
                assert length(rd, translation_element(scaled, rd)) == n * base


def test_omega_conjugation_preserves_length_and_generators():
    for rd in (GL2, GL3):
        tau = omega_rep(rd, tuple([1] + [0] * (rd.rank - 1)))
        gens = set(iwahori_generators(rd))
        for g in gens:
            conj = mul(mul(tau, g), inv(tau))
            assert conj in gens
        rng = random.Random(7)
        for _ in range(20):
            w = random_element(rd, rng)
            assert length(rd, mul(mul(tau, w), inv(tau))) == length(rd, w)


def test_sigma_identity_fixes_everything():
    sid = sigma_identity(GL3)
    rng = random.Random(8)
    for _ in range(10):
        w = random_element(GL3, rng)
        assert sigma_apply(sid, w) == w


def test_gl4_flip_action():
    flip = sigma_from_name(GL4, "flip")
    assert flip.order == 2
    t = translation_element((1, 0, 0, 0), GL4)
    image = sigma_apply(flip, t)
    assert image == translation_element((0, 0, 0, -1), GL4)
    assert length(GL4, image) == length(GL4, t)


def test_sigma_is_homomorphism_preserving_length():
    flip = sigma_from_name(GL4, "flip")
    rng = random.Random(9)
    for _ in range(25):
        v = random_element(GL4, rng, letters=4)
        w = random_element(GL4, rng, letters=4)
        assert sigma_apply(flip, mul(v, w)) == mul(sigma_apply(flip, v), sigma_apply(flip, w))
        assert length(GL4, sigma_apply(flip, v)) == length(GL4, v)
        assert sigma_apply(flip, sigma_apply(flip, v)) == v


def test_sigma_permutes_generators():
    flip = sigma_from_name(GL4, "flip")
    perm = sigma_generator_permutation(GL4, flip)
    assert sorted(perm) == list(range(len(iwahori_generators(GL4))))
    # the finite diagram is reversed: s1 <-> s3, s2 fixed
    assert perm[2] == 2
    assert perm[1] == 3 and perm[3] == 1


def test_make_sigma_rejects_non_automorphism():
    # plain coordinate reversal sends simple coroots to negatives
    n = 4
    reversal = [[1 if j == n - 1 - i else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(AffineWeylError):
        make_sigma(GL4, reversal)
    with pytest.raises(AffineWeylError):
        sigma_from_name(GSP4, "flip")


def test_level_validation():
    with pytest.raises(AffineWeylError):
        make_level(GL2, [0, 1])  # the whole affine component
    flip = sigma_from_name(GL4, "flip")
    with pytest.raises(AffineWeylError):
        make_level(GL4, [1], flip)  # s1 maps to s3
    make_level(GL4, [2], flip)
    make_level(GL4, [1, 3], flip)


def test_double_coset_reps():
    t10 = translation_element((1, 0), GL2)
    assert double_coset_rep(GL2, t10, ParahoricLevel.iwahori()) == t10
    level = make_level(GL2, [1])
    s1 = finite_reflection(GL2, 0)
    assert double_coset_rep(GL2, s1, level) == identity_element(GL2)
    rep = double_coset_rep(GL2, t10, level)
    assert length(GL2, rep) <= 1
    assert bruhat_leq(GL2, rep, t10)
    # oracle: enumerate the whole double coset W_K t W_K
    wk = finite_parahoric_subgroup(GL2, level)
    coset = {mul(mul(a, t10), b) for a in wk for b in wk}
    assert rep in coset
    assert min(length(GL2, x) for x in coset) == length(GL2, rep)
    assert double_coset_rep(GL2, rep, level) == rep


def test_translation_normal_form():
    rng = random.Random(10)
    for _ in range(20):
        w = random_element(GL3, rng)
        assert is_translation(w, GL3) == (w.finite == identity_element(GL3).finite)


def test_kottwitz_surjective_onto_pi1():
    for rd in (GL3, GSP4):
        pi1 = fundamental_group(rd)
        # the standard basis generates X_*(T), so its images generate pi_1
        for i in range(rd.rank):
            basis = tuple(int(j == i) for j in range(rd.rank))
            target = pi1.project(basis)
            assert kottwitz(rd, omega_rep(rd, basis)) == target
            assert length(rd, omega_rep(rd, basis)) == 0


COSET_DATA = [GL3, GSP4, build_root_datum({"preset": "SL", "n": 3}), build_root_datum({"preset": "PGL", "n": 3})]


@st.composite
def _coset_specs(draw):
    """Plain (rd, lam, letters, shift, indices); _coset_case builds the element."""
    rd = draw(st.sampled_from(COSET_DATA))
    n_gens = rd.semisimple_rank + len(rd.components())
    lam = draw(st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank))
    letters = draw(st.lists(st.integers(0, n_gens - 1), max_size=6))
    shift = draw(st.lists(st.integers(-1, 1), min_size=rd.rank, max_size=rd.rank))
    # each datum is irreducible, so any proper subset of the affine nodes is a valid level
    indices = draw(st.sets(st.integers(0, n_gens - 1), max_size=n_gens - 1))
    return rd, lam, letters, shift, indices


def _coset_case(rd, lam, letters, shift, indices):
    """(rd, omega_rep(shift) t_lam s_letters, K): built in the test, so a fault in mul fails the test."""
    gens = iwahori_generators(rd)
    w = translation_element(lam, rd)
    for i in letters:
        w = mul(w, gens[i])
    return rd, mul(omega_rep(rd, shift), w), make_level(rd, indices)


@settings(max_examples=60)
@given(_coset_specs())
def test_double_coset_rep_is_the_unique_shortest_element(spec):
    rd, w, level = _coset_case(*spec)
    wk = finite_parahoric_subgroup(rd, level)
    coset = {mul(mul(u, w), v) for u in wk for v in wk}
    rep = double_coset_rep(rd, w, level)
    assert rep in coset
    shortest = min(length(rd, x) for x in coset)
    assert [x for x in coset if length(rd, x) == shortest] == [rep]


SL3, PGL3 = COSET_DATA[2], COSET_DATA[3]


@settings(max_examples=60)
@given(_coset_specs())
# levels holding the affine node 0 on SL3 and PGL3, minimal and not
@example((SL3, (0, 0), [1, 0], (0, 0), [0, 2]))
@example((SL3, (0, 0), [1], (0, 0), [0, 2]))
@example((SL3, (0, 0), [0, 1, 2, 0], (0, 0), [0, 1]))
@example((PGL3, (0, 0), [2, 0, 1], (1, 0), [0, 1]))
@example((PGL3, (0, 0), [0, 2], (0, 1), [0]))
def test_shorten_is_none_exactly_at_the_shortest_element(spec):
    rd, w, level = _coset_case(*spec)
    wk = finite_parahoric_subgroup(rd, level)
    coset = {mul(mul(u, w), v) for u in wk for v in wk}
    shorter = _shorten(rd, w, level)
    if length(rd, w) == min(length(rd, x) for x in coset):
        assert shorter is None
    else:
        assert shorter in coset
        assert length(rd, shorter) == length(rd, w) - 1


def test_double_coset_rep_refuses_a_step_that_does_not_shorten(monkeypatch):
    # a wrong descent read would otherwise lengthen w for ever
    lam = translation_element((1, 0, -1), GL3)
    monkeypatch.setattr(affine_weyl, "_shorten", lambda rd, w, level: mul(w, lam))
    with pytest.raises(AffineWeylError, match="did not shorten"):
        double_coset_rep(GL3, identity_element(GL3), make_level(GL3, [1]))


@st.composite
def _bruhat_pairs(draw):
    """w a word times an Omega part; v a subword of it times the same or another Omega part."""
    rd = draw(st.sampled_from(COSET_DATA))
    gens = iwahori_generators(rd)
    letters = draw(st.lists(st.integers(0, len(gens) - 1), max_size=6))
    kept = draw(st.lists(st.booleans(), min_size=len(letters), max_size=len(letters)))
    shifts = st.lists(st.integers(-1, 1), min_size=rd.rank, max_size=rd.rank)
    shift_w = draw(shifts)
    shift_v = draw(st.one_of(st.just(shift_w), shifts))
    v, w = identity_element(rd), identity_element(rd)
    for i, keep in zip(letters, kept):
        w = mul(w, gens[i])
        if keep:
            v = mul(v, gens[i])
    return rd, mul(v, omega_rep(rd, shift_v)), mul(w, omega_rep(rd, shift_w))


@settings(max_examples=200)
@given(_bruhat_pairs())
def test_bruhat_leq_matches_subword_oracle_property(case):
    rd, v, w = case
    assert bruhat_leq(rd, v, w) == bruhat_leq_subword_oracle(rd, v, w)


@pytest.mark.parametrize("rd", GENERATOR_DATA, ids=lambda rd: rd.type_label)
def test_root_index_gives_each_root_its_position_and_sign(rd):
    index = rd._root_index
    assert len(index) == 2 * len(rd.positive_roots)
    for k, root in enumerate(rd.positive_roots):
        assert index[root] == k
        assert index[tuple(-x for x in root)] == ~k


NON_INTEGERS = [1.5, Fraction(1, 2), "1", True]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_entry_points_refuse_non_integers(bad):
    # int() would turn each of these into 1 or 0 and go on with another input
    with pytest.raises(AffineWeylError, match="must be an integer"):
        translation_element((bad, 0, 0), GL3)
    with pytest.raises(AffineWeylError, match="must be an integer"):
        make_level(GL3, [bad])
    with pytest.raises(AffineWeylError, match="must be an integer"):
        make_sigma(GL2, [[bad, 0], [0, 1]])


def test_entry_points_still_take_ints():
    assert translation_element((1, 0, -2), GL3).translation == (1, 0, -2)
    assert make_level(GL3, [2, 1]).generators == (1, 2)
    assert make_sigma(GL2, [[1, 0], [0, 1]]) == sigma_identity(GL2)


def test_make_sigma_refuses_a_compatible_matrix_that_is_not_invertible():
    # it fixes the simple coroot (1, -1) and its root, but its determinant is 3
    with pytest.raises(AffineWeylError, match="not invertible"):
        make_sigma(GL2, [[2, 1], [1, 2]])
