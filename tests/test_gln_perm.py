import random

import pytest

from affweyl.admissible import adm
from affweyl.affine_weyl import (
    identity_element,
    inv,
    iwahori_generators,
    length,
    mul,
    omega_part,
    omega_rep,
    translation_element,
    word_length_map,
)
from affweyl.gln_perm import (
    AffinePermutation,
    NotMinusculeGLError,
    PermError,
    adm_eq_perm_check,
    chain_rotation,
    compose,
    from_affine_perm,
    inversion_count,
    is_permissible,
    perm_set,
    to_affine_perm,
)
from affweyl.root_datum import build_root_datum

GL2 = build_root_datum({"preset": "GL", "n": 2})
GL3 = build_root_datum({"preset": "GL", "n": 3})
GSP4 = build_root_datum({"preset": "GSp", "n": 4})


def test_window_validation():
    with pytest.raises(PermError):
        AffinePermutation((1, 1))
    with pytest.raises(PermError):
        AffinePermutation((2, 1, 3, 3))
    AffinePermutation((3, 2))


def test_identity_window():
    assert to_affine_perm(identity_element(GL3), GL3, 3).window == (1, 2, 3)


def test_pinned_translation_window():
    p = to_affine_perm(translation_element((1, 0), GL2), GL2, 2)
    assert p.window == (3, 2)
    assert p.shift == 1
    assert inversion_count(p) == 1


def test_roundtrip_random_elements():
    rng = random.Random(0)
    gens = iwahori_generators(GL3)
    for _ in range(100):
        w = identity_element(GL3)
        for _ in range(rng.randrange(0, 6)):
            w = mul(w, gens[rng.randrange(len(gens))])
        w = mul(w, omega_rep(GL3, tuple(rng.randint(-1, 2) for _ in range(3))))
        assert from_affine_perm(to_affine_perm(w, GL3, 3), GL3) == w


def test_dictionary_is_a_homomorphism():
    rng = random.Random(1)
    gens = iwahori_generators(GL3)
    for _ in range(40):
        v = identity_element(GL3)
        w = identity_element(GL3)
        for _ in range(rng.randrange(0, 5)):
            v = mul(v, gens[rng.randrange(len(gens))])
            w = mul(w, gens[rng.randrange(len(gens))])
        assert to_affine_perm(mul(v, w), GL3, 3) == compose(
            to_affine_perm(v, GL3, 3), to_affine_perm(w, GL3, 3)
        )


def test_length_equals_affine_inversions():
    for rd, n, radius in [(GL2, 2, 4), (GL3, 3, 4)]:
        for w, d in word_length_map(rd, radius).items():
            assert inversion_count(to_affine_perm(w, rd, n)) == d
        tau = omega_rep(rd, tuple([1] + [0] * (n - 1)))
        for w, d in list(word_length_map(rd, 3).items()):
            assert inversion_count(to_affine_perm(mul(w, tau), rd, n)) == d


def test_wrong_preset_is_rejected():
    with pytest.raises(PermError):
        to_affine_perm(identity_element(GSP4), GSP4, 4)
    with pytest.raises(PermError):
        to_affine_perm(identity_element(GL3), GL3, 2)


def test_permissibility_examples():
    mu = (1, 0)
    for lam in ((1, 0), (0, 1)):
        assert is_permissible(to_affine_perm(translation_element(lam, GL2), GL2, 2), mu, GL2)
    tau = omega_part(GL2, translation_element((1, 0), GL2))
    assert is_permissible(to_affine_perm(tau, GL2, 2), mu, GL2)
    assert not is_permissible(
        to_affine_perm(translation_element((2, -1), GL2), GL2, 2), mu, GL2
    )
    assert not is_permissible(to_affine_perm(identity_element(GL2), GL2, 2), mu, GL2)


def test_perm_set_counts():
    assert len(perm_set(2, (1, 0), GL2)) == 3
    assert len(perm_set(3, (1, 0, 0), GL3)) == 7
    assert len(perm_set(3, (1, 1, 1), GL3)) == 1


def test_non_minuscule_is_refused():
    with pytest.raises(NotMinusculeGLError):
        perm_set(2, (2, 0), GL2)
    with pytest.raises(NotMinusculeGLError):
        is_permissible(AffinePermutation((3, 2)), (2, 0), GL2)


def test_adm_equals_perm_small():
    for n in (2, 3, 4):
        rd = build_root_datum({"preset": "GL", "n": n})
        for r in range(n + 1):
            mu = tuple(1 if k < r else 0 for k in range(n))
            report = adm_eq_perm_check(n, mu, rd)
            assert report.equal, (n, r, report)
            assert report.adm_size == report.perm_size


def test_permissibility_invariant_under_chain_rotation():
    rot = chain_rotation(GL3, 3)
    assert length(GL3, rot) == 0
    mu = (1, 0, 0)
    for w in adm(mu, GL3).elements:
        conj = mul(mul(rot, w), inv(rot))
        assert is_permissible(to_affine_perm(conj, GL3, 3), mu, GL3) == is_permissible(
            to_affine_perm(w, GL3, 3), mu, GL3
        )


def test_perm_set_members_have_constant_shift():
    for p in perm_set(3, (1, 1, 0), GL3):
        assert p.shift == 2
