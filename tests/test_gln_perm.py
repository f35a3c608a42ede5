import itertools
import random

import pytest

from affweyl import cli, gln_perm
from affweyl.admissible import AdmissibleSet, adm
from affweyl.affine_weyl import (
    AffineWeylElement,
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
from affweyl.gln_perm import PermError, adm_eq_perm_check, is_permissible, perm_set
from affweyl.notation import format_element
from affweyl.root_datum import build_root_datum

GL2 = build_root_datum({"preset": "GL", "n": 2})
GL3 = build_root_datum({"preset": "GL", "n": 3})
GSP4 = build_root_datum({"preset": "GSp", "n": 4})


def _rd(preset, n):
    return build_root_datum({"preset": preset, "n": n})


# ---------------------------------------------------------------------------
# GL(n) reference: affine-permutation windows, enumerated independently.
# t_lambda u is the periodic bijection i -> u(i) + n * lambda_u(i) of the
# integers, recorded on 1..n; permissibility is read off the standard chain
# vertices (1^j, 0^(n-j)) by coordinate checks, valid for minuscule mu.


def _window(w):
    n = len(w.translation)
    rows = [next(r for r in range(n) if w.finite[r][i] == 1) for i in range(n)]
    return tuple(r + 1 + n * w.translation[r] for r in rows)


def _from_window(window):
    n = len(window)
    lam = [0] * n
    mat = [[0] * n for _ in range(n)]
    for i, p in enumerate(window):
        r = (p - 1) % n
        lam[r] = (p - 1 - r) // n
        mat[r][i] = 1
    return AffineWeylElement(tuple(lam), tuple(tuple(row) for row in mat))


def _at(window, i):
    n = len(window)
    q, r = divmod(i - 1, n)
    return window[r] + q * n


def _compose(p, q):
    return tuple(_at(p, _at(q, i)) for i in range(1, len(p) + 1))


def _inversions(p):
    """Affine inversions: pairs i in 1..n, j > i with p(i) > p(j)."""
    n = len(p)
    spread = (max(p) - min(p)) // n + 2
    return sum(
        1 for i in range(1, n + 1) for j in range(i + 1, i + 1 + n * spread) if _at(p, i) > _at(p, j)
    )


def _reference_perm_set(n, r):
    """Perm((1^r, 0^(n-r))) over all windows with lambda a 0/1 vector of sum r."""
    out = set()
    for ones in itertools.combinations(range(n), r):
        lam = tuple(1 if k in ones else 0 for k in range(n))
        for perm in itertools.permutations(range(1, n + 1)):
            w = _from_window(tuple(perm[i] + n * lam[perm[i] - 1] for i in range(n)))
            if all(_chain_condition(w, j, r) for j in range(n)):
                out.add(w)
    return out


def _chain_condition(w, j, r):
    vertex = tuple(1 if k < j else 0 for k in range(len(w.translation)))
    moved = tuple(
        lam + sum(a * b for a, b in zip(row, vertex)) - v
        for lam, row, v in zip(w.translation, w.finite, vertex)
    )
    return all(x in (0, 1) for x in moved) and sum(moved) == r


def _minuscule(n, r):
    return tuple(1 if k < r else 0 for k in range(n))


def test_identity_window():
    assert _window(identity_element(GL3)) == (1, 2, 3)


def test_pinned_translation_window():
    p = _window(translation_element((1, 0), GL2))
    assert p == (3, 2)
    assert _inversions(p) == 1


def _random_element(rd, rng, steps):
    gens = iwahori_generators(rd)
    w = identity_element(rd)
    for _ in range(rng.randrange(0, steps)):
        w = mul(w, gens[rng.randrange(len(gens))])
    return w


def test_roundtrip_random_elements():
    rng = random.Random(0)
    for _ in range(100):
        w = mul(_random_element(GL3, rng, 6), omega_rep(GL3, tuple(rng.randint(-1, 2) for _ in range(3))))
        assert _from_window(_window(w)) == w


def test_dictionary_is_a_homomorphism():
    rng = random.Random(1)
    for _ in range(40):
        v, w = _random_element(GL3, rng, 5), _random_element(GL3, rng, 5)
        assert _window(mul(v, w)) == _compose(_window(v), _window(w))


def test_length_equals_affine_inversions():
    for rd, n, radius in [(GL2, 2, 4), (GL3, 3, 4)]:
        for w, d in word_length_map(rd, radius).items():
            assert _inversions(_window(w)) == d
        tau = omega_rep(rd, tuple([1] + [0] * (n - 1)))
        for w, d in list(word_length_map(rd, 3).items()):
            assert _inversions(_window(mul(w, tau))) == d


def test_perm_set_matches_window_reference():
    for n in (2, 3, 4, 5):
        rd = _rd("GL", n)
        for r in range(n + 1):
            assert set(perm_set(_minuscule(n, r), rd)) == _reference_perm_set(n, r), (n, r)


# ---------------------------------------------------------------------------
# The datum-general test


def test_permissibility_examples():
    mu = (1, 0)
    for lam in ((1, 0), (0, 1)):
        assert is_permissible(translation_element(lam, GL2), mu, GL2)
    assert is_permissible(omega_part(GL2, translation_element((1, 0), GL2)), mu, GL2)
    assert not is_permissible(translation_element((2, -1), GL2), mu, GL2)
    assert not is_permissible(identity_element(GL2), mu, GL2)


def test_perm_set_counts():
    assert len(perm_set((1, 0), GL2)) == 3
    assert len(perm_set((1, 0, 0), GL3)) == 7
    assert len(perm_set((1, 1, 1), GL3)) == 1


def test_perm_set_members_have_constant_shift():
    assert {sum(w.translation) for w in perm_set((1, 1, 0), GL3)} == {2}


def test_perm_set_is_in_adm_order():
    for rd, mu in [(_rd("GL", 4), (1, 1, 0, 0)), (GSP4, (2, 1, 1))]:
        assert perm_set(mu, rd) == adm(mu, rd).elements


def test_is_permissible_agrees_with_perm_set():
    for rd, mu in [(GL3, (1, 0, 0)), (GL3, (2, 1, 0)), (GSP4, (1, 1, 1)), (_rd("SL", 3), (1, 1)), (_rd("PGL", 3), (1, 0))]:
        members = set(perm_set(mu, rd))
        ball = word_length_map(rd, 4)
        shifts = {omega_rep(rd, v) for v in itertools.product((-1, 0, 1), repeat=rd.rank)}
        checked = {mul(w, tau) for w in ball for tau in shifts}
        assert members <= checked
        assert {w for w in checked if is_permissible(w, mu, rd)} == members, (rd.type_label, mu)


def test_permissibility_invariant_under_omega_conjugation():
    for rd, mu in [(GL3, (1, 0, 0)), (_rd("GL", 4), (2, 1, 1, 0)), (GSP4, (2, 1, 1)), (_rd("PGL", 4), (1, 0, 0))]:
        members = set(perm_set(mu, rd))
        for v in itertools.product((0, 1), repeat=rd.rank):
            tau = omega_rep(rd, v)
            assert length(rd, tau) == 0
            assert {mul(mul(tau, w), inv(tau)) for w in members} == members


def test_product_datum_is_a_product_of_factors():
    # a product of alcoves needs no sum vertices: each component's conditions see only its summand
    gl2_x_gl2 = build_root_datum(
        {"rank": 4, "simple_roots": [[1, -1, 0, 0], [0, 0, 1, -1]], "simple_coroots": [[1, -1, 0, 0], [0, 0, 1, -1]]}
    )
    assert len(perm_set((2, 0, 1, 0), gl2_x_gl2)) == len(perm_set((2, 0), GL2)) * len(perm_set((1, 0), GL2))
    gl2_x_gsp4 = build_root_datum(
        {
            "rank": 5,
            "simple_roots": [[1, -1, 0, 0, 0], *([0, 0, *r] for r in GSP4.simple_roots)],
            "simple_coroots": [[1, -1, 0, 0, 0], *([0, 0, *c] for c in GSP4.simple_coroots)],
        }
    )
    assert len(perm_set((1, 0, 1, 1, 1), gl2_x_gsp4)) == len(perm_set((1, 0), GL2)) * len(perm_set((1, 1, 1), GSP4))


# The adm-ladder entries of the benchmark
LADDER = [
    ("GL", 4, (1, 1, 0, 0)),
    ("GL", 5, (1, 1, 0, 0, 0)),
    ("SL", 4, (1, 0, 1)),
    ("GSp", 4, (2, 1, 1)),
    ("GSp", 6, (1, 1, 1, 1)),
    ("PGL", 4, (1, 0, 0)),
    ("GL", 5, (2, 1, 1, 1, 0)),
]


def test_adm_contained_in_perm_on_the_ladder():
    # Haines-Ngo 2002: Adm(mu) is contained in Perm(mu) for every datum and mu
    for preset, n, mu in LADDER:
        rd = _rd(preset, n)
        assert set(adm(mu, rd).elements) <= set(perm_set(mu, rd)), (preset, n, mu)


def test_adm_equals_perm_small():
    for n in (2, 3, 4):
        rd = _rd("GL", n)
        for r in range(n + 1):
            report = adm_eq_perm_check(n, _minuscule(n, r), rd)
            assert report.equal, (n, r, report)
            assert report.adm_size == report.perm_size


@pytest.mark.parametrize(
    "preset, n, mu, size",
    [
        # Kottwitz-Rapoport 2000: GSp_2n with its minuscule coweight
        ("GSp", 4, (1, 1, 1), 13),
        ("GSp", 6, (1, 1, 1, 1), 79),
        # Haines-Ngo 2002: GL_n with every mu
        ("GL", 3, (2, 1, 0), 25),
        ("GL", 4, (2, 1, 1, 0), 105),
        ("GL", 5, (2, 1, 1, 1, 0), 401),
    ],
)
def test_adm_equals_perm_where_proved(preset, n, mu, size):
    rd = _rd(preset, n)
    report = adm_eq_perm_check(rd.rank, mu, rd)
    assert report.equal and report.adm_size == report.perm_size == size


def test_non_minuscule_gl_is_compared():
    report = adm_eq_perm_check(2, (2, 0), GL2)
    assert report.equal and report.perm_size == len(adm((2, 0), GL2))


def test_wrong_preset_is_rejected():
    with pytest.raises(PermError):
        adm_eq_perm_check(2, (1, 0, 0), GL3)
    with pytest.raises(PermError):
        adm_eq_perm_check(4, (1, 1, 1), GSP4)


def test_planted_adm_member_is_reported(monkeypatch, capsys):
    mu = (1, 0, 0)
    real = adm(mu, GL3)
    planted = translation_element((2, -1, 0), GL3)
    assert not is_permissible(planted, mu, GL3)
    fake = AdmissibleSet(real.mu, real.elements + (planted,), real.level, real.cover_edges)
    monkeypatch.setattr(gln_perm, "adm", lambda m, rd: fake)
    report = adm_eq_perm_check(3, mu, GL3)
    assert not report.equal
    assert report.only_in_adm == (planted,) and report.only_in_perm == ()
    assert cli.main(["perm-check", "--n", "3", "--mu", "1,0,0"]) == 1
    assert format_element(GL3, planted) in capsys.readouterr().out
