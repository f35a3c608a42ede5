import importlib
import json
import pkgutil
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import affweyl
from affweyl import admissible, affine_weyl, linalg
from affweyl.admissible import (
    AdmissibleSet,
    _lower_covers,
    adm,
    adm_K,
    adm_by_exhaustion,
    is_admissible,
    kr_poset,
    tau,
)
from affweyl.affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    ParahoricLevel,
    bruhat_leq,
    bruhat_leq_subword_oracle,
    double_coset_rep,
    element_sort_key,
    finite_reflection,
    identity_element,
    inv,
    iwahori_generators,
    kottwitz,
    length,
    make_level,
    mul,
    omega_part,
    omega_rep,
    reduced_word,
    reflection_matrix,
    sigma_apply,
    sigma_from_name,
    sigma_identity,
    translation_element,
    word_length_map as enumerate_ball,
)
from affweyl.notation import format_element, parse_element
from affweyl.oracles import run_oracle_suite
from affweyl.root_datum import build_root_datum, dominant_rep, pairing, weyl_orbit
from affweyl.gln_perm import adm_eq_perm_check, is_permissible, perm_set
from affweyl.straight_newton import b_set, basic_point, components_bound_report, mu_bar, straight_classes
from test_affine_weyl import A1_X_C2
from test_levi import B2, G2
from test_linalg import hasse_by_cubic_scan


GL2 = build_root_datum({"preset": "GL", "n": 2})
GL3 = build_root_datum({"preset": "GL", "n": 3})
GL4 = build_root_datum({"preset": "GL", "n": 4})
GSP4 = build_root_datum({"preset": "GSp", "n": 4})


def test_gl2_pinned_set():
    aset = adm((1, 0), GL2)
    names = {format_element(GL2, w) for w in aset.elements}
    assert names == {"t[1,0]*s1", "t[0,1]", "t[1,0]"}
    assert aset.cover_edges == ((0, 1), (0, 2))
    assert format_element(GL2, tau((1, 0), GL2)) == "t[1,0]*s1"


def test_tau_properties():
    for rd, mu in [(GL2, (1, 0)), (GL3, (1, 1, 0)), (GSP4, (1, 1, 1))]:
        t = tau(mu, rd)
        assert length(rd, t) == 0
        assert kottwitz(rd, t) == kottwitz(rd, translation_element(dominant_rep(mu, rd)[0], rd))
        aset = adm(mu, rd)
        assert t in set(aset.elements)
        assert all(bruhat_leq(rd, t, w) for w in aset.elements)


def test_tau_of_central_mu_is_translation():
    assert tau((1, 1), GL2) == translation_element((1, 1), GL2)
    assert adm((1, 1), GL2).elements == (translation_element((1, 1), GL2),)


def test_drinfeld_cardinalities_match_exhaustion():
    for n in (2, 3, 4):
        rd = build_root_datum({"preset": "GL", "n": n})
        mu = tuple([1] + [0] * (n - 1))
        fast = set(adm(mu, rd).elements)
        assert fast == adm_by_exhaustion(mu, rd)
        assert len(fast) == 2**n - 1


def test_pinned_sizes():
    assert len(adm((1, 1, 0), GL3)) == 7
    assert len(adm((1, 1, 0, 0), GL4)) == 33
    assert len(adm((1, 1, 1), GSP4)) == 13


def test_closure_matches_exhaustion_beyond_drinfeld():
    assert set(adm((1, 1, 0, 0), GL4).elements) == adm_by_exhaustion((1, 1, 0, 0), GL4)
    assert set(adm((1, 1, 1), GSP4).elements) == adm_by_exhaustion((1, 1, 1), GSP4)


def test_unique_length_zero_element():
    for rd, mu in [(GL2, (1, 0)), (GL3, (1, 0, 0)), (GL4, (1, 1, 0, 0)), (GSP4, (1, 1, 1))]:
        zero = [w for w in adm(mu, rd).elements if length(rd, w) == 0]
        assert zero == [tau(mu, rd)]


def test_maximal_elements_are_the_orbit_translations():
    for rd, mu in [(GL3, (1, 1, 0)), (GSP4, (1, 1, 1)), (GL2, (2, 0))]:
        aset = adm(mu, rd)
        elements = set(aset.elements)
        tops = {
            w
            for w in elements
            if not any(v != w and bruhat_leq(rd, w, v) for v in elements)
        }
        mu_dom = dominant_rep(mu, rd)[0]
        orbit = {translation_element(lam, rd) for lam in weyl_orbit(mu_dom, rd)}
        assert tops == orbit
        top_len = length(rd, translation_element(mu_dom, rd))
        assert all(length(rd, w) == top_len for w in tops)


def test_is_admissible_examples():
    assert is_admissible(translation_element((0, 1), GL2), (1, 0), GL2)
    assert not is_admissible(finite_reflection(GL2, 0), (1, 0), GL2)
    assert not is_admissible(translation_element((2, -1), GL2), (1, 0), GL2)


def test_kappa_constant_on_adm():
    for rd, mu in [(GL3, (1, 0, 0)), (GSP4, (1, 1, 1))]:
        aset = adm(mu, rd)
        kappas = {kottwitz(rd, w) for w in aset.elements}
        assert kappas == {kottwitz(rd, translation_element(dominant_rep(mu, rd)[0], rd))}


def test_downward_closure_in_kappa_fiber():
    for rd, mu, radius in [(GL2, (1, 0), 3), (GL3, (1, 0, 0), 3)]:
        aset = set(adm(mu, rd).elements)
        om = omega_part(rd, translation_element(dominant_rep(mu, rd)[0], rd))
        for w_a in enumerate_ball(rd, radius):
            v = mul(w_a, om)
            if any(bruhat_leq(rd, v, w) for w in aset):
                assert v in aset


def test_non_minuscule_mu():
    aset = adm((2, 0), GL2)
    assert set(aset.elements) == adm_by_exhaustion((2, 0), GL2)
    assert len(aset) == 5
    assert length(GL2, translation_element((2, 0), GL2)) == 2
    zero = [w for w in aset.elements if length(GL2, w) == 0]
    assert zero == [translation_element((1, 1), GL2)]


def test_adm_K_iwahori_is_identity():
    mu = (1, 0, 0)
    assert set(adm_K(mu, GL3, ParahoricLevel.iwahori())) == set(adm(mu, GL3).elements)


def test_adm_K_hyperspecial_gl2():
    level = make_level(GL2, [1])
    reps = adm_K((1, 0), GL2, level)
    assert len(reps) == 1
    assert reps[0] == tau((1, 0), GL2)


def test_adm_K_size_bound_and_surjectivity():
    from affweyl.affine_weyl import double_coset_rep

    for rd, mu, gens in [(GL3, (1, 0, 0), [1]), (GL3, (1, 1, 0), [1, 2]), (GSP4, (1, 1, 1), [2])]:
        level = make_level(rd, gens)
        reps = set(adm_K(mu, rd, level))
        full = adm(mu, rd).elements
        assert len(reps) <= len(full)
        assert {double_coset_rep(rd, w, level) for w in full} == reps


def test_kr_poset_gl2():
    poset = kr_poset((1, 0), GL2, ParahoricLevel.iwahori())
    assert len(poset.nodes) == 3
    assert poset.ranks[poset.bottom] == 0
    assert poset.edges == ((0, 1), (0, 2))
    tops = {i for i in range(3) if not any(a == i for a, _ in poset.edges)}
    assert tops == {1, 2}


def test_kr_poset_central_single_node():
    poset = kr_poset((1, 1), GL2, ParahoricLevel.iwahori())
    assert len(poset.nodes) == 1
    assert poset.edges == ()


def test_kr_poset_node_count_matches_adm_K():
    level = make_level(GL3, [1])
    poset = kr_poset((1, 0, 0), GL3, level)
    assert len(poset.nodes) == len(adm_K((1, 0, 0), GL3, level))


# levels whose W_K is infinite on GL2: made on GL3, or built without make_level
_FOREIGN_LEVELS = {"made-on-GL3": make_level(GL3, [0, 1]), "built-directly": ParahoricLevel((0, 1))}
_LEVEL_ENTRY_POINTS = {
    "adm_K": lambda level: adm_K((1, 0), GL2, level),
    "kr_poset": lambda level: kr_poset((1, 0), GL2, level),
    "double_coset_rep": lambda level: double_coset_rep(GL2, tau((1, 0), GL2), level),
}


@pytest.mark.parametrize("level", _FOREIGN_LEVELS.values(), ids=_FOREIGN_LEVELS)
@pytest.mark.parametrize("entry", _LEVEL_ENTRY_POINTS.values(), ids=_LEVEL_ENTRY_POINTS)
def test_a_level_is_checked_against_the_datum_it_is_used_with(entry, level):
    # the message make_level(GL2, [0, 1]) raises, not a one-node answer
    with pytest.raises(AffineWeylError, match="every node of an affine component"):
        make_level(GL2, level.generators)
    with pytest.raises(AffineWeylError, match="every node of an affine component"):
        entry(level)


def test_sigma_stability_under_flip():
    flip = sigma_from_name(GL4, "flip")
    mu = (1, 1, 0, 0)
    image = {sigma_apply(flip, w) for w in adm(mu, GL4).elements}
    mu_image = dominant_rep(linalg.mat_vec(flip.matrix, mu), GL4)[0]
    assert mu_image == (0, 0, -1, -1)
    assert image == set(adm(mu_image, GL4).elements)


def test_sigma_fixed_mu_fixes_adm():
    flip = sigma_from_name(GL4, "flip")
    mu = (1, 0, 0, -1)
    assert dominant_rep(linalg.mat_vec(flip.matrix, mu), GL4)[0] == mu
    aset = set(adm(mu, GL4).elements)
    assert {sigma_apply(flip, w) for w in aset} == aset


COVER_DATA = [
    build_root_datum({"preset": "GSp", "n": 4}),
    build_root_datum({"preset": "PGL", "n": 3}),
    build_root_datum({"preset": "SL", "n": 3}),
    GL3,
]
COVER_BALLS = [enumerate_ball(rd, 6) for rd in COVER_DATA]


@st.composite
def _word_times_omega(draw):
    k = draw(st.integers(0, len(COVER_DATA) - 1))
    rd = COVER_DATA[k]
    gens = iwahori_generators(rd)
    w = identity_element(rd)
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
        w = mul(w, gens[i])
    shift = draw(st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank))
    return k, mul(w, omega_rep(rd, shift))


@settings(max_examples=150)
@given(_word_times_omega())
def test_lower_covers_match_subword_oracle(case):
    k, w = case
    rd = COVER_DATA[k]
    om = omega_part(rd, w)
    lw = length(rd, w)
    expected = {
        v
        for v in (mul(b, om) for b, lb in COVER_BALLS[k].items() if lb == lw - 1)
        if bruhat_leq_subword_oracle(rd, v, w)
    }
    assert _lower_covers(rd, w) == expected


def _deletion_covers(rd, w):
    """Reference: the one-letter deletions of w's greedy reduced word that have length l(w) - 1.

    For a reduced word s_1..s_l omega of w, the l products with one letter
    deleted are the elements wt for the reflections t with l(wt) < l(w), and
    the lower covers of w are those of length l(w) - 1 (Bjorner-Brenti,
    Thm 1.4.3 and Cor 1.4.4).
    """
    letters, omega = reduced_word(rd, w)
    gens = iwahori_generators(rd)
    # suffix[j] is the product of letters[j:] times omega
    suffix = [omega]
    for i in reversed(letters):
        suffix.append(mul(gens[i], suffix[-1]))
    suffix.reverse()
    out = set()
    prefix = identity_element(rd)
    for j, i in enumerate(letters):
        v = mul(prefix, suffix[j + 1])
        if length(rd, v) == len(letters) - 1:
            out.add(v)
        prefix = mul(prefix, gens[i])
    return out


def _far_hyperplane_dropped(rd, w):
    """_lower_covers without s_(b,k) w for the k at the w(A) end of each range: k = d if d > 0, d + 1 if d < 0."""
    far = set()
    for root, coroot in zip(rd.positive_roots, rd.positive_coroots):
        # u^-1(b) is the covector b u; it is negative when it is not a positive root
        d = pairing(w.translation, root) - (linalg.vec_mat(root, w.finite) not in rd.positive_roots)
        if d:
            k = d if d > 0 else d + 1
            far.add(mul(AffineWeylElement(tuple(k * c for c in coroot), reflection_matrix(root, coroot)), w))
    return _lower_covers(rd, w) - far


# roots and coroots differ on GSp, B2 and G2, which catch a transposed pairing that GL, SL and PGL do not
GSP6 = build_root_datum({"preset": "GSp", "n": 6})
DELETION_CASES = [
    (GL4, (1, 1, 0, 0)),
    (build_root_datum({"preset": "GL", "n": 5}), (2, 1, 0, 0, 0)),
    (GSP6, (1, 1, 1, 1)),
    (GSP6, (2, 1, 0, 1)),
    (build_root_datum({"preset": "SL", "n": 4}), (1, 0, 1)),
    (build_root_datum({"preset": "PGL", "n": 4}), (1, 0, 0)),
    (B2, (2, 2)),
    (B2, (2, 1)),
    (G2, (2, 3)),
    (G2, (1, 2)),
]
_over_deletion_cases = pytest.mark.parametrize(
    "rd,mu", DELETION_CASES, ids=[f"{rd.type_label}-{mu}" for rd, mu in DELETION_CASES]
)


def _deletion_mismatches(rd, elements):
    """The elements whose lower covers admissible._lower_covers and the deletion rule disagree on."""
    return [w for w in elements if admissible._lower_covers(rd, w) != _deletion_covers(rd, w)]


@_over_deletion_cases
def test_hyperplane_covers_match_the_deletion_rule(rd, mu):
    assert not _deletion_mismatches(rd, adm(mu, rd).elements)


@_over_deletion_cases
def test_negative_control_a_dropped_far_hyperplane_is_caught(monkeypatch, rd, mu):
    elements = adm(mu, rd).elements
    monkeypatch.setattr(admissible, "_lower_covers", _far_hyperplane_dropped)
    assert _deletion_mismatches(rd, elements)
    with pytest.raises(AffineWeylError, match="non-member"):
        adm.__wrapped__(mu, rd)


def _positive_hyperplanes_dropped(rd, w):
    """_lower_covers without s_(b,k) w for every k > 0: the covers across a hyperplane on the far side of A."""
    dropped = set()
    for root, coroot in zip(rd.positive_roots, rd.positive_coroots):
        d = pairing(w.translation, root) - (linalg.vec_mat(root, w.finite) not in rd.positive_roots)
        for k in range(1, d + 1):
            dropped.add(mul(AffineWeylElement(tuple(k * c for c in coroot), reflection_matrix(root, coroot)), w))
    return _lower_covers(rd, w) - dropped


@pytest.mark.parametrize("preset,n,mu", [("GL", 4, (1, 1, 0, 0)), ("GSp", 4, (1, 1, 1)), ("SL", 4, (1, 0, 1))])
def test_negative_control_lost_cover_edges_are_caught(monkeypatch, preset, n, mu):
    # the lost edges leave the elements right: every cover lies inside and every
    # non-maximal element keeps an upper cover, so only the edge check sees the loss
    rd = build_root_datum({"preset": preset, "n": n})
    aset = adm(mu, rd)
    members = set(aset.elements)
    kept = {w: _positive_hyperplanes_dropped(rd, w) for w in aset.elements}
    assert all(below <= members for below in kept.values())
    maximal = {translation_element(lam, rd) for lam in weyl_orbit(aset.mu, rd)}
    assert set().union(*kept.values()) | maximal == members
    assert sum(map(len, kept.values())) < len(aset.cover_edges)
    monkeypatch.setattr(admissible, "_lower_covers", _positive_hyperplanes_dropped)
    with pytest.raises(AffineWeylError, match="length-2 interval of the cover edges does not have two middle elements"):
        adm.__wrapped__(mu, rd)


def _pairwise_cover_edges(rd, elements):
    lengths = [length(rd, w) for w in elements]
    return tuple(sorted(
        (i, j)
        for j, w in enumerate(elements)
        for i, v in enumerate(elements)
        if lengths[i] == lengths[j] - 1 and bruhat_leq(rd, v, w)
    ))


@pytest.mark.parametrize(
    "preset,n,mu",
    [("GL", 4, (1, 1, 0, 0)), ("PGL", 4, (1, 0, 0)), ("GSp", 4, (2, 1, 1)), ("SL", 4, (1, 0, 1))],
)
def test_cover_edges_match_pairwise_scan(preset, n, mu):
    rd = build_root_datum({"preset": preset, "n": n})
    aset = adm(mu, rd)
    assert aset.cover_edges == _pairwise_cover_edges(rd, aset.elements)


def _kr_poset_by_pairwise_scan(mu, rd, level):
    """Reference: reps by double_coset_rep, order by a pairwise bruhat_leq matrix."""
    reps = {double_coset_rep(rd, w, level) for w in adm(mu, rd).elements}
    nodes = tuple(sorted(reps, key=lambda w: element_sort_key(rd, w)))
    edges, bottoms = hasse_by_cubic_scan([[bruhat_leq(rd, v, w) for w in nodes] for v in nodes])
    return nodes, tuple(length(rd, w) for w in nodes), edges, bottoms


KR_CASES = [
    ("GL", 4, (1, 1, 0, 0), [1]),
    ("GL", 4, (1, 1, 0, 0), [0, 2]),
    ("GL", 4, (1, 1, 0, 0), []),
    ("SL", 4, (1, 0, 1), [1]),
    ("SL", 4, (1, 0, 1), [2, 3]),
    ("GSp", 4, (2, 1, 1), [1]),
    ("GSp", 4, (1, 1, 1), [0, 2]),
    ("PGL", 4, (1, 0, 0), [1]),
    ("PGL", 4, (1, 0, 0), [0, 1]),
    ("GL", 3, (2, 1, 0), [0]),
]


@pytest.mark.parametrize("preset,n,mu,gens", KR_CASES)
def test_kr_poset_matches_pairwise_scan(preset, n, mu, gens):
    rd = build_root_datum({"preset": preset, "n": n})
    level = make_level(rd, gens)
    poset = kr_poset(mu, rd, level)
    nodes, ranks, edges, bottoms = _kr_poset_by_pairwise_scan(mu, rd, level)
    assert (poset.nodes, poset.ranks, poset.edges, (poset.bottom,)) == (nodes, ranks, edges, bottoms)


def test_kr_poset_sees_a_dropped_cover_edge(monkeypatch):
    mu, level = (1, 1, 0, 0), make_level(GL4, [1])
    aset = adm(mu, GL4)
    before = kr_poset(mu, GL4, level)
    position = {w: a for a, w in enumerate(before.nodes)}
    # the last cover edge between two nodes; it is above the bottom, so one remains
    i, j = [(i, j) for i, j in aset.cover_edges if {aset.elements[i], aset.elements[j]} <= position.keys()][-1]
    pair = (position[aset.elements[i]], position[aset.elements[j]])
    assert pair in before.edges and pair[0] != before.bottom
    edges = tuple(e for e in aset.cover_edges if e != (i, j))
    monkeypatch.setattr(admissible, "adm", lambda mu, rd: AdmissibleSet(aset.mu, aset.elements, aset.level, edges))
    after = kr_poset(mu, GL4, level)
    assert after.nodes == before.nodes
    assert pair not in after.edges


def test_kr_poset_makes_no_pairwise_calls():
    watched = {bruhat_leq.__code__, double_coset_rep.__code__}
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen.append(frame.f_code.co_name)

    adm.cache_clear()  # so that kr_poset's own call to adm does its work as well
    sys.setprofile(profile)
    try:
        for preset, n, mu, gens in KR_CASES:
            rd = build_root_datum({"preset": preset, "n": n})
            kr_poset(mu, rd, make_level(rd, gens))
    finally:
        sys.setprofile(None)
    assert seen == []


def test_adm_K_builds_no_product():
    # adm_K reads both descent masks in K; it multiplies nothing out
    cases = [(build_root_datum({"preset": preset, "n": n}), mu, gens) for preset, n, mu, gens in KR_CASES]
    for rd, mu, gens in cases:
        adm(mu, rd)
    watched = {mul.__code__, affine_weyl._product.__code__}
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for rd, mu, gens in cases:
            adm_K(mu, rd, make_level(rd, gens))
    finally:
        sys.setprofile(None)
    assert seen == []


def test_parahoric_path_takes_no_inverse():
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is inv.__code__:
            seen.append(frame.f_back.f_code.co_name)

    adm.cache_clear()  # so that kr_poset's own call to adm does its work as well
    sys.setprofile(profile)
    try:
        for preset, n, mu, gens in KR_CASES:
            rd = build_root_datum({"preset": preset, "n": n})
            level = make_level(rd, gens)
            kr_poset(mu, rd, level)
            adm_K(mu, rd, level)
            for w in adm(mu, rd).elements:
                double_coset_rep(rd, w, level)
    finally:
        sys.setprofile(None)
    assert seen == []


def _edit_closure(monkeypatch, edit):
    original = admissible._subword_closure
    monkeypatch.setattr(admissible, "_subword_closure", lambda rd, w: edit(original(rd, w)))


def test_planted_translation_is_refused(monkeypatch):
    intruder = translation_element((2, -1), GL2)
    assert kottwitz(GL2, intruder) == kottwitz(GL2, translation_element((1, 0), GL2))
    _edit_closure(monkeypatch, lambda s: s | {intruder})
    with pytest.raises(AffineWeylError):
        adm.__wrapped__((1, 0), GL2)


def test_planted_non_member_above_members_is_refused(monkeypatch):
    # a length-2 element of tau's coset outside Adm: all its lower covers are members
    mu = (1, 0, 0)
    members = set(adm(mu, GL3).elements)
    t = tau(mu, GL3)
    intruder = next(
        v
        for v in (mul(b, t) for b, lb in enumerate_ball(GL3, 2).items() if lb == 2)
        if v not in members
    )
    assert _lower_covers(GL3, intruder) <= members
    _edit_closure(monkeypatch, lambda s: s | {intruder})
    with pytest.raises(AffineWeylError, match="non-member"):
        adm.__wrapped__(mu, GL3)


def test_dropped_member_is_refused(monkeypatch):
    # the closure is saturated under Omega, so the victim's whole orbit is dropped
    mu = (1, 0, 0)
    victim = next(w for w in adm(mu, GL3).elements if length(GL3, w) == 1)
    omega = omega_rep(GL3, (1, 0, 0))
    orbit = {victim, mul(mul(omega, victim), inv(omega)), mul(mul(inv(omega), victim), omega)}
    assert len(orbit) == 3
    _edit_closure(monkeypatch, lambda s: s - orbit)
    with pytest.raises(AffineWeylError, match="missed a lower cover"):
        adm.__wrapped__(mu, GL3)


def test_non_automorphism_conjugation_is_refused(monkeypatch):
    s1 = finite_reflection(GL3, 0)
    monkeypatch.setattr(admissible, "_omega_conjugations", lambda rd, sections: ((s1, s1),))
    with pytest.raises(AffineWeylError):
        adm.__wrapped__((1, 0, 0), GL3)


def test_conjugation_helper_checks_the_generators(monkeypatch):
    monkeypatch.setattr(admissible, "omega_rep", lambda rd, lam: finite_reflection(rd, 0))
    with pytest.raises(AffineWeylError, match="permute the affine simple reflections"):
        admissible._omega_conjugations(GL3, linalg.identity_matrix(3))


def _cover_edges_one_by_one(rd, elements):
    """Reference: the lower covers of every element computed directly."""
    index = {w: i for i, w in enumerate(elements)}
    return tuple(sorted((index[v], j) for j, w in enumerate(elements) for v in _lower_covers(rd, w)))


def _preset_datum(group):
    preset = group.rstrip("0123456789")
    return build_root_datum({"preset": preset, "n": int(group[len(preset):])})


_WORKLOADS = json.loads((Path(__file__).parent.parent / "perfbench" / "workloads.json").read_text())
TRANSPORT_CASES = [
    (f"{name}:{entry['name']}", _preset_datum(entry["group"]), tuple(entry["mu"]))
    for name in ("adm-ladder", "newton")
    for entry in _WORKLOADS[name]["entries"]
] + [
    ("A1xC2", A1_X_C2, (1, 0, 1, 1, 1)),
    (
        "GL2xGL2",
        build_root_datum(
            {"rank": 4, "simple_roots": [[1, -1, 0, 0], [0, 0, 1, -1]], "simple_coroots": [[1, -1, 0, 0], [0, 0, 1, -1]]}
        ),
        (1, 0, 1, 0),
    ),
]


@pytest.mark.parametrize("rd,mu", [case[1:] for case in TRANSPORT_CASES], ids=[case[0] for case in TRANSPORT_CASES])
def test_omega_transport_matches_direct_covers(rd, mu):
    aset = adm(mu, rd)
    elements = set(aset.elements)
    for omega, omega_inv in admissible._omega_conjugations(rd, linalg.identity_matrix(rd.rank)):
        assert {mul(mul(omega, w), omega_inv) for w in aset.elements} == elements
    below = {j: set() for j in range(len(aset))}
    for i, j in aset.cover_edges:
        below[j].add(aset.elements[i])
    for j, w in enumerate(aset.elements):
        assert below[j] == _lower_covers(rd, w)
    assert aset.cover_edges == _cover_edges_one_by_one(rd, aset.elements)


def _package_caches():
    return [
        value
        for name, module in list(sys.modules.items())
        if name.startswith("affweyl.")
        for value in vars(module).values()
        if callable(value) and hasattr(value, "cache_info")
    ]


def test_memo_tables_stay_counted():
    # a new memo table must replace one: count them with every module loaded
    for info in pkgutil.iter_modules(affweyl.__path__, affweyl.__name__ + "."):
        importlib.import_module(info.name)
    assert len({id(f) for f in _package_caches()}) <= 8


def test_clear_caches_empties_every_memo():
    sigma = sigma_identity(GL3)
    first_adm, first_b = adm((1, 1, 0), GL3), b_set((1, 1, 0), GL3, sigma)
    assert any(f.cache_info().currsize for f in _package_caches())
    assert affine_weyl._CONTEXTS and all(ctx.entries for ctx in affine_weyl._CONTEXTS.values())
    affweyl.clear_caches()
    assert all(f.cache_info().currsize == 0 for f in _package_caches())
    assert not affine_weyl._CONTEXTS
    # an element held across the clear keeps a plain matrix, in no table
    assert all(w._u.ctx is None and not w._u.products for w in first_adm.elements)
    assert adm((1, 1, 0), GL3) == first_adm
    assert b_set((1, 1, 0), GL3, sigma) == first_b


MU_ENTRY_POINTS = {
    "adm": lambda mu, b: adm(mu, GL3),
    "straight_classes": lambda mu, b: straight_classes(mu, GL3, sigma_identity(GL3)),
    "b_set": lambda mu, b: b_set(mu, GL3, sigma_identity(GL3)),
    "components_bound_report": lambda mu, b: components_bound_report(mu, b, GL3, sigma_identity(GL3)),
    "kr_poset": lambda mu, b: kr_poset(mu, GL3, make_level(GL3, [1])),
    "adm_K": lambda mu, b: adm_K(mu, GL3, make_level(GL3, [1])),
    "tau": lambda mu, b: tau(mu, GL3),
    "is_admissible": lambda mu, b: is_admissible(identity_element(GL3), mu, GL3),
    "adm_by_exhaustion": lambda mu, b: adm_by_exhaustion(mu, GL3),
    "basic_point": lambda mu, b: basic_point(mu, GL3, sigma_identity(GL3)),
    "mu_bar": lambda mu, b: mu_bar(mu, GL3, sigma_identity(GL3)),
    "perm_set": lambda mu, b: perm_set(mu, GL3),
    "is_permissible": lambda mu, b: is_permissible(identity_element(GL3), mu, GL3),
    "adm_eq_perm_check": lambda mu, b: adm_eq_perm_check(3, mu, GL3),
}


@pytest.mark.parametrize("bad", [(1.5, 0, 0), (True, 0, 0), (1, 0)], ids=repr)
@pytest.mark.parametrize("name", list(MU_ENTRY_POINTS))
def test_entry_points_check_mu_before_their_tables(name, bad):
    # True == 1 with equal hashes: a warm table must not answer for it
    call = MU_ENTRY_POINTS[name]
    b = b_set((1, 0, 0), GL3, sigma_identity(GL3))[0]
    message = re.escape(f"mu {bad!r}")
    affweyl.clear_caches()
    with pytest.raises(AffineWeylError, match=message):
        call(bad, b)
    call((1, 0, 0), b)
    with pytest.raises(AffineWeylError, match=message):
        call(bad, b)


def test_mu_checked_tables_count_once_and_keep_their_bodies():
    for table in (adm, straight_classes):
        assert table.__wrapped__.__code__.co_name == table.__name__
        assert table.cache_info().maxsize is None
    assert adm((1, 0, 0), GL3) is adm([1, 0, 0], GL3)


@pytest.mark.parametrize("name", list(MU_ENTRY_POINTS))
def test_entry_points_answer_alike_for_conjugate_mu(name):
    call = MU_ENTRY_POINTS[name]
    b = b_set((1, 0, 0), GL3, sigma_identity(GL3))[0]
    assert call((0, 0, 1), b) == call((1, 0, 0), b)


def test_conjugate_mu_share_one_table_entry():
    affweyl.clear_caches()
    sigma = sigma_identity(GL3)
    assert adm((0, 1, 0), GL3) is adm((1, 0, 0), GL3)
    assert adm.cache_info().currsize == 1
    assert straight_classes((0, 0, 1), GL3, sigma) is straight_classes((1, 0, 0), GL3, sigma)
    assert straight_classes.cache_info().currsize == 1
    assert adm((0, 1, 0), GL3).mu == (1, 0, 0)


def _newton_run():
    entries = []
    for entry in _WORKLOADS["newton"]["entries"]:
        rd = _preset_datum(entry["group"])
        entries.append((rd, tuple(entry["mu"]), [sigma_from_name(rd, name) for name in entry["sigmas"]]))

    def run():
        for rd, mu, sigmas in entries:
            for sigma in sigmas:
                for b in b_set(mu, rd, sigma):
                    try:
                        components_bound_report(mu, b, rd, sigma)
                    except AffineWeylError:
                        pass  # GL5 under flip refuses one point; pinned in test_straight_newton

    return run


def _adm_ladder_run():
    entries = []
    for entry in _WORKLOADS["adm-ladder"]["entries"]:
        rd = _preset_datum(entry["group"])
        entries.append((rd, tuple(entry["mu"]), make_level(rd, entry["level"])))

    def run():
        for rd, mu, level in entries:
            adm(mu, rd)
            kr_poset(mu, rd, level)

    return run


def _word_query_run():
    rng = random.Random(17)
    queries = []
    for group in _WORKLOADS["word-queries"]["groups"]:
        rd = _preset_datum(group)
        n_gens = rd.semisimple_rank + len(rd.components())
        for _ in range(8):
            lam = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
            word = [rng.randrange(rd.semisimple_rank) for _ in range(8)]
            level = make_level(rd, rng.sample(range(n_gens), 2))
            queries.append((rd, lam, word, rng.getrandbits(64), level))

    def run():
        for rd, lam, word, mask, level in queries:
            gens = iwahori_generators(rd)
            w = translation_element(lam, rd)
            for i in word:
                w = mul(w, gens[len(rd.components()) + i])
            letters, omega = reduced_word(rd, w)
            v = identity_element(rd)
            for k, letter in enumerate(letters):
                if mask >> k & 1:
                    v = mul(v, gens[letter])
            assert bruhat_leq(rd, mul(v, omega), w)
            double_coset_rep(rd, w, level)
            kottwitz(rd, w)
            assert parse_element(rd, format_element(rd, w)) == w

    return run


def _oracle_suite_run():
    def run():
        assert all(result.passed for result in run_oracle_suite())

    return run


@pytest.mark.parametrize(
    "make_run",
    [_newton_run, _adm_ladder_run, _word_query_run, _oracle_suite_run],
    ids=["newton", "adm-ladder", "word-queries", "oracle-suite"],
)
def test_no_library_path_inverts_a_matrix(make_run):
    # a sigma built inside the run eliminates nothing either: its inverse is its last power before 1
    affweyl.clear_caches()
    run = make_run()
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is linalg.mat_inverse.__code__:
            seen.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    assert seen == []
