"""straight_classes against a plain copy of the class search.

The reference below seeds with the twisted-power length rule
l(power) = m l(w), twists by omega and omega^-1 for every fixed-class
lattice generator (duplicates and omega = 1 included), recomputes every
inverse and sigma-twist per element, and calls newton_point for every
element of every component.  The library's search must give the same
classes, field by field, and He's criterion must agree with the length
rule on every element of Adm(mu).

On all of these entries the omega twists never change the classes: the
simple-reflection moves already connect them.  So whether the search
applies its twists at all is checked by planting a twist that leaves the
straight elements, which the search must refuse.  The search conjugates
by the generators _omega_conjugations keeps; they must generate the same
permutations of the affine simple reflections as conjugation by every
reference omega and omega^-1, each of which sigma fixes.
"""

import pytest

from affweyl import straight_newton
from affweyl.admissible import _omega_conjugations, adm
from affweyl.affine_weyl import (
    element_sort_key,
    identity_element,
    inv,
    iwahori_generators,
    length,
    mul,
    omega_rep,
    sigma_apply,
    sigma_from_name,
)
from affweyl.linalg import identity_matrix
from affweyl.root_datum import build_root_datum
from affweyl.straight_newton import (
    ConsistencyError,
    _fixed_class_lattice_generators,
    is_straight,
    levi_datum,
    newton_point,
    straight_classes,
    twisted_power,
)

CASES = [
    ("GL", 6, (1, 0, 0, 0, 0, 0), "id"),
    ("GL", 6, (1, 0, 0, 0, 0, 0), "flip"),
    ("GL", 5, (1, 1, 0, 0, 0), "flip"),
    ("GSp", 6, (1, 1, 1, 1), "id"),
    ("PGL", 4, (1, 0, 0), "id"),
    ("GL", 3, (1, 0, 0), "id"),
    ("GL", 3, (1, 1, 0), "id"),
    ("GL", 3, (2, 1, 0), "id"),
    ("GL", 4, (1, 1, 0, 0), "id"),
    ("GL", 4, (1, 0, 0, -1), "id"),
    ("GL", 4, (1, 0, 0, -1), "flip"),
]


def _case_id(case):
    preset, n, mu, sigma_name = case
    return f"{preset}{n}-{','.join(map(str, mu))}-{sigma_name}"


def _case(preset, n, mu, sigma_name):
    rd = build_root_datum({"preset": preset, "n": n})
    return rd, mu, sigma_from_name(rd, sigma_name)


def straight_by_length(rd, sigma, w):
    m, power = twisted_power(rd, sigma, w)
    return length(rd, power) == m * length(rd, w)


def reference_omegas(rd, sigma):
    """omega and omega^-1 for every fixed-class lattice generator."""
    omegas = []
    for section in _fixed_class_lattice_generators(rd, sigma):
        om = omega_rep(rd, section)
        omegas += [om, inv(om)]
    return omegas


def reference_classes(mu, rd, sigma):
    """(representative, Newton point, nu_raw, members, Levi, members' slopes) per class."""
    adm_set = set(adm(mu, rd).elements)
    key = lambda w: element_sort_key(rd, w)
    seeds = sorted((w for w in adm_set if straight_by_length(rd, sigma, w)), key=key)
    gens = iwahori_generators(rd)
    omegas = reference_omegas(rd, sigma)
    seen = set()
    out = []
    for seed in seeds:
        if seed in seen:
            continue
        comp = {seed}
        frontier = [seed]
        while frontier:
            w = frontier.pop()
            lw = length(rd, w)
            cands = [mul(mul(s, w), sigma_apply(sigma, s)) for s in gens]
            cands = [c for c in cands if length(rd, c) == lw]
            cands += [mul(mul(inv(om), w), sigma_apply(sigma, om)) for om in omegas]
            for c in cands:
                if c not in comp:
                    comp.add(c)
                    frontier.append(c)
        seen |= comp
        members = tuple(sorted(comp & adm_set, key=key))
        nu_raw, point = newton_point(rd, sigma, members[0])
        assert {newton_point(rd, sigma, w)[1] for w in comp} == {point}
        slopes = tuple(newton_point(rd, sigma, w)[0] for w in members)
        out.append((members[0], point, nu_raw, members, levi_datum(nu_raw, rd), slopes))
    return sorted(out, key=lambda c: c[1].nu)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_straight_classes_match_the_reference_search(case):
    rd, mu, sigma = _case(*case)
    got = [
        (c.representative, c.newton, c.nu_raw, c.members, c.levi, c.member_nu_raw)
        for c in straight_classes(mu, rd, sigma)
    ]
    assert got == reference_classes(mu, rd, sigma)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_he_criterion_matches_the_length_rule_on_adm(case):
    rd, mu, sigma = _case(*case)
    elements = adm(mu, rd).elements
    straight = [w for w in elements if is_straight(rd, sigma, w)]
    assert straight == [w for w in elements if straight_by_length(rd, sigma, w)]
    assert straight


def _search_conjugations(rd, sigma):
    return _omega_conjugations(rd, _fixed_class_lattice_generators(rd, sigma))


def _generated_group(perms, size):
    """The permutation group the perms generate, as a set of tuples."""
    group = {tuple(range(size))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for p in perms:
            h = tuple(p[i] for i in g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_omega_moves_are_the_distinct_nontrivial_twists(case):
    # up to the group they generate: the kept conjugations act as every reference omega and omega^-1 do
    rd, _, sigma = _case(*case)
    gens = iwahori_generators(rd)

    def conjugation(om):
        om_inv = inv(om)
        return tuple(gens.index(mul(mul(om, s), om_inv)) for s in gens)

    one = identity_element(rd)
    distinct = {om for om in reference_omegas(rd, sigma) if om != one}
    # the twist omega^-1 w sigma(omega) of the reference is conjugation by omega^-1
    assert all(sigma_apply(sigma, om) == om for om in distinct)
    kept = _search_conjugations(rd, sigma)
    assert all(omega_inv == inv(omega) and omega in distinct for omega, omega_inv in kept)
    assert _generated_group([conjugation(om) for om, _ in kept], len(gens)) == _generated_group(
        [conjugation(om) for om in distinct], len(gens)
    )


def test_omega_move_counts_on_the_benchmark_data():
    counts = []
    for preset, n, sigma_name in [
        ("GL", 6, "id"), ("GL", 6, "flip"), ("GL", 7, "id"),
        ("GL", 5, "flip"), ("GSp", 6, "id"), ("PGL", 4, "id"),
    ]:
        rd = build_root_datum({"preset": preset, "n": n})
        counts.append(len(_search_conjugations(rd, sigma_from_name(rd, sigma_name))))
    assert counts == [1, 0, 1, 0, 1, 1]


# data outside CASES: on each CASES entry straight_classes checks sigma(omega) = omega itself
@pytest.mark.parametrize(
    "preset,n,sigma_name,count",
    [("PGL", 5, "id", 1), ("PGL", 6, "id", 1), ("PGL", 4, "flip", 1), ("PGL", 6, "flip", 1),
     ("GL", 4, "flip", 0), ("SL", 4, "flip", 0)],
)
def test_sigma_fixes_every_kept_generator(preset, n, sigma_name, count):
    rd = build_root_datum({"preset": preset, "n": n})
    sigma = sigma_from_name(rd, sigma_name)
    kept = _search_conjugations(rd, sigma)
    assert len(kept) == count
    assert all(sigma_apply(sigma, omega) == omega for omega, _ in kept)


def test_class_search_refuses_a_generator_sigma_moves(monkeypatch):
    # the unit cocharacters of GL4 give tau, whose class the flip negates:
    # sigma(tau) = tau^-1, so conjugation by tau is no twist of the search
    rd, mu, sigma = _case("GL", 4, (1, 0, 0, -1), "flip")
    ((tau, tau_inv),) = _omega_conjugations(rd, identity_matrix(rd.rank))
    assert sigma_apply(sigma, tau) == tau_inv != tau
    monkeypatch.setattr(straight_newton, "_fixed_class_lattice_generators", lambda rd, sigma: identity_matrix(rd.rank))
    with pytest.raises(ConsistencyError, match="sigma moves a length-zero element"):
        straight_classes.__wrapped__(mu, rd, sigma)


@pytest.mark.parametrize("case", [CASES[0], CASES[3], CASES[4]], ids=_case_id)
def test_class_search_applies_its_omega_moves(case, monkeypatch):
    # w -> w s with s the last simple reflection changes the length, so a
    # search that applies this planted twist leaves the straight elements
    # or merges two Newton points
    rd, mu, sigma = _case(*case)
    planted = ((identity_element(rd), iwahori_generators(rd)[-1]),)
    monkeypatch.setattr(straight_newton, "_omega_conjugations", lambda rd, sections: planted)
    with pytest.raises(ConsistencyError):
        straight_classes.__wrapped__(mu, rd, sigma)
