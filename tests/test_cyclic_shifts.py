"""The descent rule that decides the cyclic shifts of the straight-class search.

s_i w sigma(s_i), with sigma(s_i) = s_pi(i), is new and as long as w
exactly when one and only one of s_i (left) and s_pi(i) (right) is a
descent of w.  Every element of a radius-4 ball times a few Omega shifts
is checked against the product itself, on every generator, under id, the
flip where it is defined and a factor swap of GL2 x GL2.
"""

import pytest

from affweyl import straight_newton
from affweyl.affine_weyl import (
    _descents,
    identity_element,
    iwahori_generators,
    length,
    mul,
    omega_rep,
    sigma_apply,
    sigma_from_name,
    sigma_generator_permutation,
    word_length_map,
)
from affweyl.root_datum import build_root_datum
from affweyl.straight_newton import _length_keeping_shifts
from test_affine_weyl import A1_X_C2, FACTOR_SWAP, GL2_X_GL2


def _rd(preset, n):
    return build_root_datum({"preset": preset, "n": n})


# (name, datum, sigma); flip is defined on the type A presets only
CASES = [
    (f"{rd.type_label}-{name}", rd, sigma_from_name(rd, name))
    for rd, names in (
        (_rd("GL", 4), ("id", "flip")),
        (_rd("SL", 3), ("id", "flip")),
        (_rd("PGL", 3), ("id", "flip")),
        (_rd("GSp", 4), ("id",)),
        (_rd("GSp", 6), ("id",)),
    )
    for name in names
] + [
    ("A1xC2-id", A1_X_C2, sigma_from_name(A1_X_C2, "id")),
    ("GL2xGL2-id", GL2_X_GL2, sigma_from_name(GL2_X_GL2, "id")),
    ("GL2xGL2-swap", GL2_X_GL2, FACTOR_SWAP),
]


def _elements(rd):
    """The radius-4 ball of W_a times the length-zero elements of the classes of +-e_k."""
    shifts = {identity_element(rd)}
    for k in range(rd.rank):
        for sign in (1, -1):
            shifts.add(omega_rep(rd, tuple(sign if j == k else 0 for j in range(rd.rank))))
    return [mul(b, omega) for b in word_length_map(rd, radius=4) for omega in shifts]


def _mismatches(rd, sigma, pi, elements):
    """(w, i) where the descent rule or _length_keeping_shifts disagrees with the product,
    and the number of moves the product keeps."""
    gens = iwahori_generators(rd)
    bad, kept_moves = [], 0
    for w in elements:
        lw = length(rd, w)
        shifts = set(_length_keeping_shifts(rd, pi, w))
        left, right = _descents(rd, w)
        for i, s in enumerate(gens):
            moved = mul(mul(s, w), sigma_apply(sigma, s))
            kept = length(rd, moved) == lw and moved != w
            rule = (left >> i & 1) != (right >> pi[i] & 1)
            if not kept == rule == (i in shifts):
                bad.append((w, i))
            kept_moves += kept
    return bad, kept_moves


@pytest.mark.parametrize("name,rd,sigma", CASES, ids=[case[0] for case in CASES])
def test_exactly_one_descent_decides_a_length_keeping_shift(name, rd, sigma):
    elements = _elements(rd)
    bad, kept_moves = _mismatches(rd, sigma, sigma_generator_permutation(rd, sigma), elements)
    assert not bad
    # both outcomes occur
    assert 0 < kept_moves < len(elements) * len(iwahori_generators(rd))


def test_negative_control_the_rule_without_pi_fails_under_flip():
    rd = _rd("GL", 4)
    sigma = sigma_from_name(rd, "flip")
    pi = sigma_generator_permutation(rd, sigma)
    assert pi != tuple(range(len(pi)))
    bad, _ = _mismatches(rd, sigma, range(len(pi)), _elements(rd))
    assert bad


def test_negative_control_swapped_descent_masks_fail(monkeypatch):
    # the search reading left and right descents the wrong way round takes the wrong moves;
    # under id the rule is symmetric in the two sides, so the flip is needed to see it
    rd = _rd("GL", 4)
    sigma = sigma_from_name(rd, "flip")
    monkeypatch.setattr(straight_newton, "_descents", lambda rd, w, indices=None: _descents(rd, w, indices)[::-1])
    bad, _ = _mismatches(rd, sigma, sigma_generator_permutation(rd, sigma), _elements(rd))
    assert bad


def test_factor_swap_exchanges_the_two_components():
    pi = sigma_generator_permutation(GL2_X_GL2, FACTOR_SWAP)
    # affine nodes first, one per component, then the finite simple reflections
    assert pi == (1, 0, 3, 2)
