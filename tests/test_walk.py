"""reduced_word and bruhat_leq walk in wall-pairing coordinates; checked
here against the element route (products of generators, the subword
oracle) on every preset family, including GSp, where <a_i^vee, a_j> is
not symmetric in i and j."""

import copy
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import affweyl
from affweyl import affine_weyl
from affweyl.affine_weyl import (
    AffineWeylError,
    _context,
    bruhat_leq,
    bruhat_leq_subword_oracle,
    identity_element,
    iwahori_generators,
    length,
    mul,
    omega_rep,
    reduced_word,
    translation_element,
    word_length_map,
)
from affweyl.root_datum import build_root_datum, pairing

DATA = [
    build_root_datum({"preset": p, "n": n})
    for p, n in (("GL", 4), ("SL", 3), ("PGL", 3), ("GSp", 4), ("GSp", 6))
]
RADIUS = 4


def _id(rd):
    return rd.type_label


BALLS = {rd: list(word_length_map(rd, RADIUS)) for rd in DATA}


def _rebuilt(rd, letters, omega):
    out = identity_element(rd)
    for i in letters:
        out = mul(out, iwahori_generators(rd)[i])
    return mul(out, omega)


def _walk_agrees(rd, w):
    """Whether the greedy word of w, read through the current _context, rebuilds w with length(w) letters."""
    try:
        letters, omega = reduced_word.__wrapped__(rd, w)
    except AffineWeylError:
        return False
    return len(letters) == length(rd, w) and length(rd, omega) == 0 and _rebuilt(rd, letters, omega) == w


@st.composite
def _pairs(draw):
    """w and v from a radius ball, each times an Omega part; v's part is w's or another."""
    rd = draw(st.sampled_from(DATA))
    ball = BALLS[rd]
    shifts = st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank)
    shift_w = draw(shifts)
    shift_v = draw(st.one_of(st.just(shift_w), shifts))
    w = mul(draw(st.sampled_from(ball)), omega_rep(rd, shift_w))
    v = mul(draw(st.sampled_from(ball)), omega_rep(rd, shift_v))
    return rd, v, w


@settings(max_examples=300)
@given(_pairs())
def test_walk_agrees_with_the_element_route(case):
    rd, v, w = case
    letters, omega = reduced_word(rd, w)
    assert len(letters) == length(rd, w)
    assert _rebuilt(rd, letters, omega) == w
    assert bruhat_leq(rd, v, w) == bruhat_leq_subword_oracle(rd, v, w)


@pytest.mark.parametrize("rd", DATA, ids=_id)
def test_wall_rows_are_the_transposed_cartan_matrix_on_finite_walls(rd):
    # cartan_matrix[i][j] = <a_j^vee, a_i>, and row i of a wall holds <a_i^vee, a_j>
    n_affine = len(rd.components())
    for i, wall in enumerate(_context(rd).walls):
        assert wall.row[i] == 2
        if not wall.affine:
            assert all(wall.row[n_affine + j] == a[i - n_affine] for j, a in enumerate(rd.cartan_matrix))


def _transposed(rd):
    """_context(rd) with <a_j^vee, a_i> in place of <a_i^vee, a_j>: the wrong update of the pairings."""
    mutant = copy.copy(_context(rd))
    mutant.walls = tuple(wall._replace(row=tuple(pairing(other.coroot, wall.root) for other in mutant.walls))
                         for wall in mutant.walls)
    return mutant


@pytest.mark.parametrize("rd", [rd for rd in DATA if rd.type_label.startswith("GSp")], ids=_id)
def test_transposed_rows_are_caught_on_gsp(monkeypatch, rd):
    # negative control; on GL, SL and PGL the wall matrix is symmetric, so there
    # the transposed rows are the same rows and only GSp data tell them apart
    rng = random.Random(5)
    ball = BALLS[rd]
    samples = [mul(rng.choice(ball), omega_rep(rd, [rng.randint(-2, 2) for _ in range(rd.rank)]))
               for _ in range(100)]
    assert all(_walk_agrees(rd, w) for w in samples)
    mutant = _transposed(rd)
    monkeypatch.setattr(affine_weyl, "_context", lambda datum: mutant)
    assert sum(not _walk_agrees(rd, w) for w in samples) > len(samples) // 2


@pytest.mark.parametrize("rd", DATA, ids=_id)
def test_cold_walks_call_no_mul(rd):
    # the walks build an element only at the end; a mul per step would show here first
    rng = random.Random(6)
    gens = iwahori_generators(rd)
    affweyl.clear_caches()
    w = translation_element([rng.randint(-4, 4) for _ in range(rd.rank)], rd)
    for _ in range(8):
        w = mul(w, gens[rng.randrange(len(gens))])
    letters, omega = reduced_word(rd, w)
    v = omega  # every other letter of w's word: a subword, so v <= w
    for i in reversed(letters[::2]):
        v = mul(gens[i], v)
    w2 = mul(gens[rng.randrange(len(gens))], mul(w, gens[rng.randrange(len(gens))]))
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is mul.__code__:
            seen.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        cold_letters, _ = reduced_word(rd, w2)
        below = bruhat_leq(rd, v, w)
    finally:
        sys.setprofile(None)
    assert seen == []
    assert len(cold_letters) == length(rd, w2) > 0
    assert below and 0 < length(rd, v) < len(letters)
