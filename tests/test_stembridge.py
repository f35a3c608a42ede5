import itertools
from fractions import Fraction

import pytest

from affweyl import stembridge
from affweyl.root_datum import (
    build_root_datum,
    dominance_leq,
    fundamental_group,
    is_dominant,
    pairing,
    weyl_orbit,
)
from affweyl.stembridge import (
    ChainPreconditionError,
    DominanceError,
    KappaMismatchError,
    NotDominantError,
    LiftConsistencyError,
    NotMinusculeError,
    is_minuscule,
    minuscule_lift,
    stembridge_chain,
)

GL2 = build_root_datum({"preset": "GL", "n": 2})
GL3 = build_root_datum({"preset": "GL", "n": 3})
GL4 = build_root_datum({"preset": "GL", "n": 4})
GSP4 = build_root_datum({"preset": "GSp", "n": 4})


def test_single_simple_step():
    chain = stembridge_chain((1, 1), (2, 0), GL2)
    assert chain.steps == ((1, -1),)
    assert chain.intermediates == ((1, 1),)


def test_gl3_needs_the_highest_coroot():
    mu, lam = (2, 1, 0), (1, 1, 1)
    for cv in GL3.simple_coroots:
        first = tuple(a - b for a, b in zip(mu, cv))
        assert not is_dominant(first, GL3)
    chain = stembridge_chain(lam, mu, GL3)
    assert chain.steps == ((1, 0, -1),)


def test_identity_chain_is_empty():
    chain = stembridge_chain((1, 0), (1, 0), GL2)
    assert chain.steps == ()


def test_typed_precondition_errors():
    with pytest.raises(KappaMismatchError):
        stembridge_chain((2, 0), (1, 0), GL2)
    with pytest.raises(DominanceError):
        stembridge_chain((2, -1), (1, 0), GL2)
    with pytest.raises(NotDominantError):
        stembridge_chain((0, 1), (1, 0), GL2)
    with pytest.raises(NotDominantError):
        stembridge_chain((1, 1), (0, 2), GL2)


def test_chain_prefixes_dominant_and_heights_add():
    mu, lam = (3, 1, 0), (2, 2, 0)
    chain = stembridge_chain(lam, mu, GL3)
    cur = mu
    for cv in chain.steps:
        cur = tuple(a - b for a, b in zip(cur, cv))
        assert is_dominant(cur, GL3)
    assert cur == lam
    total = sum(GL3.coroot_height(cv) for cv in chain.steps)
    assert total == GL3.coroot_height(tuple(a - b for a, b in zip(mu, lam)))


def test_long_chain_is_found_without_recursion():
    mu, lam = (1500, 0, 0), (500, 500, 500)
    chain = stembridge_chain(lam, mu, GL3)
    cur = mu
    for cv, point in zip(chain.steps, chain.intermediates):
        cur = tuple(a - b for a, b in zip(cur, cv))
        assert cur == point and is_dominant(cur, GL3)
    assert cur == lam
    assert len(chain.steps) >= 1000
    total = sum(GL3.coroot_height(cv) for cv in chain.steps)
    assert total == GL3.coroot_height(tuple(a - b for a, b in zip(mu, lam)))


@pytest.mark.parametrize("rd,bound", [(GL2, 3), (GL3, 3), (GSP4, 3)])
def test_chain_exists_iff_preconditions(rd, bound):
    pi1 = fundamental_group(rd)
    doms = [
        v
        for v in itertools.product(range(0, bound + 1), repeat=rd.rank)
        if is_dominant(v, rd)
    ]
    for lam in doms:
        for mu in doms:
            expected = pi1.project(lam) == pi1.project(mu) and dominance_leq(lam, mu, rd)
            try:
                chain = stembridge_chain(lam, mu, rd)
                got = True
            except ChainPreconditionError:
                got = False
            assert got == expected, (lam, mu)
            if got:
                cur = mu
                for cv in chain.steps:
                    cur = tuple(a - b for a, b in zip(cur, cv))
                    assert is_dominant(cur, rd)
                assert cur == lam


def test_is_minuscule():
    assert is_minuscule((1, 0), GL2)
    assert is_minuscule((1, 1, 0, 0), GL4)
    assert not is_minuscule((2, 0), GL2)
    assert not is_minuscule((2, 1, 0), GL3)
    assert is_minuscule((1, 1, 1), GSP4)


def test_lift_single_reflection():
    lift = minuscule_lift((0, 1), (1, 0), GL2)
    assert lift.value == (0, 1)
    assert lift.chain_coroots == ((1, -1),)
    assert lift.intermediates == ((0, 1),)


def test_lift_two_step_chain():
    lift = minuscule_lift((0, 1, 1, 0), (1, 1, 0, 0), GL4)
    assert lift.value == (0, 1, 1, 0)
    assert len(lift.chain) == 2
    cur = (1, 1, 0, 0)
    for coroot, point in lift.chain:
        idx = GL4.simple_coroots.index(coroot)
        assert pairing(cur, GL4.simple_roots[idx]) == 1
        cur = point
    assert cur == (0, 1, 1, 0)


def test_lift_identity():
    lift = minuscule_lift((1, 0), (1, 0), GL2)
    assert lift.value == (1, 0)
    assert lift.chain == ()


def test_lift_requires_minuscule_mu():
    with pytest.raises(NotMinusculeError):
        minuscule_lift((0, 2), (2, 0), GL2)


def test_lift_rejects_foreign_lambda():
    with pytest.raises(KappaMismatchError):
        minuscule_lift((1, 1), (1, 0), GL2)
    with pytest.raises(DominanceError):
        minuscule_lift((2, -1), (1, 0), GL2)


def test_lift_output_is_in_the_orbit_with_minuscule_intermediates():
    for rd, mu in [(GL4, (1, 1, 0, 0)), (GSP4, (1, 1, 1)), (GL3, (1, 0, 0))]:
        orbit = weyl_orbit(mu, rd)
        for lam in orbit:
            lift = minuscule_lift(lam, mu, rd)
            assert lift.value == tuple(lam)
            assert lift.value in orbit
            for point in lift.intermediates:
                assert is_minuscule(point, rd)
                assert point in orbit


@pytest.mark.parametrize(
    "bad_reflection",
    [
        # subtracts the coroot twice: pairs to -3 with the root, off the orbit
        lambda lam, i, rd: tuple(x - 2 * y for x, y in zip(lam, rd.simple_coroots[i])),
        # leaves the point where it is
        lambda lam, i, rd: tuple(lam),
    ],
)
def test_lift_rejects_a_reflection_that_leaves_the_orbit(monkeypatch, bad_reflection):
    # mu is checked minuscule once; each step is then pinned to cur minus the
    # coroot, so a broken reflection is caught at the step that breaks
    monkeypatch.setattr(stembridge, "simple_reflection", bad_reflection)
    for lam in [(0, 0, 1, 1), (0, 1, 0, 1)]:
        with pytest.raises(LiftConsistencyError, match="not .* minus its coroot"):
            minuscule_lift(lam, (1, 1, 0, 0), GL4)


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), "1", True], ids=repr)
def test_non_integer_coordinates_are_refused(bad):
    # int() would read each as 1 or 0 and answer for another input
    for call in (
        lambda: stembridge_chain((bad, 1, 0), (2, 0, 0), GL3),
        lambda: stembridge_chain((1, 1, 0), (2, 0, bad), GL3),
        lambda: minuscule_lift((0, bad, 0), (1, 0, 0), GL3),
    ):
        with pytest.raises(ChainPreconditionError, match="must be an integer"):
            call()
    assert stembridge_chain((1, 1, 0), (2, 0, 0), GL3).steps
    assert minuscule_lift((0, 1, 0), (1, 0, 0), GL3).value == (0, 1, 0)
