import copy
import dataclasses
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import affweyl
from affweyl import root_datum
from affweyl.linalg import hermite_row_form, solve_rational
from affweyl.root_datum import (
    RootDatum,
    RootDatumError,
    build_root_datum,
    dominance_leq,
    dominant_rep,
    fundamental_group,
    is_dominant,
    pairing,
    quotient_group,
    simple_reflection,
    sub_datum,
    weyl_orbit,
)
from test_affine_weyl import A1_X_C2
from test_linalg import _leibniz_det


def rd(preset, n):
    return build_root_datum({"preset": preset, "n": n})


def test_preset_positive_coroots():
    assert rd("GL", 2).positive_coroots == ((1, -1),)
    assert set(rd("GL", 3).positive_coroots) == {(1, -1, 0), (0, 1, -1), (1, 0, -1)}
    assert len(rd("GSp", 4).positive_coroots) == 4
    assert len(rd("GSp", 6).positive_coroots) == 9
    assert len(rd("GL", 5).positive_coroots) == 10


def test_positive_coroots_sorted_by_height():
    gl3 = rd("GL", 3)
    heights = [gl3.coroot_height(cv) for cv in gl3.positive_coroots]
    assert heights == sorted(heights)
    for cv in gl3.simple_coroots:
        assert cv in gl3.positive_coroots


def test_gsp4_cartan_is_type_c2():
    assert rd("GSp", 4).cartan_matrix == ((2, -1), (-2, 2))


def _cartan_spec(cartan):
    """Explicit datum with simple coroots the unit vectors, so A[i][j] = <e_j, alpha_i>."""
    s = len(cartan)
    unit = [[int(i == j) for j in range(s)] for i in range(s)]
    return {"rank": s, "simple_roots": [list(row) for row in cartan], "simple_coroots": unit}


def _simply_laced(s, edges):
    """Simply laced Cartan matrix on s nodes with the given edges."""
    a = [[2 if i == j else 0 for j in range(s)] for i in range(s)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


# Bourbaki numbering: 1-3-4-5-6-7-8 with 2 on 4, here 0-based
E_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
EXCEPTIONAL = [
    ("E6", _simply_laced(6, E_EDGES[:4] + [(1, 3)]), 36),
    ("E7", _simply_laced(7, E_EDGES[:5] + [(1, 3)]), 63),
    ("E8", _simply_laced(8, E_EDGES), 120),
    ("F4", [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 24),
    ("G2", [[2, -1], [-3, 2]], 6),
]


@pytest.mark.parametrize("name, cartan, count", EXCEPTIONAL)
def test_exceptional_data_build(name, cartan, count):
    datum = build_root_datum({**_cartan_spec(cartan), "label": name})
    assert len(datum.positive_roots) == len(datum.positive_coroots) == count
    # E8 has 240 <= 4 s^2 = 256 roots, the tight case of the closure bound
    assert 2 * count <= 4 * len(cartan) ** 2


def test_rejects_cartan_not_of_finite_type():
    affine_e8 = _simply_laced(9, E_EDGES + [(7, 8)])
    cases = [
        _cartan_spec([[2, -2], [-2, 2]]),  # affine A1
        _cartan_spec([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),  # affine A2
        _cartan_spec(affine_e8),
        _cartan_spec([[2, -3], [-3, 2]]),  # hyperbolic, non-singular
        # affine A1 again, but in rank 1: the closure is finite, the Cartan matrix singular
        {"rank": 1, "simple_roots": [[2], [-2]], "simple_coroots": [[1], [-1]]},
    ]
    for spec in cases:
        with pytest.raises(RootDatumError, match="not of finite type"):
            build_root_datum(spec)


def test_rank_thirty_presets_build():
    for preset, n, count in [("GL", 30, 435), ("SL", 30, 435), ("PGL", 30, 435), ("GSp", 30, 225)]:
        assert len(rd(preset, n).positive_roots) == count


def test_rejects_wrong_length_coroots():
    spec = {"rank": 3, "simple_roots": [[1, -1, 0]], "simple_coroots": [[1, -1]]}
    with pytest.raises(RootDatumError, match="lattice"):
        build_root_datum(spec)


def test_explicit_datum_matches_preset():
    spec = {
        "rank": 2,
        "simple_roots": [[1, -1]],
        "simple_coroots": [[1, -1]],
        "label": "custom-a1",
    }
    datum = build_root_datum(spec)
    assert datum.positive_coroots == rd("GL", 2).positive_coroots


def test_dominance_examples():
    gl2 = rd("GL", 2)
    assert dominance_leq((1, 1), (2, 0), gl2)
    assert dominance_leq((1, 0), (1, 0), gl2)
    assert not dominance_leq((2, 0), (1, 1), gl2)


def test_dominance_rational_vs_integral():
    gl2 = rd("GL", 2)
    half = (Fraction(1, 2), Fraction(-1, 2))
    assert dominance_leq((0, 0), half, gl2, integral=False)
    assert not dominance_leq((0, 0), half, gl2, integral=True)


def test_dominance_rejects_rank_mismatch():
    with pytest.raises(RootDatumError):
        dominance_leq((1, 0), (1, 0, 0), rd("GL", 2))


def test_dominant_rep_examples():
    gl2 = rd("GL", 2)
    assert dominant_rep((0, 1), gl2) == ((1, 0), (0,))
    assert dominant_rep((1, 0), gl2) == ((1, 0), ())
    gl3 = rd("GL", 3)
    dom, word = dominant_rep((0, 1, 0), gl3)
    assert dom == (1, 0, 0)
    assert len(word) <= 2


def test_dominant_rep_word_reaches_dominant():
    gl3 = rd("GL", 3)
    rng = random.Random(3)
    for _ in range(50):
        lam = tuple(rng.randint(-3, 3) for _ in range(3))
        dom, word = dominant_rep(lam, gl3)
        assert is_dominant(dom, gl3)
        cur = lam
        for i in word:
            cur = simple_reflection(cur, i, gl3)
        assert cur == dom


def test_dominant_rep_weyl_invariant():
    gl3 = rd("GL", 3)
    rng = random.Random(4)
    for _ in range(30):
        lam = tuple(rng.randint(-2, 2) for _ in range(3))
        dom, _ = dominant_rep(lam, gl3)
        for other in weyl_orbit(lam, gl3):
            assert dominant_rep(other, gl3)[0] == dom


def test_weyl_orbit_examples():
    gl2 = rd("GL", 2)
    assert set(weyl_orbit((1, 0), gl2)) == {(1, 0), (0, 1)}
    assert weyl_orbit((1, 1), gl2) == ((1, 1),)
    gl3 = rd("GL", 3)
    assert len(weyl_orbit((1, 1, 0), gl3)) == 3


def test_fundamental_groups():
    assert fundamental_group(rd("GL", 2)).describe() == "Z"
    assert fundamental_group(rd("SL", 3)).describe() == "1"
    assert fundamental_group(rd("PGL", 3)).describe() == "Z/3"
    assert fundamental_group(rd("GSp", 4)).describe() == "Z"


def test_projection_kills_coroots_only():
    for preset, n in [("GL", 3), ("GSp", 4), ("PGL", 3)]:
        datum = rd(preset, n)
        pi1 = fundamental_group(datum)
        for cv in datum.positive_coroots:
            assert pi1.project(cv) == pi1.zero()
    gl4 = rd("GL", 4)
    pi1 = fundamental_group(gl4)
    for r in range(1, 4):
        mu = tuple(1 if k < r else 0 for k in range(4))
        assert pi1.project(mu) != pi1.zero()


def test_projection_additive():
    gl3 = rd("GL", 3)
    pi1 = fundamental_group(gl3)
    rng = random.Random(5)
    for _ in range(30):
        a = tuple(rng.randint(-3, 3) for _ in range(3))
        b = tuple(rng.randint(-3, 3) for _ in range(3))
        s = tuple(x + y for x, y in zip(a, b))
        assert pi1.project(s) == pi1.add(pi1.project(a), pi1.project(b))


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), "1", True], ids=repr)
def test_projection_and_quotient_refuse_non_integers(bad):
    pi1 = fundamental_group(rd("GL", 3))
    with pytest.raises(RootDatumError, match="must be an integer"):
        pi1.project((bad, 0, 0))
    assert pi1.project((1, 0, 0)) == (1,)
    with pytest.raises(RootDatumError, match="must be an integer"):
        quotient_group(1, [(bad,)])
    assert quotient_group(1, [(2,)]).describe() == "Z/2"


def test_reflection_permutes_positive_coroots():
    for preset, n in [("GL", 3), ("GSp", 4)]:
        datum = rd(preset, n)
        positives = set(datum.positive_coroots)
        for i, alpha_vee in enumerate(datum.simple_coroots):
            flipped = 0
            for cv in positives:
                image = tuple(
                    c - pairing(cv, datum.simple_roots[i]) * s
                    for c, s in zip(cv, datum.simple_coroots[i])
                )
                neg = tuple(-x for x in image)
                assert image in positives or neg in positives
                if neg in positives and image not in positives:
                    flipped += 1
                    assert cv == alpha_vee
            assert flipped == 1


def test_dominance_is_partial_order_on_kappa_fibers():
    for preset, n in [("GL", 2), ("GL", 3), ("GSp", 4)]:
        datum = rd(preset, n)
        pi1 = fundamental_group(datum)
        doms = [
            v
            for v in itertools.product(range(-3, 4), repeat=datum.rank)
            if is_dominant(v, datum)
        ]
        classes = [pi1.project(v) for v in doms]
        k = len(doms)
        leq = [
            [
                classes[i] == classes[j] and dominance_leq(doms[i], doms[j], datum)
                for j in range(k)
            ]
            for i in range(k)
        ]
        for i in range(k):
            assert leq[i][i]
            for j in range(k):
                if leq[i][j] and leq[j][i]:
                    assert i == j
                if leq[i][j]:
                    for m in range(k):
                        if leq[j][m]:
                            assert leq[i][m]


def test_gl1_degenerate_datum():
    gl1 = rd("GL", 1)
    assert gl1.positive_coroots == ()
    assert fundamental_group(gl1).describe() == "Z"
    assert dominant_rep((5,), gl1) == ((5,), ())


def test_components_are_found_once_per_datum():
    # the Dynkin search runs on the first call; later calls hand back the same tuple
    roots = [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, -1]]
    a1_x_a2 = build_root_datum({"rank": 5, "simple_roots": roots, "simple_coroots": roots, "label": "A1xA2"})
    comps = a1_x_a2.components()
    assert comps == ((0,), (1, 2))
    assert a1_x_a2.components() is comps
    assert rd("GL", 1).components() == ()


def test_fundamental_group_with_explicit_sublattice():
    doubled = quotient_group(2, [(2, -2)])
    assert doubled.describe() == "Z/2 x Z"
    assert doubled.project((2, -2)) == doubled.zero()
    assert doubled.project((1, -1)) != doubled.zero()


@st.composite
def _quotient_cases(draw):
    """Ambient rank, columns (possibly dependent or zero) and two vectors."""
    n = draw(st.integers(0, 4))
    vec = st.tuples(*[st.integers(-6, 6)] * n)
    cols = draw(st.lists(vec, max_size=4))
    if cols and draw(st.booleans()):
        # a column that depends on the others
        k = draw(st.integers(-2, 2))
        cols.append(tuple(k * a + b for a, b in zip(cols[0], cols[-1])))
    return n, cols, draw(vec), draw(vec)


@settings(max_examples=300)
@given(_quotient_cases())
def test_quotient_group_on_random_columns(case):
    n, cols, u, v = case
    group = quotient_group(n, cols)
    span = hermite_row_form(cols)
    for x in (u, v):
        # x is in the integer span iff appending it leaves the Hermite form unchanged
        assert (group.project(x) == group.zero()) == (hermite_row_form(cols + [x]) == span)
    total = tuple(a + b for a, b in zip(u, v))
    assert group.project(total) == group.add(group.project(u), group.project(v))
    det = _leibniz_det(cols) if len(cols) == n else 0
    if det:
        assert prod(group.invariant_factors) == abs(det)
    # another generating set of the same lattice presents the same group,
    # with the same coordinates
    regen = [tuple(-x for x in c) for c in reversed(cols)]
    if cols:
        regen.append(tuple(map(sum, zip(*cols[:2]))))
    other = quotient_group(n, regen)
    assert other.invariant_factors == group.invariant_factors
    for x in (u, v):
        assert other.project(x) == group.project(x)


def test_torsion_coordinates_depend_only_on_the_lattice():
    assert quotient_group(1, [(3,)]).project((1,)) == (1,)
    assert quotient_group(1, [(-3,), (3,)]).project((1,)) == (1,)


def test_projection_kernel_is_exactly_the_coroot_lattice():
    import itertools as it

    from affweyl.linalg import solve_rational

    gl3 = rd("GL", 3)
    pi1 = fundamental_group(gl3)
    for v in it.product(range(-2, 3), repeat=3):
        coeffs = solve_rational(gl3.simple_coroots, v)
        in_lattice = coeffs is not None and all(c.denominator == 1 for c in coeffs)
        assert (pi1.project(v) == pi1.zero()) == in_lattice


def test_a_datum_pickled_under_another_hash_seed_unpickles_as_the_canonical_one():
    # the child hashes the label string differently; the table keys on fields, hashed here
    child = (
        "import pickle, sys\n"
        "from affweyl.root_datum import build_root_datum\n"
        "sys.stdout.buffer.write(pickle.dumps(build_root_datum({'preset': 'GSp', 'n': 4})))\n"
    )
    src = os.path.dirname(os.path.dirname(affweyl.__file__))
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src}
    blob = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, check=True).stdout
    assert pickle.loads(blob) is rd("GSp", 4)


def test_a_datum_is_built_only_through_the_canonical_table(monkeypatch):
    gl2 = rd("GL", 2)
    fields = [getattr(gl2, f.name) for f in dataclasses.fields(gl2)]
    with pytest.raises(RootDatumError, match="not directly"):
        RootDatum(*fields)
    with pytest.raises(RootDatumError, match="not directly"):
        dataclasses.replace(gl2, type_label="other")
    # a hit in the table constructs nothing
    built = []
    monkeypatch.setattr(RootDatum, "__post_init__", lambda self: built.append(self))
    assert root_datum._canonical(*fields) is gl2
    assert built == []


def test_equal_data_are_one_object():
    gsp6 = rd("GSp", 6)
    assert build_root_datum({"n": 6, "preset": "GSp"}) is gsp6
    # the roots of GSp6 vanishing on (1, 1, 0, 0): a Levi of type A1 x C1
    idx = [k for k, a in enumerate(gsp6.positive_roots) if pairing((1, 1, 0, 0), a) == 0]
    levi = sub_datum(gsp6, idx, "levi")
    assert sub_datum(gsp6, list(reversed(idx)), "levi") is levi
    for datum in (gsp6, levi):
        assert pickle.loads(pickle.dumps(datum)) is datum
        assert copy.deepcopy(datum) is datum and copy.copy(datum) is datum
    # the table is not a memo: a datum held across clear_caches() is the one built after it
    affweyl.clear_caches()
    assert rd("GSp", 6) is gsp6 and sub_datum(gsp6, idx, "levi") is levi


def test_data_differing_in_one_field_are_two_objects():
    spec = {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]]}
    assert build_root_datum(spec) is not build_root_datum({**spec, "label": "other"})
    assert build_root_datum(spec) != rd("GL", 2)  # same roots, label GL2


def _canonical_labels():
    return {datum.type_label for datum in list(root_datum._CANONICAL.values())}


def test_an_unreferenced_datum_leaves_the_table():
    spec = {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]], "label": "held-nowhere"}
    datum = build_root_datum(spec)
    assert "held-nowhere" in _canonical_labels()
    del datum
    gc.collect()
    assert "held-nowhere" not in _canonical_labels()


def test_concurrent_builds_return_one_datum():
    # a lost check-then-insert would hand two threads two objects for one datum;
    # _canonical is called directly, so the threads spend their time in that window
    gl2 = rd("GL", 2)
    fields = [getattr(gl2, f.name) for f in dataclasses.fields(gl2)]
    assert root_datum._canonical(*fields) is gl2
    keys = [(fields[0], f"race-{r}", *fields[2:]) for r in range(2000)]
    results = [[] for _ in range(8)]

    def work(out):
        for key in keys:
            out.append(root_datum._canonical(*key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == len(keys) for out in results)
    assert all(len({id(out[r]) for out in results}) == 1 for r in range(len(keys)))


A1 = {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]]}
MALFORMED_SPECS = [
    ({"preset": "GL"}, "missing field 'n'"),
    ({"preset": "GL", "n": "x"}, "n must be an integer"),
    ({"preset": "GL", "n": "3"}, "n must be an integer"),
    ({"preset": "GL", "n": 3.5}, "n must be an integer"),
    ({"preset": "GL", "n": True}, "n must be an integer"),
    (5, "must be a mapping"),
    ([["preset", "GL"], ["n", 3]], "must be a mapping"),
    (None, "must be a mapping"),
    ({**A1, "rank": 2.0}, "rank must be an integer"),
    ({"rank": -1, "simple_roots": [], "simple_coroots": []}, "rank must be non-negative"),
    ({**A1, "simple_roots": 5}, "simple_roots must be a list of integer lists"),
    ({**A1, "simple_roots": [5]}, "simple_roots must be a list of integer lists"),
    ({**A1, "simple_coroots": "1,-1"}, "simple_coroots must be a list of integer lists"),
    ({**A1, "simple_roots": [[1.9, -1]]}, "an entry of simple_roots must be an integer"),
    ({**A1, "simple_coroots": [[1, "-1"]]}, "an entry of simple_coroots must be an integer"),
    ({"rank": 2, "simple_roots": [[1, -1]]}, "missing field 'simple_coroots'"),
]


@pytest.mark.parametrize("spec, message", MALFORMED_SPECS)
def test_malformed_spec_raises_root_datum_error(spec, message):
    with pytest.raises(RootDatumError, match=message):
        build_root_datum(spec)


def test_well_formed_specs_still_build():
    assert build_root_datum(A1).positive_coroots == ((1, -1),)
    assert build_root_datum({**A1, "simple_roots": ((1, -1),)}).rank == 2
    assert build_root_datum({"preset": "GL", "n": 3}).type_label == "GL3"


@pytest.mark.parametrize("label", ["GL", "GL3"])
def test_a_custom_label_naming_a_preset_builds(label):
    datum = build_root_datum({**A1, "label": label})
    assert datum.type_label == label
    assert datum.positive_coroots == ((1, -1),)


@pytest.mark.parametrize("preset, n", [("GL", 3), ("SL", 3), ("PGL", 3), ("GSp", 4)])
def test_a_preset_with_a_wrong_root_count_is_refused(monkeypatch, preset, n):
    data_fn = f"_{preset.lower()}_data"
    original = getattr(root_datum, data_fn)

    def one_root_short(size):
        rank, roots, coroots = original(size)
        return rank, roots[:-1], coroots[:-1]

    monkeypatch.setattr(root_datum, data_fn, one_root_short)
    with pytest.raises(RootDatumError, match="positive coroot count"):
        build_root_datum({"preset": preset, "n": n})


# the walks under every Cartan shape: symmetric (GL, SL, PGL), type C (GSp),
# B and G (explicit), a product, and a torus
T2 = build_root_datum({"rank": 2, "simple_roots": [], "simple_coroots": [], "label": "T2"})
WALK_DATA = [
    rd("GL", 3),
    rd("GL", 4),
    rd("GL", 5),
    rd("SL", 4),
    rd("PGL", 4),
    rd("GSp", 4),
    rd("GSp", 6),
    build_root_datum({**_cartan_spec([[2, -2], [-1, 2]]), "label": "B2"}),
    build_root_datum({**_cartan_spec([[2, -1], [-3, 2]]), "label": "G2"}),
    A1_X_C2,
    T2,
]


def _greedy_dominant_rep(lam, datum):
    """Reference walk: every simple pairing recomputed after each reflection."""
    cur, word = tuple(lam), []
    while True:
        neg = next((i for i, a in enumerate(datum.simple_roots) if pairing(cur, a) < 0), None)
        if neg is None:
            return cur, tuple(word)
        c = pairing(cur, datum.simple_roots[neg])
        cur = tuple(x - c * y for x, y in zip(cur, datum.simple_coroots[neg]))
        word.append(neg)


def _bfs_orbit(lam, datum):
    """Reference orbit: every simple reflection of every point, fresh pairings."""
    seen, frontier = {tuple(lam)}, [tuple(lam)]
    while frontier:
        nxt = []
        for v in frontier:
            for a, av in zip(datum.simple_roots, datum.simple_coroots):
                c = pairing(v, a)
                w = tuple(x - c * y for x, y in zip(v, av))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(seen))


_COORD = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3)),
)


@st.composite
def _walk_cases(draw):
    datum = WALK_DATA[draw(st.integers(0, len(WALK_DATA) - 1))]
    return datum, tuple(draw(st.lists(_COORD, min_size=datum.rank, max_size=datum.rank)))


@settings(max_examples=300)
@given(_walk_cases())
def test_dominant_rep_is_the_greedy_walk(case):
    datum, lam = case
    assert dominant_rep(lam, datum) == _greedy_dominant_rep(lam, datum)
    assert is_dominant(dominant_rep(lam, datum)[0], datum)


@settings(max_examples=120)
@given(_walk_cases())
def test_weyl_orbit_is_the_plain_bfs(case):
    datum, lam = case
    assert weyl_orbit(lam, datum) == _bfs_orbit(lam, datum)


@settings(max_examples=300)
@given(_walk_cases())
def test_scaled_coords_are_the_rational_solution(case):
    datum, v = case
    d, _ = datum._forms
    coeffs = solve_rational(datum.simple_coroots, v)
    expected = None if coeffs is None else tuple(d * c for c in coeffs)
    assert root_datum._scaled_coords(datum._forms, datum.simple_coroots, v) == expected


def test_scaled_coords_inside_and_outside_the_coroot_span():
    gl3 = rd("GL", 3)
    assert root_datum._scaled_coords(gl3._forms, gl3.simple_coroots, (1, 0, 0)) is None
    assert root_datum._scaled_coords(gl3._forms, gl3.simple_coroots, (1, 0, -1)) == (3, 3)
    assert root_datum._scaled_coords(T2._forms, (), (0, 0)) == ()
    assert root_datum._scaled_coords(T2._forms, (), (0, 1)) is None


@pytest.mark.parametrize("datum, lam", [(T2, (1, 2, 3)), (T2, (1,)), (rd("GL", 3), (1, 2))])
def test_walks_refuse_a_vector_of_the_wrong_rank(datum, lam):
    for walk in (dominant_rep, is_dominant, weyl_orbit):
        with pytest.raises(RootDatumError, match="rank mismatch in pairing"):
            walk(lam, datum)
