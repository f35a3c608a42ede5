import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from affweyl.affine_weyl import finite_reflection, word_length_map

from affweyl.linalg import (
    hasse_diagram,
    hermite_row_form,
    identity_matrix,
    integer_kernel,
    mat_inverse,
    mat_mul,
    mat_vec,
    scaled_inverse,
    smith_normal_form,
    solve_rational,
    vec_mat,
)
from affweyl.root_datum import build_root_datum


def random_matrix(rng, m, n, lo=-5, hi=5):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def test_smith_form_properties():
    rng = random.Random(0)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        sf = smith_normal_form(a)
        assert mat_mul(mat_mul(sf.u, a), sf.v) == sf.d
        assert scaled_inverse(sf.u)[0] == 1
        assert scaled_inverse(sf.v)[0] == 1
        diag = sf.diagonal
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert sf.d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0


def test_integer_kernel_annihilates():
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        for col in integer_kernel(a):
            assert mat_vec(a, col) == (0,) * m
            assert any(col)


def test_solve_rational_roundtrip():
    cols = ((1, -1, 0), (0, 1, -1))
    sol = solve_rational(cols, (2, -1, -1))
    assert sol == (2, 1)
    assert solve_rational(cols, (1, 0, 1)) is None


def test_mat_inverse_exact():
    m = ((2, 1), (1, 1))
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == identity_matrix(2)


def _leibniz_det(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = sign
        for i in range(n):
            prod *= a[i][perm[i]]
        total += prod
    return total


def test_bareiss_det_and_scaled_inverse_against_leibniz():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, -2, 2)
        det = _leibniz_det(a)
        if det == 0:
            with pytest.raises(ValueError):
                scaled_inverse(a)
            continue
        d, scaled = scaled_inverse(a)
        assert d == abs(det)
        assert mat_mul(a, scaled) == tuple(tuple(d * x for x in row) for row in identity_matrix(n))
        if d != 1:
            with pytest.raises(ValueError):
                mat_inverse(a)


def test_hermite_row_form_canonical():
    # two bases of the same row lattice normalize identically
    a = hermite_row_form([(2, 4), (1, 1)])
    b = hermite_row_form([(1, 1), (3, 5)])
    assert a == b
    assert a[0][0] > 0


def test_hermite_row_form_reduces_above_every_pivot():
    # reducing by a lower pivot row must not undo a reduction by a higher one
    c = hermite_row_form([(0, 1, 1), (2, 0, 0), (2, 2, 0)])
    d = hermite_row_form([(-2, -2, 0), (-2, 0, 0), (0, -1, -1), (2, 1, 1)])
    assert c == d == ((2, 0, 0), (0, 1, 1), (0, 0, 2))


def hasse_by_cubic_scan(leq):
    """Reference: covers and bottoms of a boolean order matrix by a triple loop."""
    n = len(leq)
    edges = tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and leq[i][j]
        and not any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n))
    )
    bottoms = tuple(i for i in range(n) if all(leq[i]))
    return edges, bottoms


def down_sets(leq):
    """Column j of a boolean order matrix as the bitmask of the elements below j."""
    return [sum(1 << i for i in range(len(leq)) if leq[i][j]) for j in range(len(leq))]


def test_hasse_diagram_of_subsets_by_inclusion():
    subsets = list(range(8))  # bit masks of the subsets of {0, 1, 2}
    leq = [[a & b == a for b in subsets] for a in subsets]
    edges, bottoms = hasse_diagram(down_sets(leq))
    assert bottoms == (0,)
    assert len(edges) == 12
    assert all(bin(b ^ a).count("1") == 1 and a & b == a for a, b in edges)
    assert list(edges) == sorted(edges)


def test_hasse_diagram_antichain_and_chain():
    n = 4
    antichain = [[i == j for j in range(n)] for i in range(n)]
    assert hasse_diagram(down_sets(antichain)) == ((), ())
    chain = [[i <= j for j in range(n)] for i in range(n)]
    assert hasse_diagram(down_sets(chain)) == (((0, 1), (1, 2), (2, 3)), (0,))


@st.composite
def _finite_posets(draw, max_size=9, min_relations=0):
    """The order matrix of a random finite poset, its elements in shuffled positions."""
    n = draw(st.integers(2 if min_relations else 0, max_size))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    related = draw(st.lists(st.sampled_from(pairs), min_size=min_relations, unique=True)) if pairs else []
    place = draw(st.permutations(range(n)))
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in related:
        leq[a][b] = True
    # transitive closure; relations only run up in index, so it stays antisymmetric
    for k in range(n):
        for a in range(n):
            for b in range(n):
                leq[a][b] = leq[a][b] or (leq[a][k] and leq[k][b])
    return [[leq[place[i]][place[j]] for j in range(n)] for i in range(n)]


@settings(max_examples=200)
@given(_finite_posets())
def test_hasse_diagram_matches_cubic_scan(leq):
    assert hasse_diagram(down_sets(leq)) == hasse_by_cubic_scan(leq)


def _is_linear_extension(leq):
    return all(i <= j for i in range(len(leq)) for j in range(len(leq)) if leq[i][j])


@st.composite
def _misordered_posets(draw):
    """A random poset with at least one relation, indexed in no linear extension."""
    leq = draw(_finite_posets(max_size=16, min_relations=1))
    if _is_linear_extension(leq):
        # reversing a linear extension breaks every relation's index order
        leq = [row[::-1] for row in leq[::-1]]
    return leq


@settings(max_examples=200)
@given(_misordered_posets())
@example([[i >= j for j in range(6)] for i in range(6)])  # a chain indexed top down
def test_hasse_diagram_matches_cubic_scan_off_linear_extensions(leq):
    assert not _is_linear_extension(leq)
    assert hasse_diagram(down_sets(leq)) == hasse_by_cubic_scan(leq)


def dense_mat_mul(a, b):
    """Reference: every entry of ab as a full sum over the inner index."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def dense_vec_mat(v, a):
    return tuple(sum(v[k] * a[k][j] for k in range(len(a))) for j in range(len(a[0])))


@st.composite
def _kernel_inputs(draw):
    """An m x k matrix, a k x n matrix and a length-m vector; rows may be zero."""
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    entries = st.integers(-4, 4)

    def matrix(rows, cols):
        zero = (0,) * cols
        return tuple(
            draw(st.one_of(st.just(zero), st.tuples(*[entries] * cols))) for _ in range(rows)
        )

    return matrix(m, k), matrix(k, n), tuple(draw(entries) for _ in range(m))


@settings(max_examples=300)
@given(_kernel_inputs())
@example((((3,),), ((-2,),), (5,)))
@example((((0,),), ((7,),), (0,)))
@example((((0, 0), (1, -1)), ((0, 0, 0), (2, -3, 1)), (0, -2)))
def test_row_combination_kernels_match_dense_sums(inputs):
    a, b, v = inputs
    product = mat_mul(a, b)
    assert product == dense_mat_mul(a, b)
    assert all(type(row) is tuple for row in product)
    assert vec_mat(v, a) == dense_vec_mat(v, a)
    assert type(vec_mat(v, a)) is tuple


@pytest.mark.parametrize(
    "spec",
    [
        {"preset": "SL", "n": 4},
        {"preset": "PGL", "n": 4},
        {"preset": "GSp", "n": 6},
        {"preset": "GL", "n": 4},
    ],
)
def test_row_combination_kernels_on_weyl_matrices(spec):
    # SL and PGL act on coroot and coweight bases, so their Weyl matrices
    # are not signed permutations and rows mix several entries
    rd = build_root_datum(spec)
    reflections = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)]
    weyl = [w.finite for w in word_length_map(rd, gens=reflections)]
    for u in weyl:
        for v in weyl:
            assert mat_mul(u, v) == dense_mat_mul(u, v)
        for root in rd.positive_roots + rd.simple_coroots:
            assert vec_mat(root, u) == dense_vec_mat(root, u)
