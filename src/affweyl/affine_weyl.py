"""The extended affine Weyl group X_*(T) x W_0 with exact combinatorics.

Elements are pairs (translation, finite part).  Each finite part is an
integer matrix acting on the cocharacter lattice, interned the first time
it is seen: one shared entry per matrix holds the matrix, its hash, a
table of products with other entries and the signs of u^-1 on the
positive roots, read from the datum's root index.  So `mul` reads the
finite product from the table and moves the translation in O(rank) when
the right factor is finite; otherwise it applies the matrix.  `length` is
one pass over the positive roots.  No inverse is kept, and no library
path calls `inv`, which eliminates.
A Frobenius action sigma is the element t_0 S of W semidirect <sigma> in
the same table: sigma(w) = S w S^-1, and with sigma^m = 1 the twisted
power w sigma(w) .. sigma^(m-1)(w) is the ordinary power (w S)^m.
Length is the closed Iwahori-Matsumoto count.  Reduced words are taken
greedily with respect to the fixed base alcove (the alcove in the
dominant chamber with a vertex at the origin): a simple reflection is a
left descent when its wall separates that alcove from its image, which
is_left_descent reads off one pairing with the translation and one entry
of the sign vector.  reduced_word and bruhat_leq walk in wall-pairing
coordinates: t_lambda u is carried as lambda, the pairings <lambda, a_j>
with the roots a_j of the walls, u and its sign vector.  With e = 1 for
an affine wall and 0 otherwise and c = e - <lambda, a_i>, the step by
wall i is lambda += c a_i^vee and <lambda, a_j> += c <a_i^vee, a_j>; u
moves by one product-table lookup and the signs by the wall's signed
permutation of the positive roots.  A step costs O(#walls + rank), a
descent test is one subtraction, and no element is built until the end
of the walk.  The length-zero subgroup keeps track of the fundamental
group.  The Bruhat order walks v along the cached greedy reduced word of
w with the lifting property, so it keeps no memo of its own.

>>> from affweyl.root_datum import build_root_datum
>>> rd = build_root_datum({"preset": "GL", "n": 2})
>>> s0, s1 = iwahori_generators(rd)
>>> w = mul(translation_element((1, 0), rd), s1)
>>> w
AffineWeylElement(translation=(1, 0), finite=((0, 1), (1, 0)))
>>> length(rd, w), reduced_word(rd, w)[0]
(0, ())
>>> w == AffineWeylElement((1, 0), ((0, 1), (1, 0)))
True
>>> mul(w, inv(w)) == identity_element(rd)
True

Equal matrices share one entry, so the product of s1 with itself is read
back as the very matrix of the identity:

>>> mul(s1, s1).finite is identity_element(rd).finite
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from operator import mul as _times
from typing import Iterable, Optional, Sequence

from .linalg import (
    Mat,
    Vec,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_vec,
    vec_mat,
)
from .root_datum import (
    RootDatum,
    dominant_rep,
    exact_int,
    fundamental_group,
    pairing,
)


class AffineWeylError(ValueError):
    """Invalid operation on affine Weyl elements."""


class _Finite:
    """The interned entry of one finite Weyl or Frobenius matrix u.

    Its hash is that of the matrix, so an element hashes like the pair
    (translation, matrix).  `products` maps an entry v to the entry of uv
    (so twists S u S^-1 and twisted powers (u S)^m are products too),
    `is_identity` says whether u is the identity, and `signs` is a pair
    (datum, vector) with a 1 in the vector for each positive root a of the
    datum with u^-1(a) < 0; one assignment replaces both, so a concurrent
    reader never sees the vector of one datum paired with another.  No
    inverse is kept: no library path forms one.
    """

    __slots__ = ("matrix", "hash", "products", "is_identity", "signs")

    def __init__(self, matrix: Mat):
        self.matrix = matrix
        self.hash = hash(matrix)
        self.products: dict[_Finite, _Finite] = {}
        self.is_identity = matrix == identity_matrix(len(matrix))
        self.signs: tuple[Optional[RootDatum], tuple[int, ...]] = (None, ())

    def __hash__(self) -> int:
        return self.hash


_FINITE_PARTS: dict[Mat, _Finite] = {}
_ROWS: dict[Vec, Vec] = {}


def _intern(matrix: Mat) -> _Finite:
    u = _FINITE_PARTS.get(matrix)
    if u is None:
        # W_0 has few distinct rows (n unit vectors for GL_n), so entries share them
        matrix = tuple([_ROWS.setdefault(row, row) for row in matrix])
        u = _FINITE_PARTS[matrix] = _Finite(matrix)
    return u


def clear_finite_parts() -> None:
    """Empty the intern table; elements held across this keep working.

    Entries still held by such elements drop their links to other entries,
    so the rest of the old table can be freed.
    """
    for u in _FINITE_PARTS.values():
        u.products.clear()
    _FINITE_PARTS.clear()
    _ROWS.clear()


class AffineWeylElement:
    """Element t_lambda * u with u a finite Weyl matrix on X_*(T).

    Immutable; equal and equally hashed to any element with the same
    translation and matrix, also one built after the intern table was
    emptied.  A matrix that is not square of the translation's length is
    refused: the walks read both with zip, which would truncate.
    """

    __slots__ = ("translation", "_u")

    def __init__(self, translation: Vec, finite: Mat):
        if {len(finite), *map(len, finite)} != {len(translation)}:
            raise AffineWeylError("finite part must be square, of the translation's length")
        _set_translation(self, translation)
        _set_u(self, _intern(finite))

    @property
    def finite(self) -> Mat:
        return self._u.matrix

    def rank(self) -> int:
        return len(self.translation)

    def __eq__(self, other):
        if other.__class__ is not AffineWeylElement:
            return NotImplemented
        return self.translation == other.translation and (
            self._u is other._u or self._u.matrix == other._u.matrix
        )

    def __hash__(self) -> int:
        return hash((self.translation, self._u))

    def __repr__(self) -> str:
        return f"AffineWeylElement(translation={self.translation!r}, finite={self.finite!r})"

    def __reduce__(self):
        return AffineWeylElement, (self.translation, self.finite)

    def __setattr__(self, name, value):
        raise AttributeError(f"AffineWeylElement is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"AffineWeylElement is immutable; cannot delete {name!r}")


_set_translation = AffineWeylElement.translation.__set__
_set_u = AffineWeylElement._u.__set__


def _element(translation: Vec, u: _Finite) -> AffineWeylElement:
    w = object.__new__(AffineWeylElement)
    _set_translation(w, translation)
    _set_u(w, u)
    return w


def identity_element(rd: RootDatum) -> AffineWeylElement:
    return AffineWeylElement((0,) * rd.rank, identity_matrix(rd.rank))


def translation_element(lam: Sequence[int], rd: RootDatum) -> AffineWeylElement:
    if len(lam) != rd.rank:
        raise AffineWeylError("translation has the wrong rank")
    lam = tuple(exact_int(x, "a translation coordinate", AffineWeylError) for x in lam)
    return AffineWeylElement(lam, identity_matrix(rd.rank))


def _checked_mu(mu: Sequence[int], rd: RootDatum) -> Vec:
    """The dominant conjugate of mu, once checked to be rd.rank integers; else AffineWeylError naming mu."""
    mu = tuple(mu)
    if len(mu) != rd.rank:
        raise AffineWeylError(f"mu {mu!r} has {len(mu)} coordinates, but the datum has rank {rd.rank}")
    for x in mu:
        exact_int(x, f"each coordinate of mu {mu!r}", AffineWeylError)
    return dominant_rep(mu, rd)[0]


def _memo_on_mu(fn):
    """fn(mu, rd, ...) behind an lru_cache table keyed on _checked_mu(mu, rd).

    A check inside fn would be skipped on a table hit, and True == 1 with
    equal hashes; conjugates of mu share one key.  The wrapper shows the
    table's cache_info and cache_clear, so it counts as one memo table,
    and keeps fn itself as __wrapped__.
    """
    table = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def checked(mu, rd, *rest):
        return table(_checked_mu(mu, rd), rd, *rest)

    checked.cache_info, checked.cache_clear = table.cache_info, table.cache_clear
    return checked


def mul(a: AffineWeylElement, b: AffineWeylElement) -> AffineWeylElement:
    """(t_lambda u)(t_mu v) = t_(lambda + u mu) uv, with uv read from the table.

    Nothing is applied when mu = 0 (a finite right factor: w s_i, w S);
    otherwise the matrix is.
    """
    lam, mu = a.translation, b.translation
    if len(lam) != len(mu):
        raise AffineWeylError("rank mismatch in multiplication")
    u, v = a._u, b._u
    uv = u.products.get(v)
    if uv is None:
        uv = u.products[v] = _intern(mat_mul(u.matrix, v.matrix))
    if not any(mu):
        return _element(lam, uv)
    return _element(tuple([x + sum(map(_times, row, mu)) for x, row in zip(lam, u.matrix)]), uv)


def inv(a: AffineWeylElement) -> AffineWeylElement:
    """(t_lambda u)^-1, eliminating u^-1 on each call; no library path calls it."""
    u_inv = mat_inverse(a.finite)
    return AffineWeylElement(tuple(-x for x in mat_vec(u_inv, a.translation)), u_inv)


def is_translation(w: AffineWeylElement, rd: RootDatum) -> bool:
    return w._u.is_identity and len(w.translation) == rd.rank


def reflection_matrix(root: Vec, coroot: Vec) -> Mat:
    n = len(root)
    return tuple(
        tuple((1 if i == j else 0) - coroot[i] * root[j] for j in range(n)) for i in range(n)
    )


def finite_reflection(rd: RootDatum, i: int) -> AffineWeylElement:
    """The simple reflection s_i as a group element."""
    return AffineWeylElement((0,) * rd.rank, reflection_matrix(rd.simple_roots[i], rd.simple_coroots[i]))


_Wall = tuple[Vec, int, bool, tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=None)
def _walls(rd: RootDatum) -> tuple[_Wall, ...]:
    """The wall of each affine simple reflection, in generator order.

    An entry (root, k, affine, perm, row) names the wall <x, root> = 1 of a
    component's highest root when affine is true and the wall
    <x, root> = 0 of a simple root otherwise; k is the position of root in
    rd.positive_roots.  The height of a root is read from its pairing with
    the sum of the positive coroots (2 rho^vee); a root lies in the
    component that holds every simple coroot it pairs non-trivially with.
    perm is the signed permutation of the positive roots by the reflection
    s_a in a = root: perm[j] is the root index (m, or ~m for a negative
    root) of s_a(b_j) = b_j - <a^vee, b_j> a, so it sends k to ~k.
    _left_signs reads the signs of s u from those of u through it.
    row[j] = <a^vee, r_j> for the root r_j of the j-th wall, read from the
    coroot and the roots themselves (on GSp the matrix is not symmetric):
    _step moves the pairings of lambda with the wall roots by it.
    """
    roots, coroots, index = rd.positive_roots, rd.positive_coroots, rd._root_index
    two_rho_vee = tuple(sum(c) for c in zip(*coroots))
    ks = []
    for comp in rd.components():
        in_comp = [
            k for k, root in enumerate(roots)
            if all(i in comp for i, sc in enumerate(rd.simple_coroots) if pairing(sc, root))
        ]
        ks.append(max(in_comp, key=lambda k: pairing(two_rho_vee, roots[k])))
    n_affine = len(ks)
    ks += [index[root] for root in rd.simple_roots]
    return tuple(
        (
            roots[k], k, j < n_affine,
            tuple(index[tuple([x - pairing(coroots[k], b) * y for x, y in zip(b, roots[k])])] for b in roots),
            tuple(pairing(coroots[k], roots[m]) for m in ks),
        )
        for j, k in enumerate(ks)
    )


@lru_cache(maxsize=None)
def iwahori_generators(rd: RootDatum) -> tuple[AffineWeylElement, ...]:
    """The affine simple reflections, one affine node per component first.

    For an irreducible datum the list is (s0, s1, .., sr) with s0 the
    reflection in the wall <x, theta> = 1 and s1..sr the finite simple
    reflections.
    """
    coroots, zero = rd.positive_coroots, (0,) * rd.rank
    return tuple(
        AffineWeylElement(coroots[k] if affine else zero, reflection_matrix(root, coroots[k]))
        for root, k, affine, _, _ in _walls(rd)
    )


def _signs(rd: RootDatum, u: _Finite) -> tuple[int, ...]:
    """1 for each positive root a with u^-1(a) = a u < 0 (a negative index), else 0; kept on u."""
    signs_rd, signs = u.signs
    if signs_rd is not rd:
        index = rd._root_index
        try:
            signs = tuple([1 if index[vec_mat(root, u.matrix)] < 0 else 0 for root in rd.positive_roots])
        except KeyError:
            raise AffineWeylError("covector is not a root of the datum") from None
        u.signs = (rd, signs)
    return signs


def _left_signs(rd: RootDatum, su: _Finite, wall: _Wall, signs: tuple[int, ...]) -> tuple[int, ...]:
    """_signs(rd, su) for su = s u, s the reflection of wall, read from signs = _signs(rd, u).

    b_j s = s(b_j) = +-b_m by the wall's permutation, so
    (s u)^-1 b_j = +-u^-1 b_m: its sign is that of u^-1 b_m, flipped for a
    negative image.  No matrix is applied.
    """
    signs_rd, su_signs = su.signs
    if signs_rd is not rd:
        su_signs = tuple([signs[m] if m >= 0 else 1 - signs[~m] for m in wall[3]])
        su.signs = (rd, su_signs)
    return su_signs


def is_left_descent(rd: RootDatum, w: AffineWeylElement, i: int) -> bool:
    """Whether the i-th affine simple reflection s satisfies l(sw) < l(w).

    That holds exactly when the wall of s separates the base alcove A from
    w(A).  For w = t_lambda u and a positive root a, w(A) lies in the strip
    d < <x, a> < d + 1 with d = <lambda, a> - 1 if u^-1(a) < 0 and
    d = <lambda, a> otherwise.  So a finite s_i is a descent iff
    <lambda, a_i> < 0, or = 0 with u^-1(a_i) < 0; the affine s_0 of a
    component with highest root theta is one iff <lambda, theta> > 1, or
    = 1 with u^-1(theta) > 0.  One pairing and one sign are read.  An
    index outside the generators raises AffineWeylError.

    >>> from affweyl.root_datum import build_root_datum
    >>> rd = build_root_datum({"preset": "GL", "n": 2})
    >>> s0, s1 = iwahori_generators(rd)
    >>> is_left_descent(rd, s1, 1)
    True
    >>> is_left_descent(rd, translation_element((1, -1), rd), 0)
    True
    """
    walls = _walls(rd)
    if not 0 <= exact_int(i, "a generator index", AffineWeylError) < len(walls):
        raise AffineWeylError(f"generator index {i} out of range")
    return _descends(walls[i], sum(map(_times, w.translation, walls[i][0])), _signs(rd, w._u))


def _descends(wall: _Wall, p: int, signs: tuple[int, ...]) -> bool:
    """is_left_descent at wall for t_lambda u, given p = <lambda, root> and signs = _signs(rd, u)."""
    d = p - signs[wall[1]]
    return d > 0 if wall[2] else d < 0


def _start(rd: RootDatum, w: AffineWeylElement) -> tuple:
    """w = t_lambda u as (lambda, its pairings with the wall roots, u, _signs(rd, u))."""
    lam, u = w.translation, w._u
    return lam, [sum(map(_times, lam, wall[0])) for wall in _walls(rd)], u, _signs(rd, u)


def _step(rd: RootDatum, i: int, lam: Vec, pairs: list, u: _Finite, signs: tuple) -> tuple:
    """s w in wall-pairing coordinates (see _start), s the i-th affine simple reflection.

    s = t_(e a^vee) s_a with e = 1 for an affine wall and 0 otherwise, so
    s w = t_(lambda + c a^vee) s_a u with c = e - <lambda, a>: the pairings
    with the wall roots move by c times the wall's row, s_a u is read from
    the product table and its signs from those of u.  O(#walls + rank);
    no element is built.
    """
    wall = _walls(rd)[i]
    c = wall[2] - pairs[i]
    if c:
        lam = [x + c * y for x, y in zip(lam, rd.positive_coroots[wall[1]])]
        pairs = [p + c * r for p, r in zip(pairs, wall[4])]
    s = iwahori_generators(rd)[i]._u
    su = s.products.get(u)
    if su is None:
        su = s.products[u] = _intern(mat_mul(s.matrix, u.matrix))
    return lam, pairs, su, _left_signs(rd, su, wall, signs)


@lru_cache(maxsize=None)
def length(rd: RootDatum, w: AffineWeylElement) -> int:
    """Iwahori-Matsumoto length l(t_lambda u).

    Sum over positive roots a of |<lambda, a> - s_a|, where s_a is 1 when
    u^-1(a) is negative and 0 when it stays positive.
    """
    lam = w.translation
    return sum(
        abs(sum(map(_times, lam, root)) - s)
        for root, s in zip(rd.positive_roots, _signs(rd, w._u))
    )


@lru_cache(maxsize=None)
def reduced_word(rd: RootDatum, w: AffineWeylElement) -> tuple[tuple[int, ...], AffineWeylElement]:
    """Greedy reduced word and the length-zero remainder.

    Returns (letters, omega) with w equal to the product of the listed
    generators times omega, len(letters) == length(w) and length(omega) == 0.
    Each of the length(w) steps strips the first generator that is a left
    descent of what is left; the remainder is checked to have length zero,
    which a wrongly claimed descent would break.  What is left is carried
    in wall-pairing coordinates: with c = e - <lambda, a_i> (e = 1 for an
    affine wall, else 0) a step by wall i sets lambda += c a_i^vee and
    <lambda, a_j> += c <a_i^vee, a_j>, so each descent test is one
    subtraction per wall and only omega is built as an element.
    """
    walls = _walls(rd)
    letters: list[int] = []
    lam, pairs, u, signs = _start(rd, w)
    for _ in range(length(rd, w)):
        for i, wall in enumerate(walls):
            if _descends(wall, pairs[i], signs):
                break
        else:
            raise AffineWeylError("no descent found; descent test and length disagree")
        letters.append(i)
        lam, pairs, u, signs = _step(rd, i, lam, pairs, u, signs)
    omega = _element(tuple(lam), u)
    if length(rd, omega) != 0:
        raise AffineWeylError("greedy descent left a remainder of positive length")
    return tuple(letters), omega


def omega_part(rd: RootDatum, w: AffineWeylElement) -> AffineWeylElement:
    return reduced_word(rd, w)[1]


@lru_cache(maxsize=None)
def kottwitz(rd: RootDatum, w: AffineWeylElement) -> Vec:
    """Class of the translation part in pi_1 = X_*(T) / coroot lattice."""
    return fundamental_group(rd).project(w.translation)


def omega_rep(rd: RootDatum, lam: Sequence[int]) -> AffineWeylElement:
    """The unique length-zero element whose Kottwitz class is that of lam."""
    return omega_part(rd, translation_element(lam, rd))


def bruhat_leq(rd: RootDatum, v: AffineWeylElement, w: AffineWeylElement) -> bool:
    """Bruhat order, with elements comparable only in one Omega coset.

    Elements of different Kottwitz classes lie in different Omega cosets
    and are rejected at once, and so is a v at least as long as w unless
    v = w.  Otherwise v walks the greedy reduced word of w with the
    lifting property: for a left descent s of w, v <= w iff sv <= sw when
    s is a descent of v and iff v <= sw otherwise.  At the end of the word
    sw is the Omega part of w, which v lies below only if equal to it, so
    the translation and matrix reached are compared with it; v is refused
    once it is longer than what is left of w.  v steps in wall-pairing
    coordinates: by wall i, lambda += c a_i^vee and
    <lambda, a_j> += c <a_i^vee, a_j> with c = e - <lambda, a_i>, e = 1
    for an affine wall and 0 otherwise.
    """
    if kottwitz(rd, v) != kottwitz(rd, w):
        return False
    letters, omega = reduced_word(rd, w)
    lv, lw = length(rd, v), len(letters)
    if lv >= lw:
        return v == w
    walls = _walls(rd)
    lam, pairs, u, signs = _start(rd, v)
    for i in letters:
        if _descends(walls[i], pairs[i], signs):
            lam, pairs, u, signs = _step(rd, i, lam, pairs, u, signs)
            lv -= 1
        lw -= 1
        if lv > lw:
            return False
    return tuple(lam) == omega.translation and u.matrix == omega.finite


def bruhat_leq_subword_oracle(rd: RootDatum, v: AffineWeylElement, w: AffineWeylElement) -> bool:
    """Independent Bruhat test by exhausting subwords of one reduced word.

    v <= w iff v is a subword product of w's word times w's Omega part.
    Exponential in length(w); meant for cross-checking at small length.
    """
    ov = omega_part(rd, v)
    if ov != omega_part(rd, w):
        return False
    letters, _ = reduced_word(rd, w)
    gens = iwahori_generators(rd)
    n = len(letters)
    for mask in range(1 << n):
        prod = identity_element(rd)
        for k in range(n):
            if mask & (1 << k):
                prod = mul(prod, gens[letters[k]])
        if mul(prod, ov) == v:
            return True
    return False


def word_length_map(
    rd: RootDatum,
    radius: Optional[int] = None,
    gens: Optional[Sequence[AffineWeylElement]] = None,
) -> dict[AffineWeylElement, int]:
    """Breadth-first word distance from the identity over gens.

    gens defaults to the affine simple reflections, whose word distance is
    the length on W_a.  Without a radius the search runs until the
    generated group is exhausted and refuses to pass 100000 elements.
    Insertion order is fixed: frontier by frontier, generators in the
    given order, multiplied on the right.
    """
    if gens is None:
        gens = iwahori_generators(rd)
    dist = {identity_element(rd): 0}
    frontier = [identity_element(rd)]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for w in frontier:
            for g in gens:
                c = mul(w, g)
                if c not in dist:
                    dist[c] = d
                    nxt.append(c)
        frontier = nxt
        if radius is None and len(dist) > 100000:
            raise AffineWeylError("generated subgroup is unexpectedly large")
    return dist


# ---------------------------------------------------------------------------
# Frobenius actions


@dataclass(frozen=True)
class SigmaAction:
    """Finite-order automorphism of the based datum, acting on W."""

    matrix: Mat
    matrix_inv: Mat
    order: int

    @cached_property
    def elements(self) -> tuple[AffineWeylElement, AffineWeylElement]:
        """(S, S^-1): sigma and its inverse as the elements t_0 S, t_0 S^-1."""
        zero = (0,) * len(self.matrix)
        return AffineWeylElement(zero, self.matrix), AffineWeylElement(zero, self.matrix_inv)


def _check_diagram_automorphism(rd: RootDatum, m: Mat) -> None:
    """Raise unless m permutes rd's simple coroots, compatibly with its simple roots."""
    if len(m) != rd.rank or any(len(row) != rd.rank for row in m):
        raise AffineWeylError("automorphism matrix has the wrong shape")
    perm = []
    for i, coroot in enumerate(rd.simple_coroots):
        image = mat_vec(m, coroot)
        try:
            j = rd.simple_coroots.index(image)
        except ValueError as exc:
            raise AffineWeylError(
                f"automorphism does not permute the simple coroots (image of coroot {i})"
            ) from exc
        if vec_mat(rd.simple_roots[j], m) != rd.simple_roots[i]:
            raise AffineWeylError(
                f"automorphism is not compatible with the pairing at simple root {i}"
            )
        perm.append(j)
    if sorted(perm) != list(range(rd.semisimple_rank)):
        raise AffineWeylError("automorphism does not permute the simple coroots bijectively")


def make_sigma(rd: RootDatum, matrix: Sequence[Sequence[int]]) -> SigmaAction:
    """Validate a lattice automorphism as a diagram automorphism.

    The integer matrix must permute the simple coroots, act compatibly on
    the simple roots, be invertible over Z and have finite order; this is
    exactly the condition for the induced map on W to preserve the base
    alcove and permute the affine simple reflections.
    """
    m = tuple(tuple(exact_int(x, "an automorphism entry", AffineWeylError) for x in row) for row in matrix)
    _check_diagram_automorphism(rd, m)
    try:
        m_inv = mat_inverse(m)
    except ValueError as exc:
        raise AffineWeylError("automorphism matrix is not invertible over the integers") from exc
    power = m
    order = 1
    while power != identity_matrix(rd.rank):
        power = mat_mul(power, m)
        order += 1
        if order > 2520:
            raise AffineWeylError("automorphism does not have small finite order")
    return SigmaAction(m, m_inv, order)


def sigma_identity(rd: RootDatum) -> SigmaAction:
    return SigmaAction(identity_matrix(rd.rank), identity_matrix(rd.rank), 1)


def sigma_from_name(rd: RootDatum, name: str) -> SigmaAction:
    """Named actions: "id" everywhere, "flip" for the type A presets."""
    if name == "id":
        return sigma_identity(rd)
    if name == "flip":
        # the antidiagonal; negated on GL, where reversal alone makes simple coroots negative
        label, n = rd.type_label, rd.rank
        if not label.startswith(("GL", "SL", "PGL")):
            raise AffineWeylError(f"no diagram flip is defined for {label}")
        sign = -1 if label.startswith("GL") else 1
        return make_sigma(rd, [[sign if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])
    raise AffineWeylError(f"unknown sigma name {name!r}")


def sigma_apply(sigma: SigmaAction, w: AffineWeylElement) -> AffineWeylElement:
    """sigma(t_lambda u) = t_sigma(lambda) sigma u sigma^-1, the conjugate S w S^-1."""
    if sigma.order == 1:
        return w
    s, s_inv = sigma.elements
    return mul(mul(s, w), s_inv)


def sigma_apply_cochar(sigma: SigmaAction, lam: Sequence[int]) -> Vec:
    return mat_vec(sigma.matrix, tuple(lam))


def conjugation_permutation(rd: RootDatum, g: AffineWeylElement, g_inv: AffineWeylElement) -> tuple[int, ...]:
    """How w -> g w g^-1 permutes the affine simple reflections, by index.

    Raises AffineWeylError when an image is not an affine simple reflection.
    """
    gens = iwahori_generators(rd)
    try:
        return tuple(gens.index(mul(mul(g, s), g_inv)) for s in gens)
    except ValueError as exc:
        raise AffineWeylError("conjugation does not permute the affine simple reflections") from exc


def sigma_generator_permutation(rd: RootDatum, sigma: SigmaAction) -> tuple[int, ...]:
    """How sigma permutes the affine simple reflections."""
    return conjugation_permutation(rd, *sigma.elements)


# ---------------------------------------------------------------------------
# Parahoric levels and double cosets


@dataclass(frozen=True)
class ParahoricLevel:
    """A subset K of the affine simple reflections with W_K finite."""

    generators: tuple[int, ...]

    @staticmethod
    def iwahori() -> "ParahoricLevel":
        return ParahoricLevel(())


def make_level(rd: RootDatum, indices: Iterable[int], sigma: Optional[SigmaAction] = None) -> ParahoricLevel:
    idx = tuple(sorted(set(exact_int(i, "a generator index", AffineWeylError) for i in indices)))
    n_gens = len(iwahori_generators(rd))
    for i in idx:
        if not 0 <= i < n_gens:
            raise AffineWeylError(f"generator index {i} out of range")
    n_comps = len(rd.components())
    for c, comp in enumerate(rd.components()):
        node_set = {c} | {n_comps + i for i in comp}
        if node_set <= set(idx):
            raise AffineWeylError(
                "level contains every node of an affine component; W_K would be infinite"
            )
    if sigma is not None:
        perm = sigma_generator_permutation(rd, sigma)
        if {perm[i] for i in idx} != set(idx):
            raise AffineWeylError("level is not sigma-stable")
    return ParahoricLevel(idx)


def _shorten(rd: RootDatum, w: AffineWeylElement, level: ParahoricLevel) -> Optional[AffineWeylElement]:
    """s w or w s for the first s in K that shortens w; None if w is minimal in W_K w W_K.

    A right descent is read by its definition, l(w s) < l(w) (Bjorner-
    Brenti, Combinatorics of Coxeter Groups, Sec. 1.4): no inverse is formed.
    """
    if not level.generators:
        return None
    gens = iwahori_generators(rd)
    for i in level.generators:
        if is_left_descent(rd, w, i):
            return mul(gens[i], w)
    lw = length(rd, w)
    for i in level.generators:
        ws = mul(w, gens[i])
        if length(rd, ws) < lw:
            return ws
    return None


def double_coset_rep(rd: RootDatum, w: AffineWeylElement, level: ParahoricLevel) -> AffineWeylElement:
    """Minimal-length element of W_K w W_K: shorten w while some s in K does.

    That element is unique, so the order of the steps does not matter.
    """
    while (shorter := _shorten(rd, w, level)) is not None:
        w = shorter
    return w


def element_sort_key(rd: RootDatum, w: AffineWeylElement):
    """Deterministic ordering: length, then translation, then finite part."""
    return (length(rd, w), w.translation, w.finite)
