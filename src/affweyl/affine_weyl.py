"""The extended affine Weyl group X_*(T) x W_0 with exact combinatorics.

Elements are pairs (translation, finite part).  Each datum has one
context (_Context): its walls, its affine simple reflections and the
entries it made (the identity, the reflections, products of two entries
and sigma-conjugates of one), keyed by their signed permutation of the
positive roots, a faithful key on W_0 whose signs `length` reads in one
pass.  An entry holds its matrix on the cocharacter lattice and a table
of products with the context's entries, so `mul` reads the finite product
from the table; it moves the translation in O(rank) when the right factor
is finite or translated by a positive coroot (s_0), else by the matrix.
On a miss the permutations are composed, and only a new entry gets its
matrix, by one mat_mul.  Any other finite part, such as a matrix built by
hand or unpickled, is a plain matrix in no table.  No inverse is kept,
and no library path calls `inv`, which eliminates.
A Frobenius action sigma with matrix S acts on W by
sigma(t_lambda u) = t_(S lambda) S u S^-1 (sigma_apply); S is never an
entry, only the conjugates S u S^-1, which lie in W_0 with u.
Length is the closed Iwahori-Matsumoto count.  Reduced words are taken
greedily with respect to the base alcove, the one in the dominant chamber
with a vertex at the origin (is_left_descent).  reduced_word and
bruhat_leq share one walk (_walk): a descent test is one subtraction, a
step O(#walls), and the translation is settled at the end.  The Bruhat
order walks v along the cached greedy reduced word of w with the lifting
property, so it keeps no memo of its own.  The length-zero subgroup keeps
track of the fundamental group.  `affweyl.clear_caches()` drops the
contexts with their entries.

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

Within a datum an entry is keyed by its permutation, so the product of s1
with itself is read back as the datum's very entry of the identity:

>>> mul(s1, s1)._u is identity_element(rd)._u
True
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, reduce, wraps
from operator import add, mul as _times, sub
from typing import Iterable, Optional, Sequence

from .linalg import (
    Mat,
    Vec,
    _bits,
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
    """A finite part u: its matrix, the matrix's hash, `is_identity` and a product table.

    An entry has `ctx`, the context that made it, `perm`, its signed
    permutation there (see _Context), and `products`, mapping an entry v of
    ctx to the entry of uv; a plain matrix has no ctx and no products.
    """

    __slots__ = ("matrix", "hash", "products", "is_identity", "ctx", "perm")

    def __init__(self, matrix: Mat, ctx: Optional[_Context] = None, perm: Optional[tuple[int, ...]] = None):
        self.matrix = matrix
        self.hash = hash(matrix)
        self.products: dict[_Finite, _Finite] = {}
        self.is_identity = matrix == identity_matrix(len(matrix))
        self.ctx = ctx
        self.perm = perm

    def __hash__(self) -> int:
        return self.hash


def _product(u: _Finite, v: _Finite) -> _Finite:
    """uv from u's product table; on a miss composed and kept if one context made both, else a mat_mul."""
    uv = u.products.get(v)
    if uv is None:
        ctx = u.ctx
        if ctx is None or ctx is not v.ctx:
            return _Finite(mat_mul(u.matrix, v.matrix))
        uv = u.products[v] = ctx.product(u, v)
    return uv


class AffineWeylElement:
    """Element t_lambda * u with u a finite Weyl matrix on X_*(T).

    Immutable; equal and equally hashed to any element with the same
    translation and matrix, also one built by hand.  Any sequences are taken
    and stored as tuples; an entry that is not an integer is refused (1.5
    would be a length, True a 1), and so is a matrix that is not square of
    the translation's length: the walks read both with zip, which would
    truncate.  The library's own builders hold checked data and go through
    _element with an entry.  A pickle or copy holds the translation and
    the matrix, so it comes back as a plain matrix.
    """

    __slots__ = ("translation", "_u")

    def __init__(self, translation: Sequence[int], finite: Sequence[Sequence[int]]):
        translation = tuple([exact_int(x, "a translation coordinate", AffineWeylError) for x in translation])
        finite = tuple([
            tuple([exact_int(x, "a finite-part entry", AffineWeylError) for x in row]) for row in finite
        ])
        if {len(finite), *map(len, finite)} != {len(translation)}:
            raise AffineWeylError("finite part must be square, of the translation's length")
        _set_translation(self, translation)
        _set_u(self, _Finite(finite))

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
    return _element((0,) * rd.rank, _context(rd).one)


def translation_element(lam: Sequence[int], rd: RootDatum) -> AffineWeylElement:
    if len(lam) != rd.rank:
        raise AffineWeylError("translation has the wrong rank")
    lam = tuple(exact_int(x, "a translation coordinate", AffineWeylError) for x in lam)
    return _element(lam, _context(rd).one)


def _check_rank(rank: int, datum_rank: int) -> None:
    """Refuse an element of one rank that meets a datum (or a sigma) of another."""
    if rank != datum_rank:
        raise AffineWeylError(f"an element of rank {rank} met a datum of rank {datum_rank}")


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

    Nothing is applied when mu = 0 (a finite right factor such as s_i).
    For an entry u and a positive coroot mu = b_k^vee of its datum (s_0,
    s_(b,1)), u mu = +-b_j^vee where u's permutation holds k (+) or ~k (-);
    any other mu meets the matrix.
    """
    lam, mu = a.translation, b.translation
    if len(lam) != len(mu):
        raise AffineWeylError("rank mismatch in multiplication")
    u, ctx = a._u, a._u.ctx
    if any(mu):
        k = ctx and ctx.coroot_index.get(mu)
        if k is None:
            lam = tuple([x + sum(map(_times, row, mu)) for x, row in zip(lam, u.matrix)])
        else:
            m = k if k in u.perm else ~k
            lam = tuple(map(add if m >= 0 else sub, lam, ctx.rd.positive_coroots[u.perm.index(m)]))
    return _element(lam, _product(u, b._u))


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
    """The simple reflection s_i as a group element; AffineWeylError unless 0 <= i < semisimple rank."""
    gens = _context(rd).gens
    return gens[len(gens) - rd.semisimple_rank + _checked_index(i, rd.semisimple_rank)]


def _checked_index(i: int, n: int) -> int:
    """i, once checked to be an integer in range(n); else AffineWeylError."""
    if not 0 <= exact_int(i, "a generator index", AffineWeylError) < n:
        raise AffineWeylError(f"generator index {i} out of range")
    return i


_Wall = namedtuple("_Wall", "root coroot k affine row")


class _Context:
    """The affine Weyl group of one datum, built once by _context(rd).

    walls and gens list the affine simple reflections, one affine node per
    component first.  A wall (root, coroot, k, affine, row) is
    <x, root> = 1 for a component's highest root when affine is true and
    <x, root> = 0 for a simple root otherwise; k is the position of root in
    rd.positive_roots.  The height of a root is read from its pairing with
    the sum of the positive coroots (2 rho^vee); a root lies in the
    component that holds every simple coroot it pairs non-trivially with.
    row[j] = <a^vee, r_j> for the root r_j of the j-th wall, read from the
    coroot and the roots (on GSp the matrix is not symmetric): _walk moves
    the pairings of lambda with the wall roots by it.

    perm(u) is the signed permutation of rd.positive_roots by an entry u:
    perm[j] is m, or ~m for a negative root, where u^-1(b_j) = +-b_m, so
    u^-1(b_j) < 0 exactly when perm[j] < 0.  The permutation of uv is
    compose(perm(u), perm(v)).  On W_0 it determines u, so it keys the
    entries this context made (entry): one, the reflections, products of
    two (product) and sigma-conjugates (conjugate).  perm reads that of
    any other finite part off its matrix, which may lie outside W_0: GL2's
    flip permutes the positive roots like the identity.  negated[x] = ~x
    for -#roots <= x < #roots, one int object per value for all
    permutations composed here.  reflections holds the entry of s_b for
    each positive root b, in the order of rd.positive_roots; the gens
    reuse those of the wall roots.  A reflection s_(b,k) = t_(k b^vee) s_b
    in an affine hyperplane <x, b> = k has finite part s_b, so the finite
    part of s_(b,k) w is one product-table lookup from w's.
    """

    __slots__ = ("rd", "walls", "gens", "one", "reflections", "entries", "sigmas", "negated", "coroot_index", "__weakref__")

    def __init__(self, rd: RootDatum):
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
        self.rd = rd
        n = len(roots)
        self.coroot_index = dict(zip(coroots, range(n)))
        self.walls = tuple(
            _Wall(roots[k], coroots[k], k, j < n_affine, tuple(pairing(coroots[k], roots[m]) for m in ks))
            for j, k in enumerate(ks)
        )
        self.negated = tuple(~k for k in range(n)) + tuple(range(n - 1, -1, -1))
        self.entries: dict[tuple[int, ...], _Finite] = {}
        self.sigmas: dict[SigmaAction, Optional[tuple]] = {}
        self.one = self.entry(tuple(range(n)), identity_matrix(rd.rank))
        self.reflections = tuple(self.entry(self.read_perm(s), s) for s in map(reflection_matrix, roots, coroots))
        self.gens = tuple(
            _element(wall.coroot if wall.affine else (0,) * rd.rank, self.reflections[wall.k]) for wall in self.walls
        )

    def read_perm(self, matrix: Mat) -> tuple[int, ...]:
        """The signed permutation of a matrix u, from u^-1(b) = b u; AffineWeylError unless it permutes the roots."""
        rd = self.rd
        _check_rank(len(matrix), rd.rank)
        try:
            return tuple([rd._root_index[vec_mat(root, matrix)] for root in rd.positive_roots])
        except KeyError:
            raise AffineWeylError("covector is not a root of the datum") from None

    def perm(self, u: _Finite) -> tuple[int, ...]:
        """u's signed permutation: its own if this context made u, else read_perm's."""
        return u.perm if u.ctx is self else self.read_perm(u.matrix)

    def compose(self, p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        """The permutation of uv from p of u and q of v: (uv)^-1 b_j = v^-1(+-b_m) for m = p[j]."""
        negated = self.negated
        return tuple([q[m] if m >= 0 else negated[q[~m]] for m in p])

    def entry(self, perm: tuple[int, ...], *factors: Mat) -> _Finite:
        """The entry under perm; on a miss it is made, with the product of the factors (in W_0) as its matrix."""
        u = self.entries.get(perm)
        if u is None:
            u = self.entries.setdefault(perm, _Finite(reduce(mat_mul, factors), self, perm))
        return u

    def product(self, u: _Finite, v: _Finite) -> _Finite:
        """The entry of uv for two entries this context made."""
        return self.entry(self.compose(u.perm, v.perm), u.matrix, v.matrix)

    def conjugate(self, sigma: SigmaAction, u: _Finite) -> Optional[_Finite]:
        """The entry of S u S^-1 for an entry u made here, its permutation relabelled by S's (tau).

        sigmas keeps tau and tau^-1 per sigma, read once it passes
        sigma_generator_permutation, or None, the answer too, if it fails.
        """
        if sigma not in self.sigmas:
            try:
                sigma_generator_permutation(self.rd, sigma)
            except AffineWeylError:
                self.sigmas[sigma] = None
            else:
                self.sigmas[sigma] = self.read_perm(sigma.matrix), self.read_perm(sigma.matrix_inv)
        taus = self.sigmas[sigma]
        if taus is None:
            return None
        perm = self.compose(self.compose(taus[0], u.perm), taus[1])
        return self.entry(perm, sigma.matrix, u.matrix, sigma.matrix_inv)


class _Contexts(dict):
    """rd -> its _Context, made on first use."""

    def __missing__(self, rd: RootDatum) -> _Context:
        return self.setdefault(rd, _Context(rd))


_CONTEXTS = _Contexts()
_context = _CONTEXTS.__getitem__


def _drop_contexts() -> None:
    """Drop the contexts; a held entry becomes a plain matrix, keeping no other entry or context alive."""
    for ctx in _CONTEXTS.values():
        for u in ctx.entries.values():
            u.ctx = u.perm = None
            u.products.clear()
    _CONTEXTS.clear()


def iwahori_generators(rd: RootDatum) -> tuple[AffineWeylElement, ...]:
    """The affine simple reflections, one affine node per component first.

    For an irreducible datum the list is (s0, s1, .., sr) with s0 the
    reflection in the wall <x, theta> = 1 and s1..sr the finite simple
    reflections.
    """
    return _context(rd).gens


def is_left_descent(rd: RootDatum, w: AffineWeylElement, i: int) -> bool:
    """Whether the i-th affine simple reflection s satisfies l(sw) < l(w).

    That holds exactly when the wall of s separates the base alcove A from
    w(A).  For w = t_lambda u and a positive root a, w(A) lies in the strip
    d < <x, a> < d + 1, d = <lambda, a> - [u^-1(a) < 0].  So s is a
    descent iff d < 0 at a finite wall <x, a_i> = 0, and iff d > 0 at the
    affine wall <x, theta> = 1 of a component (_descents, _walk).  An
    index outside the generators raises AffineWeylError.

    >>> from affweyl.root_datum import build_root_datum
    >>> rd = build_root_datum({"preset": "GL", "n": 2})
    >>> s0, s1 = iwahori_generators(rd)
    >>> is_left_descent(rd, s1, 1)
    True
    >>> is_left_descent(rd, translation_element((1, -1), rd), 0)
    True
    """
    i = _checked_index(i, len(_context(rd).walls))
    return _descents(rd, w, (i,))[0] != 0


def _descents(rd: RootDatum, w: AffineWeylElement, indices: Optional[Iterable[int]] = None) -> tuple[int, int]:
    """Masks (left, right): bit i set when l(s_i w) < l(w), resp. l(w s_i) < l(w).

    For i in indices, all walls when None.  Left is _walk's test at the
    wall; right reads s = s_a as a left descent of w^-1, pairing with a as
    -<lambda, u(a)>: u(a) = +-b_j where u's permutation holds k (+) or ~k (-).
    """
    ctx = _context(rd)
    lam, perm = w.translation, ctx.perm(w._u)
    left = right = 0
    for i in range(len(ctx.walls)) if indices is None else indices:
        root, _, k, affine, _ = ctx.walls[i]
        d = sum(map(_times, lam, root)) - (perm[k] < 0)
        if d > 0 if affine else d < 0:
            left |= 1 << i
        m = k if k in perm else ~k
        p = sum(map(_times, lam, rd.positive_roots[perm.index(m)]))
        d = p - 1 if m < 0 else -p
        if d > 0 if affine else d < 0:
            right |= 1 << i
    return left, right


def _walk(ctx: _Context, w: AffineWeylElement, word: Iterable, steps: int, slack: int) -> Optional[tuple]:
    """The left-descent walk of w under reduced_word and bruhat_leq.

    At each place of word (wall indices), until it has taken `steps`
    steps, it steps through the first wall whose s is a left descent of
    what is left, t_lambda u (is_left_descent); a place with no step
    spends one of slack, and past it gives None.  s = t_(e a^vee) s_a
    (e = 1 if affine, else 0) gives t_(lambda + c a^vee) s_a u with
    c = e - <lambda, a>: the wall-root pairings move by c times the wall's
    row and c joins the wall's sum.  Returns (the walls stepped,
    lambda + sum of c_i a_i^vee, u, its perm).
    """
    walls = ctx.walls
    lam, u = w.translation, w._u
    perm = ctx.perm(u)
    pairs = [sum(map(_times, lam, wall.root)) for wall in walls]
    sums = [0] * len(walls)
    taken = []
    for place in word:
        if len(taken) == steps:
            break
        for i in place:
            _, _, k, affine, row = walls[i]
            p = pairs[i]
            d = p - (perm[k] < 0)
            if d > 0 if affine else d < 0:
                c = affine - p
                if c:
                    sums[i] += c
                    pairs = [x + c * y for x, y in zip(pairs, row)]
                s = ctx.reflections[k]
                u = _product(s, u)
                perm = u.perm if u.ctx is ctx else ctx.compose(s.perm, perm)
                taken.append(i)
                break
        else:
            slack -= 1
            if slack < 0:
                return None
    for c, wall in zip(sums, walls):
        if c:
            lam = [x + c * y for x, y in zip(lam, wall.coroot)]
    return taken, tuple(lam), u, perm


@lru_cache(maxsize=None)
def length(rd: RootDatum, w: AffineWeylElement) -> int:
    """Iwahori-Matsumoto length l(t_lambda u).

    Sum over positive roots a of |<lambda, a> - s_a|, where s_a is 1 when
    u^-1(a) is negative (a negative entry of u's permutation) and 0 otherwise.
    """
    lam = w.translation
    return sum(
        abs(sum(map(_times, lam, root)) - (m < 0))
        for root, m in zip(rd.positive_roots, _context(rd).perm(w._u))
    )


@lru_cache(maxsize=None)
def reduced_word(rd: RootDatum, w: AffineWeylElement) -> tuple[tuple[int, ...], AffineWeylElement]:
    """Greedy reduced word and the length-zero remainder.

    Returns (letters, omega) with w equal to the product of the listed
    generators times omega, len(letters) == length(w) and length(omega) == 0.
    Each of the length(w) steps strips the first generator that is a left
    descent of what is left (_walk, every wall listed at each place, no
    slack); a walk that finds no descent, or an omega of positive length,
    is refused: either means a wrongly claimed descent.
    """
    ctx = _context(rd)
    lw = length(rd, w)
    walk = _walk(ctx, w, [range(len(ctx.walls))] * lw, lw, 0)
    omega = walk and _element(walk[1], walk[2])
    if omega is None or length(rd, omega) != 0:
        raise AffineWeylError("greedy descent did not end at length zero; descent test and length disagree")
    return tuple(walk[0]), omega


def omega_part(rd: RootDatum, w: AffineWeylElement) -> AffineWeylElement:
    return reduced_word(rd, w)[1]


def kottwitz(rd: RootDatum, w: AffineWeylElement) -> Vec:
    """Class of the translation part in pi_1 = X_*(T) / coroot lattice."""
    _check_rank(len(w.translation), rd.rank)
    return fundamental_group(rd).project(w.translation)


def omega_rep(rd: RootDatum, lam: Sequence[int]) -> AffineWeylElement:
    """The unique length-zero element whose Kottwitz class is that of lam."""
    return omega_part(rd, translation_element(lam, rd))


def bruhat_leq(rd: RootDatum, v: AffineWeylElement, w: AffineWeylElement) -> bool:
    """Bruhat order, with elements comparable only in one Omega coset.

    A v at least as long as w lies below it only if v = w.  Otherwise v
    walks the greedy reduced word of w with the lifting property: for a
    left descent s of w, v <= w iff sv <= sw when s is a descent of v and
    iff v <= sw otherwise.  At the end, sw is the Omega part of w, which v
    lies below only if equal to it (v's steps lie in W_a, so this also
    rejects a v of another Omega coset).  _walk spends slack l(w) - l(v)
    where v does not step, and stops once v reaches Omega.
    """
    letters, omega = reduced_word(rd, w)
    lv = length(rd, v)
    if lv >= len(letters):
        return v == w
    walk = _walk(_context(rd), v, zip(letters), lv, len(letters) - lv)
    return walk is not None and walk[1] == omega.translation and walk[2].matrix == omega.finite


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
    """Finite-order lattice automorphism S, acting on W by sigma_apply; it is its matrix alone.

    Construction checks what needs no datum (integer entries, a square
    matrix, order at most 2520, which makes it invertible over the integers)
    and derives the order o and S^-1 = S^(o-1), the last power before the
    identity, with no elimination; a matrix of no such order is eliminated
    only to say whether it is invertible.  Equality and hash read the matrix
    only.  It holds no datum, so make_sigma and each entry point taking a
    datum run the diagram check.
    """

    matrix: Mat
    matrix_inv: Mat = field(init=False, repr=False, compare=False)
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = tuple(tuple(exact_int(x, "an automorphism entry", AffineWeylError) for x in row) for row in self.matrix)
        if any(len(row) != len(m) for row in m):
            raise AffineWeylError("automorphism matrix is not square")
        one = identity_matrix(len(m))
        m_inv, power, order = one, m, 1
        while power != one:
            m_inv, power = power, mat_mul(power, m)
            order += 1
            if order > 2520:
                try:
                    mat_inverse(m)
                except ValueError as exc:
                    raise AffineWeylError("automorphism matrix is not invertible over the integers") from exc
                raise AffineWeylError("automorphism does not have small finite order")
        for name, value in (("matrix", m), ("matrix_inv", m_inv), ("order", order)):
            object.__setattr__(self, name, value)


def make_sigma(rd: RootDatum, matrix: Sequence[Sequence[int]]) -> SigmaAction:
    """Validate a lattice automorphism as a diagram automorphism of rd.

    SigmaAction checks that the integer matrix is invertible over Z and of
    finite order; here it must also permute the simple coroots and act
    compatibly on the simple roots (the check sigma_generator_permutation
    reads pi off).  This is exactly the condition for the induced map on W
    to preserve the base alcove and permute the affine simple reflections.
    """
    sigma = SigmaAction(matrix)
    sigma_generator_permutation(rd, sigma)
    return sigma


def sigma_identity(rd: RootDatum) -> SigmaAction:
    return SigmaAction(identity_matrix(rd.rank))


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
    """sigma(t_lambda u) = t_(S lambda) S u S^-1, the one place sigma meets an element.

    S u S^-1 lies in W_0 when u does: the entry made by u's context
    (_Context.conjugate) when sigma is a diagram automorphism of its datum,
    else a plain matrix, by mat_mul.  sigma = id returns w itself.
    """
    _check_rank(len(w.translation), len(sigma.matrix))
    if sigma.order == 1:
        return w
    s, u = sigma.matrix, w._u
    ctx = u.ctx
    su = ctx.conjugate(sigma, u) if ctx is not None else None
    if su is None:
        su = _Finite(mat_mul(s, mat_mul(u.matrix, sigma.matrix_inv)))
    return _element(mat_vec(s, w.translation), su)


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
    """How sigma permutes rd's affine simple reflections, read off its diagram check; no product is taken.

    AffineWeylError naming the matrix and rd unless sigma is a diagram
    automorphism: S must send each simple coroot a_i^vee to some a_j^vee,
    compatibly with the simple roots; the finite node n_affine + i then goes
    to n_affine + j.  S maps a component onto one, its highest root to the
    highest root there, so a component's affine node goes to that of the
    component holding the image of its first node.  A SigmaAction holds no
    datum, so each public entry point taking a datum and a sigma calls this
    once.
    """
    m = sigma.matrix

    def refused(reason: str) -> AffineWeylError:
        return AffineWeylError(f"sigma {m} is not a diagram automorphism of {rd.type_label}: {reason}")

    if len(m) != rd.rank or any(len(row) != rd.rank for row in m):
        raise refused("automorphism matrix has the wrong shape")
    perm = []
    for i, coroot in enumerate(rd.simple_coroots):
        image = mat_vec(m, coroot)
        if image not in rd.simple_coroots:
            raise refused(f"automorphism does not permute the simple coroots (image of coroot {i})")
        j = rd.simple_coroots.index(image)
        if vec_mat(rd.simple_roots[j], m) != rd.simple_roots[i]:
            raise refused(f"automorphism is not compatible with the pairing at simple root {i}")
        perm.append(j)
    if sorted(perm) != list(range(rd.semisimple_rank)):
        raise refused("automorphism does not permute the simple coroots bijectively")
    comps = rd.components()
    comp_of = {i: c for c, comp in enumerate(comps) for i in comp}
    return tuple(comp_of[perm[comp[0]]] for comp in comps) + tuple(len(comps) + j for j in perm)


# ---------------------------------------------------------------------------
# Parahoric levels and double cosets


@dataclass(frozen=True)
class ParahoricLevel:
    """A subset K of the affine simple reflections with W_K finite; it holds no datum (see _checked_level)."""

    generators: tuple[int, ...]

    @staticmethod
    def iwahori() -> "ParahoricLevel":
        return ParahoricLevel(())


def _checked_level(rd: RootDatum, indices: Iterable[int]) -> tuple[int, ...]:
    """The sorted generator indices of a level on rd; AffineWeylError unless W_K is finite there.

    A ParahoricLevel holds no datum, so each public entry point taking a datum and a level calls this once.
    """
    n_gens = len(iwahori_generators(rd))
    idx = tuple(sorted({_checked_index(i, n_gens) for i in indices}))
    n_comps = len(rd.components())
    for c, comp in enumerate(rd.components()):
        if {c, *(n_comps + i for i in comp)} <= set(idx):
            raise AffineWeylError("level contains every node of an affine component; W_K would be infinite")
    return idx


def make_level(rd: RootDatum, indices: Iterable[int], sigma: Optional[SigmaAction] = None) -> ParahoricLevel:
    idx = _checked_level(rd, indices)
    if sigma is not None:
        perm = sigma_generator_permutation(rd, sigma)
        if {perm[i] for i in idx} != set(idx):
            raise AffineWeylError("level is not sigma-stable")
    return ParahoricLevel(idx)


def double_coset_rep(rd: RootDatum, w: AffineWeylElement, level: ParahoricLevel) -> AffineWeylElement:
    """Minimal-length element of W_K w W_K: shorten w while some s in K does.

    Each step takes the lowest left descent in K, else the lowest right
    one (_descents); the minimal element is unique, so the order does not
    matter.  Each step shortens w by one, so more than l(w) steps mean a
    wrong descent.
    """
    idx = _checked_level(rd, level.generators)
    gens = iwahori_generators(rd)
    for _ in range(length(rd, w) + 1):
        left, right = _descents(rd, w, idx)
        if left:
            w = mul(gens[next(_bits(left))], w)
        elif right:
            w = mul(w, gens[next(_bits(right))])
        else:
            return w
    raise AffineWeylError("a descent in K did not shorten; descent test and length disagree")


def element_sort_key(rd: RootDatum, w: AffineWeylElement):
    """Deterministic ordering: length, then translation, then finite part."""
    return (length(rd, w), w.translation, w.finite)
