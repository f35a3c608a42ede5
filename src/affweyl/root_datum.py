"""Based root data for split reductive groups, with exact arithmetic.

A RootDatum fixes a cocharacter lattice Z^rank together with simple roots
(covectors) and simple coroots (vectors).  Positive roots and coroots are
generated at build time by reflection closure, picked out by integer forms
(|det A| times the fundamental weights) and stored as matched lists:
positive_roots[k] is the root whose coroot is positive_coroots[k].  The
datum of a closed subsystem, such as a Levi, is derived from its parent's
positive roots instead (sub_datum), with the forms of its simple system.

Finite type is read off the theory, not searched for: a non-singular
Cartan matrix is of finite type exactly when its Weyl group, hence its
reflection closure, is finite (Kac, Infinite-dimensional Lie algebras,
ch. 4); see _reflection_closure and _fundamental_forms.

Data are canonical: _build and sub_datum finish in _assemble, which returns
the one instance per seven fields from a weak table, so equal data are one
object, equality and hashing are identity; clear_caches() leaves the table.
_canonical is the only constructor: RootDatum(...) called directly raises.

Presets cover GL(n), SL(n), PGL(n) and GSp(2g); arbitrary finite-type data
can be supplied explicitly.  The pairing between X_*(T) and X^*(T) is the
standard dot product in the chosen coordinates.

Walks in the finite Weyl group (dominant_rep, weyl_orbit) carry the simple
pairings c_i = <lam, alpha_i> of a point (weyl_orbit the point as well).
The Cartan matrix is stored as A[i][j] = <alpha_j^vee, alpha_i>, so
s_j(lam) = lam - c_j alpha_j^vee has pairings c_i - c_j A[i][j]: one
column of A per step, not a fresh pairing with every simple root.  A is
not symmetric outside the simply laced types (GSp, B2, G2), and the index
order matters there.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul as _times, sub as _minus
from typing import Mapping, Optional, Sequence, Union

from .linalg import (
    Vec,
    hermite_row_form,
    mat_mul,
    mat_vec,
    scaled_inverse,
    smith_normal_form,
    vec_mat,
)

Coords = Union[Sequence[int], Sequence[Fraction]]


class RootDatumError(ValueError):
    """Invalid root datum input."""


def pairing(cochar: Coords, root: Coords):
    """The canonical pairing <cocharacter, character>."""
    if len(cochar) != len(root):
        raise RootDatumError("rank mismatch in pairing")
    return sum(map(_times, cochar, root))


def _pairings(lam: Coords, roots: Sequence[Vec], rd: RootDatum) -> list:
    """[<lam, a> for a in roots], after checking that lam has the rank of rd."""
    if len(lam) != rd.rank:
        raise RootDatumError("rank mismatch in pairing")
    return [sum(map(_times, lam, a)) for a in roots]


@dataclass(frozen=True, eq=False)
class RootDatum:
    """Compared and hashed by identity: one canonical instance per datum, also after pickling.

    Built only by build_root_datum and sub_datum (through _canonical); a
    direct call, or dataclasses.replace, raises RootDatumError.
    """

    rank: int
    type_label: str
    simple_roots: tuple[Vec, ...]
    simple_coroots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]
    positive_coroots: tuple[Vec, ...]
    cartan_matrix: tuple[Vec, ...]

    def __post_init__(self):
        if not getattr(_MINTING, "on", False):
            raise RootDatumError("a RootDatum is built by build_root_datum or sub_datum, not directly")

    def __reduce__(self):
        return _canonical, tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    @cached_property
    def _forms(self) -> tuple[int, tuple[Vec, ...]]:
        return _fundamental_forms(self.simple_roots, self.cartan_matrix)

    @cached_property
    def _root_index(self) -> dict[Vec, int]:
        """positive_roots[k] -> k and its negative -> ~k, so a root's sign is its index's."""
        index = {root: k for k, root in enumerate(self.positive_roots)}
        index.update((tuple([-x for x in root]), ~k) for k, root in enumerate(self.positive_roots))
        return index

    def coroot_height(self, coroot: Coords) -> Fraction:
        """Sum of the coefficients of a coroot over the simple coroots.

        >>> gl3 = build_root_datum({"preset": "GL", "n": 3})
        >>> gl3.coroot_height((1, 0, -1))
        Fraction(2, 1)
        """
        scaled = _scaled_coords(self._forms, self.simple_coroots, coroot)
        if scaled is None:
            raise RootDatumError("vector is not in the span of the simple coroots")
        return Fraction(sum(scaled), self._forms[0])

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the Dynkin diagram, as index tuples."""
        return self._components

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        n = self.semisimple_rank
        seen: set[int] = set()
        comps = []
        for start in range(n):
            if start in seen:
                continue
            stack, comp = [start], []
            while stack:
                i = stack.pop()
                if i in seen:
                    continue
                seen.add(i)
                comp.append(i)
                for j in range(n):
                    if j not in seen and self.cartan_matrix[i][j] != 0:
                        stack.append(j)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)


def _cartan_from_data(simple_roots, simple_coroots) -> tuple[Vec, ...]:
    return tuple(tuple([sum(map(_times, cv, rt)) for cv in simple_coroots]) for rt in simple_roots)


def _check_cartan(cartan: Sequence[Sequence[int]]) -> None:
    """Generalized Cartan matrix shape; finite type is left to the closure and the forms."""
    n = len(cartan)
    for i in range(n):
        if cartan[i][i] != 2:
            raise RootDatumError(f"Cartan diagonal entry A[{i}][{i}] = {cartan[i][i]} != 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise RootDatumError(
                        f"Cartan off-diagonal entry A[{i}][{j}] = {cartan[i][j]} > 0"
                    )
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise RootDatumError(f"Cartan zero pattern is not symmetric at ({i},{j})")


def _fundamental_forms(simple_roots, cartan) -> tuple[int, tuple[Vec, ...]]:
    """(d, d * varpi_i) with d = |det A|, as rows of d * A^-1 times the simple roots.

    cartan[j][i] = <alpha_i^vee, alpha_j>, so <v, d * varpi_i> = d * c_i
    when v = sum_i c_i alpha_i^vee.  A singular Cartan matrix raises
    RootDatumError: with a finite reflection closure, non-singularity is
    what finite type still needs.
    """
    try:
        d, scaled = scaled_inverse(cartan)
    except ValueError:
        raise RootDatumError("Cartan matrix is not of finite type: it is singular") from None
    return d, mat_mul(scaled, simple_roots)


def _scaled_coords(forms, simple_coroots, v: Sequence[int]) -> Optional[Vec]:
    """d * c for the coefficients c of v, or None if sum c_i alpha_i^vee != v.

    d * c is read off the forms, one pairing each; the check d * v =
    sum_i (d * c_i) alpha_i^vee is one row combination of the simple coroots
    (vec_mat), which skips the zero coefficients.
    """
    d, covectors = forms
    scaled = mat_vec(covectors, v)
    back = vec_mat(scaled, simple_coroots) if simple_coroots else (0,) * len(v)
    return scaled if back == tuple([d * x for x in v]) else None


_CANONICAL: weakref.WeakValueDictionary[tuple, RootDatum] = weakref.WeakValueDictionary()
_CANONICAL_LOCK = threading.Lock()
# set by _canonical, under its lock, around the one constructor call it makes
_MINTING = threading.local()


def _canonical(*fields) -> RootDatum:
    with _CANONICAL_LOCK:
        datum = _CANONICAL.get(fields)
        if datum is None:
            _MINTING.on = True
            try:
                datum = _CANONICAL[fields] = RootDatum(*fields)
            finally:
                _MINTING.on = False
        return datum


def _assemble(rank, label, simple_roots, simple_coroots, cartan, positives) -> RootDatum:
    """The canonical datum with positives (height key, coroot, root) sorted by key, then coroot."""
    _, coroots, roots = zip(*sorted(positives)) if positives else ((), (), ())
    return _canonical(rank, label, tuple(simple_roots), tuple(simple_coroots), roots, coroots, cartan)


def _reflection_closure(simple_roots, simple_coroots):
    """All (root, coroot) pairs of the system, by closing under reflections.

    A finite root system of semisimple rank s has at most 4 s^2 roots: A_s
    has s(s+1), B_s and C_s 2s^2, D_s 2s(s-1), and E6, E7, E8, F4, G2 have
    72, 126, 240, 48, 12 (Bourbaki, Lie Groups and Lie Algebras, ch. VI,
    Plates I-IX; E8 is the tight case), and for a product the sum of the
    4 s_i^2 is at most 4 (sum s_i)^2.  A closure that outgrows the bound
    is infinite, so the Cartan matrix is not of finite type.
    """
    bound = 4 * len(simple_roots) ** 2
    pairs = set(zip(simple_roots, simple_coroots))
    frontier = set(pairs)
    while frontier:
        new = set()
        for root, coroot in frontier:
            for a, av in zip(simple_roots, simple_coroots):
                p, q = sum(map(_times, av, root)), sum(map(_times, coroot, a))
                cand = (
                    tuple([r - p * s for r, s in zip(root, a)]),
                    tuple([c - q * s for c, s in zip(coroot, av)]),
                )
                if cand not in pairs:
                    new.add(cand)
        pairs |= new
        frontier = new
        if len(pairs) > bound:
            raise RootDatumError(
                f"Cartan matrix is not of finite type: the reflection closure "
                f"exceeds 4 s^2 = {bound} roots"
            )
    return pairs


def build_root_datum(spec: Mapping) -> RootDatum:
    """Build a datum from a preset record or explicit simple roots/coroots.

    Presets: {"preset": "GL"|"SL"|"PGL"|"GSp", "n": int}.  Explicit:
    {"rank": int, "simple_roots": [[...]], "simple_coroots": [[...]]}.
    Sizes and coordinates must be ints (not bools, floats or strings);
    a spec of any other shape raises RootDatumError.
    """
    if not isinstance(spec, Mapping):
        raise RootDatumError(f"group spec must be a mapping, not {type(spec).__name__}")
    if "preset" in spec:
        preset = spec["preset"]
        n = exact_int(_spec_field(spec, "n"), "n")
        if preset == "GL":
            return _build(_gl_data(n), f"GL{n}", n * (n - 1) // 2)
        if preset == "SL":
            return _build(_sl_data(n), f"SL{n}", n * (n - 1) // 2)
        if preset == "PGL":
            return _build(_pgl_data(n), f"PGL{n}", n * (n - 1) // 2)
        if preset == "GSp":
            if n % 2 != 0 or n < 2:
                raise RootDatumError("GSp preset needs an even n >= 2")
            return _build(_gsp_data(n // 2), f"GSp{n}", (n // 2) ** 2)
        raise RootDatumError(f"unknown preset {preset!r}")
    rank = exact_int(_spec_field(spec, "rank"), "rank")
    if rank < 0:
        raise RootDatumError(f"rank must be non-negative, not {rank}")
    roots = _spec_vectors(spec, "simple_roots")
    coroots = _spec_vectors(spec, "simple_coroots")
    label = str(spec.get("label", f"custom(rank={rank})"))
    return _build((rank, roots, coroots), label)


def _spec_field(spec: Mapping, key: str):
    if key not in spec:
        raise RootDatumError(f"missing field {key!r} in group spec")
    return spec[key]


def exact_int(value, what: str, error: type[ValueError] = RootDatumError) -> int:
    # refused rather than converted: int() would truncate 1.5 and accept "1" and True
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, not {value!r}")
    return value


def _spec_vectors(spec: Mapping, key: str) -> list[Vec]:
    value = _spec_field(spec, key)
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, (list, tuple)) for v in value):
        raise RootDatumError(f"{key} must be a list of integer lists")
    return [tuple(exact_int(x, f"an entry of {key}") for x in v) for v in value]


def _build(data, label: str, expected: Optional[int] = None) -> RootDatum:
    """The datum of (rank, simple roots, simple coroots), with `expected` positive roots if given."""
    rank, roots, coroots = data
    if len(roots) != len(coroots):
        raise RootDatumError("simple root and coroot lists differ in length")
    for v in list(roots) + list(coroots):
        if len(v) != rank:
            raise RootDatumError("coroots not in the lattice: wrong coordinate length")
    cartan = _cartan_from_data(roots, coroots)
    _check_cartan(cartan)
    pairs = _reflection_closure(tuple(roots), tuple(coroots))
    forms = _fundamental_forms(roots, cartan)
    positives = []
    for root, coroot in pairs:
        scaled = _scaled_coords(forms, coroots, coroot)
        if scaled is None:
            raise RootDatumError("closure produced a coroot outside the simple-coroot span")
        if all(c >= 0 for c in scaled):
            positives.append((sum(scaled), coroot, root))
    if 2 * len(positives) != len(pairs):
        raise RootDatumError("root system closure is not symmetric")
    datum = _assemble(rank, label, roots, coroots, cartan, positives)
    for cv in coroots:
        if cv not in datum.positive_coroots:
            raise RootDatumError("a simple coroot is missing from the positive coroots")
    if expected is not None and len(positives) != expected:
        raise RootDatumError(
            f"positive coroot count {len(positives)} != expected {expected} for {label}"
        )
    return datum


def _gl_data(n: int):
    if n < 1:
        raise RootDatumError("GL preset needs n >= 1")
    roots, coroots = [], []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
        coroots.append(tuple(v))
    return n, roots, coroots


def _sl_data(n: int):
    # X_*(T) in the basis of the simple coroots themselves
    if n < 2:
        raise RootDatumError("SL preset needs n >= 2")
    r = n - 1
    cartan = _type_a_cartan(r)
    coroots = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    roots = [tuple(cartan[i]) for i in range(r)]
    return r, roots, coroots


def _pgl_data(n: int):
    # X_*(T) in the basis of the fundamental coweights
    if n < 2:
        raise RootDatumError("PGL preset needs n >= 2")
    r = n - 1
    cartan = _type_a_cartan(r)
    roots = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    coroots = [tuple(cartan[i][j] for i in range(r)) for j in range(r)]
    return r, roots, coroots


def _type_a_cartan(r: int):
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
        for i in range(r)
    ]


def _gsp_data(g: int):
    # coordinates (a_1, .., a_g, c) on the similitude-extended lattice
    if g < 1:
        raise RootDatumError("GSp preset needs 2n >= 2")
    rank = g + 1
    roots, coroots = [], []
    for i in range(g - 1):
        rt = [0] * rank
        rt[i], rt[i + 1] = 1, -1
        roots.append(tuple(rt))
        coroots.append(tuple(rt))
    long_rt = [0] * rank
    long_rt[g - 1], long_rt[g] = 2, -1
    long_cv = [0] * rank
    long_cv[g - 1] = 1
    roots.append(tuple(long_rt))
    coroots.append(tuple(long_cv))
    return rank, roots, coroots


def is_dominant(lam: Coords, rd: RootDatum) -> bool:
    return all(c >= 0 for c in _pairings(lam, rd.simple_roots, rd))


def simple_reflection(lam: Coords, i: int, rd: RootDatum):
    if len(lam) != rd.rank:
        raise RootDatumError("rank mismatch in pairing")
    c = sum(map(_times, lam, rd.simple_roots[i]))
    return tuple([x - c * y for x, y in zip(lam, rd.simple_coroots[i])])


def _reflect(v: tuple, pairs: list, j: int, rd: RootDatum) -> tuple[tuple, list]:
    """s_j(v) and its simple pairings, from v and its simple pairings.

    s_j(v) = v - c_j alpha_j^vee and A[i][j] = <alpha_j^vee, alpha_i>, so
    the pairings change by one column of the Cartan matrix,
    c_i - c_j A[i][j]: O(rank) per step instead of rank fresh pairings.
    """
    cj = pairs[j]
    return (
        tuple([x - cj * y for x, y in zip(v, rd.simple_coroots[j])]),
        [c - cj * row[j] for c, row in zip(pairs, rd.cartan_matrix)],
    )


def dominant_rep(lam: Coords, rd: RootDatum) -> tuple[tuple, tuple[int, ...]]:
    """Dominant representative of the finite Weyl orbit, plus the word used.

    The word lists simple reflection indices in application order: folding
    them over the input, left to right, yields the dominant vector.  Each
    step reflects in the first simple root i with <lam, alpha_i> < 0.
    lam is paired with the simple roots once and only the pairings walk,
    by one column of the Cartan matrix per step (as in _reflect); the
    vector moves once at the end, by the summed steps c_j alpha_j^vee.  So
    the vector and the word are those of pairing every point afresh.
    """
    pairs = _pairings(lam, rd.simple_roots, rd)
    steps = [0] * len(pairs)
    word: list[int] = []
    while True:
        for j, c in enumerate(pairs):
            if c < 0:
                break
        else:
            if not word:
                # already dominant; a torus, with no simple coroots to combine, always is
                return tuple(lam), ()
            return tuple([x - y for x, y in zip(lam, vec_mat(steps, rd.simple_coroots))]), tuple(word)
        steps[j] += c
        pairs = [p - c * row[j] for p, row in zip(pairs, rd.cartan_matrix)]
        word.append(j)


def dominance_leq(lam: Coords, mu: Coords, rd: RootDatum, *, integral: bool = True) -> bool:
    """Whether mu - lam is a non-negative combination of simple coroots.

    With integral=True the coefficients must be non-negative integers; with
    integral=False non-negative rationals suffice.  Inputs are compared in
    place (callers wanting the dominance order pre-apply dominant_rep).
    The difference is scaled to integers and paired with the forms of rd.

    >>> gl2, half = build_root_datum({"preset": "GL", "n": 2}), (Fraction(1, 2), Fraction(-1, 2))
    >>> dominance_leq((0, 0), half, gl2, integral=False), dominance_leq((0, 0), half, gl2)
    (True, False)
    """
    if len(lam) != len(mu) or len(lam) != rd.rank:
        raise RootDatumError("rank mismatch in dominance comparison")
    diff = [Fraction(b) - Fraction(a) for a, b in zip(lam, mu)]
    den = lcm(*(x.denominator for x in diff))
    scaled = _scaled_coords(rd._forms, rd.simple_coroots, [int(x * den) for x in diff])
    if scaled is None or any(c < 0 for c in scaled):
        return False
    # the coefficients are scaled / (d * den)
    return not integral or all(c % (rd._forms[0] * den) == 0 for c in scaled)


def weyl_orbit(lam: Coords, rd: RootDatum) -> tuple[tuple, ...]:
    """Orbit of a cocharacter under the finite Weyl group, sorted.

    Each point carries its simple pairings, updated along the search as in
    dominant_rep, so a reflection s_i with <v, alpha_i> = 0, which fixes v,
    is skipped.
    """
    start = tuple(lam)
    seen = {start}
    frontier = [(start, _pairings(lam, rd.simple_roots, rd))]
    while frontier:
        nxt = []
        for v, pairs in frontier:
            for i, c in enumerate(pairs):
                if c:
                    w, w_pairs = _reflect(v, pairs, i, rd)
                    if w not in seen:
                        seen.add(w)
                        nxt.append((w, w_pairs))
        frontier = nxt
    return tuple(sorted(seen))


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group Z^n / L in normal form.

    invariant_factors lists the cyclic orders in divisibility order with 0
    meaning an infinite cyclic factor; trivial factors are dropped.  The
    projection pairs a lattice vector with one row per factor, reducing
    modulo the factor, and its kernel is exactly the sublattice L used to
    build the group.
    """

    ambient_rank: int
    invariant_factors: tuple[int, ...]
    _rows: tuple[Vec, ...]

    def project(self, v: Coords) -> Vec:
        if len(v) != self.ambient_rank:
            raise RootDatumError("rank mismatch in fundamental group projection")
        out = []
        v = [exact_int(x, "a cocharacter coordinate") for x in v]
        for row, d in zip(self._rows, self.invariant_factors):
            x = sum(a * b for a, b in zip(row, v))
            out.append(x % d if d else x)
        return tuple(out)

    def zero(self) -> Vec:
        return tuple(0 for _ in self.invariant_factors)

    def add(self, x: Vec, y: Vec) -> Vec:
        return tuple(
            (a + b) % d if d else a + b
            for a, b, d in zip(x, y, self.invariant_factors)
        )

    def describe(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join("Z" if d == 0 else f"Z/{d}" for d in self.invariant_factors)


def quotient_group(ambient_rank: int, sublattice_columns: Sequence[Sequence[int]]) -> FinAbGroup:
    """Present Z^ambient_rank modulo the span of the given columns.

    A is the column matrix of the lattice's Hermite basis, so it depends
    only on the lattice.  With U A V = D its Smith form, row i of U
    projects onto Z/d_i; unit factors are dropped and the free rows are put
    in Hermite form, so equal lattices present identically.

    >>> g = quotient_group(2, [(2, 0)])
    >>> g.describe(), g.project((3, 5)), g.project((2, 0)) == g.zero()
    ('Z/2 x Z', (1, 5), True)
    """
    cols = [tuple(exact_int(x, "a sublattice coordinate") for x in c) for c in sublattice_columns]
    for c in cols:
        if len(c) != ambient_rank:
            raise RootDatumError("sublattice columns have the wrong length")
    basis = hermite_row_form(cols)
    mat = tuple(tuple(c[i] for c in basis) for i in range(ambient_rank))
    sf = smith_normal_form(mat)
    diag = sf.diagonal + (0,) * (ambient_rank - len(sf.diagonal))
    torsion_rows, torsion_mods, free_rows = [], [], []
    for row, d in zip(sf.u, diag):
        if d == 0:
            free_rows.append(row)
        elif d != 1:
            torsion_rows.append(tuple(x % d for x in row))
            torsion_mods.append(d)
    # canonicalize the free quotient map so equal lattices present identically
    free_rows = hermite_row_form(free_rows)
    return FinAbGroup(
        ambient_rank, tuple(torsion_mods) + (0,) * len(free_rows), tuple(torsion_rows) + free_rows
    )


@lru_cache(maxsize=None)
def fundamental_group(rd: RootDatum) -> FinAbGroup:
    """X_*(T) modulo the coroot lattice."""
    return quotient_group(rd.rank, rd.simple_coroots)


def sub_datum(rd: RootDatum, positive_root_indices: Sequence[int], label: str) -> RootDatum:
    """Root datum of a closed subsystem given by some positive roots of rd.

    The indices must name every positive root of a closed subsystem, such
    as the roots vanishing on a cocharacter (a Levi).  The simple system
    consists of the indecomposable elements: positive roots of the
    subsystem that are not sums of two of them.  The datum is derived, not
    rebuilt by _build: its positive roots and coroots are the chosen ones
    of rd, their coefficients c are read off the forms of the new simple
    system, and they are sorted as _build sorts them.  RootDatumError is
    raised unless the Cartan matrix passes _check_cartan and is
    non-singular, every coefficient is a non-negative integer with
    sum c_i alpha_i^vee equal to the coroot, and every simple reflection
    s_i maps the chosen coroots other than alpha_i^vee into the chosen set,
    so that the set is exactly the positive system of the simple coroots.
    That last check makes the finite set P u -P of chosen coroots stable
    under the simple reflections, so the Weyl group of the subsystem is
    finite and its Cartan matrix of finite type: no separate test is needed.
    """
    idx = sorted(set(positive_root_indices))
    roots = [rd.positive_roots[k] for k in idx]
    coroots = [rd.positive_coroots[k] for k in idx]
    root_set = set(roots)
    simple_r, simple_c = [], []
    for root, coroot in zip(roots, coroots):
        decomposable = any(
            tuple(map(_minus, root, other)) in root_set for other in roots if other != root
        )
        if not decomposable:
            simple_r.append(root)
            simple_c.append(coroot)
    cartan = _cartan_from_data(simple_r, simple_c)
    _check_cartan(cartan)
    forms = _fundamental_forms(simple_r, cartan)
    coroot_set = set(coroots)
    positives = []
    for root, coroot in zip(roots, coroots):
        scaled = _scaled_coords(forms, simple_c, coroot)
        if scaled is None:
            raise RootDatumError("a chosen coroot is outside the span of the simple coroots")
        if any(c < 0 or c % forms[0] for c in scaled):
            raise RootDatumError(
                "a chosen coroot is not a non-negative integer combination of the simple coroots"
            )
        for a, sc in zip(simple_r, simple_c):
            p = sum(map(_times, coroot, a))
            if coroot != sc and tuple([x - p * y for x, y in zip(coroot, sc)]) not in coroot_set:
                raise RootDatumError("the chosen positive roots are not closed under simple reflections")
        positives.append((sum(scaled), coroot, root))
    return _assemble(rd.rank, label, simple_r, simple_c, cartan, positives)
