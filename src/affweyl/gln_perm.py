"""The mu-permissible set Perm(mu) for every root datum, compared with Adm(mu).

w is mu-permissible (Kottwitz-Rapoport) when it has the Kottwitz class of
t_mu and w(a) - a lies in Conv(W mu) for every vertex a of the base alcove.
The vertices are 0 and varpi_j^vee / m_j, with varpi_j^vee the fundamental
coweights and m_j the coefficient of alpha_j in the highest root of its
component.  For a reducible datum the alcove is a product whose vertices
are sums of one vertex per component; the hull inequalities of a component
see only its own summand, so these vertices suffice.  x lies in
Conv(W mu) iff its dominant representative is below the dominant mu in
the rational dominance order.  The module keeps the path
affweyl.gln_perm, under which benchmark traces look up perm_set and
is_permissible.

Statements relied on:

- Adm(mu) is contained in Perm(mu) for every root datum and every mu
  (Haines-Ngo, "Alcoves associated to special fibers of local models",
  Amer. J. Math. 2002).
- Adm(mu) = Perm(mu) for GL_n with mu minuscule and for GSp_2n with mu
  the minuscule coweight (Kottwitz-Rapoport, "Minuscule alcoves for GL_n
  and GSp_2n", Manuscripta Math. 2000).
- Adm(mu) = Perm(mu) for GL_n and every mu; for every irreducible root
  system of rank at least 4 not of type A, some mu has Adm(mu) != Perm(mu)
  (Haines-Ngo 2002).

>>> from affweyl.root_datum import build_root_datum
>>> len(perm_set((1, 0), build_root_datum({"preset": "GL", "n": 2})))
3
>>> len(perm_set((1, 1, 1), build_root_datum({"preset": "GSp", "n": 4})))
13
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import add, sub
from typing import Callable, Sequence

from .admissible import adm
from .affine_weyl import (
    AffineWeylElement,
    _checked_mu,
    _context,
    element_sort_key,
    finite_reflection,
    word_length_map,
)
from .linalg import Mat, Vec, mat_vec
from .root_datum import (
    RootDatum,
    _fundamental_forms,
    dominance_leq,
    dominant_rep,
    fundamental_group,
    is_dominant,
    pairing,
    weyl_orbit,
)


class PermError(ValueError):
    """Invalid input to the permissibility check."""


def _alcove_vertices(rd: RootDatum) -> tuple[int, tuple[Vec, ...]]:
    """(e, the vertices of the base alcove times e), e making them integral.

    The rows d * varpi_j^vee are the forms of the dual datum; theta = sum
    m_j alpha_j gives <d * varpi_j^vee, theta> = d * m_j.  The vertex 0
    comes last.
    """
    d, coweights = _fundamental_forms(rd.simple_coroots, tuple(zip(*rd.cartan_matrix)))
    thetas = [wall.root for wall in _context(rd).walls if wall.affine]
    # alpha_j occurs only in the highest root of its own component
    m = [sum(pairing(cw, theta) for theta in thetas) // d for cw in coweights]
    scale = lcm(*m)
    vertices = [tuple(scale // mj * x for x in cw) for cw, mj in zip(coweights, m)]
    return d * scale, (*vertices, (0,) * rd.rank)


def _hull_test(mu_dom: Vec, rd: RootDatum) -> tuple[int, tuple[Vec, ...], Callable[[Vec], bool]]:
    """(e, the alcove vertices times e, a test of x in e * Conv(W mu)).

    The test keeps its answers: the candidates of perm_set share few
    distinct moved vertices.
    """
    e, vertices = _alcove_vertices(rd)
    top = tuple(e * x for x in mu_dom)
    known: dict[Vec, bool] = {}

    def in_hull(x: Vec) -> bool:
        hit = known.get(x)
        if hit is None:
            hit = known[x] = dominance_leq(dominant_rep(x, rd)[0], top, rd, integral=False)
        return hit

    return e, vertices, in_hull


def _moves(u: Mat, vertices: Sequence[Vec]) -> tuple[Vec, ...]:
    """u(a) - a for each scaled vertex a."""
    return tuple(tuple(map(sub, mat_vec(u, a), a)) for a in vertices)


def _passes(lam: Vec, moves: Sequence[Vec], e: int, in_hull: Callable[[Vec], bool]) -> bool:
    """The vertex conditions for t_lam u, given the moves of u scaled by e."""
    scaled = [e * x for x in lam]
    return all(in_hull(tuple(map(add, scaled, m))) for m in moves)


def is_permissible(w: AffineWeylElement, mu: Sequence[int], rd: RootDatum) -> bool:
    """Kottwitz class of t_mu plus the hull condition at each alcove vertex."""
    mu_dom = _checked_mu(mu, rd)
    pi1 = fundamental_group(rd)
    if pi1.project(w.translation) != pi1.project(mu_dom):
        return False
    e, vertices, in_hull = _hull_test(mu_dom, rd)
    return _passes(w.translation, _moves(w.finite, vertices), e, in_hull)


def _translations(mu_dom: Vec, rd: RootDatum) -> list[Vec]:
    """The lattice points of Conv(W mu) in the class of mu.

    Their dominant members are the dominant lambda <= mu, each reached from
    mu by subtracting positive coroots while staying dominant (Stembridge,
    the lemma stembridge_chain relies on).
    """
    dominant, frontier = {mu_dom}, [mu_dom]
    while frontier:
        nxt = []
        for lam in frontier:
            for coroot in rd.positive_coroots:
                low = tuple(map(sub, lam, coroot))
                if low not in dominant and is_dominant(low, rd):
                    dominant.add(low)
                    nxt.append(low)
        frontier = nxt
    return [lam for top in sorted(dominant) for lam in weyl_orbit(top, rd)]


def perm_set(mu: Sequence[int], rd: RootDatum) -> tuple[AffineWeylElement, ...]:
    """Perm(mu), in the order adm gives Adm(mu).

    The vertex 0 forces the translation part into Conv(W mu), so the
    candidates t_lambda u run over those translations and u in W_0.
    """
    mu_dom = _checked_mu(mu, rd)
    e, vertices, in_hull = _hull_test(mu_dom, rd)
    reflections = [finite_reflection(rd, i) for i in range(rd.semisimple_rank)]
    translations = _translations(mu_dom, rd)
    out = []
    # W_0 has no element longer than l(w_0) = |positive roots|, so the
    # radius ends the search before its size guard
    for u in word_length_map(rd, len(rd.positive_roots), reflections):
        moves = _moves(u.finite, vertices)
        out += [AffineWeylElement(lam, u.finite) for lam in translations if _passes(lam, moves, e, in_hull)]
    return tuple(sorted(out, key=lambda w: element_sort_key(rd, w)))


@dataclass(frozen=True)
class PermCheckReport:
    equal: bool
    adm_size: int
    perm_size: int
    only_in_adm: tuple[AffineWeylElement, ...]
    only_in_perm: tuple[AffineWeylElement, ...]


def adm_eq_perm_check(n: int, mu: Sequence[int], rd: RootDatum) -> PermCheckReport:
    """Compare Adm(mu) with Perm(mu) element by element; n must be rd.rank."""
    if n != rd.rank:
        raise PermError(f"n = {n} is not the rank {rd.rank} of {rd.type_label}")
    admissible = adm(mu, rd).elements
    permissible = perm_set(mu, rd)
    in_adm, in_perm = set(admissible), set(permissible)
    only_adm = tuple(w for w in admissible if w not in in_perm)
    only_perm = tuple(w for w in permissible if w not in in_adm)
    return PermCheckReport(
        equal=not only_adm and not only_perm,
        adm_size=len(admissible),
        perm_size=len(permissible),
        only_in_adm=only_adm,
        only_in_perm=only_perm,
    )
