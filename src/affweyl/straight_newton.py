"""Straight elements, Newton points, B(G, mu) and the component bound data.

A sigma-straight element has additive lengths along its twisted powers;
its Newton point is the slope vector of the first twisted power that is a
translation (with sigma back at the identity), made dominant, together
with the Kottwitz class in the sigma-coinvariants of pi_1.  Straight
classes are closed under length-preserving conjugation by simple
reflections and twisting by length-zero elements; the partition this
generates is cross-checked against the (Newton, Kottwitz) partition and
any mismatch raises.

Newton points are computed in integers: the translation of the twisted
power is made dominant and divided by m only at the end.  The
centraliser Levi of a slope vector is derived from the parent datum by
root_datum.sub_datum, which re-checks what it derives (finite-type
Cartan matrix, non-negative integer coroot coefficients read off the
same fundamental-weight forms _build uses, a positive system closed
under the simple reflections) but does not rebuild the datum by
reflection closure; it is memoised by (datum, positive-root indices),
and clear_caches() empties the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .admissible import adm
from .affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    ParahoricLevel,
    SigmaAction,
    element_sort_key,
    inv,
    is_translation,
    iwahori_generators,
    length,
    make_sigma,
    mul,
    omega_rep,
    sigma_apply,
    sigma_apply_cochar,
    translation_element,
)
from .linalg import hasse_diagram, integer_kernel, mat_vec
from .root_datum import (
    FinAbGroup,
    RootDatum,
    dominance_leq,
    dominant_rep,
    pairing,
    quotient_group,
    sub_datum,
)
from .stembridge import minuscule_lift


class ConsistencyError(RuntimeError):
    """A structural identity the library relies on failed on real data."""


@dataclass(frozen=True)
class NewtonPoint:
    """Dominant slope vector plus Kottwitz class in the coinvariants."""

    nu: tuple[Fraction, ...]
    denominator: int
    kappa: tuple[int, ...]


@lru_cache(maxsize=None)
def pi1_coinvariants(rd: RootDatum, sigma: SigmaAction) -> FinAbGroup:
    """pi_1 modulo the augmentation image of sigma (trivial for sigma = id)."""
    cols = list(rd.simple_coroots)
    n = rd.rank
    for j in range(n):
        col = tuple(sigma.matrix[i][j] - (1 if i == j else 0) for i in range(n))
        if any(col):
            cols.append(col)
    return quotient_group(n, cols)


def twisted_power(rd: RootDatum, sigma: SigmaAction, w: AffineWeylElement) -> tuple[int, AffineWeylElement]:
    """Smallest m with sigma^m = 1 and w sigma(w)..sigma^(m-1)(w) a translation."""
    cur = w
    shifted = w
    m = 1
    while True:
        if m % sigma.order == 0 and is_translation(cur, rd):
            return m, cur
        shifted = sigma_apply(sigma, shifted)
        cur = mul(cur, shifted)
        m += 1
        if m > 100000:
            raise AffineWeylError("twisted powers never reached a translation")


def is_straight(rd: RootDatum, sigma: SigmaAction, w: AffineWeylElement) -> bool:
    """Additivity of length along all twisted powers.

    Checking the first translation power suffices: translation lengths are
    positively homogeneous, so additivity there pins every other n between
    the subadditive bound and the translation bound.
    """
    m, power = twisted_power(rd, sigma, w)
    return length(rd, power) == m * length(rd, w)


def is_straight_bruteforce(rd: RootDatum, sigma: SigmaAction, w: AffineWeylElement, n_max: int = 12) -> bool:
    """Oracle: check n*l(w) = l(w sigma(w)...sigma^(n-1)(w)) for n <= n_max."""
    lw = length(rd, w)
    cur = w
    shifted = w
    for n in range(1, n_max + 1):
        if length(rd, cur) != n * lw:
            return False
        shifted = sigma_apply(sigma, shifted)
        cur = mul(cur, shifted)
    return True


def newton_point(rd: RootDatum, sigma: SigmaAction, w: AffineWeylElement) -> tuple[tuple[Fraction, ...], NewtonPoint]:
    """Raw slope vector of w and its dominant (Newton, Kottwitz) pair.

    The integer translation of the twisted power is made dominant and only
    then divided by m: W_0 acts linearly and m > 0 keeps every pairing's
    sign, so the same reflections are applied as to the slope vector.
    """
    m, power = twisted_power(rd, sigma, w)
    nu_raw = tuple(Fraction(x, m) for x in power.translation)
    lam_dom, _ = dominant_rep(power.translation, rd)
    nu_dom = tuple(Fraction(x, m) for x in lam_dom)
    den = lcm(*(x.denominator for x in nu_dom)) if nu_dom else 1
    kappa = pi1_coinvariants(rd, sigma).project(w.translation)
    return nu_raw, NewtonPoint(nu_dom, den, kappa)


def levi_datum(nu_raw: Sequence, rd: RootDatum) -> RootDatum:
    """Sub root datum generated by the roots pairing to zero with nu.

    nu is scaled to an integer vector first, which vanishes on the same
    roots; the datum is memoised by its set of positive roots.
    """
    nu = [Fraction(x) for x in nu_raw]
    den = lcm(*(x.denominator for x in nu))
    lam = tuple(x.numerator * (den // x.denominator) for x in nu)
    idx = tuple(k for k, a in enumerate(rd.positive_roots) if pairing(lam, a) == 0)
    return _levi(rd, idx)


@lru_cache(maxsize=None)
def _levi(rd: RootDatum, positive_root_indices: tuple[int, ...]) -> RootDatum:
    return sub_datum(rd, positive_root_indices, f"levi:{rd.type_label}")


def mu_bar(mu: Sequence[int], rd: RootDatum, sigma: SigmaAction) -> tuple[Fraction, ...]:
    """Average of the sigma-orbit of the dominant representative of mu."""
    mu_dom, _ = dominant_rep(tuple(mu), rd)
    total = [Fraction(0)] * rd.rank
    cur = tuple(mu_dom)
    for _ in range(sigma.order):
        total = [a + b for a, b in zip(total, cur)]
        cur = sigma_apply_cochar(sigma, cur)
    return tuple(x / sigma.order for x in total)


@lru_cache(maxsize=None)
def _fixed_class_lattice_generators(rd: RootDatum, sigma: SigmaAction) -> tuple[tuple[int, ...], ...]:
    """Lattice generators of {v : (sigma - 1) v lies in the coroot lattice}.

    Their classes generate the sigma-fixed subgroup of pi_1.
    """
    n = rd.rank
    coroots = rd.simple_coroots
    r = len(coroots)
    rows = []
    for i in range(n):
        row = [sigma.matrix[i][j] - (1 if i == j else 0) for j in range(n)]
        row += [-coroots[k][i] for k in range(r)]
        rows.append(tuple(row))
    kernel = integer_kernel(tuple(rows))
    return tuple(k[:n] for k in kernel)


@lru_cache(maxsize=None)
def _omega_move_generators(rd: RootDatum, sigma: SigmaAction) -> tuple[AffineWeylElement, ...]:
    """Length-zero twist moves that preserve the Kottwitz class.

    Twisting by omega shifts kappa by (sigma - 1) of omega's class, and
    twists compose, so only omegas with sigma-fixed class are relevant;
    anything else would walk the search out of the kappa fiber for good.
    """
    out = []
    for section in _fixed_class_lattice_generators(rd, sigma):
        om = omega_rep(rd, section)
        out.append(om)
        out.append(inv(om))
    return tuple(out)


@dataclass(frozen=True)
class StraightClass:
    representative: AffineWeylElement
    newton: NewtonPoint
    nu_raw: tuple[Fraction, ...]
    members: tuple[AffineWeylElement, ...]
    levi: RootDatum


@lru_cache(maxsize=None)
def straight_classes(mu: tuple[int, ...], rd: RootDatum, sigma: SigmaAction) -> tuple[StraightClass, ...]:
    """Partition of the straight admissible elements into twisted classes.

    Classes are the connected components under length-preserving moves
    w -> s w sigma(s) and w -> omega^-1 w sigma(omega); the search may pass
    through straight elements outside the admissible set, but reported
    members stay inside it.
    """
    adm_set = set(adm(tuple(mu), rd).elements)
    seeds = [w for w in adm_set if is_straight(rd, sigma, w)]
    gens = iwahori_generators(rd)
    sigma_gens = [sigma_apply(sigma, s) for s in gens]
    omega_moves = _omega_move_generators(rd, sigma)

    component_of: dict[AffineWeylElement, int] = {}
    components: list[set[AffineWeylElement]] = []
    for seed in sorted(seeds, key=lambda w: element_sort_key(rd, w)):
        if seed in component_of:
            continue
        comp_id = len(components)
        comp = {seed}
        frontier = [seed]
        while frontier:
            w = frontier.pop()
            component_of[w] = comp_id
            lw = length(rd, w)
            neighbors = []
            for s, ss in zip(gens, sigma_gens):
                cand = mul(mul(s, w), ss)
                if length(rd, cand) == lw:
                    neighbors.append(cand)
            for om in omega_moves:
                neighbors.append(mul(mul(inv(om), w), sigma_apply(sigma, om)))
            for cand in neighbors:
                if cand not in comp:
                    if cand in component_of:
                        raise ConsistencyError("straight-class components are not disjoint")
                    comp.add(cand)
                    frontier.append(cand)
            if len(comp) > 200000:
                raise ConsistencyError("straight-class search exploded; moves are unbounded")
        components.append(comp)

    classes = []
    for comp in components:
        members = tuple(sorted(comp & adm_set, key=lambda w: element_sort_key(rd, w)))
        newton = {w: newton_point(rd, sigma, w) for w in comp}
        if len({point for _, point in newton.values()}) != 1:
            raise ConsistencyError("one twisted class carries several Newton points")
        rep = members[0]
        nu_raw, point = newton[rep]
        classes.append(StraightClass(rep, point, nu_raw, members, levi_datum(nu_raw, rd)))

    # the class partition must coincide with the (Newton, Kottwitz) partition
    by_point: dict[NewtonPoint, set[int]] = {}
    for i, cls in enumerate(classes):
        by_point.setdefault(cls.newton, set()).add(i)
    for point, ids in by_point.items():
        if len(ids) != 1:
            raise ConsistencyError(
                f"distinct twisted classes share the Newton point {point}"
            )
    return tuple(sorted(classes, key=lambda c: c.newton.nu))


def _newton_set(
    mu: Sequence[int], rd: RootDatum, sigma: SigmaAction
) -> tuple[tuple[NewtonPoint, ...], tuple[tuple[int, int], ...], int]:
    """The checked Newton points of Adm(mu), their cover edges and the basic index.

    Each point is checked against the defining conditions: Kottwitz class
    equal to that of mu and slope vector dominance-bounded by the orbit
    average of mu; newton_poset checks that the basic point is unique.
    """
    mu_dom, _ = dominant_rep(tuple(mu), rd)
    classes = straight_classes(tuple(mu_dom), rd, sigma)
    points = tuple(cls.newton for cls in classes)
    mu_class = pi1_coinvariants(rd, sigma).project(mu_dom)
    bar = mu_bar(mu_dom, rd, sigma)
    for p in points:
        if p.kappa != mu_class:
            raise ConsistencyError("Newton point with the wrong Kottwitz class")
        if not dominance_leq(p.nu, bar, rd, integral=False):
            raise ConsistencyError("Newton point not bounded by the average of mu")
    edges, basic = newton_poset(points, rd)
    return points, edges, basic


def b_set(mu: Sequence[int], rd: RootDatum, sigma: SigmaAction) -> tuple[NewtonPoint, ...]:
    """The Newton points of Adm(mu): straight-class invariants, verified.

    The set is checked as in _newton_set and has a unique minimal point.
    """
    return _newton_set(mu, rd, sigma)[0]


def newton_poset(
    points: Sequence[NewtonPoint], rd: RootDatum
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Cover edges of the points under rational dominance, and the basic one.

    The basic point is the unique bottom of the dominance order; its index
    is returned, and a set without a unique bottom raises.
    """
    edges, bottoms = hasse_diagram([
        sum(1 << i for i, p in enumerate(points) if dominance_leq(p.nu, q.nu, rd, integral=False))
        for q in points
    ])
    if len(bottoms) != 1:
        raise ConsistencyError("Newton set does not have a unique basic point")
    return edges, bottoms[0]


def basic_point(mu: Sequence[int], rd: RootDatum, sigma: SigmaAction) -> NewtonPoint:
    points, _, basic = _newton_set(mu, rd, sigma)
    return points[basic]


def adlv_nonempty(
    mu: Sequence[int],
    b: NewtonPoint,
    rd: RootDatum,
    sigma: SigmaAction,
    level: Optional[ParahoricLevel] = None,
) -> bool:
    """Non-emptiness of the union of Deligne-Lusztig sets at any level.

    The criterion is membership of b in B(G, mu) and does not depend on
    the parahoric; the level argument is accepted for interface parity.
    """
    del level
    return b in b_set(mu, rd, sigma)


def pi1_sigma_invariants(rd: RootDatum, sigma: SigmaAction) -> FinAbGroup:
    """Fixed subgroup of sigma acting on pi_1 = X_*(T)/coroot lattice."""
    n = rd.rank
    coroots = rd.simple_coroots
    r = len(coroots)
    gens = _fixed_class_lattice_generators(rd, sigma)
    if not gens:
        return quotient_group(0, ())
    # relations: integer combinations of the generators landing in the coroot lattice
    m = len(gens)
    rel_rows = []
    for i in range(n):
        row = [g[i] for g in gens] + [-coroots[k][i] for k in range(r)]
        rel_rows.append(tuple(row))
    rel_kernel = integer_kernel(tuple(rel_rows))
    relations = [k[:m] for k in rel_kernel]
    return quotient_group(m, relations)


@dataclass(frozen=True)
class ComponentWitness:
    element: AffineWeylElement
    levi: RootDatum
    lambda_w: tuple[int, ...]
    lift_chain: tuple[tuple[int, ...], ...]
    central_in_levi: bool
    pi1_sigma: Optional[FinAbGroup]
    marker: Optional[str]


@dataclass(frozen=True)
class ComponentsBoundReport:
    mu: tuple[int, ...]
    b: NewtonPoint
    witnesses: tuple[ComponentWitness, ...]


DISCRETE_MARKER = "discrete: M(Q_p)/M(Z_p)"


def components_bound_report(
    mu: Sequence[int], b: NewtonPoint, rd: RootDatum, sigma: SigmaAction
) -> ComponentsBoundReport:
    """Index data for the component bound at the class b.

    For each straight witness w = u t_lambda in the class: the centralizer
    Levi of its raw slope vector, the minuscule lift certificate of lambda
    and either pi_1(M)^sigma (lambda non-central in every factor of M) or
    the discreteness marker.  The report is the abstract index set of the
    component surjection; nothing geometric is computed.
    """
    mu_dom, _ = dominant_rep(tuple(mu), rd)
    classes = straight_classes(tuple(mu_dom), rd, sigma)
    matching = [cls for cls in classes if cls.newton == b]
    if not matching:
        raise AffineWeylError("the given Newton point is not in B(G, mu)")
    (cls,) = matching
    # adm proves its elements are exactly Adm(mu), so membership is a lookup
    adm_set = set(adm(tuple(mu_dom), rd).elements)
    witnesses = []
    for w in cls.members:
        nu_raw, _ = newton_point(rd, sigma, w)
        levi = levi_datum(nu_raw, rd)
        lam_right = mat_vec(inv(w).finite, w.translation)
        if translation_element(lam_right, rd) not in adm_set:
            raise ConsistencyError("translation part of a straight witness left Adm(mu)")
        lift = minuscule_lift(lam_right, mu_dom, rd)
        comps = levi.components()
        # central on a factor means zero pairing with all its simple roots
        central_somewhere = not comps or any(
            all(pairing(lift.value, levi.simple_roots[i]) == 0 for i in comp)
            for comp in comps
        )
        if central_somewhere:
            witnesses.append(
                ComponentWitness(w, levi, lift.value, lift.chain_coroots, True, None, DISCRETE_MARKER)
            )
        else:
            fixed = pi1_sigma_invariants(levi, _restrict_sigma(levi, sigma))
            witnesses.append(
                ComponentWitness(w, levi, lift.value, lift.chain_coroots, False, fixed, None)
            )
    return ComponentsBoundReport(mu_dom, b, tuple(witnesses))


def _restrict_sigma(levi: RootDatum, sigma: SigmaAction) -> SigmaAction:
    try:
        return make_sigma(levi, sigma.matrix)
    except AffineWeylError as exc:
        raise AffineWeylError(
            "sigma does not stabilize the Levi of this witness; no invariants defined"
        ) from exc

