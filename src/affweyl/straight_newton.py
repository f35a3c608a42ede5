"""Straight elements, Newton points, B(G, mu) and the component bound data.

A sigma-straight element has additive lengths along its twisted powers
w sigma(w) .. sigma^(m-1)(w); its Newton point is the slope vector of the
first twisted power that is a translation with sigma^m = 1, made
dominant, together with the Kottwitz class in the sigma-coinvariants of
pi_1.  One twisted power per element gives both:
by He's criterion (He, "Geometric and homological properties of affine
Deligne-Lusztig varieties", Ann. Math. 2014) w is straight iff
l(w) = <nu_w, 2 rho>, which for the power t_lambda of index m reads
m l(w) = l(t_lambda) = sum_{a > 0} |<lambda, a>|.
Straight classes are closed under length-preserving cyclic shifts
w -> s_i w s_pi(i), sigma(s_i) = s_pi(i), and under twists
w -> omega^-1 w sigma(omega) by length-zero elements (He-Nie, "Minimal
length elements of extended affine Weyl groups", Compositio Math. 2014).
Which shifts keep the length is read off descents, not off the products:
by the exchange condition (Bourbaki, Lie Groups and Lie Algebras, ch. IV,
section 1, no. 5; it holds in W_a semidirect Omega, Omega having length
zero and permuting the simple reflections), for simple s, s' the lengths
l(s w) and l(w s') differ from l(w) by one; when neither is shorter,
s w s' is w or two longer, when both are, w or two shorter, and when
only one is, s w s' has length l(w) and is not w, as s w and w s' differ
in length.  So s_i w s_pi(i) is new and as long as w exactly when one and
only one of s_i (on the left) and s_pi(i) (on the right) is a descent of
w, and only those moves are multiplied out.  A twist moves the Kottwitz
class by (sigma - 1) of omega's class, so only omegas of sigma-fixed class
are taken, and for those it is a plain conjugation: sigma(omega) has
length zero and omega's class, and Omega -> pi_1 is a bijection
(omega_rep), so sigma(omega) = omega.  The search conjugates by the
generators of Omega^sigma that admissible._omega_conjugations keeps, as
adm does by those of Omega: Omega is abelian, so a conjugation is fixed by
how it permutes the affine simple reflections and one omega per new
permutation loses no move; and the search closes a finite set (one
length, one Omega part), where the forward closure under bijections is
the orbit of the group they generate, so no omega^-1 is needed.  The
partition this generates is cross-checked against the (Newton, Kottwitz)
partition and any mismatch raises.  Each element the class search touches
has one twisted power, whose Newton point is compared in integers; every
class keeps its members' slope vectors.

Newton points are computed in integers: the translation of the twisted
power is made dominant and divided by m only at the end.  The
centraliser Levi of a slope vector is read off the roots (levi_datum):
its positive roots are the positive roots orthogonal to the vector, and
its simple roots are those of height one, picked by rho_M^vee.  Nothing is
memoised; equal Levis are one canonical datum, the one
root_datum.sub_datum derives from the same roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul as _times
from typing import Optional, Sequence

from .admissible import _omega_conjugations, adm
from .affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    SigmaAction,
    _checked_mu,
    _context,
    _descents,
    _memo_on_mu,
    element_sort_key,
    is_translation,
    iwahori_generators,
    length,
    mul,
    sigma_apply,
    sigma_generator_permutation,
    translation_element,
)
from .linalg import hasse_diagram, integer_kernel, mat_vec
from .notation import _finite_word
from .root_datum import (
    FinAbGroup,
    RootDatum,
    _assemble,
    _cartan_from_data,
    _check_cartan,
    _pairings,
    dominance_leq,
    dominant_rep,
    exact_int,
    pairing,
    quotient_group,
    simple_reflection,
)
from .stembridge import minuscule_lift


class ConsistencyError(RuntimeError):
    """A structural identity the library relies on failed on real data."""


def _slope(x) -> Fraction:
    """x as a Fraction if it is an int or a Fraction (not a bool); AffineWeylError otherwise."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, int) or isinstance(x, bool):
        raise AffineWeylError(f"a Newton point coordinate must be an int or a Fraction, not {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class NewtonPoint:
    """Dominant slope vector plus Kottwitz class in the coinvariants: a point is (nu, kappa).

    Each coordinate of nu must be an int or a Fraction, and each of kappa an
    int; denominator is derived, the lcm of the reduced denominators of nu,
    and equality and hash read (nu, kappa) only.
    """

    nu: tuple[Fraction, ...]
    denominator: int = field(init=False, compare=False)
    kappa: tuple[int, ...]

    def __post_init__(self):
        nu = tuple(map(_slope, self.nu))
        kappa = tuple(exact_int(x, "a Kottwitz class coordinate", AffineWeylError) for x in self.kappa)
        for name, value in (("nu", nu), ("denominator", lcm(*(x.denominator for x in nu))), ("kappa", kappa)):
            object.__setattr__(self, name, value)


@lru_cache(maxsize=None)
def pi1_coinvariants(rd: RootDatum, sigma: SigmaAction) -> FinAbGroup:
    """pi_1 modulo the augmentation image of sigma (trivial for sigma = id)."""
    return quotient_group(rd.rank, rd.simple_coroots + _sigma_minus_one(sigma))


def _sigma_minus_one(sigma: SigmaAction) -> tuple[tuple[int, ...], ...]:
    """The columns of sigma - 1 (all zero for sigma = id; hermite_row_form drops those)."""
    n = len(sigma.matrix)
    return tuple(tuple(sigma.matrix[i][j] - (i == j) for i in range(n)) for j in range(n))


def twisted_power(rd: RootDatum, sigma: SigmaAction, w: AffineWeylElement) -> tuple[int, AffineWeylElement]:
    """Smallest m with sigma^m = 1 and w sigma(w)..sigma^(m-1)(w) a translation.

    m is a multiple of sigma's order o, and that product is the (m/o)-th
    power of the sigma-norm N(w) = w sigma(w)..sigma^(o-1)(w), as
    sigma^o(w) = w; so N(w) is taken once and multiplied until a
    translation.  An element of another rank never becomes a translation
    of rd, so it is refused first, where an element meets the datum
    (_Context.perm).
    """
    _context(rd).perm(w._u)
    step = shifted = w
    for _ in range(sigma.order - 1):
        shifted = sigma_apply(sigma, shifted)
        step = mul(step, shifted)
    cur, m = step, sigma.order
    while not is_translation(cur, rd):
        cur = mul(cur, step)
        m += sigma.order
        if m > 100000:
            raise AffineWeylError("twisted powers never reached a translation")
    return m, cur


def _straight_power(
    rd: RootDatum, sigma: SigmaAction, w: AffineWeylElement
) -> Optional[tuple[int, tuple[int, ...]]]:
    """(m, lambda) of the twisted power t_lambda of w if w is straight, else None.

    He's criterion l(w) = <nu_w, 2 rho>: m nu_w is lambda up to W_0, so
    it reads m l(w) = sum_{a > 0} |<lambda, a>|, which is l(t_lambda) by
    Iwahori-Matsumoto.
    """
    m, power = twisted_power(rd, sigma, w)
    lam = power.translation
    if m * length(rd, w) != sum(abs(sum(map(_times, lam, a))) for a in rd.positive_roots):
        return None
    return m, lam


def is_straight(rd: RootDatum, sigma: SigmaAction, w: AffineWeylElement) -> bool:
    """Additivity of length along all twisted powers, by He's criterion.

    Checking the first translation power suffices: translation lengths are
    positively homogeneous, so additivity there pins every other n between
    the subadditive bound and the translation bound.
    """
    sigma_generator_permutation(rd, sigma)
    return _straight_power(rd, sigma, w) is not None


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
    sigma_generator_permutation(rd, sigma)
    m, power = twisted_power(rd, sigma, w)
    den, numerators, kappa = _newton_key(rd, pi1_coinvariants(rd, sigma).project, w, m, power.translation)
    nu_raw = tuple(Fraction(x, m) for x in power.translation)
    return nu_raw, NewtonPoint(tuple(Fraction(x, den) for x in numerators), kappa)


def _newton_key(rd: RootDatum, project, w: AffineWeylElement, m: int, lam: Sequence[int]) -> tuple:
    """w's Newton point and Kottwitz class, from its twisted power t_lambda of index m, in integers.

    The point is dom(lambda)/m; with g = gcd(m, dom(lambda)) the key
    (m/g, dom(lambda)/g, kappa) is that point in lowest terms, so m/g is
    its denominator and two keys are equal exactly when the points are.
    project is that of the sigma-coinvariants of pi_1.
    """
    lam_dom = dominant_rep(lam, rd)[0]
    g = gcd(m, *lam_dom)
    return m // g, tuple([x // g for x in lam_dom]), project(w.translation)


def levi_datum(nu_raw: Sequence, rd: RootDatum) -> RootDatum:
    """Sub root datum generated by the roots pairing to zero with nu.

    nu is scaled to an integer lambda, which vanishes on the same roots.
    The positive roots of rd orthogonal to lambda are a positive system of
    the Levi M, and its simple roots are those a with <rho_M^vee, a> = 1,
    rho_M^vee half the sum of their coroots: <rho_M^vee, a> is the height
    of a (Bourbaki, Lie Groups and Lie Algebras, ch. VI, section 1, no. 10,
    for the dual root system).  They are kept in rd.positive_roots order,
    the Cartan matrix is checked (_check_cartan), and the positives are
    sorted by <b^vee, 2 rho_M>, twice the height of b^vee, as _build sorts
    them; so the Levi is the very datum sub_datum derives from the same
    roots.  Each coordinate of nu must be an int or a Fraction, as in a
    NewtonPoint; anything else, a bool or a float included, raises
    AffineWeylError.
    """
    nu = list(map(_slope, nu_raw))
    den = lcm(*(x.denominator for x in nu))
    lam = tuple(x.numerator * (den // x.denominator) for x in nu)
    roots, coroots = rd.positive_roots, rd.positive_coroots
    idx = [k for k, c in enumerate(_pairings(lam, roots, rd)) if c == 0]
    two_rho_vee = [sum(col) for col in zip(*(coroots[k] for k in idx))]
    simple = [k for k in idx if sum(map(_times, two_rho_vee, roots[k])) == 2]
    simple_r, simple_c = [roots[k] for k in simple], [coroots[k] for k in simple]
    cartan = _cartan_from_data(simple_r, simple_c)
    _check_cartan(cartan)
    two_rho = [sum(col) for col in zip(*(roots[k] for k in idx))]
    positives = [(sum(map(_times, coroots[k], two_rho)), coroots[k], roots[k]) for k in idx]
    return _assemble(rd.rank, f"levi:{rd.type_label}", simple_r, simple_c, cartan, positives)


def mu_bar(mu: Sequence[int], rd: RootDatum, sigma: SigmaAction) -> tuple[Fraction, ...]:
    """Average of the sigma-orbit of the dominant representative of mu."""
    sigma_generator_permutation(rd, sigma)
    cur = _checked_mu(mu, rd)
    total = [Fraction(0)] * rd.rank
    for _ in range(sigma.order):
        total = [a + b for a, b in zip(total, cur)]
        cur = mat_vec(sigma.matrix, cur)
    return tuple(x / sigma.order for x in total)


def _coroot_relations(rd: RootDatum, columns: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lattice basis of the integer c with sum_j c_j columns[j] in the coroot lattice."""
    rows = tuple(
        tuple(col[i] for col in columns) + tuple(-cv[i] for cv in rd.simple_coroots) for i in range(rd.rank)
    )
    return tuple(k[:len(columns)] for k in integer_kernel(rows))


def _fixed_class_lattice_generators(rd: RootDatum, sigma: SigmaAction) -> tuple[tuple[int, ...], ...]:
    """Lattice generators of {v : (sigma - 1) v lies in the coroot lattice}.

    Their classes generate the sigma-fixed subgroup of pi_1.
    """
    return _coroot_relations(rd, _sigma_minus_one(sigma))


@dataclass(frozen=True)
class StraightClass:
    """One twisted class of straight elements meeting Adm(mu).

    members are the class's elements in Adm(mu), sorted; representative
    is the first.  nu_raw is the representative's raw slope vector and
    member_nu_raw holds each member's, in the order of members (the
    first element of newton_point(member)).
    """

    representative: AffineWeylElement
    newton: NewtonPoint
    nu_raw: tuple[Fraction, ...]
    members: tuple[AffineWeylElement, ...]
    levi: RootDatum
    member_nu_raw: tuple[tuple[Fraction, ...], ...]


def _length_keeping_shifts(rd: RootDatum, pi: Sequence[int], w: AffineWeylElement) -> list[int]:
    """The i for which exactly one of s_i (left) and s_pi(i) (right) is a descent of w.

    pi is how sigma permutes the affine simple reflections; both descent
    masks are read once (_descents).
    """
    left, right = _descents(rd, w)
    return [i for i, j in enumerate(pi) if (left >> i & 1) != (right >> j & 1)]


@_memo_on_mu
def straight_classes(mu: Sequence[int], rd: RootDatum, sigma: SigmaAction) -> tuple[StraightClass, ...]:
    """Partition of the straight admissible elements into twisted classes.

    Classes are the connected components under length-preserving moves
    w -> s w sigma(s) and w -> omega w omega^-1, omega running over the
    generators of Omega^sigma that _omega_conjugations keeps for the
    sigma-fixed class lattice (sigma(omega) = omega, see the module
    docstring; checked, ConsistencyError otherwise); the search may pass
    through straight elements outside the admissible set, but reported
    members stay inside it.  A cyclic shift s_i w s_pi(i) is taken exactly
    when one and only one of s_i, s_pi(i) is a left, respectively right,
    descent of w (the exchange condition, see the module docstring); an
    element reached whose length is not the seed's raises.  Each element
    touched gets one twisted power, which decides straightness (He's
    criterion) and gives its Newton point; an element reached by a move
    must be straight as well, since the moves keep the length and the
    Newton point.  pi is read off sigma's check against rd, before any power.

    A class must carry one Newton point, checked in integers: the power
    t_lambda of index m has the point dom(lambda)/m, and with
    g = gcd(m, dom(lambda)) the key (m/g, dom(lambda)/g, kappa) of
    _newton_key is that point in lowest terms, so two keys are equal
    exactly when the points are.  Fractions are made only for the members'
    slope vectors and for the class's NewtonPoint, read off its key.
    """
    pi = sigma_generator_permutation(rd, sigma)
    adm_set = set(adm(mu, rd).elements)
    # the powers of the straight elements only; Newton points are made per class
    powers = {}
    for w in adm_set:
        power = _straight_power(rd, sigma, w)
        if power is not None:
            powers[w] = power
    gens = iwahori_generators(rd)
    conjugations = _omega_conjugations(rd, _fixed_class_lattice_generators(rd, sigma))
    # a twist by omega of sigma-fixed class is conjugation by omega only if sigma(omega) = omega
    if any(sigma_apply(sigma, omega) != omega for omega, _ in conjugations):
        raise ConsistencyError("sigma moves a length-zero element of sigma-fixed class")

    component_of: dict[AffineWeylElement, int] = {}
    components: list[set[AffineWeylElement]] = []
    for seed in sorted(powers, key=lambda w: element_sort_key(rd, w)):
        if seed in component_of:
            continue
        comp_id = len(components)
        comp = {seed}
        frontier = [seed]
        # every move keeps the length, so each element reached is as long as the seed
        l_seed = length(rd, seed)
        while frontier:
            w = frontier.pop()
            component_of[w] = comp_id
            neighbors = [mul(mul(gens[i], w), gens[pi[i]]) for i in _length_keeping_shifts(rd, pi, w)]
            neighbors += [mul(mul(omega, w), omega_inv) for omega, omega_inv in conjugations]
            for cand in neighbors:
                if cand not in comp:
                    if cand in component_of:
                        raise ConsistencyError("straight-class components are not disjoint")
                    if length(rd, cand) != l_seed:
                        raise ConsistencyError("a class move changed the length")
                    if cand not in powers:
                        power = _straight_power(rd, sigma, cand)
                        if power is None:
                            raise ConsistencyError("a class move left the straight elements")
                        powers[cand] = power
                    comp.add(cand)
                    frontier.append(cand)
            if len(comp) > 200000:
                raise ConsistencyError("straight-class search exploded; moves are unbounded")
        components.append(comp)

    classes = []
    project = pi1_coinvariants(rd, sigma).project
    # the members' slope vectors outlive the search: one Fraction per distinct (entry, index)
    slope = lru_cache(maxsize=None)(Fraction)
    for comp in components:
        members = tuple(sorted(comp & adm_set, key=lambda w: element_sort_key(rd, w)))
        keys = {_newton_key(rd, project, w, *powers[w]) for w in comp}
        if len(keys) != 1:
            raise ConsistencyError("one twisted class carries several Newton points")
        ((den, numerators, kappa),) = keys
        member_nu_raw = tuple(tuple([slope(y, powers[w][0]) for y in powers[w][1]]) for w in members)
        nu_raw = member_nu_raw[0]
        newton = NewtonPoint(tuple(Fraction(x, den) for x in numerators), kappa)
        classes.append(StraightClass(members[0], newton, nu_raw, members, levi_datum(nu_raw, rd), member_nu_raw))

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
    mu_dom = _checked_mu(mu, rd)
    classes = straight_classes(mu_dom, rd, sigma)
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
) -> bool:
    """Non-emptiness of the union of Deligne-Lusztig sets at any level.

    The criterion is membership of b in B(G, mu) and does not depend on
    the parahoric, so no level is taken.
    """
    return b in b_set(mu, rd, sigma)


@lru_cache(maxsize=None)
def pi1_sigma_invariants(rd: RootDatum, sigma: SigmaAction) -> FinAbGroup:
    """Fixed subgroup of sigma acting on pi_1 = X_*(T)/coroot lattice."""
    sigma_generator_permutation(rd, sigma)
    gens = _fixed_class_lattice_generators(rd, sigma)
    if not gens:
        return quotient_group(0, ())
    # relations: integer combinations of the generators landing in the coroot lattice
    return quotient_group(len(gens), _coroot_relations(rd, gens))


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
    the discreteness marker.  As w = t_(u lambda) u, lambda = u^-1(u lambda):
    the cached reduced word s_i1 .. s_ik of t_0 u (notation._finite_word,
    finite nodes only) gives u^-1 = s_ik .. s_i1, so u lambda is reflected
    along that word, s_i1 first.
    The report is the abstract index set of the component surjection;
    nothing geometric is computed.
    """
    mu_dom = _checked_mu(mu, rd)
    classes = straight_classes(mu_dom, rd, sigma)
    matching = [cls for cls in classes if cls.newton == b]
    if not matching:
        raise AffineWeylError("the given Newton point is not in B(G, mu)")
    (cls,) = matching
    # adm proves its elements are exactly Adm(mu), so membership is a lookup
    adm_set = set(adm(mu_dom, rd).elements)
    witnesses = []
    n_affine = len(iwahori_generators(rd)) - rd.semisimple_rank
    # witnesses share translation parts: each distinct lambda is checked and lifted once
    lifts = {}
    for w, nu_raw in zip(cls.members, cls.member_nu_raw):
        levi = cls.levi if w is cls.representative else levi_datum(nu_raw, rd)
        lam_right = w.translation
        for i in _finite_word(rd, w):
            lam_right = simple_reflection(lam_right, i - n_affine, rd)
        lift = lifts.get(lam_right)
        if lift is None:
            if translation_element(lam_right, rd) not in adm_set:
                raise ConsistencyError("translation part of a straight witness left Adm(mu)")
            lift = lifts[lam_right] = minuscule_lift(lam_right, mu_dom, rd)
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
            try:
                fixed = pi1_sigma_invariants(levi, sigma)
            except AffineWeylError as exc:
                raise AffineWeylError(
                    "sigma does not stabilize the Levi of this witness; no invariants defined"
                ) from exc
            witnesses.append(
                ComponentWitness(w, levi, lift.value, lift.chain_coroots, False, fixed, None)
            )
    return ComponentsBoundReport(mu_dom, b, tuple(witnesses))

