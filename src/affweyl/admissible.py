"""Admissible sets, their minimal element, and parahoric images.

Adm(mu) consists of the elements Bruhat-below some translation by a
finite Weyl conjugate of mu.  Candidates come from closing each maximal
translation downward through subwords of one fixed reduced word.  Cover
edges come from one-letter deletions: for a reduced word s_1..s_l*omega
of w, the l products with one letter deleted are the elements w*t for
the reflections t with l(wt) < l(w), and the lower covers of w are those
of length l(w) - 1 (Bjorner-Brenti, Thm 1.4.3 and Cor 1.4.4).  The same
covers prove the candidate set equal to Adm(mu): every lower cover of a
candidate is a candidate, and every candidate is a maximal translation
or a lower cover of one; any failure is a hard internal error.

Both computations are done once per Omega-orbit.  A length-zero element
whose conjugation permutes the affine simple reflections is an
automorphism of the affine Coxeter system (Iwahori-Matsumoto, Publ. IHES
25, 1965); it preserves length, Bruhat order and Adm(mu).  So only one
maximal translation per orbit is closed, and only one element per orbit
has its covers computed; the rest are carried over by conjugation.

The parahoric image Adm_K(mu) is kept as the members of Adm(mu) that no
s in K shortens on either side, by the test double_coset_rep repeats (a
right descent s_a of t_lambda u is read off u(a), with no inverse): these are the
minimal double coset representatives, each below every member of its
coset.  Its closure poset is read off the same covers.  Adm(mu) is
closed downward and Bruhat intervals are graded (Bjorner-Brenti, Thm
2.2.6), so v <= w in Adm(mu) iff v is reached from w down cover edges;
one pass over the edges gives every element its down-set of nodes as a
bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    ParahoricLevel,
    _checked_mu,
    _memo_on_mu,
    _shorten,
    bruhat_leq,
    conjugation_permutation,
    element_sort_key,
    identity_element,
    iwahori_generators,
    length,
    mul,
    omega_part,
    omega_rep,
    reduced_word,
    translation_element,
    word_length_map,
)
from .linalg import hasse_diagram
from .root_datum import RootDatum, weyl_orbit


@dataclass(frozen=True)
class AdmissibleSet:
    mu: tuple[int, ...]
    elements: tuple[AffineWeylElement, ...]
    level: ParahoricLevel
    cover_edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=None)
def _maximal_translations(mu: tuple[int, ...], rd: RootDatum) -> tuple[AffineWeylElement, ...]:
    return tuple(translation_element(lam, rd) for lam in weyl_orbit(mu, rd))


def is_admissible(w: AffineWeylElement, mu: Sequence[int], rd: RootDatum) -> bool:
    """Membership test straight from the definition."""
    return any(bruhat_leq(rd, w, t) for t in _maximal_translations(_checked_mu(mu, rd), rd))


def _subword_closure(rd: RootDatum, w: AffineWeylElement) -> set[AffineWeylElement]:
    """All products of subwords of one reduced word of w, times its omega."""
    letters, omega = reduced_word(rd, w)
    gens = iwahori_generators(rd)
    out: set[AffineWeylElement] = set()
    partial = {identity_element(rd)}
    # grow subword products letter by letter to share work across masks
    for letter in letters:
        partial |= {mul(p, gens[letter]) for p in partial}
    for p in partial:
        out.add(mul(p, omega))
    return out


def _lower_covers(rd: RootDatum, w: AffineWeylElement) -> set[AffineWeylElement]:
    """The Bruhat lower covers of w: its one-letter deletions of length l(w) - 1."""
    letters, omega = reduced_word(rd, w)
    gens = iwahori_generators(rd)
    # suffix[j] is the product of letters[j:] times omega
    suffix = [omega]
    for i in reversed(letters):
        suffix.append(mul(gens[i], suffix[-1]))
    suffix.reverse()
    target = len(letters) - 1
    out = set()
    prefix = identity_element(rd)
    for j, i in enumerate(letters):
        v = mul(prefix, suffix[j + 1])
        if length(rd, v) == target:
            out.add(v)
        prefix = mul(prefix, gens[i])
    return out


def _omega_conjugations(
    rd: RootDatum,
) -> tuple[tuple[AffineWeylElement, AffineWeylElement], ...]:
    """Pairs (omega, omega^-1) whose conjugations generate Omega's action on W.

    The candidates are the distinct length-zero elements omega_rep(e_i) of
    the unit cocharacters, which generate Omega; the inverse is
    omega_rep(-e_i), the length-zero element of the opposite class.  Each
    must map every affine simple reflection to one by conjugation, else
    AffineWeylError: then it is an automorphism of the Coxeter system, and
    as Omega is abelian it fixes every Omega part, so its action on W is
    that permutation.  An omega is kept only if its permutation lies
    outside the group generated by the permutations of those already kept.

    >>> from affweyl.root_datum import build_root_datum
    >>> [len(_omega_conjugations(build_root_datum({"preset": p, "n": n})))
    ...  for p, n in [("GL", 3), ("SL", 4), ("PGL", 4), ("GSp", 4)]]
    [1, 0, 1, 1]
    """
    units = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
    kept = []
    group = {tuple(range(len(iwahori_generators(rd))))}
    for omega, e in {omega_rep(rd, e): e for e in units}.items():
        omega_inv = omega_rep(rd, tuple(-x for x in e))
        perm = conjugation_permutation(rd, omega, omega_inv)
        if perm in group:
            continue
        kept.append((omega, omega_inv))
        # Omega is abelian, so powers of perm times the old group are the new group
        frontier = list(group)
        while frontier:
            g = tuple(perm[i] for i in frontier.pop())
            if g not in group:
                group.add(g)
                frontier.append(g)
    return tuple(kept)


@_memo_on_mu
def adm(mu: Sequence[int], rd: RootDatum) -> AdmissibleSet:
    """The admissible set of mu at Iwahori level, with its cover relations.

    The subword closures of the maximal translations give the candidates
    and the one-letter deletions give their lower covers.  Two checks on
    the covers prove that the candidates are exactly Adm(mu):

    - completeness: every lower cover of a candidate is a candidate, so
      the set is closed downward and holds all of Adm(mu);
    - soundness: every candidate is a maximal translation or a lower cover
      of a candidate.  By downward induction on length, a longest
      non-member could only be covered by a member, which is impossible;
      so every candidate lies on a chain of covers below a maximal one.

    Closures and covers are computed once per Omega-orbit and carried to
    the rest of each orbit by conjugation, an automorphism of the affine
    Coxeter system (Iwahori-Matsumoto, Publ. IHES 25, 1965) once
    _omega_conjugations has checked that it permutes the affine simple
    reflections.  The union of one closure per orbit of maximal
    translations is saturated under the conjugations; an image of another
    length is refused, which also keeps the saturation finite.
    Completeness is checked at one element per orbit, which covers all as
    the candidates are Omega-stable; soundness is checked on every edge.
    """
    maximal = _maximal_translations(mu, rd)
    conjugations = _omega_conjugations(rd)
    images: list[dict[AffineWeylElement, AffineWeylElement]] = [{} for _ in conjugations]
    candidates: set[AffineWeylElement] = set()
    for t in maximal:
        # maximal translations share one length, so t is a candidate only
        # as the conjugate of one closed already
        if t in candidates:
            continue
        fresh = list(_subword_closure(rd, t) - candidates)
        candidates.update(fresh)
        while fresh:
            w = fresh.pop()
            for (omega, omega_inv), image in zip(conjugations, images):
                v = image[w] = mul(mul(omega, w), omega_inv)
                if length(rd, v) != length(rd, w):
                    raise AffineWeylError("a conjugation used for transport changed a length")
                if v not in candidates:
                    candidates.add(v)
                    fresh.append(v)
    elements = tuple(sorted(candidates, key=lambda w: element_sort_key(rd, w)))
    index = {w: i for i, w in enumerate(elements)}
    # each conjugation as a permutation of positions in elements
    maps = [[index[image[w]] for w in elements] for image in images]
    edges = []
    seen = [False] * len(elements)
    for r, w in enumerate(elements):
        if seen[r]:
            continue
        below = _lower_covers(rd, w)
        if not below <= candidates:
            raise AffineWeylError(
                "admissible enumeration mismatch: subword closure missed a lower cover"
            )
        seen[r] = True
        orbit = [(r, [index[v] for v in below])]
        for j, j_below in orbit:
            edges += [(i, j) for i in j_below]
            for conj in maps:
                k = conj[j]
                if not seen[k]:
                    seen[k] = True
                    orbit.append((k, [conj[i] for i in j_below]))
    if {elements[i] for i, _ in edges} | set(maximal) != candidates:
        raise AffineWeylError(
            "admissible enumeration mismatch: subword closure produced a non-member"
        )
    return AdmissibleSet(mu, elements, ParahoricLevel.iwahori(), tuple(sorted(edges)))


def tau(mu: Sequence[int], rd: RootDatum) -> AffineWeylElement:
    """The unique length-zero admissible element: the Omega part of t_mu."""
    return omega_part(rd, translation_element(_checked_mu(mu, rd), rd))


def adm_K(
    mu: Sequence[int], rd: RootDatum, level: ParahoricLevel
) -> tuple[AffineWeylElement, ...]:
    """Adm_K(mu) as minimal double coset reps: the members of Adm(mu) that no s in K shortens.

    They come in the order of adm(mu).elements; at the Iwahori level that
    is every element.
    """
    return tuple(w for w in adm(mu, rd).elements if _shorten(rd, w, level) is None)


@dataclass(frozen=True)
class KRPoset:
    """Closure poset of the stratification indexed by Adm_K(mu).

    Nodes are minimal-length double coset representatives, ranked by
    length; edges are the covering relations of the Bruhat order among
    the representatives.
    """

    nodes: tuple[AffineWeylElement, ...]
    ranks: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    bottom: int


def kr_poset(mu: Sequence[int], rd: RootDatum, level: ParahoricLevel) -> KRPoset:
    """Bruhat order on Adm_K(mu), walked down the cover edges of Adm(mu)."""
    mu = _checked_mu(mu, rd)
    aset = adm(mu, rd)
    nodes = adm_K(mu, rd, level)
    bit = {w: 1 << a for a, w in enumerate(nodes)}
    # down[j] masks the nodes below element j; sorted edges go up in length,
    # so one pass completes down[i] before edge (i, j) reads it
    down = [bit.get(w, 0) for w in aset.elements]
    for i, j in aset.cover_edges:
        down[j] |= down[i]
    edges, bottoms = hasse_diagram([d for w, d in zip(aset.elements, down) if w in bit])
    if len(bottoms) != 1:
        raise AffineWeylError("stratification poset does not have a unique bottom")
    if nodes[bottoms[0]] != tau(mu, rd):
        raise AffineWeylError("poset bottom is not the coset of the minimal element")
    ranks = tuple(length(rd, w) for w in nodes)
    return KRPoset(nodes, ranks, edges, bottoms[0])


def adm_by_exhaustion(mu: Sequence[int], rd: RootDatum) -> set[AffineWeylElement]:
    """Oracle: filter the full length ball in the right Omega coset."""
    t_mu = translation_element(_checked_mu(mu, rd), rd)
    omega = omega_part(rd, t_mu)
    bound = length(rd, t_mu)
    out = set()
    for w_a in word_length_map(rd, bound):
        w = mul(w_a, omega)
        if is_admissible(w, mu, rd):
            out.add(w)
    return out
