"""Dominance chains through positive coroots and minuscule lifting.

stembridge_chain walks from a dominant mu down to a dominant lambda by
subtracting positive coroots while keeping every partial difference
dominant; such a chain exists exactly when lambda is below mu in the
integral dominance order within one Kottwitz class.  minuscule_lift
certifies that a (generally non-dominant) cocharacter lies in the finite
Weyl orbit of a minuscule mu by descending from mu through reflections
whose pairing is exactly one at each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul as _times, sub as _minus
from typing import Sequence

from .root_datum import (
    RootDatum,
    _pairings,
    dominance_leq,
    dominant_rep,
    exact_int,
    fundamental_group,
    is_dominant,
    simple_reflection,
)


class ChainPreconditionError(ValueError):
    """Base class for rejected stembridge_chain / minuscule_lift inputs."""


class KappaMismatchError(ChainPreconditionError):
    """The two cocharacters lie in different classes modulo coroots."""


class DominanceError(ChainPreconditionError):
    """lambda is not below mu in the integral dominance order."""


class NotDominantError(ChainPreconditionError):
    """An input that must be dominant is not."""


class NotMinusculeError(ChainPreconditionError):
    """mu pairs outside {-1, 0, 1} with some root."""


class LiftConsistencyError(RuntimeError):
    """A pairing forced to be 1 was not; aborting instead of repairing."""


@dataclass(frozen=True)
class CorootChain:
    """Steps subtract positive coroots; every prefix stays dominant."""

    start: tuple[int, ...]
    end: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]
    intermediates: tuple[tuple[int, ...], ...]


def stembridge_chain(lam: Sequence[int], mu: Sequence[int], rd: RootDatum) -> CorootChain:
    """Chain of positive coroots from mu down to lam, all prefixes dominant.

    Preconditions: both dominant, equal Kottwitz classes, and lam below mu
    integrally.  Each step subtracts the highest usable coroot: one that
    keeps the point dominant and still above lam.  By Stembridge's lemma
    (The partial order of dominant weights, Adv. Math. 136, 1998) every
    dominant nu with lam <= nu < mu has such a step, so the greedy walk
    never has to undo one.
    """
    lam = tuple(exact_int(x, "a coordinate of lambda", ChainPreconditionError) for x in lam)
    mu = tuple(exact_int(x, "a coordinate of mu", ChainPreconditionError) for x in mu)
    if not is_dominant(lam, rd):
        raise NotDominantError(f"lambda = {lam} is not dominant")
    if not is_dominant(mu, rd):
        raise NotDominantError(f"mu = {mu} is not dominant")
    pi1 = fundamental_group(rd)
    if pi1.project(lam) != pi1.project(mu):
        raise KappaMismatchError(f"{lam} and {mu} differ in pi_1")
    if not dominance_leq(lam, mu, rd, integral=True):
        raise DominanceError(f"{lam} is not integrally dominated by {mu}")

    coroots = sorted(
        rd.positive_coroots,
        key=lambda cv: (-rd.coroot_height(cv), cv),
    )
    cur, steps, points = mu, [], []
    while cur != lam:
        for cv in coroots:
            nxt = tuple(a - b for a, b in zip(cur, cv))
            if is_dominant(nxt, rd) and dominance_leq(lam, nxt, rd, integral=True):
                break
        else:
            raise RuntimeError(
                f"no dominance step from {cur} towards {lam} although the preconditions "
                "hold; this contradicts Stembridge's lemma"
            )
        steps.append(cv)
        points.append(nxt)
        cur = nxt
    return CorootChain(mu, lam, tuple(steps), tuple(points))


def is_minuscule(mu: Sequence[int], rd: RootDatum) -> bool:
    return all(abs(c) <= 1 for c in _pairings(mu, rd.positive_roots, rd))


@dataclass(frozen=True)
class LiftResult:
    """Certificate that value lies in the finite Weyl orbit of mu.

    chain lists (positive coroot, resulting cocharacter) pairs; each step
    reflects in a root whose pairing with the current point is exactly 1,
    which is what minuscularity forces.
    """

    value: tuple[int, ...]
    chain: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def chain_coroots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(step for step, _ in self.chain)

    @property
    def intermediates(self) -> tuple[tuple[int, ...], ...]:
        return tuple(point for _, point in self.chain)


def minuscule_lift(lam: Sequence[int], mu: Sequence[int], rd: RootDatum) -> LiftResult:
    """Certify lam in the orbit of the minuscule dominant mu, step by step.

    Walks lam up to dominance with simple reflections, requires the
    dominant representative to coincide with mu, then replays the walk
    downward from mu: each downward step subtracts a simple coroot whose
    root pairs to exactly 1 with the current point.  A pairing other than
    1 on the way down is a structural failure and raises; it is never
    silently repaired.  Each reflected point is checked to be the current
    point minus that coroot, so every point stays in the W_0-orbit of mu;
    W_0 permutes the roots, so the orbit of the minuscule mu is minuscule
    throughout and no point needs its own minuscularity check.
    """
    lam = tuple(exact_int(x, "a coordinate of lambda", ChainPreconditionError) for x in lam)
    mu = tuple(exact_int(x, "a coordinate of mu", ChainPreconditionError) for x in mu)
    if not is_dominant(mu, rd):
        raise NotDominantError(f"mu = {mu} is not dominant")
    if not is_minuscule(mu, rd):
        raise NotMinusculeError(f"mu = {mu} pairs outside [-1, 1] with some root")
    lam_dom, word = dominant_rep(lam, rd)
    if lam_dom != mu:
        # the only dominant weight integrally below a minuscule mu is mu
        # itself, so this either fails a precondition or falsifies
        # minuscularity; distinguish the two
        stembridge_chain(lam_dom, mu, rd)  # raises with the precise reason
        raise LiftConsistencyError(
            f"dominant representative {lam_dom} of {lam} is strictly below the "
            f"minuscule {mu}; the orbit structure is broken"
        )
    cur = mu
    chain = []
    for i in reversed(word):
        c = sum(map(_times, cur, rd.simple_roots[i]))
        if c != 1:
            raise LiftConsistencyError(
                f"descent from {cur} along simple root {i} has pairing {c} != 1"
            )
        coroot = rd.simple_coroots[i]
        nxt = simple_reflection(cur, i, rd)
        if nxt != tuple(map(_minus, cur, coroot)):
            raise LiftConsistencyError(
                f"reflecting {cur} in simple root {i} gave {nxt}, not {cur} minus its coroot"
            )
        cur = nxt
        chain.append((coroot, cur))
    if cur != lam:
        raise LiftConsistencyError("reflection chain did not return to the input")
    return LiftResult(lam, tuple(chain))
