"""Textual notation for affine Weyl elements.

Canonical form: `t[1,0]*s1*s2` is the translation part followed by the
greedy reduced word of the finite part in the finite generators.  The
parser also accepts `e`, bare generators `s0`, `s1`, .., and `tau[1,0]`
(the length-zero representative of the class of a cocharacter);
format_element and parse_element are mutually inverse on canonical forms.
"""

from __future__ import annotations

import re

from .affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    _element,
    identity_element,
    iwahori_generators,
    mul,
    omega_rep,
    reduced_word,
    translation_element,
)
from .root_datum import RootDatum

_TERM_RE = re.compile(r"^(e|t\[(?P<tv>-?\d+(,-?\d+)*)\]|s(?P<si>\d+)|tau\[(?P<ov>-?\d+(,-?\d+)*)\])$")


def _finite_word(rd: RootDatum, w: AffineWeylElement) -> tuple[int, ...]:
    """Greedy reduced word of the finite part, as affine generator indices.

    It is the cached reduced word of t_0 u: at translation 0 the wall of an
    affine node pairs to -sign <= 0, so no affine generator is ever a
    descent and every letter is a finite node.  A length-zero remainder
    other than the identity means u is not in the finite Weyl group.
    """
    letters, rest = reduced_word(rd, _element((0,) * rd.rank, w._u))
    if not rest._u.is_identity:
        raise AffineWeylError("finite part is not in the finite Weyl group")
    return letters


def format_element(rd: RootDatum, w: AffineWeylElement) -> str:
    parts = ["t[" + ",".join(str(x) for x in w.translation) + "]"]
    parts += [f"s{i}" for i in _finite_word(rd, w)]
    return "*".join(parts)


def parse_element(rd: RootDatum, text: str) -> AffineWeylElement:
    gens = iwahori_generators(rd)
    out = identity_element(rd)
    for term in text.strip().split("*"):
        m = _TERM_RE.match(term.strip())
        if not m:
            raise AffineWeylError(f"cannot parse element term {term!r}")
        if term.strip() == "e":
            continue
        if m.group("tv") is not None:
            lam = tuple(int(x) for x in m.group("tv").split(","))
            out = mul(out, translation_element(lam, rd))
        elif m.group("si") is not None:
            idx = int(m.group("si"))
            if idx >= len(gens):
                raise AffineWeylError(f"generator s{idx} out of range")
            out = mul(out, gens[idx])
        else:
            lam = tuple(int(x) for x in m.group("ov").split(","))
            out = mul(out, omega_rep(rd, lam))
    return out
