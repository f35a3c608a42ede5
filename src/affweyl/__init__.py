"""Exact affine Weyl group combinatorics.

Admissible sets, Bruhat order, straight elements, Newton points and the
component-bound index data for split reductive groups, all in exact
integer and rational arithmetic.
"""

__version__ = "0.1.0"

from .root_datum import (
    FinAbGroup,
    RootDatum,
    RootDatumError,
    build_root_datum,
    dominance_leq,
    dominant_rep,
    fundamental_group,
    is_dominant,
    pairing,
    weyl_orbit,
)
from .affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    ParahoricLevel,
    SigmaAction,
    bruhat_leq,
    double_coset_rep,
    identity_element,
    inv,
    iwahori_generators,
    kottwitz,
    length,
    make_level,
    make_sigma,
    mul,
    omega_part,
    reduced_word,
    sigma_apply,
    sigma_from_name,
    sigma_identity,
    translation_element,
)
from .admissible import AdmissibleSet, KRPoset, adm, adm_K, is_admissible, kr_poset, tau
from .straight_newton import (
    ComponentsBoundReport,
    NewtonPoint,
    StraightClass,
    adlv_nonempty,
    b_set,
    components_bound_report,
    is_straight,
    levi_datum,
    mu_bar,
    newton_point,
    pi1_sigma_invariants,
    straight_classes,
)
from .stembridge import (
    CorootChain,
    LiftResult,
    is_minuscule,
    minuscule_lift,
    stembridge_chain,
)
from .gln_perm import adm_eq_perm_check, is_permissible, perm_set
from .notation import format_element, parse_element


def clear_caches() -> None:
    """Empty every module-level memo table (lru_cache) of the package.

    The intern table of finite Weyl matrices is emptied as well; the per-datum affine Weyl contexts are one of the tables.
    """
    import sys

    from .affine_weyl import _FINITE_PARTS

    for u in _FINITE_PARTS.values():
        u.products.clear()  # so an entry still held keeps no other alive
    _FINITE_PARTS.clear()
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in vars(module).values():
                if callable(value) and hasattr(value, "cache_clear"):
                    value.cache_clear()
