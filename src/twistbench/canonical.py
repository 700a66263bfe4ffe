"""The calibration that checks the crossing-sign convention at sigma.

The reference configuration fixes the signs of the four crossings on
``sigma`` as :data:`twistbench.surface.SIGMA_SIGNS`.  This module checks
that convention against the other fifteen.  ``probe_signs`` runs one
tuple, and ``sigma_sign_search`` tabulates all sixteen.  A tuple passes
when its configuration

  * builds an admissible homology model (four boundary walks, torsion-free
    quotient, unimodular form), and
  * admits the well-defined curve-swapping involution, and
  * satisfies the product identity: the six-factor Coxeter word equals
    that involution on homology.

``probe_signs`` is the one pipeline of the product identity: it
computes every verdict ``verify-psi`` prints, and the command only
renders them.  It is the module's one cache, keyed by ``(b, signs)``,
so each tuple's model is built once per fibre however many callers ask.
``canonical_sigma_signs`` returns ``SIGMA_SIGNS`` once its b = 2 probe
passes and raises otherwise; ``verify-psi --sign-mode auto`` builds with
that answer, and at b = 2 its report reads the same cached probe.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .coxeter import psi_factorization
from .homology import (
    AdmissibilityError,
    homology_model,
    is_symplectic,
    psi_reference,
    twist_word_matrix,
)
from .surface import SIGMA_SIGNS, build_reference_configuration, ribbon_from_system

__all__ = [
    "SignProbe", "probe_signs", "sigma_sign_search", "canonical_sigma_signs",
]

ALL_SIGN_TUPLES = tuple(itertools.product((1, -1), repeat=4))


class SignProbe(
    namedtuple(
        "SignProbe",
        (
            "signs", "admissible", "walks", "genus", "rank",
            "psi_defined", "product_matches", "product_symplectic", "detail",
        ),
    )
):
    """The verdicts for one sign tuple on one fibre; ``product_matches``
    and ``product_symplectic`` are None where the probe stopped before
    the product."""

    __slots__ = ()


@lru_cache(maxsize=None)
def probe_signs(b: int, signs: tuple) -> SignProbe:
    try:
        system = build_reference_configuration(b, sigma_signs=signs)
        rg = ribbon_from_system(system)
        model = homology_model(rg)
    except (AdmissibilityError, ValueError) as exc:
        return SignProbe(signs, False, None, None, None, False, None, None, str(exc))
    walks, genus, rank = len(rg.walks), model.genus, model.rank
    try:
        psi = psi_reference(model)
    except AdmissibilityError as exc:
        return SignProbe(signs, True, walks, genus, rank, False, None, None, str(exc))
    product = twist_word_matrix(model, psi_factorization(b))
    matches = product.matrix == psi.matrix
    symplectic = is_symplectic(product, model)
    return SignProbe(signs, True, walks, genus, rank, True, matches, symplectic, "")


def sigma_sign_search(b: int) -> tuple[SignProbe, ...]:
    """Probe all sixteen sign tuples on the fibre for the given b."""
    return tuple(probe_signs(b, signs) for signs in ALL_SIGN_TUPLES)


def canonical_sigma_signs() -> tuple[int, int, int, int]:
    """``SIGMA_SIGNS``, once the full calibration passes under it at b=2."""
    probe = probe_signs(2, SIGMA_SIGNS)
    if not (probe.admissible and probe.psi_defined and probe.product_matches):
        raise AdmissibilityError(f"sigma signs {SIGMA_SIGNS} fail the product calibration")
    return SIGMA_SIGNS
