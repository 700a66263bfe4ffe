"""Calibration of the four crossing signs at the centre curve.

The reference configuration leaves the signs of the four crossings on
``sigma`` as free parameters.  This module probes the sixteen sign
tuples (``sigma_sign_search`` tabulates all of them) and fixes the
canonical one: the lexicographically first tuple (+1 ordered before -1)
whose configuration

  * builds an admissible homology model (four boundary walks, torsion-free
    quotient, unimodular form), and
  * admits the well-defined curve-swapping involution, and
  * satisfies the product identity: the six-factor Coxeter word equals
    that involution on homology, checked exactly at b = 2.

The calibration probes the tuples in order and stops at the first that
passes; it is cached, and ``build_reference_configuration(b, "auto")``
uses it for every b.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .coxeter import psi_factorization
from .homology import (
    AdmissibilityError,
    homology_model,
    psi_reference,
    twist_word_matrix,
)
from .surface import build_reference_configuration, ribbon_from_system

__all__ = ["SignProbe", "probe_signs", "sigma_sign_search", "canonical_sigma_signs"]

ALL_SIGN_TUPLES = tuple(itertools.product((1, -1), repeat=4))


@dataclass(frozen=True)
class SignProbe:
    """Diagnostics for one sign tuple on one fibre."""

    signs: tuple[int, int, int, int]
    admissible: bool
    walks: int | None
    genus: int | None
    rank: int | None
    psi_defined: bool
    product_matches: bool | None  # None when the product check was not run
    detail: str = ""


def probe_signs(b: int, signs, check_product: bool = False) -> SignProbe:
    signs = tuple(signs)
    try:
        system = build_reference_configuration(b, sigma_signs=signs)
        rg = ribbon_from_system(system)
        model = homology_model(rg)
    except (AdmissibilityError, ValueError) as exc:
        return SignProbe(signs, False, None, None, None, False, None, str(exc))
    walks, genus, rank = len(rg.walks), model.genus, model.rank
    try:
        psi = psi_reference(model)
    except AdmissibilityError as exc:
        return SignProbe(signs, True, walks, genus, rank, False, None, str(exc))
    matches: bool | None = None
    if check_product:
        product = twist_word_matrix(model, psi_factorization(b))
        matches = product.matrix == psi.matrix
    return SignProbe(signs, True, walks, genus, rank, True, matches)


@lru_cache(maxsize=None)
def sigma_sign_search(b: int, check_product: bool = False) -> tuple[SignProbe, ...]:
    """Probe all sixteen sign tuples on the fibre for the given b."""
    return tuple(probe_signs(b, signs, check_product) for signs in ALL_SIGN_TUPLES)


@lru_cache(maxsize=None)
def canonical_sigma_signs() -> tuple[int, int, int, int]:
    """Lexicographically first sign tuple passing the full calibration at b=2;
    the tuples after it are never probed."""
    for signs in ALL_SIGN_TUPLES:
        probe = probe_signs(2, signs, check_product=True)
        if probe.admissible and probe.psi_defined and probe.product_matches:
            return probe.signs
    raise AdmissibilityError("no sign tuple passes the product calibration")
