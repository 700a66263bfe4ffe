"""The calibration that checks the crossing-sign convention at sigma.

The reference configuration fixes the signs of the four crossings on
``sigma`` as :data:`twistbench.surface.SIGMA_SIGNS`.  This module checks
that convention against the other fifteen.  ``probe_signs`` runs one
tuple, and ``sigma_sign_search`` tabulates all sixteen.  A tuple passes
when its configuration

  * is admissible: its signed crossing form C has rank 2g, with g read
    from the boundary walks, so the curve classes generate ``H_1``, and
  * admits the well-defined curve-swapping involution, and
  * satisfies the product identity: the six-factor Coxeter word equals
    that involution on homology.

Every check runs in curve coordinates on the crossing tree
(:mod:`twistbench.crossing`), with no homology model: with ``P`` the
signed permutation ``P e_j = -e_partner(j)`` and ``X`` the images of the
curves under the gluing word, the involution is well defined when ``P``
maps ``ker C`` into ``ker C`` and preserves the form when ``P^T C P =
C``; the product matches when ``C (X - P) = 0`` and is symplectic when
``X^T C X = C``.  The face-relation pipeline of
:mod:`twistbench.homology` computes the same verdicts and is their test
oracle.

``probe_signs`` is the one pipeline of the product identity: it
computes every verdict ``verify-psi`` prints, and the command only
renders them.  It is the module's one cache, keyed by ``(b, signs)``,
so each tuple's crossing tree is built once per fibre however many
callers ask.  ``canonical_sigma_signs`` returns ``SIGMA_SIGNS`` once
its b = 2 probe passes and raises otherwise; ``verify-psi --sign-mode
auto`` builds with that answer, and at b = 2 its report reads the same
cached probe.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .coxeter import psi_factorization
from .crossing import crossing_tree
from .surface import (
    PSI_PARTNERS,
    SIGMA_SIGNS,
    AdmissibilityError,
    CurveId,
    build_reference_configuration,
    euler_and_genus,
    ribbon_from_system,
)

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
        _, genus = euler_and_genus(rg)
        walks = len(rg.walks)
        tree = crossing_tree(system)
        if tree.rank != 2 * genus:
            raise AdmissibilityError(
                f"lattice rank {tree.rank} does not match 2*genus = {2 * genus}"
            )
    except (AdmissibilityError, ValueError) as exc:
        return SignProbe(signs, False, None, None, None, False, None, None, str(exc))
    form, rank = tree.form, tree.rank
    # psi e_j = -e_p[j]; it is well defined when it maps ker C into ker C,
    # and it preserves the form when C[p[i]][p[j]] = C[i][j]
    p = [tree.index[CurveId(PSI_PARTNERS[c.family], c.index)] for c in tree.curves]
    detail = ""
    if any(any(sum(w * k[p[d]] for d, w in row.items()) for row in form) for k in tree.kernel):
        detail = "prescribed curve images violate the relations among curve classes"
    elif any({p[d]: w for d, w in row.items()} != form[p[i]] for i, row in enumerate(form)):
        detail = "curve-image involution does not preserve the form"
    if detail:
        return SignProbe(signs, True, walks, genus, rank, False, None, None, detail)
    images = tree.images(psi_factorization(b))
    form_images = tree.times(images)
    # C X = C psi, where row i of C psi is {p[d]: -C[i][d]}
    matches = all(
        cx == {p[d]: -w for d, w in row.items()} for cx, row in zip(form_images, form)
    )
    # X^T C X = C, summed one row of X and of C X at a time
    gram: list[dict[int, int]] = [{} for _ in form]
    for x_row, cx_row in zip(images, form_images):
        for i, x in x_row.items():
            g = gram[i]
            for j, y in cx_row.items():
                g[j] = g.get(j, 0) + x * y
    symplectic = all(
        {j: v for j, v in g.items() if v} == row for g, row in zip(gram, form)
    )
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
