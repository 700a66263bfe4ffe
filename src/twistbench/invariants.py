"""Closed-form numerical invariants of simple bidouble covers of the
quadric, hypothesis checking for the non-equivalence statement, and
enumeration of the equal-invariant families.

A cover of type ``((2a, 2b), (2c, 2d))`` has branch degrees
``n = 2a + 2c`` and ``m = 2b + 2d``; the holomorphic Euler number is
``chi = ((n-4)(m-4) + 4(ab + cd)) / 4`` and the canonical self-
intersection ``K^2 = 2(n-4)(m-4)``.  The canonical class is the pull
back of a divisor of bidegree ``(a+c-2, b+d-2)`` from the quadric, and
the pull back is primitively embedded, so its divisibility index is the
gcd of the bidegree.  The fibres of the projection to the first ruling
are bidouble covers of a line branched in ``2b + 2d`` points, of genus
``2(b+d) - 3``.

``chi`` is cross-checked by an independent character-decomposition
oracle (the rank of each of the four eigensheaves of the direct image
of the structure sheaf); a circulating closed form for the ``d = b``
families with coefficient four on the ``b(a+c)`` term disagrees with
both and is reported by :func:`chi_report`, never used.  Similarly the
advertised expression of the deformation dimension through the
elementary symmetric data of ``(a+c, 2b)`` does not reproduce the
dimension formula; :func:`dimension_consistency` computes both sides so
the discrepancy stays visible instead of being silently reconciled.
"""
from __future__ import annotations

from collections import namedtuple
from math import gcd

__all__ = [
    "CoverType",
    "SurfaceInvariants",
    "invariants",
    "character_chi",
    "chi_report",
    "family_enumerate",
    "theorem_hypotheses",
    "deformation_dimension",
    "dimension_consistency",
]


class CoverType(namedtuple("CoverType", ("a", "b", "c", "d"))):
    """Bidegrees ``((2a, 2b), (2c, 2d))`` of the two branch curves; the
    equal-fibre families use ``d = b``."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "CoverType":
        for name, value in zip(cls._fields, (a, b, c, d)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        return tuple.__new__(cls, (a, b, c, d))

    @property
    def branch_degrees(self) -> tuple:
        return 2 * self.a + 2 * self.c, 2 * self.b + 2 * self.d


class SurfaceInvariants(
    namedtuple("SurfaceInvariants", ("chi", "K2", "divisibility", "fibre_genus"))
):
    """chi(O), K^2, the divisibility of K and the genus of a fibre."""

    __slots__ = ()


def invariants(t: CoverType) -> SurfaceInvariants:
    """Euler characteristic of the structure sheaf, canonical
    self-intersection, divisibility index of the canonical class, and
    genus of a fibre of the first ruling."""
    n, m = t.branch_degrees
    product = (n - 4) * (m - 4)
    # the quarter-product formula ((n-4)(m-4) + 4(ab+cd)) / 4, divided
    # out exactly: (n-4)(m-4) = 4(a+c-2)(b+d-2)
    return SurfaceInvariants(
        chi=(t.a + t.c - 2) * (t.b + t.d - 2) + t.a * t.b + t.c * t.d,
        K2=2 * product,
        divisibility=gcd(t.a + t.c - 2, t.b + t.d - 2),
        fibre_genus=2 * (t.b + t.d) - 3,
    )


def character_chi(t: CoverType) -> int:
    """Independent oracle: chi as the sum of the ranks of the four
    character eigensheaves, ``1 + (a-1)(b-1) + (c-1)(d-1) +
    (a+c-1)(b+d-1)``."""
    a, b, c, d = t.a, t.b, t.c, t.d
    return 1 + (a - 1) * (b - 1) + (c - 1) * (d - 1) + (a + c - 1) * (b + d - 1)


def chi_report(t: CoverType) -> dict:
    """chi by the quarter-product formula, by the character oracle, and
    by the coefficient-four variant form circulating for the ``d = b``
    families (``2(a+c-2)(b-1) + 4b(a+c)``); the variant disagrees with
    the two consistent routes and is flagged, not adopted."""
    computed = invariants(t).chi
    oracle = character_chi(t)
    report = {
        "chi": computed,
        "character_oracle": oracle,
        "oracle_agrees": computed == oracle,
    }
    if t.d == t.b:
        variant = 2 * (t.a + t.c - 2) * (t.b - 1) + 4 * t.b * (t.a + t.c)
        report["coefficient_four_variant"] = variant
        report["variant_agrees"] = variant == computed
    return report


# ---------------------------------------------------------------------------
# hypothesis checking and family enumeration


def _check(name: str, margins: dict, parity: dict | None = None) -> dict:
    margin = min(margins.values())
    parity_ok = all(v % 2 == 0 for v in (parity or {}).values())
    return {
        "name": name,
        "passed": margin >= 0 and parity_ok,
        "margin": margin,
        "binding": min(margins, key=margins.get),
        "odd": tuple(k for k, v in (parity or {}).items() if v % 2),
    }


def theorem_hypotheses(a: int, b: int, c: int, k: int) -> dict:
    """Evaluate the three hypotheses of the non-equivalence statement
    for the pair of types ``((2a,2b),(2c,2b))`` and
    ``((2a+2k,2b),(2c-2k,2b))`` - (I) a, b, c, k strictly positive even
    with a, b, c-k >= 4; (II) a >= 2c+1; (III) b >= c+2 - plus the
    weaker variant ``a, b, c-1 >= 2`` under which the members are
    already diffeomorphic.  Each condition reports its smallest margin
    (negative = violated) and the binding inequality."""
    conditions = {
        "I": _check(
            "a, b, c-k >= 4, all of a, b, c, k positive even",
            {"a-4": a - 4, "b-4": b - 4, "(c-k)-4": c - k - 4,
             "c-2": c - 2, "k-2": k - 2},
            parity={"a": a, "b": b, "c": c, "k": k},
        ),
        "II": _check("a >= 2c+1", {"a-(2c+1)": a - (2 * c + 1)}),
        "III": _check("b >= c+2", {"b-(c+2)": b - (c + 2)}),
        "variant": _check(
            "a, b, c-1 >= 2", {"a-2": a - 2, "b-2": b - 2, "(c-1)-2": c - 3}
        ),
    }
    main = [conditions[key] for key in ("I", "II", "III")]
    return {
        **conditions,
        "all_pass": all(cond["passed"] for cond in main),
        "smallest_margin": min(cond["margin"] for cond in main),
    }


def family_enumerate(a: int, b: int, c: int, k: int) -> tuple:
    """The ``k/2 + 1`` cover types ``((2a+2i, 2b), (2c-2i, 2b))`` for
    ``0 <= i <= k/2``, each with its invariants; all members share
    (chi, K^2, divisibility, fibre genus) since every invariant depends
    only on ``a+c`` and ``b``.  Refuses odd ``k`` and failing
    hypotheses."""
    if not isinstance(k, int) or k < 1 or k % 2:
        raise ValueError(f"the family parameter k must be a positive even integer, got {k!r}")
    checklist = theorem_hypotheses(a, b, c, k)
    if not checklist["all_pass"]:
        failed = [key for key in ("I", "II", "III") if not checklist[key]["passed"]]
        raise ValueError(
            f"hypotheses {', '.join(failed)} fail for (a, b, c, k) = "
            f"({a}, {b}, {c}, {k})"
        )
    members = []
    for i in range(k // 2 + 1):
        cover = CoverType(a + i, b, c - i, b)
        members.append((cover, invariants(cover)))
    shared = {inv for _, inv in members}
    if len(shared) != 1:
        raise RuntimeError(f"family members disagree on invariants: {shared}")
    return tuple(members)


# ---------------------------------------------------------------------------
# deformation dimension


def deformation_dimension(a: int, b: int, c: int) -> int:
    """Dimension ``(b+1)(4a+c+3) + 2b(a+c+1) - 8`` of the component of
    the moduli space containing the type-``((2a,2b),(2c,2b))`` covers."""
    return (b + 1) * (4 * a + c + 3) + 2 * b * (a + c + 1) - 8


def dimension_consistency(a: int, b: int, c: int) -> dict:
    """Both sides of the advertised identity expressing the dimension
    through ``alpha = a+c`` and ``beta = 2b``:
    ``3/2 (alpha beta) + (alpha + beta) + 3b(a+1)``.  The two sides
    disagree (e.g. 913 vs 876 at (14, 8, 6)); they are computed, not
    reconciled."""
    alpha, beta = a + c, 2 * b
    combination = (3 * alpha * beta) // 2 + (alpha + beta) + 3 * b * (a + 1)
    dimension = deformation_dimension(a, b, c)
    return {
        "dimension": dimension,
        "symmetric_combination": combination,
        "equal": dimension == combination,
    }
