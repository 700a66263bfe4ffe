"""Integral first homology of a capped ribbon surface, with the
intersection pairing, curve classes, Dehn-twist matrices, and the
distinguished involution on curve classes.

Pipeline (all exact over the integers, every step certified):

1. the spanning tree of the crossing graph (``RibbonGraph.spanning_tree``,
   the walk that also tests connectivity for ``euler_and_genus``)
   identifies the cycle lattice of the graph with ``Z^m``, ``m = E - V + 1``
   (coordinates = coefficients on non-tree arcs);
2. boundary-walk vectors span the face relations; their Smith normal form
   must have all invariant factors 1 (otherwise the quotient has torsion,
   which signals an inconsistent sign assignment) and rank ``F - 1``;
   the quotient projection ``Q`` and a section of it come from the
   unimodular transform and its inverse;
3. curve classes are the ``Q``-images of the curves' cycle vectors; their
   Smith form must again be all ones (the curves generate the lattice);
4. the crossing form (sum of signed shared crossings) is transported to the
   quotient: it must vanish on the kernel of the curve-class matrix, and
   the induced antisymmetric matrix ``J`` must be unimodular and reproduce
   the crossing form exactly.

Failures raise :class:`AdmissibilityError`; the sign search uses these as
its filter.
"""
from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from functools import cached_property

from .intlin import (
    IntMatrix,
    IntVector,
    identity,
    is_antisymmetric,
    is_unimodular,
    is_zero,
    kernel_basis,
    mat_mul,
    mat_mul_many,
    mat_vec,
    right_inverse,
    smith_normal_form,
    transpose,
)
from .surface import (
    CurveId,
    CurveSystem,
    RibbonGraph,
    build_reference_configuration,
    curve_edge_vector,
    euler_and_genus,
    face_edge_vectors,
    ribbon_from_system,
)

__all__ = [
    "AdmissibilityError",
    "NotWellDefinedError",
    "HomologyModel",
    "MappingClassMatrix",
    "homology_model",
    "reference_model",
    "is_symplectic",
    "twist_word_matrix",
    "psi_reference",
]


class AdmissibilityError(RuntimeError):
    """The ribbon data does not produce a consistent surface homology."""


class NotWellDefinedError(AdmissibilityError):
    """A map prescribed on curve classes conflicts with their relations."""


class MappingClassMatrix(
    namedtuple("MappingClassMatrix", ("matrix", "model_fingerprint", "word"), defaults=(None,))
):
    """Integer matrix action on the homology lattice, tagged with the model
    fingerprint it belongs to and (optionally) the twist word it came from.

    Twist products are built only by :func:`twist_word_matrix`; a matrix is
    checked against its model with :meth:`HomologyModel.check_fingerprint`.
    ``word`` is the tuple of ``(curve, sign)`` letters, or None.
    """

    __slots__ = ()


class HomologyModel(
    namedtuple(
        "HomologyModel",
        ("system", "curve_order", "genus", "classes", "form", "crossing_form", "section", "kernel"),
    )
):
    """First homology of the capped surface with its intersection form.

    ``classes`` holds one column per curve (in ``curve_order``); ``form`` is
    the antisymmetric unimodular matrix of the intersection pairing in the
    same lattice basis; ``section`` is an integer right inverse of
    ``classes``; ``kernel`` columns span the relations among curve classes.

    Four caches live on the model and die with it: ``class_columns``
    holds the class of each curve, ``identity`` the rank x rank identity
    whose rows every twist product shares, ``transvections`` the sparse
    data of each twist ``T_c^s`` used so far, and ``letter_matrices`` the
    matrices of conjugated twist letters.

    The shapes: ``classes`` is 2g x N, ``form`` 2g x 2g, ``crossing_form``
    (from the signed crossings) N x N, ``section`` N x 2g with ``classes @
    section`` the identity, and ``kernel`` N x (N - 2g).  The caches live
    in the instance ``__dict__``, outside the tuple.
    """

    @cached_property
    def rank(self) -> int:
        return 2 * self.genus

    @cached_property
    def curve_index(self) -> dict[CurveId, int]:
        return {c: i for i, c in enumerate(self.curve_order)}

    @cached_property
    def identity(self) -> IntMatrix:
        """The rank x rank identity, built once per model: every twist
        product takes its untouched rows from it, so two products compare
        those rows by object identity."""
        return identity(self.rank)

    @cached_property
    def transvections(self) -> dict:
        """Sparse data of ``T_c^s`` per ``(c, s)``, filled by
        ``twist_word_matrix``; at most two entries per curve."""
        return {}

    @cached_property
    def letter_matrices(self) -> dict:
        """Matrices of conjugated twist letters on this model, filled by
        ``factorization.letter_matrix``; it lives as long as the model."""
        return {}

    @cached_property
    def fingerprint(self) -> str:
        payload = json.dumps(
            {
                "curves": [c.label for c in self.curve_order],
                "crossings": [
                    [x.first.label, x.second.label, x.sign]
                    for x in self.system.crossings
                ],
                "classes": [list(row) for row in self.classes],
                "form": [list(row) for row in self.form],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @cached_property
    def class_columns(self) -> IntMatrix:
        """The columns of ``classes``, one per curve in ``curve_order``."""
        return transpose(self.classes)

    def curve_class(self, c: CurveId) -> IntVector:
        return self.class_columns[self.curve_index[c]]

    def pairing(self, c1: CurveId, c2: CurveId) -> int:
        """The intersection number of the two curve classes, read off the
        crossing form, which ``homology_model`` certified to equal
        ``classes^T @ form @ classes``."""
        return self.crossing_form[self.curve_index[c1]][self.curve_index[c2]]

    def check_fingerprint(self, m: MappingClassMatrix) -> None:
        if m.model_fingerprint != self.fingerprint:
            raise AdmissibilityError(
                "matrix belongs to a different model "
                f"({m.model_fingerprint[:12]}… vs {self.fingerprint[:12]}…)"
            )


def _crossing_form(sys: CurveSystem, order: tuple[CurveId, ...]) -> IntMatrix:
    index = {c: i for i, c in enumerate(order)}
    m = [[0] * len(order) for _ in order]
    for x in sys.crossings:
        i, j = index[x.first], index[x.second]
        m[i][j] += x.sign
        m[j][i] -= x.sign
    return tuple(tuple(row) for row in m)


def homology_model(rg: RibbonGraph) -> HomologyModel:
    sys = rg.system
    _, genus = euler_and_genus(rg)
    walks = rg.walks
    free = tuple(i for i in range(len(rg.edges)) if i not in rg.spanning_tree)

    def fundamental(vec: tuple[int, ...]) -> IntVector:
        return tuple(vec[i] for i in free)

    m = len(free)
    faces = transpose([fundamental(v) for v in face_edge_vectors(rg)])
    snf = smith_normal_form(faces)
    if any(f != 1 for f in snf.invariant_factors):
        raise AdmissibilityError(
            f"face quotient has torsion: invariant factors {snf.invariant_factors}"
        )
    if snf.rank != len(walks) - 1:
        raise AdmissibilityError(
            f"face relations have rank {snf.rank}, expected {len(walks) - 1}"
        )
    rank = m - snf.rank
    if rank != 2 * genus:
        raise AdmissibilityError(
            f"lattice rank {rank} does not match 2*genus = {2 * genus}"
        )
    projection = snf.U[snf.rank :]
    section_of_projection = tuple(row[snf.rank :] for row in snf.U_inv)
    if mat_mul(projection, section_of_projection) != identity(rank):
        raise AdmissibilityError("face quotient projection has no integer section")

    order = tuple(sys.curves)
    classes = transpose(
        [
            mat_vec(projection, fundamental(curve_edge_vector(rg, c)))
            for c in order
        ]
    )
    class_snf = smith_normal_form(classes)
    if class_snf.rank != rank or any(f != 1 for f in class_snf.invariant_factors):
        raise AdmissibilityError(
            "curve classes do not generate the lattice: rank "
            f"{class_snf.rank}/{rank}, factors {class_snf.invariant_factors}"
        )

    crossing_form = _crossing_form(sys, order)
    kernel = transpose(kernel_basis(class_snf))
    if kernel and not is_zero(mat_mul(crossing_form, kernel)):
        raise AdmissibilityError(
            "crossing form does not vanish on the relations among curves"
        )
    section = right_inverse(classes, class_snf)
    form = mat_mul_many(transpose(section), crossing_form, section)
    if not is_antisymmetric(form):
        raise AdmissibilityError("induced pairing is not antisymmetric")
    if mat_mul_many(transpose(classes), form, classes) != crossing_form:
        raise AdmissibilityError("induced pairing does not reproduce the crossings")
    if not is_unimodular(form):
        raise AdmissibilityError("induced pairing is not unimodular")

    return HomologyModel(
        system=sys,
        curve_order=order,
        genus=genus,
        classes=classes,
        form=form,
        crossing_form=crossing_form,
        section=section,
        kernel=kernel,
    )


def reference_model(b: int) -> HomologyModel:
    return homology_model(ribbon_from_system(build_reference_configuration(b)))


def is_symplectic(m: MappingClassMatrix, model: HomologyModel) -> bool:
    model.check_fingerprint(m)
    return (
        mat_mul_many(transpose(m.matrix), model.form, m.matrix) == model.form
    )


def _transvection(model: HomologyModel, c: CurveId, sign: int) -> tuple[tuple, tuple]:
    """Sparse data of ``T_c^sign = I - sign * v (Jv)^T`` with ``v`` the class
    of ``c``: the nonzero entries of ``v`` and of ``sign * Jv``."""
    if sign not in (+1, -1):
        raise ValueError(f"twist sign must be ±1, got {sign}")
    if c not in model.curve_index:
        raise KeyError(f"unknown curve {c.label}")
    v = model.curve_class(c)
    jv = mat_vec(model.form, v)
    return (
        tuple((j, x) for j, x in enumerate(v) if x),
        tuple((k, sign * y) for k, y in enumerate(jv) if y),
    )


def twist_word_matrix(model: HomologyModel, word) -> MappingClassMatrix:
    """Matrix of a twist word ``[l1, ..., lk]`` (the rightmost letter acts
    first, matching the global composition convention).  The letter
    ``(c, +1)`` acts by ``x -> x - <x, c> c`` and ``(c, -1)`` by its
    inverse; the direction convention is pinned by the pair identities
    T_a T_b(a) = -b, T_b T_a(b) = a for <a, b> = +1.

    Each letter is a rank-one update of the running product,
    ``M T_c^s = M - s (M v)(J v)^T``, applied in place to the nonzero
    entries of ``v`` and ``J v``; the sparse data of each ``(c, s)`` is
    built once per model.  Only the rows that differ from the identity
    are kept, keyed by row index: a row ``e_i`` meets ``v`` in ``v[i]``,
    so a letter first adds the unit rows at its support and then updates
    the touched rows alone.  The other rows are the very row objects of
    ``model.identity``, shared by every product on the model."""
    letters = tuple((c, s) for c, s in word)
    n = model.rank
    touched: dict[int, list[int]] = {}
    cache = model.transvections
    for letter in letters:
        data = cache.get(letter)
        if data is None:
            data = cache[letter] = _transvection(model, *letter)
        support, update = data
        if len(touched) < n:
            for j, _ in support:
                if j not in touched:
                    row = touched[j] = [0] * n
                    row[j] = 1
        for row in touched.values():
            t = 0
            for j, x in support:
                t += row[j] * x
            if t:
                for k, y in update:
                    row[k] -= t * y
    rows = list(model.identity)
    for i, row in touched.items():
        rows[i] = tuple(row)
    return MappingClassMatrix(tuple(rows), model.fingerprint, letters)


def psi_reference(model: HomologyModel) -> MappingClassMatrix:
    """The lattice involution sending each curve class to minus its partner
    class: sigma to minus itself, alpha_i <-> delta_i and beta_i <->
    gamma_i.  Raises if the prescription conflicts with the relations among
    curve classes."""
    partner = {
        "sigma": "sigma", "alpha": "delta", "delta": "alpha", "beta": "gamma", "gamma": "beta",
    }
    # column j = class of psi(curve_j), a negated column of ``classes``
    moved = transpose(
        [
            tuple(-x for x in model.curve_class(CurveId(partner[c.family], c.index)))
            for c in model.curve_order
        ]
    )
    if model.kernel and not is_zero(mat_mul(moved, model.kernel)):
        raise NotWellDefinedError(
            "prescribed curve images violate the relations among curve classes"
        )
    psi = mat_mul(moved, model.section)
    if mat_mul(psi, model.classes) != moved:
        raise NotWellDefinedError("involution does not extend the curve images")
    if mat_mul(psi, psi) != model.identity:
        raise AdmissibilityError("curve-image involution does not square to one")
    out = MappingClassMatrix(psi, model.fingerprint, None)
    if not is_symplectic(out, model):
        raise AdmissibilityError("curve-image involution does not preserve the form")
    return out
