"""The signed crossing form of a curve system, in curve coordinates.

For curves ``c`` and ``d``, ``C[c][d]`` sums the signs of the crossings
of ``c`` with ``d``, so ``C`` is antisymmetric; it is the intersection
pairing of the curve classes.  When ``C`` has rank 2g with unit
invariant factors, the curve classes generate ``H_1`` of the closed
genus-g surface and a combination of curves is zero in ``H_1`` exactly
when ``C`` sends it to zero, so questions about ``H_1`` become questions
about ``C``:

* the twist letter ``(c, s)`` acts on curve coordinates by the
  Picard-Lefschetz rule ``x_c -= s * sum_d C[d][c] x_d`` (Farb and
  Margalit, *A Primer on Mapping Class Groups*, Prop. 6.3), which reads
  only the neighbours of ``c``, and it fixes ``ker C`` pointwise, so it
  lifts the twist on ``H_1``;
* two words agree on ``H_1`` when ``C`` kills the difference of their
  images.

The crossing graph of the reference configuration is a tree.  The form of
a signed tree has rank twice its matching number (Cvetkovic and Gutman,
1972), and peeling a leaf with its neighbour is a unimodular step, so a
greedy leaf matching gives the rank and shows every invariant factor is
1; back-substitution over the matched pairs gives a basis of ``ker C``.
No Smith form and no homology model is built, so this module imports
neither ``homology`` nor ``intlin``.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .surface import AdmissibilityError

__all__ = ["CrossingTree", "crossing_tree"]


class CrossingTree(
    namedtuple("CrossingTree", ("curves", "form", "matching", "kernel"))
):
    """The crossing form of a curve system whose support is a forest.

    ``form[i]`` maps each neighbour ``j`` of curve ``i`` (in ``curves``
    order) to ``C[i][j]``, which is ±1.  ``matching`` holds the pairs
    ``(leaf, neighbour)`` in peeling order, and ``kernel`` a basis of
    ``ker C``, one vector of length N per unmatched curve.  Sparse rows
    are dicts from curve index to a nonzero coefficient."""

    @cached_property
    def index(self) -> dict:
        return {c: i for i, c in enumerate(self.curves)}

    @property
    def rank(self) -> int:
        return 2 * len(self.matching)

    def images(self, word) -> list[dict[int, int]]:
        """The images of the curves under a twist word (the rightmost
        letter acts first), as sparse rows: ``X[k][j]`` is the
        coefficient of curve ``k`` in the image of curve ``j``.  A letter
        ``(c, s)`` adds ``s * C[c][d]`` times row ``d`` to row ``c`` for
        each neighbour ``d`` of ``c``."""
        steps = {}
        for i, (c, row) in enumerate(zip(self.curves, self.form)):
            for s in (1, -1):
                steps[c, s] = (i, tuple((d, s * w) for d, w in row.items()))
        rows = [{i: 1} for i in range(len(self.curves))]
        for letter in reversed(word):
            try:
                i, terms = steps[letter]
            except KeyError:
                raise ValueError(f"letter {letter!r} is not a twist on the system") from None
            row = rows[i]
            for d, k in terms:
                for j, x in rows[d].items():
                    y = row.get(j, 0) + k * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        return rows

    def times(self, rows) -> list[dict[int, int]]:
        """``C @ M`` for a matrix ``M`` given by its sparse rows."""
        out = []
        for form_row in self.form:
            acc: dict[int, int] = {}
            for d, w in form_row.items():
                for j, x in rows[d].items():
                    acc[j] = acc.get(j, 0) + w * x
            out.append({j: x for j, x in acc.items() if x})
        return out


def crossing_tree(system) -> CrossingTree:
    """Peel the crossing form of ``system`` leaf by leaf; raises
    :class:`AdmissibilityError` unless its support is a forest with
    entries ±1."""
    curves = tuple(system.curves)
    index = {c: i for i, c in enumerate(curves)}
    form: list[dict[int, int]] = [{} for _ in curves]
    for first, second, sign in system.crossings:
        i, j = index[first], index[second]
        form[i][j] = form[i].get(j, 0) + sign
        form[j][i] = form[j].get(i, 0) - sign
    if any(abs(w) != 1 for row in form for w in row.values()):
        raise AdmissibilityError("two curves pair to neither +1 nor -1 in the crossing form")

    degree = [len(row) for row in form]
    removed = [False] * len(curves)
    leaves = [i for i, d in enumerate(degree) if d == 1]
    matching = []
    while leaves:
        v = leaves.pop()
        if removed[v] or degree[v] != 1:
            continue  # its last neighbour was matched since it was queued
        u = next(d for d in form[v] if not removed[d])
        matching.append((v, u))
        removed[v] = removed[u] = True
        for w in form[u]:
            if not removed[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    free = [i for i, gone in enumerate(removed) if not gone]
    if any(degree[i] for i in free):
        raise AdmissibilityError("the crossing graph has a cycle")

    # Every matched neighbour u has x_u = 0, and the row of u fixes x_v
    # from the curves peeled after the pair, so one pass in reverse
    # peeling order solves C x = 0 for each choice of one free curve.
    kernel = []
    for f in free:
        x = [0] * len(curves)
        x[f] = 1
        for v, u in reversed(matching):
            x[v] = -form[u][v] * sum(w * x[d] for d, w in form[u].items())
        kernel.append(tuple(x))
    return CrossingTree(curves, tuple(form), tuple(matching), tuple(kernel))
