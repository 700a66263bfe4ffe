"""Curve configurations on a closed surface and their ribbon-graph models.

The reference configuration for genus parameter ``b`` consists of four
chains of ``n = 2b-1`` curves (families ``alpha``, ``beta``, ``gamma``,
``delta``) plus one long curve ``sigma`` meeting the first curve of each
family once, in the cyclic order alpha, beta, gamma, delta along ``sigma``.

Conventions, fixed once and used everywhere:

- Curve orientations are chosen so that every chain crossing
  ``(X_i, X_{i+1})`` has sign +1.  The four sigma-crossing signs are
  parameters of the construction; the convention is :data:`SIGMA_SIGNS`,
  all +1.  :mod:`twistbench.canonical` checks it: its calibration probes
  this tuple at b = 2 and passes only if the product identity closes
  under it; ``sigma_sign_search`` tabulates all sixteen.
- At a crossing of ``(first, second)`` with sign ``s`` (the oriented
  intersection index of ``first`` with ``second``), the counterclockwise
  order of the four arc-ends is ``(first-in, second-in, first-out,
  second-out)`` for ``s = +1`` and ``(first-in, second-out, first-out,
  second-in)`` for ``s = -1``.
- Arcs are directed along their curve's orientation; arc ``e`` leaves
  the arc-end (dart) ``2e`` and enters dart ``2e + 1``.  The boundary of
  the oriented regular neighbourhood is traced by the permutation
  ``d -> ccw-successor of d ^ 1``.

A curve with no crossings cannot seed a four-valent vertex; following the
usual annulus trick, the ribbon builder gives such a curve one marked point
(a two-valent vertex carrying a single loop arc).
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property

__all__ = [
    "FAMILIES",
    "SIGMA_SIGNS",
    "PSI_PARTNERS",
    "ConfigurationError",
    "RibbonError",
    "AdmissibilityError",
    "CurveId",
    "Crossing",
    "CurveSystem",
    "RibbonGraph",
    "curve",
    "parse_curve",
    "check_genus",
    "build_reference_configuration",
    "subsystem",
    "ribbon_from_system",
    "euler_and_genus",
    "face_edge_vectors",
    "curve_edge_vector",
]

FAMILIES = ("alpha", "beta", "gamma", "delta")

# signs of the crossings of sigma with alpha_1, beta_1, gamma_1, delta_1
SIGMA_SIGNS = (1, 1, 1, 1)

# the gluing involution psi sends each curve to minus the curve of the
# partner family with the same index
PSI_PARTNERS = {
    "sigma": "sigma", "alpha": "delta", "delta": "alpha", "beta": "gamma", "gamma": "beta",
}


class ConfigurationError(ValueError):
    """Invalid construction parameters."""


class RibbonError(ValueError):
    """Degenerate or inconsistent ribbon-graph data."""


class AdmissibilityError(RuntimeError):
    """The ribbon data does not produce a consistent surface homology."""


class CurveId(namedtuple("CurveId", ("family", "index"))):
    """A curve of the configuration: ``index`` is 1..n within a family
    and 0 for the unique ``sigma``.

    An immutable tuple ``(family, index)``, so hashing, equality and the
    order (by family, then index) run in C.  It equals, and hashes like,
    the plain tuple: ``CurveId("alpha", 1) == ("alpha", 1)``."""

    __slots__ = ()

    def __new__(cls, family: str, index: int = 0) -> "CurveId":
        if family not in FAMILIES + ("sigma",):
            raise ConfigurationError(f"unknown family {family!r}")
        if (family == "sigma") != (index == 0):
            raise ConfigurationError(f"bad index {index} for {family}")
        return tuple.__new__(cls, (family, index))

    @property
    def label(self) -> str:
        return "sigma" if self.family == "sigma" else f"{self.family}_{self.index}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.label


def curve(family: str, index: int = 0) -> CurveId:
    return CurveId(family, index)


def parse_curve(label: str) -> CurveId:
    if not isinstance(label, str):
        raise ConfigurationError(f"cannot parse curve label {label!r}")
    if label == "sigma":
        return CurveId("sigma", 0)
    family, _, idx = label.partition("_")
    if not idx.isdigit():
        raise ConfigurationError(f"cannot parse curve label {label!r}")
    return CurveId(family, int(idx))


class Crossing(namedtuple("Crossing", ("first", "second", "sign"))):
    """A transverse double point; ``sign`` is the oriented intersection
    index of ``first`` with ``second``."""

    __slots__ = ()

    def __new__(cls, first: CurveId, second: CurveId, sign: int) -> "Crossing":
        if first == second:
            raise ConfigurationError("self-crossings are not supported")
        if sign not in (+1, -1):
            raise ConfigurationError(f"bad crossing sign {sign}")
        return tuple.__new__(cls, (first, second, sign))


class CurveSystem(
    namedtuple(
        "CurveSystem",
        ("curves", "crossings", "incidence_table", "b", "sigma_signs"),
        defaults=(None, None),
    )
):
    """Curves with crossings and the cyclic order of crossings along each
    curve.  ``b`` is set for reference configurations, None for derived
    subsystems.

    ``incidence_table`` pairs each curve with the indices of its crossings
    in cyclic order; ``sigma_signs`` are the four signs at sigma, or None.
    The lookup cache lives in the instance ``__dict__``, outside the
    tuple."""

    @cached_property
    def _incidences(self) -> dict[CurveId, tuple[int, ...]]:
        return dict(self.incidence_table)

    def incidences_of(self, c: CurveId) -> tuple[int, ...]:
        return self._incidences[c]

    @property
    def n(self) -> int:
        if self.b is None:
            raise ConfigurationError("not a reference configuration")
        return 2 * self.b - 1


def _system_from_orders(
    curves: tuple[CurveId, ...],
    crossings: tuple[Crossing, ...],
    orders: dict[CurveId, tuple[int, ...]],
    b: int | None,
    sigma_signs: tuple[int, int, int, int] | None,
) -> CurveSystem:
    expected: dict[CurveId, list[int]] = {c: [] for c in curves}
    for i, x in enumerate(crossings):
        expected[x.first].append(i)
        expected[x.second].append(i)
    for c in curves:
        if sorted(orders[c]) != expected[c]:
            raise ConfigurationError(f"incidence list of {c.label} is inconsistent")
    return CurveSystem(
        curves=curves,
        crossings=crossings,
        incidence_table=tuple((c, tuple(orders[c])) for c in curves),
        b=b,
        sigma_signs=sigma_signs,
    )


def check_genus(b) -> None:
    """The one rule on the genus parameter: an integer ``b >= 2``."""
    if not isinstance(b, int) or b < 2:
        raise ConfigurationError(f"genus parameter b must be an integer >= 2, got {b!r}")


def build_reference_configuration(
    b: int, sigma_signs=SIGMA_SIGNS
) -> CurveSystem:
    """The reference configuration: four chains of ``n = 2b-1`` curves plus
    ``sigma`` through the first curve of each chain.

    ``sigma_signs`` is a 4-tuple of ±1: the signs of the crossings of
    sigma with alpha_1, beta_1, gamma_1, delta_1, in this order.
    """
    check_genus(b)
    sigma_signs = tuple(int(s) for s in sigma_signs)
    if len(sigma_signs) != 4 or any(s not in (+1, -1) for s in sigma_signs):
        raise ConfigurationError(f"sigma_signs must be four entries of ±1, got {sigma_signs!r}")

    n = 2 * b - 1
    sigma = CurveId("sigma", 0)
    curves = tuple(
        CurveId(f, i) for f in FAMILIES for i in range(1, n + 1)
    ) + (sigma,)

    crossings: list[Crossing] = []
    chain_at: dict[tuple[str, int], int] = {}  # (family, i) -> crossing (X_i, X_{i+1})
    for f in FAMILIES:
        for i in range(1, n):
            chain_at[(f, i)] = len(crossings)
            crossings.append(Crossing(CurveId(f, i), CurveId(f, i + 1), +1))
    sigma_at: dict[str, int] = {}
    for f, s in zip(FAMILIES, sigma_signs):
        sigma_at[f] = len(crossings)
        crossings.append(Crossing(sigma, CurveId(f, 1), s))

    orders: dict[CurveId, tuple[int, ...]] = {}
    for f in FAMILIES:
        orders[CurveId(f, 1)] = (sigma_at[f], chain_at[(f, 1)])
        for i in range(2, n):
            orders[CurveId(f, i)] = (chain_at[(f, i - 1)], chain_at[(f, i)])
        orders[CurveId(f, n)] = (chain_at[(f, n - 1)],)
    # the pinned cyclic order of sigma's crossings: alpha, beta, gamma, delta
    orders[sigma] = tuple(sigma_at[f] for f in FAMILIES)

    return _system_from_orders(curves, tuple(crossings), orders, b, sigma_signs)


def subsystem(sys: CurveSystem, keep) -> CurveSystem:
    """Restriction to a subset of curves, keeping only their mutual
    crossings; per-curve cyclic orders are inherited from ``sys``."""
    keep = tuple(keep)
    keep_set = set(keep)
    if not keep_set <= set(sys.curves):
        missing = sorted(c.label for c in keep_set - set(sys.curves))
        raise ConfigurationError(f"unknown curves: {missing}")
    old_indices = [
        i
        for i, x in enumerate(sys.crossings)
        if x.first in keep_set and x.second in keep_set
    ]
    renumber = {old: new for new, old in enumerate(old_indices)}
    crossings = tuple(sys.crossings[i] for i in old_indices)
    orders = {
        c: tuple(renumber[i] for i in sys.incidences_of(c) if i in renumber)
        for c in keep
    }
    return _system_from_orders(keep, crossings, orders, None, None)


class RibbonGraph(
    namedtuple("RibbonGraph", ("system", "vertices", "edges", "rotation_table"))
):
    """Vertices (crossings and marked points), directed arcs, and the
    counterclockwise order of arc-ends ("darts") at every vertex.

    Dart ``2e`` is the tail and dart ``2e + 1`` the head of arc ``e``
    (the e-th entry of ``edges``): the other end of dart ``d`` is
    ``d ^ 1`` and its arc is ``d >> 1``.

    ``edges`` holds ``(curve, position)`` per arc and ``rotation_table``
    ``(vertex, darts in counterclockwise order)`` per vertex.  The cached
    darts, walks and spanning tree live in the instance ``__dict__``,
    outside the tuple."""

    @cached_property
    def darts(self) -> tuple[int, ...]:
        return tuple(d for _, rot in self.rotation_table for d in rot)

    def _check_darts(self) -> None:
        if sorted(self.darts) != list(range(2 * len(self.edges))):
            raise RibbonError("inconsistent cyclic orders: darts are not the ends of the arcs")

    @cached_property
    def walks(self) -> tuple[tuple[int, ...], ...]:
        """Boundary walks of the ribbon surface, as orbits of the permutation
        ``d -> ccw-successor of d ^ 1``, each started at its least dart.
        Inconsistent darts raise on every access (nothing is cached)."""
        self._check_darts()
        step = [0] * len(self.darts)
        for _, rot in self.rotation_table:
            for d, after in zip(rot, rot[1:] + rot[:1]):
                step[d ^ 1] = after
        seen = [False] * len(step)
        walks: list[tuple[int, ...]] = []
        for d in range(len(step)):
            walk = []
            while not seen[d]:
                seen[d] = True
                walk.append(d)
                d = step[d]
            if walk:
                walks.append(tuple(walk))
        return tuple(walks)

    @cached_property
    def spanning_tree(self) -> frozenset[int]:
        """Indices of the arcs of a spanning tree of the crossing graph,
        grown depth first from the first vertex with each vertex's arcs in
        arc order.  Inconsistent darts or a disconnected graph raise on
        every access (nothing is cached)."""
        self._check_darts()
        vertex_of = [None] * len(self.darts)
        for v, rot in self.rotation_table:
            for d in rot:
                vertex_of[d] = v
        adjacency: dict[object, list[tuple[object, int]]] = {v: [] for v in self.vertices}
        for i in range(len(self.edges)):
            tail, head = vertex_of[2 * i], vertex_of[2 * i + 1]
            adjacency[tail].append((head, i))
            adjacency[head].append((tail, i))
        stack = list(self.vertices[:1])
        reached = set(stack)
        tree: set[int] = set()
        while stack:
            for w, i in adjacency[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    tree.add(i)
                    stack.append(w)
        if len(reached) != len(self.vertices):
            raise RibbonError("ribbon graph must be connected")
        return frozenset(tree)


def ribbon_from_system(sys: CurveSystem) -> RibbonGraph:
    edges: list[tuple[CurveId, int]] = []
    first_arc: dict[CurveId, int] = {}
    for c in sys.curves:
        first_arc[c] = len(edges)
        edges.extend((c, k) for k in range(max(1, len(sys.incidences_of(c)))))

    def ends(c: CurveId, i: int) -> tuple[int, int]:
        """The darts (in, out) of curve ``c`` at crossing ``i``: the head of
        the arc arriving there and the tail of the arc leaving."""
        order = sys.incidences_of(c)
        k = order.index(i)
        return 2 * (first_arc[c] + (k - 1) % len(order)) + 1, 2 * (first_arc[c] + k)

    vertices: list[object] = []
    rotation_table: list[tuple[object, tuple[int, ...]]] = []
    for i, x in enumerate(sys.crossings):
        (d1i, d1o), (d2i, d2o) = ends(x.first, i), ends(x.second, i)
        rot = (d1i, d2i, d1o, d2o) if x.sign == +1 else (d1i, d2o, d1o, d2i)
        vertices.append(("x", i))
        rotation_table.append((("x", i), rot))
    for c in sys.curves:
        if not sys.incidences_of(c):
            # marked point so that the curve still bounds an annulus ribbon
            v = ("mark", c.label)
            e = first_arc[c]
            vertices.append(v)
            rotation_table.append((v, (2 * e + 1, 2 * e)))

    return RibbonGraph(
        system=sys,
        vertices=tuple(vertices),
        edges=tuple(edges),
        rotation_table=tuple(rotation_table),
    )


def euler_and_genus(rg: RibbonGraph) -> tuple[int, int]:
    """Euler characteristic of the ribbon surface and the genus of the
    closed surface obtained by capping every boundary walk with a disk."""
    rg.spanning_tree  # a disconnected graph raises RibbonError
    chi = len(rg.vertices) - len(rg.edges)
    capped = chi + len(rg.walks)
    if capped % 2 or capped > 2:
        raise RibbonError(f"capped Euler characteristic {capped} is impossible")
    return chi, (2 - capped) // 2


def face_edge_vectors(rg: RibbonGraph) -> tuple[tuple[int, ...], ...]:
    """One integer vector per boundary walk over ``rg.edges``: each arc-end
    contributes +1 to its arc when it is the tail, -1 when the head.  The
    vectors are cycles and sum to zero."""
    vectors = []
    for walk in rg.walks:
        vec = [0] * len(rg.edges)
        for d in walk:
            vec[d >> 1] += -1 if d & 1 else 1
        vectors.append(tuple(vec))
    return tuple(vectors)


def curve_edge_vector(rg: RibbonGraph, c: CurveId) -> tuple[int, ...]:
    return tuple(int(arc_curve == c) for arc_curve, _ in rg.edges)
