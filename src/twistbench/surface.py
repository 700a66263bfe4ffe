"""Curve configurations on a closed surface and their ribbon-graph models.

The reference configuration for genus parameter ``b`` consists of four
chains of ``n = 2b-1`` curves (families ``alpha``, ``beta``, ``gamma``,
``delta``) plus one long curve ``sigma`` meeting the first curve of each
family once, in the cyclic order alpha, beta, gamma, delta along ``sigma``.

Conventions, fixed once and used everywhere:

- Curve orientations are chosen so that every chain crossing
  ``(X_i, X_{i+1})`` has sign +1.  The four sigma-crossing signs are genuine
  parameters of the construction; the canonical assignment is found by the
  sign search in :mod:`twistbench.canonical`.
- At a crossing of ``(first, second)`` with sign ``s`` (the oriented
  intersection index of ``first`` with ``second``), the counterclockwise
  order of the four arc-ends is ``(first-in, second-in, first-out,
  second-out)`` for ``s = +1`` and ``(first-in, second-out, first-out,
  second-in)`` for ``s = -1``.
- Arcs are directed along their curve's orientation.  The boundary of the
  oriented regular neighbourhood is traced by the permutation
  ``dart -> ccw-successor of its partner arc-end``.

A curve with no crossings cannot seed a four-valent vertex; following the
usual annulus trick, the ribbon builder gives such a curve one marked point
(a two-valent vertex carrying a single loop arc).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "FAMILIES",
    "ConfigurationError",
    "RibbonError",
    "CurveId",
    "Crossing",
    "CurveSystem",
    "RibbonGraph",
    "curve",
    "parse_curve",
    "build_reference_configuration",
    "subsystem",
    "ribbon_from_system",
    "euler_and_genus",
    "face_edge_vectors",
    "curve_edge_vector",
]

FAMILIES = ("alpha", "beta", "gamma", "delta")


class ConfigurationError(ValueError):
    """Invalid construction parameters."""


class RibbonError(ValueError):
    """Degenerate or inconsistent ribbon-graph data."""


@dataclass(frozen=True, order=True)
class CurveId:
    family: str
    index: int = 0  # 1..n within a family; 0 for the unique sigma

    def __post_init__(self) -> None:
        if self.family not in FAMILIES + ("sigma",):
            raise ConfigurationError(f"unknown family {self.family!r}")
        if (self.family == "sigma") != (self.index == 0):
            raise ConfigurationError(f"bad index {self.index} for {self.family}")

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


@dataclass(frozen=True)
class Crossing:
    """A transverse double point; ``sign`` is the oriented intersection
    index of ``first`` with ``second``."""

    first: CurveId
    second: CurveId
    sign: int

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ConfigurationError("self-crossings are not supported")
        if self.sign not in (+1, -1):
            raise ConfigurationError(f"bad crossing sign {self.sign}")

    def involves(self, c: CurveId) -> bool:
        return c == self.first or c == self.second


# Darts are arc-ends: (curve, incidence position along the curve, "in"/"out").
Dart = tuple


@dataclass(frozen=True)
class CurveSystem:
    """Curves with crossings and the cyclic order of crossings along each
    curve.  ``b`` is set for reference configurations, None for derived
    subsystems."""

    curves: tuple[CurveId, ...]
    crossings: tuple[Crossing, ...]
    incidence_table: tuple[tuple[CurveId, tuple[int, ...]], ...]
    b: int | None = None
    sigma_signs: tuple[int, int, int, int] | None = None

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

    def shared_crossings(self, c1: CurveId, c2: CurveId) -> tuple[int, ...]:
        return tuple(
            i
            for i, x in enumerate(self.crossings)
            if x.involves(c1) and x.involves(c2)
        )

    def crossing_sign(self, i: int, c_first: CurveId) -> int:
        """Sign of crossing ``i`` read with ``c_first`` as the first curve."""
        x = self.crossings[i]
        if c_first == x.first:
            return x.sign
        if c_first == x.second:
            return -x.sign  # swapping the ordered pair flips the index
        raise ConfigurationError(f"{c_first.label} not at crossing {i}")


def _system_from_orders(
    curves: tuple[CurveId, ...],
    crossings: tuple[Crossing, ...],
    orders: dict[CurveId, tuple[int, ...]],
    b: int | None,
    sigma_signs: tuple[int, int, int, int] | None,
) -> CurveSystem:
    for c in curves:
        expected = sorted(
            i for i, x in enumerate(crossings) if x.involves(c)
        )
        if sorted(orders[c]) != expected:
            raise ConfigurationError(f"incidence list of {c.label} is inconsistent")
    return CurveSystem(
        curves=curves,
        crossings=crossings,
        incidence_table=tuple((c, tuple(orders[c])) for c in curves),
        b=b,
        sigma_signs=sigma_signs,
    )


def build_reference_configuration(
    b: int, sigma_signs="auto"
) -> CurveSystem:
    """The reference configuration: four chains of ``n = 2b-1`` curves plus
    ``sigma`` through the first curve of each chain.

    ``sigma_signs`` is either a 4-tuple of ±1 (signs of the crossings of
    sigma with alpha_1, beta_1, gamma_1, delta_1, in this order) or
    ``"auto"`` for the canonical assignment found by the recorded sign
    search.
    """
    if not isinstance(b, int) or b < 2:
        raise ConfigurationError(f"genus parameter b must be an integer >= 2, got {b!r}")
    if sigma_signs == "auto":
        from .canonical import canonical_sigma_signs

        sigma_signs = canonical_sigma_signs()
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


@dataclass(frozen=True)
class RibbonGraph:
    """Vertices (crossings and marked points), directed arcs, and the
    counterclockwise order of arc-ends at every vertex."""

    system: CurveSystem
    vertices: tuple[object, ...]
    edges: tuple[tuple[CurveId, int], ...]
    rotation_table: tuple[tuple[object, tuple[Dart, ...]], ...]

    @cached_property
    def _arc_counts(self) -> dict[CurveId, int]:
        counts: dict[CurveId, int] = {}
        for c, _ in self.edges:
            counts[c] = counts.get(c, 0) + 1
        return counts

    @cached_property
    def edge_index(self) -> dict[tuple[CurveId, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def rotations(self) -> dict[object, tuple[Dart, ...]]:
        return dict(self.rotation_table)

    @cached_property
    def darts(self) -> tuple[Dart, ...]:
        return tuple(d for _, rot in self.rotation_table for d in rot)

    @cached_property
    def rot_next(self) -> dict[Dart, Dart]:
        nxt: dict[Dart, Dart] = {}
        for _, rot in self.rotation_table:
            for i, d in enumerate(rot):
                nxt[d] = rot[(i + 1) % len(rot)]
        return nxt

    @cached_property
    def vertex_of_dart(self) -> dict[Dart, object]:
        return {
            d: v for v, rot in self.rotation_table for d in rot
        }

    @cached_property
    def walks(self) -> tuple[tuple[Dart, ...], ...]:
        """Boundary walks of the ribbon surface, as orbits of the permutation
        ``dart -> ccw-successor of partner(dart)``; deterministic order.
        Inconsistent data raises on every access (nothing is cached)."""
        darts = sorted(self.darts, key=_dart_sort_key)
        if len(set(darts)) != len(darts) or set(darts) != set(self.rot_next):
            raise RibbonError("inconsistent cyclic orders: darts are not a disjoint union")
        seen: set[Dart] = set()
        walks: list[tuple[Dart, ...]] = []
        for start in darts:
            if start in seen:
                continue
            walk = []
            d = start
            while True:
                walk.append(d)
                seen.add(d)
                d = self.rot_next[self.partner(d)]
                if d == start:
                    break
                if d in seen:
                    raise RibbonError("boundary tracing merged two walks")
            walks.append(tuple(walk))
        return tuple(walks)

    def partner(self, dart: Dart) -> Dart:
        """The other end of the arc carrying this arc-end."""
        c, k, io = dart
        length = self._arc_counts[c]
        if io == "out":
            return (c, (k + 1) % length, "in")
        return (c, (k - 1) % length, "out")

    def edge_of_dart(self, dart: Dart) -> tuple[tuple[CurveId, int], int]:
        """The arc this arc-end belongs to and +1 (tail) / -1 (head)."""
        c, k, io = dart
        if io == "out":
            return (c, k), +1
        return (c, (k - 1) % self._arc_counts[c]), -1


def ribbon_from_system(sys: CurveSystem) -> RibbonGraph:
    vertices: list[object] = []
    rotation_table: list[tuple[object, tuple[Dart, ...]]] = []

    for i, x in enumerate(sys.crossings):
        k1 = sys.incidences_of(x.first).index(i)
        k2 = sys.incidences_of(x.second).index(i)
        d1i, d1o = (x.first, k1, "in"), (x.first, k1, "out")
        d2i, d2o = (x.second, k2, "in"), (x.second, k2, "out")
        rot = (d1i, d2i, d1o, d2o) if x.sign == +1 else (d1i, d2o, d1o, d2i)
        vertices.append(("x", i))
        rotation_table.append((("x", i), rot))

    edges: list[tuple[CurveId, int]] = []
    for c in sys.curves:
        count = len(sys.incidences_of(c))
        if count == 0:
            # marked point so that the curve still bounds an annulus ribbon
            v = ("mark", c.label)
            vertices.append(v)
            rotation_table.append((v, ((c, 0, "in"), (c, 0, "out"))))
            count = 1
        edges.extend((c, k) for k in range(count))

    return RibbonGraph(
        system=sys,
        vertices=tuple(vertices),
        edges=tuple(edges),
        rotation_table=tuple(rotation_table),
    )


def _dart_sort_key(d: Dart):
    c, k, io = d
    return (c.family, c.index, k, io)


def _is_connected(rg: RibbonGraph) -> bool:
    if not rg.vertices:
        return True
    adjacency: dict[object, set[object]] = {v: set() for v in rg.vertices}
    for d in rg.darts:
        u = rg.vertex_of_dart[d]
        w = rg.vertex_of_dart[rg.partner(d)]
        adjacency[u].add(w)
        adjacency[w].add(u)
    stack = [rg.vertices[0]]
    seen = {rg.vertices[0]}
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rg.vertices)


def euler_and_genus(rg: RibbonGraph) -> tuple[int, int]:
    """Euler characteristic of the ribbon surface and the genus of the
    closed surface obtained by capping every boundary walk with a disk."""
    if not _is_connected(rg):
        raise RibbonError("ribbon graph must be connected")
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
            e, s = rg.edge_of_dart(d)
            vec[rg.edge_index[e]] += s
        vectors.append(tuple(vec))
    return tuple(vectors)


def curve_edge_vector(rg: RibbonGraph, c: CurveId) -> tuple[int, ...]:
    vec = [0] * len(rg.edges)
    for e, i in rg.edge_index.items():
        if e[0] == c:
            vec[i] = 1
    return tuple(vec)
