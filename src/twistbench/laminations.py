"""Integral laminations on a punctured disk and the flip derivation of
the half-twist: the triangulation-coordinate engine behind the test
oracle of the braid decider.

``braids`` decides equality with a Dynnikov update rule hard-coded from
the literature.  This module derives the half-twist from flips instead,
so it is the independent check behind that rule.  No command loads it:
``scripts/derive_flip_rules.py`` and the benchmark setup run the
derivation, and the tests' ``lamination_oracle`` selects one solution
per case and acts with it, so the tests compare the two engines'
decisions.

The disk with n punctures is modelled as a sphere with punctures
``1..n`` plus one distinguished point ``0`` for the boundary side.  The
base triangulation consists of up-arcs ``v_i`` (puncture i to 0),
consecutive arcs ``h_i`` (i to i+1) and down-arcs ``w_i`` (i to 0, for
interior i); a lamination is stored by its crossing numbers with these
3n-3 arcs, which satisfy an even-parity and triangle condition in every
triangle.

Here the generator action is not hard-coded.  For each local shape of the
acting pair (leftmost, interior, rightmost, two-puncture disk) the flip
sequences from the base triangulation to its image under the half-twist
are derived once by breadth-first search over flips of the locally
movable edges, together with the edge relabelling given by matching the
result to the puncture-swapped base pattern; coordinates follow recorded
flips by the exchange rule x' = max(a+c, b+d) - x.  The search cannot
see the difference between the two twist handednesses, so a case can
have several shortest solutions; ``_candidates`` keeps them all, and the
test oracle's consistency battery picks one.

The derivation runs once per process, on first use.  A flip
re-canonicalises only its two new triangles and merges them into the
sorted rest of the state, and a state is matched against the target
pattern only when its name-free shape key agrees.  Most of the time is
the interior case's search over about 600 states and 1,200 flips.
"""
from __future__ import annotations

from bisect import insort
from collections import namedtuple
from functools import lru_cache

__all__ = [
    "LaminationCoords",
    "LaminationError",
    "edge_names",
    "edge_index",
    "round_curve",
    "derivation_report",
]

BOUNDARY = 0  # vertex label for the boundary-side point


class LaminationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# base triangulation


@lru_cache(maxsize=None)
def edge_names(n: int) -> tuple:
    if n < 2:
        raise LaminationError("need at least two punctures")
    return (
        tuple(("v", i) for i in range(1, n + 1))
        + tuple(("h", i) for i in range(1, n))
        + tuple(("w", i) for i in range(2, n))
    )


@lru_cache(maxsize=None)
def edge_index(n: int) -> dict:
    return {name: k for k, name in enumerate(edge_names(n))}


def _hat(t: int, n: int) -> tuple:
    """Down-arc name at puncture t; the end punctures reuse their up-arc."""
    return ("v", t) if t in (1, n) else ("w", t)


@lru_cache(maxsize=None)
def base_triangles(n: int) -> tuple:
    """Corner structure: each triangle is a CCW triple of sides
    (edge name, tail vertex, head vertex) with heads chaining to tails."""
    tris = []
    for i in range(1, n):
        tris.append(
            (
                (("h", i), i, i + 1),
                (("v", i + 1), i + 1, BOUNDARY),
                (("v", i), BOUNDARY, i),
            )
        )
        tris.append(
            (
                (_hat(i, n), i, BOUNDARY),
                (_hat(i + 1, n), BOUNDARY, i + 1),
                (("h", i), i + 1, i),
            )
        )
    return tuple(tris)


def _canon_triangle(tri: tuple) -> tuple:
    return min(tri, tri[1:] + tri[:1], tri[2:] + tri[:2])


def _canon_state(tris) -> tuple:
    return tuple(sorted(_canon_triangle(t) for t in tris))


# ---------------------------------------------------------------------------
# flips


def _rotate_last(tri: tuple, name) -> tuple | None:
    hits = [k for k, side in enumerate(tri) if side[0] == name]
    if len(hits) != 1:
        return None  # self-folded or absent: not flippable here
    k = hits[0]
    return tri[k + 1:] + tri[: k + 1]


def _flip(state: tuple, name) -> tuple | None:
    """Flip the edge in a corner-structured state, a sorted tuple of
    canonical triangles; returns (new_state, op) with
    op = (name, a, b, c, d) or None if not flippable.  Only the two new
    triangles are canonicalised, and they are merged into the sorted
    rest, so the state stays the sorted canonical tuple whose order
    decides which holder comes first in ``op``."""
    holders = [
        k for k, t in enumerate(state) if name in (t[0][0], t[1][0], t[2][0])
    ]
    if len(holders) != 2:
        return None
    k1, k2 = holders
    r1 = _rotate_last(state[k1], name)
    r2 = _rotate_last(state[k2], name)
    if r1 is None or r2 is None:
        return None
    a, b, e1 = r1
    c, d, e2 = r2
    if not (e2[1] == e1[2] and e2[2] == e1[1]):
        raise LaminationError(f"inconsistent gluing along {name}")
    # quad boundary CCW is a, b, c, d; the new diagonal joins the b/c and
    # d/a corners, keeping the flipped edge's name
    f1 = (name, c[2], a[2])
    f2 = (name, a[2], c[2])
    new_state = list(state[:k1] + state[k1 + 1:k2] + state[k2 + 1:])
    insort(new_state, _canon_triangle((b, c, f1)))
    insort(new_state, _canon_triangle((d, a, f2)))
    op = (name, a[0], b[0], c[0], d[0])
    return tuple(new_state), op


# ---------------------------------------------------------------------------
# case derivation


def _patch_window_ring(n: int, i: int):
    punct = {i, i + 1}
    patch, outside = [], []
    for tri in base_triangles(n):
        if any(side[1] in punct or side[2] in punct for side in tri):
            patch.append(tri)
        else:
            outside.append(tri)
    counts: dict = {}
    for tri in patch:
        for side in tri:
            counts[side[0]] = counts.get(side[0], 0) + 1
    window = {name for name, c in counts.items() if c == 2}
    ring = {name for name, c in counts.items() if c == 1}
    return _canon_state(patch), window, ring


def _swapped_pattern(patch: tuple, i: int) -> tuple:
    def tau(x: int) -> int:
        return i + 1 if x == i else i if x == i + 1 else x

    return _canon_state(
        tuple((nm, tau(t), tau(h)) for nm, t, h in tri) for tri in patch
    )


def _rotation_table(pattern: tuple) -> dict:
    """Every rotation of every pattern triangle, keyed by its vertex
    triple (first tail, first head, second head)."""
    table: dict = {}
    for t_index, tri in enumerate(pattern):
        for k in range(3):
            rot = tri[k:] + tri[:k]
            table.setdefault((rot[0][1], rot[0][2], rot[1][2]), []).append(
                (t_index, rot)
            )
    return table


def _shape_key(state: tuple) -> tuple:
    """The state with its edge names dropped: the sorted vertex cycles
    of its triangles, each at its least rotation.  A matching sends each
    triangle to one with the same vertex cycle, so equal shape keys are
    necessary for any matching."""
    cycles = []
    for (_, u, v), (_, _, w), _ in state:
        cycles.append(min((u, v, w), (v, w, u), (w, u, v)))
    cycles.sort()
    return tuple(cycles)


def _matchings(state: tuple, rotations: dict, window: set):
    """Yield bijections phi: window -> window making the corner-structured
    state equal to the pattern whose ``_rotation_table`` is ``rotations``,
    with non-window names fixed."""

    def extend(assign: dict, used: frozenset, remaining: list):
        if not remaining:
            yield dict(assign)
            return
        tri = remaining[0]
        key = (tri[0][1], tri[0][2], tri[1][2])
        for t_index, rot in rotations.get(key, ()):
            if t_index in used:
                continue
            trial = dict(assign)
            ok = True
            for (nm, t, h), (pnm, pt, ph) in zip(tri, rot):
                if (t, h) != (pt, ph):
                    ok = False
                    break
                if nm in window:
                    if pnm not in window or trial.get(nm, pnm) != pnm:
                        ok = False
                        break
                    trial[nm] = pnm
                else:
                    if nm != pnm:
                        ok = False
                        break
            if not ok:
                continue
            if len(set(trial.values())) != len(trial):
                continue
            yield from extend(trial, used | {t_index}, remaining[1:])

    yield from extend({}, frozenset(), list(state))


def _derive_case(n: int, i: int, max_depth: int = 10):
    """All shortest (flip ops, relabelling) solutions realizing a puncture
    swap at (i, i+1) by flips of window edges."""
    patch, window, ring = _patch_window_ring(n, i)
    pattern = _swapped_pattern(patch, i)
    rotations = _rotation_table(pattern)
    pattern_shape = _shape_key(pattern)
    flip_names = sorted(window)

    def solutions_of(state):
        out = []
        if _shape_key(state) != pattern_shape:
            return out
        for phi in _matchings(state, rotations, window):
            # phi: current name -> pattern name; the action reads
            # new_x[name] = y[phi^{-1}(name)]
            inv = {vv: kk for kk, vv in phi.items()}
            out.append(tuple(sorted(inv.items())))
        return out

    start = patch
    seen = {start}
    frontier = [(start, ())]
    found = []
    for depth in range(max_depth + 1):
        for state, ops in frontier:
            for sol in solutions_of(state):
                found.append((ops, sol))
        if found:
            return found, depth, window, ring
        new_frontier = []
        for state, ops in frontier:
            for name in flip_names:
                res = _flip(state, name)
                if res is None:
                    continue
                new_state, op = res
                if new_state in seen:
                    continue
                seen.add(new_state)
                new_frontier.append((new_state, ops + (op,)))
        frontier = new_frontier
        if not frontier:
            break
    raise LaminationError(f"no half-twist flip sequence found for n={n}, i={i}")


_REFERENCE = {"both": (2, 1), "left": (6, 1), "interior": (6, 3), "right": (6, 5)}


@lru_cache(maxsize=1)
def _candidates() -> dict:
    return {case: _derive_case(*ref) for case, ref in _REFERENCE.items()}


def derivation_report() -> dict:
    """Flip counts and the number of shortest flip solutions per derived
    case, counted before the test oracle's battery picks one, for
    inspection."""
    report = {}
    for case, (solutions, depth, window, ring) in _candidates().items():
        report[case] = {
            "reference": _REFERENCE[case],
            "flips": depth,
            "candidates": len(solutions),
            "window": sorted(window),
            "ring": sorted(ring),
        }
    return report


# ---------------------------------------------------------------------------
# public surface


def _round_values(n: int, j: int, k: int) -> tuple:
    if not 1 <= j <= k <= n:
        raise LaminationError(f"bad round-curve range {j}..{k}")
    inside = set(range(j, k + 1))
    values = []
    for kind, t in edge_names(n):
        if kind == "h":
            ends = {t, t + 1}
        else:
            ends = {t, None}
        values.append(1 if len(inside & ends) == 1 else 0)
    return tuple(values)


class LaminationCoords(namedtuple("LaminationCoords", ("n", "normal"))):
    """Crossing numbers of an integral lamination with the base arcs.

    Construct as ``LaminationCoords(n, values)`` or through
    ``round_curve``.  Every construction validates the coordinates per
    triangle (even corner sums, triangle inequality).
    """

    __slots__ = ()

    def __new__(cls, n: int, normal: tuple[int, ...]) -> "LaminationCoords":
        names = edge_names(n)
        if len(normal) != len(names):
            raise LaminationError(
                f"expected {len(names)} coordinates for {n} punctures"
            )
        if any(x < 0 for x in normal):
            raise LaminationError("crossing numbers must be nonnegative")
        idx = edge_index(n)
        for tri in base_triangles(n):
            a, b, c = (normal[idx[s[0]]] for s in tri)
            if (a + b + c) % 2:
                raise LaminationError(f"odd crossing sum in triangle {tri}")
            if a > b + c or b > a + c or c > a + b:
                raise LaminationError(f"triangle inequality fails in {tri}")
        return tuple.__new__(cls, (n, normal))


def round_curve(n: int, j: int, k: int) -> LaminationCoords:
    """The curve enclosing punctures j..k, in minimal position."""
    return LaminationCoords(n, _round_values(n, j, k))
