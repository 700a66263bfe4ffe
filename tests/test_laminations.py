"""Normal coordinates on the punctured disk and the derived half-twist
action.

The flip/candidate counts per derived case and the handedness image
vectors were computed once with the derivation engine and frozen
[DERIVED]; the round-curve coordinates are read off the definition
[TRIVIAL]; everything else is property-based.
"""
import hashlib

import lamination_oracle
import pytest
from hypothesis import given, settings, strategies as st
from lamination_oracle import test_family as probe_family
from lamination_oracle import word_action

from twistbench import laminations
from twistbench.laminations import (
    LaminationCoords,
    LaminationError,
    derivation_report,
    edge_index,
    edge_names,
    round_curve,
)


# ---------------------------------------------------------------------------
# oracle: the breadth-first derivation as first written, which re-sorts
# every triangle at each flip and matches every state against a pattern
# rotation table rebuilt per state


def _oracle_canon_triangle(tri: tuple) -> tuple:
    rotations = [tri[k:] + tri[:k] for k in range(3)]
    return min(rotations)


def _oracle_canon_state(tris) -> tuple:
    return tuple(sorted(_oracle_canon_triangle(t) for t in tris))


def _oracle_rotate_last(tri: tuple, name):
    hits = [k for k, side in enumerate(tri) if side[0] == name]
    if len(hits) != 1:
        return None  # self-folded or absent: not flippable here
    k = hits[0]
    return tri[k + 1:] + tri[: k + 1]


def _oracle_flip(state: tuple, name):
    holders = [t for t in state if any(s[0] == name for s in t)]
    if len(holders) != 2:
        return None
    r1 = _oracle_rotate_last(holders[0], name)
    r2 = _oracle_rotate_last(holders[1], name)
    if r1 is None or r2 is None:
        return None
    a, b, e1 = r1
    c, d, e2 = r2
    if not (e2[1] == e1[2] and e2[2] == e1[1]):
        raise LaminationError(f"inconsistent gluing along {name}")
    f1 = (name, c[2], a[2])
    f2 = (name, a[2], c[2])
    new1 = (b, c, f1)
    new2 = (d, a, f2)
    rest = [t for t in state if t is not holders[0] and t is not holders[1]]
    new_state = _oracle_canon_state(rest + [new1, new2])
    op = (name, a[0], b[0], c[0], d[0])
    return new_state, op


def _oracle_matchings(state: tuple, pattern: tuple, window: set):
    pattern_rotations: dict = {}
    for t_index, tri in enumerate(pattern):
        for k in range(3):
            rot = tri[k:] + tri[:k]
            pattern_rotations.setdefault(
                (rot[0][1], rot[0][2], rot[1][2]), []
            ).append((t_index, rot))

    def extend(assign: dict, used: frozenset, remaining: list):
        if not remaining:
            yield dict(assign)
            return
        tri = remaining[0]
        key = (tri[0][1], tri[0][2], tri[1][2])
        for t_index, rot in pattern_rotations.get(key, ()):
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


def _oracle_derive_case(n: int, i: int, max_depth: int = 10):
    patch, window, ring = laminations._patch_window_ring(n, i)
    pattern = laminations._swapped_pattern(patch, i)
    flip_names = sorted(window)

    def solutions_of(state):
        out = []
        for phi in _oracle_matchings(state, pattern, window):
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
                res = _oracle_flip(state, name)
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


class TestCoordinates:
    def test_edge_counts(self):
        for n in (2, 3, 4, 7):
            assert len(edge_names(n)) == 3 * n - 3
            assert len(edge_index(n)) == 3 * n - 3

    def test_too_few_punctures(self):
        with pytest.raises(LaminationError):
            edge_names(1)

    def test_round_curve_values(self):
        # [TRIVIAL] one crossing with each arc separating inside from outside
        assert round_curve(4, 1, 1).normal == (1, 0, 0, 0, 1, 0, 0, 0, 0)
        assert round_curve(4, 2, 2).normal == (0, 1, 0, 0, 1, 1, 0, 1, 0)
        assert round_curve(4, 1, 4).normal == (1, 1, 1, 1, 0, 0, 0, 1, 1)

    def test_round_curve_bad_range(self):
        with pytest.raises(LaminationError):
            round_curve(4, 3, 2)
        with pytest.raises(LaminationError):
            round_curve(4, 0, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(LaminationError):
            LaminationCoords(4, (0,) * 8)

    def test_negative_rejected(self):
        with pytest.raises(LaminationError):
            LaminationCoords(4, (-1,) + (0,) * 8)

    def test_odd_parity_rejected(self):
        values = [0] * 9
        values[edge_index(4)[("h", 1)]] = 1
        with pytest.raises(LaminationError):
            LaminationCoords(4, tuple(values))

    def test_triangle_violation_rejected(self):
        values = [0] * 9
        values[edge_index(4)[("h", 1)]] = 2  # 2 > 0 + 0 in its triangles
        with pytest.raises(LaminationError):
            LaminationCoords(4, tuple(values))

    def test_family_size_and_distinctness(self):
        for n in (2, 3, 4, 5):
            fam = probe_family(n)
            assert len(fam) == 3 * n - 3
            assert len({lam.normal for lam in fam}) == len(fam)


class TestDerivation:
    def test_case_table(self):
        # [DERIVED] flip counts and surviving candidate counts per local
        # shape, frozen from the search over window-edge flips
        report = derivation_report()
        expected = {
            "both": {"reference": (2, 1), "flips": 0, "candidates": 1},
            "left": {"reference": (6, 1), "flips": 2, "candidates": 2},
            "interior": {"reference": (6, 3), "flips": 4, "candidates": 2},
            "right": {"reference": (6, 5), "flips": 2, "candidates": 2},
        }
        assert set(report) == set(expected)
        for case, want in expected.items():
            for key, value in want.items():
                assert report[case][key] == value, (case, key)

    def test_selected_cases_pinned(self):
        # [DERIVED] sha256 of the frozen case data, computed before the
        # battery memoised its instantiated cases; the data holds no sets,
        # so the digest does not depend on the hash seed
        digest = hashlib.sha256(repr(lamination_oracle._selected_cases()).encode())
        assert digest.hexdigest() == (
            "bfc46ae7358f4eb6ef5fac961d0df1b32a50002bffb1c72de531b0f55f4f1daa"
        )

    @pytest.mark.parametrize("case", sorted(laminations._REFERENCE))
    def test_derivation_matches_oracle(self, case):
        # same solutions in the same order, at the same depth, with the
        # same window and ring as the search that re-sorts every flip
        ref = laminations._REFERENCE[case]
        assert laminations._derive_case(*ref) == _oracle_derive_case(*ref)

    def test_flips_match_oracle_on_every_state(self):
        # every flip from every state within four flips of the interior
        # patch (the depth its search reaches) gives the oracle's state and
        # op, so the merge keeps the sorted order that decides which holder
        # comes first
        patch, window, _ = laminations._patch_window_ring(6, 3)
        seen, frontier = {patch}, [patch]
        for _ in range(5):
            new_frontier = []
            for state in frontier:
                for name in sorted(window):
                    res = laminations._flip(state, name)
                    assert res == _oracle_flip(state, name)
                    if res is not None and res[0] not in seen:
                        seen.add(res[0])
                        new_frontier.append(res[0])
            frontier = new_frontier
        assert len(seen) > 2000

    def test_windows_are_local(self):
        report = derivation_report()
        for case, data in report.items():
            assert data["window"], case
            assert set(data["window"]) <= set(data["ring"]) | set(data["window"])


class TestAction:
    def test_half_twist_swaps_puncture_curves(self):
        r1, r2 = round_curve(4, 1, 1), round_curve(4, 2, 2)
        assert word_action(r1, ((1, 1),)).normal == r2.normal
        assert word_action(r2, ((1, 1),)).normal == r1.normal

    def test_half_twist_fixes_enclosing_curves(self):
        pair = round_curve(4, 1, 2)
        assert word_action(pair, ((1, 1),)).normal == pair.normal
        peripheral = round_curve(4, 1, 4)
        for i in (1, 2, 3):
            assert word_action(peripheral, ((i, 1),)).normal == peripheral.normal

    def test_handedness_matters(self):
        # [DERIVED] image vectors of the curve around punctures 2,3 under
        # the two handednesses of the first half-twist; they are mirror
        # images of each other, pinned up to the global mirror freedom
        c = round_curve(4, 2, 3)
        assert word_action(c, ((1, +1),)).normal == (1, 2, 1, 0, 1, 1, 1, 0, 1)
        assert word_action(c, ((1, -1),)).normal == (1, 0, 1, 0, 1, 1, 1, 2, 1)

    def test_sign_validation(self):
        with pytest.raises(LaminationError):
            word_action(round_curve(4, 1, 1), ((1, 0),))

    def test_word_sign_validation(self):
        with pytest.raises(LaminationError):
            word_action(round_curve(4, 1, 1), ((1, 1), (2, 2)))

    def test_word_image_is_validated(self, monkeypatch):
        # the raw per-letter loop skips validation, so the image of the
        # word must still be checked when it is wrapped
        def odd_parity(data, values, sign):
            out = [0] * len(values)
            out[edge_index(4)[("h", 1)]] = 1
            return tuple(out)

        monkeypatch.setattr(lamination_oracle, "_act_with", odd_parity)
        with pytest.raises(LaminationError):
            word_action(round_curve(4, 1, 1), ((1, 1), (2, -1)))

    def test_index_validation(self):
        with pytest.raises(LaminationError):
            word_action(round_curve(4, 1, 1), ((4, 1),))
        with pytest.raises(LaminationError):
            word_action(round_curve(4, 1, 1), ((0, 1),))

    @given(
        n=st.integers(2, 5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_cancels(self, n, data):
        lam = data.draw(st.sampled_from(probe_family(n)))
        word = data.draw(
            st.lists(
                st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))),
                max_size=5,
            )
        )
        out = lam
        for i, s in word:
            out = word_action(out, ((i, s),))
        for i, s in reversed(word):
            out = word_action(out, ((i, -s),))
        assert out.normal == lam.normal

    @given(n=st.integers(3, 5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_braid_relation_on_curves(self, n, data):
        lam = data.draw(st.sampled_from(probe_family(n)))
        i = data.draw(st.integers(1, n - 2))

        def act(word, lam):
            for j in reversed(word):
                lam = word_action(lam, ((j, 1),))
            return lam

        assert act((i, i + 1, i), lam).normal == act((i + 1, i, i + 1), lam).normal
