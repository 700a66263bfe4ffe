"""Braid words, the Dynnikov equality test, its oracles, and the
relation batteries.

The equality decision procedure is exercised against the defining
relations on up to seven strands, against the free-group images of every
short word (the class counts of exhaustive balls must agree), against the
triangulation-coordinate engine of ``laminations`` on random word pairs,
and its update rule against the relations on random integer coordinate
vectors; the relation-status tuples were computed once and frozen
[DERIVED].
"""
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st
from lamination_oracle import test_family as probe_family
from lamination_oracle import word_action

from twistbench.braids import (
    BraidError,
    artin_image,
    braid_equal,
    braid_word,
    dynnikov_action,
    exponent_sum,
    permutation_image,
    verify_manfredini,
    word_fingerprint,
)
from twistbench.laminations import round_curve
from twistbench.words import invert


def words(n, max_size=6):
    return st.lists(
        st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))),
        max_size=max_size,
    ).map(tuple)


class TestWords:
    def test_validation(self):
        with pytest.raises(BraidError):
            braid_word(((3, 1),), 3)
        with pytest.raises(BraidError):
            braid_word(((0, 1),), 3)
        with pytest.raises(BraidError):
            braid_word(((1, 2),), 3)

    def test_exponent_sum(self):
        assert exponent_sum(((1, 1), (2, -1), (1, 1))) == 1

    def test_action_order_is_rightmost_first(self):
        lam = round_curve(4, 2, 3)
        image = word_action(lam, ((1, 1), (2, -1)))
        assert image.normal == word_action(word_action(lam, ((2, -1),)), ((1, 1),)).normal
        coords = (0, 0, 0, -1, -1, -1)
        assert dynnikov_action(((1, 1), (2, -1)), coords) == dynnikov_action(
            ((1, 1),), dynnikov_action(((2, -1),), coords)
        )


class TestRelations:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_defining_relations(self, n):
        for i in range(1, n - 1):
            assert braid_equal(
                ((i, 1), (i + 1, 1), (i, 1)), ((i + 1, 1), (i, 1), (i + 1, 1)), n
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                assert braid_equal(((i, 1), (j, 1)), ((j, 1), (i, 1)), n)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_generator_differs_from_inverse(self, n):
        assert not braid_equal(((1, 1),), ((1, -1),), n)
        assert not braid_equal(((1, 1), (1, 1)), (), n)

    def test_conjugate_words_equal(self):
        assert word_fingerprint(((1, 1), (2, 1), (1, 1)), 3) == word_fingerprint(
            ((2, 1), (1, 1), (2, 1)), 3
        )

    @pytest.mark.parametrize("n", range(3, 7))
    def test_sphere_relation_fails_in_disk(self, n):
        # the relation that holds after capping the boundary with a disk
        # genuinely fails in this model, as it must:
        # sigma_1 .. sigma_{n-1} sigma_{n-1} .. sigma_1
        ups = tuple((i, 1) for i in range(1, n))
        word = ups + ups[::-1]
        assert len(word) == 2 * (n - 1)
        assert not braid_equal(word, (), n)

    @given(n=st.integers(2, 5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_times_inverse_is_trivial(self, n, data):
        w = data.draw(words(n))
        assert braid_equal(w + invert(w), (), n)


class TestFreeGroupRoute:
    def test_single_generator_images(self):
        # [TRIVIAL] the defining substitution
        assert artin_image(((1, 1),), 3) == (
            ((1, 1), (2, 1), (1, -1)),
            ((1, 1),),
            ((3, 1),),
        )
        assert artin_image((), 3) == (((1, 1),), ((2, 1),), ((3, 1),))

    @given(n=st.integers(2, 5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_curve_route(self, n, data):
        w1, w2 = data.draw(words(n, 5)), data.draw(words(n, 5))
        assert braid_equal(w1, w2, n) == (artin_image(w1, n) == artin_image(w2, n))


def rebuilt_permutation_image(word, n):
    """The ``permutation_image`` that rebuilt the whole position list for
    every letter, kept as the oracle of tracking strands by position."""
    perm = list(range(n + 1))
    for i, _ in reversed(braid_word(word, n)):
        perm = [i + 1 if x == i else i if x == i + 1 else x for x in perm]
    return tuple(perm[1:])


class TestPermutations:
    def test_single_and_product(self):
        assert permutation_image(((1, 1),), 3) == (2, 1, 3)
        assert permutation_image(((1, 1), (2, 1)), 3) == (2, 3, 1)

    @given(n=st.integers(2, 5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_composition(self, n, data):
        w1, w2 = data.draw(words(n)), data.draw(words(n))
        p1, p2 = permutation_image(w1, n), permutation_image(w2, n)
        combined = permutation_image(w1 + w2, n)
        assert combined == tuple(p1[p2[k] - 1] for k in range(n))

    def test_sign_is_ignored(self):
        assert permutation_image(((1, -1),), 3) == permutation_image(((1, 1),), 3)

    @given(n=st.integers(2, 12), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_list_rebuild(self, n, data):
        word = data.draw(words(n, 60))
        assert permutation_image(word, n) == rebuilt_permutation_image(word, n)


class TestRelationBattery:
    # [DERIVED] status tuples, frozen from a verification run
    HOLDS_ALL = (
        ("ABAB=BABA", "holds"),
        ("BCBC=CBCB", "holds"),
        ("ABA^-1 commutes with CBC^-1", "holds"),
        ("AC=CA", "holds"),
        ("braid relation at (a,b)", "holds"),
        ("braid relation at (b,c)", "holds"),
    )

    @pytest.mark.parametrize("pair", [(4, 2), (6, 3), (8, 4)])
    def test_reference_pairs_hold(self, pair):
        assert verify_manfredini(*pair) == self.HOLDS_ALL

    def test_skip_when_outer_index_missing(self):
        # n=3, k=2: the A-index falls off the left edge, only the B/C
        # relations can be checked
        assert verify_manfredini(3, 2) == (
            ("ABAB=BABA", "skipped"),
            ("BCBC=CBCB", "holds"),
            ("ABA^-1 commutes with CBC^-1", "skipped"),
            ("AC=CA", "skipped"),
            ("braid relation at (a,b)", "skipped"),
            ("braid relation at (b,c)", "holds"),
        )
        # n=4, k=1: the C-index falls off the right edge
        assert verify_manfredini(4, 1) == (
            ("ABAB=BABA", "holds"),
            ("BCBC=CBCB", "skipped"),
            ("ABA^-1 commutes with CBC^-1", "skipped"),
            ("AC=CA", "skipped"),
            ("braid relation at (a,b)", "holds"),
            ("braid relation at (b,c)", "skipped"),
        )

    def test_everything_skipped_on_two_strands(self):
        assert all(status == "skipped" for _, status in verify_manfredini(2, 1))

    def test_invalid_parameters(self):
        with pytest.raises(BraidError):
            verify_manfredini(4, 4)
        with pytest.raises(BraidError):
            verify_manfredini(4, 0)
        with pytest.raises(BraidError):
            verify_manfredini(1, 1)


def full_twist(n):
    return tuple((i, 1) for i in range(1, n)) * n


@st.composite
def word_pairs(draw, n, max_size=8):
    """A word and a second word that is random, or the first with a
    relator inserted, one letter's generator changed (the exponent sum
    stays), or the full twist appended."""
    w1 = draw(words(n, max_size))
    kind = draw(st.sampled_from(("random", "relator", "letter", "twist")))
    if kind == "random":
        return w1, draw(words(n, max_size))
    if kind == "twist":
        return w1, w1 + full_twist(n)
    pos = draw(st.integers(0, len(w1)))
    if kind == "letter" and w1:
        pos = min(pos, len(w1) - 1)
        _, s = w1[pos]
        return w1, w1[:pos] + ((draw(st.integers(1, n - 1)), s),) + w1[pos + 1:]
    i = draw(st.integers(1, n - 1))
    relator = ((i, 1), (i, -1))
    if n >= 3 and draw(st.booleans()):
        i = min(i, n - 2)
        relator = ((i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1))
    return w1, w1[:pos] + relator + w1[pos:]


def ball(n, length):
    letters = [(i, s) for i in range(1, n) for s in (1, -1)]
    for size in range(length + 1):
        yield from itertools.product(letters, repeat=size)


class TestFingerprint:
    @given(n=st.integers(2, 4), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_fingerprint_decides_equality(self, n, data):
        w1, w2 = data.draw(words(n)), data.draw(words(n))
        assert (word_fingerprint(w1, n) == word_fingerprint(w2, n)) == braid_equal(
            w1, w2, n
        )

    @pytest.mark.parametrize("n, length", [(3, 6), (4, 4), (5, 3)])
    def test_ball_classes_match_free_group(self, n, length):
        # every word of at most `length` letters: the fingerprint and the
        # faithful free-group images split the ball into the same classes
        pairs = {(word_fingerprint(w, n), artin_image(w, n)) for w in ball(n, length)}
        fingerprints = {fp for fp, _ in pairs}
        assert len(fingerprints) == len({image for _, image in pairs}) == len(pairs)

    def test_basepoint_separates_recipe_collision(self):
        # equal exponent sums and equal images of E on the three strand
        # punctures alone; the basepoint puncture tells them apart
        w1 = ((1, 1), (2, -1))
        w2 = ((2, -1), (1, 1), (1, 1), (1, 1), (2, -1), (1, -1))
        assert exponent_sum(w1) == exponent_sum(w2)
        assert not braid_equal(w1, w2, 3)
        assert artin_image(w1, 3) != artin_image(w2, 3)

    @given(n=st.integers(2, 7), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_triangulation_engine(self, n, data):
        w1, w2 = data.draw(word_pairs(n))
        engine = exponent_sum(w1) == exponent_sum(w2) and all(
            word_action(lam, w1) == word_action(lam, w2) for lam in probe_family(n)
        )
        assert braid_equal(w1, w2, n) == engine

    @given(
        n=st.integers(2, 11),
        data=st.data(),
        values=st.lists(st.integers(-40, 40), min_size=20, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_relations_on_random_vectors(self, n, data, values):
        # the update rule is a B_n action on all of Z^(2n-2), not only on
        # the orbit of E
        coords = tuple(values[: 2 * (n - 1)])
        i = data.draw(st.integers(1, n - 1))

        def act(*letters):
            return dynnikov_action(letters, coords)

        assert act((i, 1), (i, -1)) == coords == act((i, -1), (i, 1))
        if i <= n - 2:
            assert act((i, 1), (i + 1, 1), (i, 1)) == act((i + 1, 1), (i, 1), (i + 1, 1))
        for j in range(i + 2, n):
            assert act((i, 1), (j, 1)) == act((j, 1), (i, 1))
            assert act((i, -1), (j, 1)) == act((j, 1), (i, -1))

    def test_coordinate_validation(self):
        with pytest.raises(BraidError):
            dynnikov_action(((1, 1),), (0, 0, -1))
        with pytest.raises(BraidError):
            dynnikov_action(((2, 1),), (0, -1))
        with pytest.raises(BraidError):
            word_fingerprint((), 1)


class TestSpeed:
    """Generous wall-clock gates on the decider; each is a few tenths of
    a second with the Dynnikov action."""

    def test_manfredini_on_300_strands(self):
        start = time.perf_counter()
        assert all(status == "holds" for _, status in verify_manfredini(300, 150))
        assert time.perf_counter() - start < 2

    def test_long_words_on_50_strands(self):
        letters = [((k * 7) % 49 + 1, 1 if k % 3 else -1) for k in range(10_000)]
        word = tuple(letters)
        start = time.perf_counter()
        assert braid_equal(word + invert(word), (), 50)
        assert not braid_equal(word, word + full_twist(50), 50)
        assert time.perf_counter() - start < 2
