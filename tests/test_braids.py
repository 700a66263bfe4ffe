"""Braid words, the curve-action equality test, its free-group test
oracle, and the relation batteries.

The equality decision procedure is exercised against the defining
relations on up to seven strands, against the free-group images of short
random words, and its word-at-once fingerprint against a per-letter loop
that validates every intermediate lamination; the relation-status tuples
were computed once and frozen [DERIVED].
"""
import pytest
from hypothesis import given, settings, strategies as st

from twistbench.braids import (
    BraidError,
    artin_image,
    braid_equal,
    braid_word,
    exponent_sum,
    permutation_image,
    verify_manfredini,
    word_fingerprint,
)
from twistbench.laminations import round_curve, word_action
from twistbench.laminations import test_family as probe_family
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


class TestFingerprint:
    def test_identity_fingerprint(self):
        fp = word_fingerprint((), 3)
        assert fp[0] == 0
        assert fp[1] == tuple(lam.normal for lam in probe_family(3))

    @given(n=st.integers(2, 4), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_fingerprint_decides_equality(self, n, data):
        w1, w2 = data.draw(words(n)), data.draw(words(n))
        assert (word_fingerprint(w1, n) == word_fingerprint(w2, n)) == braid_equal(
            w1, w2, n
        )

    @given(n=st.integers(2, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_matches_letterwise_oracle(self, n, data):
        # the fingerprint acts on raw tuples and validates each probe
        # image once; the oracle rebuilds and re-validates a lamination
        # after every letter
        w = data.draw(words(n, 60))
        images = []
        for lam in probe_family(n):
            for i, s in reversed(w):
                lam = word_action(lam, ((i, s),))
            images.append(lam.normal)
        assert word_fingerprint(w, n) == (exponent_sum(w), tuple(images))
