"""The free-word calculus shared by twist, braid and monodromy words.

Every operation is checked over a curve-id alphabet (twist words) and an
integer alphabet (braid words); the small cancellation and inversion
identities were worked out by hand [TRIVIAL], the rest is property-based.
The seam-only operations ``join_conjugate`` and
``join_conjugate_length`` are checked against ``free_reduce`` over the
whole concatenation, and ``invert`` against a list display that builds
every inverse letter.
"""
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twistbench
from twistbench.coxeter import coxeter
from twistbench.surface import CurveId, curve
from twistbench.words import (
    SHARED_INVERSES_FROM,
    conjugate,
    free_reduce,
    invert,
    join_conjugate,
    join_conjugate_length,
)


def words_over(*generators, max_size, min_size=0):
    return st.lists(
        st.tuples(st.sampled_from(generators), st.sampled_from((1, -1))),
        min_size=min_size,
        max_size=max_size,
    )


@pytest.mark.parametrize(
    "a, b, c",
    [(curve("delta", 1), curve("sigma"), curve("alpha", 1)), (1, 2, 3)],
    ids=["curves", "ints"],
)
class TestWords:
    def test_free_reduce_cancels(self, a, b, c):
        word = ((a, 1), (b, 1), (b, -1), (a, -1), (c, 1))
        assert free_reduce(word) == ((c, 1),)

    @given(data=st.data())
    def test_free_reduce_idempotent(self, a, b, c, data):
        once = free_reduce(data.draw(words_over(a, b, max_size=12)))
        assert free_reduce(once) == once

    @given(data=st.data())
    def test_word_times_inverse_reduces_to_nothing(self, a, b, c, data):
        word = data.draw(words_over(a, b, max_size=8))
        assert free_reduce(tuple(word) + invert(word)) == ()

    def test_invert(self, a, b, c):
        assert invert(((a, 1), (b, -1))) == ((b, 1), (a, -1))

    def test_double_inversion(self, a, b, c):
        chain = (a, b, c)
        word = coxeter(chain, 1) + coxeter(chain, -1)
        assert invert(invert(word)) == word
        assert coxeter(chain, -1) == invert(coxeter(chain, 1))

    def test_conjugate(self, a, b, c):
        by = ((a, 1), (b, -1))
        assert conjugate(((c, -1),), by) == (
            (b, 1), (a, -1), (c, -1), (a, 1), (b, -1),
        )
        assert conjugate(((c, 1),), ()) == ((c, 1),)
        assert free_reduce(conjugate(by, invert(by))) == by

    @given(data=st.data())
    def test_reduced_conjugate_of_one_letter(self, a, b, c, data):
        by = free_reduce(data.draw(words_over(a, b, c, max_size=12)))
        letter = (data.draw(st.sampled_from((a, b, c))), data.draw(st.sampled_from((1, -1))))
        assert join_conjugate((), letter, by) == free_reduce(conjugate((letter,), by))

    @given(data=st.data())
    def test_join_conjugate_is_reduced_product(self, a, b, c, data):
        x, w, y = (data.draw(words_over(a, b, c, max_size=10)) for _ in range(3))
        letter = (data.draw(st.sampled_from((a, b, c))), data.draw(st.sampled_from((1, -1))))
        # u and by share the suffix w, and by may be a suffix of u
        u = free_reduce(tuple(x) + tuple(w))
        for by in (free_reduce(tuple(y) + tuple(w)), free_reduce(w), free_reduce(u[len(x) // 2:])):
            want = free_reduce(u + conjugate((letter,), by))
            assert join_conjugate(u, letter, by) == want

    def test_join_conjugate_strips_core_powers(self, a, b, c):
        by = ((a, -1), (a, -1), (b, 1))
        assert join_conjugate((), (a, 1), by) == ((b, -1), (a, 1), (b, 1))
        assert join_conjugate((), (c, 1), by) == conjugate(((c, 1),), by)
        # by is a suffix of u: u's head meets the letter, then by
        assert join_conjugate(((a, -1),) + by, (a, 1), by) == by
        assert join_conjugate(((c, -1), (b, 1)) + by, (a, 1), by) == (
            (c, -1), (b, 1), (a, -1), (b, 1),
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_join_conjugate_and_length_on_every_seam(self, a, b, c, data):
        # seams that cancel partly, not at all and fully, over words long
        # enough to take shared inverse letters
        letter = (data.draw(st.sampled_from((a, b, c))), data.draw(st.sampled_from((1, -1))))
        # random words reduce to about two thirds of their length, so the
        # longest ones still pass SHARED_INVERSES_FROM once reduced
        sizes = st.sampled_from((0, 1, 4, 12, 2 * SHARED_INVERSES_FROM))
        x, y, w = (
            data.draw(words_over(a, b, c, min_size=size, max_size=size))
            for size in (data.draw(sizes) for _ in range(3))
        )
        by = free_reduce(tuple(y) + tuple(w))
        inverse_of = free_reduce(invert(conjugate((letter,), by)))
        for u in (
            free_reduce(tuple(x) + tuple(w)),  # partly: the common suffix w
            free_reduce(tuple(x)),  # none, unless x happens to end like by
            inverse_of,  # fully: u is the inverse of the conjugate
            free_reduce(inverse_of + tuple(x)),  # partly: x is left over
        ):
            want = free_reduce(u + conjugate((letter,), by))
            assert join_conjugate(u, letter, by) == want
            assert join_conjugate_length(u, letter, by) == len(want)

    def test_join_conjugate_length_examples(self, a, b, c):
        by = ((a, -1), (b, 1))
        # nothing cancels; the a-power at the head of by commutes away
        assert join_conjugate_length(((c, 1),), (a, 1), by) == 4
        assert join_conjugate_length((), (c, 1), by) == 5
        # u is the inverse of the conjugate: everything cancels
        assert join_conjugate_length(invert(conjugate(((c, 1),), by)), (c, 1), by) == 0
        # u ends with by, then the letter cancels against u's last letter
        assert join_conjugate_length(((c, -1),) + by, (c, 1), by) == len(by)


class TestSharedInverses:
    """Long words take their inverse letters from one table; inversion
    still equals the list display that builds each letter, and never
    changes a generator's type."""

    @staticmethod
    def built(word):
        return tuple([(g, -s) for g, s in reversed(word)])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_equals_built_letters(self, data):
        size = data.draw(st.sampled_from((0, 1, SHARED_INVERSES_FROM - 1, SHARED_INVERSES_FROM, 700)))
        generators = data.draw(st.sampled_from(((curve("alpha", 1), curve("sigma")), (1, 2))))
        word = tuple(data.draw(words_over(*generators, min_size=size, max_size=size)))
        assert invert(word) == self.built(word)

    def test_long_words_share_letters(self):
        word = ((curve("beta", 2), 1), (curve("beta", 3), -1)) * SHARED_INVERSES_FROM
        once, twice = invert(word), invert(word)
        assert once == self.built(word)
        assert all(map(lambda x, y: x is y, once, twice))

    @pytest.mark.parametrize(
        "first, second",
        [(True, 1), (1, True), (CurveId("alpha", 1), ("alpha", 1)), (("alpha", 1), CurveId("alpha", 1))],
        ids=["bool-then-int", "int-then-bool", "curve-then-tuple", "tuple-then-curve"],
    )
    def test_generator_type_is_kept(self, first, second):
        # the generators are equal across types, so the letters are equal
        # keys of one table; each word keeps its own generator type
        assert first == second and type(first) is not type(second)
        for generator in (first, second):
            word = ((generator, 1), (generator, -1)) * SHARED_INVERSES_FROM
            for g, _ in invert(word):
                assert type(g) is type(generator)
        mixed = ((first, 1), (second, 1)) * SHARED_INVERSES_FROM
        assert [type(g) for g, _ in invert(mixed)] == [type(g) for g, _ in reversed(mixed)]

    def test_inverse_allocates_no_letters(self):
        alphabet = [curve(f, i) for f in ("alpha", "beta", "gamma", "delta") for i in range(1, 80)]
        rng = random.Random(5)
        word = tuple((rng.choice(alphabet), rng.choice((1, -1))) for _ in range(20_000))
        invert(word)  # fills the table, at most two letters per generator
        tracemalloc.start()
        try:
            inverse = invert(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inverse == self.built(word)
        # the pointer array is 8 bytes a letter; a built letter costs 64
        assert peak < 10 * len(word)


def test_braids_loads_no_homology_stack():
    """Braid words need only the word calculus: the Dynnikov decider does
    not load the flip derivation in ``laminations``."""
    env = dict(os.environ)
    src = str(Path(twistbench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, twistbench.braids; "
        "print(' '.join(m for m in sys.modules if m.startswith('twistbench')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=env, timeout=120, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "twistbench.words" in loaded
    for heavy in ("homology", "factorization", "intlin", "surface", "laminations"):
        assert f"twistbench.{heavy}" not in loaded
