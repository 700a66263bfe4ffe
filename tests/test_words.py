"""The free-word calculus shared by twist, braid and monodromy words.

Every operation is checked over a curve-id alphabet (twist words) and an
integer alphabet (braid words); the small cancellation and inversion
identities were worked out by hand [TRIVIAL], the rest is property-based.
The seam-only operations ``join`` and ``join_conjugate`` are checked
against ``free_reduce`` over the whole concatenation.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import twistbench
from twistbench.coxeter import coxeter
from twistbench.surface import curve
from twistbench.words import (
    conjugate,
    free_reduce,
    invert,
    join,
    join_conjugate,
)


def words_over(*generators, max_size):
    return st.lists(
        st.tuples(st.sampled_from(generators), st.sampled_from((1, -1))),
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
    def test_join_reduces_only_the_seam(self, a, b, c, data):
        x, w, y = (data.draw(words_over(a, b, c, max_size=10)) for _ in range(3))
        # u ends with w and v starts with its inverse, so long seams occur
        u = free_reduce(tuple(x) + tuple(w))
        v = free_reduce(invert(w) + tuple(y))
        assert join(u, v) == free_reduce(u + v)
        assert join(v, u) == free_reduce(v + u)

    def test_join_examples(self, a, b, c):
        u = ((a, 1), (b, -1), (c, 1))
        assert join(u, invert(u)) == ()
        assert join(u, ((c, -1), (b, 1), (c, 1))) == ((a, 1), (c, 1))
        assert join(u, ((c, 1),)) == u + ((c, 1),)
        assert join((), u) == join(u, ()) == u

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
