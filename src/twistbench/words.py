"""Free words: the one format shared by twist, braid and monodromy words.

A word is a tuple of ``(generator, sign)`` letters with sign ±1 over any
hashable generator alphabet (curve ids for twist words, integer indices
for braid words).  Words multiply by concatenation with the rightmost
letter acting first, so the conjugate ``w^{-1} x w`` applies ``w``, then
``x``, then undoes ``w``.

Reduced words in, reduced words out: ``free_reduce`` normalises words
from outside (constructors, braid input, tests); ``join`` and
``join_conjugate`` take freely reduced words and return the reduced
result by cancelling only where two reduced words meet, which is the
only place a cancellation can occur.  A free-group element has one
reduced form, so they give exactly what ``free_reduce`` would.
"""
from __future__ import annotations

from itertools import compress, count
from operator import itemgetter, ne, neg
from typing import Iterable

__all__ = ["Word", "invert", "free_reduce", "conjugate", "join", "join_conjugate"]

Word = tuple  # of (generator, ±1) pairs


def invert(word: Iterable) -> Word:
    # a list display builds the letters faster than a generator
    # expression or ``zip``/``map`` over ``itemgetter`` and ``neg``
    return tuple([(g, -s) for g, s in reversed(tuple(word))])


def free_reduce(word: Iterable) -> Word:
    out: list = []
    for core, sign in word:
        if out and out[-1][0] == core and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((core, sign))
    return tuple(out)


def conjugate(word: Iterable, by: Iterable) -> Word:
    """``by^{-1} · word · by``, unreduced."""
    by = tuple(by)
    return invert(by) + tuple(word) + by


def _mismatch(pairs, default: int) -> int:
    """Index of the first true value in ``pairs``, else ``default``; the
    scan runs in C and stops there."""
    return next(compress(count(), pairs), default)


def join(u: Word, v: Word) -> Word:
    """``free_reduce(u + v)`` for freely reduced ``u`` and ``v``.

    Letters cancel only across the seam: the k-th last letter of ``u``
    against the inverse of the k-th letter of ``v``.  The scan stops at
    the first pair that does not cancel."""
    inverse_letters = zip(map(itemgetter(0), v), map(neg, map(itemgetter(1), v)))
    k = _mismatch(map(ne, reversed(u), inverse_letters), min(len(u), len(v)))
    return u[: len(u) - k] + v[k:]


def join_conjugate(u: Word, letter: tuple, by: Word) -> Word:
    """``free_reduce(u + conjugate((letter,), by))`` for freely reduced
    ``u`` and ``by``; with ``u = ()`` it is the reduced conjugate of one
    letter.

    Leading letters of ``by`` with the letter's generator commute with
    it and cancel against their inverses; what is left of ``by`` starts
    with another generator, so conjugating the letter by it gives a
    reduced word.  Where ``u`` meets ``by^{-1}``, the letters that cancel
    are the common suffix of ``u`` and ``by``: they are compared, never
    inverted."""
    k = 0
    while k < len(by) and by[k][0] == letter[0]:
        k += 1
    by = by[k:]
    k = _mismatch(map(ne, reversed(u), reversed(by)), min(len(u), len(by)))
    if k < len(by):
        # the last letters of u and of by left over differ, so nothing
        # more cancels
        return u[: len(u) - k] + invert(by[: len(by) - k]) + (letter,) + by
    return join(u[: len(u) - k], (letter,) + by)
