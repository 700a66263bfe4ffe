"""Free words: the one format shared by twist, braid and monodromy words.

A word is a tuple of ``(generator, sign)`` letters with sign ±1 over any
hashable generator alphabet (curve ids for twist words, integer indices
for braid words).  Words multiply by concatenation with the rightmost
letter acting first, so the conjugate ``w^{-1} x w`` applies ``w``, then
``x``, then undoes ``w``.

Reduced words in, reduced words out: ``free_reduce`` normalises words
from outside (constructors, braid input, tests); ``join_conjugate``
takes freely reduced words and returns the reduced result by cancelling
only where two reduced words meet, which is the only place a
cancellation can occur.  A free-group element has one reduced form, so
it gives exactly what ``free_reduce`` would.
``join_conjugate_length`` reads the length of that result from the same
seam without building it.

Inverse letters are shared: ``invert`` hands back one inverse object per
letter, from a table of this module that grows only with the alphabet,
so the inverse of a long word allocates its pointer array and no letters
(a word under ``SHARED_INVERSES_FROM`` letters gets new ones, which is
faster there).  Inversion never changes a generator's type.  Letters can
be equal across types (``(True, 1) == (1, 1)``, ``CurveId("alpha", 1) ==
("alpha", 1)``), so the table keeps one sub-table per generator type, and
a word whose generators are not all of one type gets new letters.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import compress, count
from operator import countOf, itemgetter, ne, neg

# annotations are never evaluated, so only a type checker imports typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

__all__ = [
    "Word",
    "SHARED_INVERSES_FROM",
    "invert",
    "free_reduce",
    "conjugate",
    "join_conjugate",
    "join_conjugate_length",
]

Word = tuple  # of (generator, ±1) pairs

_generator = itemgetter(0)
_sign = itemgetter(1)


class _Inverses(dict):
    """Letter -> its inverse letter, for the letters of one generator
    type; an inverse is built the first time its letter is looked up."""

    __slots__ = ()

    def __missing__(self, letter: tuple) -> tuple:
        generator, sign = letter
        inverse = self[letter] = (generator, -sign)
        return inverse


#: generator type -> the inverse letters over that type
_INVERSES: defaultdict = defaultdict(_Inverses)

#: Shortest word whose inverse takes its letters from the table.  A
#: lookup hashes the letter and the type test reads each generator, so a
#: shared letter costs more time than a new one (about 130 against 60 ns
#: on a 2-core x86-64 machine); what it saves is memory and garbage
#: collection, and those count only on long words.  From 64 letters the
#: slower checks of random move scripts (conjugators of up to 3,000
#: letters) took 10% longer; from 256 they did not.
SHARED_INVERSES_FROM = 256


def invert(word: Iterable) -> Word:
    word = tuple(word)
    if len(word) >= SHARED_INVERSES_FROM:
        kind = type(word[0][0])
        # the type test runs in C and allocates nothing per letter
        if countOf(map(type, map(_generator, word)), kind) == len(word):
            return tuple(map(_INVERSES[kind].__getitem__, reversed(word)))
    return tuple([(g, -s) for g, s in reversed(word)])


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


def _cancelled(u: Word, v: Word) -> int:
    """How many letters cancel where reduced ``u`` meets reduced ``v``:
    the k-th last letter of ``u`` against the inverse of the k-th letter
    of ``v``.  The scan runs in C and stops at the first pair that does
    not cancel."""
    inverse_letters = zip(map(_generator, v), map(neg, map(_sign, v)))
    return next(compress(count(), map(ne, reversed(u), inverse_letters)), min(len(u), len(v)))


def _seam(u: Word, letter: tuple, by: Word) -> tuple:
    """Where ``u`` meets ``conjugate((letter,), by)``, as ``(h, k, j)``.

    The ``h`` leading letters of ``by`` have the letter's generator: they
    commute with it and cancel against their inverses, and what is left,
    ``by[h:]``, starts with another generator, so conjugating the letter
    by it gives a reduced word.  Where ``u`` meets ``by[h:]^{-1}``, the
    letters that cancel are the ``k`` letters of the common suffix of
    ``u`` and ``by[h:]``: they are compared, never inverted.  When all of
    ``by[h:]`` is that suffix, ``j`` more letters cancel where the rest of
    ``u`` meets ``(letter,) + by[h:]``; otherwise the last letters of
    ``u`` and of ``by`` left over differ, and ``j`` is 0."""
    generator = letter[0]
    h = 0
    while h < len(by) and by[h][0] == generator:
        h += 1
    n = len(by) - h
    # the scan may run on into the first h letters of by; k stops at n
    k = next(compress(count(), map(ne, reversed(u), reversed(by))), min(len(u), len(by)))
    if k < n:
        return h, k, 0
    return h, n, _cancelled(u[: len(u) - n], (letter,) + by[h:])


def join_conjugate(u: Word, letter: tuple, by: Word) -> Word:
    """``free_reduce(u + conjugate((letter,), by))`` for freely reduced
    ``u`` and ``by``, built from the seam (``_seam``); with ``u = ()`` it
    is the reduced conjugate of one letter."""
    h, k, j = _seam(u, letter, by)
    n = len(by) - h
    if k < n:
        return u[: len(u) - k] + invert(by[h : len(by) - k]) + (letter,) + by[h:]
    return u[: len(u) - n - j] + ((letter,) + by[h:])[j:]


def join_conjugate_length(u: Word, letter: tuple, by: Word) -> int:
    """``len(join_conjugate(u, letter, by))``, read from the seam without
    building the word."""
    h, k, j = _seam(u, letter, by)
    return len(u) + 2 * (len(by) - h - k - j) + 1
