"""Free words: the one format shared by twist, braid and monodromy words.

A word is a tuple of ``(generator, sign)`` letters with sign ±1 over any
hashable generator alphabet (curve ids for twist words, integer indices
for braid words).  Words compose by concatenation with the rightmost
letter acting first, so the conjugate ``w^{-1} x w`` applies ``w``, then
``x``, then undoes ``w``.
"""
from __future__ import annotations

from typing import Iterable

__all__ = ["Word", "invert", "free_reduce", "conjugate"]

Word = tuple  # of (generator, ±1) pairs


def invert(word: Iterable) -> Word:
    return tuple((g, -s) for g, s in reversed(tuple(word)))


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
