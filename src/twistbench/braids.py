"""Braid words, equality decision via lamination actions, and relation
checking.

A braid word is a tuple of (generator index, sign) letters over n
strands, composed like twist words: the rightmost letter acts first.
Equality is decided by exponent sum plus the action on a separating
family of round-curve laminations; the centre (the full twist) is the
only kernel of the curve action and is caught by the exponent sum.  That
is the one decider.  The free-group (Artin) representation, where
sigma_i sends x_i to x_i x_{i+1} x_i^{-1} and x_{i+1} to x_i, is kept
only as a test oracle for short words: its images grow exponentially
with the word length, so it is not a second route.

This is a disk model: the extra relation that holds for braids moved to
a closed surface (the sphere relation) genuinely fails here.
"""
from __future__ import annotations

from .laminations import test_family, word_action
from .words import Word, free_reduce, invert

__all__ = [
    "BraidError",
    "braid_word",
    "exponent_sum",
    "word_fingerprint",
    "braid_equal",
    "artin_image",
    "permutation_image",
    "verify_manfredini",
]

class BraidError(ValueError):
    pass


def braid_word(letters, n: int) -> Word:
    word = tuple((int(i), int(s)) for i, s in letters)
    for i, s in word:
        if not 1 <= i <= n - 1:
            raise BraidError(f"generator {i} out of range for {n} strands")
        if s not in (1, -1):
            raise BraidError(f"letter sign must be +1 or -1, got {s}")
    return word


def exponent_sum(word) -> int:
    return sum(s for _, s in word)


def word_fingerprint(word, n: int) -> tuple:
    """Canonical value of the braid element: exponent sum plus the
    images of the probe family.  The probe action separates everything
    except the centre, which the exponent sum separates, so equal
    fingerprints mean equal elements."""
    word = braid_word(word, n)
    return (
        exponent_sum(word),
        tuple(word_action(p, word).normal for p in test_family(n)),
    )


def braid_equal(w1, w2, n: int) -> bool:
    """Equal exponent sums and equal action on the probe family."""
    return word_fingerprint(w1, n) == word_fingerprint(w2, n)


# ---------------------------------------------------------------------------
# free-group route


def _single_artin(i: int, s: int, n: int) -> dict:
    images = {j: ((j, 1),) for j in range(1, n + 1)}
    if s == 1:
        images[i] = ((i, 1), (i + 1, 1), (i, -1))
        images[i + 1] = ((i, 1),)
    else:
        images[i] = ((i + 1, 1),)
        images[i + 1] = ((i + 1, -1), (i, 1), (i + 1, 1))
    return images


def _substitute(word, images: dict):
    out = []
    for j, s in word:
        img = images[j] if s == 1 else invert(images[j])
        out.extend(img)
    return free_reduce(out)


def artin_image(word, n: int) -> tuple:
    """Images of the free generators under the word's automorphism; a
    test oracle for short words, since the images grow exponentially."""
    word = braid_word(word, n)
    images = {j: ((j, 1),) for j in range(1, n + 1)}
    for i, s in reversed(word):
        single = _single_artin(i, s, n)
        images = {j: _substitute(img, single) for j, img in images.items()}
    return tuple(images[j] for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# permutations


def permutation_image(word, n: int) -> tuple:
    """Image permutation p with p[k-1] = final position of strand k,
    letters acting rightmost first."""
    word = braid_word(word, n)
    perm = list(range(n + 1))  # 1-based
    for i, _ in reversed(word):
        perm = [i + 1 if x == i else i if x == i + 1 else x for x in perm]
    return tuple(perm[1:])


# ---------------------------------------------------------------------------
# relation batteries


def verify_manfredini(n: int, k: int) -> tuple:
    """Check the band-generator relations for the elements
    A = sigma_{n-k-1}, B = sigma_{n-k}^2, C = sigma_{n-k+1}.

    Returns (relation name, status) pairs with status "holds", "fails",
    or "skipped" when the A- or C-index falls off the generator range.
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise BraidError(f"need n >= 2 and 1 <= k <= n-1, got n={n}, k={k}")
    a, b, c = n - k - 1, n - k, n - k + 1
    A = ((a, 1),)
    B = ((b, 1), (b, 1))
    C = ((c, 1),)
    has_a, has_c = a >= 1, c <= n - 1
    results = []

    def check(name, available, w1, w2):
        if not available:
            results.append((name, "skipped"))
            return
        results.append((name, "holds" if braid_equal(w1, w2, n) else "fails"))

    check("ABAB=BABA", has_a, A + B + A + B, B + A + B + A)
    check("BCBC=CBCB", has_c, B + C + B + C, C + B + C + B)
    check(
        "ABA^-1 commutes with CBC^-1",
        has_a and has_c,
        A + B + invert(A) + C + B + invert(C),
        C + B + invert(C) + A + B + invert(A),
    )
    check("AC=CA", has_a and has_c, A + C, C + A)
    check(
        "braid relation at (a,b)",
        has_a,
        ((a, 1), (b, 1), (a, 1)),
        ((b, 1), (a, 1), (b, 1)),
    )
    check(
        "braid relation at (b,c)",
        has_c,
        ((b, 1), (c, 1), (b, 1)),
        ((c, 1), (b, 1), (c, 1)),
    )
    return tuple(results)
