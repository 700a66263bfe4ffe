"""Braid words, equality decision via Dynnikov coordinates, and
relation checking.

A braid word is a tuple of (generator index, sign) letters over n
strands, composed like twist words: the rightmost letter acts first.
Equality is decided by exponent sum plus the image of one integral
lamination E under the word.  That is the one decider.

The lamination lives on n + 1 punctures: the n strand punctures and one
fixed basepoint puncture to their right.  It is stored by its Dynnikov
coordinates (a_1..a_{n-1}, b_1..b_{n-1}) and starts at
E = (0, ..., 0; -1, ..., -1).  sigma_i moves only punctures i and i+1,
so it never moves the basepoint.  sigma_1 has its own rule, on a_1 and
b_1 alone; every other sigma_i changes coordinates i-1 and i by one
closed max/min formula.  With the basepoint on the right, coordinate i
exists for sigma_{n-1} too, so the last generator needs no boundary
case.  The rule is hard-coded from the literature: Dynnikov, "On a
Yang-Baxter map and the Dehornoy ordering", Russian Math. Surveys 57
(2002); Dehornoy, Dynnikov, Rolfsen and Wiest, "Ordering Braids" (AMS,
2008), ch. XII; Hall and Yurttas, Topology Appl. 156 (2009); Thiffeault,
Chaos 20 (2010); Thiffeault and Budisic, "Braidlab", arXiv:1410.0849,
whose basepoint loops are the same construction.  The check behind it is
the half-twist action that ``laminations`` derives from flips of a
triangulation: the tests compare the two engines' decisions, and
``scripts/derive_flip_rules.py`` reruns the derivation.

The basepoint makes the decision faithful.  B_n acts freely on the
orbit of E in the disc with a basepoint (Dehornoy et al., ch. XII), so
equal images mean equal braids.  On the n strand punctures alone the
action on E is not faithful modulo the centre: at n = 3,
sigma_1 sigma_2^-1 and sigma_2^-1 sigma_1^3 sigma_2^-1 sigma_1^-1 have
the same exponent sum and the same image of E there.  With the
basepoint the full twist moves E as well, so the exponent sum is only
the cheap first comparison.

The free-group (Artin) representation, where sigma_i sends x_i to
x_i x_{i+1} x_i^{-1} and x_{i+1} to x_i, is kept only as a test oracle
for short words: its images grow exponentially with the word length, so
it is not a second route.

This is a disk model: the extra relation that holds for braids moved to
a closed surface (the sphere relation) genuinely fails here.
"""
from __future__ import annotations

from .words import Word, free_reduce, invert

__all__ = [
    "BraidError",
    "braid_word",
    "exponent_sum",
    "dynnikov_action",
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


def dynnikov_action(word, coords) -> tuple:
    """Image of the Dynnikov coordinates ``coords`` = (a_1..a_{n-1},
    b_1..b_{n-1}) of a lamination on the n strand punctures and the
    basepoint, under a word on n strands, rightmost letter first."""
    if len(coords) % 2 or not coords:
        raise BraidError(f"need 2(n-1) >= 2 Dynnikov coordinates, got {len(coords)}")
    half = len(coords) // 2
    word = braid_word(word, half + 1)
    a, b = list(coords[:half]), list(coords[half:])
    for i, s in reversed(word):
        if i == 1:
            b1 = b[0]
            if s == 1:
                b[0] = max(b1, 0) - a[0]
                a[0] = b1 - max(b[0], 0)
            else:
                b[0] = a[0] + max(b1, 0)
                a[0] = max(b[0], 0) - b1
            continue
        j = i - 2  # sigma_i acts on coordinates i-1 and i
        a0, b0, a1, b1 = a[j], b[j], a[j + 1], b[j + 1]
        if s == 1:
            c = a0 - min(b0, 0) - a1 + max(b1, 0)
            a[j] = a0 + max(b0, 0) + max(max(b1, 0) - c, 0)
            b[j] = b1 - max(c, 0)
            a[j + 1] = a1 + min(b1, 0) + min(min(b0, 0) + c, 0)
            b[j + 1] = b0 + max(c, 0)
        else:
            d = a0 + min(b0, 0) - a1 - max(b1, 0)
            a[j] = a0 - max(b0, 0) - max(max(b1, 0) + d, 0)
            b[j] = b1 + min(d, 0)
            a[j + 1] = a1 - min(b1, 0) - min(min(b0, 0) - d, 0)
            b[j + 1] = b0 - min(d, 0)
    return tuple(a + b)


def word_fingerprint(word, n: int) -> tuple:
    """Canonical value of the braid element: exponent sum plus the
    Dynnikov image of E on the n strand punctures and the basepoint, so
    equal fingerprints mean equal elements."""
    word = braid_word(word, n)
    return exponent_sum(word), dynnikov_action(word, (0,) * (n - 1) + (-1,) * (n - 1))


def braid_equal(w1, w2, n: int) -> bool:
    """Equal exponent sums and equal Dynnikov images of E."""
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
