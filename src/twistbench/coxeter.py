"""Chains of curves, Coxeter twist products, and the six-factor expansion
of the gluing involution.

A chain is a sequence of curves in which consecutive members meet exactly
once and non-consecutive members are disjoint.  The Coxeter product of a
chain ``(c_1, ..., c_N)`` is the twist word

    Delta = (T_1)(T_2 T_1)(T_3 T_2 T_1) ... (T_N ... T_1)

with ``N(N+1)/2`` letters, the rightmost acting first.  Twist matrices do
not depend on curve orientations, so the word is orientation-free; the
orientation bookkeeping (the signs making consecutive chain intersections
+1) only enters when stating how ``Delta`` permutes the chain classes.

The words need no homology model, and a chain's action needs no matrix:
``chain_word_images`` moves coordinates along the chain, reading only the
pairings of consecutive curves, and lifts the result to ``H_1`` through
the model's curve classes.  So ``coxeter`` imports neither ``homology``
nor ``intlin``.
"""
from __future__ import annotations

from . import words
from .surface import (
    CurveId,
    CurveSystem,
    curve,
    euler_and_genus,
    ribbon_from_system,
    subsystem,
)

# annotations are never evaluated, so only a type checker imports typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .homology import HomologyModel
    from .intlin import IntVector

__all__ = [
    "ChainError",
    "validate_chain",
    "chain_signs",
    "coxeter",
    "chain_word_images",
    "chain_neighborhood_stats",
    "psi_factor_chains",
    "psi_factorization",
    "verify_chain_action",
]

class ChainError(ValueError):
    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"chain condition violated at position {index}: {message}")


def validate_chain(sys: CurveSystem, seq) -> tuple[CurveId, ...]:
    """Check the two geometric chain conditions and return the chain.

    One pass over the incidence lists counts the crossings each pair of
    positions shares; the first bad pair in ``(i, j)`` order is reported."""
    chain = tuple(seq)
    if not chain:
        raise ChainError(0, "empty chain")
    known = set(sys.curves)
    for i, c in enumerate(chain):
        if c not in known:
            raise ChainError(i, f"unknown curve {c.label}")
    position = {c: i for i, c in enumerate(chain)}
    if len(position) != len(chain):
        raise ChainError(0, "repeated curve")
    shared: dict[tuple[int, int], int] = {}
    for i, c in enumerate(chain):
        for x in sys.incidences_of(c):
            first, second, _ = sys.crossings[x]
            j = position.get(second if first == c else first, -1)
            if j > i:
                shared[i, j] = shared.get((i, j), 0) + 1
    bad = [pair for pair in shared if pair[1] > pair[0] + 1]
    bad.extend((i, i + 1) for i in range(len(chain) - 1) if shared.get((i, i + 1)) != 1)
    if bad:
        i, j = min(bad)
        if j == i + 1:
            raise ChainError(
                i,
                f"{chain[i].label} and {chain[j].label} share "
                f"{shared.get((i, j), 0)} crossings, consecutive curves need exactly 1",
            )
        raise ChainError(i, f"{chain[i].label} and {chain[j].label} must be disjoint")
    return chain


def chain_signs(model: HomologyModel, chain) -> tuple[int, ...]:
    """Reorientation signs: ``eps_1 = 1`` and ``eps_i * class(c_i)`` meets
    the next reoriented class positively along the chain."""
    chain = tuple(chain)
    eps = [1]
    for a, b in zip(chain, chain[1:]):
        pair = model.pairing(a, b)
        if pair not in (+1, -1):
            raise ChainError(0, f"{a.label}, {b.label} pair to {pair}, expected ±1")
        eps.append(eps[-1] * pair)
    return tuple(eps)


def coxeter(chain, power: int = 1) -> words.Word:
    """The Coxeter twist word of the chain, raised to ``power``."""
    chain = tuple(chain)
    if power == 0:
        raise ValueError("power must be a nonzero integer")
    delta = tuple(
        (chain[j], +1) for k in range(1, len(chain) + 1) for j in range(k - 1, -1, -1)
    )
    word = delta if power > 0 else words.invert(delta)
    return word * abs(power)


def chain_neighborhood_stats(sys: CurveSystem, chain) -> tuple[int, int]:
    """(number of boundary walks, capped genus) of the regular
    neighbourhood of the chain inside ``sys``."""
    chain = validate_chain(sys, chain)
    rg = ribbon_from_system(subsystem(sys, chain))
    _, genus = euler_and_genus(rg)
    return len(rg.walks), genus


def _family_run(family: str, start: int, stop: int) -> tuple[CurveId, ...]:
    step = 1 if stop >= start else -1
    return tuple(curve(family, i) for i in range(start, stop + step, step))


def psi_factor_chains(b: int) -> dict[str, tuple[CurveId, ...]]:
    """The six chains whose Coxeter products factor the gluing involution.

    Factors A1..A3 use the three long chains through sigma at power 1;
    A4 and A5 use power -2; A6 uses power -1.
    """
    n = 2 * b - 1
    sigma = curve("sigma")
    return {
        "A1": _family_run("delta", n, 1) + (sigma,) + _family_run("alpha", 1, n),
        "A2": _family_run("alpha", n, 1) + (sigma,) + _family_run("beta", 1, n),
        "A3": _family_run("beta", n, 1) + (sigma,) + _family_run("gamma", 1, n),
        "A4": _family_run("alpha", n, 2),
        "A5": _family_run("gamma", n, 1) + (sigma,),
        "A6": _family_run("alpha", n, 1) + (sigma,) + _family_run("gamma", 1, n),
    }


PSI_FACTOR_POWERS = {"A1": 1, "A2": 1, "A3": 1, "A4": -2, "A5": -2, "A6": -1}


def psi_factorization(b: int) -> words.Word:
    """Twist word of the six-factor product A6 A5 A4 A3 A2 A1, concatenated
    so that A1 acts first (rightmost)."""
    chains = psi_factor_chains(b)
    word: list = []
    for name in ("A6", "A5", "A4", "A3", "A2", "A1"):
        word.extend(coxeter(chains[name], PSI_FACTOR_POWERS[name]))
    return tuple(word)


def chain_word_images(model: HomologyModel, chain, word) -> list[IntVector]:
    """The images of the chain's curve classes under a twist word over its
    curves (the rightmost letter acts first), in chain order.

    The word runs in the chain's own coordinates: ``X[k][i]`` is the
    coefficient of ``c_k`` in the image of ``c_i``.  The letter ``(c_j, s)``
    acts by ``x -> x - s <x, c_j> c_j`` and, in a chain, ``c_j`` pairs only
    with ``c_{j-1}`` and ``c_{j+1}``, so it changes coordinate ``j`` alone,
    reading its two neighbours.  Each image is then lifted to ``H_1`` as
    ``sum_k X[k][i] class(c_k)``, so the result is exact even when the
    chain classes are linearly dependent."""
    return _chain_images(model, validate_chain(model.system, chain), word)


def _chain_images(model: HomologyModel, chain: tuple, word) -> list[IntVector]:
    size = len(chain)
    # padded rows 0 and size + 1 stay zero, so every letter reads two rows
    coords = [[0] * size for _ in range(size + 2)]
    for i in range(size):
        coords[i + 1][i] = 1
    pairs = [0] + [model.pairing(a, b) for a, b in zip(chain, chain[1:])] + [0]
    # <c_j, c_{j-1}> = -pairs[j] and <c_j, c_{j+1}> = pairs[j + 1]
    steps = {}
    for j, c in enumerate(chain):
        for s in (+1, -1):
            steps[c, s] = (j + 1, -s * pairs[j], s * pairs[j + 1])
    for letter in reversed(tuple(word)):
        try:
            p, left, right = steps[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} is not a twist along the chain") from None
        coords[p] = [
            x + left * y + right * z for x, y, z in zip(coords[p], coords[p - 1], coords[p + 1])
        ]
    classes = [model.curve_class(c) for c in chain]
    images = []
    for column in zip(*coords[1:-1]):
        image = (0,) * model.rank
        for x, v in zip(column, classes):
            if x:
                image = tuple(a + x * y for a, y in zip(image, v))
        images.append(image)
    return images


def verify_chain_action(model: HomologyModel, chain) -> None:
    """Assert the Coxeter action on the reoriented chain classes: for odd
    chains Delta sends the i-th class to the (N+1-i)-th with sign (-1)^(i+1);
    for even chains Delta^2 negates every chain class.  The word runs in
    chain coordinates (``chain_word_images``); the images are compared in
    ``H_1``."""
    chain = validate_chain(model.system, chain)
    eps = chain_signs(model, chain)
    size = len(chain)
    odd = size % 2
    images = _chain_images(model, chain, coxeter(chain, 1 if odd else 2))
    for i, image in enumerate(images):
        # the image of the unsigned class c_i is +-class(c_k)
        if odd:
            k = size - 1 - i
            sign = eps[i] * eps[k] * (-1 if i % 2 else +1)
        else:
            k, sign = i, -1
        target = model.curve_class(chain[k])
        if image != (target if sign > 0 else tuple(-x for x in target)):
            raise AssertionError(
                f"{'odd-chain' if odd else 'even-chain squared'} action failed at "
                f"position {i + 1} of {[c.label for c in chain]}"
            )
