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
``chain_word_images`` runs a twist word on the chain's own crossing form,
built from the pairings of consecutive curves, with the curve-coordinate
kernel of ``crossing``.  A chain's curves are a basis of ``H_1`` of its
regular neighbourhood, so ``verify_chain_action`` compares the images
exactly in chain coordinates, and equality there implies it in ``H_1`` of
the fibre.  So ``coxeter`` imports neither ``homology`` nor ``intlin``,
and imports ``crossing`` only where a chain action runs.
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

__all__ = [
    "ChainError",
    "validate_chain",
    "chain_signs",
    "coxeter",
    "chain_word_images",
    "chain_neighborhood_stats",
    "psi_factor_chains",
    "psi_factorization",
    "psi_factorization_length",
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
    for i, (a, b) in enumerate(zip(chain, chain[1:])):
        pair = model.pairing(a, b)
        if pair not in (+1, -1):
            raise ChainError(i, f"{a.label}, {b.label} pair to {pair}, expected ±1")
        eps.append(eps[-1] * pair)
    return tuple(eps)


def coxeter(chain, power: int = 1) -> words.Word:
    """The Coxeter twist word of the chain, raised to ``power``."""
    chain = tuple(chain)
    if power == 0:
        raise ValueError("power must be a nonzero integer")
    # one letter object per curve, shared by all N(N+1)/2 positions
    letters = tuple((c, +1) for c in chain)
    delta = tuple(
        letters[j] for k in range(1, len(chain) + 1) for j in range(k - 1, -1, -1)
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


def psi_factorization_length(b: int) -> int:
    """``len(psi_factorization(b))``, without building the word: the
    Coxeter word of an N-chain has N(N+1)/2 letters per unit of power."""
    return sum(
        len(chain) * (len(chain) + 1) // 2 * abs(PSI_FACTOR_POWERS[name])
        for name, chain in psi_factor_chains(b).items()
    )


def chain_word_images(model: HomologyModel, chain, word) -> list[dict[int, int]]:
    """The images of the chain's curves under a twist word over its curves
    (the rightmost letter acts first), as sparse rows in the chain's own
    coordinates: ``X[k][i]`` is the coefficient of ``c_k`` in the image of
    ``c_i``.  In a chain, ``c_j`` pairs only with ``c_{j-1}`` and
    ``c_{j+1}``, so a letter changes row ``j`` alone, reading its two
    neighbours (``crossing.twist_images`` on the chain's form)."""
    return _chain_images(model, validate_chain(model.system, chain), word)


def _chain_form(model: HomologyModel, chain: tuple) -> tuple[dict[int, int], ...]:
    """A validated chain's crossing form: only consecutive curves meet."""
    form: list[dict[int, int]] = [{} for _ in chain]
    for i, (a, b) in enumerate(zip(chain, chain[1:])):
        form[i][i + 1] = model.pairing(a, b)
        form[i + 1][i] = -form[i][i + 1]
    return tuple(form)


def _chain_images(model: HomologyModel, chain: tuple, word) -> list[dict[int, int]]:
    from .crossing import twist_images, twist_steps

    return twist_images(twist_steps(chain, _chain_form(model, chain)), len(chain), word)


def verify_chain_action(model: HomologyModel, chain) -> None:
    """Assert the Coxeter action on the reoriented chain curves: for odd
    chains Delta sends the i-th curve to the (N+1-i)-th with sign (-1)^(i+1);
    for even chains Delta^2 negates every chain curve.  The images
    (``chain_word_images``) are compared exactly in chain coordinates."""
    chain = validate_chain(model.system, chain)
    eps = chain_signs(model, chain)
    size = len(chain)
    odd = size % 2
    columns: list[dict[int, int]] = [{} for _ in chain]
    for k, row in enumerate(_chain_images(model, chain, coxeter(chain, 1 if odd else 2))):
        for i, x in row.items():
            columns[i][k] = x
    for i, column in enumerate(columns):
        # the image of the unsigned curve c_i is +-c_k
        if odd:
            k = size - 1 - i
            sign = eps[i] * eps[k] * (-1 if i % 2 else +1)
        else:
            k, sign = i, -1
        if column != {k: sign}:
            raise AssertionError(
                f"{'odd-chain' if odd else 'even-chain squared'} action failed at "
                f"position {i + 1} of {[c.label for c in chain]}"
            )
